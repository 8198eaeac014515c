"""Exact planar geometry: integer points, orientation tests, point-set
containers, and generators for the standard test configurations.

Every predicate is an exact integer determinant; no floating point is
used anywhere.  ``orient`` is the one orientation determinant, over
``(x, y)`` int pairs or ``Point``s alike; ``incircle``, the Delaunay
test of the flip-graph walk, is the one lifted one.  ``order_type`` tables its sign for every
index triple of a point list; the flip layers and the polygon core read
that table, and ``crosses`` takes it and four indices.  Each container
carries its points once as the pairs ``xy`` and their order type once
as ``signs``.  Point sets are validated from the table to be in general
position (no three points collinear) on construction, because every
downstream count silently depends on it.  An augmented set is a point
set whose convex hull is its frame: one point list, base then frame,
with one order type.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Iterable, Sequence

from .errors import CollinearTripleError, DuplicatePointError, ExhaustedRetriesError
from .rng import SplitMix64

# Sign values returned by orient().
CCW = 1
CW = -1
COLLINEAR = 0


@dataclass(frozen=True, slots=True)
class Point:
    """Immutable planar point with exact integer coordinates."""

    x: int
    y: int

    def __post_init__(self):
        if not isinstance(self.x, int) or not isinstance(self.y, int):
            raise TypeError(f"coordinates must be int, got ({self.x!r}, {self.y!r})")

    def __iter__(self):
        return iter((self.x, self.y))

    def __repr__(self) -> str:
        return f"Point({self.x}, {self.y})"


def orient(a, b, c) -> int:
    """Sign of the determinant |b-a, c-a|: CCW, CW, or COLLINEAR."""
    ax, ay = a
    bx, by = b
    cx, cy = c
    d = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    if d > 0:
        return CCW
    if d < 0:
        return CW
    return COLLINEAR


def order_type(xy: Sequence) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The orientation signs of the points ``xy``: ``signs[a][b][c] ==
    orient(xy[a], xy[b], xy[c])`` for every index triple.  One ``orient``
    call per triple a < b < c; the other five orders follow by swapping
    (a repeated index gives COLLINEAR)."""
    n = len(xy)
    signs = [[[COLLINEAR] * n for _ in range(n)] for _ in range(n)]
    for a, b, c in combinations(range(n), 3):
        o = orient(xy[a], xy[b], xy[c])
        signs[a][b][c] = signs[b][c][a] = signs[c][a][b] = o
        signs[a][c][b] = signs[c][b][a] = signs[b][a][c] = -o
    return tuple(tuple(map(tuple, plane)) for plane in signs)


def crosses(signs, a: int, b: int, c: int, d: int) -> bool:
    """True iff the open segments ab and cd properly intersect, where
    a, b, c, d index the order type ``signs``.

    Shared endpoints, endpoint-on-segment contacts, and collinear
    overlaps do not count as proper crossings.
    """
    return signs[a][b][c] * signs[a][b][d] < 0 and signs[c][d][a] * signs[c][d][b] < 0


def incircle(xy: Sequence, a: int, b: int, c: int, d: int) -> bool:
    """True iff d lies inside the circle through the CCW triangle abc: the
    lifted determinant, with rows (x, y, x² + y²) relative to d, is
    positive.  A tie is broken by simulation of simplicity (Edelsbrunner &
    Mücke 1990): the lift of min(a, b, c, d) is raised by 1, which adds
    its cofactor, an orientation, non-zero in general position."""
    dx, dy = xy[d]
    rel = [(x - dx, y - dy) for x, y in (xy[a], xy[b], xy[c])]
    (ax, ay), (bx, by), (cx, cy) = rel
    # The cofactors of the lifts of a, b and c; d's lift is in every row.
    cof = (bx * cy - by * cx, ay * cx - ax * cy, ax * by - ay * bx)
    det = sum(k * (x * x + y * y) for k, (x, y) in zip(cof, rel))
    low = min(a, b, c, d)
    return (det or sum(k * ((i == low) - (d == low)) for k, i in zip(cof, (a, b, c)))) > 0


def signed_area_2x(pts: Sequence) -> int:
    """Twice the signed area of the polygon ``pts``; positive iff CCW."""
    return sum(ax * by - bx * ay for (ax, ay), (bx, by) in zip(pts, pts[1:] + pts[:1]))


def point_in_triangle(p, a, b, c) -> bool:
    """Strict interior test for a CCW triangle."""
    return (
        orient(a, b, p) == CCW
        and orient(b, c, p) == CCW
        and orient(c, a, p) == CCW
    )


def _as_points(points: Iterable[Point | tuple[int, int]]) -> tuple[Point, ...]:
    """``points`` as ``Point``s; a pair with a non-int coordinate raises ``TypeError``."""
    return tuple(p if isinstance(p, Point) else Point(*p) for p in points)


def _general_position_signs(xy: Sequence[tuple[int, int]]):
    """The ``order_type`` of ``xy``, which must hold distinct points with
    no three collinear; the first repeat or collinear triple raises."""
    seen: dict[tuple[int, int], int] = {}
    for i, p in enumerate(xy):
        if p in seen:
            raise DuplicatePointError(seen[p], i)
        seen[p] = i
    signs = order_type(xy)
    for i, j, k in combinations(range(len(xy)), 3):
        if signs[i][j][k] == COLLINEAR:
            raise CollinearTripleError(i, j, k)
    return signs


class PointSet:
    """Ordered, validated collection of distinct points in general position.

    Indices 0..n-1 are stable labels used by every downstream structure;
    ``xy`` holds the same points as plain ``(x, y)`` int pairs and
    ``signs`` their ``order_type``.
    """

    __slots__ = ("points", "xy", "signs")

    def __init__(self, points: Iterable[Point | tuple[int, int]]):
        pts = _as_points(points)
        if not pts:
            raise ValueError("point set must contain at least one point")
        self.xy = tuple((p.x, p.y) for p in pts)
        self.signs = _general_position_signs(self.xy)
        self.points = pts

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i: int) -> Point:
        return self.points[i]

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other) -> bool:
        return isinstance(other, PointSet) and self.points == other.points

    def __repr__(self) -> str:
        return f"PointSet({len(self.points)} points)"

    def convex_hull_indices(self) -> tuple[int, ...]:
        """Indices of the hull vertices in CCW order from the smallest
        point: i -> j is a hull edge iff every other point lies left of it."""
        signs, n = self.signs, len(self.xy)
        succ = {
            i: j
            for i in range(n)
            for j in range(n)
            if i != j and all(signs[i][j][k] == CCW for k in range(n) if k != i and k != j)
        }
        hull = [min(range(n), key=self.xy.__getitem__)]
        while succ.get(hull[-1], hull[0]) != hull[0]:
            hull.append(succ[hull[-1]])
        return tuple(hull)

    def interior_indices(self) -> tuple[int, ...]:
        """Indices of the points off the convex hull, ascending."""
        hull = set(self.convex_hull_indices())
        return tuple(i for i in range(len(self.points)) if i not in hull)


class AugmentedPointSet(PointSet):
    """A point set together with a bounding triangle that is its convex hull.

    An augmented set is the ``PointSet`` of the n base points first
    (indices 0..n-1, read them as ``points[:n]``) and the three frame
    vertices last (n, n+1, n+2), in CCW order.  ``base`` may be a
    ``PointSet``, any iterable of ``Point``s or ``(x, y)`` pairs, or
    None; the frame is checked here, and the combined points are
    validated and tabled by ``PointSet``.
    """

    __slots__ = ()

    def __init__(
        self,
        base: Iterable[Point | tuple[int, int]] | None,
        frame: Iterable[Point | tuple[int, int]],
    ):
        base_pts = _as_points(() if base is None else base)
        frame = _as_points(frame)
        if len(frame) != 3:
            raise ValueError("frame must have exactly 3 vertices")
        n = len(base_pts)
        if orient(*frame) == CW:
            frame = (frame[0], frame[2], frame[1])
        if orient(*frame) != CCW:
            raise CollinearTripleError(n, n + 1, n + 2)
        for i, p in enumerate(base_pts):
            if not point_in_triangle(p, *frame):
                raise ValueError(f"base point {i} not strictly inside the frame")
        super().__init__(base_pts + frame)

    @classmethod
    def from_points(cls, ps: PointSet) -> "AugmentedPointSet":
        """Reinterpret a point set with a triangular hull as frame + interior."""
        hull = ps.convex_hull_indices()
        if len(hull) != 3:
            raise ValueError(f"convex hull has {len(hull)} vertices, need exactly 3")
        hull_set = set(hull)
        return cls([p for i, p in enumerate(ps) if i not in hull_set], [ps[i] for i in hull])

    @property
    def n(self) -> int:
        """Number of interior (base) points."""
        return len(self.points) - 3

    @property
    def frame(self) -> tuple[Point, Point, Point]:
        """The frame vertices in CCW order."""
        return self.points[-3:]

    def frame_indices(self) -> tuple[int, int, int]:
        n = self.n
        return (n, n + 1, n + 2)

    def convex_hull_indices(self) -> tuple[int, int, int]:
        """The frame is the hull by construction, already in CCW order."""
        return self.frame_indices()

    def interior_indices(self) -> range:
        return range(self.n)

    def __repr__(self) -> str:
        return f"AugmentedPointSet(n={self.n})"


def _frame_for(base: PointSet) -> tuple[Point, Point, Point]:
    xs = [p.x for p in base]
    ys = [p.y for p in base]
    minx, maxx = min(xs), max(xs)
    miny, maxy = min(ys), max(ys)
    w = max(maxx - minx, maxy - miny, 1)
    # Axis-aligned right triangle at 4x the bounding box; the hypotenuse
    # x + y = const clears the box by construction.
    a = Point(minx - 4 * w, miny - 4 * w)
    b = Point(maxx + 9 * w, miny - 4 * w)
    c = Point(minx - 4 * w, maxy + 9 * w)
    return a, b, c


def augment(base: PointSet) -> AugmentedPointSet:
    """Wrap a point set in a strictly containing triangle.

    The frame is derived deterministically from the bounding box; on an
    accidental collinearity the right-angle corner is nudged down-left
    by (-1, -2), a direction never parallel to the same line twice.
    """
    a, b, c = _frame_for(base)
    for _ in range(1000):
        try:
            return AugmentedPointSet(base, (a, b, c))
        except CollinearTripleError:
            a = Point(a.x - 1, a.y - 2)
    raise ExhaustedRetriesError("could not place a frame in general position")


def gen_convex(n: int) -> PointSet:
    """n integer points in strictly convex position (on the parabola y = x^2)."""
    if n < 3:
        raise ValueError("need n >= 3 for a convex polygon")
    return PointSet([Point(t, t * t) for t in range(n)])


def gen_convex_arc_in_triangle(n: int) -> AugmentedPointSet:
    """n points on a concave arc spanning the bottom edge of the frame.

    The arc y = x(M - x), M = n + 1, vanishes exactly at the two bottom
    frame corners, so the arc chain plus the bottom edge is a convex
    (n+2)-gon and every spoke from an arc point to the apex is forced.
    The apex height H = 4M^2 exceeds every chord intercept ab < M^2, so
    the configuration is in general position without any nudging.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    m = n + 1
    return AugmentedPointSet([(t, t * (m - t)) for t in range(1, n + 1)], [(0, 0), (m, 0), (0, 4 * m * m)])


def gen_random(n: int, seed: int) -> PointSet:
    """Deterministic random point set: rejection sampling on an integer grid.

    The grid side grows with n^2 so that general position stays easy to
    hit; a set that cannot be completed raises ExhaustedRetriesError.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    rng = SplitMix64(seed)
    side = max(16, 4 * n * n)
    pts: list[tuple[int, int]] = []
    attempts = 0
    max_attempts = 2000 * (n + 1)
    while len(pts) < n:
        if attempts >= max_attempts:
            raise ExhaustedRetriesError(
                f"placed {len(pts)}/{n} points after {attempts} attempts"
            )
        attempts += 1
        cand = (rng.below(side), rng.below(side))
        if cand not in pts and not any(orient(a, b, cand) == COLLINEAR for a, b in combinations(pts, 2)):
            pts.append(cand)
    return PointSet(pts)


# --- point-file text format: first line k, then k lines "x y" ---


def points_text(xy: Sequence) -> str:
    """The point-file text of the points ``xy``."""
    return "".join([f"{len(xy)}\n"] + [f"{x} {y}\n" for x, y in xy])


def read_pairs(path: str | Path, kind: str) -> list[tuple[int, int]]:
    """The ``(x, y)`` pairs of a point file; ``kind`` names the file in
    the error for an empty one."""
    text = Path(path).read_text().split()
    if not text:
        raise ValueError(f"empty {kind} file: {path}")
    k = int(text[0])
    coords = text[1:]
    if len(coords) != 2 * k:
        raise ValueError(f"expected {2 * k} coordinates, found {len(coords)}")
    return [(int(coords[2 * i]), int(coords[2 * i + 1])) for i in range(k)]


def write_points(ps: PointSet, path: str | Path) -> None:
    Path(path).write_text(points_text(ps.xy))


def read_points(path: str | Path) -> PointSet:
    return PointSet(read_pairs(path, "point-set"))
