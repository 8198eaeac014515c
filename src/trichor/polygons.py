"""Exact triangulation counting for simple polygons.

Covers the counting layer the charging analysis rests on: the interval
DP over valid diagonals, a brute-force ear-splitting oracle, counts
constrained to contain given chords, and the Catalan family C_m, C'_n,
C''_n, C^(r)_n for convex polygons with minimally-blocking reflex
vertices.

All counts are exact Python integers.  The core works on a polygon
given as a CCW sequence of integer ``(x, y)`` pairs: one diagonal test
(``is_diagonal``), one convexity test (``is_convex``) and the counting
DP (``count_triangulations``); ``SimplePolygon`` is the validated
wrapper that delegates to it.  Two vertices see each other iff the open
segment between them stays strictly inside the polygon, decided by
exact integer tests: no third vertex on the segment (grazing a vertex
counts as blocked), no proper crossing with a non-incident edge, and
the in-cone test at one endpoint.
"""

from __future__ import annotations

from math import comb
from pathlib import Path
from typing import Iterable, Sequence

from .errors import (
    CrossingChordsError,
    InvalidChordError,
    NotSimpleError,
    OutOfRangeError,
    TooLargeError,
)
from .geometry import (
    CCW,
    Point,
    crosses,
    orient,
    point_on_open_segment,
    segments_cross,
    signed_area_2x,
)

BRUTE_FORCE_LIMIT = 12


def catalan(m: int) -> int:
    """The m-th Catalan number, binom(2m, m) / (m + 1)."""
    if m < 0:
        raise OutOfRangeError(f"catalan index must be >= 0, got {m}")
    return comb(2 * m, m) // (m + 1)


def catalan_generalized(n: int, r: int) -> int:
    """Triangulation count of an almost-convex polygon with r blocking
    reflex vertices: sum_i (-1)^i binom(r, i) C_{n-i}.

    C^(0) is the plain Catalan number, C^(1) = C', C^(2) = C''.
    """
    if r < 0 or n < 0:
        raise OutOfRangeError(f"need n, r >= 0, got n={n}, r={r}")
    if 2 * r > n:
        raise OutOfRangeError(f"need r <= n/2, got n={n}, r={r}")
    return sum((-1) ** i * comb(r, i) * catalan(n - i) for i in range(r + 1))


class SimplePolygon:
    """A simple polygon given by its boundary in CCW order.

    A clockwise boundary is reversed on construction.  ``xy`` holds the
    boundary as ``(x, y)`` pairs, the form the polygon core works on.
    An optional kernel witness asserts star-shapedness: construction
    checks that every boundary edge has the witness strictly on its
    left, i.e. the witness lies in the polygon's kernel.
    """

    __slots__ = ("boundary", "xy", "kernel_witness")

    def __init__(
        self,
        boundary: Iterable[Point | tuple[int, int]],
        kernel_witness: Point | None = None,
    ):
        pts = tuple(p if isinstance(p, Point) else Point(*p) for p in boundary)
        if len(pts) < 3:
            raise NotSimpleError(f"polygon needs >= 3 vertices, got {len(pts)}")
        if signed_area_2x(pts) < 0:
            pts = tuple(reversed(pts))
        _check_simple(pts)
        self.boundary = pts
        self.xy = tuple((p.x, p.y) for p in pts)
        self.kernel_witness = kernel_witness
        if kernel_witness is not None:
            k = len(pts)
            for i in range(k):
                if orient(pts[i], pts[(i + 1) % k], kernel_witness) != CCW:
                    raise NotSimpleError(
                        f"kernel witness is not strictly left of edge {i}"
                    )

    def __len__(self) -> int:
        return len(self.boundary)

    def __repr__(self) -> str:
        return f"SimplePolygon({len(self.boundary)} vertices)"

    def is_convex(self) -> bool:
        return is_convex(self.xy)

    def sees(self, i: int, j: int) -> bool:
        """True iff boundary vertices i and j see each other.

        Adjacent vertices do not "see" each other in this sense; use the
        boundary edge directly.  See ``is_diagonal``.
        """
        k = len(self.xy)
        i %= k
        j %= k
        if i == j or (i + 1) % k == j or (j + 1) % k == i:
            return False
        return is_diagonal(self.xy, i, j)


def _check_simple(pts: Sequence[Point]) -> None:
    k = len(pts)
    seen = {}
    for idx, p in enumerate(pts):
        if (p.x, p.y) in seen:
            raise NotSimpleError(f"repeated boundary vertex at {idx}")
        seen[(p.x, p.y)] = idx
    for i in range(k):
        a, b = pts[i], pts[(i + 1) % k]
        for j in range(i + 1, k):
            c, d = pts[j], pts[(j + 1) % k]
            if j == i or (j + 1) % k == i or (i + 1) % k == j:
                # Adjacent edges may only touch at the shared vertex.
                shared = {(a.x, a.y), (b.x, b.y)} & {(c.x, c.y), (d.x, d.y)}
                if shared:
                    others = [
                        (p, q, r)
                        for p, q, r in ((c, d, a), (c, d, b), (a, b, c), (a, b, d))
                        if (r.x, r.y) not in shared
                    ]
                    if any(point_on_open_segment(r, p, q) for p, q, r in others):
                        raise NotSimpleError(f"edges {i} and {j} overlap")
                    continue
            if segments_cross(a, b, c, d):
                raise NotSimpleError(f"edges {i} and {j} cross")
            for p, q, r in ((a, b, c), (a, b, d), (c, d, a), (c, d, b)):
                if point_on_open_segment(r, p, q):
                    raise NotSimpleError(f"edges {i} and {j} touch")


# --- the polygon core: a simple polygon as a CCW sequence of (x, y) pairs ---


def is_convex(xy: Sequence[tuple[int, int]]) -> bool:
    """True iff every vertex of the CCW polygon ``xy`` turns strictly left."""
    for i in range(len(xy)):
        ax, ay = xy[i - 2]
        bx, by = xy[i - 1]
        cx, cy = xy[i]
        if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) <= 0:
            return False
    return True


def is_diagonal(xy: Sequence[tuple[int, int]], i: int, j: int) -> bool:
    """True iff the non-adjacent vertices i and j of the CCW polygon
    ``xy`` see each other: the open segment between them runs strictly
    inside the polygon.

    No other vertex may lie on the open segment (grazing a vertex
    blocks), no edge away from i and j may properly cross it, and it
    must leave i inside the interior angle at i.  The first two tests
    keep the segment off the boundary, so the third decides.
    """
    k = len(xy)
    ax, ay = xy[i]
    bx, by = xy[j]
    dx, dy = bx - ax, by - ay
    for w in range(k):
        if w == i or w == j:
            continue
        wx, wy = xy[w]
        if dx * (wy - ay) == dy * (wx - ax) and (
            min(ax, bx) < wx < max(ax, bx) if dx else min(ay, by) < wy < max(ay, by)
        ):
            return False
        v = (w + 1) % k
        if v != i and v != j and crosses(xy, i, j, w, v):
            return False
    # In-cone test at i (O'Rourke, Computational Geometry in C, 1.6).
    px, py = xy[i - 1]
    nx, ny = xy[(i + 1) % k]
    o_prev = dx * (py - ay) - dy * (px - ax)  # orient(a, b, prev)
    o_next = dx * (ny - ay) - dy * (nx - ax)  # orient(a, b, next)
    if (nx - ax) * (py - ay) - (ny - ay) * (px - ax) >= 0:
        # i is convex (or straight): b lies strictly inside the wedge.
        return o_prev > 0 and o_next < 0
    # i is reflex: b must not lie in the closed exterior wedge.
    return not (o_next >= 0 and o_prev <= 0)


def count_triangulations(poly: SimplePolygon | Sequence[tuple[int, int]]) -> int:
    """Exact number of triangulations of a simple polygon.

    ``poly`` is a SimplePolygon or its boundary as CCW ``(x, y)``
    pairs.  Interval DP over the boundary: ways[i][j] counts
    triangulations of the sub-polygon cut off by chord (i, j), built by
    choosing the apex of the triangle resting on that chord; it is 0
    when (i, j) is neither an edge nor a diagonal.
    """
    xy = poly.xy if isinstance(poly, SimplePolygon) else poly
    k = len(xy)
    ways = [[0] * k for _ in range(k)]
    for i in range(k - 1):
        ways[i][i + 1] = 1
    for span in range(2, k):
        for i in range(k - span):
            j = i + span
            if span == k - 1 or is_diagonal(xy, i, j):
                wi = ways[i]
                wi[j] = sum(wi[m] * ways[m][j] for m in range(i + 1, j))
    return ways[0][k - 1]


def brute_force_count(poly: SimplePolygon) -> int:
    """Independent oracle: recursive ear splitting on explicit sub-polygons.

    The triangle resting on the last boundary edge is chosen, the two
    cut-off chains are rebuilt as fresh coordinate sequences, and their
    visibility is recomputed from scratch.  Capped at BRUTE_FORCE_LIMIT
    vertices.
    """
    if len(poly) > BRUTE_FORCE_LIMIT:
        raise TooLargeError(f"brute force limited to {BRUTE_FORCE_LIMIT} vertices")
    memo: dict[tuple[tuple[int, int], ...], int] = {}

    def count(xy: tuple[tuple[int, int], ...]) -> int:
        k = len(xy)
        if k <= 3:
            # A chain of two vertices closes into the chord itself.
            return 1
        hit = memo.get(xy)
        if hit is not None:
            return hit
        total = 0
        # Fixed edge: (k-1, 0).  The apex m forms the triangle on it.
        for m in range(1, k - 1):
            if (m == 1 or is_diagonal(xy, 0, m)) and (
                m == k - 2 or is_diagonal(xy, m, k - 1)
            ):
                total += count(xy[: m + 1]) * count(xy[m:])
        memo[xy] = total
        return total

    return count(poly.xy)


class Chord:
    """An internal chord of a polygon, by boundary vertex indices."""

    __slots__ = ("i", "j")

    def __init__(self, i: int, j: int):
        if i == j:
            raise InvalidChordError("chord endpoints coincide")
        self.i, self.j = (i, j) if i < j else (j, i)

    def __repr__(self) -> str:
        return f"Chord({self.i}, {self.j})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Chord) and (self.i, self.j) == (other.i, other.j)

    def __hash__(self) -> int:
        return hash((self.i, self.j))


def tr_with_chords(poly: SimplePolygon, required: Sequence[Chord]) -> int:
    """Number of triangulations of poly containing every required chord.

    The chords must be valid internal diagonals and pairwise non-crossing;
    they split the polygon into faces whose counts multiply.
    """
    k = len(poly)
    for ch in required:
        if not (0 <= ch.i < k and 0 <= ch.j < k):
            raise InvalidChordError(f"{ch} out of range for a {k}-gon")
        if (ch.i + 1) % k == ch.j or (ch.j + 1) % k == ch.i:
            raise InvalidChordError(f"{ch} connects adjacent vertices")
        if not poly.sees(ch.i, ch.j):
            raise InvalidChordError(f"{ch} is not an internal diagonal")
    pts = poly.boundary
    for a in range(len(required)):
        for b in range(a + 1, len(required)):
            c1, c2 = required[a], required[b]
            if segments_cross(pts[c1.i], pts[c1.j], pts[c2.i], pts[c2.j]):
                raise CrossingChordsError(f"{c1} crosses {c2}")

    # Split the boundary index cycle along each chord in turn.
    pieces: list[list[int]] = [list(range(k))]
    for ch in required:
        for idx, piece in enumerate(pieces):
            if ch.i in piece and ch.j in piece:
                a, b = piece.index(ch.i), piece.index(ch.j)
                if a > b:
                    a, b = b, a
                left = piece[a : b + 1]
                right = piece[b:] + piece[: a + 1]
                pieces[idx : idx + 1] = [left, right]
                break
        else:
            raise CrossingChordsError(f"{ch} does not fit the prior splits")

    total = 1
    for piece in pieces:
        total *= count_triangulations([poly.xy[i] for i in piece])
    return total


def reflex_template(n: int, r: int) -> SimplePolygon:
    """Coordinate realization of the C^(r)_n polygons, r in {1, 2}.

    Convex part on the parabola y = x^2 (scaled by 4); each reflex
    vertex is a one-unit inward dent on an edge, blocking exactly the
    visibility between its two neighbours.
    """
    if r == 1:
        if n < 2:
            raise OutOfRangeError("C' template needs n >= 2")
        # n+1 convex vertices (t = 0..n), one dent on the closing edge.
        hull = [Point(4 * t, 4 * t * t) for t in range(n + 1)]
        # Closing edge runs from (4n, 4n^2) back to (0, 0); its line is
        # y = n x, so one unit below it at x = 4 is strictly inside.
        dent = Point(4, 4 * n - 1)
        return SimplePolygon(hull + [dent])
    if r == 2:
        if n < 4:
            raise OutOfRangeError("C'' template needs n >= 4")
        # n convex vertices (t = 0..n-1), dents on the closing edge and
        # on a middle chain edge; the reflex vertices are not adjacent.
        hull = [Point(4 * t, 4 * t * t) for t in range(n)]
        mid = (n - 1) // 2
        a, b = hull[mid], hull[mid + 1]
        chain_dent = Point(a.x + 2, (a.y + b.y) // 2 + 1)
        closing_dent = Point(4, 4 * (n - 1) - 1)
        boundary = hull[: mid + 1] + [chain_dent] + hull[mid + 1 :] + [closing_dent]
        return SimplePolygon(boundary)
    raise OutOfRangeError(f"templates exist for r in {{1, 2}}, got r={r}")


# --- polygon text format: first line k, then k lines "x y" in CCW order ---

def write_polygon(poly: SimplePolygon, path: str | Path) -> None:
    lines = [str(len(poly))]
    lines += [f"{p.x} {p.y}" for p in poly.boundary]
    Path(path).write_text("\n".join(lines) + "\n")


def read_polygon(path: str | Path) -> SimplePolygon:
    text = Path(path).read_text().split()
    if not text:
        raise ValueError(f"empty polygon file: {path}")
    k = int(text[0])
    coords = text[1:]
    if len(coords) != 2 * k:
        raise ValueError(f"expected {2 * k} coordinates, found {len(coords)}")
    return SimplePolygon(
        [Point(int(coords[2 * i]), int(coords[2 * i + 1])) for i in range(k)]
    )
