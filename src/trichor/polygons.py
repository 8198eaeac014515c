"""Exact triangulation counting for simple polygons.

Covers the counting layer the charging analysis rests on: one ear
recursion that counts the triangulations of a polygon, with or without
points inside it, counts constrained to contain given chords, and the
Catalan family C_m, C'_n, C''_n, C^(r)_n for convex polygons with
minimally-blocking reflex vertices.

All counts are exact Python integers.  The core reads no coordinates:
it works on a CCW index cycle over the order type ``signs`` of one
point list, with one diagonal test (``is_diagonal``), one convexity
test (``is_convex``) and one memoised counter (``PolygonCounter``),
which also counts a point set as its hull plus the points inside.
``SimplePolygon`` validates a bare boundary and builds its ``signs``.
Two vertices see each other iff the open segment between them stays
strictly inside the polygon: no third vertex on the segment (grazing a
vertex counts as blocked), no proper crossing with a non-incident edge,
and the in-cone test at one endpoint.
"""

from __future__ import annotations

from math import comb
from pathlib import Path
from typing import Iterable, Sequence

from .errors import CrossingChordsError, InvalidChordError, NotSimpleError, OutOfRangeError
from .geometry import CCW, CW, Point, crosses, order_type, points_text, read_pairs, signed_area_2x


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

    A clockwise boundary is reversed on construction; a repeated vertex
    or zero area raises NotSimpleError.  ``xy`` holds the boundary as
    ``(x, y)`` pairs and ``signs`` their ``order_type``, so the polygon
    core works on the index cycle ``0..k-1``.  An optional kernel witness
    asserts star-shapedness: construction checks, in the order type of
    the boundary plus the witness, that every boundary edge has the
    witness strictly on its left, i.e. the witness lies in the kernel.
    """

    __slots__ = ("boundary", "xy", "signs", "kernel_witness")

    def __init__(
        self,
        boundary: Iterable[Point | tuple[int, int]],
        kernel_witness: Point | None = None,
    ):
        pts = tuple(p if isinstance(p, Point) else Point(*p) for p in boundary)
        if len(pts) < 3:
            raise NotSimpleError(f"polygon needs >= 3 vertices, got {len(pts)}")
        xy, k = tuple((p.x, p.y) for p in pts), len(pts)
        area = signed_area_2x(xy)
        if area < 0:
            pts, xy = pts[::-1], xy[::-1]
        for w, p in enumerate(xy):
            if p in xy[:w]:
                raise NotSimpleError(f"repeated boundary vertex at {w}")
        if not area:
            raise NotSimpleError("boundary has zero area")
        self.signs = order_type(xy)
        _check_simple(self.signs, k)
        self.boundary = pts
        self.xy = xy
        self.kernel_witness = kernel_witness
        if kernel_witness is not None:
            signs = order_type(xy + (kernel_witness,))
            for i in range(k):
                if signs[i][(i + 1) % k][k] != CCW:
                    raise NotSimpleError(f"kernel witness is not strictly left of edge {i}")

    def __len__(self) -> int:
        return len(self.boundary)

    def __repr__(self) -> str:
        return f"SimplePolygon({len(self.boundary)} vertices)"

    def is_convex(self) -> bool:
        return is_convex(self.signs, range(len(self.xy)))

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
        return is_diagonal(self.signs, range(k), i, j)


def _check_simple(signs, k: int) -> None:
    """Raise NotSimpleError unless the closed chain ``0..k-1`` of distinct
    points with order type ``signs`` and nonzero area is simple: no
    vertex lies on the open segment of another edge, and no two edges
    properly cross (edges that share a vertex never do)."""
    cycle = range(k)
    for i in cycle:
        i1 = (i + 1) % k
        for w in cycle:
            if w != i and w != i1 and not signs[i][i1][w] and _between(signs, cycle, w, i, i1):
                raise NotSimpleError(f"vertex {w} touches edge {i}")
        for j in range(i + 1, k):
            if crosses(signs, i, i1, j, (j + 1) % k):
                raise NotSimpleError(f"edges {i} and {j} cross")


# --- the polygon core: a CCW index cycle over one point list and its signs ---


def _between(signs, cycle: Sequence[int], w: int, a: int, b: int) -> bool:
    """True iff the point w, collinear with the distinct points a and b,
    lies strictly between them.  Only a bare polygon, not a point set in
    general position, has such a point.  Any vertex c of ``cycle`` off
    the line ab, which a polygon of nonzero area has, sees w between a
    and b, turning the same way from a to w as from w to b."""
    sab = signs[a][b]
    c = next(c for c in cycle if sab[c])
    return signs[c][a][w] == signs[c][w][b] != 0


def is_convex(signs, cycle: Sequence[int]) -> bool:
    """True iff every vertex of the CCW index cycle turns strictly left."""
    return all(signs[cycle[i - 2]][cycle[i - 1]][cycle[i]] == CCW for i in range(len(cycle)))


def is_diagonal(signs, cycle: Sequence[int], i: int, j: int) -> bool:
    """True iff the non-adjacent places i and j of the CCW index cycle
    ``cycle`` over the order type ``signs`` see each other: the open
    segment between them runs strictly inside the polygon.

    No other vertex may lie on the open segment (grazing a vertex
    blocks), no edge away from i and j may properly cross it, and it
    must leave i inside the interior angle at i.  The first two tests
    keep the segment off the boundary, so the third decides.
    """
    k = len(cycle)
    a, b = cycle[i], cycle[j]
    sab = signs[a][b]
    for w in range(k):
        if w == i or w == j:
            continue
        c = cycle[w]
        if not sab[c] and _between(signs, cycle, c, a, b):
            return False
        v = (w + 1) % k
        if v != i and v != j and crosses(signs, a, b, c, cycle[v]):
            return False
    # In-cone test at i (O'Rourke, Computational Geometry in C, 1.6).
    prev, nxt = cycle[i - 1], cycle[(i + 1) % k]
    if signs[a][nxt][prev] != CW:
        # i is convex (or straight): b lies strictly inside the wedge.
        return sab[prev] == CCW and sab[nxt] == CW
    # i is reflex: b must not lie in the closed exterior wedge.
    return sab[prev] == CCW or sab[nxt] == CW


class PolygonCounter:
    """Memoised triangulation counts of polygons over the order type
    ``signs`` of one point list.  A polygon is a CCW index cycle,
    possibly with the indices of points strictly inside it; the memo is
    keyed by the cycle rotated to its smallest index and the inside set,
    so every count over the list shares its sub-problems.  A bare cycle
    is probed as given before it is rotated, and its count is also stored
    under that raw tuple as an alias, so a cycle asked for again in the
    same rotation costs one probe.

    Ear recursion on the fixed edge (k-1, 0): every triangulation has
    one triangle on it, so the count sums over its apex.
    - A boundary apex m needs two diagonals (or edges) and an empty
      triangle; the chains ``cycle[:m+1]`` and ``cycle[m:]`` are counted
      apart, each with the inside points that an exact ray-parity test
      places in it.
    - An inside apex c must lie left of the fixed edge, its triangle
      must hold no other point, and its two new sides must cross no
      boundary edge; c then joins the boundary between k-1 and 0.
    """

    __slots__ = ("signs", "memo")

    def __init__(self, signs):
        self.signs = signs
        self.memo: dict[tuple, int] = {}

    def count(self, cycle: Sequence[int], inside: Iterable[int] = frozenset()) -> int:
        raw, inside = tuple(cycle), frozenset(inside)
        k = len(raw)
        if k <= 3 and not inside:
            # A chain of two vertices closes into the chord itself.
            return 1
        if not inside and (hit := self.memo.get(raw)) is not None:
            return hit
        r = raw.index(min(raw))
        cycle = raw[r:] + raw[:r]
        # A hole (no inside points) is keyed by its bare cycle, which
        # saves a pair per entry and never equals a (cycle, inside) key.
        key = (cycle, inside) if inside else cycle
        hit = self.memo.get(key)
        if hit is not None:
            if not inside:
                self.memo[raw] = hit
            return hit
        signs = self.signs
        total = 0
        a, b = cycle[k - 1], cycle[0]
        for m in range(1, k - 1):
            if (m == 1 or is_diagonal(signs, cycle, 0, m)) and (m == k - 2 or is_diagonal(signs, cycle, m, k - 1)):
                left, right = cycle[: m + 1], cycle[m:]
                if not inside:
                    total += self.count(left) * self.count(right)
                elif not any(_in_triangle(signs, a, b, cycle[m], q) for q in inside):
                    part = frozenset(q for q in inside if _inside(signs, left, q))
                    total += self.count(left, part) * self.count(right, inside - part)
        for c in inside:
            if signs[a][b][c] != CCW or any(
                _in_triangle(signs, a, b, c, q) for q in inside if q != c
            ) or any(_in_triangle(signs, a, b, c, v) for v in cycle[1 : k - 1]):
                continue
            if not any(
                crosses(signs, c, cycle[j], cycle[w], cycle[w + 1]) for j in (0, k - 1) for w in range(k - 1)
            ):
                total += self.count(cycle + (c,), inside - {c})
        self.memo[key] = total
        if not inside:
            self.memo[raw] = total
        return total


def count_triangulations(
    poly: SimplePolygon | Sequence[tuple[int, int]],
    inside: Iterable[tuple[int, int]] = (),
) -> int:
    """Exact number of triangulations of a simple polygon whose vertex
    set also holds the ``inside`` points, integer ``(x, y)`` pairs
    strictly inside it.

    ``poly`` is a SimplePolygon or its boundary as ``(x, y)`` pairs in
    either orientation (validated as a SimplePolygon).  An inside point
    on or outside the boundary, or one that repeats a point, raises
    ValueError.  The count is one ``PolygonCounter`` over the boundary
    followed by the inside points.
    """
    if not isinstance(poly, SimplePolygon):
        poly = SimplePolygon(poly)
    k, cycle = len(poly.xy), range(len(poly.xy))
    xy = poly.xy + tuple(tuple(q) for q in inside)
    if len(set(xy)) < len(xy):
        raise ValueError("an inside point repeats a point")
    signs = order_type(xy) if len(xy) > k else poly.signs
    for q in range(k, len(xy)):
        on_edge = any(not signs[a][b][q] and _between(signs, cycle, q, a, b) for a, b in zip((k - 1, *cycle), cycle))
        if on_edge or not _inside(signs, cycle, q):
            raise ValueError(f"inside point {xy[q]} is not strictly inside the polygon")
    return PolygonCounter(signs).count(cycle, range(k, len(xy)))


def _in_triangle(signs, a: int, b: int, c: int, q: int) -> bool:
    """True iff q lies in the closed CCW triangle (a, b, c)."""
    return signs[a][b][q] != CW and signs[b][c][q] != CW and signs[c][a][q] != CW


def _inside(signs, cycle: Sequence[int], q: int) -> bool:
    """Ray parity: True iff the point q, off the boundary, is inside the
    CCW index cycle ``cycle``.

    The ray runs from q through ``cycle[0]``.  An edge counts when its
    endpoints lie on opposite sides of the half-open split of the plane
    by that line: a vertex on the line counts as left of it, so a ray
    through a vertex crosses the boundary once where it passes and zero
    or two times where it only touches.  The edge from a to b meets the
    ray, not the line behind q, iff q is right of it when a is left of
    the line and left of it when a is right.
    """
    line = signs[q][cycle[0]]
    odd = False
    a = cycle[-1]
    for b in cycle:
        a_left = line[a] >= 0
        if a_left != (line[b] >= 0) and (signs[a][b][q] < 0) == a_left:
            odd = not odd
        a = b
    return odd


def tr_with_chords(poly: SimplePolygon, required: Sequence[tuple[int, int]]) -> int:
    """Number of triangulations of poly containing every required chord.

    A chord is a pair ``(i, j)`` of boundary vertex indices, in either
    order.  The chords must be internal diagonals and pairwise
    non-crossing; they split the polygon into faces whose counts
    multiply.  Each chord lies in one face of the earlier splits, and a
    repeated chord splits off a two-vertex chain, which counts 1.
    """
    k = len(poly)
    for i, j in required:
        if i == j:
            raise InvalidChordError(f"chord ({i}, {j}) has coinciding ends")
        if not (0 <= i < k and 0 <= j < k):
            raise InvalidChordError(f"chord ({i}, {j}) out of range for a {k}-gon")
        if (i + 1) % k == j or (j + 1) % k == i:
            raise InvalidChordError(f"chord ({i}, {j}) connects adjacent vertices")
        if not poly.sees(i, j):
            raise InvalidChordError(f"chord ({i}, {j}) is not an internal diagonal")
    for a, (i, j) in enumerate(required):
        for c, d in required[a + 1 :]:
            if crosses(poly.signs, i, j, c, d):
                raise CrossingChordsError(f"chord ({i}, {j}) crosses ({c}, {d})")

    # Split the boundary index cycle along each chord in turn.
    pieces: list[list[int]] = [list(range(k))]
    for i, j in required:
        at = next(at for at, piece in enumerate(pieces) if i in piece and j in piece)
        piece = pieces[at]
        a, b = sorted((piece.index(i), piece.index(j)))
        pieces[at : at + 1] = [piece[a : b + 1], piece[b:] + piece[: a + 1]]

    counter = PolygonCounter(poly.signs)
    total = 1
    for piece in pieces:
        total *= counter.count(piece)
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


# --- polygon files share the point-file format, vertices in CCW order ---

def write_polygon(poly: SimplePolygon, path: str | Path) -> None:
    Path(path).write_text(points_text(poly.xy))


def read_polygon(path: str | Path) -> SimplePolygon:
    return SimplePolygon(read_pairs(path, "polygon"))
