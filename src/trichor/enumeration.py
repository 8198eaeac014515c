"""Exhaustive enumeration of triangulations by reverse search.

The parent of a triangulation is the flip of its lowest-indexed
Delaunay-illegal edge (``geometry.incircle``), so the flip graph is a
tree rooted at the Delaunay triangulation (Avis & Fukuda 1996;
Bespamyatnikh 2002).  ``FlipWalk`` walks it depth first on one star map,
flipped and unflipped in place: each triangulation once, no visited
set, memory for one root-to-state path, and any subtree on its own.
Counts and degree totals are exact integers; expected degrees come out
as exact rationals.  The degree-3 insertion identity checks the walk's
degree-3 total against counts from the polygon recursion, which uses no
flips.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import ceil
from typing import Iterator

from .errors import CapExceededError, InvariantError
from .geometry import AugmentedPointSet, incircle
from .polygons import PolygonCounter
from .triangulation import Tri, flip_star, initial_triangulation, star_map, star_triangles


@dataclass
class EnumerationStats:
    wall_time: float = 0.0
    frontier_peak: int = 0


@dataclass
class EnumerationResult:
    """Outcome of a flip-graph enumeration.

    ``degree_totals[i]`` sums v_i(T) over all visited triangulations,
    counting interior (non-hull) vertices only.
    """

    count: int
    interior_count: int
    degree_totals: dict[int, int]
    exhaustive: bool
    stats: EnumerationStats = field(default_factory=EnumerationStats)

    def vhat(self, i: int) -> Fraction:
        """Mean number of interior degree-i vertices; 0 when no
        triangulation was visited (a cap of 0)."""
        if not self.count:
            return Fraction(0)
        return Fraction(self.degree_totals.get(i, 0), self.count)


class FlipWalk:
    """The reverse-search tree of a container's triangulations, built once
    per container: ``bit[u][v]``, bit k for the k-th index pair in
    lexicographic order, so an edge mask's lowest set bit is its
    lowest-indexed edge; a memo of Delaunay tests keyed by packed index
    quadruples; ``star``, the one star map, at the Delaunay root between
    walks; and ``trail``, the flips (u, v, x, y) from the root to the
    state a walk is at."""

    def __init__(self, container):
        self.xy, self.signs, n = container.xy, container.signs, len(container.xy)
        hull = len(container.convex_hull_indices())
        # Directed edges of the 2n - 2 - h triangles, and interior edges.
        self.n, self.entries, self.inner = n, 6 * n - 6 - 3 * hull, 3 * n - 3 - 2 * hull
        self.bit = [[0] * n for _ in range(n)]
        for k, (i, j) in enumerate(combinations(range(n), 2)):
            self.bit[i][j] = self.bit[j][i] = 1 << k
        self.memo: dict[int, bool] = {}
        self.trail: list[tuple[int, int, int, int]] = []
        star = self.star = star_map(initial_triangulation(container).triangles)
        self.visit(star, -1)  # every edge marked illegal: only the seed's checks
        # Lawson flips down to the root; an illegal edge's quad is convex.
        while bad := [(u, v, x, y) for u, succ in star.items() for v, x in succ.items()
                      if (y := star[v].get(u)) is not None and self.illegal(u, v, x, y)]:
            flip_star(star, *min(bad))

    def illegal(self, u: int, v: int, x: int, y: int) -> bool:
        """Whether the edge uv with apexes x = star[u][v] and y = star[v][u]
        is Delaunay-illegal; both sides of an edge share a memo key."""
        n = self.n
        key = ((u * n + v) * n + x) * n + y if u < v else ((v * n + u) * n + y) * n + x
        hit = self.memo.get(key)
        if hit is None:
            hit = self.memo[key] = incircle(self.xy, u, v, x, y)
        return hit

    def after(self, star, mask: int, u: int, v: int, x: int, y: int) -> int:
        """The illegal-edge mask ``mask`` once the edge uv of ``star`` (read
        before the flip) flips to xy: only xy and the quad's sides change."""
        bit = self.bit
        mask &= ~(bit[u][v] | bit[x][u] | bit[u][y] | bit[y][v] | bit[v][x])
        # A new triangle's edge ab, its apex c, and d across ab.
        for a, b, c, d in ((x, y, v, u), (x, u, y, star[u].get(x)), (u, y, x, star[y].get(u)),
                           (y, v, x, star[v].get(y)), (v, x, y, star[x].get(v))):
            if d is not None and self.illegal(a, b, c, d):
                mask |= bit[a][b]
        return mask

    def visit(self, star, mask: int) -> list[tuple[int, int, int, int, int]]:
        """Check the Euler counts of ``star``, with illegal-edge mask
        ``mask``, and return its children as flips (u, v, x, y, mask),
        largest (u, v) first: a legal uv of a convex quad whose flip makes
        xy the lowest illegal edge.  An illegal edge below xy off the quad
        rejects a flip untested.  The apex x lies left of u -> v and y
        right of it, so the quad is convex iff u and v lie on opposite
        sides of xy."""
        if sum(map(len, star.values())) != self.entries:
            raise InvariantError("Euler count violated during enumeration")
        bit, signs = self.bit, self.signs
        inner = 0
        kids = []
        for u, succ in star.items():
            bu = bit[u]
            for v, x in succ.items():
                sv = star[v]
                # The triangle (u, v, x) owns the directed edge v -> x.
                if sv.get(x) != u:
                    raise InvariantError("a directed edge lies in two triangles during enumeration")
                if v < u or (y := sv.get(u)) is None:
                    continue
                inner += 1
                if mask & bu[v] or (sxy := signs[x][y])[u] == sxy[v]:
                    continue
                xy_bit = bit[x][y]
                if mask & (xy_bit - 1) & ~(bu[x] | bu[y] | bit[y][v] | bit[v][x]):
                    continue
                child = self.after(star, mask, u, v, x, y)
                if child & -child == xy_bit:
                    kids.append((u, v, x, y, child))
        if inner != self.inner:
            raise InvariantError("Euler count violated during enumeration")
        return sorted(kids, reverse=True)

    def walk(self, path=(), limit: int | None = None) -> Iterator[dict[int, dict[int, int]]]:
        """Yield the live ``star``, checked, at each state of the subtree
        that the flips ``path`` (edges (u, v)) reach from the root, in DFS
        preorder; states ``limit`` flips below the subtree's root are not
        expanded.  A finished walk leaves ``star`` at the root."""
        star, trail = self.star, self.trail
        stack: list[list] = []  # per state on the trail: children left
        mask = 0
        for u, v in path:
            x, y = star[u][v], star[v][u]
            mask = self.after(star, mask, u, v, x, y)
            flip_star(star, u, v, x, y)
            trail.append((u, v, x, y))
            stack.append([])
        stack.append(self.visit(star, mask))
        yield star
        bottom = None if limit is None else len(stack) + limit
        while stack:
            if stack[-1] and (bottom is None or len(stack) < bottom):
                u, v, x, y, mask = stack[-1].pop()
                flip_star(star, u, v, x, y)
                trail.append((u, v, x, y))
                stack.append(self.visit(star, mask))
                yield star
            else:
                stack.pop()
                if trail:
                    u, v, x, y = trail.pop()
                    flip_star(star, x, y, v, u)


def flip_graph_states(container, cap: int | None = None) -> Iterator[tuple[Tri, ...]]:
    """Yield every triangulation of the container as a canonical triangle
    tuple, each exactly once, in the walk's DFS preorder from the Delaunay
    triangulation.  Raises CapExceededError instead of yielding a state
    beyond the first ``cap``; a walk with at most ``cap`` states ends
    normally."""
    for count, star in enumerate(FlipWalk(container).walk()):
        if cap is not None and count >= cap:
            raise CapExceededError(f"enumeration cap {cap} reached")
        yield star_triangles(star)


def enumerate_all(container, cap: int | None = None) -> EnumerationResult:
    """Count all triangulations and accumulate interior degree totals.

    With a ``cap``, only the first ``cap`` states of the walk are
    counted; a walk that has more returns that partial result with
    ``exhaustive`` False."""
    interior = container.interior_indices()
    stats = EnumerationStats()
    t0 = time.perf_counter()
    walk = FlipWalk(container)
    count = 0
    degree_totals: dict[int, int] = {}
    exhaustive = True
    for star in walk.walk():
        if cap is not None and count >= cap:
            exhaustive = False
            break
        count += 1
        stats.frontier_peak = max(stats.frontier_peak, len(walk.trail) + 1)
        # An interior vertex's degree is its number of triangles.
        for p in interior:
            d = len(star[p])
            degree_totals[d] = degree_totals.get(d, 0) + 1
    stats.wall_time = time.perf_counter() - t0
    return EnumerationResult(count, len(interior), dict(sorted(degree_totals.items())), exhaustive, stats)


def vhat(container, i: int) -> Fraction:
    """Expected number of interior degree-i vertices, as an exact rational."""
    return enumerate_all(container).vhat(i)


@dataclass
class V3RecursionReport:
    """Both sides of the degree-3 insertion identity.

    lhs sums v_3 over all triangulations of the full set; rhs sums the
    triangulation counts of the sets with one interior point deleted.
    """

    lhs: int
    rhs: int
    per_point: dict[int, int]

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


def check_v3_recursion(P: AugmentedPointSet, lhs: int) -> V3RecursionReport:
    """Check sum_T v_3(T) == sum_q tr(S+ minus q) over the interior points q.

    ``lhs`` is the left side, the ``degree_totals[3]`` of an enumeration
    or audit of P.  Each term of the right side is counted by the
    polygon recursion, the frame with the other interior points inside
    it, so the identity compares the flip walk with an independent
    algorithm.  The n terms share one ``PolygonCounter``.
    """
    if not isinstance(P, AugmentedPointSet):
        raise TypeError("check_v3_recursion needs an AugmentedPointSet")
    counter = PolygonCounter(P.signs)
    interior = P.interior_indices()
    per_point = {q: counter.count(P.frame_indices(), set(interior) - {q}) for q in interior}
    return V3RecursionReport(lhs=lhs, rhs=sum(per_point.values()), per_point=per_point)


def tri_upper_bound(n: int, delta: Fraction) -> int:
    """ceil((1/delta)^n): the triangulation-count bound implied by an
    expected-degree-3 density of delta, an exact value: a float raises
    TypeError."""
    if isinstance(delta, float):
        raise TypeError("delta must be exact (int, Fraction or str), not a float")
    delta = Fraction(delta)
    if not 0 < delta <= 1:
        raise ValueError("delta must be in (0, 1]")
    if n < 0:
        raise ValueError("n must be >= 0")
    return ceil((1 / delta) ** n)
