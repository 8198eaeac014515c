"""Exhaustive enumeration of triangulations by flip-graph traversal.

Every triangulation of a point set can be reached from any other by
edge flips, so a breadth-first walk over the flip graph, deduplicated on
each state's exact edge set (an int bitmask over the index pairs),
visits each one exactly once.  Counts and degree totals are exact
integers; expected degrees come out as exact rationals.

The traversal works on raw canonical triangle tuples for speed; the
``Triangulation`` class is only materialized at API boundaries.  The
degree-3 insertion identity checks the walk's degree-3 total against
counts from the polygon recursion, which uses no flips.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import ceil
from typing import Iterator

from .errors import CapExceededError, InvariantError
from .geometry import AugmentedPointSet, crosses
from .polygons import PolygonCounter
from .triangulation import (
    Tri,
    edges_of,
    flipped,
    initial_triangulation,
    star_map,
)


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


def flip_graph_states(
    container,
    cap: int | None = None,
    stats: EnumerationStats | None = None,
) -> Iterator[tuple[Tri, ...]]:
    """Yield every triangulation of the container as a canonical triangle
    tuple, each exactly once, in breadth-first order from the seed.
    Raises CapExceededError instead of yielding a state beyond the
    first ``cap``; a walk with at most ``cap`` states ends normally.

    A state's key is its edge set as an int bitmask over the index
    pairs.  Flipping uv to xy toggles two bits, so a neighbour is looked
    up in ``seen`` before it is built; only unseen flips pay for the
    crossing test and canonicalisation.  A state's ``star_map`` gives
    its flips and, before it is yielded, its Euler counts.
    """
    signs = container.signs
    seed = initial_triangulation(container).triangles
    n_all = len(signs)
    hull_size = len(container.convex_hull_indices())
    expected_tris = 2 * n_all - 2 - hull_size
    # Of the 3 * expected_tris directed edges, an interior edge has two.
    expected_inner = 3 * expected_tris - (3 * n_all - 3 - hull_size)

    bit: dict[tuple[int, int], int] = {}
    for k, (i, j) in enumerate(combinations(range(n_all), 2)):
        bit[i, j] = bit[j, i] = 1 << k
    mask = sum(bit[e] for e in edges_of(seed))
    seen = {mask}
    frontier = deque([(seed, mask)])
    yielded = 0
    while frontier:
        if cap is not None and yielded >= cap:
            raise CapExceededError(f"enumeration cap {cap} reached")
        state, mask = frontier.popleft()
        star = star_map(state)
        if len(state) != expected_tris:
            raise InvariantError("Euler count violated during enumeration")
        if sum(map(len, star.values())) != 3 * expected_tris:
            raise InvariantError("a directed edge lies in two triangles during enumeration")
        inner = 0
        for u, succ in star.items():
            for v, x in succ.items():
                if v < u or (y := star[v].get(u)) is None:
                    continue
                inner += 1
                nxt = mask ^ bit[u, v] ^ bit[x, y]
                # For a non-convex quad, xy is already an edge or crosses an
                # edge other than uv: that mask is no triangulation, never seen.
                if nxt in seen or not crosses(signs, x, y, u, v):
                    continue
                seen.add(nxt)
                frontier.append((flipped(signs, state, u, v, x, y), nxt))
        if inner != expected_inner:
            raise InvariantError("Euler count violated during enumeration")
        if stats is not None:
            stats.frontier_peak = max(stats.frontier_peak, len(frontier))
        yield state
        yielded += 1


def enumerate_all(
    container,
    cap: int | None = None,
) -> EnumerationResult:
    """Count all triangulations and accumulate interior degree totals.

    On hitting ``cap`` the partial result is attached to the raised
    CapExceededError, flagged non-exhaustive.
    """
    interior = container.interior_indices()
    n_all = len(container.points)
    stats = EnumerationStats()
    t0 = time.perf_counter()
    count = 0
    degree_totals: dict[int, int] = {}

    def build(exhaustive: bool) -> EnumerationResult:
        stats.wall_time = time.perf_counter() - t0
        return EnumerationResult(
            count=count,
            interior_count=len(interior),
            degree_totals=dict(sorted(degree_totals.items())),
            exhaustive=exhaustive,
            stats=stats,
        )

    gen = flip_graph_states(container, cap=cap, stats=stats)
    try:
        for state in gen:
            count += 1
            # An interior vertex's degree is its number of triangles.
            deg = [0] * n_all
            for a, b, c in state:
                deg[a] += 1
                deg[b] += 1
                deg[c] += 1
            for p in interior:
                d = deg[p]
                degree_totals[d] = degree_totals.get(d, 0) + 1
    except CapExceededError as exc:
        exc.result = build(False)
        raise
    return build(True)


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
    counter = PolygonCounter(P.xy, P.signs)
    interior = P.interior_indices()
    per_point = {q: counter.count(P.frame_indices(), set(interior) - {q}) for q in interior}
    return V3RecursionReport(lhs=lhs, rhs=sum(per_point.values()), per_point=per_point)


def tri_upper_bound(n: int, delta: Fraction) -> int:
    """ceil((1/delta)^n): the triangulation-count bound implied by an
    expected-degree-3 density of delta."""
    delta = Fraction(delta)
    if not 0 < delta <= 1:
        raise ValueError("delta must be in (0, 1]")
    if n < 0:
        raise ValueError("n must be >= 0")
    return ceil((1 / delta) ** n)
