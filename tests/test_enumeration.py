from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import full_corpus
from oracles import flip_graph_by_bfs
from trichor.enumeration import (
    FlipWalk,
    check_v3_recursion,
    enumerate_all,
    flip_graph_states,
    tri_upper_bound,
    vhat,
)
from trichor.errors import CapExceededError, InvariantError
from trichor.geometry import (
    AugmentedPointSet,
    Point,
    PointSet,
    augment,
    gen_convex,
    gen_convex_arc_in_triangle,
    gen_random,
    orient,
    read_points,
    write_points,
)
from trichor.polygons import catalan, count_triangulations
from trichor.triangulation import Triangulation, edges_of, star_map


@pytest.mark.parametrize("n,expected", [(4, 2), (5, 5), (6, 14)])
def test_convex_counts(n, expected):
    assert enumerate_all(gen_convex(n)).count == expected


def test_convex_matches_catalan_up_to_nine():
    for n in range(3, 10):
        assert enumerate_all(gen_convex(n)).count == catalan(n - 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_arc_counts_are_catalan(n):
    assert enumerate_all(gen_convex_arc_in_triangle(n)).count == catalan(n)


def test_arc_vhat3_closed_form():
    for n in range(2, 6):
        got = vhat(gen_convex_arc_in_triangle(n), 3)
        assert got == Fraction(n * catalan(n - 1), catalan(n))


def test_arc_n1_vhat3_is_one():
    assert vhat(gen_convex_arc_in_triangle(1), 3) == 1


def test_degree_totals_sum_to_n_count():
    for seed in (0, 1):
        P = augment(gen_random(5, seed))
        r = enumerate_all(P)
        assert sum(r.degree_totals.values()) == P.n * r.count
        assert r.count >= 1
        assert r.vhat(3) * 30 >= P.n


def test_cap_returns_partial_result():
    partial = enumerate_all(gen_convex(6), cap=3)
    assert partial.count == 3
    assert not partial.exhaustive


def test_cap_zero_partial_result_has_vhat_zero():
    partial = enumerate_all(gen_convex(6), cap=0)
    assert partial.count == 0
    assert not partial.exhaustive
    assert partial.vhat(3) == Fraction(0)


def test_capped_fingerprints_are_prefix_of_full():
    full = list(flip_graph_states(gen_convex(6)))
    capped = []
    with pytest.raises(CapExceededError):
        for state in flip_graph_states(gen_convex(6), cap=5):
            capped.append(state)
    assert capped == full[:5]


def test_v3_recursion_needs_an_augmented_set():
    with pytest.raises(TypeError, match="^check_v3_recursion needs an AugmentedPointSet$"):
        check_v3_recursion(gen_random(4, 0), lhs=0)


def test_every_cap_gives_the_walk_prefix():
    # 52 states: every cap below, at and above the count.
    P = augment(gen_random(5, 4))
    full = list(flip_graph_states(P))
    assert len(full) == 52
    assert list(flip_graph_states(P, cap=52)) == full
    with pytest.raises(CapExceededError):
        next(flip_graph_states(P, cap=-1))
    degrees = [[len(star_map(tris)[p]) for p in P.interior_indices()] for tris in full]
    for cap in range(54):
        r = enumerate_all(P, cap=cap)
        assert r.count == min(cap, 52)
        assert r.exhaustive == (cap >= 52)
        prefix = {}
        for state in degrees[:cap]:
            for d in state:
                prefix[d] = prefix.get(d, 0) + 1
        assert r.degree_totals == prefix


# Corruptions of a star map just flipped from uv to xy, whose new
# triangles are (x, u, y) and (y, v, x).


def _drop_one(star, u, v, x, y):
    del star[x][u], star[u][y], star[y][x]


def _duplicate_one(star, u, v, x, y):
    # The old triangle (u, v, x) comes back on top of the new ones.
    star[u][v], star[v][x], star[x][u] = x, u, v


def _replace_by_duplicate(star, u, v, x, y):
    # The count is right, but the directed edge u -> y lies in the new
    # triangle (x, u, y) and again in the old (v, u, y).
    star[u][y] = v


def _entries(star):
    return frozenset((a, b, c) for a, succ in star.items() for b, c in succ.items())


@pytest.mark.parametrize(
    "corrupt,message",
    [(_drop_one, "Euler"), (_duplicate_one, "Euler"), (_replace_by_duplicate, "directed edge")],
)
def test_walk_rejects_corrupted_flip_before_yielding_it(monkeypatch, corrupt, message):
    # The first flip after a state was yielded is corrupted in place; the
    # walk must raise before it yields the corrupted state.
    import trichor.enumeration as enumeration

    real = enumeration.flip_star
    bad, yielded = [], []

    def flip_star(star, *args):
        real(star, *args)
        if yielded and not bad:
            corrupt(star, *args)
            bad.append(_entries(star))

    monkeypatch.setattr(enumeration, "flip_star", flip_star)
    P = augment(gen_random(5, 4))
    with pytest.raises(InvariantError, match=message):
        for tris in flip_graph_states(P):
            yielded.append(_entries(star_map(tris)))
    assert bad and yielded
    assert bad[0] not in yielded


def test_walk_rejects_overlapping_triangles_by_edge_count(monkeypatch):
    # The fan of a convex hexagon from vertex 0 with its last triangle
    # swapped for (1, 3, 5): four CCW triangles, no directed edge twice,
    # but only two interior edges where a triangulation has three.
    import trichor.enumeration as enumeration

    P = gen_convex(6)
    bad = Triangulation(P, [(0, 1, 2), (0, 2, 3), (0, 3, 4), (1, 3, 5)])
    monkeypatch.setattr(enumeration, "initial_triangulation", lambda c: bad)
    with pytest.raises(InvariantError, match="Euler"):
        next(flip_graph_states(P))


WALK_INSTANCES = (
    [
        pytest.param(lambda n=n: gen_convex(n), catalan(n - 2), id=f"convex-{n}")
        for n in range(3, 10)
    ]
    + [
        pytest.param(lambda n=n: gen_convex_arc_in_triangle(n), catalan(n), id=f"arc-{n}")
        for n in (2, 4)
    ]
    + [
        pytest.param(lambda n=n, s=s: augment(gen_random(n, s)), None, id=f"random-{n}-s{s}")
        for n, s in ((4, 1), (5, 4), (6, 2))
    ]
)


@pytest.mark.parametrize("make,expected", WALK_INSTANCES)
def test_walk_is_exact(make, expected):
    # The walk yields each triangulation once and misses none: its states
    # are pairwise distinct and closed under every legal flip.  Convex
    # and arc instances also have known Catalan counts.
    P = make()
    states = list(flip_graph_states(P))
    if expected is not None:
        assert len(states) == expected
    yielded = set(states)
    assert len(yielded) == len(states)
    for tris in states:
        t = Triangulation(P, tris)
        for e in t.flippable_edges():
            assert t.flip(e).triangles in yielded


# Cocircular sets: every point of the circle x^2 + y^2 = 25 with integer
# coordinates, eight of them, and a square, so the Delaunay test ties.
CIRCLE12 = [(5, 0), (4, 3), (3, 4), (0, 5), (-3, 4), (-4, 3), (-5, 0), (-4, -3), (-3, -4), (0, -5), (3, -4), (4, -3)]
CIRCLE8 = CIRCLE12[::3] + CIRCLE12[1::3]
SQUARE = [(0, 0), (4, 0), (4, 4), (0, 4)]


def framed(pts):
    return AugmentedPointSet(PointSet(pts), [Point(-31, -20), Point(37, -23), Point(1, 41)])


COCIRCULAR_INSTANCES = [
    pytest.param(lambda: PointSet(CIRCLE8), catalan(6), id="circle-8"),
    pytest.param(lambda: PointSet(CIRCLE12), catalan(10), id="circle-12"),
    pytest.param(lambda: framed(CIRCLE8), None, id="framed-circle-8"),
    pytest.param(lambda: framed(SQUARE), None, id="framed-square"),
]


CORPUS_N6 = [pytest.param(lambda P=P: P, None, id=name) for name, P in full_corpus() if P.n <= 6]


@pytest.mark.parametrize("make,expected", WALK_INSTANCES + COCIRCULAR_INSTANCES + CORPUS_N6)
def test_walk_equals_bfs_oracle(make, expected):
    P = make()
    walk = [frozenset(edges_of(tris)) for tris in flip_graph_states(P)]
    assert len(set(walk)) == len(walk)
    assert set(walk) == set(flip_graph_by_bfs(P))
    if expected is not None:
        assert len(walk) == expected


def test_walk_memory_is_one_path():
    # A BFS keeps every state's key: its peak grew 9x from n = 7 to n = 9.
    import tracemalloc

    def peak(n):
        P = augment(gen_random(n, 148))
        tracemalloc.start()
        try:
            for _ in flip_graph_states(P):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(9) <= 2 * peak(7)


def test_pointset_and_augmented_give_same_count(tmp_path):
    arc = gen_convex_arc_in_triangle(4)
    path = tmp_path / "arc4.txt"
    write_points(arc, path)
    as_pointset = read_points(path)
    assert enumerate_all(as_pointset).count == enumerate_all(arc).count == catalan(4)


def v3_recursion(P):
    return check_v3_recursion(P, enumerate_all(P).degree_totals.get(3, 0))


def test_v3_recursion_n1():
    rep = v3_recursion(gen_convex_arc_in_triangle(1))
    assert rep.lhs == rep.rhs == 1


def test_v3_recursion_arc4():
    rep = v3_recursion(gen_convex_arc_in_triangle(4))
    assert rep.ok
    assert rep.rhs == 4 * catalan(3)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_v3_recursion_random(seed):
    rep = v3_recursion(augment(gen_random(4, seed)))
    assert rep.ok, (rep.lhs, rep.rhs)


def test_tri_upper_bound_values():
    assert tri_upper_bound(3, Fraction(1, 30)) == 27000
    assert tri_upper_bound(0, Fraction(1, 7)) == 1
    assert tri_upper_bound(2, Fraction(1, 59)) == 3481


def test_tri_upper_bound_validates():
    with pytest.raises(ValueError):
        tri_upper_bound(2, Fraction(3, 2))
    with pytest.raises(ValueError):
        tri_upper_bound(-1, Fraction(1, 2))
    # 1/3 as a float is the binary fraction just below it: ceil gives 4, not 3.
    with pytest.raises(TypeError):
        tri_upper_bound(1, 1 / 3)
    assert tri_upper_bound(1, "1/3") == tri_upper_bound(1, Fraction(1, 3)) == 3
    assert tri_upper_bound(2, 1) == 1


def test_stats_are_populated():
    r = enumerate_all(gen_convex(7))
    assert r.stats.wall_time > 0
    assert r.stats.frontier_peak >= 1
    # Exactly one more than the deepest trail of a full walk.
    P = augment(gen_random(5, 4))
    walk = FlipWalk(P)
    deepest = max(len(walk.trail) for _ in walk.walk())
    assert deepest == 6
    assert enumerate_all(P).stats.frontier_peak == deepest + 1


def test_square_with_interior_point_counts_three():
    # Hand enumeration: the full fan from the interior point, or either
    # hull diagonal with the interior point fanned inside its triangle.
    from trichor.geometry import PointSet

    ps = PointSet([(0, 0), (4, 0), (4, 4), (0, 4), (3, 2)])
    assert enumerate_all(ps).count == 3
    assert count_triangulations([(0, 0), (4, 0), (4, 4), (0, 4)], [(3, 2)]) == 3


def test_counts_invariant_under_coordinate_scaling():
    # Scaling and translating preserves the order type, so the flip
    # graph is identical; exact predicates must not care about magnitude.
    from trichor.geometry import AugmentedPointSet, Point, PointSet

    P = augment(gen_random(5, 6))
    scale, shift = 10**12, 7
    big = AugmentedPointSet(
        PointSet([Point(p.x * scale + shift, p.y * scale - shift) for p in P.points[:P.n]]),
        [Point(p.x * scale + shift, p.y * scale - shift) for p in P.frame],
    )
    a, b = enumerate_all(P), enumerate_all(big)
    assert a.count == b.count
    assert a.degree_totals == b.degree_totals


M = 2**40


@st.composite
def big_sets(draw, max_points=6):
    """One to ``max_points`` points inside the frame (-M, -M), (M, t),
    (-M, M), drawn from the box x in [-M/2, 0], |y| <= M/4, which lies
    strictly inside for every |t| <= M/4.  A point's y may repeat t or an
    earlier point's y, so horizontal rays through vertices get exercised.

    A drawn point that would repeat a point or lie on a line through two
    is skipped, not rejected.  The size is one plus the coordinate sum
    modulo ``max_points``: hypothesis draws its examples in near-copies,
    so a size drawn on its own repeats across them and leaves some sizes
    rare in a short run."""
    t = draw(st.integers(-M // 4, M // 4))
    frame = [(-M, -M), (M, t), (-M, M)]
    pts = []
    for _ in range(3 * max_points):
        y = draw(st.integers(-M // 4, M // 4) | st.sampled_from([t] + [y for _, y in pts]))
        p = (draw(st.integers(-M // 2, 0)), y)
        if all(orient(a, b, p) for a, b in combinations(frame + pts, 2)):
            pts.append(p)
        if len(pts) == max_points:
            break
    n = 1 + sum(map(sum, pts)) % max_points
    return AugmentedPointSet(PointSet(pts[:n]), [Point(*q) for q in frame])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(big_sets())
def test_recursion_counts_equal_walk_on_large_coordinates(P):
    walk = enumerate_all(P)
    frame = [(p.x, p.y) for p in P.frame]
    interior = [(p.x, p.y) for p in P.points[: P.n]]
    assert count_triangulations(frame, interior) == walk.count
    assert check_v3_recursion(P, walk.degree_totals.get(3, 0)).ok


def test_walk_replays_a_path_into_its_subtree():
    # Each subtree two flips below the root is one block of the full DFS,
    # the states whose trail starts with its path; a fresh walk replays
    # the path and yields that block in the same order.
    from trichor.triangulation import star_triangles

    P = augment(gen_random(7, 148))
    full = FlipWalk(P)
    blocks = {}
    for star in full.walk():
        blocks.setdefault(tuple((u, v) for u, v, _, _ in full.trail[:2]), []).append(star_triangles(star))
    top = FlipWalk(P)
    paths = [[(u, v) for u, v, _, _ in top.trail] for _ in top.walk(limit=2) if len(top.trail) == 2]
    assert len(paths) >= 10
    assert sorted(map(tuple, paths)) == sorted(k for k in blocks if len(k) == 2)
    root = {p: dict(succ) for p, succ in top.star.items()}
    for path in paths:
        walk = FlipWalk(P)
        assert [star_triangles(star) for star in walk.walk(path)] == blocks[tuple(path)]
        assert walk.star == root and walk.trail == []
    assert len(list(top.walk(limit=0))) == 1
    assert top.star == root
