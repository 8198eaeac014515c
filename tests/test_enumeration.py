from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from trichor.enumeration import (
    check_v3_recursion,
    enumerate_all,
    flip_graph_states,
    tri_upper_bound,
    vhat,
)
from trichor.errors import CapExceededError, TrichorError
from trichor.geometry import (
    AugmentedPointSet,
    Point,
    PointSet,
    augment,
    gen_convex,
    gen_convex_arc_in_triangle,
    gen_random,
    read_points,
    write_points,
)
from trichor.polygons import catalan, count_triangulations
from trichor.triangulation import Triangulation


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


def test_cap_raises_with_partial_result():
    with pytest.raises(CapExceededError) as exc:
        enumerate_all(gen_convex(6), cap=3)
    partial = exc.value.result
    assert partial.count == 3
    assert not partial.exhaustive


def test_cap_zero_partial_result_has_vhat_zero():
    with pytest.raises(CapExceededError) as exc:
        enumerate_all(gen_convex(6), cap=0)
    partial = exc.value.result
    assert partial.count == 0
    assert partial.vhat(3) == Fraction(0)


def test_capped_fingerprints_are_prefix_of_full():
    full = enumerate_all(gen_convex(6), collect_fingerprints=True)
    with pytest.raises(CapExceededError) as exc:
        enumerate_all(gen_convex(6), cap=5, collect_fingerprints=True)
    capped = exc.value.result
    assert len(capped.fingerprints) == 5
    assert set(capped.fingerprints) <= set(full.fingerprints)


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


def test_stats_are_populated():
    r = enumerate_all(gen_convex(7))
    assert r.stats.wall_time > 0
    assert r.stats.frontier_peak >= 1


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
        PointSet([Point(p.x * scale + shift, p.y * scale - shift) for p in P.base]),
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
    earlier point's y, so horizontal rays through vertices get exercised."""
    t = draw(st.integers(-M // 4, M // 4))
    pts = []
    for _ in range(draw(st.integers(1, max_points))):
        ys = [t] + [y for _, y in pts]
        y = draw(st.one_of(st.integers(-M // 4, M // 4), st.sampled_from(ys)))
        pts.append((draw(st.integers(-M // 2, 0)), y))
    frame = [Point(-M, -M), Point(M, t), Point(-M, M)]
    try:
        return AugmentedPointSet(PointSet(pts), frame)
    except TrichorError:
        assume(False)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(big_sets())
def test_recursion_counts_equal_walk_on_large_coordinates(P):
    walk = enumerate_all(P)
    frame = [(p.x, p.y) for p in P.frame]
    interior = [(p.x, p.y) for p in P.points[: P.n]]
    assert count_triangulations(frame, interior) == walk.count
    assert check_v3_recursion(P, walk.degree_totals.get(3, 0)).ok
