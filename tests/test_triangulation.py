import json

import pytest

from trichor.enumeration import flip_graph_states
from trichor.errors import NotFlippableError, UnknownEdgeError
from trichor.geometry import (
    CCW,
    AugmentedPointSet,
    PointSet,
    augment,
    gen_convex_arc_in_triangle,
    gen_random,
    orient,
)
from trichor.rng import SplitMix64
from trichor.triangulation import (
    Triangulation,
    canonical_triangles,
    degree_vector,
    initial_triangulation,
    star_link,
    star_map,
)


def square():
    return PointSet([(0, 0), (1, 0), (1, 1), (0, 1)])


def square_tri():
    return Triangulation(square(), [(0, 1, 2), (0, 2, 3)], check=True)


def test_initial_frame_only():
    aug = AugmentedPointSet.from_points(PointSet([(0, 0), (9, 0), (0, 9)]))
    t = initial_triangulation(aug)
    assert len(t.triangles) == 1
    assert len(t.edge_set) == 3


def test_initial_single_interior_point():
    aug = augment(PointSet([(1, 1)]))
    t = initial_triangulation(aug)
    assert len(t.triangles) == 3
    assert len(t.edge_set) == 6


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_initial_euler_counts_n4(seed):
    aug = augment(gen_random(4, seed))
    t = initial_triangulation(aug)
    assert len(t.edge_set) == 3 * 4 + 3
    assert len(t.triangles) == 2 * 4 + 1


def test_flippable_square_diagonal():
    assert square_tri().is_flippable((0, 2))


def test_flippable_reflex_quad_diagonal():
    # (1,1) sits inside the triangle of the other three: the quad around
    # the internal edge (0, 3) is not convex.
    ps = PointSet([(0, 0), (4, 0), (0, 4), (1, 1)])
    t = Triangulation(ps, [(0, 1, 3), (1, 2, 3), (2, 0, 3)], check=True)
    assert not t.is_flippable((0, 3))
    assert not t.is_flippable((1, 3))
    assert not t.is_flippable((2, 3))


def test_hull_edges_not_flippable():
    t = square_tri()
    for e in ((0, 1), (1, 2), (2, 3), (0, 3)):
        assert not t.is_flippable(e)


def test_unknown_edge():
    with pytest.raises(UnknownEdgeError):
        square_tri().is_flippable((1, 3))


def test_flip_square():
    t = square_tri()
    t2 = t.flip((0, 2))
    assert (1, 3) in t2.edge_set
    assert (0, 2) not in t2.edge_set
    assert set(t.edge_set) ^ set(t2.edge_set) == {(0, 2), (1, 3)}


def test_flip_involution():
    t = square_tri()
    t2 = t.flip((0, 2))
    t3 = t2.flip((1, 3))
    assert t3.fingerprint() == t.fingerprint()


def test_flip_not_flippable_raises():
    with pytest.raises(NotFlippableError):
        square_tri().flip((0, 1))


def test_every_triangulation_has_a_flippable_edge():
    # Any >= 5 point set in general position has at least two
    # triangulations, so every triangulation has a flippable edge.
    from trichor.geometry import gen_convex

    for container in (augment(gen_random(2, 3)), augment(gen_random(4, 8)), gen_convex(5)):
        for tris in flip_graph_states(container):
            t = Triangulation(container, tris)
            assert t.flippable_edges()


def test_fingerprint_changes_on_flip():
    t = square_tri()
    assert t.fingerprint() != t.flip((0, 2)).fingerprint()


def test_fingerprint_canonical_over_storage_order():
    ps = square()
    a = Triangulation(ps, [(0, 1, 2), (0, 2, 3)])
    b = Triangulation(ps, [(2, 3, 0), (1, 2, 0)])
    assert a.fingerprint() == b.fingerprint()
    assert a == b


def test_equal_triangulations_hash_equal_and_collapse_in_a_set():
    ps = square()
    a = Triangulation(ps, [(0, 1, 2), (0, 2, 3)])
    b = Triangulation(ps, [(2, 3, 0), (1, 2, 0)])
    assert hash(a) == hash(b)
    assert {a, b, a.flip((0, 2))} == {b, b.flip((0, 2))}
    assert len({a, b, a.flip((0, 2))}) == 2


def test_initial_triangulation_of_two_points_has_no_interior():
    with pytest.raises(ValueError, match="^point set has no interior: need >= 3 points$"):
        initial_triangulation(PointSet([(0, 0), (5, 1)]))


def test_degree_vector_n1():
    aug = augment(PointSet([(1, 1)]))
    dv = degree_vector(initial_triangulation(aug))
    assert dv.v == {3: 1}
    assert dv.frame_degrees == (3, 3, 3)


def test_degree_vector_identities():
    for seed in (0, 4):
        aug = augment(gen_random(5, seed))
        n = aug.n
        for tris in flip_graph_states(aug):
            dv = degree_vector(Triangulation(aug, tris))
            assert sum(dv.v.values()) == n
            assert dv.v.get(1, 0) == 0 and dv.v.get(2, 0) == 0
            assert sum(dv.frame_degrees) + dv.weighted_sum() == 6 * n + 6
            assert sum(dv.frame_degrees) >= 9
            assert dv.weighted_sum() <= 6 * n - 3
            assert sum((7 - i) * c for i, c in dv.v.items()) > n


def test_degree_vector_requires_augmented():
    ps = square()
    with pytest.raises(TypeError):
        degree_vector(Triangulation(ps, [(0, 1, 2), (0, 2, 3)]))


def test_three_ring_configuration_has_v3_zero():
    # Two nested triangles inside the frame: some triangulation leaves
    # every interior point at degree >= 4.
    base = PointSet(
        [(0, 100), (-87, -50), (87, -50), (0, -40), (-35, 20), (35, 20)]
    )
    aug = augment(base)
    found = False
    for tris in flip_graph_states(aug):
        dv = degree_vector(Triangulation(aug, tris))
        if dv.v.get(3, 0) == 0:
            found = True
            break
    assert found


def test_random_flip_walk_preserves_invariants():
    aug = augment(gen_random(6, 2))
    t = initial_triangulation(aug)
    rng = SplitMix64(5)
    for _ in range(60):
        flippable = t.flippable_edges()
        t = t.flip(flippable[rng.below(len(flippable))])
        t.validate()


def test_link_cycle_orders_neighbors():
    aug = augment(PointSet([(1, 1)]))
    t = initial_triangulation(aug)
    cyc = t.link_cycle(0)
    assert sorted(cyc) == [1, 2, 3]
    with pytest.raises(ValueError):
        t.link_cycle(1)  # frame vertex is not interior


@pytest.mark.parametrize(
    "P",
    [gen_convex_arc_in_triangle(4), augment(gen_random(5, 7))],
    ids=["arc4", "n5-s7"],
)
def test_star_map_links_and_degrees(P):
    pts = P.points
    states = [initial_triangulation(P).triangles, *flip_graph_states(P)]
    for tris in states:
        t = Triangulation(P, tris)
        star = star_map(tris)
        degrees = {}
        for p in P.interior_indices():
            link = star_link(star, p)
            neighbours = {j for e in t.edge_set if p in e for j in e if j != p}
            assert len(link) == len(set(link)) and set(link) == neighbours
            assert link[0] == min(link)
            for x, y in zip(link, link[1:] + link[:1]):
                assert orient(pts[p], pts[x], pts[y]) == CCW
                assert canonical_triangles([(p, x, y)])[0] in t.triangles
            degrees[p] = len(link)
        for f in P.frame_indices():
            assert star_link(star, f) is None
            # A hull vertex has one more neighbour than triangles.
            degrees[f] = len(star[f]) + 1
        assert degrees == t.degree_map()


def test_json_export_sorted():
    t = square_tri()
    data = json.loads(t.to_json())
    assert data["n"] == 4
    edges = [tuple(e) for e in data["edges"]]
    assert edges == sorted(edges)
    assert all(i < j for i, j in edges)


def test_validate_rejects_overlapping_triangles():
    ps = square()
    with pytest.raises(ValueError, match="directed edge"):
        Triangulation(ps, [(0, 1, 2), (0, 2, 3), (0, 1, 3)], check=True)


def test_arc_forced_edges_present_everywhere():
    # Every spoke from an arc point to the apex is forced, so it shows
    # up in every enumerated triangulation.
    arc = gen_convex_arc_in_triangle(3)
    apex = arc.frame_indices()[2]
    for tris in flip_graph_states(arc):
        edges = set(Triangulation(arc, tris).edge_set)
        for p in arc.interior_indices():
            assert (p, apex) in edges or (apex, p) in edges


def test_validate_rejects_a_clockwise_triangle():
    with pytest.raises(ValueError, match=r"^triangle \(0, 2, 1\) is not CCW$"):
        Triangulation(square(), [(0, 2, 1), (0, 3, 2)], check=True)


def test_validate_rejects_triangles_that_miss_part_of_the_hull():
    with pytest.raises(ValueError, match="^triangles do not tile the hull$"):
        Triangulation(square(), [(0, 1, 2)], check=True)


def test_validate_rejects_a_point_left_out():
    # The two triangles tile the hull but skip the centre point: 5 edges
    # where a triangulation of 5 points with a 4-gon hull has 8.
    ps = PointSet([(0, 0), (4, 0), (4, 4), (0, 4), (1, 2)])
    with pytest.raises(ValueError, match="^edge count 5 != 8$"):
        Triangulation(ps, [(0, 1, 2), (0, 2, 3)], check=True)


def test_repr_names_triangle_count_and_fingerprint():
    t = square_tri()
    assert repr(t) == f"Triangulation(2 triangles, fp={t.fingerprint()[:8]})"
