import pytest

from oracles import (
    count_by_interval_dp,
    count_by_noncrossing_sets,
    random_star_polygon,
    sees_by_ray_cast,
)
from trichor.errors import (
    CrossingChordsError,
    InvalidChordError,
    NotSimpleError,
    OutOfRangeError,
)
from trichor.charging import Vint, hole_of
from trichor.enumeration import enumerate_all, flip_graph_states
from trichor.geometry import AugmentedPointSet, Point, PointSet, augment, gen_convex, gen_random
from trichor.polygons import (
    PolygonCounter,
    SimplePolygon,
    catalan,
    catalan_generalized,
    count_triangulations,
    read_polygon,
    reflex_template,
    tr_with_chords,
    write_polygon,
)
from trichor.rng import SplitMix64
from trichor.triangulation import Triangulation, star_link, star_map


def convex_gon(k):
    return SimplePolygon([Point(t, t * t) for t in range(k)])


def test_catalan_values():
    assert [catalan(m) for m in range(7)] == [1, 1, 2, 5, 14, 42, 132]


def test_catalan_rejects_negative():
    with pytest.raises(OutOfRangeError):
        catalan(-1)


def test_generalized_catalan_known_values():
    assert catalan_generalized(2, 1) == 1  # C'_2
    assert catalan_generalized(3, 1) == 3  # C'_3
    assert catalan_generalized(4, 2) == 6  # C''_4
    assert catalan_generalized(5, 2) == 19  # C''_5
    assert catalan_generalized(4, 0) == catalan(4)


def test_generalized_catalan_identities():
    for n in range(2, 12):
        assert catalan_generalized(n, 1) == catalan(n) - catalan(n - 1)
    for n in range(4, 12):
        assert catalan_generalized(n, 2) == catalan(n) - 2 * catalan(n - 1) + catalan(n - 2)


def test_generalized_catalan_range_errors():
    with pytest.raises(OutOfRangeError):
        catalan_generalized(3, 2)  # r > n/2
    with pytest.raises(OutOfRangeError):
        catalan_generalized(2, -1)


def test_triangle_has_one_triangulation():
    assert count_triangulations(convex_gon(3)) == 1


def test_convex_counts_are_catalan():
    for k in range(3, 10):
        assert count_triangulations(convex_gon(k)) == catalan(k - 2)


def test_reflex_templates_match_formula():
    for n in range(2, 8):
        assert count_triangulations(reflex_template(n, 1)) == catalan_generalized(n, 1)
    for n in range(4, 8):
        assert count_triangulations(reflex_template(n, 2)) == catalan_generalized(n, 2)


def test_reflex_templates_match_brute_force():
    for n in range(2, 7):
        t = reflex_template(n, 1)
        assert count_by_interval_dp(t) == count_triangulations(t)
    for n in range(4, 7):
        t = reflex_template(n, 2)
        assert count_by_interval_dp(t) == count_triangulations(t)


def test_template_range_errors():
    with pytest.raises(OutOfRangeError):
        reflex_template(1, 1)
    with pytest.raises(OutOfRangeError):
        reflex_template(3, 2)
    with pytest.raises(OutOfRangeError):
        reflex_template(5, 3)


def test_dp_equals_brute_force_on_random_star_polygons():
    rng = SplitMix64(77)
    for i in range(60):
        k = 4 + (i % 7)  # 4..10
        poly = random_star_polygon(k, rng)
        bf = count_triangulations(poly)
        dp = count_by_interval_dp(poly)
        assert dp == bf, (i, k, dp, bf)
        assert 1 <= bf <= catalan(k - 2)
        assert (bf == catalan(k - 2)) == poly.is_convex()


def test_dp_equals_noncrossing_subset_count():
    rng = SplitMix64(123)
    for i in range(20):
        k = 4 + (i % 5)
        poly = random_star_polygon(k, rng)
        assert count_triangulations(poly) == count_by_noncrossing_sets(poly)


def test_tr_with_chords_hexagon_main_diagonal():
    hexagon = convex_gon(6)
    assert tr_with_chords(hexagon, [(0, 3)]) == 4  # C_2 * C_2
    assert count_triangulations(hexagon) == 14


def test_tr_with_chords_pentagon_ear():
    pentagon = convex_gon(5)
    assert tr_with_chords(pentagon, [(0, 2)]) == 2  # triangle x quad


def test_tr_with_chords_empty_is_full_count():
    p = convex_gon(6)
    assert tr_with_chords(p, []) == count_triangulations(p)


def test_tr_with_chords_partition_product():
    p = convex_gon(7)
    chords = [(0, 3), (3, 6)]
    got = tr_with_chords(p, chords)
    # pieces: 0-1-2-3, 3-4-5-6, 6-0-3(triangle)
    assert got == catalan(2) * catalan(2) * 1


def test_tr_with_chords_crossing_rejected():
    p = convex_gon(6)
    with pytest.raises(CrossingChordsError):
        tr_with_chords(p, [(0, 3), (1, 4)])


def test_tr_with_chords_invalid_chord():
    p = convex_gon(6)
    with pytest.raises(InvalidChordError):
        tr_with_chords(p, [(0, 1)])  # adjacent
    dented = reflex_template(4, 1)
    blocked = (0, len(dented) - 2)  # the pair the reflex vertex blocks
    with pytest.raises(InvalidChordError):
        tr_with_chords(dented, [blocked])


def test_chord_in_either_order_and_coinciding_ends():
    p = convex_gon(7)
    assert tr_with_chords(p, [(5, 2)]) == tr_with_chords(p, [(2, 5)]) == catalan(2) * catalan(3)
    with pytest.raises(InvalidChordError, match="coinciding"):
        tr_with_chords(p, [(3, 3)])
    for bad in ((0, 7), (-1, 3), (2, 9)):
        with pytest.raises(InvalidChordError, match="out of range"):
            tr_with_chords(p, [bad])


def test_two_vertex_polygon_rejected():
    with pytest.raises(NotSimpleError, match="^polygon needs >= 3 vertices, got 2$"):
        SimplePolygon([(0, 0), (4, 1)])


def test_bowtie_rejected():
    with pytest.raises(NotSimpleError):
        SimplePolygon([(0, 0), (2, 2), (2, 0), (0, 2)])


def test_kernel_witness_validated():
    # A square is star-shaped around its centre but not around an
    # outside point.
    sq = [(0, 0), (4, 0), (4, 4), (0, 4)]
    SimplePolygon(sq, kernel_witness=Point(2, 2))
    with pytest.raises(NotSimpleError):
        SimplePolygon(sq, kernel_witness=Point(9, 2))


def test_cw_input_normalized_to_ccw():
    p = SimplePolygon([(0, 0), (0, 4), (4, 4), (4, 0)])
    assert count_triangulations(p) == 2


def test_visibility_blocked_through_vertex():
    # Vertex 2 sits on the segment from 0 to 4's candidate line: grazing
    # a vertex counts as blocked.
    poly = SimplePolygon([(0, 0), (4, 0), (4, 4), (2, 2), (0, 4)])
    assert not poly.sees(1, 4)  # segment (4,0)-(0,4) passes through (2,2)


def test_sees_equals_ray_cast_reference():
    # The diagonal test (vertex, crossing and in-cone tests) against the
    # midpoint ray cast, on every non-adjacent pair.
    rng = SplitMix64(5)
    polys = [random_star_polygon(4 + i % 7, rng, span=3 + i % 5) for i in range(150)]
    polys += [reflex_template(n, 1) for n in range(2, 9)]
    polys += [reflex_template(n, 2) for n in range(4, 9)]
    polys.append(SimplePolygon([(0, 0), (4, 0), (4, 4), (2, 2), (0, 4)]))
    P = augment(gen_random(6, 14))
    holes = {}
    for tris in flip_graph_states(P):
        t = Triangulation(P, tris)
        for p in P.interior_indices():
            hole = hole_of(Vint(p, t))
            holes[hole.xy] = hole
    polys += holes.values()
    pairs = blocked = 0
    for poly in polys:
        k = len(poly)
        for i in range(k):
            for j in range(i + 2, k - (i == 0)):
                got = poly.sees(i, j)
                assert got == sees_by_ray_cast(poly, i, j), (poly.xy, i, j)
                pairs += 1
                blocked += not got
    assert len(holes) > 100 and pairs > 3000 and 0 < blocked < pairs


def test_polygon_roundtrip(tmp_path):
    poly = reflex_template(4, 1)
    path = tmp_path / "poly.txt"
    write_polygon(poly, path)
    again = read_polygon(path)
    assert again.boundary == poly.boundary


def test_exclusive_chord_pair_sums_to_total():
    # In the one-reflex pentagon, the chords (1,4) and (0,2) cross, and
    # every triangulation contains exactly one of them, so their chord
    # counts add up to the full count.
    t = reflex_template(3, 1)
    total = count_triangulations(t)
    a = tr_with_chords(t, [(1, 4)])
    b = tr_with_chords(t, [(0, 2)])
    assert (a, b, total) == (2, 1, 3)
    assert a + b == total
    # Requiring two chords at once narrows further.
    assert tr_with_chords(t, [(1, 4), (1, 3)]) == 1


def test_brute_force_on_convex_polygons():
    for k in range(3, 10):
        assert count_by_interval_dp(convex_gon(k)) == catalan(k - 2)


def xy_of(points):
    return [(p.x, p.y) for p in points]


def test_point_set_counts_equal_audit_walk(audited_corpus):
    # The frame with the interior points inside, counted by the ear
    # recursion, against the audit's flip walk on all 62 instances.
    for name, P, rep in audited_corpus:
        got = count_triangulations(xy_of(P.frame), xy_of(P.points[: P.n]))
        assert got == rep.triangulation_count, name


def test_convex_point_set_counts_are_catalan():
    for n in range(3, 10):
        S = gen_convex(n)
        hull = xy_of(S[i] for i in S.convex_hull_indices())
        inside = xy_of(S[i] for i in S.interior_indices())
        assert count_triangulations(hull, inside) == catalan(n - 2)


SQUARE = [(0, 0), (4, 0), (4, 4), (0, 4)]


@pytest.mark.parametrize(
    "boundary,inside,expected",
    [
        (SQUARE, [], 2),
        (SQUARE[::-1], [], 2),
        (SQUARE[::-1], [(3, 2)], 3),
        (SQUARE, [(9, 9)], ValueError),
        (SQUARE, [(2, 0)], ValueError),
        (SQUARE, [(0, 0)], ValueError),
        (SQUARE, [(1, 1), (1, 1)], ValueError),
        (SQUARE, [(2, 2), (6, 2)], ValueError),
        ([(0, 0), (2, 2), (2, 0), (0, 2)], [], NotSimpleError),
    ],
    ids=["ccw", "cw", "cw-inside", "outside", "on-edge", "on-vertex", "repeat", "one-outside", "bowtie"],
)
def test_count_triangulations_validates_the_pair_form(boundary, inside, expected):
    # The pair form goes through SimplePolygon (a CW boundary is
    # reversed, a non-simple one raises), and every inside point must lie
    # strictly inside and repeat no point.
    if isinstance(expected, int):
        assert count_triangulations(boundary, inside) == expected
    else:
        with pytest.raises(expected):
            count_triangulations(boundary, inside)


def _rotations(cycle):
    return [cycle[r:] + cycle[:r] for r in range(len(cycle))]


def test_shared_counter_is_invariant_under_rotation_and_keeps_inside_sets_apart():
    # One PolygonCounter over the n=7 instance keys its memo by the cycle
    # rotated to its smallest index and by the inside set.  Each rotation
    # of the frame with each v3 inside set, and of each distinct hole,
    # must count what a fresh count, the interval DP (holes) or a flip
    # walk (frame sets) counts.
    P = augment(gen_random(7, 148))
    counter = PolygonCounter(P.signs)
    frame = list(P.frame_indices())
    for q in P.interior_indices():
        others = [i for i in P.interior_indices() if i != q]
        inside = [P.xy[i] for i in others]
        fresh = count_triangulations([P.xy[i] for i in frame], inside)
        walk = enumerate_all(AugmentedPointSet(PointSet([P.points[i] for i in others]), P.frame)).count
        assert fresh == walk
        for rot in _rotations(frame):
            assert counter.count(rot, others) == walk, (q, rot)
    holes = set()
    for tris in flip_graph_states(P):
        star = star_map(tris)
        for p in P.interior_indices():
            holes.add(tuple(star_link(star, p)))
    assert len(holes) > 100
    for hole in holes:
        for rot in _rotations(list(hole)):
            poly = SimplePolygon([P.xy[i] for i in rot])
            want = count_by_interval_dp(poly)
            assert counter.count(rot) == count_triangulations(poly) == want, rot


def test_tr_with_chords_equals_noncrossing_set_oracle():
    # Random chord sets, repeats and either order included, over convex
    # 4..9-gons and the reflex templates: a set of diagonals counts as the
    # oracle does, a crossing set raises CrossingChordsError and a pair
    # that is no diagonal raises InvalidChordError.
    polys = [convex_gon(k) for k in range(4, 10)]
    polys += [reflex_template(n, 1) for n in range(2, 8)]
    polys += [reflex_template(n, 2) for n in range(4, 8)]
    rng = SplitMix64(2500)
    seen = {"counted": 0, "crossing": 0, "invalid": 0, "repeat": 0, "reversed": 0}
    for _ in range(1200):
        poly = polys[rng.below(len(polys))]
        k = len(poly)
        pairs = [(i, j) for i in range(k) for j in range(i + 2, k) if (i, j) != (0, k - 1)]
        chords = []
        for _ in range(rng.below(5)):
            if chords and not rng.below(4):
                i, j = chords[rng.below(len(chords))]
                seen["repeat"] += 1
            else:
                i, j = pairs[rng.below(len(pairs))]
            if rng.below(2):
                i, j = j, i
                seen["reversed"] += 1
            chords.append((i, j))
        if not all(sees_by_ray_cast(poly, i, j) for i, j in chords):
            seen["invalid"] += 1
            with pytest.raises(InvalidChordError):
                tr_with_chords(poly, chords)
        elif (want := count_by_noncrossing_sets(poly, chords)) == 0:
            seen["crossing"] += 1
            with pytest.raises(CrossingChordsError):
                tr_with_chords(poly, chords)
        else:
            seen["counted"] += 1
            assert tr_with_chords(poly, chords) == want, (poly.xy, chords)
    assert min(seen.values()) >= 50, seen


def test_tr_with_chords_splits_a_wrapped_piece():
    # (2, 5) leaves the piece [5, 0, 1, 2], where 1 comes after 5, so the
    # split of (1, 5) swaps its ends: a quad [2, 3, 4, 5] and two triangles.
    assert tr_with_chords(convex_gon(6), [(2, 5), (1, 5)]) == 2


def test_sees_rejects_the_same_and_adjacent_vertices():
    poly = SimplePolygon(gen_convex(5).points)
    assert repr(poly) == "SimplePolygon(5 vertices)"
    assert poly.sees(0, 2)
    assert not poly.sees(1, 1)
    assert not poly.sees(1, 2) and not poly.sees(2, 1)
    assert not poly.sees(0, 4) and not poly.sees(4, 5)
