import pytest

from trichor.enumeration import flip_graph_states
from trichor.errors import CollinearTripleError, DuplicatePointError
from trichor.geometry import (
    CCW,
    COLLINEAR,
    CW,
    AugmentedPointSet,
    Point,
    PointSet,
    augment,
    gen_convex,
    gen_convex_arc_in_triangle,
    gen_random,
    orient,
    point_in_triangle,
    read_points,
    write_points,
)
from trichor.rng import SplitMix64
from trichor.triangulation import edges_of


def test_orient_basic():
    assert orient(Point(0, 0), Point(1, 0), Point(0, 1)) == CCW
    assert orient(Point(0, 0), Point(1, 1), Point(2, 2)) == COLLINEAR
    assert orient(Point(0, 0), Point(0, 1), Point(1, 0)) == CW


def test_orient_antisymmetric_under_swaps():
    rng = SplitMix64(11)
    for _ in range(300):
        a, b, c = (Point(rng.below(50), rng.below(50)) for _ in range(3))
        o = orient(a, b, c)
        assert orient(b, a, c) == -o
        assert orient(a, c, b) == -o
        assert orient(c, b, a) == -o


def test_point_rejects_floats():
    with pytest.raises(TypeError):
        Point(0.5, 1)


def test_validate_general_position_ok():
    ps = PointSet([(0, 0), (5, 1), (1, 5)])
    assert len(ps) == 3


def test_validate_collinear_rejected():
    with pytest.raises(CollinearTripleError) as exc:
        PointSet([(0, 0), (1, 1), (2, 2)])
    assert exc.value.indices == (0, 1, 2)


def test_validate_duplicate_rejected():
    with pytest.raises(DuplicatePointError) as exc:
        PointSet([(0, 0), (0, 0)])
    assert exc.value.indices == (0, 1)


def test_augment_single_point():
    aug = augment(PointSet([(0, 0)]))
    assert len(aug.points) == 4
    assert aug.n == 1
    hull = PointSet(aug.points).convex_hull_indices()
    assert len(hull) == 3


def test_augment_convex_five():
    aug = augment(gen_convex(5))
    assert len(aug.points) == 8
    assert len(PointSet(aug.points).convex_hull_indices()) == 3
    for p in aug.points[:aug.n]:
        assert point_in_triangle(p, *aug.frame)


def test_augment_frame_strictly_contains():
    for seed in range(5):
        aug = augment(gen_random(5, seed))
        for p in aug.points[:aug.n]:
            assert point_in_triangle(p, *aug.frame)


def test_every_triangulation_of_s_extends_into_splus():
    # Each triangulation of S appears inside the S-to-S restriction of
    # at least one triangulation of S+.
    S = gen_random(4, 5)
    n = len(S)
    small = {frozenset(edges_of(tris)) for tris in flip_graph_states(S)}
    aug = augment(S)
    restrictions = [
        frozenset(e for e in edges_of(tris) if e[0] < n and e[1] < n)
        for tris in flip_graph_states(aug)
    ]
    for t_edges in small:
        assert any(t_edges <= r for r in restrictions)


def test_gen_convex_hull_size():
    for n in (3, 5, 9):
        ps = gen_convex(n)
        assert len(ps.convex_hull_indices()) == n


def test_gen_convex_triangle():
    assert len(gen_convex(3)) == 3


def test_gen_arc_structure():
    for n in (1, 3, 6):
        arc = gen_convex_arc_in_triangle(n)
        assert arc.n == n
        assert len(PointSet(arc.points).convex_hull_indices()) == 3


def test_gen_random_deterministic():
    a = gen_random(6, 1)
    b = gen_random(6, 1)
    assert a.points == b.points
    c = gen_random(6, 2)
    assert isinstance(c, PointSet)  # different seeds may differ


def test_gen_random_general_position():
    for seed in range(8):
        ps = gen_random(7, seed)
        PointSet(ps.points)


def test_points_roundtrip(tmp_path):
    ps = gen_random(6, 3)
    path = tmp_path / "pts.txt"
    write_points(ps, path)
    first = path.read_bytes()
    again = read_points(path)
    assert again.points == ps.points
    write_points(again, path)
    assert path.read_bytes() == first


def test_augmented_roundtrip(tmp_path):
    aug = gen_convex_arc_in_triangle(3)
    path = tmp_path / "arc.txt"
    write_points(aug, path)
    ps = read_points(path)
    back = AugmentedPointSet.from_points(ps)
    assert back.n == 3
    assert set(back.points) == set(aug.points)


def test_from_points_requires_triangular_hull():
    with pytest.raises(ValueError):
        AugmentedPointSet.from_points(gen_convex(5))


def test_gen_random_exhausted_retries(monkeypatch):
    import trichor.geometry as geom

    class Stuck:
        def __init__(self, seed):
            pass

        def below(self, bound):
            return 0

    monkeypatch.setattr(geom, "SplitMix64", Stuck)
    with pytest.raises(geom.ExhaustedRetriesError):
        geom.gen_random(3, 0)


def test_gen_random_redraws_a_collinear_candidate(monkeypatch):
    # Seed 10 is the lowest seed whose draws, for some n <= 10, include a
    # candidate collinear with two placed points; n = 4 is the smallest
    # such n at that seed.
    import trichor.geometry as geom

    collinear = []

    def watched(a, b, c):
        collinear.append(orient(a, b, c) == COLLINEAR)
        return orient(a, b, c)

    monkeypatch.setattr(geom, "orient", watched)
    assert geom.gen_random(4, 10).xy == ((61, 8), (61, 40), (44, 24), (20, 30))
    assert any(collinear)


def test_empty_point_set_rejected():
    with pytest.raises(ValueError, match="^point set must contain at least one point$"):
        PointSet([])


def test_below_rejects_an_empty_range():
    with pytest.raises(ValueError, match="^bound must be positive$"):
        SplitMix64(0).below(0)


def test_frame_needs_three_vertices():
    with pytest.raises(ValueError, match="^frame must have exactly 3 vertices$"):
        AugmentedPointSet(None, [Point(0, 0), Point(9, 0)])


def test_collinear_frame_rejected():
    with pytest.raises(CollinearTripleError, match="^points 1, 2, 3 are collinear$"):
        AugmentedPointSet(PointSet([(3, 3)]), [Point(0, 0), Point(5, 5), Point(9, 9)])


def test_base_point_outside_the_frame_rejected():
    with pytest.raises(ValueError, match="^base point 1 not strictly inside the frame$"):
        AugmentedPointSet(PointSet([(2, 2), (20, 20)]), [Point(0, 0), Point(9, 0), Point(0, 9)])


def test_clockwise_frame_reordered_to_ccw():
    a, b, c = Point(0, 0), Point(9, 0), Point(0, 9)
    assert orient(a, c, b) == CW
    P = AugmentedPointSet(PointSet([(2, 2)]), [a, c, b])
    assert P.frame == (a, b, c)
    assert orient(*P.frame) == CCW
    assert P.xy[1:] == ((0, 0), (9, 0), (0, 9))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: gen_convex(2), "need n >= 3 for a convex polygon"),
        (lambda: gen_convex_arc_in_triangle(0), "need n >= 1"),
        (lambda: gen_random(0, 0), "need n >= 1"),
    ],
    ids=["convex", "arc", "random"],
)
def test_generators_reject_too_few_points(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_augment_exhausted_retries(monkeypatch):
    import trichor.geometry as geom

    def always_collinear(base, frame):
        raise CollinearTripleError(0, 1, 2)

    monkeypatch.setattr(geom, "AugmentedPointSet", always_collinear)
    with pytest.raises(geom.ExhaustedRetriesError, match="^could not place a frame in general position$"):
        augment(PointSet([(0, 0)]))


def test_point_set_equality_is_by_points():
    ps = gen_random(5, 3)
    assert ps == PointSet(ps.xy)
    assert ps != PointSet(ps.xy[::-1])
    assert ps != ps.xy


def test_augmented_set_is_a_point_set():
    aug = gen_convex_arc_in_triangle(3)
    assert len(aug) == 6
    assert aug[0] == Point(1, 3) and aug[5] == aug.frame[2] == Point(0, 64)
    assert aug.points[: aug.n] == tuple(aug)[:3]
    assert repr(aug) == "AugmentedPointSet(n=3)"
    assert repr(PointSet(aug.points)) == "PointSet(6 points)"


def test_augmented_set_takes_pairs_and_checks_types_first():
    P = AugmentedPointSet([(2, 2)], [(0, 0), (0, 9), (9, 0)])
    assert P.xy == ((2, 2), (0, 0), (9, 0), (0, 9))
    assert P == AugmentedPointSet(PointSet([(2, 2)]), [Point(0, 0), Point(9, 0), Point(0, 9)])
    with pytest.raises(TypeError):
        AugmentedPointSet([(2.5, 2)], [(0, 0), (0, 0), (0, 0)])
