"""Property and reference tests for the geometric kernel.

The predicates, the hull rule, the one edge flip and the simplicity
check each live in one function; these tests tie every caller to it,
check each container's order-type table against coordinates, keep the
predicate modules free of inexact arithmetic, keep every module but
geometry off coordinate predicates, keep the polygon core off
coordinates, keep every recursion out of closures, keep ``Fraction``
and the per-key charger maxima out of the audit's per-state loop, keep
an audit run's ledger off the cache entries, keep the subtree census
on the flat key, off tree nodes, and keep the names removed from the
public API out of every module.
"""

import ast
import importlib
from collections import Counter
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import _strictly_inside, check_simple_by_edge_pairs, point_on_open_segment, random_star_polygon
from oracles import crosses as crosses_by_coordinates
from oracles import incircle_by_lifts
from test_enumeration import CIRCLE12, big_sets
import trichor
from trichor.enumeration import flip_graph_states
from trichor.errors import CapExceededError, NotSimpleError
from trichor.geometry import (
    Point,
    PointSet,
    augment,
    crosses,
    gen_convex_arc_in_triangle,
    gen_random,
    incircle,
    order_type,
    orient,
    point_in_triangle,
    signed_area_2x,
)
from trichor.polygons import SimplePolygon, _between, _inside
from trichor.rng import SplitMix64
from trichor.triangulation import Triangulation

SRC = Path(__file__).resolve().parent.parent / "src" / "trichor"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(big_sets(max_points=5))
def test_flip_lands_on_walk_state_and_is_an_involution(P):
    states = list(flip_graph_states(P))
    walk = set(states)
    for tris in states:
        t = Triangulation(P, tris)
        for u, v in t.flippable_edges():
            x, y = t.star[u][v], t.star[v][u]
            f = t.flip((u, v))
            assert f.triangles in walk
            f.validate()
            assert f.flip((x, y)).triangles == tris


def _assert_incircle_matches_lifts(xy):
    for u, v, x, y in product(range(len(xy)), repeat=4):
        got = incircle(xy, u, v, x, y)
        assert got == incircle_by_lifts(xy, u, v, x, y), (u, v, x, y)
        # The edge uv with apexes x and y, read from its other side.
        assert got == incircle(xy, v, u, y, x), (u, v, x, y)


@pytest.mark.parametrize("xy", [CIRCLE12, augment(gen_random(7, 148)).xy], ids=["circle-12", "n7-s148"])
def test_incircle_matches_lifted_determinant(xy):
    _assert_incircle_matches_lifts(xy)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(big_sets())
def test_incircle_matches_lifted_determinant_on_large_coordinates(P):
    _assert_incircle_matches_lifts(P.xy)


coord = st.integers(-4, 4) | st.integers(-(2**40), 2**40)
pair = st.tuples(coord, coord)


def _assert_table_matches_orient(P):
    xy, n = P.xy, len(P.xy)
    assert len(P.signs) == n
    for a, b, c in product(range(n), repeat=3):
        assert P.signs[a][b][c] == orient(xy[a], xy[b], xy[c]), (a, b, c)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(big_sets())
def test_order_type_matches_orient_on_large_coordinates(P):
    _assert_table_matches_orient(P)
    _assert_table_matches_orient(PointSet(P.points))


@pytest.mark.parametrize("n", [7, 8])
def test_order_type_matches_orient_and_crosses_matches_coordinates(n):
    P = augment(gen_random(n, 148))
    _assert_table_matches_orient(P)
    tuples = list(product(range(len(P.xy)), repeat=4))
    assert len(tuples) == {7: 10**4, 8: 11**4}[n]
    for t in tuples:
        assert crosses(P.signs, *t) == crosses_by_coordinates(P.xy, *t), t


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(pair, min_size=4, max_size=4))
def test_predicates_agree_on_points_and_pairs(xy):
    pts = [Point(x, y) for x, y in xy]
    a, b, c, d = xy
    pa, pb, pc, pd = pts
    assert orient(a, b, c) == orient(pa, pb, pc)
    assert crosses(order_type(xy), 0, 1, 2, 3) == crosses_by_coordinates(xy, 0, 1, 2, 3)
    assert order_type(xy) == order_type(pts)
    assert point_in_triangle(d, a, b, c) == point_in_triangle(pd, pa, pb, pc)
    if a != b:
        # a + (a_y - b_y, b_x - a_x) lies off the line ab: the vertex that
        # ``_between`` looks from.
        signs = order_type(xy + [(a[0] + a[1] - b[1], a[1] + b[0] - a[0])])
        on_segment = not signs[0][1][2] and _between(signs, (0, 1, 4), 2, 0, 1)
        assert on_segment == point_on_open_segment(c, a, b) == point_on_open_segment(pc, pa, pb)
    assert signed_area_2x(xy) == signed_area_2x(pts)
    assert signed_area_2x(tuple(xy)) == signed_area_2x(tuple(pts))


def _rotations(seq):
    return {tuple(seq[i:] + seq[:i]) for i in range(len(seq))}


@pytest.mark.parametrize(
    "P",
    [gen_convex_arc_in_triangle(4), augment(gen_random(5, 7)), augment(gen_random(8, 148))],
    ids=["arc4", "n5-s7", "n8-s148"],
)
def test_augmented_hull_is_the_frame(P):
    hull = list(PointSet(P.points).convex_hull_indices())
    assert P.convex_hull_indices() in _rotations(hull)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(big_sets())
def test_augmented_hull_is_the_frame_on_large_coordinates(P):
    hull = list(PointSet(P.points).convex_hull_indices())
    assert P.convex_hull_indices() in _rotations(hull)


def test_simple_polygon_accepts_what_the_edge_pair_sweep_accepts():
    rng = SplitMix64(8)
    rejected = 0
    for trial in range(4000):
        side = 3 + trial % 4
        pts = [Point(rng.below(side), rng.below(side)) for _ in range(3 + rng.below(5))]
        ccw = pts[::-1] if signed_area_2x(pts) < 0 else pts
        try:
            check_simple_by_edge_pairs(ccw)
            want = True
        except NotSimpleError:
            want = False
        try:
            SimplePolygon(pts)
            got = True
        except NotSimpleError:
            got = False
        assert got == want, pts
        rejected += not want
    assert 0 < rejected < 4000


def _bare_polygons(rng, count):
    """Random simple polygons on grids of side 3 to 41, alternately star
    polygons around the grid centre and point lists that happen to be
    simple; both have many collinear points."""
    polys = []
    while len(polys) < count:
        side = 3 + rng.below(39)
        if len(polys) % 2:
            polys.append(random_star_polygon(3 + rng.below(6), rng, span=side // 2))
            continue
        try:
            polys.append(SimplePolygon([(rng.below(side), rng.below(side)) for _ in range(3 + rng.below(4))]))
        except NotSimpleError:
            pass
    return polys


def test_inside_and_between_match_coordinates_on_bare_polygons():
    # The orientation-only ray parity (from q through cycle[0], under every
    # rotation of the cycle) and betweenness against the coordinate
    # oracles, for grid points off the boundary and every collinear triple.
    rng = SplitMix64(16)
    seen = Counter()
    for poly in _bare_polygons(rng, 400):
        xy, k, cycle = poly.xy, len(poly), range(len(poly))
        side = 2 + max(max(p) for p in xy)
        for w, a, b in product(cycle, repeat=3):
            if len({w, a, b}) == 3 and not poly.signs[a][b][w]:
                got = _between(poly.signs, cycle, w, a, b)
                assert got == point_on_open_segment(xy[w], xy[a], xy[b]), (xy, w, a, b)
                seen["between", got] += 1
        queries = {(rng.below(side + 1) - 1, rng.below(side + 1) - 1) for _ in range(40)} - set(xy)
        for q in queries:
            if any(point_on_open_segment(q, xy[i - 1], xy[i]) for i in cycle):
                continue
            signs = order_type(xy + (q,))
            want = _strictly_inside(Point(*q), poly.boundary)
            for r in cycle:
                rot = tuple(cycle[r:]) + tuple(cycle[:r])
                assert _inside(signs, rot, k) == want, (xy, q, r)
                seen["ray through a vertex"] += sum(not signs[k][rot[0]][v] for v in rot[1:])
            for a, b in product(cycle, repeat=2):
                if a != b and not signs[a][b][k]:
                    got = _between(signs, cycle, k, a, b)
                    assert got == point_on_open_segment(q, xy[a], xy[b]), (xy, q, a, b)
                    seen["between", got] += 1
            seen["inside", want] += 1
    assert min(seen.values()) > 100 and len(seen) == 5, seen


PREDICATE_MODULES = ["geometry.py", "polygons.py", "triangulation.py"]


def _inexact_nodes(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node, "float constant"
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node, "float"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node, "true division"
        elif isinstance(node, ast.Import) and any(
            a.name.split(".")[0] == "numpy" for a in node.names
        ):
            yield node, "numpy import"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            yield node, "numpy import"


@pytest.mark.parametrize("name", PREDICATE_MODULES)
def test_predicate_modules_use_exact_arithmetic(name):
    found = [
        f"{name}:{node.lineno}: {what}"
        for node, what in _inexact_nodes(ast.parse((SRC / name).read_text()))
    ]
    assert not found, found


def test_exact_arithmetic_guard_catches_each_kind():
    source = "import numpy\nfrom numpy import linalg\nx = 0.5\ny = float(1)\nz = 1 / 2\nz /= 2\n"
    kinds = sorted(what for _, what in _inexact_nodes(ast.parse(source)))
    assert kinds == sorted(
        ["numpy import", "numpy import", "float constant", "float", "true division", "true division"]
    )


# Every module decides orientations from an order type; only geometry,
# which builds the table, calls the coordinate predicates.  The package
# __init__ re-exports ``orient`` as public API and runs no code, so it is
# not scanned.
ORDER_TYPE_MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name not in ("geometry.py", "__init__.py"))
COORDINATE_PREDICATES = {"orient", "point_in_triangle"}


def _coordinate_predicate_refs(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in COORDINATE_PREDICATES:
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute) and node.attr in COORDINATE_PREDICATES:
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in COORDINATE_PREDICATES:
                    yield node.lineno, alias.name


@pytest.mark.parametrize("name", ORDER_TYPE_MODULES)
def test_flip_layers_read_the_order_type(name):
    found = [
        f"{name}:{line}: {what}"
        for line, what in _coordinate_predicate_refs(ast.parse((SRC / name).read_text()))
    ]
    assert not found, found


def test_order_type_guard_catches_each_reference():
    source = "from .geometry import orient as o\nx = orient(a, b, c)\ny = geometry.point_in_triangle(p, a, b, c)\n"
    assert sorted(_coordinate_predicate_refs(ast.parse(source))) == [
        (1, "orient"),
        (2, "orient"),
        (3, "point_in_triangle"),
    ]


# The polygon core is a function of the order type alone: no parameter,
# name, attribute or string ``xy`` inside its definitions.
POLYGON_CORE = {"is_convex", "is_diagonal", "_between", "_inside", "_in_triangle", "PolygonCounter"}


def _core_xy_refs(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in POLYGON_CORE:
            for sub in ast.walk(node):
                if "xy" in (getattr(sub, "arg", None), getattr(sub, "id", None), getattr(sub, "attr", None)) or (
                    isinstance(sub, ast.Constant) and sub.value == "xy"
                ):
                    yield sub.lineno, node.name


def test_polygon_core_reads_no_coordinates():
    tree = ast.parse((SRC / "polygons.py").read_text())
    assert POLYGON_CORE <= {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    found = [f"polygons.py:{line}: {name}" for line, name in _core_xy_refs(tree)]
    assert not found, found


def test_polygon_core_guard_catches_each_reference():
    source = (
        "def _inside(signs, xy, q):\n    pass\n"
        "class PolygonCounter:\n    __slots__ = ('xy',)\n    def count(self):\n        return self.xy\n"
        "def is_convex(signs):\n    return xy\n"
        "def outside_the_core(xy):\n    return xy.xy\n"
    )
    assert sorted(_core_xy_refs(ast.parse(source))) == [
        (1, "_inside"),
        (4, "PolygonCounter"),
        (6, "PolygonCounter"),
        (8, "is_convex"),
    ]


# A nested function that refers to its own name holds itself through its
# closure cell: every call leaves a reference cycle for the collector.
# Recursions are module functions instead.
def _self_referencing_closures(tree):
    found = set()
    for outer in ast.walk(tree):
        if isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(outer):
                if (
                    inner is not outer
                    and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and any(isinstance(n, ast.Name) and n.id == inner.name for n in ast.walk(inner))
                ):
                    found.add((inner.lineno, inner.name))
    return sorted(found)


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py")))
def test_no_closure_refers_to_itself(name):
    found = [
        f"{name}:{line}: {fn}" for line, fn in _self_referencing_closures(ast.parse((SRC / name).read_text()))
    ]
    assert not found, found


def test_closure_guard_catches_self_reference_and_passes_plain_helpers():
    source = (
        "def outer(n):\n"
        "    def helper(x):\n"
        "        return x + 1\n"
        "    def rec(k):\n"
        "        def inner():\n"
        "            return inner\n"
        "        return rec(k - 1) if k else helper(k)\n"
        "    return rec(n)\n"
        "def rec(k):\n"
        "    return rec(k - 1) if k else 0\n"
    )
    assert _self_referencing_closures(ast.parse(source)) == [(4, "rec"), (5, "inner")]


# The audit's per-state loop adds ints; the one Fraction per run is built
# after it, from the numerators summed per denominator.  Neither the name
# Fraction nor the Fraction sum ``conservation_rhs`` appears in the loop.
FRACTION_WORK = {"Fraction", "conservation_rhs"}
# Work that depends only on a 3-vint's key runs once per distinct key in a
# run, after the loop: the charger maxima are not offered in it.
PER_KEY_WORK = {"offer_chargers"}


def _tally(tree):
    """The ``_AuditContext.tally`` definition of a module tree."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and cls.name == "_AuditContext":
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "tally":
                    return fn
    raise AssertionError("no _AuditContext.tally")


def _names_in_state_loop(tree, names):
    loop = next(n for n in _tally(tree).body if isinstance(n, ast.For))
    return sorted(
        (n.lineno, getattr(n, "id", None) or n.attr)
        for n in ast.walk(loop)
        if {getattr(n, "id", None), getattr(n, "attr", None)} & names
    )


def test_audit_state_loop_names_no_fraction():
    found = _names_in_state_loop(ast.parse((SRC / "charging.py").read_text()), FRACTION_WORK)
    assert not found, [f"charging.py:{line}: {what}" for line, what in found]


def test_audit_state_loop_offers_no_chargers():
    found = _names_in_state_loop(ast.parse((SRC / "charging.py").read_text()), PER_KEY_WORK)
    assert not found, [f"charging.py:{line}: {what}" for line, what in found]


def test_fraction_guard_catches_the_state_loop_only():
    source = (
        "class _AuditContext:\n"
        "    def tally(self, stars):\n"
        "        total = Fraction(0)\n"
        "        for star in stars:\n"
        "            for p in star:\n"
        "                total += fractions.Fraction(p, 2)\n"
        "                r.offer_chargers(p, 1)\n"
        "            last = Fraction(1)\n"
        "            self.report.conservation_rhs += last\n"
        "        for e in met:\n"
        "            r.offer_chargers(e, 1)\n"
        "        return Fraction(total)\n"
    )
    tree = ast.parse(source)
    assert _names_in_state_loop(tree, FRACTION_WORK) == [
        (6, "Fraction"),
        (8, "Fraction"),
        (9, "conservation_rhs"),
    ]
    assert _names_in_state_loop(tree, PER_KEY_WORK) == [(7, "offer_chargers")]


# A run keeps its ledger in its own locals: ``tally`` assigns attributes
# of its report ``r`` only, never of a cache entry or of the context, so
# runs on one context, nested ones included, do not mix.
def _attribute_writes_in_tally(tree):
    return sorted(
        (n.lineno, f"{ast.unparse(n.value)}.{n.attr}")
        for n in ast.walk(_tally(tree))
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
        and not (isinstance(n.value, ast.Name) and n.value.id == "r")
    )


def test_tally_assigns_attributes_of_its_report_only():
    found = _attribute_writes_in_tally(ast.parse((SRC / "charging.py").read_text()))
    assert not found, [f"charging.py:{line}: {what}" for line, what in found]


def test_attribute_write_guard_catches_entry_stamps():
    source = (
        "class _AuditContext:\n"
        "    def tally(self, stars):\n"
        "        r.triangulation_count += 1\n"
        "        e.count += 1\n"
        "        e.run, e.count = run, 1\n"
        "        if e.below != run:\n"
        "            e.below = run\n"
        "        r.rules = e.rules\n"
        "    def tree_charge(self, key):\n"
        "        self.hit = key\n"
    )
    assert _attribute_writes_in_tally(ast.parse(source)) == [
        (4, "e.count"),
        (5, "e.count"),
        (5, "e.run"),
        (7, "e.below"),
    ]


# The subtree census, and every reader of it, reads the preorder ints of
# a flat flip-tree key: no tree node attribute, no decoded tree, no slot
# matching, no shape.
KEY_CENSUS = {"_census", "_slot_options", "_charge_report"}
NODE_READS = {"apex", "children", "dual", "rigid", "shape", "tree_from_key", "_slot_nodes"}


def _node_reads(tree):
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and fn.name in KEY_CENSUS:
            for sub in ast.walk(fn):
                what = getattr(sub, "attr", None) or getattr(sub, "id", None)
                if what in NODE_READS:
                    yield sub.lineno, fn.name, what


def test_key_census_reads_no_tree_nodes():
    tree = ast.parse((SRC / "charging.py").read_text())
    assert KEY_CENSUS <= {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    found = [f"charging.py:{line}: {fn} reads {what}" for line, fn, what in _node_reads(tree)]
    assert not found, found


def test_node_read_guard_catches_each_read():
    source = (
        "def _census(key):\n"
        "    return key.children, tree_from_key(key)\n"
        "def _slot_options(preorder, u, v):\n"
        "    node = next(preorder)\n"
        "    return node.apex, node.dual, node.rigid, _slot_nodes(node, ()), node.shape()\n"
        "def _encode(children, slots, key, at):\n"
        "    return children[0].apex\n"
    )
    assert sorted(_node_reads(ast.parse(source))) == [
        (2, "_census", "children"),
        (2, "_census", "tree_from_key"),
        (5, "_slot_options", "_slot_nodes"),
        (5, "_slot_options", "apex"),
        (5, "_slot_options", "dual"),
        (5, "_slot_options", "rigid"),
        (5, "_slot_options", "shape"),
    ]


# Names that README lists as removed from the public API: module-level
# names, then attributes of the classes that kept their name.
REMOVED_NAMES = {
    "charging": (
        "CoreNode", "DEFAULT_SUBTREE_CAP", "StarHole", "_PolygonCounter", "build_flip_tree_raw",
        "charge_from_tree", "check_structural_rules", "enumerate_charging_vints", "SubtreeInfo",
        "iter_subtrees",
    ),
    "errors": ("TooLargeError",),
    "geometry": ("point_on_open_segment", "segments_cross", "validate_general_position"),
    "polygons": ("BRUTE_FORCE_LIMIT", "Chord", "brute_force_count"),
    "triangulation": ("edge_apex_map", "fingerprint", "flip", "flipped", "is_flippable", "vertex_link"),
}
REMOVED_ATTRIBUTES = {
    "geometry.AugmentedPointSet": ("without", "base"),
    "triangulation.Triangulation": ("apex_map",),
    "triangulation.DegreeVector": ("interior_total",),
    "enumeration.EnumerationResult": ("fingerprints",),
    "charging.FlipTree": ("key", "subtree_count"),
    "charging.FlipTreeNode": ("face", "key"),
    "charging.RigidCore": ("from_shape", "subtree_edge_counts"),
    "charging.Vint": ("key",),
}


def test_removed_public_names_stay_removed():
    modules = [trichor] + [importlib.import_module(f"trichor.{path.stem}") for path in sorted(SRC.glob("[a-z]*.py"))]
    names = {name for group in REMOVED_NAMES.values() for name in group}
    found = [f"{mod.__name__}.{name}" for mod in modules for name in sorted(names) if hasattr(mod, name)]
    for dotted, attributes in REMOVED_ATTRIBUTES.items():
        module, cls = dotted.split(".")
        found += [f"{dotted}.{a}" for a in attributes if hasattr(getattr(trichor, module).__dict__[cls], a)]
    assert not found, found
    assert not hasattr(CapExceededError("x"), "result")


def test_an_augmented_set_builds_one_order_type(monkeypatch):
    import trichor.geometry as geometry

    ps = PointSet(augment(gen_random(5, 7)).points)
    calls = []
    real = geometry.order_type
    monkeypatch.setattr(geometry, "order_type", lambda xy: calls.append(len(xy)) or real(xy))
    geometry.AugmentedPointSet.from_points(ps)
    assert calls == [8]
    calls.clear()
    gen_convex_arc_in_triangle(5)
    assert calls == [8]


def test_an_augmented_set_is_a_point_set_compared_by_points():
    ps = gen_random(5, 7)
    assert augment(ps) == augment(ps)
    assert isinstance(augment(ps), PointSet)
