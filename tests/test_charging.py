from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import full_corpus
from oracles import (
    DownFlipOracle,
    audit_by_occurrence,
    enumerate_charging_vints,
    random_core_shape,
    reference_flip_tree,
    rules_by_walk,
    subtrees_by_brute_force,
    walk_vints,
)
from test_enumeration import big_sets
from trichor import charging
from trichor.charging import (
    BELIEVED_MAX_CHARGE,
    RigidCore,
    Vint,
    audit,
    build_flip_tree,
    charge,
    contr_minus,
    contr_plus,
    contr_plus_census,
    contr_plus_closed_form,
    flip_tree_key,
    hole_of,
    rigid_core,
    subtree_size_counts,
    support,
    tree_from_key,
)
from trichor.enumeration import FlipWalk, check_v3_recursion, enumerate_all, flip_graph_states
from trichor.errors import (
    CapExceededError,
    HasDeepEdgesError,
    InvariantError,
    NotA3VintError,
)
from trichor.geometry import (
    AugmentedPointSet,
    Point,
    PointSet,
    augment,
    gen_convex,
    gen_convex_arc_in_triangle,
    gen_random,
)
from trichor.polygons import PolygonCounter, SimplePolygon, catalan
from trichor.rng import SplitMix64
from trichor.triangulation import Triangulation, initial_triangulation, star_link, star_map

H2 = (((), ()), ((), ()))  # a level-1 branch, complete to height 3
COMPLETE_H3 = (H2, H2, H2)


def single_point_instance():
    aug = augment(PointSet([(1, 1)]))
    return aug, initial_triangulation(aug)


# --- holes and supports ---


def test_three_vint_hole_is_triangle():
    aug, t = single_point_instance()
    v = Vint(0, t)
    hole = hole_of(v)
    assert len(hole) == 3
    assert hole.xy == tuple(aug.xy[i] for i in v.link())
    assert hole.kernel_witness == aug.points[0]
    assert support(v) == 1


def test_support_of_convex_hole_attains_catalan_bound():
    # In a convex-position interior fan, holes of interior vints are
    # often convex; verify the bound and the equality condition per vint.
    P = augment(gen_random(5, 9))
    checked_convex = 0
    for tris in flip_graph_states(P):
        T = Triangulation(P, tris)
        dm = T.degree_map()
        for p in P.interior_indices():
            u = Vint(p, T)
            s = support(u)
            d = dm[p]
            assert 1 <= s <= catalan(d - 2)
            if hole_of(u).is_convex():
                assert s == catalan(d - 2)
                checked_convex += 1
            else:
                assert s < catalan(d - 2)
    assert checked_convex > 0


def test_four_vint_with_reflex_link_has_support_one():
    P = augment(gen_random(4, 8))
    found = False
    for tris in flip_graph_states(P):
        T = Triangulation(P, tris)
        for p in P.interior_indices():
            if T.degree_map()[p] == 4:
                u = Vint(p, T)
                if not hole_of(u).is_convex():
                    assert support(u) == 1
                    found = True
    assert found


# --- flip-trees ---


def test_n1_flip_tree_is_root_only():
    aug, t = single_point_instance()
    tree = build_flip_tree(Vint(0, t))
    assert tree.edge_count() == 0
    assert sum(subtree_size_counts(tree.shape())) == 1


def test_flip_tree_requires_degree_three():
    arc = gen_convex_arc_in_triangle(3)
    t = initial_triangulation(arc)
    bad = next(p for p in arc.interior_indices() if t.degree_map()[p] != 3)
    with pytest.raises(NotA3VintError):
        build_flip_tree(Vint(bad, t))


def test_flip_tree_child_limits():
    for seed in (3, 5, 11):
        P = augment(gen_random(5, seed))
        for tris in flip_graph_states(P):
            T = Triangulation(P, tris)
            dm = T.degree_map()
            for p in P.interior_indices():
                if dm[p] != 3:
                    continue
                tree = build_flip_tree(Vint(p, T))
                assert len(tree.children) <= 3
                for node in tree.nodes():
                    assert len(node.children) <= 2


def test_enumerate_charging_vints_root_only():
    aug, t = single_point_instance()
    entries = enumerate_charging_vints(Vint(0, t))
    assert len(entries) == 1
    sub, v = entries[0]
    assert sub.j == 0
    assert v.triangulation.fingerprint() == t.fingerprint()


def test_path_shaped_tree_yields_j_plus_one_vints():
    # In the arc instance, the seed 3-vint's tree is a path; a path with
    # j edges has j+1 root-containing subtrees.
    arc = gen_convex_arc_in_triangle(3)
    t = initial_triangulation(arc)
    p = next(q for q in arc.interior_indices() if t.degree_map()[q] == 3)
    tree = build_flip_tree(Vint(p, t))
    is_path = all(len(n.children) <= 1 for n in tree.nodes()) and len(tree.children) <= 1
    entries = enumerate_charging_vints(Vint(p, t))
    if is_path:
        assert len(entries) == tree.edge_count() + 1
    assert len(entries) == sum(subtree_size_counts(tree.shape()))


def test_charging_vints_are_valid_triangulations():
    P = augment(gen_random(4, 2))
    for tris in flip_graph_states(P):
        T = Triangulation(P, tris)
        for p in P.interior_indices():
            if T.degree_map()[p] != 3:
                continue
            for sub, v in enumerate_charging_vints(Vint(p, T)):
                v.triangulation.validate()
                assert v.degree == sub.degree


# --- bijections against the down-flip oracle ---


@pytest.mark.parametrize("make", [
    lambda: augment(gen_random(3, 21)),
    lambda: augment(gen_random(4, 22)),
    lambda: augment(gen_random(5, 23)),
    lambda: gen_convex_arc_in_triangle(3),
])
def test_bijection_subtrees_vs_reverse_bfs(make):
    P = make()
    oracle = DownFlipOracle(P)
    for (p, tris) in oracle.three_vints():
        v = Vint(p, oracle.objs[tris])
        got = {(p, vv.triangulation.triangles) for _, vv in enumerate_charging_vints(v)}
        assert got == oracle.chargers_of((p, tris))


@pytest.mark.parametrize("n,seed", [(4, 22), (5, 23)])
def test_support_equals_reachable_three_vints(n, seed):
    P = augment(gen_random(n, seed))
    oracle = DownFlipOracle(P)
    for u in oracle.vints():
        v = Vint(u[0], oracle.objs[u[1]])
        assert support(v) == len(oracle.reachable_three_vints(u))


def test_support_monotone_along_downflips():
    P = augment(gen_random(5, 23))
    oracle = DownFlipOracle(P)
    for u, outs in oracle.fwd.items():
        su = support(Vint(u[0], oracle.objs[u[1]]))
        for w in outs:
            assert su >= support(Vint(w[0], oracle.objs[w[1]]))


def test_rigid_core_subtrees_are_exactly_support_one():
    P = augment(gen_random(5, 9))
    for tris in flip_graph_states(P):
        T = Triangulation(P, tris)
        for p in P.interior_indices():
            if T.degree_map()[p] != 3:
                continue
            for sub, vv in enumerate_charging_vints(Vint(p, T)):
                assert (support(vv) == 1) == sub.all_rigid
                assert sub.support == support(vv)


# --- rigid cores ---


def test_rigid_core_all_or_nothing():
    aug, t = single_point_instance()
    tree = build_flip_tree(Vint(0, t))
    core = rigid_core(tree)
    assert core.m == 0  # root alone


def test_core_stats_complete_height3():
    core = RigidCore(COMPLETE_H3)
    assert (core.m, core.lambda1, core.lambda2, core.lambda3, core.nu2) == (21, 3, 6, 12, 3)
    assert contr_plus_closed_form(core) == 59
    assert contr_plus_census(core) == 59


def test_core_level_restrictions_on_extracted_cores():
    for seed in (3, 9, 14):
        P = augment(gen_random(5, seed))
        for tris in flip_graph_states(P):
            T = Triangulation(P, tris)
            for p in P.interior_indices():
                if T.degree_map()[p] != 3:
                    continue
                core = rigid_core(build_flip_tree(Vint(p, T)))
                assert core.lambda1 <= 3
                assert core.lambda2 <= 2 * core.lambda1
                assert core.lambda3 <= 2 * core.lambda2
                assert 2 * core.nu2 <= core.lambda2


def test_contr_plus_closed_form_equals_census_random_cores():
    rng = SplitMix64(2024)
    for _ in range(300):
        core = RigidCore(random_core_shape(rng))
        plus = contr_plus_closed_form(core)
        assert plus == contr_plus_census(core)
        m = core.m
        assert Fraction(plus) <= Fraction(13 + 9 * m, 2)
        assert contr_minus(core) <= min(0, 14 - 3 * m)


def test_contr_minus_small_cores():
    # m <= 4: no subtree has 5 edges.
    core = RigidCore((((((),),),),))
    assert core.m == 4
    assert contr_minus(core) == 0
    # m = 5: the whole core is the only 5-edge subtree.
    core5 = RigidCore((((((),),),), ()))
    assert core5.m == 5
    assert contr_minus(core5) == -1
    # m = 6 with exactly two leaves: -2 - 2 = -4 = 14 - 3*6.
    core6 = RigidCore((((((),),),), ((),)))
    assert core6.m == 6
    assert contr_minus(core6) == -4


def test_contr_plus_deep_core_falls_back_to_census():
    deep = RigidCore((((((),),),),))  # levels 1..4
    assert deep.max_level == 4
    with pytest.raises(HasDeepEdgesError):
        contr_plus_closed_form(deep)
    assert contr_plus(deep) == contr_plus_census(deep)


def test_core_rejects_too_many_children():
    with pytest.raises(ValueError):
        RigidCore(((), (), (), ()))
    with pytest.raises(ValueError):
        RigidCore((((), (), ()),))


def test_subtree_cap_enforced(monkeypatch):
    aug, t = single_point_instance()
    monkeypatch.setattr(charging, "SUBTREE_CAP", 10)
    assert len(charge(Vint(0, t)).contributions) == 1
    monkeypatch.setattr(charging, "SUBTREE_CAP", 0)
    with pytest.raises(CapExceededError):
        charge(Vint(0, t))


# --- charges ---


def test_isolated_three_vint_charges_four():
    aug, t = single_point_instance()
    rep = charge(Vint(0, t))
    assert rep.total == 4
    assert [c.degree for c in rep.contributions] == [3]
    assert rep.contributions[0].amount == 4


def test_simplified_worst_case_positive_part_is_59():
    # Full support-1 tree up to the 6-vints: 4*1 + 3*3 + 2*9 + 1*28.
    counts = subtree_size_counts(RigidCore(COMPLETE_H3).shape)
    assert counts[:4] == [1, 3, 9, 28]
    assert sum((4 - j) * c for j, c in enumerate(counts[:4])) == 59


def test_charge_report_contributions_ordered_and_exact():
    P = augment(gen_random(5, 9))
    for tris in flip_graph_states(P):
        T = Triangulation(P, tris)
        for p in P.interior_indices():
            if T.degree_map()[p] != 3:
                continue
            rep = charge(Vint(p, T))
            keys = [(c.j, c.dual_edges) for c in rep.contributions]
            assert keys == sorted(keys)
            assert rep.total == sum(c.amount for c in rep.contributions)
            assert rep.contributions[0].amount == 4
            # the charge equals the sum over chargers of (7-i)/supp
            recomputed = sum(
                Fraction(7 - vv.degree, support(vv))
                for _, vv in enumerate_charging_vints(Vint(p, T))
            )
            assert rep.total == recomputed
        break  # one triangulation suffices for the expensive recompute


# --- audits ---


def test_audit_single_point():
    aug, _ = single_point_instance()
    rep = audit(aug)
    assert rep.triangulation_count == 1
    assert rep.conservation_lhs == 4
    assert rep.conservation_rhs == 4
    assert rep.max_charge == 4
    assert rep.ok


def test_audit_arc4():
    rep = audit(gen_convex_arc_in_triangle(4))
    assert rep.conservation_ok
    assert rep.max_charge < 30
    assert rep.ok, rep.violations
    assert rep.charger_count_max.get(4, 0) <= 3
    assert rep.charger_count_max.get(5, 0) <= 9
    assert rep.charger_count_max.get(6, 0) <= 28


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_audit_random_instances(seed):
    rep = audit(augment(gen_random(5, seed)))
    assert rep.conservation_ok
    assert rep.max_charge < 30
    assert rep.ok, rep.violations
    assert not rep.exceeds_believed_max or rep.max_charge > BELIEVED_MAX_CHARGE


def test_audit_parallel_matches_sequential():
    P = augment(gen_random(5, 4))
    a = audit(P, jobs=1)
    b = audit(P, jobs=2)
    assert a.to_json_dict() == b.to_json_dict()


@pytest.mark.parametrize(
    "P, states, ties",
    [(augment(gen_convex(7)), 594, 4), (augment(gen_random(7, 310)), 1298, 8)],
    ids=["convex7", "n7-s310"],
)
def test_audit_max_charge_tie_rule_across_chunks(P, states, ties):
    # jobs=2 merges the parent's tallies with those of many subtrees.
    charges = []
    for tris in flip_graph_states(P):
        t = Triangulation(P, tris)
        deg = t.degree_map()
        for p in P.interior_indices():
            if deg[p] == 3:
                charges.append((charge(Vint(p, t)).total, t.fingerprint(), p))
    top = max(c for c, _, _ in charges)
    tied = sorted((fp, p) for c, fp, p in charges if c == top)
    assert len(tied) == ties
    for jobs in (1, 2):
        rep = audit(P, jobs=jobs)
        assert rep.triangulation_count == states
        assert (rep.max_charge, rep.max_charge_at) == (top, tied[0])


MERGE_INSTANCES = {"convex7": lambda: augment(gen_convex(7)), "n6-s14": lambda: augment(gen_random(6, 14))}


@cache
def merge_instance(name):
    """The instance, its states and one tally of all of them."""
    P = MERGE_INSTANCES[name]()
    states = list(flip_graph_states(P))
    return P, states, charging._AuditContext(P, rules=True).tally(map(star_map, states))


@pytest.mark.parametrize("name", sorted(MERGE_INSTANCES))
@settings(max_examples=6, deadline=None, derandomize=True)
@given(data=st.data())
def test_audit_report_merge_equals_one_tally(name, data):
    # convex7 has 4 tied maxima, so the tie rule decides across pieces.
    P, states, whole = merge_instance(name)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(states)), max_size=5)))
    bounds = [0, *cuts, len(states)]
    ctx = charging._AuditContext(P, rules=True)
    merged = ctx.tally([])
    for lo, hi in zip(bounds, bounds[1:]):
        merged.merge(ctx.tally(map(star_map, states[lo:hi])))
    assert merged.to_json_dict() == whole.to_json_dict()
    assert merged.rules == whole.rules
    assert merged.degree_totals == whole.degree_totals
    assert merged.max_charge_at == whole.max_charge_at


def test_sharded_violations_equal_sequential(monkeypatch):
    # With a hard bound of 0 every 3-vint occurrence is a violation that
    # names its triangulation, so the list fixes the order of the states.
    P = augment(gen_random(7, 148))
    walk = FlipWalk(P)
    roots = sum(len(walk.trail) == charging.SPLIT_DEPTH for _ in walk.walk(limit=charging.SPLIT_DEPTH))
    assert roots >= 10
    monkeypatch.setattr(charging, "HARD_CHARGE_BOUND", 0)
    one, two = audit(P, jobs=1), audit(P, jobs=2)
    assert len(one.violations) == one.three_vint_count > 0
    assert two.violations == one.violations


def test_nested_tally_runs_keep_their_own_ledgers():
    # A run started inside another run's input on the same context: each
    # run counts its own occurrences and writes nothing to the shared
    # cache entries, so both equal a fresh context's run.
    P = augment(gen_random(6, 148))
    stars = [star_map(tris) for tris in flip_graph_states(P)]
    ctx = charging._AuditContext(P, rules=True)
    inner = []

    def outer_input():
        for i, star in enumerate(stars):
            if i == len(stars) // 2:
                inner.append(ctx.tally(stars))
            yield star

    outer = ctx.tally(outer_input())
    fresh = charging._AuditContext(P, rules=True).tally(stars)
    assert len(inner) == 1
    for rep in (outer, *inner):
        assert rep.to_json_dict() == fresh.to_json_dict()
        assert rep.rules == fresh.rules
        assert rep.conservation_rhs == fresh.conservation_rhs == 4665


def _single_point_star():
    """The single-point instance, its frame vertex f and a copy of its
    one star map, free to corrupt."""
    aug, t = single_point_instance()
    return aug, aug.frame_indices()[0], {q: dict(succ) for q, succ in t.star.items()}


def test_degree_identity_violation_is_reported():
    # An extra successor entry at a frame vertex raises the degree sum
    # from 6n + 6 = 12 to 13 and leaves the interior sum alone.
    aug, f, star = _single_point_star()
    star[f][-1] = -1
    rep = charging._AuditContext(aug, rules=False).tally([star])
    assert rep.violations == ["degree identity violated: 13 != 12"]


def test_interior_degree_sum_violation_is_reported():
    # An entry moved from a frame vertex to the interior point keeps the
    # degree identity and lifts the interior sum to 4 > 6n - 3 = 3.
    aug, f, star = _single_point_star()
    del star[f][min(star[f])]
    star[0][-1] = -1
    rep = charging._AuditContext(aug, rules=False).tally([star])
    assert rep.violations == ["interior degree sum exceeds 6n - 3"]


def test_census_and_audit_leave_no_reference_cycles():
    import gc

    P = augment(gen_random(6, 14))
    t = initial_triangulation(P)
    p = next(q for q in P.interior_indices() if t.degree_map()[q] == 3)
    v = Vint(p, t)
    tree = build_flip_tree(v)
    gc.collect()
    gc.disable()
    try:
        charge(v)
        rigid_core(tree)
        tree.to_dot()
        audit(P)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_audit_requires_augmented():
    with pytest.raises(TypeError):
        audit(gen_convex(5))


# --- structural rules ---


def test_rules_vacuous_on_single_point():
    aug, _ = single_point_instance()
    rep = audit(aug, rules=True).rules
    assert rep.ok
    assert rep.support_checked == 1
    assert rep.rule1_checked == 0


@pytest.mark.parametrize("seed", [1, 7, 13])
def test_rules_hold_on_random_instances(seed):
    rep = audit(augment(gen_random(5, seed)), rules=True).rules
    assert rep.ok, rep.violations
    assert rep.support_checked > 0
    assert rep.monotone_checked > 0


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "P",
    [
        gen_convex_arc_in_triangle(4),
        augment(gen_random(5, 7)),
        augment(gen_random(6, 14)),
    ],
    ids=["arc4", "n5-s7", "n6-s14"],
)
def test_fused_sweep_equals_separate_sweeps(P, jobs):
    rep = audit(P, jobs=jobs, rules=True)
    assert rep.rules == rules_by_walk(P)
    assert rep.degree_totals == enumerate_all(P).degree_totals
    assert rep.to_json_dict() == audit(P).to_json_dict()
    v3 = check_v3_recursion(P, lhs=rep.degree_totals.get(3, 0))
    assert v3 == check_v3_recursion(P, lhs=enumerate_all(P).degree_totals.get(3, 0))


def test_rule_violations_repeat_at_every_occurrence(monkeypatch):
    # Rule results are memoised per flip-tree and per (point, link), so
    # every convex hole reports the forced mismatch at each occurrence.
    # convex7 has 594 states, so jobs=2 merges many subtrees.
    P = augment(gen_convex(7))
    convex = sum(hole_of(v).is_convex() for v in walk_vints(P))
    monkeypatch.setattr(charging, "is_convex", lambda signs, cycle: False)
    seq = audit(P, rules=True).rules.violations
    assert len(seq) == convex > 0
    assert all("convexity mismatch" in v for v in seq)
    assert audit(P, jobs=2, rules=True).rules.violations == seq
    monkeypatch.setattr(SimplePolygon, "is_convex", lambda self: False)
    assert rules_by_walk(P).violations == seq


def test_fused_sweep_exercises_rule1():
    assert audit(augment(gen_random(6, 14)), rules=True).rules.rule1_checked == 33


def test_rule1_exercised_somewhere():
    total = 0
    for seed in (3, 9, 14, 20):
        rep = audit(augment(gen_random(6, seed)), rules=True).rules
        assert rep.ok, rep.violations
        total += rep.rule1_checked
    assert total > 0


# --- internal invariants ---


def test_flip_tree_face_revisit_raises_invariant_error():
    # Growth marks each face it enters and raises on entering one twice.
    # Under a table whose sign at (x, y, z) is z itself, u and v always lie
    # on opposite sides of pq, so every slot with a far face grows into it
    # and the walk across the triangulation comes back to a face.
    P = gen_convex_arc_in_triangle(4)
    t = initial_triangulation(P)
    p = next(q for q in P.interior_indices() if t.degree_map()[q] == 3)
    flip_tree_key(P.signs, t.star, p)
    N = len(P.xy)
    every_slot_grows = [[list(range(N))] * N] * N
    with pytest.raises(InvariantError, match="revisited a face"):
        flip_tree_key(every_slot_grows, t.star, p)


# --- flat flip-tree keys ---

KEY_INSTANCES = dict(
    [(name, P) for name, P in full_corpus() if P.n <= 6] + [("random-n7-s148", augment(gen_random(7, 148)))]
)


@cache
def keyed_occurrences(name):
    """(flat key, reference tree) for every 3-vint of every state."""
    P = KEY_INSTANCES[name]
    out = []
    for tris in flip_graph_states(P):
        star = star_map(tris)
        for p in P.interior_indices():
            if len(star[p]) == 3:
                out.append((flip_tree_key(P.signs, star, p), reference_flip_tree(P.xy, star, p)))
    return out


def test_flip_tree_keys_decode_to_reference_trees_and_split_like_them():
    classes = {}
    for name in KEY_INSTANCES:
        pairs = keyed_occurrences(name)
        for key, ref in pairs:
            assert tree_from_key(key) == ref
        # Keys and trees give the same partition iff they pair up one to one.
        keys, trees = {k for k, _ in pairs}, {t for _, t in pairs}
        assert len(keys) == len(trees) == len(set(pairs))
        classes[name] = len(keys)
    assert classes["random-n7-s148"] == 487


def test_audit_grows_every_key_and_decodes_no_tree(monkeypatch):
    # Pricing and rule 1 both read the flat key: with rules on, the audit
    # grows one key per 3-vint occurrence and decodes no tree at all.
    grown = []

    def grow(signs, star, p):
        grown.append(flip_tree_key(signs, star, p))
        return grown[-1]

    def decode(key):
        raise AssertionError("tree decoded by the audit")

    monkeypatch.setattr(charging, "flip_tree_key", grow)
    monkeypatch.setattr(charging, "tree_from_key", decode)
    rep = audit(KEY_INSTANCES["random-n7-s148"], rules=True)
    assert len(grown) == rep.three_vint_count
    assert len(set(grown)) == 487
    assert rep.rules.rule1_checked > 0


def _rule1_by_tree(tree, signs):
    """Rule 1 over a decoded FlipTree, as the audit read it before keys."""
    checked, violations = 0, []
    for node in tree.nodes():
        kids = node.children
        if node.level <= 2 and node.rigid and len(kids) == 2 and not any(k.rigid for k in kids):
            checked += 1
            if all(charging.crosses(signs, node.opp, k.apex, *node.dual) for k in kids):
                violations.append(f"both children of a rigid edge can free it at point {tree.point}")
    return checked, violations


def _distinct_keys(P):
    return {
        flip_tree_key(P.signs, star, p)
        for star in FlipWalk(P).walk()
        for p in P.interior_indices()
        if len(star[p]) == 3
    }


def test_rule1_from_the_key_equals_rule1_from_the_tree(monkeypatch):
    # The key reader and the decoded tree agree on every distinct key, on
    # the count and, with every candidate forced to violate, the strings.
    # A 3-vint's link rules (a triangle's) add no check and no violation.
    instances = [*KEY_INSTANCES.values(), augment(gen_convex(7))]
    keys = [(P, key) for P in instances for key in sorted(_distinct_keys(P))]
    counter = {id(P): PolygonCounter(P.signs) for P in instances}

    def by_key(P, key):
        assert charging._link_rules(key[0], key[1:4], counter[id(P)]) == (0, ())
        (a, b, c), found, i = key[1:4], [], 4
        for u, v, opp in ((a, b, c), (b, c, a), (c, a, b)):
            i = charging._rule1(key, P.signs, i, u, v, opp, 1, found)
        assert i == len(key)
        return len(found), [f"both children of a rigid edge can free it at point {key[0]}"] * sum(found)

    def priced(P, ctx, key):
        e = ctx[id(P)].tree_charge(key)
        return e.rule1, list(e.rules)

    ctx = {id(P): charging._AuditContext(P, rules=True) for P in instances}
    assert sum(_rule1_by_tree(tree_from_key(key), P.signs)[0] > 0 for P, key in keys) > 20
    for P, key in keys:
        assert by_key(P, key) == priced(P, ctx, key) == _rule1_by_tree(tree_from_key(key), P.signs)
    monkeypatch.setattr(charging, "crosses", lambda signs, a, b, c, d: True)
    ctx = {id(P): charging._AuditContext(P, rules=True) for P in instances}
    forced = 0
    for P, key in keys:
        got, ref = by_key(P, key), _rule1_by_tree(tree_from_key(key), P.signs)
        assert got == priced(P, ctx, key) == ref and len(ref[1]) == ref[0]
        forced += ref[0]
    assert forced > 20


@pytest.mark.parametrize("jobs", [1, 2])
def test_forced_rule1_violations_follow_the_walk(monkeypatch, jobs):
    # Every rule-1 candidate violates: the audit reads rule 1 once per key
    # and still repeats it at each occurrence, in walk order, as the
    # oracle does one vint at a time from build_flip_tree.
    import oracles

    P = augment(gen_random(6, 14))
    monkeypatch.setattr(charging, "crosses", lambda signs, a, b, c, d: True)
    monkeypatch.setattr(oracles, "crosses", lambda xy, a, b, c, d: True)
    ref = rules_by_walk(P)
    got = audit(P, jobs=jobs, rules=True).rules
    assert got == ref
    assert len(got.violations) == got.rule1_checked == 33


def test_broken_link_is_never_memoised():
    # Point 0's successor map splits into two 3-cycles in copies of some
    # states (ones where no flip-tree key reads the changed entries). Each
    # copy follows its source state, so its probe hits the entry of the
    # same neighbour set with a different map. The run reports it at each
    # such occurrence, never stores it, keeps the valid entry, and leaves
    # the valid states' counters as a fresh context finds them.
    P, p = KEY_INSTANCES["random-n7-s148"], 0
    states = [{q: dict(succ) for q, succ in star.items()} for star in FlipWalk(P).walk()]
    valid = [s for s in states if len(s[p]) == 6]
    assert len({tuple(star_link(s, p)) for s in valid}) > 1

    def keys(star):
        return [flip_tree_key(P.signs, star, q) for q in P.interior_indices() if len(star[q]) == 3]

    sources, broken = [], []
    for s in valid:
        a, b, c, d, e, f = star_link(s, p)
        bad = {**s, p: {a: b, b: c, c: a, d: e, e: f, f: d}}
        if keys(bad) == keys(s):
            sources.append(s)
            broken.append(bad)
    assert len(broken) >= 3
    ok = [sources[0], *valid[:4], sources[1], sources[2]]
    run = [sources[0], broken[0], *valid[:4], sources[1], broken[1], sources[2], broken[2]]
    ctx = charging._AuditContext(P, rules=True)
    rep = ctx.tally(run).rules
    assert rep.violations.count(f"point {p} link is not a single cycle") == 3
    assert rep.support_checked == len(run) * P.n - 3
    for src, bad in zip(sources[:3], broken):
        assert ctx.links[p][frozenset(bad[p])][0] == src[p] != bad[p]
    for q, entries in ctx.links.items():
        for nbrs, (succ, _, _) in entries.items():
            assert frozenset(succ) == nbrs and star_link({q: succ}, q) is not None
    fresh = charging._AuditContext(P, rules=True).tally(ok)
    again = ctx.tally(ok)
    assert again.rules == fresh.rules
    assert again.to_json_dict() == fresh.to_json_dict()


@pytest.mark.parametrize("n, links", [(7, 351), (8, 809)])
def test_star_link_runs_once_per_distinct_link(monkeypatch, n, links):
    # links[p] is the one memo for larger vints: star_link runs once per
    # distinct (point, link) that the walk meets, and the memo holds one
    # entry for each.
    P = augment(gen_random(n, 148))
    met = {
        (p, tuple(star_link(star, p)))
        for star in FlipWalk(P).walk()
        for p in P.interior_indices()
        if len(star[p]) != 3
    }
    assert len(met) == links
    calls, contexts = [], []

    def counted(star, p):
        calls.append(p)
        return star_link(star, p)

    class Recorded(charging._AuditContext):
        def __init__(self, *args):
            super().__init__(*args)
            contexts.append(self)

    monkeypatch.setattr(charging, "star_link", counted)
    monkeypatch.setattr(charging, "_AuditContext", Recorded)
    rep = audit(P, jobs=1, rules=True)
    (ctx,) = contexts
    assert len(calls) == links
    assert sum(map(len, ctx.links.values())) == links
    assert rep.rules.support_checked == rep.triangulation_count * P.n


def test_audit_census_agrees_with_charge_from_tree():
    # The audit's lean pricing agrees with the itemised report, and the
    # report with a brute force over the reference tree's node sets.
    for name, P in KEY_INSTANCES.items():
        ctx = charging._AuditContext(P, rules=False)
        counter = PolygonCounter(P.signs)
        seen = set()
        for tris in flip_graph_states(P):
            T = Triangulation(P, tris)
            for p in P.interior_indices():
                if T.degree_map()[p] != 3 or (key := flip_tree_key(P.signs, T.star, p)) in seen:
                    continue
                seen.add(key)
                priced = ctx.tree_charge(key)
                rep = charging._charge_report(key, counter)
                assert priced.total == rep.total
                degrees = rep.degree_counts()
                assert priced.chargers == tuple(degrees.get(d, 0) for d in range(3, max(degrees) + 1))
                assert rep.contributions == charge(Vint(p, T)).contributions
                ref = reference_flip_tree(P.xy, T.star, p)
                found = sorted((c.j, c.dual_edges, c.all_rigid) for c in rep.contributions)
                assert found == subtrees_by_brute_force(ref)
                # Enumerating agrees with counting, and a chosen position holds an apex.
                census = list(charging._census(key))
                js = [len(chosen) for _, chosen in census]
                assert [js.count(j) for j in range(max(js) + 1)] == subtree_size_counts(ref.shape())
                assert all(key[i] >= 0 and key[i + 1] in (0, 1) for _, chosen in census for i, _, _ in chosen)
        assert len(ctx.charge_cache) == len(seen) == len(dict(keyed_occurrences(name)))
        assert all(type(x) is int for k in ctx.charge_cache for x in k)


@cache
def occurrence_audit(name):
    return audit_by_occurrence(KEY_INSTANCES[name])


@pytest.mark.parametrize("jobs", [1, 2])
def test_audit_equals_charge_per_occurrence(jobs):
    # The audit does per-key work once per distinct key in a run; the
    # oracle prices and compares every occurrence on its own.
    for name, P in KEY_INSTANCES.items():
        ref, rep = occurrence_audit(name), audit(P, jobs=jobs)
        assert rep.to_json_dict() == ref.to_json_dict(), name
        assert rep.degree_totals == ref.degree_totals
        assert rep.conservation_rhs == ref.conservation_rhs
        assert rep.charger_count_max == ref.charger_count_max


def test_per_occurrence_violations_follow_the_walk(monkeypatch):
    # Both kinds fire on some occurrences of a key and the strings name
    # each occurrence, so the list fixes the walk order of the 3-vints.
    P = KEY_INSTANCES["random-n7-s148"]
    monkeypatch.setattr(charging, "HARD_CHARGE_BOUND", 10)
    monkeypatch.setattr(charging, "charger_bound", lambda degree: 3)
    ref = audit_by_occurrence(P, hard_bound=10, charger_bound=lambda degree: 3)
    hard = sum(v.startswith("charge ") for v in ref.violations)
    assert 0 < hard < occurrence_audit("random-n7-s148").three_vint_count
    assert 0 < len(ref.violations) - hard
    for jobs in (1, 2):
        assert audit(P, jobs=jobs).violations == ref.violations


def _not_a_3vint(case):
    """(star map, point) of a ``flip_tree_key`` call that must raise."""
    P = KEY_INSTANCES["random-n7-s148"]
    for tris in flip_graph_states(P):
        star = star_map(tris)
        degrees = {p: len(star[p]) for p in P.interior_indices()}
        if {3, 4} <= set(degrees.values()):
            break
    if case == "frame vertex":
        return star, P.frame_indices()[0]
    if case == "degree 4":
        return star, min(p for p, d in degrees.items() if d == 4)
    if case == "absent index":
        return star, len(P.xy)
    # Three neighbours that do not close into a cycle: c leads back to b.
    p = min(p for p, d in degrees.items() if d == 3)
    a, b, c = star_link(star, p)
    star = {x: dict(succ) for x, succ in star.items()}
    star[p][c] = b
    return star, p


@pytest.mark.parametrize(
    "case, message",
    [("frame vertex", "is not interior"), ("degree 4", "has degree 4"),
     ("absent index", "is not interior"), ("broken 3-link", "is not interior")],
)
def test_flip_tree_key_errors_match_the_reference(case, message):
    P = KEY_INSTANCES["random-n7-s148"]
    star, p = _not_a_3vint(case)
    with pytest.raises(NotA3VintError) as ref:
        reference_flip_tree(P.xy, star, p)
    with pytest.raises(NotA3VintError) as got:
        flip_tree_key(P.signs, star, p)
    assert str(got.value) == str(ref.value) == f"point {p} {message}"


def test_audit_without_rules_decodes_no_tree(monkeypatch):
    P = KEY_INSTANCES["random-n7-s148"]
    with_rules = audit(P, rules=True)

    def decode(key):
        raise AssertionError("tree decoded without rules")

    monkeypatch.setattr(charging, "tree_from_key", decode)
    plain = audit(P)
    assert plain.rules is None
    assert plain.to_json_dict() == with_rules.to_json_dict()
    assert plain.degree_totals == with_rules.degree_totals
    assert plain.conservation_rhs == with_rules.conservation_rhs


def test_census_checks_the_cap_before_yielding(monkeypatch):
    key = max(dict(keyed_occurrences("random-n7-s148")), key=lambda k: len(list(charging._census(k))))
    total = len(list(charging._census(key)))
    assert total > 2
    monkeypatch.setattr(charging, "SUBTREE_CAP", total - 1)
    # The call raises; no iteration is needed to see the cap.
    with pytest.raises(CapExceededError, match=f"flip-tree has {total} subtrees"):
        charging._census(key)
    monkeypatch.setattr(charging, "SUBTREE_CAP", total)
    assert len(list(charging._census(key))) == total


def test_invariant_error_pickles():
    import pickle

    err = pickle.loads(pickle.dumps(InvariantError("face revisited")))
    assert isinstance(err, InvariantError)
    assert str(err) == "face revisited"


# --- DOT export ---


def test_dot_export_structure():
    P = augment(gen_random(5, 9))
    t = initial_triangulation(P)
    p = next(q for q in P.interior_indices() if t.degree_map()[q] == 3)
    tree = build_flip_tree(Vint(p, t))
    dot = tree.to_dot()
    assert dot.startswith("digraph")
    assert dot.count("->") == tree.edge_count()
    assert dot.count("[label=") == tree.edge_count() + 1
    assert dot.rstrip().endswith("}")
    for node in tree.nodes():
        style = "solid" if node.rigid else "dashed"
        assert style in dot


def test_charges_invariant_under_coordinate_scaling():
    P = augment(gen_random(4, 6))
    scale = 10**9
    big = AugmentedPointSet(
        PointSet([Point(p.x * scale, p.y * scale) for p in P.points[:P.n]]),
        [Point(p.x * scale, p.y * scale) for p in P.frame],
    )
    a, b = audit(P), audit(big)
    assert a.max_charge == b.max_charge
    assert a.conservation_lhs == b.conservation_lhs
    assert a.conservation_rhs == b.conservation_rhs


def test_audit_subtree_cap_propagates(monkeypatch):
    P = augment(gen_random(5, 9))
    monkeypatch.setattr(charging, "SUBTREE_CAP", 1)
    with pytest.raises(CapExceededError):
        audit(P)


def test_pessimistic_bound_of_m5_core_is_43():
    # The worst m=5 core without level-4 edges: three level-1 edges, one
    # of which carries two children.  Census: one 3-vint, three 4-vints,
    # five 5-vints, six 6-vints, four 7-vints, one 8-vint.  Assuming
    # support 2 for every positively-charging vint outside the core and
    # ignoring negative vints outside it bounds the total by
    # contr+ + (59 - contr+)/2 + contr-.
    core = RigidCore((((), ()), (), ()))
    assert subtree_size_counts(core.shape) == [1, 3, 5, 6, 4, 1]
    plus, minus = contr_plus(core), contr_minus(core)
    assert (plus, minus) == (29, -1)
    assert plus + Fraction(59 - plus, 2) + minus == 43


def test_conjectured_ceiling_decomposition():
    # The believed worst case splits into a rigid-core part of 28 and
    # seven chargers through one non-rigid edge with supports
    # 3, 4, 4, 8, 8, 7, 12 at degrees 5, 6, 6, 8, 8, 8, 9.
    core_part = Fraction(4 * 1 + 3 * 3 + 2 * 5 + 1 * 6 - 1 * 1)
    extra = sum(
        Fraction(7 - degree, supp)
        for degree, supp in [(5, 3), (6, 4), (6, 4), (8, 8), (8, 8), (8, 7), (9, 12)]
    )
    assert core_part == 28
    assert core_part + extra == BELIEVED_MAX_CHARGE == Fraction(801, 28)


def test_vint_rejects_frame_vertex():
    aug, t = single_point_instance()
    with pytest.raises(ValueError):
        Vint(aug.frame_indices()[0], t)


def test_audit_rhs_matches_direct_charge_sum():
    # The audit caches charge computations by flip-tree shape; the sum
    # must equal a cache-free recomputation through the public API.
    P = augment(gen_random(4, 5))
    rep = audit(P)
    total = Fraction(0)
    for tris in flip_graph_states(P):
        T = Triangulation(P, tris)
        for p in P.interior_indices():
            if T.degree_map()[p] == 3:
                total += charge(Vint(p, T)).total
    assert total == rep.conservation_rhs


@settings(max_examples=20, deadline=None, derandomize=True)
@given(big_sets(max_points=5))
def test_audit_jobs_agree_on_large_coordinates(P):
    one, two = audit(P, jobs=1, rules=True), audit(P, jobs=2, rules=True)
    assert two.to_json_dict() == one.to_json_dict()
    assert two.rules == one.rules
    assert two.degree_totals == one.degree_totals


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    big_sets(max_points=5),
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.integers(-(2**40), 2**40),
    st.integers(-(2**40), 2**40),
)
def test_audit_invariant_under_unimodular_shear(P, k1, k2, dx, dy):
    # The shear ((1 + k1*k2, k1), (k2, 1)) has determinant 1, so it keeps
    # every orientation sign (the same order-type table); with the labels
    # kept, the report depends only on the order type.  (The walk order
    # follows the Delaunay test, which a shear changes; with no
    # violations no field of the report shows it.)
    def image(p):
        return Point((1 + k1 * k2) * p.x + k1 * p.y + dx, k2 * p.x + p.y + dy)

    Q = AugmentedPointSet(PointSet([image(p) for p in P.points[:P.n]]), [image(p) for p in P.frame])
    assert Q.signs == P.signs
    one, two = audit(P, rules=True), audit(Q, rules=True)
    assert two.to_json_dict() == one.to_json_dict()
    assert two.rules == one.rules
    assert two.degree_totals == one.degree_totals


@settings(max_examples=100, deadline=None, derandomize=True)
@given(big_sets(max_points=5))
def test_charge_conservation_on_large_coordinates(P):
    rep = audit(P)
    totals = enumerate_all(P).degree_totals
    assert rep.conservation_lhs == sum((7 - d) * c for d, c in totals.items())
    charges = [charge(v).total for v in walk_vints(P) if v.degree == 3]
    assert rep.conservation_rhs == sum(charges)
    assert rep.max_charge == max(charges, default=0)
    assert rep.conservation_rhs == rep.conservation_lhs


def test_conservation_crosses_triangulations():
    # The nested-triangles instance admits triangulations with no 3-vint
    # at all; their vints still charge 3-vints of other triangulations,
    # and the global balance stays exact.
    base = PointSet(
        [(0, 100), (-87, -50), (87, -50), (0, -40), (-35, 20), (35, 20)]
    )
    P = augment(base)
    rep = audit(P)
    assert rep.conservation_ok
    assert rep.ok, rep.violations
    no3 = sum(
        1
        for tris in flip_graph_states(P)
        if all(
            Triangulation(P, tris).degree_map()[p] != 3
            for p in P.interior_indices()
        )
    )
    assert no3 > 0


def test_audit_frame_only_instance():
    from trichor.geometry import AugmentedPointSet

    P = AugmentedPointSet.from_points(PointSet([(0, 0), (9, 0), (0, 9)]))
    rep = audit(P)
    assert rep.triangulation_count == 1
    assert rep.conservation_lhs == 0
    assert rep.conservation_rhs == 0
    assert rep.max_charge == 0
    assert rep.ok


def test_rigid_core_is_maximal_rigid_subtree():
    # Every core edge is rigid, and every rigid tree edge whose whole
    # ancestor chain is rigid appears in the core (same level census).
    # The n=7 instance has cores whose branches differ, so the order of
    # a core's children is checked too.
    def rigid_census(nodes):
        total = 0
        for n_ in nodes:
            if n_.rigid:
                total += 1 + rigid_census(n_.children)
        return total

    def rigid_part(nodes):
        return tuple(rigid_part(n_.children) for n_ in nodes if n_.rigid)

    stats = ("m", "lambda1", "lambda2", "lambda3", "nu2", "max_level")
    for P in (augment(gen_random(6, 14)), augment(gen_random(7, 148))):
        checked = 0
        for tris in flip_graph_states(P):
            T = Triangulation(P, tris)
            for p in P.interior_indices():
                if T.degree_map()[p] != 3:
                    continue
                tree = build_flip_tree(Vint(p, T))
                core = rigid_core(tree)
                assert core.m == rigid_census(tree.children)
                # The whole core: the all-rigid pruning of the reference tree.
                shape = rigid_part(reference_flip_tree(P.xy, T.star, p).children)
                assert core.shape == shape
                ref = RigidCore(shape)
                assert [getattr(core, s) for s in stats] == [getattr(ref, s) for s in stats]
                checked += 1
            if checked > 60:
                break
        assert checked > 0
