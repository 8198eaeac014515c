"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  Several criteria share the session-scoped audited
corpus (convex sets, convex arcs, and 50 random sets with n <= 8).
"""

import time
from fractions import Fraction

from conftest import BIJECTION_INSTANCES
from oracles import (
    DownFlipOracle,
    count_by_interval_dp,
    enumerate_charging_vints,
    random_core_shape,
    random_star_polygon,
)
from trichor.bounds import derived_bounds
from trichor.charging import (
    BELIEVED_MAX_CHARGE,
    RigidCore,
    Vint,
    audit,
    contr_minus,
    contr_plus_census,
    contr_plus_closed_form,
    support,
)
from trichor.enumeration import check_v3_recursion, enumerate_all, flip_graph_states
from trichor.geometry import augment, gen_convex, gen_convex_arc_in_triangle, gen_random
from trichor.polygons import (
    catalan,
    catalan_generalized,
    count_triangulations,
    reflex_template,
)
from trichor.rng import SplitMix64
from trichor.triangulation import Triangulation, degree_vector


def report(num: int, ok: bool, desc: str):
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


def test_criterion_01_convex_catalan():
    t0 = time.perf_counter()
    ok = all(
        enumerate_all(gen_convex(n)).count == catalan(n - 2) for n in range(3, 13)
    )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60
    report(1, ok, f"convex n=3..12 counts equal C_(n-2), {elapsed:.1f}s < 60s")


def test_criterion_02_generalized_catalan():
    values_ok = (
        catalan_generalized(2, 1) == 1
        and catalan_generalized(3, 1) == 3
        and catalan_generalized(4, 2) == 6
        and catalan_generalized(5, 2) == 19
        and catalan(6) == 132
    )
    templates_ok = all(
        count_triangulations(reflex_template(n, 1)) == catalan_generalized(n, 1)
        for n in range(2, 8)
    ) and all(
        count_triangulations(reflex_template(n, 2)) == catalan_generalized(n, 2)
        for n in range(4, 8)
    )
    report(2, values_ok and templates_ok, "C'_2=1 C'_3=3 C''_4=6 C''_5=19 C_6=132; reflex templates match")


def test_criterion_03_euler_counts_and_degree_identity():
    instances = [gen_convex_arc_in_triangle(n) for n in (1, 3, 5)]
    instances += [augment(gen_random(n, 50 + n)) for n in (2, 4, 6)]
    checked = 0
    ok = True
    for P in instances:
        n = P.n
        for tris in flip_graph_states(P):
            t = Triangulation(P, tris)
            if len(t.edge_set) != 3 * n + 3 or len(t.triangles) != 2 * n + 1:
                ok = False
            dv = degree_vector(t)
            if sum(dv.frame_degrees) + dv.weighted_sum() != 6 * n + 6:
                ok = False
            checked += 1
    report(3, ok, f"3n+3 edges, 2n+1 faces, degree identity exact on {checked} triangulations")


def test_criterion_04_v3_recursion():
    ok = True
    worst = 0.0
    for n in range(1, 7):
        t0 = time.perf_counter()
        P = gen_convex_arc_in_triangle(n)
        rep = check_v3_recursion(P, enumerate_all(P).degree_totals.get(3, 0))
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        ok = ok and rep.ok and dt < 120
    for n, seed in [(3, 401), (3, 402), (4, 403), (4, 404), (5, 405),
                    (5, 406), (6, 407), (6, 408), (7, 409), (7, 410)]:
        t0 = time.perf_counter()
        P = augment(gen_random(n, seed))
        rep = check_v3_recursion(P, enumerate_all(P).degree_totals.get(3, 0))
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        ok = ok and rep.ok and dt < 120
    report(4, ok, f"sum v3 = sum tri(S+\\q) exact, arcs n=1..6 + 10 random, worst {worst:.1f}s < 120s")


def test_criterion_05_charge_conservation(audited_corpus):
    bad = [name for name, _, rep in audited_corpus if not rep.conservation_ok]
    report(5, not bad, f"sum(7-deg) equals received charge on all {len(audited_corpus)} instances")


def test_criterion_06_charge_bound(audited_corpus):
    worst = max(rep.max_charge for _, _, rep in audited_corpus)
    over = [name for name, _, rep in audited_corpus if rep.max_charge >= 30]
    noteworthy = [name for name, _, rep in audited_corpus if rep.exceeds_believed_max]
    ok = not over and all(rep.ok for _, _, rep in audited_corpus)
    line = (
        f"max charge {worst} = {float(worst):.4f} < 30 over {len(audited_corpus)} instances"
        f" (believed ceiling {BELIEVED_MAX_CHARGE} = {float(BELIEVED_MAX_CHARGE):.4f};"
        f" exceeded on {len(noteworthy)} instances)"
    )
    report(6, ok, line)


def test_criterion_07_charger_count_bound(audited_corpus):
    ok = True
    observed = {}
    for _, _, rep in audited_corpus:
        for i, c in rep.charger_count_max.items():
            observed[i] = max(observed.get(i, 0), c)
            bound = 1 if i == 3 else catalan(i - 1) - catalan(i - 2)
            if c > bound:
                ok = False
    report(7, ok, f"charger counts within C_(i-1)-C_(i-2); worst observed {observed}")


def test_criterion_08_support_properties():
    instances = [gen_convex_arc_in_triangle(n) for n in range(1, 6)]
    instances += [augment(gen_random(n, 500 + n)) for n in (3, 4, 5, 6, 7)]
    checked = mono = 0
    ok = True
    for P in instances:
        rep = audit(P, rules=True).rules
        ok = ok and rep.ok
        checked += rep.support_checked
        mono += rep.monotone_checked
    # Independent digraph oracle on three of the bijection instances.
    for n, seed in BIJECTION_INSTANCES[:3]:
        o = DownFlipOracle(augment(gen_random(n, seed)))
        for u, outs in o.fwd.items():
            su = support(Vint(u[0], o.objs[u[1]]))
            for w in outs:
                if su < support(Vint(w[0], o.objs[w[1]])):
                    ok = False
                mono += 1
    report(8, ok, f"1<=supp<=C_(deg-2), equality iff convex, monotone ({checked} vints, {mono} flips)")


def test_criterion_09_bijection_oracles():
    three_vints = subtrees = 0
    ok = True
    for n, seed in BIJECTION_INSTANCES:
        P = augment(gen_random(n, seed))
        oracle = DownFlipOracle(P)
        for (p, tris) in oracle.three_vints():
            v = Vint(p, oracle.objs[tris])
            entries = enumerate_charging_vints(v)
            got = {(p, vv.triangulation.triangles) for _, vv in entries}
            if got != oracle.chargers_of((p, tris)):
                ok = False
            for sub, vv in entries:
                if (support(vv) == 1) != sub.all_rigid:
                    ok = False
                subtrees += 1
            three_vints += 1
    report(9, ok, f"subtree and rigid-core bijections exact: {three_vints} 3-vints, {subtrees} subtrees, 10 instances")


def test_criterion_10_contr_formulas():
    rng = SplitMix64(9000)
    ok = True
    for _ in range(1000):
        core = RigidCore(random_core_shape(rng))
        plus = contr_plus_closed_form(core)
        if plus != contr_plus_census(core):
            ok = False
        if Fraction(plus) > Fraction(13 + 9 * core.m, 2):
            ok = False
        if contr_minus(core) > min(0, 14 - 3 * core.m):
            ok = False
    h2 = (((), ()), ((), ()))
    complete = RigidCore((h2, h2, h2))
    ok = ok and contr_plus_closed_form(complete) == 59
    report(10, ok, "contr+ closed form == census on 1000 cores, bounds hold, height-3 core gives 59")


def test_criterion_11_polygon_count_oracle():
    rng = SplitMix64(7100)
    ok = True
    count = 0
    for i in range(500):
        k = 4 + (i % 9)  # 4..12 vertices
        poly = random_star_polygon(k, rng)
        if count_triangulations(poly) != count_by_interval_dp(poly):
            ok = False
        count += 1
    report(11, ok, f"ear recursion equals interval DP on {count} star polygons (<= 12 vertices)")


def test_criterion_12_bound_table():
    d = {e.quantity: e.table_digits() for e in derived_bounds(Fraction(30))}
    ok = d == {"tr": "30", "sc": "70.21", "pg_cg": "239.4", "st": "160", "cf": "202.5"}
    report(12, ok, f"derived_bounds(30) digits {d}")


def test_criterion_13_arc_vhat3():
    ok = True
    for n in range(2, 8):
        got = enumerate_all(gen_convex_arc_in_triangle(n)).vhat(3)
        if got != Fraction(n * catalan(n - 1), catalan(n)):
            ok = False
    report(13, ok, "vhat3(arc n) = n C_(n-1) / C_n exact for n=2..7")
