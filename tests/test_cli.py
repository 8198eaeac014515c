import hashlib
import json
import os
from importlib import resources

import jsonschema
import pytest

from oracles import rules_by_walk
from trichor import charging
from trichor.charging import audit
from trichor.cli import main
from trichor.geometry import AugmentedPointSet, augment, gen_random, read_points, write_points
from trichor.polygons import PolygonCounter, catalan
from trichor.triangulation import initial_triangulation


def schema(name):
    text = resources.files("trichor.schemas").joinpath(name).read_text()
    return json.loads(text)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_generate_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["generate", "random", "--n", "6", "--seed", "1", "--out", str(p1)]) == 0
    assert main(["generate", "random", "--n", "6", "--seed", "1", "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_generate_convex_file_lines(tmp_path):
    out = tmp_path / "c.txt"
    assert main(["generate", "convex", "--n", "5", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "5"
    assert len(lines) == 6


def test_generate_arc_writes_frame(tmp_path):
    out = tmp_path / "arc.txt"
    assert main(["generate", "arc", "--n", "3", "--out", str(out)]) == 0
    assert read_points(out).points and len(read_points(out)) == 6


def test_enumerate_convex6(tmp_path, capsys):
    f = tmp_path / "c6.txt"
    main(["generate", "convex", "--n", "6", "--out", str(f)])
    code, out = run(capsys, "enumerate", str(f))
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schema("enumerate_report.schema.json"))
    assert report["count"] == "14"
    assert report["exhaustive"] is True


def test_enumerate_single_interior(tmp_path, capsys):
    f = tmp_path / "one.txt"
    main(["generate", "random", "--n", "1", "--augment", "--out", str(f)])
    code, out = run(capsys, "enumerate", str(f))
    assert code == 0
    assert json.loads(out)["count"] == "1"


def test_enumerate_cap_exit_code(tmp_path, capsys):
    f = tmp_path / "c6.txt"
    main(["generate", "convex", "--n", "6", "--out", str(f)])
    code, out = run(capsys, "enumerate", str(f), "--cap", "1")
    assert code == 2
    report = json.loads(out)
    assert report["exhaustive"] is False
    assert report["count"] == "1"


@pytest.mark.parametrize("cap,code,count", [(0, 2, "0"), (13, 2, "13"), (14, 0, "14"), (15, 0, "14")])
def test_enumerate_cap_boundary(tmp_path, capsys, cap, code, count):
    # The convex hexagon has 14 triangulations: a cap of 14 or more lets
    # the walk finish, so only a smaller cap makes the report partial.
    f = tmp_path / "c6.txt"
    main(["generate", "convex", "--n", "6", "--out", str(f)])
    got, out = run(capsys, "enumerate", str(f), "--cap", str(cap))
    report = json.loads(out)
    jsonschema.validate(report, schema("enumerate_report.schema.json"))
    assert (got, report["count"], report["exhaustive"]) == (code, count, code == 0)


def test_audit_arc(tmp_path, capsys):
    f = tmp_path / "arc4.txt"
    main(["generate", "arc", "--n", "4", "--out", str(f)])
    code, out = run(capsys, "audit", str(f))
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schema("audit_report.schema.json"))
    assert report["ok"] is True
    assert report["conservation"]["ok"] is True
    assert report["v3_recursion"]["ok"] is True


def test_audit_plain_pointset_gets_augmented(tmp_path, capsys):
    f = tmp_path / "r.txt"
    main(["generate", "random", "--n", "4", "--seed", "2", "--out", str(f)])
    code, out = run(capsys, "audit", str(f))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_fliptree_dot_and_charge(tmp_path, capsys):
    f = tmp_path / "r.txt"
    main(["generate", "random", "--n", "4", "--seed", "1", "--augment", "--out", str(f)])
    P = AugmentedPointSet.from_points(read_points(f))
    t = initial_triangulation(P)
    p = next(q for q in P.interior_indices() if t.degree_map()[q] == 3)
    code, out = run(capsys, "fliptree", str(f), "--point", str(p), "--charge")
    assert code == 0
    dot, _, rest = out.partition("}\n")
    assert dot.startswith("digraph")
    report = json.loads(rest)
    jsonschema.validate(report, schema("charge_report.schema.json"))


def test_fliptree_by_fingerprint(tmp_path, capsys):
    f = tmp_path / "r.txt"
    main(["generate", "random", "--n", "4", "--seed", "1", "--augment", "--out", str(f)])
    P = AugmentedPointSet.from_points(read_points(f))
    t = initial_triangulation(P)
    p = next(q for q in P.interior_indices() if t.degree_map()[q] == 3)
    code, out = run(capsys, "fliptree", str(f), "--point", str(p),
                    "--fingerprint", t.fingerprint())
    assert code == 0
    assert "digraph" in out


def test_fliptree_replays_the_audit_max_charge_of_a_raw_set(tmp_path, capsys):
    # gen_random(5, 3) has a 5-point hull: audit and fliptree both read
    # the file as its augment, so the reported location replays.
    f = tmp_path / "raw.txt"
    write_points(gen_random(5, 3), f)
    code, out = run(capsys, "audit", str(f))
    assert code == 0
    report = json.loads(out)
    at = report["max_charge_at"]
    argv = ["--fingerprint", at["fingerprint"], "--point", str(at["point"]), "--charge"]
    code, out = run(capsys, "fliptree", str(f), *argv)
    assert code == 0
    charge = json.loads(out.partition("}\n")[2])
    assert (charge["fingerprint"], charge["point"]) == (at["fingerprint"], at["point"])
    assert charge["total"] == {k: report["max_charge"][k] for k in ("num", "den")} == {"num": "64", "den": "3"}


def test_fliptree_cap_exits_two(tmp_path, capsys):
    f = tmp_path / "r.txt"
    main(["generate", "random", "--n", "4", "--seed", "1", "--augment", "--out", str(f)])
    code = main(["fliptree", str(f), "--point", "0", "--fingerprint", "0" * 32, "--cap", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: enumeration cap 2 reached\n"


def test_fliptree_not_a_3vint_exits_one(tmp_path, capsys):
    f = tmp_path / "arc3.txt"
    main(["generate", "arc", "--n", "3", "--out", str(f)])
    P = AugmentedPointSet.from_points(read_points(f))
    t = initial_triangulation(P)
    bad = next(q for q in P.interior_indices() if t.degree_map()[q] != 3)
    code, _ = run(capsys, "fliptree", str(f), "--point", str(bad))
    assert code == 1


# SHA-256 of the stdout of `trichor audit` and `trichor fliptree --charge`
# on augment(gen_random(6, 14)), taken from the edge -> apex map
# implementation of the flip-tree growth.  The star-map growth must
# reproduce every byte, including the DOT child order.
R6_S14_AUDIT_SHA256 = "2afe8448899d8865d6cd7d884cb98d4ad47f821036ae5a5212970ebcf3a38fd1"
R6_S14_SEED_FLIPTREE_SHA256 = {
    3: "dd039cece810a325ea6f0000e369ef587e12cbdbac7f277ff6e2078c4e62058a",
    4: "630b30e1cbe685373e238fca31908ca3034287c180b389e245ba0d3fbba89f9f",
    5: "0caadae7855fd6cf9eefd8e52cdf53343b7438dbbd0c355732f9e094b5ef0dae",
}
# A state whose tree at point 5 branches at level 2 below a node whose
# first child is the one at its tail: the seed trees never reach there.
R6_S14_DEEP_FINGERPRINT = "9d78922ea394764c6ad08aa2a69ddc3c"
R6_S14_DEEP_FLIPTREE_SHA256 = "d5324448ba38709c54addcf1a1f5af0088c008d440369a10bab6ab932536d0f9"


def test_audit_and_fliptree_bytes_unchanged(tmp_path, capsys):
    def digest(*argv):
        code, out = run(capsys, *argv)
        assert code == 0
        return hashlib.sha256(out.encode()).hexdigest()

    f = tmp_path / "r.txt"
    main(["generate", "random", "--n", "6", "--seed", "14", "--augment", "--out", str(f)])
    assert digest("audit", str(f)) == R6_S14_AUDIT_SHA256
    P = AugmentedPointSet.from_points(read_points(f))
    deg = initial_triangulation(P).degree_map()
    points = [q for q in P.interior_indices() if deg[q] == 3]
    assert points == sorted(R6_S14_SEED_FLIPTREE_SHA256)
    for p in points:
        assert digest("fliptree", str(f), "--point", str(p), "--charge") == R6_S14_SEED_FLIPTREE_SHA256[p]
    deep = digest("fliptree", str(f), "--point", "5", "--fingerprint", R6_S14_DEEP_FINGERPRINT, "--charge")
    assert deep == R6_S14_DEEP_FLIPTREE_SHA256


# `trichor audit --out` on augment(gen_random(7, 148)): the bytes and rule
# counters of the benchmark's audit-n7 reference.  The rule sweep memoises
# per distinct key, and every counter still counts occurrences.
R7_S148_AUDIT_SHA256 = "46f2329c9376386a7a1e5e5ffa8aa98207cc627f82ce5b605944ffeb18024beb"


def test_audit_n7_bytes_and_rule_counters_unchanged(tmp_path):
    f, out = tmp_path / "r7.txt", tmp_path / "r7.json"
    write_points(augment(gen_random(7, 148)), f)
    assert main(["audit", str(f), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == R7_S148_AUDIT_SHA256
    rules = json.loads(out.read_bytes())["rules"]
    assert (rules["support_checked"], rules["monotone_checked"], rules["rule1_checked"]) == (10248, 16911, 72)


def test_catalan_commands(capsys):
    assert run(capsys, "catalan", "c", "5") == (0, "42\n")
    assert run(capsys, "catalan", "c2", "5") == (0, "19\n")
    assert run(capsys, "catalan", "cr", "4", "--r", "0") == (0, "14\n")
    assert run(capsys, "catalan", "c1", "3") == (0, "3\n")


def test_catalan_out_of_range_exit_one(capsys):
    code, _ = run(capsys, "catalan", "c2", "3")
    assert code == 1


def test_bounds_csv(capsys):
    code, out = run(capsys, "bounds", "--tr-base", "30")
    assert code == 0
    assert "st,160,1,160" in out
    assert "70.21" in out


def test_bounds_json(capsys):
    code, out = run(capsys, "bounds", "--tr-base", "30", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert {e["quantity"] for e in payload} == {"tr", "sc", "pg_cg", "st", "cf"}


def test_triangulation_json_schema():
    from trichor.geometry import augment, gen_random

    P = augment(gen_random(3, 0))
    t = initial_triangulation(P)
    jsonschema.validate(json.loads(t.to_json()), schema("triangulation.schema.json"))


def test_missing_file_exit_one(capsys):
    code, _ = run(capsys, "enumerate", "/nonexistent/file.txt")
    assert code == 1


@pytest.mark.parametrize(
    "argv, code",
    [
        ([], 1),
        (["audit"], 1),
        (["enumerate", "f", "--cap", "abc"], 1),
        (["enumerate", "f", "--cap", "-1"], 1),
        (["fliptree", "f", "--point", "0", "--cap", "-1"], 1),
        (["catalan", "zz", "3"], 1),
        (["bounds", "--tr-base", "1/0"], 1),
        (["--help"], 0),
        (["enumerate", "--help"], 0),
    ],
    ids=[
        "no-command",
        "audit-no-file",
        "cap-not-int",
        "cap-negative",
        "fliptree-cap-negative",
        "catalan-kind",
        "tr-base-zero-denominator",
        "help",
        "enumerate-help",
    ],
)
def test_argument_errors_exit_one_and_help_exits_zero(capsys, argv, code):
    # Exit code 2 means a cap was hit, so a usage error must not use it.
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert ("usage:" in out) == (code == 0)
    assert ("error:" in err) == (code != 0)


def test_threads_env(tmp_path, capsys, monkeypatch):
    # n=6, seed 14 gives the rule sweep work in the pool workers: 33 rule-1
    # checks and monotone checks.
    f = tmp_path / "r.txt"
    main(["generate", "random", "--n", "6", "--seed", "14", "--augment", "--out", str(f)])
    code, seq = run(capsys, "audit", str(f))
    assert code == 0
    # Keep 2 on a 1-core host.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setenv("TRICHOR_THREADS", "2")
    code, par = run(capsys, "audit", str(f))
    assert code == 0
    assert seq == par


def test_threads_not_an_integer_is_a_usage_error(tmp_path, capsys, monkeypatch):
    f = tmp_path / "r.txt"
    main(["generate", "random", "--n", "4", "--seed", "2", "--out", str(f)])
    monkeypatch.setenv("TRICHOR_THREADS", "two")
    assert main(["audit", str(f)]) == 1
    assert capsys.readouterr().err.startswith("error: TRICHOR_THREADS must be an integer")


def test_threads_clamped_to_cpu_count(monkeypatch):
    # Only _threads() runs: no pool is started with the large value.
    import trichor.cli as cli

    # A process pinned to 3 of 64 CPUs gets at most 3 workers.
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 4, 7}, raising=False)
    monkeypatch.setenv("TRICHOR_THREADS", "100000")
    assert cli._threads() == 3
    monkeypatch.setenv("TRICHOR_THREADS", "2")
    assert cli._threads() == 2
    monkeypatch.setenv("TRICHOR_THREADS", "0")
    assert cli._threads() == 1
    # Without an affinity call, cpu_count bounds it.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setenv("TRICHOR_THREADS", "100000")
    assert cli._threads() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._threads() == 1


def test_audit_violation_exit_three(tmp_path, capsys, monkeypatch):
    import trichor.cli as cli

    f = tmp_path / "r.txt"
    main(["generate", "random", "--n", "3", "--seed", "5", "--augment", "--out", str(f)])
    real_audit = cli.audit

    def tainted(P, jobs=1, rules=False):
        rep = real_audit(P, jobs=jobs, rules=rules)
        rep.violations.append("synthetic violation for exit-code wiring")
        return rep

    monkeypatch.setattr(cli, "audit", tainted)
    code, out = run(capsys, "audit", str(f))
    assert code == 3
    assert json.loads(out)["ok"] is False


def test_audit_invariant_error_exits_three(tmp_path, capsys, monkeypatch):
    import trichor.cli as cli
    from trichor.errors import InvariantError

    f = tmp_path / "r.txt"
    main(["generate", "random", "--n", "3", "--seed", "5", "--augment", "--out", str(f)])

    def broken(P, jobs=1, rules=False):
        raise InvariantError("flip-tree expansion revisited a face")

    monkeypatch.setattr(cli, "audit", broken)
    code = main(["audit", str(f)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: flip-tree expansion revisited a face\n"
    assert "Traceback" not in captured.err


def test_enumerate_frame_only(tmp_path, capsys):
    f = tmp_path / "tri.txt"
    main(["generate", "convex", "--n", "3", "--out", str(f)])
    code, out = run(capsys, "enumerate", str(f))
    assert code == 0
    report = json.loads(out)
    assert report["count"] == "1"
    assert report["n"] == 0


def _shift_every_charge(monkeypatch):
    # Each priced 3-vint receives one more than its census gives.
    real = charging._AuditContext.tree_charge

    def shifted(self, key):
        e = real(self, key)
        return charging._Priced(e.total + 1, e.chargers, e.over, e.rule1, e.rules)

    monkeypatch.setattr(charging._AuditContext, "tree_charge", shifted)


def _no_three_vints(monkeypatch):
    monkeypatch.setattr(charging.AuditReport, "three_vint_count", property(lambda self: 0))


def _catalan_minus_one(monkeypatch):
    # charger_bound(d) = C(d-1) - C(d-2) is the same under the shift, so
    # its cache stays right.
    monkeypatch.setattr(charging, "catalan", lambda k: catalan(k) - 1)


def _smaller_polygons_count_more(monkeypatch):
    monkeypatch.setattr(PolygonCounter, "count", lambda self, cycle, inside=(): 100 - len(tuple(cycle)))


# augment(gen_random(3, 5)): 8 triangulations, 6 3-vint occurrences and
# conservation 72 = 72, every check passing until one is forced.
@pytest.mark.parametrize(
    "force, section, text",
    [
        (_shift_every_charge, "violations", "charge conservation broken: sum(7-deg)=72 but received=78"),
        (_no_three_vints, "violations", "vhat3 * 30 = 0 < n = 3"),
        (_catalan_minus_one, "rules", "support 1 outside [1, 0]"),
        (_smaller_polygons_count_more, "rules", "support grew 96 -> 97 along down-flip at 0"),
    ],
    ids=["conservation", "vhat3", "support-bound", "monotone"],
)
def test_forced_audit_violation_exits_three(tmp_path, capsys, monkeypatch, force, section, text):
    f = tmp_path / "r.txt"
    main(["generate", "random", "--n", "3", "--seed", "5", "--augment", "--out", str(f)])
    monkeypatch.delenv("TRICHOR_THREADS", raising=False)
    force(monkeypatch)
    code = main(["audit", str(f)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == ""
    payload = json.loads(captured.out)
    assert payload["ok"] is False
    violations = payload["violations"] if section == "violations" else payload["rules"]["violations"]
    assert text in violations


def test_forced_monotone_violations_equal_the_reference(monkeypatch):
    # Under the same counts the reference sweep, one occurrence at a time
    # from public objects, reports the same strings in the same order.
    P = augment(gen_random(3, 5))
    _smaller_polygons_count_more(monkeypatch)
    got = audit(P, rules=True).rules.violations
    assert got == rules_by_walk(P).violations
    assert sum(v.startswith("support grew") for v in got) > 0


def test_empty_point_file_exits_one(tmp_path, capsys):
    f = tmp_path / "empty.txt"
    f.write_text("")
    assert main(["audit", str(f)]) == 1
    assert capsys.readouterr().err == f"error: empty point-set file: {f}\n"


def test_coordinate_count_mismatch_exits_one(tmp_path, capsys):
    f = tmp_path / "short.txt"
    f.write_text("3\n0 0\n9 0\n0\n")
    assert main(["enumerate", str(f)]) == 1
    assert capsys.readouterr().err == "error: expected 6 coordinates, found 5\n"


def test_generate_without_out_writes_stdout(tmp_path, capsys):
    f = tmp_path / "r.txt"
    assert main(["generate", "random", "--n", "5", "--seed", "3", "--augment", "--out", str(f)]) == 0
    assert run(capsys, "generate", "random", "--n", "5", "--seed", "3", "--augment") == (0, f.read_text())


def test_fliptree_fingerprint_without_match_exits_one(tmp_path, capsys):
    f = tmp_path / "r.txt"
    main(["generate", "random", "--n", "4", "--seed", "1", "--augment", "--out", str(f)])
    code = main(["fliptree", str(f), "--point", "0", "--fingerprint", "0" * 32])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"no triangulation with fingerprint {'0' * 32}\n"


def test_catalan_cr_without_r_exits_one(capsys):
    code = main(["catalan", "cr", "4"])
    captured = capsys.readouterr()
    assert code == 1
    assert (captured.out, captured.err) == ("", "cr needs --r\n")
