"""The four benchmark workloads: seeded inputs, operations, exact summaries.

Every workload starts from a fixed instance of the library's own
generators.  The benchmark seed selects an orientation-preserving integer
affine image of that instance (seed 0 is the identity, so the default run
is exactly the named instance).  Such a map keeps every orientation sign,
and the benchmark keeps every point label, so every seed yields the same
triangulations, the same work and the same exact results, down to the
bytes of the CLI reports.  Coordinates stay within 2**13, which keeps
every determinant product a single-digit Python int, as it is for the
untransformed instances.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

COORD_LIMIT = 2**13

# The n <= 6 slice of the acceptance corpus: 38 random sets, seeds 100..137.
CORPUS_N6_SIZES = [3] * 8 + [4] * 10 + [5] * 10 + [6] * 10
CORPUS_N6_SEEDS = list(range(100, 100 + len(CORPUS_N6_SIZES)))

# Why each exists is in rationale.json.
WORKLOADS = ("enum-n9", "audit-n7", "corpus-n6", "audit-n8-j2")


def _frac(f) -> str:
    f = Fraction(f)
    return f"{f.numerator}/{f.denominator}"


def _json_frac(d) -> str | None:
    return None if d is None else f"{d['num']}/{d['den']}"


def base_instances(name: str, tc) -> list[tuple[str, object]]:
    """The untransformed augmented instances of a workload, built through
    the geometry module (``tc`` is the imported ``trichor`` package)."""
    geo = tc.geometry
    if name == "enum-n9":
        return [("random-n9-s148", geo.augment(geo.gen_random(9, 148)))]
    if name == "audit-n7":
        return [("random-n7-s148", geo.augment(geo.gen_random(7, 148)))]
    if name == "audit-n8-j2":
        return [("random-n8-s148", geo.augment(geo.gen_random(8, 148)))]
    if name == "corpus-n6":
        out = [(f"convex-n{n}", geo.augment(geo.gen_convex(n))) for n in range(3, 7)]
        out += [(f"arc-n{n}", geo.gen_convex_arc_in_triangle(n)) for n in range(1, 7)]
        out += [
            (f"random-n{n}-s{s}", geo.augment(geo.gen_random(n, s)))
            for n, s in zip(CORPUS_N6_SIZES, CORPUS_N6_SEEDS)
        ]
        return out
    raise KeyError(name)


def _apply(m, t, pts):
    (a, b), (c, d) = m
    return [(a * x + b * y + t[0], c * x + d * y + t[1]) for x, y in pts]


def _acceptable(m, t, instances) -> bool:
    for _, P in instances:
        pts = _apply(m, t, [(p.x, p.y) for p in P.points])
        if max(max(abs(x), abs(y)) for x, y in pts) > COORD_LIMIT:
            return False
        # The hull must come back in the same label order: the first frame
        # vertex stays the lexicographically smallest hull point.
        frame = pts[-3:]
        if min(frame) != frame[0]:
            return False
    return True


def affine_map(seed: int, instances):
    """Seeded unimodular shear pair plus translation; identity for seed 0."""
    if seed == 0:
        return ((1, 0), (0, 1)), (0, 0)
    rng = random.Random(seed)
    for _ in range(10000):
        k1, k2 = rng.randint(-2, 2), rng.randint(-2, 2)
        m = ((1 + k1 * k2, k1), (k2, 1))  # [[1,k1],[0,1]] @ [[1,0],[k2,1]], det 1
        t = (rng.randint(-3000, 3000), rng.randint(-3000, 3000))
        if (m, t) != (((1, 0), (0, 1)), (0, 0)) and _acceptable(m, t, instances):
            return m, t
    raise RuntimeError(f"no admissible affine map for seed {seed}")


def make_inputs(name: str, seed: int, tc) -> list[tuple[str, object]]:
    """Build the seeded instances through the public geometry API: the
    transformed points are validated as a PointSet and re-read as frame +
    interior with ``AugmentedPointSet.from_points``."""
    geo = tc.geometry
    instances = base_instances(name, tc)
    m, t = affine_map(seed, instances)
    out = []
    for label, P in instances:
        pts = _apply(m, t, [(p.x, p.y) for p in P.points])
        ps = geo.PointSet(pts)
        out.append((label, geo.AugmentedPointSet.from_points(ps)))
    return out


def audit_summary(rep) -> dict:
    """Exact fields of an AuditReport."""
    return {
        "count": str(rep.triangulation_count),
        "degree_totals": {str(k): str(v) for k, v in sorted(rep.degree_totals.items())},
        "vhat3": None if rep.vhat3 is None else _frac(rep.vhat3),
        "conservation_lhs": str(rep.conservation_lhs),
        "conservation_rhs": _frac(rep.conservation_rhs),
        "max_charge": _frac(rep.max_charge),
        "max_charge_at": None if rep.max_charge_at is None else list(rep.max_charge_at),
        "three_vints": str(rep.three_vint_count),
        "charger_count_max": {str(k): v for k, v in sorted(rep.charger_count_max.items())},
        "violations": list(rep.violations),
    }


def enumerate_summary(raw: bytes) -> dict:
    """Exact fields of a ``trichor enumerate`` report, plus its sha256."""
    d = json.loads(raw)
    return {
        "count": d["count"],
        "degree_totals": d["degree_totals"],
        "vhat3": _json_frac(d["vhat3"]),
        "exhaustive": d["exhaustive"],
        "sha256": hashlib.sha256(raw).hexdigest(),
    }


def audit_cli_summary(raw: bytes) -> dict:
    """Exact fields of a ``trichor audit`` report, plus its sha256.  The
    report has no degree totals; its 3-vint count is the v3 identity's lhs."""
    d = json.loads(raw)
    at = d["max_charge_at"]
    return {
        "count": d["count"],
        "vhat3": _json_frac(d["vhat3"]),
        "conservation_lhs": d["conservation"]["lhs"],
        "conservation_rhs": _json_frac(d["conservation"]["rhs"]),
        "max_charge": _json_frac(d["max_charge"]),
        "max_charge_at": None if at is None else [at["fingerprint"], at["point"]],
        "three_vints": d["v3_recursion"]["lhs"],
        "v3_recursion_rhs": d["v3_recursion"]["rhs"],
        "charger_count_max": d["charger_count_max"],
        "rules": {k: d["rules"][k] for k in ("rule1_checked", "monotone_checked", "support_checked")},
        "violations": d["violations"] + d["rules"]["violations"],
        "ok": d["ok"],
        "sha256": hashlib.sha256(raw).hexdigest(),
    }


@dataclass
class Op:
    """One operation: a CLI command or one audit() call.  ``run`` returns
    the exact summary that is compared with the stored reference."""

    label: str
    run: Callable[[], dict]


def make_ops(name: str, inputs, tc, workdir: Path, jobs: int | None = None) -> list[Op]:
    """Operations of one iteration.  Every call goes through a module
    attribute (``tc.cli.main``, ``tc.charging.audit``) so that a traced run
    can wrap it.  ``jobs`` overrides audit-n8-j2's process count, which the
    reference script sets to 1."""
    if name in ("enum-n9", "audit-n7"):
        label, P = inputs[0]
        src = workdir / f"{label}.txt"
        tc.geometry.write_points(P, src)
        out = workdir / f"{name}.json"
        cmd, summarize = (
            ("enumerate", enumerate_summary) if name == "enum-n9" else ("audit", audit_cli_summary)
        )

        def run_cli():
            code = tc.cli.main([cmd, str(src), "--out", str(out)])
            if code != 0:
                raise RuntimeError(f"trichor {cmd} exited with {code}")
            return summarize(out.read_bytes())

        return [Op(label, run_cli)]
    njobs = (2 if name == "audit-n8-j2" else 1) if jobs is None else jobs

    def audit_op(P):
        return lambda: audit_summary(tc.charging.audit(P, jobs=njobs))

    return [Op(label, audit_op(P)) for label, P in inputs]
