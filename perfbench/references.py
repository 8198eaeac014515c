"""Recompute the exact results in references.json.

    python3 perfbench/references.py           # check the stored references
    python3 perfbench/references.py --write   # rewrite them

Each workload's operations run once on the default seed and once on a
held-out seed, and the two result lists must be identical (see
``workloads.py`` for why every seed has the same exact results).
audit-n8-j2 is computed with ``jobs=1``, so the benchmark checks its
``jobs=2`` output against the sequential result.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from run import import_trichor  # noqa: E402

DEFAULT_SEED = 0
HELD_OUT_SEED = 20261017


def compute(name: str, seed: int, tc) -> list[dict]:
    (HERE / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
        inputs = workloads.make_inputs(name, seed, tc)
        ops = workloads.make_ops(name, inputs, tc, Path(tmp), jobs=1)
        return [{"label": op.label, **op.run()} for op in ops]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()
    tc = import_trichor(HERE.parent)
    path = HERE / "references.json"
    stored = json.loads(path.read_text())["workloads"] if path.exists() else {}
    out = {}
    ok = True
    for name in workloads.WORKLOADS:
        default = compute(name, DEFAULT_SEED, tc)
        held_out = compute(name, HELD_OUT_SEED, tc)
        if default != held_out:
            print(f"{name}: seeds {DEFAULT_SEED} and {HELD_OUT_SEED} disagree", file=sys.stderr)
            ok = False
        expected = [{k: v for k, v in d.items() if k != "label"} for d in default]
        out[name] = {
            "seeds_checked": [DEFAULT_SEED, HELD_OUT_SEED],
            "labels": [d["label"] for d in default],
            "expected": expected,
        }
        if not args.write and stored.get(name, {}).get("expected") != expected:
            print(f"{name}: differs from references.json", file=sys.stderr)
            ok = False
        print(f"{name}: {len(expected)} operation(s), {'ok' if ok else 'MISMATCH'}", file=sys.stderr)
    if args.write and ok:
        path.write_text(json.dumps({"workloads": out}, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
