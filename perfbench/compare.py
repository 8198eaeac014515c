"""Compare two trichor checkouts with the same benchmark code.

    python3 perfbench/compare.py PARENT CHANGE [--workload W ...] [--out FILE]
    python3 perfbench/compare.py --load FILE

PARENT and CHANGE are checkout roots holding ``src/trichor``.  For each
workload the script runs ten untraced pairs, seeds 1 to 10, alternating
which side runs first, then one traced run per side.  It
prints, per workload and end-to-end metric, each side's median and
quartiles and two verdicts:

* ``verdict``: better when the change wins at least 9/10 of the pairs
  (ties count for neither side) and the medians differ in its favour by
  more than the parent's interquartile range; worse under the mirror
  condition; unresolved otherwise.
* ``bound``: ok when the change's median is not worse than the parent's by
  more than the metric's bound in BENCHMARK.json; exceeded when it is;
  unresolved when the parent's own spread is wider than the bound, unless
  every change run beats every parent run.

Then it prints the per-layer metrics of the two traced runs and their
difference.  ``--out`` saves every result set (machine records included);
``--load`` prints the comparison of a saved file again.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
# Ten pairs, seeds 1..PAIRS: the verdict rule counts wins out of ten.
PAIRS = 10


def run_once(root: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    (HERE / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
        out = Path(tmp) / "result.json"
        cmd = [
            sys.executable, str(RUN), "--root", root, "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), "--out", str(out),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            raise RuntimeError(f"{root} {workload} seed {seed}: {proc.stderr.strip()}")
        return json.loads(out.read_text())


def collect(args, bench) -> dict:
    sides = {"parent": args.parent, "change": args.change}
    data = {"benchmark": bench, "workloads": {}}
    for w in args.workload or [x["name"] for x in bench["workloads"]]:
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(sides[side], w, i + 1, bench["run_seconds"], 0))
        traced = {}
        for side in ("parent", "change"):
            traced[side] = run_once(sides[side], w, 1, bench["run_seconds"], 1)
        data["workloads"][w] = {"runs": runs, "traced": traced}
    return data


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdicts(parent, change, better: str, bound: float) -> tuple[str, str, int]:
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    pq1, pmed, pq3 = quartiles(parent)
    gain = sign * (statistics.median(change) - pmed)
    iqr = pq3 - pq1
    need = 0.9 * len(parent)
    if wins >= need and gain > iqr:
        verdict = "better"
    elif losses >= need and -gain > iqr:
        verdict = "worse"
    else:
        verdict = "unresolved"
    if min(sign * c for c in change) > max(sign * p for p in parent):
        bound_check = "ok"
    elif iqr > bound * abs(pmed):
        bound_check = "unresolved"
    elif -gain > bound * abs(pmed):
        bound_check = "exceeded"
    else:
        bound_check = "ok"
    return verdict, bound_check, wins


def report(data) -> None:
    bench = data["benchmark"]
    for w, d in data["workloads"].items():
        runs = d["runs"]
        failed = {s: sum(r["result"]["failed"] for r in runs[s]) for s in runs}
        print(f"== {w}: {len(runs['parent'])} pairs, failed ops parent {failed['parent']} change {failed['change']}")
        if any(failed.values()):
            print("   a side failed exact checks; no timings compared")
            continue
        print(f"   {'metric':<12} {'parent median [q1, q3]':<34} {'change median [q1, q3]':<34} wins  verdict     bound")
        for m in bench["end_to_end"]:
            name = m["name"]
            p = [r["result"]["metrics"][name]["value"] for r in runs["parent"]]
            c = [r["result"]["metrics"][name]["value"] for r in runs["change"]]
            verdict, bound_check, wins = verdicts(p, c, m["better"], m["bound"])
            fp = "{1:.5g} [{0:.5g}, {2:.5g}]".format(*quartiles(p))
            fc = "{1:.5g} [{0:.5g}, {2:.5g}]".format(*quartiles(c))
            print(f"   {name:<12} {fp:<34} {fc:<34} {wins:>2}/{len(p):<2} {verdict:<11} {bound_check}")
        traced = d["traced"]
        print(f"   per-layer (one traced run each)      {'parent':>14} {'change':>14} {'change-parent':>14}")
        for m in bench["per_layer"]:
            name = m["name"]
            p = traced["parent"]["result"]["metrics"].get(name, {}).get("value")
            c = traced["change"]["result"]["metrics"].get(name, {}).get("value")
            if p is None or c is None:
                print(f"   {name:<36} {'-':>14} {'-':>14}")
                continue
            print(f"   {name:<36} {p:>14.6g} {c:>14.6g} {c - p:>+14.6g}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--workload", action="append", help="repeatable; default: every workload")
    ap.add_argument("--out", help="save the result sets to this JSON file")
    ap.add_argument("--load", help="print the comparison of a saved file")
    args = ap.parse_args()
    if args.load:
        data = json.loads(Path(args.load).read_text())
    else:
        if not (args.parent and args.change):
            ap.error("PARENT and CHANGE are required unless --load is given")
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        data = collect(args, bench)
        if args.out:
            Path(args.out).write_text(json.dumps(data))
    report(data)
    return 0


if __name__ == "__main__":
    sys.exit(main())
