"""trichor benchmark: one workload per invocation, exact-checked, closed loop.

    python3 perfbench/run.py --workload audit-n7 --seed 0 --seconds 50 --trace 0

Runs from the root of a trichor checkout and imports the package from its
``src`` directory (``--root`` points at another checkout, which is how
``compare.py`` measures two commits with the same benchmark code).  One
caller issues operations back to back until ``--seconds`` have passed; an
operation is one CLI command or one ``audit()`` call, and every result is
compared with ``references.json``.  A mismatch or an exception counts as a
failed operation, and a run with any failure reports no timings.

``--trace 0`` prints the end-to-end metrics, medians over the iterations
of the run.  ``--trace 1`` alternates untraced and traced iterations and
prints the per-layer metrics of the traced ones (see ``tracing.py``) and
``trace.overhead``, the traced over the untraced median wall time, minus 1.

The last stdout line is the result object; the line before it is the
machine record.  Measurement is limited to the benchmark's own processes:
it drops no caches and pins no CPUs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Set-up is probed after every iteration, so its samples span the run
# like the timings do: each probe is this many fresh interpreters, and a
# run takes at least SETUP_MIN_SAMPLES of them.
SETUP_PER_PROBE = 3
SETUP_MIN_SAMPLES = 9


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", default=None, help="checkout whose src/trichor is measured (default: this one)")
    ap.add_argument("--out", default=None, help="also write the full result set (samples, spans) to this JSON file")
    ap.add_argument("--setup-probe", metavar="DIR", default=None, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_trichor(root: Path):
    src = root / "src"
    if not (src / "trichor" / "__init__.py").is_file():
        raise SystemExit(f"error: no trichor package under {src}")
    sys.path.insert(0, str(src))
    import trichor
    import trichor.charging
    import trichor.cli
    import trichor.enumeration
    import trichor.geometry

    if Path(trichor.__file__).resolve().parent != (src / "trichor").resolve():
        raise SystemExit(f"error: imported trichor from {trichor.__file__}, not {src}")
    return trichor


def setup(args, root: Path, workdir: Path):
    """Import trichor and build the workload's operations: the part that
    ``setup_s`` times."""
    tc = import_trichor(root)
    inputs = workloads.make_inputs(args.workload, args.seed, tc)
    return tc, workloads.make_ops(args.workload, inputs, tc, workdir)


def cpu_now() -> tuple[float, float]:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0


def setup_samples(args, root: Path, workdir: Path) -> list[float]:
    """Set-up times in fresh interpreters, so every sample pays the import."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--root", str(root),
        "--setup-probe", str(workdir / "probe"),
    ]
    out = []
    for _ in range(SETUP_PER_PROBE):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def setup_probe(args, root: Path) -> int:
    workdir = Path(args.setup_probe)
    workdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    setup(args, root, workdir)
    print(repr(time.perf_counter() - t0))
    return 0


def run_iteration(ops, expected) -> tuple[float, float, float, int, int, int]:
    """Run every operation once; return wall, self cpu, children cpu,
    triangulations, attempted, failed."""
    # Start every iteration from the same collector state, so garbage left
    # by the previous one is not collected on this one's clock.
    gc.collect()
    c0, k0 = cpu_now()
    t0 = time.perf_counter()
    summaries = []
    for op in ops:
        try:
            summaries.append(op.run())
        except Exception as exc:  # a failed operation is counted, not fatal
            print(f"{op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
            summaries.append(None)
    wall = time.perf_counter() - t0
    c1, k1 = cpu_now()
    failed = 0
    tris = 0
    for op, got, want in zip(ops, summaries, expected):
        if got != want:
            failed += 1
            if got is not None:
                print(f"{op.label}: result differs from reference: {got}", file=sys.stderr)
        else:
            tris += int(got["count"])
    return wall, c1 - c0, k1 - k0, tris, len(ops), failed


def git_sha(root: Path) -> str | None:
    # A checkout without its own .git must not report an enclosing repository's SHA.
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_record(args, root: Path) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "git_sha": git_sha(root),
        "loadavg_start": list(os.getloadavg()),
        "isolation": "benchmark's own processes only; no cache dropping, no CPU pinning",
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(args.root).resolve() if args.root else HERE.parent
    if args.setup_probe:
        return setup_probe(args, root)
    os.environ.pop("TRICHOR_THREADS", None)
    references = json.loads((HERE / "references.json").read_text())["workloads"][args.workload]["expected"]
    record = machine_record(args, root)
    workdir = HERE / ".work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tc, ops = setup(args, root, workdir)
        if len(references) != len(ops):
            raise SystemExit("error: references.json does not match the workload's operations")
        if args.trace:
            result, samples, spans = traced_run(args, tc, ops, references, workdir)
        else:
            result, samples = untraced_run(args, ops, references, lambda: setup_samples(args, root, workdir))
            spans = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["loadavg_end"] = list(os.getloadavg())
    record["samples"] = {k: len(v) for k, v in samples.items()}
    if args.out:
        full = {"machine": record, "result": result, "samples": samples}
        if spans is not None:
            full["spans"] = spans
        Path(args.out).write_text(json.dumps(full))
    print(json.dumps({"machine": record}))
    print(json.dumps(result))
    return 0


def _result(attempted, failed, metrics, units):
    correct = failed == 0
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in metrics} if correct else {},
    }


def untraced_run(args, ops, expected, probe_setup):
    walls, cpus, rates, setups = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        wall, cpu, kids, tris, n, bad = run_iteration(ops, expected)
        attempted += n
        failed += bad
        walls.append(wall)
        cpus.append(cpu + kids)
        rates.append(tris / wall)
        setups.extend(probe_setup())
    while len(setups) < SETUP_MIN_SAMPLES:
        setups.extend(probe_setup())
    samples = {"wall_s": walls, "cpu_s": cpus, "tri_per_s": rates, "setup_s": setups}
    metrics = {k: statistics.median(v) for k, v in samples.items()}
    metrics["peak_rss_mb"] = peak_rss_mb()
    samples["peak_rss_mb"] = [metrics["peak_rss_mb"]]
    units = {"wall_s": "s", "cpu_s": "s", "tri_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
    return _result(attempted, failed, metrics, units), samples


def traced_run(args, tc, ops, expected, workdir):
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    plain, traced, layers = [], [], []
    spans = []
    attempted = failed = 0
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        wall, _, _, _, n, bad = run_iteration(ops, expected)
        attempted += n
        failed += bad
        plain.append(wall)
        tracer.reset()
        tracer.install()
        try:
            # Set-up runs traced too, so geometry spans cover it; only the
            # operations count towards wall time.
            traced_inputs = workloads.make_inputs(args.workload, args.seed, tc)
            traced_ops = workloads.make_ops(args.workload, traced_inputs, tc, workdir)
            wall, _, kids, _, n, bad = run_iteration(traced_ops, expected)
        finally:
            tracer.uninstall()
        attempted += n
        failed += bad
        traced.append(wall)
        layers.append(layer_metrics(tracer, wall, kids))
        spans = tracer.spans()
    metrics = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(plain) - 1.0
    units = {k: _unit(k) for k in metrics}
    samples = {"wall_s": plain, "traced_wall_s": traced, "layers": layers}
    return _result(attempted, failed, metrics, units), samples, spans


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_state"):
        return "us"
    if name.endswith(("ratio", "share", "overhead")):
        return "ratio"
    if name.endswith("mean_k"):
        return "vertices"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
