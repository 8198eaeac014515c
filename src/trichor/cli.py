"""Command-line surface: generate, enumerate, audit, fliptree, catalan, bounds.

Exit codes: 0 success (and exhaustive), 1 usage or I/O error, 2 an
enumeration cap was hit (partial output still written), 3 an audit
invariant was violated.  All randomness flows through the seeded
generator, so every command is deterministic given its arguments.

``audit`` walks the triangulations of S+ once: the charge audit, the
structural-rule sweep and the left side of the degree-3 insertion
identity share that walk, and the polygon recursion counts the right
side without walking.  The TRICHOR_THREADS environment variable sets
the number of processes for the charge audit and the rule sweep, at
most the number of CPUs this process may run on (its CPU affinity where
the system reports one, else the CPU count); results are identical to a
sequential run.
``audit`` and ``fliptree`` read a point file as one S+ (``augment``
wraps a set whose hull is not a triangle); ``fliptree`` reads the seed
triangulation unless ``--fingerprint`` names another, which it finds by
walking at most ``--cap`` states.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .bounds import bounds_csv, derived_bounds
from .charging import Vint, audit, build_flip_tree, charge, frac_json
from .enumeration import check_v3_recursion, enumerate_all, flip_graph_states
from .errors import CapExceededError, InvariantError, TrichorError
from .geometry import (
    AugmentedPointSet,
    augment,
    gen_convex,
    gen_convex_arc_in_triangle,
    gen_random,
    points_text,
    read_points,
    write_points,
)
from .polygons import catalan, catalan_generalized
from .triangulation import Triangulation, fingerprint_bytes, initial_triangulation

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAPPED = 2
EXIT_VIOLATION = 3


def _emit(text: str, out: str | None) -> None:
    """Write ``text``, newline-terminated, to the file ``out`` or stdout."""
    text = text if text.endswith("\n") else text + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as stream:
            stream.write(text)


def cmd_generate(args) -> int:
    if args.kind == "convex":
        ps = gen_convex(args.n)
    elif args.kind == "arc":
        ps = gen_convex_arc_in_triangle(args.n)
    else:
        ps = gen_random(args.n, args.seed)
    if args.augment and not isinstance(ps, AugmentedPointSet):
        ps = augment(ps)
    if args.out:
        write_points(ps, args.out)
    else:
        _emit(points_text(ps.xy), None)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    ps = read_points(args.input)
    container = ps
    if len(ps.convex_hull_indices()) == 3:
        container = AugmentedPointSet.from_points(ps)
    result = enumerate_all(container, cap=args.cap)
    v3 = result.vhat(3)
    report = {
        "n": result.interior_count,
        "count": str(result.count),
        "degree_totals": {str(k): str(v) for k, v in result.degree_totals.items()},
        "vhat3": frac_json(v3),
        "vhat3_decimal": float(v3),
        "exhaustive": result.exhaustive,
    }
    _emit(json.dumps(report, indent=2, sort_keys=True), args.out)
    return EXIT_OK if result.exhaustive else EXIT_CAPPED


def _s_plus(path) -> AugmentedPointSet:
    """S+ of a point file: its points if their hull is a triangle, else ``augment`` of them."""
    ps = read_points(path)
    return AugmentedPointSet.from_points(ps) if len(ps.convex_hull_indices()) == 3 else augment(ps)


def cmd_audit(args) -> int:
    P = _s_plus(args.input)
    jobs = _threads()
    rep = audit(P, jobs=jobs, rules=True)
    rules = rep.rules
    v3 = check_v3_recursion(P, lhs=rep.degree_totals.get(3, 0))
    payload = rep.to_json_dict()
    payload["rules"] = rules.to_json_dict()
    payload["v3_recursion"] = {
        "lhs": str(v3.lhs),
        "rhs": str(v3.rhs),
        "ok": v3.ok,
    }
    ok = rep.ok and rules.ok and v3.ok
    payload["ok"] = ok
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_fliptree(args) -> int:
    P = _s_plus(args.input)
    if args.fingerprint is None:
        target = initial_triangulation(P)
    else:
        try:
            states = flip_graph_states(P, cap=args.cap)
            target = next((Triangulation(P, t) for t in states if fingerprint_bytes(t).hex() == args.fingerprint), None)
        except CapExceededError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CAPPED
        if target is None:
            print(f"no triangulation with fingerprint {args.fingerprint}", file=sys.stderr)
            return EXIT_USAGE
    v = Vint(args.point, target)
    tree = build_flip_tree(v)
    _emit(tree.to_dot(), args.out)
    if args.charge:
        rep = charge(v)
        _emit(json.dumps(rep.to_json_dict(), indent=2, sort_keys=True), None)
    return EXIT_OK


def cmd_catalan(args) -> int:
    if args.which == "c":
        value = catalan(args.n)
    elif args.which == "c1":
        value = catalan_generalized(args.n, 1)
    elif args.which == "c2":
        value = catalan_generalized(args.n, 2)
    else:
        if args.r is None:
            print("cr needs --r", file=sys.stderr)
            return EXIT_USAGE
        value = catalan_generalized(args.n, args.r)
    _emit(str(value), args.out)
    return EXIT_OK


def cmd_bounds(args) -> int:
    entries = derived_bounds(args.tr_base, symbolic_sc=args.symbolic)
    if args.format == "csv":
        _emit(bounds_csv(entries), args.out)
    else:
        payload = [
            {
                "quantity": e.quantity,
                "base": frac_json(e.base),
                "table_digits": e.table_digits(),
                "provenance": e.provenance,
            }
            for e in entries
        ]
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return EXIT_OK


def _threads() -> int:
    """Worker processes from TRICHOR_THREADS, clamped to 1..the CPUs this process may use."""
    raw = os.environ.get("TRICHOR_THREADS", "1")
    try:
        jobs = int(raw)
    except ValueError:
        raise ValueError(f"TRICHOR_THREADS must be an integer, got {raw!r}") from None
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(jobs, cpus or 1))


def _cap(text: str) -> int:
    """A ``--cap`` value: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _fraction(text: str) -> Fraction:
    """A ``--tr-base`` value: an exact fraction such as ``30`` or ``59/2``."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"must be a fraction p or p/q with q != 0, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="trichor", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a point-set file")
    g.add_argument("kind", choices=["convex", "arc", "random"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--augment", action="store_true", help="wrap the set in a bounding triangle")
    g.add_argument("--out", default=None)
    g.set_defaults(fn=cmd_generate)

    e = sub.add_parser("enumerate", help="count all triangulations")
    e.add_argument("input")
    e.add_argument("--cap", type=_cap, default=None)
    e.add_argument("--out", default=None)
    e.set_defaults(fn=cmd_enumerate)

    a = sub.add_parser("audit", help="run the full charging audit")
    a.add_argument("input")
    a.add_argument("--out", default=None)
    a.set_defaults(fn=cmd_audit)

    f = sub.add_parser("fliptree", help="export a 3-vint's flip-tree as DOT")
    f.add_argument("input")
    f.add_argument("--fingerprint", default=None, help="hex fingerprint; default: seed triangulation")
    f.add_argument("--point", type=int, required=True)
    f.add_argument("--cap", type=_cap, default=None)
    f.add_argument("--charge", action="store_true", help="also print the charge report")
    f.add_argument("--out", default=None)
    f.set_defaults(fn=cmd_fliptree)

    c = sub.add_parser("catalan", help="Catalan numbers and variants")
    c.add_argument("which", choices=["c", "c1", "c2", "cr"])
    c.add_argument("n", type=int)
    c.add_argument("--r", type=int, default=None)
    c.add_argument("--out", default=None)
    c.set_defaults(fn=cmd_catalan)

    b = sub.add_parser("bounds", help="derived bases for related counts")
    b.add_argument("--tr-base", type=_fraction, default="30")
    b.add_argument("--symbolic", action="store_true")
    b.add_argument("--format", choices=["csv", "json"], default="csv")
    b.add_argument("--out", default=None)
    b.set_defaults(fn=cmd_bounds)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error.
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (TrichorError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
