"""Span tracing of trichor's layers from outside the package.

The tracer wraps public functions where the calling modules look them up
(every ``trichor.*`` module attribute bound to the function, or the class
attribute for methods) and restores them afterwards; no source file
changes.  Each span has a name, start, end and parent.  Stacks are kept
per thread, because the pool's feeder thread drives the traversal in a
``jobs=2`` audit.  Generators are wrapped per ``next()`` so that traversal
self time excludes the consumer's work.

Spans are kept in memory.  API-level spans are stored whole; the
high-frequency ones (per-state traversal steps, fingerprints, edge lists)
are folded into per-(name, parent) totals as they close, which keeps a
run of a million spans within a few kilobytes.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import threading
import time

# (span name, module, attribute path, store whole spans, measure)
# ``measure(args, result)`` adds a number to the span's running total.
TARGETS = [
    ("geometry.gen_random", "trichor.geometry", "gen_random", True, None),
    ("geometry.gen_convex", "trichor.geometry", "gen_convex", True, None),
    ("geometry.gen_convex_arc_in_triangle", "trichor.geometry", "gen_convex_arc_in_triangle", True, None),
    ("geometry.augment", "trichor.geometry", "augment", True, None),
    ("geometry.read_points", "trichor.geometry", "read_points", True, None),
    ("geometry.from_points", "trichor.geometry", "AugmentedPointSet.from_points", True, None),
    ("triangulation.initial_triangulation", "trichor.triangulation", "initial_triangulation", True, None),
    ("triangulation.fingerprint_bytes", "trichor.triangulation", "fingerprint_bytes", False, None),
    ("triangulation.edges_of", "trichor.triangulation", "edges_of", False, None),
    ("triangulation.canonical_triangles", "trichor.triangulation", "canonical_triangles", False, None),
    ("triangulation.edge_apex_map", "trichor.triangulation", "edge_apex_map", False, None),
    ("enumeration.flip_graph_states", "trichor.enumeration", "flip_graph_states", False, None),
    ("enumeration.enumerate_all", "trichor.enumeration", "enumerate_all", True, None),
    ("enumeration.check_v3_recursion", "trichor.enumeration", "check_v3_recursion", True, None),
    ("charging.build_flip_tree_raw", "trichor.charging", "build_flip_tree_raw", False, None),
    ("charging.iter_subtrees", "trichor.charging", "iter_subtrees", False, lambda a, r: len(r)),
    ("charging.audit", "trichor.charging", "audit", True, None),
    ("charging.check_structural_rules", "trichor.charging", "check_structural_rules", True, None),
    ("polygons.lookup", "trichor.charging", "_PolygonCounter.count", False, None),
    ("polygons.count_triangulations", "trichor.polygons", "count_triangulations", False, lambda a, r: len(a[0])),
    ("cli.main", "trichor.cli", "main", True, None),
]

WALK = "enumeration.flip_graph_states"


class _ThreadState:
    __slots__ = ("main", "stack", "totals", "spans")

    def __init__(self, main: bool):
        self.main = main
        self.stack: list[list] = []  # frames: [name, child_time, start, parent]
        # (name, parent) -> [calls, total_s, self_s, measure]
        self.totals: dict[tuple, list] = {}
        self.spans: list[tuple] = []  # (name, parent, start, end)


class Tracer:
    """Installs span wrappers on trichor's layer functions."""

    def __init__(self):
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._patches: list[tuple[object, str, object]] = []
        # Forked pool workers inherit the wrappers; they must not record.
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self):
        self.active = False

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState(threading.current_thread() is threading.main_thread())
            with self._lock:
                self._states.append(st)
        return st

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name):
        st = self._state()
        stack = st.stack
        frame = [name, 0.0, 0.0, stack[-1][0] if stack else None]
        stack.append(frame)
        frame[2] = time.perf_counter()
        return st, frame

    def _leave(self, st, frame, store, amount=0):
        end = time.perf_counter()
        name, child, start, parent = frame
        dur = end - start
        stack = st.stack
        stack.pop()
        if stack:
            stack[-1][1] += dur
        key = (name, parent)
        tot = st.totals.get(key)
        if tot is None:
            tot = st.totals[key] = [0, 0.0, 0.0, 0]
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - child
        tot[3] += amount
        if store:
            st.spans.append((name, parent, start, end))

    def _wrap_function(self, fn, name, store, measure):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            st, frame = self._enter(name)
            amount = 0
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    amount = measure(args, result)
            finally:
                self._leave(st, frame, store, amount)
            return result

        return wrapper

    def _wrap_generator(self, fn, name):
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not self.active:
                return gen
            self._count(name + ".walk")
            return self._steps(gen, name)

        return wrapper

    def _count(self, name):
        st = self._state()
        parent = st.stack[-1][0] if st.stack else None
        tot = st.totals.setdefault((name, parent), [0, 0.0, 0.0, 0])
        tot[0] += 1

    def _steps(self, gen, name):
        """Yield from ``gen`` with one span per next(); a span's measure is
        1 when it produced a state."""
        while True:
            st, frame = self._enter(name)
            produced = 0
            try:
                item = next(gen)
                produced = 1
            except StopIteration:
                return
            finally:
                self._leave(st, frame, False, produced)
            yield item

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every target that the loaded trichor version still has."""
        for name, modname, path, store, measure in TARGETS:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                continue
            owner_path, _, attr = path.rpartition(".")
            owner = mod
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                continue
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap_function(raw.__func__, name, store, measure))
                self._patch(owner, attr, wrapped)
            elif owner is not mod:
                self._patch(owner, attr, self._wrap_function(raw, name, store, measure))
            else:
                if inspect.isgeneratorfunction(raw):
                    wrapped = self._wrap_generator(raw, name)
                else:
                    wrapped = self._wrap_function(raw, name, store, measure)
                for m in list(sys.modules.values()):
                    mname = getattr(m, "__name__", "")
                    if mname != "trichor" and not mname.startswith("trichor."):
                        continue
                    for key, value in list(vars(m).items()):
                        if value is raw:
                            self._patch(m, key, wrapped)
        self.active = True

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        self.active = False
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def reset(self):
        with self._lock:
            self._states.clear()
        self._local = threading.local()

    # -- results ----------------------------------------------------------

    def totals(self):
        """Yield (name, parent, on_main_thread, calls, total_s, self_s, measure)."""
        for st in list(self._states):
            for (name, parent), (calls, total, self_s, amount) in st.totals.items():
                yield name, parent, st.main, calls, total, self_s, amount

    def spans(self) -> list[tuple]:
        out = []
        for st in list(self._states):
            out.extend((name, parent, st.main, start, end) for name, parent, start, end in st.spans)
        return sorted(out, key=lambda s: s[3])


def layer_metrics(tracer: Tracer, wall_s: float, children_cpu_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced iteration.  A ratio whose base is
    zero (the layer did no work) is reported as 0."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    selfs: dict[str, float] = {}
    amount: dict[str, float] = {}
    audit_trees = 0
    lookup_dp_calls = 0
    feeder_walk_s = 0.0
    for name, parent, main, c, t, s, a in tracer.totals():
        calls[name] = calls.get(name, 0) + c
        total[name] = total.get(name, 0.0) + t
        selfs[name] = selfs.get(name, 0.0) + s
        amount[name] = amount.get(name, 0) + a
        if name == "charging.build_flip_tree_raw" and parent == "charging.audit":
            audit_trees += c
        if name == "polygons.count_triangulations" and parent == "polygons.lookup":
            lookup_dp_calls += c
        if name == WALK and not main:
            feeder_walk_s += t

    def ratio(num, den):
        return num / den if den else 0.0

    states = amount.get(WALK, 0)
    dp_calls = calls.get("polygons.count_triangulations", 0)
    lookups = calls.get("polygons.lookup", 0)
    return {
        "geometry.self_s": sum(v for k, v in selfs.items() if k.startswith("geometry.")),
        "triangulation.initial_s": total.get("triangulation.initial_triangulation", 0.0),
        "triangulation.fingerprint_calls": calls.get("triangulation.fingerprint_bytes", 0),
        "triangulation.fingerprint_self_s": selfs.get("triangulation.fingerprint_bytes", 0.0),
        "triangulation.edges_of_calls": calls.get("triangulation.edges_of", 0),
        "triangulation.edges_of_self_s": selfs.get("triangulation.edges_of", 0.0),
        "triangulation.canon_self_s": selfs.get("triangulation.canonical_triangles", 0.0),
        "triangulation.apex_map_self_s": selfs.get("triangulation.edge_apex_map", 0.0),
        "enumeration.walks": calls.get(WALK + ".walk", 0),
        "enumeration.states": states,
        "enumeration.self_s": selfs.get(WALK, 0.0),
        "enumeration.us_per_state": 1e6 * ratio(total.get(WALK, 0.0), states),
        "enumeration.degree_pass_s": selfs.get("enumeration.enumerate_all", 0.0),
        "enumeration.v3_recursion_s": total.get("enumeration.check_v3_recursion", 0.0),
        "charging.flip_trees": calls.get("charging.build_flip_tree_raw", 0),
        "charging.flip_tree_self_s": selfs.get("charging.build_flip_tree_raw", 0.0),
        "charging.subtree_calls": calls.get("charging.iter_subtrees", 0),
        "charging.subtrees": amount.get("charging.iter_subtrees", 0),
        "charging.subtree_self_s": selfs.get("charging.iter_subtrees", 0.0),
        "charging.charge_cache_hit_ratio": (
            1.0 - ratio(calls.get("charging.iter_subtrees", 0), audit_trees) if audit_trees else 0.0
        ),
        "charging.audit_self_s": selfs.get("charging.audit", 0.0),
        "charging.rules_self_s": selfs.get("charging.check_structural_rules", 0.0),
        "polygons.dp_calls": dp_calls,
        "polygons.dp_self_s": selfs.get("polygons.count_triangulations", 0.0),
        "polygons.lookups": lookups,
        "polygons.cache_hit_ratio": 1.0 - ratio(lookup_dp_calls, lookups) if lookups else 0.0,
        "polygons.mean_k": ratio(amount.get("polygons.count_triangulations", 0), dp_calls),
        "fanout.parent_traversal_s": feeder_walk_s,
        "fanout.serial_share": ratio(feeder_walk_s, wall_s),
        "fanout.worker_cpu_s": children_cpu_s,
        "cli.self_s": selfs.get("cli.main", 0.0),
    }
