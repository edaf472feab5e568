"""In-memory tracer that times returnstats' layers from outside the package.

`Tracer.install` wraps functions and methods of the package (and
``pathlib.Path.write_text``, which the CLI writes through) by replacing
every module or class attribute that refers to them.  Coarse calls --
phases, pool batches, orbit blocks, mu(U) -- become spans with name,
start, end and parent; calls made once per step or per trial (membership
tests, RNG streams, tallies, block streams) are aggregated into count and
total per parent span, so tracing a 10^6-call lockstep stays cheap.

A hook whose target no longer exists is recorded in ``Tracer.absent`` and
its metrics read as absent; it never stops the run.

Self time is wall-clock share: at every instant the innermost active spans
(those with no active child, across all threads) split the elapsed time
equally, and a span's share is then divided between its own layer and the
aggregated calls made inside it in proportion to their self time.  The
layer self times therefore sum to the root span's duration.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict

SPAN, AGG = "span", "agg"


def _points(args, kwargs, result):
    return (int(result.shape[0]), int(result.sum()))


def _window_points(args, kwargs, result):
    return (int(result.shape[-1]), 0)


def _block_points(args, kwargs, result):
    return (int(result.size), 0)


def _orbit_steps(args, kwargs, result):
    return (int(args[1].size), 0)


def _stream_symbols(args, kwargs, result):
    return (int(result.symbols.size), 0)


def _measure_counts(args, kwargs, result):
    return (int(result.n_samples), float(result.std_error))


def _text_bytes(args, kwargs, result):
    return (len(args[1].encode()), 0)


# (module, attribute path, metric name, layer, kind, extra counters).
# "Class#method" wraps the method on the class and every subclass that
# defines it; "Class.method" wraps that class's attribute only.
HOOKS = [
    ("returnstats.rngstreams", "trial_rng", "rngstreams.trial_rng", "rngstreams", AGG, None),
    ("returnstats.dynamics", "sliding_window_values", "dynamics.sliding_window_values",
     "dynamics", AGG, _window_points),
    ("returnstats.dynamics", "MapSystem#indicator_block", "dynamics.indicator_block",
     "dynamics", SPAN, _block_points),
    ("returnstats.dynamics", "MapSystem#stationary_samples", "dynamics.stationary_samples",
     "dynamics", SPAN, None),
    ("returnstats.targets", "TargetSet#contains_points", "targets.contains_points",
     "targets", AGG, _points),
    ("returnstats.targets", "measure", "targets.measure", "targets", SPAN, _measure_counts),
    ("returnstats.estimators", "cluster_statistics", "estimators.cluster_statistics",
     "estimators", SPAN, None),
    ("returnstats.estimators", "counting_distribution", "estimators.counting_distribution",
     "estimators", SPAN, None),
    ("returnstats.estimators", "_indicator_batch", "estimators.batch", "estimators", SPAN, None),
    ("returnstats.estimators", "ClusterAccumulator.add_orbit", "estimators.add_orbit",
     "estimators", AGG, _orbit_steps),
    ("returnstats.regenerative", "generate_stationary", "regenerative.generate_stationary",
     "regenerative", AGG, _stream_symbols),
    ("returnstats.regenerative", "regen_cluster_stats", "regenerative.regen_cluster_stats",
     "regenerative", SPAN, None),
    ("returnstats.regenerative", "regen_counting_distribution",
     "regenerative.regen_counting_distribution", "regenerative", SPAN, None),
    ("returnstats.config", "ExperimentConfig.load", "config.load", "config", SPAN, None),
    ("returnstats.estimators", "ClusterStats#to_json", "cli.serialize", "cli", AGG, None),
    ("returnstats.estimators", "ClusterStats#to_csv", "cli.serialize", "cli", AGG, None),
    ("returnstats.distributions", "DiscreteDistribution#to_json", "cli.serialize", "cli",
     AGG, None),
    ("returnstats.distributions", "DiscreteDistribution#to_csv", "cli.serialize", "cli",
     AGG, None),
    ("pathlib", "Path.write_text", "cli.write", "cli", AGG, _text_bytes),
]
LAYER_OF = {h[2]: h[3] for h in HOOKS}
LAYER_OF["run"] = "other"
LAYERS = ["rngstreams", "dynamics", "targets", "estimators", "regenerative",
          "config", "cli", "other"]
POOL_SPAN = "estimators.batch"


class Tracer:
    """Spans and aggregated counters of one traced run (``run_id``)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = {}            # id -> (parent, name, start, end, extra)
        self.absent = []           # hook targets that could not be resolved
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._tables = []          # one per thread: (parent, name) -> [calls, total, self, x1, x2]
        self._lock = threading.Lock()
        self._undo = []
        self._root = None
        self._pool_parent = None

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
            self._local.table = defaultdict(lambda: [0, 0.0, 0.0, 0, 0])
            with self._lock:
                self._tables.append(self._local.table)
        return st

    def _parent(self, stack) -> int | None:
        for frame in reversed(stack):
            if frame[0] == SPAN:
                return frame[1]
        # a pool thread's work was caused by the batch span that started it
        return self._pool_parent if self._pool_parent is not None else self._root

    def _wrap(self, fn, name, kind, extra):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            if kind == SPAN:
                frame = [SPAN, next(tracer._ids), 0.0]
            else:
                frame = [AGG, name, 0.0]
            stack.append(frame)
            pool = kind == SPAN and name == POOL_SPAN
            if pool:
                saved, tracer._pool_parent = tracer._pool_parent, frame[1]
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if pool:
                    tracer._pool_parent = saved
                if stack and stack[-1][0] == AGG:
                    stack[-1][2] += t1 - t0
            counts = extra(args, kwargs, result) if extra else (0, 0)
            if kind == SPAN:
                tracer.spans[frame[1]] = (parent, name, t0, t1, counts)
            else:
                row = tracer._local.table[(parent, name)]
                row[0] += 1
                row[1] += t1 - t0
                row[2] += t1 - t0 - frame[2]
                row[3] += counts[0]
                row[4] += counts[1]
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def root(self):
        """The root span, around the traced work."""
        self._root = next(self._ids)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.spans[self._root] = (None, "run", t0, time.perf_counter(), (0, 0))

    # -- installation --------------------------------------------------------

    def install(self, hooks=HOOKS) -> None:
        for module_name, path, name, _layer, kind, extra in hooks:
            try:
                self._install_one(module_name, path, name, kind, extra)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{module_name}:{path}")

    def _install_one(self, module_name, path, name, kind, extra):
        module = importlib.import_module(module_name)
        if "#" in path or "." in path:
            cls_name, meth = path.replace("#", ".").split(".")
            base = getattr(module, cls_name)
            classes = [base]
            if "#" in path:
                classes += _subclasses(base)
            found = False
            for cls in classes:
                raw = cls.__dict__.get(meth)
                if raw is None:
                    continue
                found = True
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name, kind, extra))
                else:
                    new = self._wrap(raw, name, kind, extra)
                setattr(cls, meth, new)
                self._undo.append((cls, meth, raw))
            if not found:
                raise AttributeError(path)
            return
        orig = getattr(module, path)
        wrapped = self._wrap(orig, name, kind, extra)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "") or ""
            if mod_name != "returnstats" and not mod_name.startswith("returnstats."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def aggregates(self) -> dict:
        """(parent span, name) -> [calls, total_s, self_s, x1, x2], merged over threads."""
        merged = defaultdict(lambda: [0, 0.0, 0.0, 0, 0])
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for key, row in list(table.items()):
                acc = merged[key]
                for i, v in enumerate(row):
                    acc[i] += v
        return dict(merged)

    def to_json(self) -> dict:
        """Everything recorded, in a JSON-serializable form."""
        return {
            "run_id": self.run_id,
            "absent": self.absent,
            "spans": [{"id": sid, "parent": p, "name": n, "start": s, "end": e,
                       "counts": list(c)}
                      for sid, (p, n, s, e, c) in sorted(self.spans.items())],
            "aggregates": [{"parent": p, "name": n, "calls": r[0], "total_s": r[1],
                            "self_s": r[2], "counts": [r[3], r[4]]}
                           for (p, n), r in sorted(self.aggregates().items(),
                                                   key=lambda kv: (kv[0][0] or 0, kv[0][1]))],
        }


def _subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out += _subclasses(sub)
    return out


# ---------------------------------------------------------------------------
# analysis of a recorded trace (works on Tracer.to_json() output)
# ---------------------------------------------------------------------------


def wall_shares(spans: list) -> tuple[dict, dict]:
    """Per span id: (wall-clock share, time spent as an innermost span).

    Between consecutive span boundaries the active spans with no active
    child split the interval equally.
    """
    events = []
    for s in spans:
        events.append((s["start"], 1, s["id"]))
        events.append((s["end"], 0, s["id"]))
    events.sort()
    parent = {s["id"]: s["parent"] for s in spans}
    active, open_children = set(), defaultdict(int)
    share, leaf = defaultdict(float), defaultdict(float)
    prev = None
    for t, is_start, sid in events:
        if prev is not None and t > prev and active:
            leaves = [a for a in active if open_children[a] == 0]
            dt = t - prev
            for a in leaves:
                share[a] += dt / len(leaves)
                leaf[a] += dt
        prev = t
        p = parent[sid]
        if is_start:
            active.add(sid)
            if p in active:
                open_children[p] += 1
        else:
            active.discard(sid)
            if p in active:
                open_children[p] -= 1
    return dict(share), dict(leaf)


def self_times(trace: dict) -> dict:
    """Wall-share self time per traced name (span names and aggregated names)."""
    spans = trace["spans"]
    share, leaf = wall_shares(spans)
    by_parent = defaultdict(list)
    for a in trace["aggregates"]:
        by_parent[a["parent"]].append(a)
    out = defaultdict(float)
    for s in spans:
        w, lt = share.get(s["id"], 0.0), leaf.get(s["id"], 0.0)
        if lt <= 0:
            continue
        inner = by_parent.get(s["id"], [])
        inner_self = sum(a["self_s"] for a in inner)
        scale = w / max(lt, inner_self)
        for a in inner:
            out[a["name"]] += a["self_s"] * scale
        out[s["name"]] += w - inner_self * scale
    return dict(out)


def layer_self_times(trace: dict) -> dict:
    per_layer = {layer: 0.0 for layer in LAYERS}
    for name, t in self_times(trace).items():
        per_layer[LAYER_OF.get(name, "other")] += t
    return per_layer


def totals(trace: dict) -> dict:
    """Per name: calls, inclusive seconds summed over calls, and counters."""
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "x1": 0, "x2": 0})
    for s in trace["spans"]:
        row = out[s["name"]]
        row["calls"] += 1
        row["s"] += s["end"] - s["start"]
        row["x1"] += s["counts"][0]
        row["x2"] += s["counts"][1]
    for a in trace["aggregates"]:
        row = out[a["name"]]
        row["calls"] += a["calls"]
        row["s"] += a["total_s"]
        row["x1"] += a["counts"][0]
        row["x2"] += a["counts"][1]
    return dict(out)


def phase_times(trace: dict) -> dict:
    """Split of the traced run into the cluster, mu(U) and counting phases."""
    by_id = {s["id"]: s for s in trace["spans"]}

    def dur(s):
        return s["end"] - s["start"]

    def inside(s, names):
        p = s["parent"]
        while p is not None:
            if by_id[p]["name"] in names:
                return True
            p = by_id[p]["parent"]
        return False

    counting = {"estimators.counting_distribution", "regenerative.regen_counting_distribution"}
    cluster = {"estimators.cluster_statistics", "regenerative.regen_cluster_stats"}
    phases = {"cluster": 0.0, "mu": 0.0, "counting": 0.0}
    for s in trace["spans"]:
        if s["name"] in cluster:
            phases["cluster"] += dur(s)
        elif s["name"] in counting:
            phases["counting"] += dur(s)
        elif s["name"] == "targets.measure":
            phases["mu"] += dur(s)
            if inside(s, counting):
                phases["counting"] -= dur(s)
    return phases


def pool_busy_and_wall(trace: dict) -> tuple[float, float]:
    """Summed orbit-block time inside pool batches, and the batches' wall time."""
    by_id = {s["id"]: s for s in trace["spans"]}
    wall = busy = 0.0
    for s in trace["spans"]:
        if s["name"] == POOL_SPAN:
            wall += s["end"] - s["start"]
        elif (s["name"] == "dynamics.indicator_block" and s["parent"] in by_id
              and by_id[s["parent"]]["name"] == POOL_SPAN):
            busy += s["end"] - s["start"]
    return busy, wall
