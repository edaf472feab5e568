"""returnstats benchmark: end-to-end timings per workload, per-layer traces.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; it imports the package from ``src/``.
Workloads are defined in workloads.py and described in README.md.

``--trace 0`` repeats the workload, each repetition a fresh interpreter,
until S seconds have passed (at least MIN_REPS times), adds set-up-only
interpreters up to SETUP_SAMPLES set-up times, checks the outputs and
prints the end-to-end metrics as medians.  ``--trace 1`` runs one untraced
and one traced repetition (torus_strip: also a traced one at workers=1) and
prints the per-layer metrics.  Either way every repetition of a run must
produce byte-identical result files, and a row whose files differ or fail
the output check counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record
(every repetition, digests, provenance) goes to
``.bench_work/<workload>/seed<N>/<mode>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS, make_config

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_REPS = 3
MAX_REPS = 40
SETUP_SAMPLES = 7
DEADLINE_S = 170.0
# Per-layer times and rates that read exactly 0 on a workload of
# BENCHMARK.json that does not exercise the layer: dynamics and targets on
# smith_regen, regenerative on torus_strip, stationary samples on both.
# They are printed and kept in result.json, but the JSON line carries only
# metrics that every listed workload measures.
RECORDED_ONLY = frozenset({
    "dynamics.indicator_block.self_s", "dynamics.indicator_block.points_per_s",
    "dynamics.sliding_window_values.s", "dynamics.stationary_samples.s",
    "targets.contains_points.s", "targets.measure.s", "phase.mu_s",
    "regenerative.generate_stationary.s", "regenerative.generate_stationary.symbols_per_s",
    "layer.dynamics.self_s", "layer.targets.self_s", "layer.regenerative.self_s",
})


class BenchError(RuntimeError):
    """A child process failed; the benchmark prints no result."""


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("RETURNSTATS_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list, log: Path, deadline: float) -> int:
    """Run `argv` from the repository root and return its peak RSS in KiB,
    from the child's rusage.  Raises BenchError on failure."""
    with open(log, "wb") as fh:
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(),
                                stdout=fh, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.send_signal,
                                 (signal.SIGKILL,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log.read_text(errors="replace")[-2000:]
        raise BenchError(f"{' '.join(argv[:2])} exited with {proc.returncode}:\n{tail}")
    return usage.ru_maxrss


def digests(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file()}


def result_digests(d: dict) -> dict:
    """Digests of the result files; the manifest echoes `workers` and the
    output dir, so it is compared only between repetitions of one config."""
    return {k: v for k, v in d.items() if k != "manifest.json"}


class Run:
    """One invocation of the benchmark: a workload on one seed."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        mode = "trace" if trace else "timed"
        self.work = ROOT / ".bench_work" / workload / f"seed{seed}" / mode
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        self.deadline = time.monotonic() + DEADLINE_S
        self.reps = []
        self.n_children = 0

    def config(self, tag: str, workers: int | None = None) -> tuple[Path, Path]:
        out = self.work / f"out_{tag}"
        cfg = make_config(self.workload, self.seed, str(out.relative_to(ROOT)), workers)
        path = self.work / f"config_{tag}.yaml"
        path.write_text(json.dumps(cfg, indent=1))  # JSON is valid YAML
        return path, out

    def rep(self, cfg: Path, out: Path, trace: bool = False, setup_only: bool = False) -> dict:
        """One fresh interpreter: set-up and (unless setup_only) the work."""
        self.n_children += 1
        n = self.n_children
        report_path = self.work / f"child{n}.json"
        argv = [sys.executable, str(BENCH / "child.py"), "--config", str(cfg),
                "--report", str(report_path), "--driver", self.spec["driver"],
                "--mu-samples", str(self.spec.get("mu_samples", 0))]
        if setup_only:
            argv.append("--setup-only")
        elif out.exists():
            shutil.rmtree(out)
        if trace:
            trace_path = self.work / f"trace{n}.json"
            argv += ["--trace", str(trace_path)]
        load_before = os.getloadavg()
        maxrss = spawn(argv + ["--t0", repr(time.monotonic())], self.work / f"child{n}.log",
                       self.deadline)
        report = json.loads(report_path.read_text())
        report.update(load_before=load_before, load_after=os.getloadavg(),
                      peak_rss_mb=maxrss / 1024.0, setup_only=setup_only, traced=trace)
        pkg = Path(report["package_file"]).resolve()
        if ROOT / "src" not in pkg.parents:
            raise BenchError(f"child imported returnstats from {pkg}, not from {ROOT / 'src'}")
        if not setup_only:
            report["digests"] = digests(out)
        if trace:
            report["trace_file"] = str(trace_path.relative_to(ROOT))
            report["trace"] = json.loads(trace_path.read_text())
        self.reps.append(report)
        return report

    def check(self, cfg: Path, out: Path) -> list:
        report = self.work / "check.json"
        predict = self.work / "predict"
        spawn([sys.executable, str(BENCH / "check.py"), "--config", str(cfg),
               "--results", str(out), "--predict", str(predict), "--report", str(report)],
              self.work / "check.log", self.deadline)
        return json.loads(report.read_text())["rows"]


def count_failures(rows: list, work_reps: list, ref: dict) -> tuple[int, int]:
    """(attempted, failed) schedule rows over all work repetitions: a row
    fails when the output check fails it or when any of its result files
    differs from the reference repetition's."""
    attempted = failed = 0
    for rep in work_reps:
        got = result_digests(rep["digests"])
        for row in rows:
            attempted += 1
            label = row["label"]
            mine = {k: v for k, v in got.items() if label in k}
            theirs = {k: v for k, v in ref.items() if label in k}
            if not row["ok"] or not mine or mine != theirs:
                failed += 1
    return attempted, failed


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def timed_run(run: Run, seconds: float) -> tuple[dict, list, int, int]:
    cfg, out = run.config("w")
    start = time.monotonic()
    while len(run.reps) < MIN_REPS or (time.monotonic() - start < seconds
                                       and len(run.reps) < MAX_REPS):
        run.rep(cfg, out)
    work_reps = list(run.reps)
    while len(run.reps) < SETUP_SAMPLES:
        run.rep(cfg, out, setup_only=True)
    rows = run.check(cfg, out)
    attempted, failed = count_failures(rows, work_reps, result_digests(work_reps[0]["digests"]))
    steps = sum(r.get("steps", 0) for r in rows)
    run_s = [r["run_s"] for r in work_reps]
    metrics = {
        "run_s": (statistics.median(run_s), "s"),
        "steps_per_s": (statistics.median(steps / s for s in run_s), "steps/s"),
        "setup_s": (statistics.median(r["setup_s"] for r in run.reps), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in work_reps), "MB"),
        "passed_frac": (1.0 - failed / attempted, "ratio"),
    }
    return metrics, rows, attempted, failed


def traced_run(run: Run) -> tuple[dict, list, int, int]:
    cfg, out = run.config("w")
    plain = run.rep(cfg, out)
    traced = run.rep(cfg, out, trace=True)
    work_reps = [plain, traced]
    single = None
    if run.spec.get("trace_single_worker"):
        cfg1, out1 = run.config("w1", workers=1)
        single = run.rep(cfg1, out1, trace=True)
        work_reps.append(single)
    # the check reads the traced repetition's files; the digests tie them
    # to the untraced ones
    rows = run.check(cfg, out)
    attempted, failed = count_failures(rows, work_reps, result_digests(plain["digests"]))
    metrics = layer_metrics(traced["trace"], plain, rows, single["trace"] if single else None)
    return metrics, rows, attempted, failed


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(trace: dict, plain: dict, rows: list, single_trace: dict | None) -> dict:
    """Per-layer metrics (name -> (value, unit)) of a traced repetition;
    `plain` is the untraced repetition's report, `single_trace` the trace
    of the workers=1 repetition where there is one."""
    tot = tracing.totals(trace)
    zero = {"calls": 0, "s": 0.0, "x1": 0, "x2": 0}

    def t(name):
        return tot.get(name, zero)

    selfs = tracing.self_times(trace)
    layers = tracing.layer_self_times(trace)
    phases = tracing.phase_times(trace)
    busy, wall = tracing.pool_busy_and_wall(trace)
    speedup = 0.0  # 0: not measured on this workload
    if single_trace is not None:
        speedup = _ratio(tracing.pool_busy_and_wall(single_trace)[1], wall)
    root = next(s for s in trace["spans"] if s["name"] == "run")
    traced_run_s = root["end"] - root["start"]
    ib, cp, ao, gs = (t("dynamics.indicator_block"), t("targets.contains_points"),
                      t("estimators.add_orbit"), t("regenerative.generate_stationary"))
    writes = t("cli.write")
    m = {
        "rngstreams.trial_rng.calls": (t("rngstreams.trial_rng")["calls"], "count"),
        "rngstreams.trial_rng.s": (t("rngstreams.trial_rng")["s"], "s"),
        "dynamics.indicator_block.calls": (ib["calls"], "count"),
        "dynamics.indicator_block.points": (ib["x1"], "count"),
        "dynamics.indicator_block.self_s": (selfs.get("dynamics.indicator_block", 0.0), "s"),
        "dynamics.indicator_block.points_per_s": (_ratio(ib["x1"], ib["s"]), "points/s"),
        "dynamics.sliding_window_values.calls": (
            t("dynamics.sliding_window_values")["calls"], "count"),
        "dynamics.sliding_window_values.s": (t("dynamics.sliding_window_values")["s"], "s"),
        "dynamics.stationary_samples.s": (t("dynamics.stationary_samples")["s"], "s"),
        "dynamics.points_per_trial": (
            _ratio(ib["x1"], t("rngstreams.trial_rng")["calls"]), "points"),
        "targets.contains_points.calls": (cp["calls"], "count"),
        "targets.contains_points.points": (cp["x1"], "count"),
        "targets.contains_points.s": (cp["s"], "s"),
        "targets.hit_ratio": (_ratio(cp["x2"], cp["x1"]), "ratio"),
        "targets.measure.s": (t("targets.measure")["s"], "s"),
        "targets.measure.samples": (t("targets.measure")["x1"], "count"),
        "targets.measure.se": (t("targets.measure")["x2"], "prob"),
        "estimators.add_orbit.calls": (ao["calls"], "count"),
        "estimators.add_orbit.steps": (ao["x1"], "count"),
        "estimators.add_orbit.s": (ao["s"], "s"),
        "estimators.add_orbit.steps_per_s": (_ratio(ao["x1"], ao["s"]), "steps/s"),
        "estimators.batch.busy_over_wall": (_ratio(busy, wall), "ratio"),
        "estimators.batch.speedup_2w": (speedup, "ratio"),
        "estimators.entries_over_min": (
            statistics.mean(r.get("entries_over_min", 0.0) for r in rows), "ratio"),
        "regenerative.generate_stationary.calls": (gs["calls"], "count"),
        "regenerative.generate_stationary.symbols": (gs["x1"], "count"),
        "regenerative.generate_stationary.s": (gs["s"], "s"),
        "regenerative.generate_stationary.symbols_per_s": (_ratio(gs["x1"], gs["s"]), "symbols/s"),
        "phase.cluster_s": (phases["cluster"], "s"),
        "phase.mu_s": (phases["mu"], "s"),
        "phase.counting_s": (phases["counting"], "s"),
        "setup.import_s": (plain["import_s"], "s"),
        "config.load_s": (plain["load_s"], "s"),
        "cli.write_s": (t("cli.write")["s"] + t("cli.serialize")["s"], "s"),
        "cli.bytes": (writes["x1"], "bytes"),
        "trace.run_s": (traced_run_s, "s"),
        "trace.untraced_run_s": (plain["run_s"], "s"),
        "trace.overhead_s": (traced_run_s - plain["run_s"], "s"),
        "trace.self_sum_s": (sum(layers.values()), "s"),
    }
    for layer, s in layers.items():
        m[f"layer.{layer}.self_s"] = (s, "s")
    # a hook that no longer resolves makes the metrics that read it absent
    gone = {h[2] for h in tracing.HOOKS if f"{h[0]}:{h[1]}" in set(trace["absent"])}
    return {k: v for k, v in m.items()
            if not any(k.startswith(g + ".") or k == g for g in gone)}


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def provenance(run: Run) -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(str(idx / f)) for f in ("level", "type", "size"))
        if level and size:
            caches[f"L{level.strip()}{(kind or '').strip()[:1].lower()}"] = size.strip()
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    src = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    versions = run.reps[0]["versions"] if run.reps else {}
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, "caches": caches, "platform": platform.platform(),
            "versions": versions, "git_commit": commit, "source_sha256": src.hexdigest(),
            "workload": run.workload, "seed": run.seed}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "returnstats" / "__init__.py").is_file():
        print(f"error: no returnstats package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, bool(args.trace))
    try:
        if args.trace:
            metrics, rows, attempted, failed = traced_run(run)
        else:
            metrics, rows, attempted, failed = timed_run(run, args.seconds)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    record = {"metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "attempted": attempted, "failed": failed, "rows": rows,
              "provenance": provenance(run),
              "reps": [{k: v for k, v in r.items() if k != "trace"} for r in run.reps]}
    (run.work / "result.json").write_text(json.dumps(record, indent=1))
    n_work = sum(1 for r in run.reps if not r["setup_only"])
    print(f"# {args.workload} seed {args.seed}: {n_work} work repetitions, "
          f"{len(run.reps)} set-ups, {attempted} rows attempted, {failed} failed")
    for row in rows:
        verdict = "pass" if row["ok"] else "FAIL " + "; ".join(row["reasons"])
        print(f"# row {row['label']}: {verdict}")
    for k, (v, u) in metrics.items():
        print(f"{k:<48} {v:>16.6g} {u}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: v for k, v in record["metrics"].items()
                                  if k not in RECORDED_ONLY}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
