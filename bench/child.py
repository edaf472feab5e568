"""One benchmark repetition of a workload, in a fresh interpreter.

    python bench/child.py --config CFG --report OUT.json --t0 T
        [--driver simulate|library] [--mu-samples S] [--setup-only]
        [--trace TRACE.json]

Set-up is ``import returnstats``, the config load and the system and target
build; the work is ``returnstats simulate`` on CFG (driver ``simulate``) or
the same steps as library calls with an explicit mu(U) sample count (driver
``library``).  Writes monotonic-clock timestamps to OUT.json; the parent
passes its spawn time as --t0, so set-up includes interpreter start.  With
--trace the work runs under the benchmark's tracer and the trace goes to
TRACE.json.
"""

from __future__ import annotations

import time

T_MAIN = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import MU_TRIAL  # noqa: E402


def run_library(rs, config_path: str, mu_samples: int) -> None:
    """`returnstats simulate`'s steps with mu(U) from `mu_samples`
    stationary draws.

    Calls go through the package namespace at call time so the tracer's
    wrappers see them.  Result files use simulate's names and writers."""
    config = rs.ExperimentConfig.load(config_path)
    out = Path(config.outputs["dir"])
    out.mkdir(parents=True, exist_ok=True)
    system = config.build_system()
    for row in config.schedule:
        label = row.label(config.scale_name)
        target = config.build_target(row)
        cs = rs.cluster_statistics(system, target, row.K, row.min_entries, row.max_orbit,
                                   config.seed, orbit_len=row.orbit_len,
                                   workers=config.workers)
        mu = rs.measure(target, system, mu_samples, (config.seed, MU_TRIAL))
        cd = rs.counting_distribution(system, target, row.t, row.n_trials, config.seed,
                                      mu=mu.mean, workers=config.workers)
        (out / f"cluster_{label}.json").write_text(cs.to_json())
        (out / f"counting_{label}.json").write_text(cd.to_json())
        (out / f"cluster_{label}.csv").write_text(cs.to_csv())
        (out / f"counting_{label}.csv").write_text(cd.to_csv())
        (out / f"mu_{label}.json").write_text(json.dumps(
            {"mean": mu.mean, "std_error": mu.std_error, "n_samples": mu.n_samples}))


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--config", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--driver", choices=["simulate", "library"], default="simulate")
    p.add_argument("--mu-samples", type=int, default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace")
    args = p.parse_args(argv)

    t_import = time.monotonic()
    import returnstats as rs
    import returnstats.cli
    t_load = time.monotonic()
    config = rs.ExperimentConfig.load(args.config)
    t_build = time.monotonic()
    if config.system["kind"] == "regenerative":
        config.build_regen_spec()
    else:
        config.build_system()
        for row in config.schedule:
            config.build_target(row)
    t_setup = time.monotonic()
    report = {
        "t0": args.t0, "t_main": T_MAIN, "t_setup": t_setup,
        "import_s": t_load - t_import, "load_s": t_build - t_load,
        "build_s": t_setup - t_build, "setup_s": t_setup - args.t0,
        "versions": {"returnstats": rs.__version__, "python": sys.version.split()[0],
                     "numpy": sys.modules["numpy"].__version__,
                     "scipy": sys.modules["scipy"].__version__},
        "package_file": rs.__file__,
    }
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer(run_id=f"{config.experiment}-seed{config.seed}-{Path(args.trace).stem}")
            tracer.install()
        t_work = time.monotonic()
        if tracer is not None:
            with tracer.root():
                rc = _work(rs, args)
            tracer.uninstall()
        else:
            rc = _work(rs, args)
        t_end = time.monotonic()
        if rc != 0:
            print(f"simulate exited with {rc}", file=sys.stderr)
            return 3
        report.update(run_s=t_end - t_work)
        if tracer is not None:
            Path(args.trace).write_text(json.dumps(tracer.to_json()))
    Path(args.report).write_text(json.dumps(report))
    return 0


def _work(rs, args) -> int:
    if args.driver == "library":
        run_library(rs, args.config, args.mu_samples)
        return 0
    return rs.cli.main(["--config", args.config, "simulate"])


if __name__ == "__main__":
    sys.exit(main())
