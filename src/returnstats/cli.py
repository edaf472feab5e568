"""Command-line experiment runner.

Subcommands:

* ``predict``   -- write analytic alpha/lambda tables and the predicted
  counting pmf for each schedule row;
* ``simulate``  -- run the Monte Carlo estimators for each schedule row;
* ``compare``   -- goodness-of-fit between a predicted pmf and an
  empirical counting law; exit 0 when the chi-square p-value clears the
  threshold, 1 otherwise.

Exit codes: 0 pass, 1 statistical fail, 2 usage or config error.
Parameter precedence: command-line flags > config file values.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cml_theory import cml_prediction
from .config import ConfigError, ExperimentConfig, _threshold
from .distributions import ClusterSizeDist, DiscreteDistribution, compound_poisson_pmf
from .dynamics import CmlSystem, LinearInterval, LinearMod1System, TorusAffineSystem
from .estimators import cluster_statistics, counting_distribution
from .records import csv_table, from_json_fields, json_fields
from .regenerative import (RegenSpec, level_measure, regen_cluster_stats,
                           regen_counting_distribution)
from .stats import chi_square_gof
from .targets import DiagonalStrip

__all__ = ["main", "cmd_predict", "cmd_simulate", "cmd_compare"]

_PMF_KMAX = 60


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    d = config.to_dict()
    for key in ("seed", "workers", "threshold"):
        if getattr(args, key) is not None:
            d[key] = getattr(args, key)
    if args.out is not None:
        d["outputs"]["dir"] = args.out
    return ExperimentConfig.from_dict(d)


def _out_dir(config: ExperimentConfig) -> Path:
    p = Path(config.outputs["dir"])
    p.mkdir(parents=True, exist_ok=True)
    return p


def _write(path: Path, text: str, manifest_entries: list) -> None:
    path.write_text(text)
    manifest_entries.append(str(path.name))


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Prediction:
    """A schedule row's analytic law, as written to ``predict_<label>.json``."""

    alpha_hat: np.ndarray
    lambdas: np.ndarray
    extremal_index: float
    counting_pmf: DiscreteDistribution | None = None


def _analytic_prediction(system, target, row) -> _Prediction:
    """The row's limit law, read from the built system (or RegenSpec) and
    target; raises ConfigError for a pair the package has no law for.  Each
    family names its cluster-size law and the lambda table it knows exactly;
    the rest of the law follows from the cluster-size law."""
    if isinstance(system, RegenSpec) and system.block_rule == "smith":
        # the cluster mass escapes to ever longer blocks, so there is no
        # compound Poisson law: alpha_hat_k = 1/2 for every k >= 2
        return _Prediction(np.concatenate([[1.0], np.full(row.k_max, 0.5)]),
                           np.concatenate([[1.0], np.zeros(row.k_max - 1)]), 0.5)
    if isinstance(system, (TorusAffineSystem, LinearMod1System)):
        # geometric clusters of ratio a^-period (Polya-Aeppli): the torus
        # strip surrounds the fixed line {y = 0}, and a ball around a point
        # of no period has clusters of size 1 (Poisson)
        period = (1 if isinstance(system, TorusAffineSystem)
                  else system.minimal_period(target.center[0]))
        clusters = (ClusterSizeDist.single() if period is None
                    else ClusterSizeDist.geometric(float(system.a) ** -period))
        table = np.concatenate([clusters.lambdas, np.zeros(row.k_max)])[:row.k_max]
    elif isinstance(system, CmlSystem) and isinstance(target, DiagonalStrip):
        spec = system.spec
        if not isinstance(spec.base_map, LinearInterval):
            raise ConfigError(f"no analytic law for a lattice of {type(spec.base_map).__name__}"
                              " maps: the invariant density of the base map is not known")
        # Lebesgue measure along the diagonal; lambda_1..lambda_{k_max-1} are
        # exact, and the rest is the geometric envelope's tail
        clusters = cml_prediction(spec.base_map, np.ones_like, spec.n, spec.gamma, row.k_max)
        table = clusters.lambdas[:row.k_max - 1]
    elif isinstance(system, RegenSpec):
        clusters, table = system.cluster_dist, system.cluster_dist.lambdas
    else:
        raise ConfigError(f"no analytic law for a {type(system).__name__} with a "
                          f"{type(target).__name__} target")
    alpha_hat, theta = clusters.alpha_hat(row.k_max + 1), clusters.extremal_index
    return _Prediction(alpha_hat, table, theta,
                       compound_poisson_pmf(theta * row.t, clusters, _PMF_KMAX))


def cmd_predict(config: ExperimentConfig) -> int:
    system = config.build_system()
    # compute everything first so a failure leaves no partial files
    results = [(row, _analytic_prediction(system, config.build_target(row), row))
               for row in config.schedule]
    out = _out_dir(config)
    entries: list = []
    fmts = config.outputs["formats"]
    for row, pred in results:
        label = row.label(config.scale_name)
        if "json" in fmts:
            _write(out / f"predict_{label}.json", json.dumps(json_fields(pred)), entries)
            if pred.counting_pmf is not None:
                _write(out / f"counting_pmf_{label}.json", pred.counting_pmf.to_json(),
                       entries)
        if "csv" in fmts:
            table = csv_table("k", {"alpha_hat": pred.alpha_hat, "lambda": pred.lambdas})
            _write(out / f"predict_{label}.csv", table, entries)
    _write_manifest(config, out, entries, {})
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(config: ExperimentConfig) -> int:
    out = _out_dir(config)
    entries: list = []
    flags: dict = {}
    fmts = config.outputs["formats"]
    system = config.build_system()
    regen = isinstance(system, RegenSpec)
    counted: dict = {}  # (scale, t, n_trials) -> its counting law, shared by every K
    streams: dict = {}  # (m, stream_len, n_streams) -> the cluster streams' hit runs, ditto

    for row in config.schedule:
        label = row.label(config.scale_name)
        target = config.build_target(row)
        counting = (row.scale, row.t, row.n_trials)
        if regen:
            # load fills in every regenerative row's stream_len
            n_streams = max(4, math.ceil(
                row.min_entries / level_measure(system, target) / row.stream_len) + 1)
            runs = streams.setdefault((target, row.stream_len, n_streams), [])
            cs = regen_cluster_stats(system, target, row.K, n_streams, config.seed,
                                     stream_len=row.stream_len, workers=config.workers,
                                     runs=runs)
        else:
            cs = cluster_statistics(system, target, row.K, row.min_entries,
                                    row.max_orbit, config.seed,
                                    orbit_len=row.orbit_len, workers=config.workers)
        if counting not in counted:
            # mu(U) without a closed form: the cluster hit rate of this law's first row
            counted[counting] = (
                regen_counting_distribution(system, target, row.t, row.n_trials, config.seed)
                if regen else counting_distribution(
                    system, target, row.t, row.n_trials, config.seed,
                    mu=None if system.preserves_lebesgue else cs.mu_hat,
                    workers=config.workers))
        cd = counted[counting]
        if cs.insufficient:
            flags[label] = "insufficient_entries"
        if "json" in fmts:
            _write(out / f"cluster_{label}.json", cs.to_json(), entries)
            _write(out / f"counting_{label}.json", cd.to_json(), entries)
        if "csv" in fmts:
            _write(out / f"cluster_{label}.csv", cs.to_csv(), entries)
            _write(out / f"counting_{label}.csv", cd.to_csv(), entries)
    _write_manifest(config, out, entries, flags)
    return 0


def _write_manifest(config: ExperimentConfig, out: Path, entries: list,
                    flags: dict) -> None:
    manifest = {"config": config.to_dict(), "outputs": entries, "flags": flags}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def _load_distribution(path: Path, need_samples: bool):
    d = json.loads(Path(path).read_text())
    if "counting_pmf" in d:
        d = d["counting_pmf"]
    if "probs" not in d:
        raise ConfigError(f"{path}: no pmf found (expected 'probs')")
    dist = from_json_fields(DiscreteDistribution, d)
    if need_samples and dist.n_samples is None:
        raise ConfigError(f"{path}: empirical file must carry n_samples")
    return dist


def cmd_compare(prediction_file, simulation_file, threshold: float,
                out_dir: Path | None = None) -> int:
    threshold = _threshold(threshold)
    model = _load_distribution(Path(prediction_file), need_samples=False)
    empirical = _load_distribution(Path(simulation_file), need_samples=True)
    report = chi_square_gof(empirical, empirical.n_samples, model)

    print(f"{'statistic':<14}{'value':>14}")
    print(f"{'tv_distance':<14}{report.tv_distance:>14.6f}")
    print(f"{'chi_square':<14}{report.chi_square:>14.4f}")
    print(f"{'dof':<14}{report.dof:>14d}")
    print(f"{'p_value':<14}{report.p_value:>14.3e}")
    print(f"{'n':<14}{report.n:>14d}")
    verdict = "pass" if report.p_value >= threshold else "fail"
    print(f"verdict: {verdict} (threshold {threshold})")

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        name = f"gof_{Path(simulation_file).stem}.json"
        (out_dir / name).write_text(report.to_json())
    return 0 if report.p_value >= threshold else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="returnstats",
                                description="return-time statistics experiments")
    p.add_argument("--config", help="YAML experiment config")
    p.add_argument("--seed", type=int, help="override master seed")
    p.add_argument("--workers", type=int, help="override worker count")
    p.add_argument("--out", help="override output directory")
    p.add_argument("--threshold", type=float, help="p-value pass threshold")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("predict", help="write analytic predictions")
    sub.add_parser("simulate", help="run Monte Carlo estimators")
    cmp_p = sub.add_parser("compare", help="GOF of simulation vs prediction")
    cmp_p.add_argument("prediction_file")
    cmp_p.add_argument("simulation_file")
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0

    try:
        if args.command == "compare":
            threshold = 0.01 if args.threshold is None else args.threshold
            return cmd_compare(args.prediction_file, args.simulation_file,
                               threshold, Path(args.out) if args.out else None)
        if not args.config:
            print("error: --config is required for predict/simulate", file=sys.stderr)
            return 2
        config = ExperimentConfig.load(args.config)
        config = _apply_overrides(config, args)
        if args.command == "predict":
            return cmd_predict(config)
        return cmd_simulate(config)
    except (ConfigError, FileNotFoundError, KeyError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
