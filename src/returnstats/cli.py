"""Command-line experiment runner.

Subcommands:

* ``predict``   -- write analytic alpha/lambda tables and the predicted
  counting pmf for each schedule row;
* ``simulate``  -- run the Monte Carlo estimators for each schedule row;
* ``compare``   -- goodness-of-fit between a predicted pmf and an
  empirical counting law; exit 0 when the chi-square p-value clears the
  threshold, 1 otherwise.

Exit codes: 0 pass, 1 statistical fail, 2 usage or config error.
Parameter precedence: command-line flags > RETURNSTATS_* environment
variables > config file values.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig
from .distributions import (ClusterSizeDist, CompoundSpec, DiscreteDistribution,
                            compound_poisson_pmf, polya_aeppli_pmf)
from .estimators import cluster_statistics, counting_distribution
from .records import csv_table, from_json_fields, json_fields
from .regenerative import (level_measure, regen_cluster_stats,
                           regen_counting_distribution)
from .stats import chi_square_gof

__all__ = ["main", "cmd_predict", "cmd_simulate", "cmd_compare"]

_ENV = {"seed": "RETURNSTATS_SEED", "workers": "RETURNSTATS_WORKERS",
        "out": "RETURNSTATS_OUT", "threshold": "RETURNSTATS_THRESHOLD"}
_PMF_KMAX = 60


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    def pick(flag_value, env_name, file_value, cast):
        if flag_value is not None:
            return cast(flag_value)
        env = os.environ.get(env_name)
        if env is not None:
            return cast(env)
        return file_value

    d = config.to_dict()
    d["seed"] = pick(args.seed, _ENV["seed"], config.seed, int)
    d["workers"] = pick(args.workers, _ENV["workers"], config.workers, int)
    d["threshold"] = pick(args.threshold, _ENV["threshold"], config.threshold, float)
    out = pick(args.out, _ENV["out"], config.outputs.get("dir"), str)
    d["outputs"] = dict(config.outputs, dir=out)
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


def _analytic_prediction(config: ExperimentConfig, row) -> _Prediction:
    """The prediction for the built-in families; raises ConfigError if no
    analytic form exists."""
    kind = config.system["kind"]
    t = row.t
    if kind == "torus":
        a = int(config.system.get("a", 2))
        k = np.arange(row.k_max + 1)
        alpha_hat = (1.0 / a) ** k            # alpha_hat_{k+1} = a^{-k}
        p = 1.0 / a
        alpha1 = 1.0 - p
        lambdas = (1 - p) * p ** np.arange(row.k_max)
        pmf = polya_aeppli_pmf(alpha1 * t, p, _PMF_KMAX)
        return _Prediction(alpha_hat, lambdas, alpha1, pmf)
    if kind == "linear_mod1":
        a = int(config.system.get("a", 2))
        period = config.target.get("periodic_period")
        if period is not None:
            p = float(a) ** (-int(period))
            alpha1 = 1.0 - p
            alpha_hat = p ** np.arange(row.k_max + 1)  # alpha_hat_k = p^(k-1)
            lambdas = (1 - p) * p ** np.arange(row.k_max)
            pmf = polya_aeppli_pmf(alpha1 * t, p, _PMF_KMAX)
            return _Prediction(alpha_hat, lambdas, alpha1, pmf)
        # non-periodic center: Poisson limit
        alpha_hat = np.concatenate([[1.0], np.zeros(row.k_max)])
        lambdas = np.concatenate([[1.0], np.zeros(row.k_max - 1)])
        pmf = polya_aeppli_pmf(t, 0.0, _PMF_KMAX)
        return _Prediction(alpha_hat, lambdas, 1.0, pmf)
    if kind == "cml":
        from .cml_theory import DiagonalDensity, cml_prediction

        pred = cml_prediction(config._base_map(), DiagonalDensity.lebesgue(),
                              int(config.system.get("n", 2)),
                              float(config.system.get("gamma", 0.0)),
                              row.k_max, tol=1e-10)
        lam = np.clip(pred.lambdas, 0.0, None)
        total = lam.sum()
        pmf = None
        if total > 0:
            cd = ClusterSizeDist(lam / total)
            pmf = compound_poisson_pmf(CompoundSpec(pred.extremal_index * t, cd), _PMF_KMAX)
        return _Prediction(pred.alpha_hat, pred.lambdas, pred.extremal_index, pmf)
    if kind == "regenerative":
        rule = config.system.get("block_rule", "smith")
        if rule == "smith":
            alpha_hat = np.concatenate([[1.0], np.full(row.k_max, 0.5)])
            lambdas = np.concatenate([[1.0], np.zeros(row.k_max - 1)])
            return _Prediction(alpha_hat, lambdas, 0.5)
        lam = np.asarray(config.system["cluster_lambdas"], dtype=float)
        mean_len = float(np.arange(1, lam.size + 1) @ lam)
        alpha = np.array([lam[k - 1:].sum() / mean_len
                          for k in range(1, row.k_max + 2)])
        alpha_hat = np.concatenate([[1.0], 1.0 - np.cumsum(alpha)[:-1]])
        alpha_hat = np.clip(alpha_hat, 0.0, 1.0)
        alpha1 = float(alpha[0])
        pmf = compound_poisson_pmf(CompoundSpec(alpha1 * t, ClusterSizeDist(lam)),
                                   _PMF_KMAX)
        return _Prediction(alpha_hat, lam, alpha1, pmf)
    raise ConfigError(f"no analytic prediction for system kind {kind!r}")


def cmd_predict(config: ExperimentConfig) -> int:
    # compute everything first so a failure leaves no partial files
    results = [(row, _analytic_prediction(config, row)) for row in config.schedule]
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
    regen = config.system["kind"] == "regenerative"
    spec = config.build_regen_spec() if regen else None
    system = None if regen else config.build_system()

    for row in config.schedule:
        label = row.label(config.scale_name)
        if regen:
            m = int(row.scale)
            n_streams = max(4, math.ceil(
                row.min_entries / max(level_measure(spec, m), 1e-12)
                / (row.stream_len or 200_000)) + 1)
            cs = regen_cluster_stats(spec, m, row.K, n_streams, config.seed,
                                     stream_len=row.stream_len, workers=config.workers)
            cd = regen_counting_distribution(spec, m, row.t, row.n_trials, config.seed)
        else:
            target = config.build_target(row)
            cs = cluster_statistics(system, target, row.K, row.min_entries,
                                    row.max_orbit, config.seed,
                                    orbit_len=row.orbit_len, workers=config.workers)
            cd = counting_distribution(system, target, row.t, row.n_trials,
                                       config.seed, workers=config.workers)
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
            threshold = args.threshold
            if threshold is None:
                env = os.environ.get(_ENV["threshold"])
                threshold = float(env) if env is not None else 0.01
            out = args.out or os.environ.get(_ENV["out"])
            return cmd_compare(args.prediction_file, args.simulation_file,
                               threshold, Path(out) if out else None)
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
