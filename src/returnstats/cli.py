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

from .cml_theory import DiagonalDensity, cml_prediction
from .config import ConfigError, ExperimentConfig
from .distributions import (ClusterSizeDist, CompoundSpec, DiscreteDistribution,
                            compound_poisson_pmf, polya_aeppli_pmf)
from .dynamics import CmlSystem, LinearMod1System, TorusAffineSystem
from .estimators import cluster_statistics, counting_distribution
from .records import csv_table, from_json_fields, json_fields
from .regenerative import (RegenSpec, level_measure, regen_cluster_stats,
                           regen_counting_distribution)
from .stats import chi_square_gof

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


def _analytic_prediction(config: ExperimentConfig, system, row) -> _Prediction:
    """The row's limit law, read from the built system (or RegenSpec);
    raises ConfigError for a pair the package has no law for."""
    t = row.t
    if isinstance(system, (TorusAffineSystem, LinearMod1System)):
        # Polya-Aeppli with cluster ratio p = a^-period: the torus strip
        # surrounds the fixed line {y = 0}, and a ball around a point of no
        # known period gets p = 0, the Poisson law
        period = (1 if isinstance(system, TorusAffineSystem)
                  else config.target.get("periodic_period"))
        p = 0.0 if period is None else float(system.a) ** -int(period)
        alpha1 = 1.0 - p
        return _Prediction(p ** np.arange(row.k_max + 1),       # alpha_hat_k = p^(k-1)
                           alpha1 * p ** np.arange(row.k_max), alpha1,
                           polya_aeppli_pmf(alpha1 * t, p, _PMF_KMAX))
    if isinstance(system, CmlSystem) and config.target["kind"] == "diagonal_strip":
        spec = system.spec
        seqs = cml_prediction(spec.base_map, DiagonalDensity.lebesgue(), spec.n,
                              spec.gamma, row.k_max)
        lam = seqs.lam[:row.k_max - 1]
        pmf = None
        if lam.sum() > 0:
            cd = ClusterSizeDist(lam / lam.sum())
            pmf = compound_poisson_pmf(CompoundSpec(seqs.extremal_index * t, cd), _PMF_KMAX)
        return _Prediction(seqs.alpha_hat, lam, seqs.extremal_index, pmf)
    if isinstance(system, RegenSpec):
        if system.block_rule == "smith":
            alpha_hat = np.concatenate([[1.0], np.full(row.k_max, 0.5)])
            lambdas = np.concatenate([[1.0], np.zeros(row.k_max - 1)])
            return _Prediction(alpha_hat, lambdas, 0.5)
        cd = system.cluster_dist
        lam, mean_len = cd.lambdas, cd.mean()
        alpha = np.array([lam[k - 1:].sum() / mean_len
                          for k in range(1, row.k_max + 2)])
        alpha_hat = np.concatenate([[1.0], 1.0 - np.cumsum(alpha)[:-1]])
        alpha_hat = np.clip(alpha_hat, 0.0, 1.0)
        alpha1 = float(alpha[0])
        pmf = compound_poisson_pmf(CompoundSpec(alpha1 * t, cd), _PMF_KMAX)
        return _Prediction(alpha_hat, lam, alpha1, pmf)
    raise ConfigError(f"no analytic law for a {config.system['kind']} system with "
                      f"a {config.target['kind']} target")


def cmd_predict(config: ExperimentConfig) -> int:
    system = config.build_system()
    # compute everything first so a failure leaves no partial files
    results = [(row, _analytic_prediction(config, system, row))
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

    for row in config.schedule:
        label = row.label(config.scale_name)
        if regen:
            m = int(row.scale)
            n_streams = max(4, math.ceil(
                row.min_entries / max(level_measure(system, m), 1e-12)
                / (row.stream_len or 200_000)) + 1)
            cs = regen_cluster_stats(system, m, row.K, n_streams, config.seed,
                                     stream_len=row.stream_len, workers=config.workers)
            cd = regen_counting_distribution(system, m, row.t, row.n_trials, config.seed)
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
