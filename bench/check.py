"""Output check of one repetition's result files, in a fresh interpreter.

    python bench/check.py --config CFG --results DIR --predict DIR --report OUT.json

A schedule row passes when its result files parse and are not flagged
``insufficient``; when its counting law passes ``returnstats compare``
against ``returnstats predict``'s pmf, wherever predict gives one; and, for
the Smith process, when alpha_hat_2 lies within SMITH_ALPHA2_SE standard
errors of 1/2.  The report also carries each row's orbit step count and
n_entries / min_entries.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
from pathlib import Path

from workloads import MU_TRIAL

# p-value threshold for `returnstats compare`.  The check runs on every
# seed the benchmark is given, so it must almost never fail a correct
# program by chance (0.01 would fail about one row in a hundred); a broken
# counting law at these trial counts gives p-values far below it.
COMPARE_THRESHOLD = 1e-4
# Smith alpha_hat_2(K) tends to 1/2; its bias at K=10, m=1000 is far below
# this many standard errors.  (The torus alpha_hat_2 is not checked: its
# K=50 window-merging bias is a known finite-scale effect.)
SMITH_ALPHA2_SE = 5.0


def orbit_steps(total_steps: int, n_trials: int, t: float, mu: float) -> int:
    """Steps tallied by one row: the cluster orbits' total_steps plus
    n_trials counting orbits of N + 1 points, N = floor(t / mu)."""
    return int(total_steps) + int(n_trials) * (math.floor(t / mu) + 1)


def _row_mu(rs, config, row, results: Path, label: str) -> float:
    mu_file = results / f"mu_{label}.json"
    if mu_file.exists():
        return float(json.loads(mu_file.read_text())["mean"])
    if config.system["kind"] == "regenerative":
        return rs.level_measure(config.build_regen_spec(), int(row.scale))
    target = config.build_target(row)
    # closed form for the exact-digit systems simulate runs here
    return rs.measure(target, config.build_system(), 1, (config.seed, MU_TRIAL)).mean


def _compare(cli, pmf: Path, counting: Path) -> tuple[int, float]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["--threshold", repr(COMPARE_THRESHOLD), "compare",
                       str(pmf), str(counting)])
    p_value = math.nan
    for line in buf.getvalue().splitlines():
        if line.startswith("p_value"):
            p_value = float(line.split()[1])
    return rc, p_value


def _counting_mean(counting: dict) -> float:
    probs = counting["probs"]
    return sum(k * q for k, q in enumerate(probs)) / sum(probs)


def check_outputs(config_path: str, results: Path, predict_dir: Path) -> list[dict]:
    import returnstats as rs
    import returnstats.cli as cli

    config = rs.ExperimentConfig.load(config_path)
    manifest = results / "manifest.json"
    flags = json.loads(manifest.read_text())["flags"] if manifest.exists() else {}
    smith = (config.system["kind"] == "regenerative"
             and config.system.get("block_rule", "smith") == "smith")
    rows = []
    for i, row in enumerate(config.schedule):
        label = row.label(config.scale_name)
        entry = {"label": label, "ok": False, "reasons": []}
        rows.append(entry)
        try:
            cs = rs.ClusterStats.from_json((results / f"cluster_{label}.json").read_text())
            counting = json.loads((results / f"counting_{label}.json").read_text())
            if cs.insufficient or label in flags:
                entry["reasons"].append("insufficient")
            mu = _row_mu(rs, config, row, results, label)
            entry["steps"] = orbit_steps(cs.total_steps, counting["n_samples"], row.t, mu)
            entry["entries_over_min"] = cs.n_entries / row.min_entries
            entry["alpha_hat_2"] = float(cs.alpha_hat[1])
            entry["alpha_se_2"] = float(cs.alpha_se[1])
            entry["t"] = row.t
            if (results / f"mu_{label}.json").exists():
                # a Monte Carlo mu(U) sets the horizon N = floor(t / mu_hat), so
                # the law is predicted at the horizon actually run: its mean
                # count, (N + 1) mu(U), estimated by the sample mean
                entry["t"] = _counting_mean(counting)
            one_row = config.to_dict()
            one_row["schedule"] = [dict(one_row["schedule"][i], t=entry["t"])]
            one_row["outputs"] = dict(one_row["outputs"], dir=str(predict_dir))
            with contextlib.redirect_stdout(io.StringIO()):
                cli.cmd_predict(rs.ExperimentConfig.from_dict(one_row))
            pmf = predict_dir / f"counting_pmf_{label}.json"
            if pmf.exists():
                rc, entry["p_value"] = _compare(cli, pmf, results / f"counting_{label}.json")
                if rc != 0:
                    entry["reasons"].append(f"compare p={entry['p_value']:.3g}")
            if smith and not abs(cs.alpha_hat[1] - 0.5) <= SMITH_ALPHA2_SE * cs.alpha_se[1]:
                entry["reasons"].append("smith alpha_hat_2 off 1/2")
        except Exception as e:  # any failure fails the row, never the benchmark
            entry["reasons"].append(f"{type(e).__name__}: {e}")
        entry["ok"] = not entry["reasons"]
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--config", required=True)
    p.add_argument("--results", required=True)
    p.add_argument("--predict", required=True)
    p.add_argument("--report", required=True)
    args = p.parse_args(argv)
    rows = check_outputs(args.config, Path(args.results), Path(args.predict))
    Path(args.report).write_text(json.dumps({"rows": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
