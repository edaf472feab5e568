import json

import numpy as np
import pytest

from returnstats.cli import main
from returnstats.distributions import polya_aeppli_pmf

TORUS_CFG = """
experiment: torus-demo
system: {kind: torus, a: 2}
target: {kind: torus_strip}
schedule:
  - {rho: 0.02, K: 5, t: 1.0, n_trials: 400, min_entries: 200, orbit_len: 20000}
seed: 77
workers: 1
outputs: {dir: "%s", formats: [json, csv]}
"""


def _write_cfg(tmp_path, text, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_predict_torus_lambda_table(tmp_path):
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, TORUS_CFG % out)
    assert main(["--config", cfg, "predict"]) == 0
    payload = json.loads((out / "predict_rho0p02_K5.json").read_text())
    np.testing.assert_allclose(payload["lambdas"][:2], [0.5, 0.25], atol=1e-12)
    assert payload["extremal_index"] == pytest.approx(0.5)
    assert (out / "predict_rho0p02_K5.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert "predict_rho0p02_K5.json" in manifest["outputs"]
    # defaults are echoed
    assert manifest["config"]["schedule"][0]["k_max"] == 6


def test_predict_uncoupled_cml_alpha_table(tmp_path):
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, f"""
system: {{kind: cml, a: 3, n: 2, gamma: 0.0}}
target: {{kind: diagonal_strip}}
schedule: [{{nu: 1.0e-3, k_max: 4}}]
outputs: {{dir: "{out}"}}
""")
    assert main(["--config", cfg, "predict"]) == 0
    payload = json.loads((out / "predict_nu0p001_K10.json").read_text())
    np.testing.assert_allclose(payload["alpha_hat"], 3.0 ** -np.arange(5), atol=1e-9)


def test_malformed_config_exits_2_without_partial_files(tmp_path):
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, f"""
system: {{kind: torus, a: 2}}
target: {{kind: level_set}}
schedule: [{{m: 3}}]
outputs: {{dir: "{out}"}}
""")
    assert main(["--config", cfg, "predict"]) == 2
    assert not out.exists()
    # a row with t = 0 used to simulate a counting law of one point mass
    cfg = _write_cfg(tmp_path, f"""
system: {{kind: linear_mod1, a: 2}}
target: {{kind: ball, center: [0.3]}}
schedule: [{{rho: 0.01, t: 0}}]
outputs: {{dir: "{out}"}}
""")
    assert main(["--config", cfg, "simulate"]) == 2
    assert not out.exists()
    assert main(["--config", str(tmp_path / "missing.yaml"), "predict"]) == 2
    assert main(["predict"]) == 2  # --config required


LINEAR_BALL = "system: {kind: linear_mod1, a: 2}\ntarget: {kind: ball, center: [0.3]}"
FIRST_ROW = "{rho: 0.01, K: 3, t: 1, n_trials: 50, min_entries: 100, orbit_len: 5000}"
STRIP_ROW = "{nu: 0.05, K: 3, t: 1, n_trials: 50, min_entries: 100, orbit_len: 5000}"


@pytest.mark.parametrize("pair, rows", [
    (LINEAR_BALL, [FIRST_ROW, "{rho: 0.01, K: 3, t: 2}"]),
    (LINEAR_BALL, [FIRST_ROW, "{rho: 0.02, K: 0}"]),
    ("system: {kind: torus, a: 2}\ntarget: {kind: torus_strip}",
     [FIRST_ROW, "{rho: 0.6, K: 3}"]),
    ("system: {kind: regenerative, block_rule: smith, k_cap: 300}\n"
     "target: {kind: level_set}",
     ["{m: 10, K: 3, n_trials: 20, min_entries: 10, stream_len: 2000}",
      "{m: 400, K: 3}"]),
    ("system: {kind: linear_mod1, a: 2}\ntarget: {kind: ball, center: [0.3, 0.7]}",
     ["{rho: 0.01, K: 3, n_trials: 50, min_entries: 100, orbit_len: 5000, "
      "max_orbit: 20000}"]),
    # uncoupled float64 lattices of 2x and 8x mod 1 drain to 0 in a few
    # dozen steps, so every strip row would read all ones
    ("system: {kind: cml, a: 2, n: 2, gamma: 0}\ntarget: {kind: diagonal_strip}",
     [STRIP_ROW]),
    ("system: {kind: cml, a: 8, n: 1}\ntarget: {kind: ball, center: [0.3]}", [FIRST_ROW]),
    ("system: {kind: cml, a: 3, n: 2, gamma: 0.1, burn_in: -1}\n"
     "target: {kind: diagonal_strip}", [STRIP_ROW]),
], ids=["repeated-label", "K0", "strip-rho-above-half", "m-from-k_cap",
        "ball-centre-dimension", "cml-a2-drains", "cml-a8-drains", "cml-burn-in-below-0"])
def test_simulate_rejects_a_bad_later_row_before_writing(tmp_path, pair, rows):
    out = tmp_path / "out"
    schedule = "".join(f"\n  - {row}" for row in rows)
    cfg = _write_cfg(tmp_path, f"""
{pair}
schedule:{schedule}
outputs: {{dir: "{out}"}}
""")
    for command in ("predict", "simulate"):
        assert main(["--config", cfg, command]) == 2
        assert not out.exists()


def test_predict_rejects_a_pair_with_no_law(tmp_path, capsys):
    # a ball on the lattice loads and runs, but the diagonal law does not
    # describe it
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, f"""
system: {{kind: cml, a: 2, n: 2, gamma: 0.1}}
target: {{kind: ball, center: [0.3, 0.7]}}
schedule: [{{rho: 0.01}}]
outputs: {{dir: "{out}"}}
""")
    assert main(["--config", cfg, "predict"]) == 2
    assert "no analytic law for a cml system with a ball target" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_writes_results_and_manifest(tmp_path):
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, TORUS_CFG % out)
    assert main(["--config", cfg, "simulate"]) == 0
    for name in ("cluster_rho0p02_K5.json", "cluster_rho0p02_K5.csv",
                 "counting_rho0p02_K5.json", "counting_rho0p02_K5.csv",
                 "manifest.json"):
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["flags"] == {}


def test_simulate_byte_identical_across_worker_counts(tmp_path):
    cfg_text = TORUS_CFG % (tmp_path / "a")
    cfg = _write_cfg(tmp_path, cfg_text)
    assert main(["--config", cfg, "--workers", "1", "simulate"]) == 0
    assert main(["--config", cfg, "--workers", "3", "--out",
                 str(tmp_path / "b"), "simulate"]) == 0
    for name in ("cluster_rho0p02_K5.json", "cluster_rho0p02_K5.csv",
                 "counting_rho0p02_K5.json", "counting_rho0p02_K5.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name


def test_flag_beats_file(tmp_path, monkeypatch):
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, TORUS_CFG % out)
    monkeypatch.setenv("RETURNSTATS_SEED", "1000")  # not a setting: ignored
    assert main(["--config", cfg, "predict"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 77 and manifest["config"]["workers"] == 1
    assert main(["--config", cfg, "--seed", "2000", "--workers", "3", "--threshold", "0.2",
                 "predict"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 2000
    assert manifest["config"]["workers"] == 3 and manifest["config"]["threshold"] == 0.2


def test_compare_identical_files_passes_with_zero_tv(tmp_path, capsys):
    pmf = polya_aeppli_pmf(0.5, 0.5, 40)
    d = dict(json.loads(pmf.to_json()), n_samples=5000)
    f = tmp_path / "pmf.json"
    f.write_text(json.dumps(d))
    assert main(["compare", str(f), str(f)]) == 0
    assert "tv_distance" in capsys.readouterr().out
    gof = tmp_path / "gof"
    assert main(["--out", str(gof), "compare", str(f), str(f)]) == 0
    rep = json.loads((gof / "gof_pmf.json").read_text())
    assert rep["tv_distance"] == 0.0 and rep["p_value"] == pytest.approx(1.0)


def test_compare_simulation_against_own_prediction(tmp_path):
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, f"""
system: {{kind: torus, a: 2}}
target: {{kind: torus_strip}}
schedule:
  - {{rho: 0.005, K: 5, t: 1.0, n_trials: 5000, min_entries: 200, orbit_len: 20000}}
seed: 11
outputs: {{dir: "{out}"}}
""")
    assert main(["--config", cfg, "predict"]) == 0
    assert main(["--config", cfg, "simulate"]) == 0
    code = main(["--threshold", "0.01", "compare",
                 str(out / "counting_pmf_rho0p005_K5.json"),
                 str(out / "counting_rho0p005_K5.json")])
    assert code == 0


def test_compare_detects_the_wrong_model(tmp_path):
    # Poisson prediction against strongly clustered samples must fail
    rng = np.random.default_rng(0)
    truth = polya_aeppli_pmf(1.0, 0.5, 40)
    draws = rng.choice(np.arange(41), size=50_000,
                       p=truth.probs / truth.probs.sum())
    from returnstats.distributions import empirical_distribution

    emp = empirical_distribution(draws, k_max=40)
    (tmp_path / "emp.json").write_text(emp.to_json())
    (tmp_path / "model.json").write_text(polya_aeppli_pmf(1.0, 0.0, 40).to_json())
    assert main(["compare", str(tmp_path / "model.json"),
                 str(tmp_path / "emp.json")]) == 1


def test_compare_requires_sample_counts(tmp_path):
    pmf = polya_aeppli_pmf(0.5, 0.5, 40)
    f = tmp_path / "pmf.json"
    f.write_text(pmf.to_json())  # no n_samples
    assert main(["compare", str(f), str(f)]) == 2
