import ast
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from returnstats import cli
from returnstats.cli import main
from returnstats.config import ExperimentConfig
from returnstats.distributions import ClusterSizeDist
from returnstats.regenerative import RegenSpec, level_measure, regen_cluster_stats

from polya_aeppli_reference import polya_aeppli_pmf
from test_golden_outputs import SIMULATE_ROWS

SRC = Path(__file__).resolve().parents[1] / "src"

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
    # the compound Poisson law over geometric clusters is Polya-Aeppli
    pmf = json.loads((out / "counting_pmf_rho0p02_K5.json").read_text())
    np.testing.assert_allclose(pmf["probs"], polya_aeppli_pmf(0.5, 0.5, 60).probs,
                               rtol=0, atol=2e-16)
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
    # the orbit length a row runs is echoed, not null
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["schedule"][0]["orbit_len"] == 200_000


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
    # a non-integral system value, an unknown system key or an output format
    # other than json and csv used to run, and to write its files
    for pair, outputs in (("system: {kind: linear_mod1, a: 2.5}", ""),
                          ("system: {kind: linear_mod1, a: 3, gama: 0.3}", ""),
                          ("system: {kind: linear_mod1, a: 3}", ", formats: [jsn]")):
        cfg = _write_cfg(tmp_path, f"""
{pair}
target: {{kind: ball, center: [0.3]}}
schedule: [{{rho: 0.01, K: 3, n_trials: 50, min_entries: 100, orbit_len: 5000}}]
outputs: {{dir: "{out}"{outputs}}}
""")
        for command in ("predict", "simulate"):
            assert main(["--config", cfg, command]) == 2
            assert not out.exists()
    assert main(["--config", str(tmp_path / "missing.yaml"), "predict"]) == 2
    assert main(["predict"]) == 2  # --config required


@pytest.mark.parametrize("typo", ["seeed: 5", "worker: 4", "output: {dir: x}",
                                  "outputs: {fromats: [csv]}"])
def test_an_unknown_top_level_or_outputs_key_exits_2_without_files(tmp_path, monkeypatch, typo):
    # each used to load: the run took seed 0, one worker, the directory
    # results and both formats, and the manifest echoed the typo
    monkeypatch.chdir(tmp_path)
    cfg = _write_cfg(tmp_path, f"""
system: {{kind: linear_mod1, a: 2}}
target: {{kind: ball, center: [0.3]}}
schedule: [{{rho: 0.01, K: 3, n_trials: 50, min_entries: 100, orbit_len: 5000}}]
{typo}
""")
    for command in ("predict", "simulate"):
        assert main(["--config", cfg, command]) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.yaml"]


LINEAR_BALL = "system: {kind: linear_mod1, a: 2}\ntarget: {kind: ball, center: [0.3]}"
FIRST_ROW = "{rho: 0.01, K: 3, t: 1, n_trials: 50, min_entries: 100, orbit_len: 5000}"
STRIP_ROW = "{nu: 0.05, K: 3, t: 1, n_trials: 50, min_entries: 100, orbit_len: 5000}"


@pytest.mark.parametrize("pair, rows", [
    (LINEAR_BALL, [FIRST_ROW, "{rho: 0.01, K: 3, t: 2}"]),
    (LINEAR_BALL, [FIRST_ROW, "{rho: 0.02, K: 0}"]),
    (LINEAR_BALL, [FIRST_ROW, "{rho: 0.02, K: 2.5}"]),
    ("system: {kind: torus, a: 2}\ntarget: {kind: torus_strip}",
     [FIRST_ROW, "{rho: 0.6, K: 3}"]),
    ("system: {kind: regenerative, block_rule: smith, k_cap: 300}\n"
     "target: {kind: level_set}",
     ["{m: 10, K: 3, n_trials: 20, min_entries: 10, stream_len: 2000}",
      "{m: 400, K: 3}"]),
    ("system: {kind: regenerative, block_rule: smith, k_cap: 300}\n"
     "target: {kind: level_set}",
     ["{m: 10, K: 3, n_trials: 20, min_entries: 10, stream_len: 2000}",
      "{m: 2.5, K: 3}"]),
    # mu(U_2999) is 6.8e-8, so t = 1e5 is a horizon of 1.48e12 steps
    ("system: {kind: regenerative, block_rule: smith, k_cap: 3000}\n"
     "target: {kind: level_set}",
     ["{m: 10, K: 3, n_trials: 20, min_entries: 10, stream_len: 2000}",
      "{m: 2999, K: 3, t: 1.0e5}"]),
    # mu is exact on every system that preserves Lebesgue measure: 2 rho =
    # 2e-3, so t = 1e10 is a horizon of 5e12 steps
    ("system: {kind: torus, a: 2}\ntarget: {kind: torus_strip}",
     ["{rho: 0.02, K: 5, t: 1, n_trials: 400, min_entries: 200, orbit_len: 20000}",
      "{rho: 1.0e-3, t: 1.0e10}"]),
    # the ball's closed-form volume rounds to 0 around 0.3
    (LINEAR_BALL, [FIRST_ROW, "{rho: 1.0e-18, K: 3}"]),
    ("system: {kind: linear_mod1, a: 2}\ntarget: {kind: ball, center: [0.3, 0.7]}",
     ["{rho: 0.01, K: 3, n_trials: 50, min_entries: 100, orbit_len: 5000, "
      "max_orbit: 20000}"]),
    # uncoupled float64 lattices of 2x and 8x mod 1 drain to 0 in a few
    # dozen steps, so every strip row would read all ones
    ("system: {kind: cml, a: 2, n: 2, gamma: 0}\ntarget: {kind: diagonal_strip}",
     [STRIP_ROW]),
    ("system: {kind: cml, a: 8, n: 1}\ntarget: {kind: ball, center: [0.3]}", [FIRST_ROW]),
    # every even a drains (6x mod 1 reaches 0 at step 53, and simulate wrote
    # alpha_hat = 1 at every k), and so does the coupled (4, 0.5) lattice
    ("system: {kind: cml, a: 6, n: 2, gamma: 0}\ntarget: {kind: diagonal_strip}",
     [STRIP_ROW]),
    ("system: {kind: cml, a: 4, n: 2, gamma: 0.5}\ntarget: {kind: diagonal_strip}",
     [STRIP_ROW]),
    ("system: {kind: cml, a: 3, n: 2, gamma: 0.1, burn_in: -1}\n"
     "target: {kind: diagonal_strip}", [STRIP_ROW]),
    # at gamma 1 every site is equal after one step, so every point is a hit
    # and the cluster phase ran past a 120 s timeout
    ("system: {kind: cml, a: 3, n: 2, gamma: 1}\ntarget: {kind: diagonal_strip}",
     [STRIP_ROW]),
    # a regenerative row runs streams, and a map row orbits
    ("system: {kind: regenerative, block_rule: smith, k_cap: 300}\n"
     "target: {kind: level_set}",
     ["{m: 10, K: 3, n_trials: 20, min_entries: 10, stream_len: 2000}",
      "{m: 20, K: 3, orbit_len: 7, max_orbit: 5}"]),
    (LINEAR_BALL, [FIRST_ROW, "{rho: 0.02, K: 3, stream_len: 3}"]),
    # a ball's period comes from its centre, so declaring one is an unknown
    # key (0.3 has period 4 under 3x mod 1, and 1/2 is its fixed point)
    ("system: {kind: linear_mod1, a: 3}\n"
     "target: {kind: ball, center: [0.3], periodic_period: 1}", [FIRST_ROW]),
    ("system: {kind: linear_mod1, a: 3}\n"
     "target: {kind: ball, center: [0.5], periodic_period: 2}", [FIRST_ROW]),
], ids=["repeated-label", "K0", "K-not-integral", "strip-rho-above-half", "m-from-k_cap",
        "m-not-integral", "regen-horizon", "torus-horizon", "ball-measure-0",
        "ball-centre-dimension", "cml-a2-drains", "cml-a8-drains", "cml-a6-drains",
        "cml-a4-gamma-half-drains", "cml-burn-in-below-0",
        "cml-gamma-1",
        "regen-orbit-keys", "map-stream_len", "period-not-of-centre",
        "period-not-minimal"])
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


def test_package_import_leaves_out_scipy_optimize():
    code = ("import sys, returnstats, returnstats.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
    assert out.stdout.strip() == "[]"


def _fresh_interpreter(code, *args):
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                         timeout=120, env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
    return out.stdout


def test_package_import_leaves_scipy_special_to_the_first_p_value():
    # scipy itself is loaded (the benchmark reads its version at set-up);
    # scipy.special waits for chi_square_gof
    code = ("import importlib, json, pkgutil, sys, returnstats\n"
            "names = [m.name for m in pkgutil.iter_modules(returnstats.__path__, 'returnstats.')]\n"
            "for name in names:\n"
            "    importlib.import_module(name)\n"
            "print(json.dumps({'names': names, 'scipy': 'scipy' in sys.modules,\n"
            "                  'special': 'scipy.special' in sys.modules}))\n")
    seen = json.loads(_fresh_interpreter(code))
    modules = {f"returnstats.{p.stem}" for p in (SRC / "returnstats").glob("*.py")
               if p.stem != "__init__"}
    assert set(seen["names"]) == modules
    assert seen["scipy"] and not seen["special"]


_MAIN_IN_FRESH_INTERPRETER = (
    "import json, sys\n"
    "from returnstats.cli import main\n"
    "rc = main(sys.argv[1:])\n"
    "print(json.dumps({'rc': rc, 'special': 'scipy.special' in sys.modules}))\n")


def test_compare_loads_scipy_special_and_simulate_does_not(tmp_path):
    # in this process the Polya-Aeppli reference has loaded scipy.special
    # already, so the lazy load is checked in fresh interpreters
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, TORUS_CFG % out)
    for command in ("predict", "simulate"):
        last = json.loads(_fresh_interpreter(_MAIN_IN_FRESH_INTERPRETER, "--config", cfg,
                                             command).splitlines()[-1])
        assert last == {"rc": 0, "special": False}, command

    gof = tmp_path / "gof"
    printed = _fresh_interpreter(_MAIN_IN_FRESH_INTERPRETER, "--out", str(gof), "compare",
                                 str(out / "counting_pmf_rho0p02_K5.json"),
                                 str(out / "counting_rho0p02_K5.json")).splitlines()
    assert json.loads(printed[-1])["special"]
    report = json.loads((gof / "gof_counting_rho0p02_K5.json").read_text())
    from scipy.special import gammaincc

    want = float(gammaincc(report["dof"] / 2.0, report["chi_square"] / 2.0))
    assert report["p_value"] == want
    assert f"{'p_value':<14}{want:>14.3e}" in printed


def test_only_stats_imports_scipy():
    # the chi-square survival function is the package's last scipy call
    importers = set()
    for path in sorted((SRC / "returnstats").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                importers.add(path.name)
    assert importers == {"stats.py"}


def test_every_shipped_counting_pmf_has_mean_t(tmp_path):
    # a compound Poisson law of intensity theta t over clusters of mean
    # 1/theta has mean t; cml_sweep's pmf, cut to k_max - 1 cluster sizes
    # and renormalised, had mean 0.876
    configs = SRC.parent / "configs"
    checked = 0
    for path in sorted(configs.glob("*.yaml")):
        out = tmp_path / path.stem
        assert main(["--config", str(path), "--out", str(out), "predict"]) == 0
        config = ExperimentConfig.load(path)
        for row in config.schedule:
            f = out / f"counting_pmf_{row.label(config.scale_name)}.json"
            if f.exists():
                probs = np.array(json.loads(f.read_text())["probs"])
                assert abs(np.arange(probs.size) @ probs - row.t) < 1e-9, f
                checked += 1
    assert checked == 8


def test_predict_writes_a_cml_pmf_at_k_max_1(tmp_path):
    # alpha_hat_1 and alpha_hat_2 and the geometric envelope give the whole
    # cluster law, though no lambda is exact
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, f"""
system: {{kind: cml, a: 2, n: 2, gamma: 0.1, weights: [0.5, 0.5]}}
target: {{kind: diagonal_strip}}
schedule: [{{nu: 0.01, K: 3, t: 2.0, k_max: 1}}]
outputs: {{dir: "{out}"}}
""")
    assert main(["--config", cfg, "predict"]) == 0
    payload = json.loads((out / "predict_nu0p01_K3.json").read_text())
    assert payload["lambdas"] == [] and len(payload["alpha_hat"]) == 2
    assert payload["extremal_index"] == pytest.approx(1 - 1 / 1.8, abs=1e-12)
    probs = np.array(json.loads((out / "counting_pmf_nu0p01_K3.json").read_text())["probs"])
    assert abs(np.arange(probs.size) @ probs - 2.0) < 1e-9


def test_predict_refuses_a_cml_cluster_law_that_does_not_sum_to_1(tmp_path, monkeypatch,
                                                                  capsys):
    # an alpha_hat whose alpha increases gives a negative lambda_2, clipped
    # to 0, so the law sums above 1; predict says so and writes nothing
    monkeypatch.setattr(cli, "cml_prediction",
                        lambda *args: ClusterSizeDist.from_alpha_hat([1.0, 0.5, 0.45, 0.1]))
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, f"""
system: {{kind: cml, a: 2, n: 2, gamma: 0.1}}
target: {{kind: diagonal_strip}}
schedule: [{{nu: 0.01, k_max: 3}}]
outputs: {{dir: "{out}"}}
""")
    assert main(["--config", cfg, "predict"]) == 2
    assert "cluster probabilities must sum to 1" in capsys.readouterr().err
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
    assert "no analytic law for a CmlSystem with a Ball target" in capsys.readouterr().err
    assert not out.exists()


def test_predict_rejects_a_lattice_of_maps_of_unknown_density(tmp_path, capsys):
    # the diagonal law integrates the base map's invariant density, known
    # only for a*x mod 1; with h = 1 for every map predict wrote alpha_hat_2
    # = 0.3409 for this lattice
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, f"""
system: {{kind: cml, a: 3, n: 2, eps: 0.1}}
target: {{kind: diagonal_strip}}
schedule: [{{nu: 0.01}}]
outputs: {{dir: "{out}"}}
""")
    assert main(["--config", cfg, "predict"]) == 2
    assert "lattice of SinePerturbedInterval maps" in capsys.readouterr().err
    assert not out.exists()


def test_predict_derives_a_balls_period_from_its_centre(tmp_path):
    # 1/2 is the fixed point of 3x mod 1.  With no period declared, predict
    # wrote theta = 1 (Poisson) where simulate estimated 0.645; the derived
    # period 1 gives Polya-Aeppli clusters of ratio 1/3, and these are the
    # bytes a declared period of 1 gave
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, f"""
system: {{kind: linear_mod1, a: 3}}
target: {{kind: ball, center: [0.5]}}
schedule: [{{rho: 0.01, K: 6}}]
outputs: {{dir: "{out}"}}
""")
    assert main(["--config", cfg, "predict"]) == 0
    theta = json.loads((out / "predict_rho0p01_K6.json").read_text())["extremal_index"]
    assert theta == pytest.approx(2 / 3, rel=1e-15)
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in out.iterdir() if f.name != "manifest.json"}
    assert digests == {
        "predict_rho0p01_K6.csv":
            "19d4d919f38473b1ba01860f3cb7891104439a852bce0782531e69ed6b64e202",
        "predict_rho0p01_K6.json":
            "bd6948a25a1774d082b36125e296fcbc96d3c17a6c354f13fa12293b015317e9",
        "counting_pmf_rho0p01_K6.json":
            "f9b1752e394120af0e2de81a2f2f3d88cd71156a1d6264bc4c9f88b9b44c61a9",
    }


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


def test_simulate_reads_exponents_written_without_a_dot(tmp_path):
    # PyYAML reads 1e0 as the string '1e0', which loaded and then crashed
    # simulate with a TypeError
    rows = {"a": "K: 5, t: 1.0", "b": "K: 5e0, t: 1e0"}
    for out, row in rows.items():
        text = (TORUS_CFG % (tmp_path / out)).replace(rows["a"], row)
        assert row in text
        assert main(["--config", _write_cfg(tmp_path, text), "simulate"]) == 0
    for name in ("cluster_rho0p02_K5.json", "counting_rho0p02_K5.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class _Stop(Exception):
    pass


def test_simulate_sizes_regenerative_streams_for_the_length_they_run(tmp_path, monkeypatch):
    # a K = 5000 row without stream_len runs streams of 100 (2K + 1)
    # symbols, and its stream count must be sized for that length
    calls = []

    def record(spec, m, K, n_streams, seed, stream_len=None, workers=1, runs=None):
        calls.append((n_streams, stream_len))
        raise _Stop

    monkeypatch.setattr(cli, "regen_cluster_stats", record)
    cfg = _write_cfg(tmp_path, f"""
system: {{kind: regenerative, block_rule: smith}}
target: {{kind: level_set}}
schedule: [{{m: 10, K: 5000, min_entries: 1000000}}]
outputs: {{dir: "{tmp_path / 'out'}"}}
""")
    with pytest.raises(_Stop):
        main(["--config", cfg, "simulate"])
    stream_len = 100 * (2 * 5000 + 1)
    mu = level_measure(RegenSpec.smith(), 10)
    assert calls == [(max(4, math.ceil(1_000_000 / mu / stream_len) + 1), stream_len)]


def test_simulate_builds_regenerative_streams_once_for_every_K(tmp_path, monkeypatch):
    # two rows that differ only in K share the cluster streams and the
    # counting law, and each cluster file is its K's tally of those streams
    from returnstats import regenerative

    lengths = []
    build = regenerative._block_slices

    def counted(spec, length, seed):
        lengths.append(length)
        return build(spec, length, seed)

    monkeypatch.setattr(regenerative, "_block_slices", counted)
    cfg = _write_cfg(tmp_path, f"""
system: {{kind: regenerative, block_rule: smith, k_cap: 300}}
target: {{kind: level_set}}
schedule:
  - {{m: 30, K: 3, t: 1.0, n_trials: 20, min_entries: 500, stream_len: 20000}}
  - {{m: 30, K: 7, t: 1.0, n_trials: 20, min_entries: 500, stream_len: 20000}}
seed: 5
workers: 2
outputs: {{dir: "{tmp_path / 'out'}"}}
""")
    assert main(["--config", cfg, "simulate"]) == 0
    spec = RegenSpec.smith(300)
    n_streams = max(4, math.ceil(500 / level_measure(spec, 30) / 20000) + 1)
    assert lengths.count(20000) == n_streams and len(lengths) == n_streams + 20
    for K in (3, 7):
        want = regen_cluster_stats(spec, 30, K, n_streams, 5, stream_len=20000)
        assert (tmp_path / "out" / f"cluster_m30_K{K}.json").read_text() == want.to_json()


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


def test_simulate_coupled_lattice_byte_identical_across_worker_counts(tmp_path):
    # the counting law's mu(U) is the cluster phase's hit rate, so it too
    # must not depend on the worker count
    cfg = _write_cfg(tmp_path, SIMULATE_ROWS["cml_coupled"])
    for workers in ("1", "2"):
        assert main(["--config", cfg, "--workers", workers, "--out",
                     str(tmp_path / workers), "simulate"]) == 0
    names = sorted(p.name for p in (tmp_path / "1").iterdir() if p.name != "manifest.json")
    assert names == ["cluster_nu0p05_K3.csv", "cluster_nu0p05_K3.json",
                     "counting_nu0p05_K3.csv", "counting_nu0p05_K3.json"]
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


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

    emp = empirical_distribution(draws)
    (tmp_path / "emp.json").write_text(emp.to_json())
    (tmp_path / "model.json").write_text(polya_aeppli_pmf(1.0, 0.0, 40).to_json())
    assert main(["compare", str(tmp_path / "model.json"),
                 str(tmp_path / "emp.json")]) == 1


def test_compare_requires_sample_counts(tmp_path):
    pmf = polya_aeppli_pmf(0.5, 0.5, 40)
    f = tmp_path / "pmf.json"
    f.write_text(pmf.to_json())  # no n_samples
    assert main(["compare", str(f), str(f)]) == 2


@pytest.mark.parametrize("threshold", ["1.5", "1", "nan", "-1", "inf"])
def test_compare_refuses_a_threshold_outside_0_1(tmp_path, capsys, threshold):
    # the config's [0, 1) rule: 1.5 and nan used to fail a perfect fit
    # (exit 1), and -1 to pass anything (exit 0)
    d = dict(json.loads(polya_aeppli_pmf(0.5, 0.5, 40).to_json()), n_samples=5000)
    f = tmp_path / "pmf.json"
    f.write_text(json.dumps(d))
    assert main(["--threshold", threshold, "compare", str(f), str(f)]) == 2
    assert "threshold must lie in [0, 1)" in capsys.readouterr().err
    assert main(["--threshold", "0", "compare", str(f), str(f)]) == 0


def test_compare_refuses_a_pmf_with_a_nan_entry(tmp_path, capsys):
    # a null in a pmf file reads back as nan; compare used to print
    # tv_distance nan and exit 1, a statistical fail, rather than 2
    good = dict(json.loads(polya_aeppli_pmf(0.5, 0.5, 40).to_json()), n_samples=5000)
    bad = dict(good, probs=[None] + good["probs"][1:])
    (tmp_path / "good.json").write_text(json.dumps(good))
    (tmp_path / "bad.json").write_text(json.dumps(bad))
    for model, empirical in (("bad", "good"), ("good", "bad")):
        assert main(["compare", str(tmp_path / f"{model}.json"),
                     str(tmp_path / f"{empirical}.json")]) == 2
        assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("section", [
    "system: 5", "target: 5", "schedule: [5]", "schedule: [[1, 2]]", "schedule: [null]",
    "outputs: [1]", "outputs: null", "outputs: {dir: 5}",
    "system: {kind: regenerative, block_rule: fixed_lengths, cluster_lambdas: [0.5, .nan]}",
    "schedule: [{rho: 0.01, K: yes, n_trials: 50, min_entries: 100, orbit_len: 5000}]"])
def test_malformed_sections_and_values_exit_2_without_files(tmp_path, monkeypatch, section):
    # each used to raise TypeError out of main (exit 1 with a traceback), or
    # to load: a dir of 5 failed in predict, a nan cluster probability failed
    # later with an unrelated message, and K: yes ran as K = 1
    monkeypatch.chdir(tmp_path)
    sections = {"system": "system: {kind: linear_mod1, a: 2}",
                "target": "target: {kind: ball, center: [0.3]}",
                "schedule": f"schedule: [{FIRST_ROW}]", "outputs": "outputs: {dir: out}"}
    key = section.split(":")[0]
    if key == "system":
        sections["target"], sections["schedule"] = "target: {kind: level_set}", "schedule: [{m: 3}]"
    sections[key] = section
    cfg = _write_cfg(tmp_path, "\n".join(sections.values()) + "\n")
    for command in ("predict", "simulate"):
        assert main(["--config", cfg, command]) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.yaml"]
