"""Tests of the benchmark's own code.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402


def _tiny_config(tmp_path: Path) -> Path:
    cfg = {
        "system": {"kind": "torus", "a": 2},
        "target": {"kind": "torus_strip"},
        "schedule": [{"rho": 0.02, "K": 5, "t": 1.0, "n_trials": 300,
                      "min_entries": 200, "orbit_len": 20000}],
        "seed": 5150,
        "workers": 1,
        "outputs": {"dir": str(tmp_path / "out")},
    }
    path = tmp_path / "cfg.yaml"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    from returnstats.cli import main

    tmp = tmp_path_factory.mktemp("tiny")
    cfg = _tiny_config(tmp)
    assert main(["--config", str(cfg), "simulate"]) == 0
    return tmp, cfg


# -- step counting -----------------------------------------------------------


def test_orbit_steps_adds_cluster_steps_and_counting_orbits():
    # N = floor(1 / 0.002) = 500, so each counting orbit has 501 points
    assert check.orbit_steps(1_000, 10, 1.0, 0.002) == 1_000 + 10 * 501
    assert check.orbit_steps(0, 3, 2.5, 0.3) == 3 * (math.floor(2.5 / 0.3) + 1)


def test_row_check_reads_steps_from_outputs(simulated, tmp_path):
    tmp, cfg = simulated
    rows = check.check_outputs(str(cfg), tmp / "out", tmp_path / "predict")
    assert len(rows) == 1 and rows[0]["ok"], rows
    cluster = json.loads((tmp / "out" / "cluster_rho0p02_K5.json").read_text())
    # mu = 2 rho = 0.04, so N = 25
    assert rows[0]["steps"] == cluster["total_steps"] + 300 * 26


# -- the row check -------------------------------------------------------------


def test_row_check_fails_a_wrong_counting_law(simulated, tmp_path):
    tmp, cfg = simulated
    bad = tmp_path / "bad"
    bad.mkdir()
    for f in (tmp / "out").iterdir():
        (bad / f.name).write_bytes(f.read_bytes())
    law = json.loads((bad / "counting_rho0p02_K5.json").read_text())
    law["probs"] = [0.0, 0.0, 0.0, 1.0]  # every orbit visits exactly 3 times
    law["tail_mass"] = 0.0
    (bad / "counting_rho0p02_K5.json").write_text(json.dumps(law))
    rows = check.check_outputs(str(cfg), bad, tmp_path / "predict")
    assert not rows[0]["ok"]
    assert any(r.startswith("compare") for r in rows[0]["reasons"])


def test_row_check_fails_missing_and_insufficient_rows(simulated, tmp_path):
    tmp, cfg = simulated
    empty = tmp_path / "empty"
    empty.mkdir()
    rows = check.check_outputs(str(cfg), empty, tmp_path / "predict")
    assert not rows[0]["ok"] and "FileNotFoundError" in rows[0]["reasons"][0]

    flagged = tmp_path / "flagged"
    flagged.mkdir()
    for f in (tmp / "out").iterdir():
        (flagged / f.name).write_bytes(f.read_bytes())
    cluster = json.loads((flagged / "cluster_rho0p02_K5.json").read_text())
    cluster["insufficient"] = True
    (flagged / "cluster_rho0p02_K5.json").write_text(json.dumps(cluster))
    rows = check.check_outputs(str(cfg), flagged, tmp_path / "predict")
    assert rows[0]["reasons"] == ["insufficient"]


def test_count_failures_counts_digest_mismatches():
    rows = [{"label": "rho0p1_K5", "ok": True}]
    ref = {"cluster_rho0p1_K5.json": "a", "counting_rho0p1_K5.json": "b"}
    same = {"digests": dict(ref, **{"manifest.json": "m1"})}
    other = {"digests": dict(ref, **{"counting_rho0p1_K5.json": "c"})}
    assert run.count_failures(rows, [same, same], ref) == (2, 0)
    assert run.count_failures(rows, [same, other], ref) == (2, 1)
    assert run.count_failures([dict(rows[0], ok=False)], [same], ref) == (1, 1)


# -- self-time arithmetic ------------------------------------------------------


def _span(sid, parent, name, start, end):
    return {"id": sid, "parent": parent, "name": name, "start": start, "end": end,
            "counts": [0, 0]}


def test_self_times_split_concurrent_spans_and_sum_to_the_root():
    # root 0..10; a pool batch 2..8 running two orbit blocks in threads,
    # 2..8 and 2..5; one block made membership calls worth 1.5 s of self time
    spans = [_span(1, None, "run", 0.0, 10.0),
             _span(2, 1, "estimators.batch", 2.0, 8.0),
             _span(3, 2, "dynamics.indicator_block", 2.0, 8.0),
             _span(4, 2, "dynamics.indicator_block", 2.0, 5.0)]
    aggs = [{"parent": 3, "name": "targets.contains_points", "calls": 7,
             "total_s": 1.5, "self_s": 1.5, "counts": [0, 0]}]
    trace = {"spans": spans, "aggregates": aggs, "absent": []}
    share, leaf = tracing.wall_shares(spans)
    assert share[1] == pytest.approx(4.0)          # 0..2 and 8..10
    assert share.get(2, 0.0) == 0.0                # never innermost
    assert share[3] == pytest.approx(1.5 + 3.0)    # half of 2..5, all of 5..8
    assert share[4] == pytest.approx(1.5)
    assert leaf[3] == pytest.approx(6.0)
    selfs = tracing.self_times(trace)
    # block 3's 4.5 s share is split 1.5 : 4.5 between membership and itself
    assert selfs["targets.contains_points"] == pytest.approx(4.5 * 1.5 / 6.0)
    assert selfs["dynamics.indicator_block"] == pytest.approx(4.5 * 4.5 / 6.0 + 1.5)
    layers = tracing.layer_self_times(trace)
    assert sum(layers.values()) == pytest.approx(10.0)
    assert layers["other"] == pytest.approx(4.0)
    assert tracing.pool_busy_and_wall(trace) == pytest.approx((9.0, 6.0))


def test_phase_times_take_mu_out_of_the_counting_phase():
    spans = [_span(1, None, "run", 0.0, 10.0),
             _span(2, 1, "estimators.cluster_statistics", 0.0, 4.0),
             _span(3, 1, "estimators.counting_distribution", 4.0, 10.0),
             _span(4, 3, "targets.measure", 4.0, 5.0)]
    phases = tracing.phase_times({"spans": spans, "aggregates": [], "absent": []})
    assert phases == pytest.approx({"cluster": 4.0, "mu": 1.0, "counting": 5.0})


# -- the tracer ------------------------------------------------------------------


def test_tracer_records_layers_and_restores_the_package():
    import returnstats as rs
    from returnstats import dynamics, estimators

    orig_block = dynamics.TorusAffineSystem.indicator_block
    orig_rng = dynamics.trial_rng
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        assert tracer.absent == []
        with tracer.root():
            rs.cluster_statistics(rs.TorusAffineSystem(2), rs.TorusStrip(0.02), K=5,
                                  min_entries=200, max_orbit=10**6, seed=7,
                                  orbit_len=20000, workers=2)
    finally:
        tracer.uninstall()
    assert dynamics.TorusAffineSystem.indicator_block is orig_block
    assert dynamics.trial_rng is orig_rng
    assert estimators.ClusterAccumulator.add_orbit.__name__ == "add_orbit"
    trace = tracer.to_json()
    tot = tracing.totals(trace)
    assert tot["rngstreams.trial_rng"]["calls"] == 2 * tot["estimators.add_orbit"]["calls"]
    assert tot["estimators.add_orbit"]["x1"] == 20000 * tot["estimators.add_orbit"]["calls"]
    assert tot["targets.contains_points"]["x1"] == tot["dynamics.indicator_block"]["x1"]
    assert sum(tracing.layer_self_times(trace).values()) == pytest.approx(
        tracing.totals(trace)["run"]["s"])


def test_tracer_tolerates_a_removed_hook():
    tracer = tracing.Tracer("test")
    gone = [("returnstats.dynamics", "no_such_function", "dynamics.gone", "dynamics",
             tracing.AGG, None),
            ("returnstats.no_such_module", "f", "x.gone", "x", tracing.SPAN, None),
            ("returnstats.targets", "TargetSet#no_such_method", "targets.gone", "targets",
             tracing.AGG, None)]
    tracer.install(gone)
    assert len(tracer.absent) == 3
    tracer.uninstall()


def test_layer_metrics_drop_metrics_of_absent_hooks():
    spans = [_span(1, None, "run", 0.0, 1.0)]
    trace = {"spans": spans, "aggregates": [], "absent": ["returnstats.rngstreams:trial_rng"]}
    plain = {"run_s": 0.9, "import_s": 0.5, "load_s": 0.01}
    m = run.layer_metrics(trace, plain, [{"entries_over_min": 1.5}], None)
    assert "rngstreams.trial_rng.calls" not in m and "rngstreams.trial_rng.s" not in m
    assert m["trace.overhead_s"][0] == pytest.approx(0.1)
    assert m["estimators.batch.speedup_2w"][0] == 0.0


# -- workloads -------------------------------------------------------------------


def test_workload_configs_load_and_follow_the_seed():
    from returnstats.config import ExperimentConfig

    for name in WORKLOADS:
        a = ExperimentConfig.from_dict(make_config(name, 3, "out"))
        b = ExperimentConfig.from_dict(make_config(name, 3, "out"))
        assert a == b and a.seed == 3
        assert ExperimentConfig.from_dict(make_config(name, 4, "out")).seed == 4
    with pytest.raises(ValueError):
        make_config("torus_strip", -1, "out")


def test_benchmark_json_lists_the_metrics_the_json_line_carries():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert set(listed) == {"run_s", "steps_per_s", "setup_s", "peak_rss_mb", "passed_frac"}
    trace = {"spans": [_span(1, None, "run", 0.0, 1.0)], "aggregates": [], "absent": []}
    plain = {"run_s": 0.9, "import_s": 0.5, "load_s": 0.01}
    m = run.layer_metrics(trace, plain, [{"entries_over_min": 1.5}], None)
    carried = {k: u for k, (_, u) in m.items() if k not in run.RECORDED_ONLY}
    assert carried == {p["name"]: p["unit"] for p in spec["per_layer"]}
    assert all(w["name"] in WORKLOADS for w in spec["workloads"])
