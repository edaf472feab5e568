import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np
import pytest

from returnstats.cli import main
from returnstats.distributions import DiscreteDistribution
from returnstats.estimators import ClusterAccumulator, ClusterStats
from returnstats.records import csv_table, from_json_fields, json_fields
from returnstats.stats import GofReport

from polya_aeppli_reference import polya_aeppli_pmf


def _strict(text: str):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def _cells_are_floats(text: str) -> list:
    rows = list(csv.reader(io.StringIO(text)))
    for row in rows[1:]:
        assert len(row) == len(rows[0])
        for cell in row:
            if cell:
                float(cell)
    return rows


@dataclass(frozen=True)
class _Record:
    values: np.ndarray
    scale: float
    count: int
    note: str | None = None


def test_json_fields_lists_arrays_and_writes_non_finite_floats_as_null():
    rec = _Record(np.array([1.0, np.nan, np.inf]), math.nan, 3)
    d = json_fields(rec, extra=np.float64(0.5))
    assert d == {"values": [1.0, None, None], "scale": None, "count": 3, "extra": 0.5}
    assert list(d) == ["values", "scale", "count", "extra"]  # None fields left out
    back = from_json_fields(_Record, _strict(json.dumps(d)))
    np.testing.assert_array_equal(back.values, [1.0, np.nan, np.nan])
    assert math.isnan(back.scale) and back.count == 3 and back.note is None


def test_csv_table_leaves_cells_past_a_column_end_empty():
    table = csv_table("k", {"a": np.array([0.5, 0.25]), "b": [np.float64(1.0)]}, start=0)
    assert table == "k,a,b\n0,0.5,1.0\n1,0.25,\n"


def _one_orbit_stats() -> ClusterStats:
    acc = ClusterAccumulator(K=1)
    row = np.zeros(50, dtype=bool)
    row[[10, 11, 30]] = True
    acc.add_orbit(row)
    return acc.finalize(insufficient=True)


def test_cluster_stats_with_one_orbit_writes_strict_json():
    cs = _one_orbit_stats()
    assert np.isnan(cs.alpha_se).all() and np.isnan(cs.lambda_se).all()
    d = _strict(cs.to_json())
    assert d["alpha_se"] == [None, None] and d["lambda_se"] == [None] * 3
    assert list(d)[-2:] == ["extremal_index", "insufficient"]
    back = ClusterStats.from_json(cs.to_json())
    assert np.isnan(back.alpha_se).all() and np.isnan(back.lambda_se).all()
    np.testing.assert_array_equal(back.alpha_hat, cs.alpha_hat)
    assert back.insufficient and back.n_orbits == 1


def test_every_record_csv_cell_is_empty_or_a_float(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"""
system: {{kind: cml, a: 3, n: 2, gamma: 0.1}}
target: {{kind: diagonal_strip}}
schedule: [{{nu: 0.01, k_max: 4}}]
outputs: {{dir: "{out}"}}
""")
    assert main(["--config", str(cfg), "predict"]) == 0
    rows = _cells_are_floats((out / "predict_nu0p01_K10.csv").read_text())
    # alpha_hat_1..alpha_hat_5 and lambda_1..lambda_3: two empty cells
    assert rows[0] == ["k", "alpha_hat", "lambda"] and len(rows) == 1 + 5
    assert [r[2] for r in rows[-2:]] == ["", ""]
    rows = _cells_are_floats(_one_orbit_stats().to_csv())
    assert rows[0] == ["ell", "alpha_hat", "alpha_se", "lambda_hat", "lambda_se"]
    rows = _cells_are_floats(polya_aeppli_pmf(1.0, 0.5, 10).to_csv())
    assert rows[0] == ["k", "prob"] and rows[1][0] == "0"


def test_records_round_trip_through_json():
    rep = GofReport(tv_distance=0.01, chi_square=math.nan, dof=4, p_value=0.52, n=1000)
    back = from_json_fields(GofReport, json.loads(rep.to_json()))
    assert math.isnan(back.chi_square) and back.dof == 4
    d = DiscreteDistribution(np.array([0.5, 0.5]), tail_mass=0)
    assert d.to_json() == '{"probs": [0.5, 0.5], "tail_mass": 0.0}'


def test_predict_csv_lists_every_lambda_of_its_json(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"""
system: {{kind: regenerative, block_rule: fixed_lengths,
         cluster_lambdas: [0.4, 0.2, 0.1, 0.1, 0.1, 0.1]}}
target: {{kind: level_set}}
schedule: [{{m: 100, k_max: 2}}]
outputs: {{dir: "{out}"}}
""")
    assert main(["--config", str(cfg), "predict"]) == 0
    payload = _strict((out / "predict_m100_K10.json").read_text())
    rows = _cells_are_floats((out / "predict_m100_K10.csv").read_text())
    assert rows[0] == ["k", "alpha_hat", "lambda"]
    assert len(payload["lambdas"]) == 6 > len(payload["alpha_hat"]) == 3
    assert [float(r[2]) for r in rows[1:]] == payload["lambdas"]
    assert [float(r[1]) for r in rows[1:] if r[1]] == payload["alpha_hat"]


@pytest.mark.parametrize("command", ["predict", "simulate"])
def test_cli_result_files_are_strict_json_and_float_csv(tmp_path, command):
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"""
system: {{kind: linear_mod1, a: 3}}
target: {{kind: ball, center: [0.5]}}
schedule: [{{rho: 0.02, K: 4, n_trials: 200, min_entries: 200, orbit_len: 20000}}]
seed: 5
outputs: {{dir: "{out}"}}
""")
    assert main(["--config", str(cfg), command]) == 0
    files = sorted(out.iterdir())
    assert len(files) > 3
    for f in files:
        if f.suffix == ".json":
            _strict(f.read_text())
        else:
            _cells_are_floats(f.read_text())
