import re
from pathlib import Path

import numpy as np
import pytest

from returnstats.config import PAIRS, ConfigError, ExperimentConfig
from returnstats.dynamics import (CmlSystem, LinearMod1System, SinePerturbedInterval,
                                  TorusAffineSystem)
from returnstats.regenerative import RegenSpec
from returnstats.targets import Ball, DiagonalStrip, TorusStrip

TORUS_YAML = """
experiment: torus-sweep
system: {kind: torus, a: 2}
target: {kind: torus_strip}
schedule:
  - {rho: 1.0e-2, K: 50}
  - {rho: 1.0e-3, K: 50, n_trials: 500}
seed: 42
workers: 2
"""


def test_round_trip_is_identity():
    cfg = ExperimentConfig.from_yaml(TORUS_YAML)
    again = ExperimentConfig.from_yaml(cfg.to_yaml())
    assert again.to_dict() == cfg.to_dict()
    assert again == cfg


def test_defaults_are_echoed_explicitly():
    cfg = ExperimentConfig.from_yaml(TORUS_YAML)
    row = cfg.to_dict()["schedule"][0]
    # every defaulted knob appears in the serialized row
    for key in ("K", "t", "n_trials", "min_entries", "max_orbit", "k_max"):
        assert key in row
    assert row["min_entries"] == 1000
    d = cfg.to_dict()
    assert d["threshold"] == 0.01 and d["outputs"]["dir"] == "results"


def test_schedule_scale_names():
    cfg = ExperimentConfig.from_yaml(TORUS_YAML)
    assert cfg.scale_name == "rho"
    assert cfg.schedule[0].label("rho") == "rho0p01_K50"


def test_missing_sections_and_bad_kinds():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"system": {"kind": "torus"}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_yaml(TORUS_YAML.replace("kind: torus,", "kind: pendulum,"))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_yaml(TORUS_YAML.replace("kind: torus_strip", "kind: moon"))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_yaml("not: [valid")  # YAML error -> ConfigError


def test_schedule_validation():
    base = ExperimentConfig.from_yaml(TORUS_YAML).to_dict()
    bad = dict(base, schedule=[])
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(bad)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(dict(base, schedule=[{"K": 5}]))  # missing rho
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(dict(base, schedule=[{"rho": 0.1, "frobnicate": 1}]))
    for row, message in (({"rho": 0.1, "t": 0}, "t must be finite and positive"),
                         ({"rho": 0.1, "t": -1.0}, "t must be finite and positive"),
                         ({"rho": 0.1, "t": float("inf")}, "t must be finite"),
                         ({"rho": 0.1, "n_trials": 0}, "n_trials must be >= 1"),
                         ({"rho": 0.1, "K": 0}, "K must be >= 1"),
                         ({"rho": 0.1, "k_max": 0}, "k_max must be >= 1"),
                         ({"rho": 0.1, "max_orbit": 0}, "max_orbit must be >= 1"),
                         ({"rho": 0.1, "orbit_len": -5}, "orbit_len must be >= 1"),
                         ({"rho": 0.1, "stream_len": 0}, "stream_len must be >= 1"),
                         ({"rho": 0.1, "min_entries": 99}, "min_entries must be >= 100"),
                         ({"rho": 0.1, "K": 3, "orbit_len": 7}, "at least 2K\\+2"),
                         ({"rho": 0.1, "K": 3, "max_orbit": 7}, "at least 2K\\+2"),
                         ({"rho": float("nan")}, "rho must be finite"),
                         ({"rho": float("inf")}, "rho must be finite"),
                         ({"rho": 0.1, "scale": 0.5}, "unknown schedule keys")):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict(dict(base, schedule=[row]))
    # rows whose result files would share a name: the same scale and K, or
    # scales that print alike
    for rows in ([{"rho": 0.01, "K": 3, "t": 1}, {"rho": 0.01, "K": 3, "t": 2}],
                 [{"rho": 0.01}, {"rho": 0.0100000001}]):
        with pytest.raises(ConfigError, match="share the label"):
            ExperimentConfig.from_dict(dict(base, schedule=rows))
    # regenerative runs draw a fixed number of streams, not min_entries events
    regen = ExperimentConfig.from_yaml("""
system: {kind: regenerative, block_rule: smith}
target: {kind: level_set}
schedule: [{m: 100, min_entries: 10}]
""")
    assert regen.schedule[0].min_entries == 10
    with pytest.raises(ConfigError, match="at least 2K\\+2"):
        ExperimentConfig.from_dict(dict(regen.to_dict(),
                                        schedule=[{"m": 100, "K": 3, "stream_len": 7}]))


def test_numeric_range_validation():
    base = ExperimentConfig.from_yaml(TORUS_YAML).to_dict()
    for patch in ({"seed": -1}, {"seed": 2**64}, {"workers": 0},
                  {"threshold": 1.5}):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(dict(base, **patch))


def test_build_system_families():
    assert isinstance(ExperimentConfig.from_yaml(TORUS_YAML).build_system(),
                      TorusAffineSystem)
    cfg = ExperimentConfig.from_yaml("""
system: {kind: linear_mod1, a: 3}
target: {kind: ball, center: [0.5]}
schedule: [{rho: 1.0e-3}]
""")
    assert isinstance(cfg.build_system(), LinearMod1System)
    target = cfg.build_target(cfg.schedule[0])
    assert isinstance(target, Ball) and target.center == (0.5,) and target.rho == 1e-3

    cml = ExperimentConfig.from_yaml("""
system: {kind: cml, a: 2, n: 3, gamma: 0.1}
target: {kind: diagonal_strip}
schedule: [{nu: 1.0e-3}]
""")
    system = cml.build_system()
    assert isinstance(system, CmlSystem) and system.spec.n == 3
    np.testing.assert_allclose(system.spec.weights, np.full(3, 1 / 3))
    assert isinstance(cml.build_target(cml.schedule[0]), DiagonalStrip)

    # a single sine-perturbed interval map is a one-site lattice
    sine = ExperimentConfig.from_yaml("""
system: {kind: cml, a: 3, n: 1, eps: 0.05, burn_in: 64}
target: {kind: ball, center: [0.3]}
schedule: [{rho: 1.0e-2}]
""").build_system()
    assert isinstance(sine, CmlSystem) and sine.dimension == 1 and sine.burn_in == 64
    assert isinstance(sine.spec.base_map, SinePerturbedInterval)
    assert sine.spec.base_map.eps == 0.05

    regen = ExperimentConfig.from_yaml("""
system: {kind: regenerative, block_rule: smith, k_cap: 1000}
target: {kind: level_set}
schedule: [{m: 100, K: 10}]
""")
    spec = regen.build_system()
    assert isinstance(spec, RegenSpec) and spec.k_cap == 1000
    assert regen.build_regen_spec().k_cap == 1000

    strip = ExperimentConfig.from_yaml(TORUS_YAML)
    assert isinstance(strip.build_target(strip.schedule[0]), TorusStrip)


SCALE = {"ball": "rho", "torus_strip": "rho", "diagonal_strip": "nu", "level_set": "m"}


@pytest.mark.parametrize("system, target", [
    ("torus", "ball"), ("torus", "diagonal_strip"), ("torus", "level_set"),
    ("linear_mod1", "torus_strip"), ("linear_mod1", "diagonal_strip"),
    ("linear_mod1", "level_set"),
    ("cml", "torus_strip"), ("cml", "level_set"),
    ("regenerative", "ball"), ("regenerative", "torus_strip"),
    ("regenerative", "diagonal_strip"),
])
def test_load_rejects_a_pair_the_system_does_not_run(system, target):
    raw = {"system": {"kind": system}, "target": {"kind": target},
           "schedule": [{SCALE[target]: 0.1}]}
    with pytest.raises(ConfigError, match=f"a {system} system runs .* not '{target}'"):
        ExperimentConfig.from_dict(raw)
    if system == "torus" and target != "level_set":
        # (a-1)x - y mod 1 is constant along torus orbits, so a ball or a
        # diagonal strip sees one line per orbit
        with pytest.raises(ConfigError, match=r"\(a-1\)x - y mod 1"):
            ExperimentConfig.from_dict(raw)


def test_load_from_file(tmp_path):
    p = tmp_path / "cfg.yaml"
    p.write_text(TORUS_YAML)
    cfg = ExperimentConfig.load(p)
    assert cfg.seed == 42 and cfg.workers == 2


def test_readme_pairs_table_is_config_pairs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    header = readme.index("| system kind ")
    table = {}
    for line in readme[header:].splitlines()[2:]:
        if not line.startswith("|"):
            break
        kind, targets = line.split("|")[1:3]
        table[kind.strip(" `")] = tuple(re.findall(r"`(\w+)`", targets))
    assert table == PAIRS
