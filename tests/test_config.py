import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from returnstats.cli import _analytic_prediction
from returnstats.config import KEYS, PAIRS, ConfigError, ExperimentConfig, ScheduleRow
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
    again = ExperimentConfig.from_yaml(yaml.safe_dump(cfg.to_dict(), sort_keys=False))
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
    # so does every defaulted system and target key
    assert d["system"] == {"kind": "torus", "a": 2} and d["target"] == {"kind": "torus_strip"}
    d = ExperimentConfig.from_yaml("""
system: {kind: cml, a: 3}
target: {kind: ball, center: [0.5, 0.5]}
schedule: [{rho: 1.0e-2}]
""").to_dict()
    assert d["system"] == {"kind": "cml", "a": 3, "n": 2, "gamma": 0.0, "weights": None,
                           "eps": 0.0, "burn_in": 1024}
    assert d["target"] == {"kind": "ball", "center": [0.5, 0.5]}
    d = ExperimentConfig.from_yaml("""
system: {kind: regenerative}
target: {kind: level_set}
schedule: [{m: 100}]
""").to_dict()
    assert d["system"] == {"kind": "regenerative", "block_rule": "smith",
                           "cluster_lambdas": None, "k_cap": 100000}


def test_the_orbit_length_that_runs_is_filled_in():
    # min(orbit_len, max_orbit), with max(200000, 100 (2K+1)) for an unset
    # orbit_len; a regenerative row gets that default as its stream_len
    base = ExperimentConfig.from_yaml(TORUS_YAML).to_dict()
    assert [row["orbit_len"] for row in base["schedule"]] == [200_000, 200_000]
    for row, want in (({"rho": 0.1, "K": 3, "max_orbit": 5000}, 5000),
                      ({"rho": 0.1, "K": 2000}, 400_100),
                      ({"rho": 0.1, "orbit_len": 10**6, "max_orbit": 3 * 10**5}, 3 * 10**5),
                      ({"rho": 0.1, "orbit_len": 7000}, 7000)):
        cfg = ExperimentConfig.from_dict(dict(base, schedule=[row]))
        assert cfg.schedule[0].orbit_len == want
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    regen = ExperimentConfig.from_yaml("""
system: {kind: regenerative}
target: {kind: level_set}
schedule: [{m: 100, K: 1000}]
""").schedule[0]
    assert (regen.stream_len, regen.orbit_len) == (200_100, None)


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
    with pytest.raises(ConfigError, match="stream_len must be >= 1"):
        ExperimentConfig.from_dict(dict(regen.to_dict(), schedule=[{"m": 100, "stream_len": 0}]))


def test_rows_refuse_the_length_keys_of_the_other_kind():
    # a regenerative row runs streams of stream_len symbols, and a map row
    # orbits of orbit_len points up to max_orbit; the other kind's keys used
    # to load, be echoed into the manifest and be ignored
    regen = ExperimentConfig.from_yaml("""
system: {kind: regenerative}
target: {kind: level_set}
schedule: [{m: 100, K: 3}]
""")
    for patch in ({"orbit_len": 7, "max_orbit": 5}, {"orbit_len": 7}, {"max_orbit": 5}):
        with pytest.raises(ConfigError, match="unknown schedule keys .* for a regenerative"):
            ExperimentConfig.from_dict(dict(regen.to_dict(),
                                            schedule=[{"m": 100, "K": 3, **patch}]))
    with pytest.raises(ConfigError, match=r"unknown schedule keys \['stream_len'\] for a "
                                          "linear_mod1 system"):
        ExperimentConfig.from_yaml("""
system: {kind: linear_mod1, a: 3}
target: {kind: ball, center: [0.5]}
schedule: [{rho: 0.01, stream_len: 3}]
""")
    # max_orbit's default is filled in on map rows alone, and both kinds
    # round-trip through to_dict
    row = regen.to_dict()["schedule"][0]
    assert "max_orbit" not in row and "orbit_len" not in row and row["stream_len"] == 200_000
    assert regen.schedule[0].max_orbit is None
    assert ExperimentConfig.from_dict(regen.to_dict()) == regen
    torus = ExperimentConfig.from_yaml(TORUS_YAML)
    assert torus.to_dict()["schedule"][0]["max_orbit"] == 20_000_000
    assert "stream_len" not in torus.to_dict()["schedule"][0]
    assert ExperimentConfig.from_dict(torus.to_dict()) == torus


PERIODS = [(3, 0.5, 1), (3, 0.3, 4), (3, 0.25, 2), (2, 1 / 7, 3), (2, 0.2, 4), (2, 0.0, 1),
           (2, 1 / 3, 2), (2, 0.5, None), (2, 2**-0.5, None), (2, 0.3, None)]


def test_a_balls_period_is_derived_from_its_centre():
    # c (a^q - 1) is an integer up to the float's rounding; 1/2 maps to the
    # fixed point 0 of 2x mod 1 and is not periodic itself, and 2^-1/2 and
    # the float 0.3 have no period with 2^q <= 2^26
    for a, centre, period in PERIODS:
        assert LinearMod1System(a).minimal_period(centre) == period, (a, centre)
    configs = Path(__file__).resolve().parents[1] / "configs"
    fixed = ExperimentConfig.load(configs / "fixed_point.yaml")
    assert fixed.target == {"kind": "ball", "center": [0.5]}
    assert fixed.build_system().minimal_period(0.5) == 1
    other = ExperimentConfig.load(configs / "nonperiodic_point.yaml")
    assert other.build_system().minimal_period(other.target["center"][0]) is None


@pytest.mark.parametrize("a, centre, period", [
    (3, 0.3, 1), (3, 0.3, 2), (3, 0.5, 2), (3, 0.3, 8), (2, 0.5, 1), (3, 0.5, 0), (3, 0.3, 33),
], ids=["0.3-period-1", "0.3-period-2", "fixed-point-period-2", "0.3-period-8",
        "preperiodic", "period-0", "period-beyond-float"])
def test_a_declared_period_that_is_not_minimal_is_refused(a, centre, period):
    # predict read a declared period as the centre's minimal one, so a wrong
    # one wrote a wrong law (0.3 has period 4 under 3x mod 1, and period 1
    # wrote theta = 2/3).  The key is refused, and predict's extremal index
    # 1 - a^-q is that of the centre's own period q
    with pytest.raises(ConfigError, match=r"unknown target keys \['periodic_period'\]"):
        ExperimentConfig.from_dict({"system": {"kind": "linear_mod1", "a": a},
                                    "target": {"kind": "ball", "center": [centre],
                                               "periodic_period": period},
                                    "schedule": [{"rho": 1e-3}]})
    system = LinearMod1System(a)
    q = system.minimal_period(centre)
    assert q != period
    theta = _analytic_prediction(system, Ball((centre,), 1e-3), ScheduleRow(1e-3)).extremal_index
    assert theta == pytest.approx(1.0 if q is None else 1 - a**-q, rel=1e-15)


def test_schedule_numbers_written_as_exponents():
    # PyYAML reads an exponent without a dot (1e0) as a string
    cfg = ExperimentConfig.from_yaml(TORUS_YAML.replace("{rho: 1.0e-2, K: 50}",
                                                        "{rho: 1e-2, K: 1e1, t: 1e0}"))
    row = cfg.schedule[0]
    assert (row.scale, row.K, row.t) == (0.01, 10, 1.0)
    assert type(row.K) is int and type(row.t) is float
    base = cfg.to_dict()
    for patch, message in (({"K": 2.5}, "K must be an integer"),
                           ({"K": "2.5e0"}, "K must be an integer"),
                           ({"n_trials": "lots"}, "n_trials must be a number"),
                           ({"t": [1]}, "t must be a number"),
                           ({"rho": "wide"}, "rho must be a number")):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict(dict(base, schedule=[{"rho": 0.1, **patch}]))


@pytest.mark.parametrize("system, target, row, message", [
    ("{kind: torus, a: 2.5}", "{kind: torus_strip}", "{rho: 0.01}", "system a must be an integer"),
    ("{kind: linear_mod1, a: 2.5}", "{kind: ball}", "{rho: 0.01}",
     "system a must be an integer"),
    ("{kind: cml, a: 2.5}", "{kind: diagonal_strip}", "{nu: 0.01}",
     "system a must be an integer"),
    ("{kind: cml, a: 3, n: 2.7}", "{kind: diagonal_strip}", "{nu: 0.01}",
     "system n must be an integer"),
    ("{kind: cml, a: 3, burn_in: 10.5}", "{kind: diagonal_strip}", "{nu: 0.01}",
     "system burn_in must be an integer"),
    ("{kind: cml, a: 3, n: 0}", "{kind: diagonal_strip}", "{nu: 0.01}",
     "lattice size n must be >= 1"),
    ("{kind: regenerative, k_cap: 300.9}", "{kind: level_set}", "{m: 10}",
     "system k_cap must be an integer"),
    ("{kind: regenerative}", "{kind: level_set}", "{m: 2.5}",
     "schedule row m must be an integer"),
    ("{kind: linear_mod1, a: 3}", "{kind: ball, periodic_period: 1}", "{rho: 0.01}",
     r"unknown target keys \['periodic_period'\] for kind 'ball'"),
    ("{kind: linear_mod1, a: two}", "{kind: ball}", "{rho: 0.01}", "system a must be a number"),
    ("{kind: cml, a: 3, n: 2, gama: 0.3}", "{kind: diagonal_strip}", "{nu: 0.01}",
     r"unknown system keys \['gama'\]"),
    ("{kind: torus, a: 2, n: 2}", "{kind: torus_strip}", "{rho: 0.01}",
     r"unknown system keys \['n'\]"),
    ("{kind: torus, a: 2}", "{kind: torus_strip, center: [0.5, 0.5]}", "{rho: 0.01}",
     r"unknown target keys \['center'\]"),
    ("{kind: torus, a: 2}", "{kind: torus_strip, periodic_period: 1}", "{rho: 0.01}",
     r"unknown target keys \['periodic_period'\]"),
    # keys that would load and act on nothing: smith blocks ignore cluster
    # lambdas, weights act only through the coupling, and the coupling of
    # one site is the identity (2x mod 1 with gamma 0.1 drained to 0)
    ("{kind: regenerative, block_rule: smith, cluster_lambdas: [0.5, 0.5]}",
     "{kind: level_set}", "{m: 10}", "cluster_lambdas is set for, and only for, fixed_lengths"),
    ("{kind: cml, a: 3, weights: [0.25, 0.75]}", "{kind: diagonal_strip}", "{nu: 0.01}",
     "weights act only through the coupling"),
    ("{kind: cml, a: 3, gamma: 0, weights: [0.5, 0.5]}", "{kind: diagonal_strip}",
     "{nu: 0.01}", "weights act only through the coupling"),
    ("{kind: cml, a: 2, n: 1, gamma: 0.1}", "{kind: ball, center: [0.3]}", "{rho: 0.01}",
     "a one-site lattice has no coupling"),
    ("{kind: cml, a: 3, n: 1, gamma: 0.5, eps: 0.05}", "{kind: ball, center: [0.3]}",
     "{rho: 0.01}", "a one-site lattice has no coupling"),
    # the float keys are finite numbers: a nan eps used to load and fail later
    # with unrelated messages, and booleans loaded as 1.0 and 0.0
    ("{kind: cml, a: 3, n: 1, eps: .nan}", "{kind: ball, center: [0.3]}", "{rho: 0.01}",
     "system eps must be finite"),
    ("{kind: cml, a: 3, gamma: .inf}", "{kind: diagonal_strip}", "{nu: 0.01}",
     "system gamma must be finite"),
    ("{kind: cml, a: 3, gamma: yes}", "{kind: diagonal_strip}", "{nu: 0.01}",
     "system gamma must be a number"),
    ("{kind: cml, a: 3, gamma: 0.1, weights: [true, false]}", "{kind: diagonal_strip}",
     "{nu: 0.01}", "system weights must be a number"),
    ("{kind: cml, a: 3, gamma: 0.1, weights: [.inf, 0.5]}", "{kind: diagonal_strip}",
     "{nu: 0.01}", "system weights must be finite"),
    ("{kind: cml, a: 3, gamma: 0.1, weights: 1}", "{kind: diagonal_strip}",
     "{nu: 0.01}", "system weights must be a list of numbers"),
    ("{kind: linear_mod1, a: 2}", "{kind: ball, center: [true]}", "{rho: 0.01}",
     "target center must be a number"),
    ("{kind: linear_mod1, a: 2}", "{kind: ball, center: [-.inf]}", "{rho: 0.01}",
     "target center must be finite"),
    ("{kind: linear_mod1, a: 2}", "{kind: ball, center: 0.3}", "{rho: 0.01}",
     "target center must be a list of numbers"),
    ("{kind: cml, a: 3, gamma: null}", "{kind: diagonal_strip}", "{nu: 0.01}",
     "system gamma must be a number"),
    ("{kind: regenerative, block_rule: fixed_lengths, cluster_lambdas: [true, false]}",
     "{kind: level_set}", "{m: 10}", "system cluster_lambdas must be a number"),
    # a target that holds every point: simulate wrote alpha_hat = 1 and
    # theta = 0 for the one-site strip, and U_0 read mu 0.9999999999999999
    ("{kind: cml, a: 3, n: 1}", "{kind: diagonal_strip}", "{nu: 0.01}",
     "is the whole 1-dimensional space"),
    ("{kind: linear_mod1, a: 2}", "{kind: ball, center: [0.5]}", "{rho: 2.0}",
     "is the whole 1-dimensional space"),
    ("{kind: torus, a: 2}", "{kind: torus_strip}", "{rho: 0.5}",
     "is the whole 2-dimensional space"),
    ("{kind: cml, a: 3, n: 2, gamma: 0.1}", "{kind: ball, center: [0.5, 0.5]}",
     "{rho: 0.5}", "is the whole 2-dimensional space"),
    ("{kind: regenerative}", "{kind: level_set}", "{m: 0}",
     r"level set m = 0 must lie in \[1, k_cap\)"),
    # a centre off the cube: on a lattice the cluster phase ran to max_orbit with
    # no entry, on linear_mod1 mu read "must be finite and positive"
    ("{kind: cml, a: 3, n: 2, gamma: 0.1}", "{kind: ball, center: [1.5, 1.5]}",
     "{rho: 0.01}", r"a ball centre lies in the unit cube \[0, 1\]"),
    ("{kind: linear_mod1, a: 3}", "{kind: ball, center: [1.5]}", "{rho: 0.01}",
     r"a ball centre lies in the unit cube \[0, 1\]"),
    ("{kind: linear_mod1, a: 3}", "{kind: ball, center: [-0.25]}", "{rho: 0.01}",
     r"a ball centre lies in the unit cube \[0, 1\]"),
    # a slope above 2**53 has no exact digit: it loaded, and simulate died in
    # sliding_window_values with a TypeError and exit 1
    ("{kind: linear_mod1, a: 10000000000000000}", "{kind: ball, center: [0.3]}",
     "{rho: 0.01}", r"slope a = 10000000000000000 exceeds 2\*\*53"),
    ("{kind: torus, a: 9007199254740993}", "{kind: torus_strip}", "{rho: 0.01}",
     r"slope a = 9007199254740993 exceeds 2\*\*53"),
], ids=["torus-a", "linear_mod1-a", "cml-a", "cml-n", "cml-burn_in", "cml-n-0",
        "regenerative-k_cap", "level_set-m", "ball-periodic_period", "a-not-a-number",
        "cml-gama", "torus-n", "torus_strip-center", "torus_strip-periodic_period",
        "smith-cluster_lambdas", "cml-weights-uncoupled", "cml-weights-gamma-0",
        "cml-one-site-gamma", "cml-one-site-sine-gamma", "cml-eps-nan", "cml-gamma-inf",
        "cml-gamma-bool", "cml-weights-bool", "cml-weights-inf", "cml-weights-scalar",
        "ball-center-bool", "ball-center-inf", "ball-center-scalar", "cml-gamma-null",
        "fixed_lengths-cluster_lambdas-bool", "cml-one-site-strip", "ball-whole-interval",
        "torus_strip-half", "cml-coupled-ball-whole-lattice", "level_set-m-0",
        "cml-ball-center-off-cube", "ball-center-above-1", "ball-center-below-0",
        "linear_mod1-a-above-2**53", "torus-a-above-2**53"])
def test_system_and_target_values_are_checked(system, target, row, message):
    # a non-integral value used to be truncated, an unknown key ignored
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig.from_yaml(f"system: {system}\ntarget: {target}\nschedule: [{row}]")


def test_integral_values_load_as_integers():
    cfg = ExperimentConfig.from_yaml("""
system: {kind: regenerative, k_cap: 3e2}
target: {kind: level_set}
schedule: [{m: 10.0, K: 3}]
""")
    assert cfg.system["k_cap"] == 300 and cfg.build_system().k_cap == 300
    assert cfg.build_target(cfg.schedule[0]) == 10 and type(cfg.schedule[0].scale) is int
    assert cfg.schedule[0].label("m") == "m10_K3"
    system = ExperimentConfig.from_yaml("""
system: {kind: cml, a: 3.0, n: 2.0, burn_in: 1e1}
target: {kind: diagonal_strip}
schedule: [{nu: 0.01}]
""").build_system()
    assert system.base_map.a == 3 and system.dimension == 2 and system.burn_in == 10


def test_output_formats_are_checked():
    base = ExperimentConfig.from_yaml(TORUS_YAML).to_dict()
    for formats in (["csv"], ["json"], ["csv", "json"]):
        cfg = ExperimentConfig.from_dict(dict(base, outputs={"formats": formats}))
        assert cfg.outputs["formats"] == formats
    # "csv,json" used to pass because `in` matches substrings, and [jsn]
    # wrote nothing but the manifest
    for formats in (["jsn"], "csv,json", "json", [], ["json", "xml"], None):
        with pytest.raises(ConfigError, match="formats must be a non-empty list"):
            ExperimentConfig.from_dict(dict(base, outputs={"formats": formats}))


def test_numeric_range_validation():
    base = ExperimentConfig.from_yaml(TORUS_YAML).to_dict()
    for patch in ({"seed": -1}, {"seed": 2**64}, {"seed": 7.5}, {"workers": 0},
                  {"workers": 1.5}, {"threshold": 1.5}):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(dict(base, **patch))


@pytest.mark.parametrize("value", ["yes", "true", "no", "false"])
@pytest.mark.parametrize("key", ["K", "t", "n_trials", "seed", "workers", "system a"])
def test_booleans_are_not_numbers(key, value):
    # PyYAML reads yes and true as bools, and float(True) is 1.0: K: yes
    # loaded as K = 1 and ran
    raw = yaml.safe_load(TORUS_YAML)
    if key == "system a":
        raw["system"]["a"] = yaml.safe_load(value)
    elif key in ("seed", "workers"):
        raw[key] = yaml.safe_load(value)
    else:
        raw["schedule"][0][key] = yaml.safe_load(value)
    with pytest.raises(ConfigError, match="must be a number, got (True|False)"):
        ExperimentConfig.from_dict(raw)


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
    assert isinstance(system, CmlSystem) and system.dimension == 3
    np.testing.assert_allclose(system.weights, np.full(3, 1 / 3))
    assert isinstance(cml.build_target(cml.schedule[0]), DiagonalStrip)

    # a single sine-perturbed interval map is a one-site lattice
    sine = ExperimentConfig.from_yaml("""
system: {kind: cml, a: 3, n: 1, eps: 0.05, burn_in: 64}
target: {kind: ball, center: [0.3]}
schedule: [{rho: 1.0e-2}]
""").build_system()
    assert isinstance(sine, CmlSystem) and sine.dimension == 1 and sine.burn_in == 64
    assert isinstance(sine.base_map, SinePerturbedInterval)
    assert sine.base_map.eps == 0.05

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


# a loadable config of each shape, and a value other than the loaded one for
# every key its system and target kinds read
ACTING = [
    ({"kind": "torus"}, {"kind": "torus_strip"}, {"rho": 0.01}, {"a": 3}),
    ({"kind": "linear_mod1", "a": 3}, {"kind": "ball", "center": [0.3]}, {"rho": 0.01},
     {"a": 5, "center": [0.7]}),
    ({"kind": "cml", "a": 3}, {"kind": "diagonal_strip"}, {"nu": 0.01},
     {"a": 5, "n": 3, "gamma": 0.2, "weights": [0.25, 0.75], "eps": 0.05, "burn_in": 7}),
    ({"kind": "cml", "a": 3, "gamma": 0.1}, {"kind": "ball", "center": [0.3, 0.6]},
     {"rho": 0.01}, {"gamma": 0.2, "weights": [0.25, 0.75], "center": [0.3, 0.7]}),
    ({"kind": "cml", "a": 3, "n": 1}, {"kind": "ball", "center": [0.3]}, {"rho": 0.01},
     {"n": 2, "gamma": 0.2, "weights": [1.0], "eps": 0.05, "center": [0.7]}),
    ({"kind": "regenerative"}, {"kind": "level_set"}, {"m": 10},
     {"block_rule": "fixed_lengths", "cluster_lambdas": [0.5, 0.5], "k_cap": 3000}),
    ({"kind": "regenerative", "block_rule": "fixed_lengths", "cluster_lambdas": [0.5, 0.5]},
     {"kind": "level_set"}, {"m": 10},
     {"block_rule": "smith", "cluster_lambdas": [0.2, 0.8], "k_cap": 3000}),
]


def _what_runs(cfg: ExperimentConfig):
    """What the built system does, and the built targets: a map system's
    first orbit points (fields such as uncoupled weights change no bit of
    them), or a RegenSpec's laws."""
    system = cfg.build_system()
    if isinstance(system, RegenSpec):
        dist = system.cluster_dist
        acts = (system.block_rule, system.symbol_probs.tobytes(),
                None if dist is None else dist.lambdas.tobytes())
    else:
        _, coords = next(system._orbit_slices(1, [0, 1], 4))
        acts = (type(system), system.preserves_lebesgue, coords.tobytes())
    return acts, [repr(cfg.build_target(row)) for row in cfg.schedule]


def test_every_key_acts_or_is_refused():
    # predict and simulate read only the built system and targets, so a key
    # that changes neither loads, is echoed into the manifest and does
    # nothing; such a key must be refused at load
    covered = set()
    for system, target, row, other in ACTING:
        raw = {"system": system, "target": target, "schedule": [row]}
        base = _what_runs(ExperimentConfig.from_dict(raw))
        for key, value in other.items():
            section = "system" if key in KEYS[system["kind"]] else "target"
            kind = raw[section]["kind"]
            covered.add((kind, key))
            changed = dict(raw, **{section: {**raw[section], key: value}})
            try:
                cfg = ExperimentConfig.from_dict(changed)
            except ConfigError:
                continue
            assert _what_runs(cfg) != base, f"{kind} {key}: {value!r} loads and acts on nothing"
    assert covered == {(kind, key) for kind in KEYS for key in KEYS[kind]}
    # the one key that acts on nothing: the top-level threshold is echoed
    # only (compare reads --threshold), and bench/workloads.py sets it, so
    # it stays until the benchmark changes (ROADMAP item 10)
    raw = yaml.safe_load(TORUS_YAML)
    assert (_what_runs(ExperimentConfig.from_dict(dict(raw, threshold=0.5)))
            == _what_runs(ExperimentConfig.from_dict(raw)))
