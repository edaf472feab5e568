"""Experiment configuration: YAML schema, validation, object construction.

A config names a system, a target family, and a schedule of experiment
rows (one scale value per row plus window/horizon/trial settings).  Each
system and target kind reads the keys of ``KEYS``; every defaulted value,
a row's orbit or stream length included, is filled in explicitly at load
time so the manifest can echo the exact parameters a run used, and any key
outside the schema below is an error.

Schema (YAML):

    experiment: torus-strip-sweep        # free-form label
    system:
      kind: torus                        # torus | linear_mod1 | cml | regenerative
      a: 2                               # torus, linear_mod1, cml
      # cml only: n, gamma, weights, eps, burn_in (n: 1 is the base map
      #   alone, e.g. a*x + eps*sin(2 pi x) mod 1)
      # regenerative only: block_rule, cluster_lambdas, k_cap
    target:
      kind: torus_strip                  # one of the kinds PAIRS lists for
                                         # the system kind
      center: [0.5]                      # ball only: one coordinate per
                                         # system dimension
    schedule:
      - {rho: 1.0e-3, K: 50, t: 1.0, n_trials: 100000,
         min_entries: 10000, max_orbit: 50000000}
    seed: 1234
    workers: 1
    threshold: 0.01                      # echoed only; compare reads --threshold
    outputs: {dir: results, formats: [json, csv]}   # formats: json and/or csv

Scale parameter per row: ``rho`` (ball / torus_strip), ``nu``
(diagonal_strip) or the integer ``m`` (level_set, 1 <= m < k_cap); a map row
takes ``orbit_len`` and ``max_orbit``, a regenerative row ``stream_len``.  Loading builds
the system and every row's target, so a row the system cannot run is an
error before any row writes a file.  So is a key that cannot act (smith
``cluster_lambdas``, ``weights`` at gamma 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import yaml

from .distributions import ClusterSizeDist
from .dynamics import (CmlSpec, CmlSystem, LinearInterval, LinearMod1System,
                       SinePerturbedInterval, TorusAffineSystem)
from .estimators import _default_orbit_len, kac_horizon
from .records import json_fields
from .regenerative import RegenSpec, level_measure
from .targets import Ball, DiagonalStrip, TorusStrip

__all__ = ["ExperimentConfig", "ConfigError", "ScheduleRow", "PAIRS", "KEYS"]

# the target kinds each system kind runs.  A torus orbit keeps (a-1)x - y
# mod 1 constant, so only the strip around {y = 0} sees the whole torus;
# a diagonal strip on an interval map is the whole interval.
PAIRS = {
    "torus": ("torus_strip",),
    "linear_mod1": ("ball",),
    "cml": ("diagonal_strip", "ball"),
    "regenerative": ("level_set",),
}

# the keys each system and target kind reads, with the defaults load fills
# in; None is "not set"
KEYS = {
    "torus": {"a": 2},
    "linear_mod1": {"a": 2},
    "cml": {"a": 2, "n": 2, "gamma": 0.0, "weights": None, "eps": 0.0, "burn_in": 1024},
    "regenerative": {"block_rule": "smith", "cluster_lambdas": None, "k_cap": 10**5},
    "ball": {"center": [0.5]},
    "torus_strip": {},
    "diagonal_strip": {},
    "level_set": {},
}
_INTEGER_KEYS = ("a", "n", "burn_in", "k_cap")
_FLOAT_KEYS = ("gamma", "eps")
_FLOAT_LIST_KEYS = ("weights", "cluster_lambdas", "center")


class ConfigError(ValueError):
    """Malformed or out-of-range configuration."""


def _number(name: str, value, kind):
    """Config value `name` as a float or an int (`kind`).  PyYAML reads an
    exponent without a dot, such as 1e5, as a string, so strings parse too;
    it reads yes and true as a bool, which is no number."""
    if isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None
    if kind is float:
        return number
    if not number.is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value if type(value) is int else int(number)


def _finite(name: str, value) -> float:
    number = _number(name, value, float)
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return number


def _mapping(name: str, value) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a mapping, got {value!r}")
    return dict(value)


def _threshold(value) -> float:
    """The p-value pass threshold, of the config and of `compare --threshold`."""
    threshold = _number("threshold", value, float)
    if not 0.0 <= threshold < 1.0:
        raise ConfigError(f"threshold must lie in [0, 1), got {value!r}")
    return threshold


def _refuse_unknown(name: str, raw: dict, known, why: str = "") -> None:
    unknown = set(raw) - set(known)
    if unknown:
        raise ConfigError(f"unknown {name} keys {sorted(unknown)}{why}")


def _section(name: str, raw: dict) -> dict:
    """The `name` section of kind ``raw["kind"]`` with every key of
    ``KEYS[kind]`` present, its integer keys typed and its float keys (lists
    of floats) finite; any other key is an error."""
    kind = raw["kind"]
    _refuse_unknown(name, raw, {"kind", *KEYS[kind]}, f" for kind {kind!r}")
    out = {"kind": kind}
    for key, default in KEYS[kind].items():
        value = raw.get(key, default)
        label = f"{name} {key}"
        if value is None and default is None:
            pass  # not set
        elif key in _INTEGER_KEYS:
            value = _number(label, value, int)
        elif key in _FLOAT_KEYS:
            value = _finite(label, value)
        elif key in _FLOAT_LIST_KEYS:
            if not isinstance(value, list):
                raise ConfigError(f"{label} must be a list of numbers, got {value!r}")
            value = [_finite(label, v) for v in value]
        out[key] = value
    return out


@dataclass(frozen=True)
class ScheduleRow:
    scale: float            # rho, nu or m depending on the target kind
    K: int = 10
    t: float = 1.0
    n_trials: int = 10000
    min_entries: int = 1000
    max_orbit: int | None = 20_000_000   # map rows only
    orbit_len: int | None = None
    stream_len: int | None = None
    k_max: int = 6

    def label(self, scale_name: str) -> str:
        s = f"{self.scale:g}".replace(".", "p").replace("-", "m")
        return f"{scale_name}{s}_K{self.K}"


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    system: dict
    target: dict
    schedule: tuple
    seed: int
    workers: int
    threshold: float
    outputs: dict

    # ------------------------------------------------------------------
    # parsing / serialization
    # ------------------------------------------------------------------

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a mapping")
        for key in ("system", "target", "schedule"):
            if key not in raw:
                raise ConfigError(f"missing required section {key!r}")
        _refuse_unknown("top-level", raw, ("experiment", "system", "target", "schedule",
                                           "seed", "workers", "threshold", "outputs"))
        system = _mapping("system", raw["system"])
        target = _mapping("target", raw["target"])
        kind = system.get("kind")
        if kind not in PAIRS:
            raise ConfigError(f"unknown system kind {kind!r}")
        tkind = target.get("kind")
        if tkind not in PAIRS[kind]:
            why = ""
            if kind == "torus" and tkind in ("ball", "diagonal_strip"):
                why = ("; torus orbits keep (a-1)x - y mod 1 constant, so a ball or "
                       "diagonal strip sees one line per orbit and its counting law "
                       "is not the predicted one")
            raise ConfigError(f"a {kind} system runs {' or '.join(PAIRS[kind])} "
                              f"targets, not {tkind!r}{why}")
        system, target = _section("system", system), _section("target", target)

        rows = raw["schedule"]
        if not isinstance(rows, list) or not rows:
            raise ConfigError("schedule must be a non-empty list")
        scale_name = cls._scale_name(tkind)
        schedule = []
        labels = set()
        # each row kind refuses the other's length keys
        regen = kind == "regenerative"
        other = {"orbit_len", "max_orbit"} if regen else {"stream_len"}
        knobs = {f.name for f in fields(ScheduleRow)} - {"scale"} - other
        for row in rows:
            row = _mapping("schedule row", row)
            if scale_name not in row:
                raise ConfigError(f"schedule row missing scale parameter {scale_name!r}")
            scale = _number(f"schedule row {scale_name}", row.pop(scale_name),
                            int if tkind == "level_set" else float)
            if not math.isfinite(scale):
                raise ConfigError(f"schedule row {scale_name} must be finite")
            _refuse_unknown("schedule", row, knobs, f" for a {kind} system")
            for name, value in row.items():
                if value is not None or name not in ("orbit_len", "stream_len"):
                    row[name] = _number(f"schedule row {name}", value,
                                        float if name == "t" else int)
            r = ScheduleRow(scale=scale, **row)
            if not 0 < r.t < math.inf:
                raise ConfigError("schedule row t must be finite and positive")
            # the estimators' own bounds, checked before any row runs
            for name in ("K", "n_trials", "max_orbit", "orbit_len", "stream_len", "k_max"):
                value = getattr(r, name)
                if value is not None and value < 1:
                    raise ConfigError(f"schedule row {name} must be >= 1")
            # fill in the length each orbit or stream runs, so the manifest echoes it
            length = _default_orbit_len(r.K)
            if regen:
                r = replace(r, stream_len=r.stream_len or length, max_orbit=None)
            else:
                r = replace(r, orbit_len=min(r.orbit_len or length, r.max_orbit))
            if not regen and r.min_entries < 100:
                raise ConfigError("schedule row min_entries must be >= 100")
            # a tallied orbit holds at least one full window of 2K+1 and a point
            if (r.stream_len if regen else r.orbit_len) < 2 * r.K + 2:
                raise ConfigError("schedule row orbits must be at least 2K+2 steps long")
            label = r.label(scale_name)
            if label in labels:
                raise ConfigError(f"two schedule rows share the label {label!r}, so "
                                  "the second would overwrite the first's files")
            labels.add(label)
            schedule.append(r)

        seed = _number("seed", raw.get("seed", 0), int)
        if not 0 <= seed < 2**64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        workers = _number("workers", raw.get("workers", 1), int)
        if workers < 1:
            raise ConfigError("workers must be >= 1")
        threshold = _threshold(raw.get("threshold", 0.01))
        outputs = _mapping("outputs", raw.get("outputs", {}))
        _refuse_unknown("outputs", outputs, ("dir", "formats"))
        if not isinstance(outputs.setdefault("dir", "results"), str):
            raise ConfigError(f"outputs dir must be a string, got {outputs['dir']!r}")
        fmts = outputs.setdefault("formats", ["json", "csv"])
        if not (isinstance(fmts, list) and fmts and all(f in ("json", "csv") for f in fmts)):
            raise ConfigError(f"outputs formats must be a non-empty list of json and "
                              f"csv, got {fmts!r}")

        config = cls(experiment=str(raw.get("experiment", "experiment")),
                     system=system, target=target, schedule=tuple(schedule),
                     seed=seed, workers=workers, threshold=threshold,
                     outputs=outputs)
        config._check_targets()
        return config

    def _check_targets(self) -> None:
        """Build the system and every row's target, and check that the
        system can run each one."""
        try:
            system = self.build_system()
            targets = [self.build_target(row) for row in self.schedule]
        except ValueError as e:
            raise ConfigError(str(e)) from None
        for row, target in zip(self.schedule, targets):
            if isinstance(target, Ball) and len(target.center) != system.dimension:
                raise ConfigError(f"a ball centre needs one coordinate per system "
                                  f"dimension ({system.dimension}), got {target.center}")
            if isinstance(system, RegenSpec):
                if not 1 <= target < system.k_cap:
                    raise ConfigError(f"level set m = {target} must lie in [1, k_cap) = "
                                      f"[1, {system.k_cap}); U_0 holds every symbol and "
                                      "U_m is empty from k_cap on")
                mu = level_measure(system, target)
            else:
                # a target of volume 1 holds every point under any stationary law
                mu = target.exact_measure(system.dimension)
                if mu >= 1:
                    raise ConfigError(f"{target} is the whole {system.dimension}-dimensional "
                                      "space, so every point is a hit")
                if not system.preserves_lebesgue:
                    continue  # mu(U) is the cluster phase's hit rate, checked at run time
            # mu(U) is exact here, so the counting horizon is known at load
            try:
                kac_horizon(row.t, mu)
            except ValueError as e:
                raise ConfigError(str(e)) from None

    @classmethod
    def from_yaml(cls, text: str) -> "ExperimentConfig":
        try:
            raw = yaml.safe_load(text)
        except yaml.YAMLError as e:
            raise ConfigError(f"invalid YAML: {e}") from None
        return cls.from_dict(raw)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        return cls.from_yaml(Path(path).read_text())

    def to_dict(self) -> dict:
        rows = []
        for r in self.schedule:
            d = json_fields(r)
            rows.append({self.scale_name: d.pop("scale"), **d})
        return {"experiment": self.experiment, "system": dict(self.system),
                "target": dict(self.target), "schedule": rows, "seed": self.seed,
                "workers": self.workers, "threshold": self.threshold,
                "outputs": dict(self.outputs)}

    # ------------------------------------------------------------------
    # object construction
    # ------------------------------------------------------------------

    @staticmethod
    def _scale_name(target_kind: str) -> str:
        return {"ball": "rho", "torus_strip": "rho",
                "diagonal_strip": "nu", "level_set": "m"}[target_kind]

    @property
    def scale_name(self) -> str:
        return self._scale_name(self.target["kind"])

    def build_system(self):
        """The map system, or the RegenSpec of a regenerative process."""
        s = self.system
        kind = s["kind"]
        if kind == "torus":
            return TorusAffineSystem(s["a"])
        if kind == "linear_mod1":
            return LinearMod1System(s["a"])
        if kind == "cml":
            n, gamma, eps = s["n"], s["gamma"], s["eps"]
            if gamma == 0 and s["weights"] is not None:
                raise ConfigError("cml weights act only through the coupling (gamma > 0)")
            # n < 1 is left for CmlSpec to refuse
            w = np.ones(n) / n if s["weights"] is None else np.asarray(s["weights"], float)
            base_map = SinePerturbedInterval(s["a"], eps) if eps else LinearInterval(s["a"])
            spec = CmlSpec(base_map=base_map, n=n, gamma=gamma, weights=w)
            return CmlSystem(spec, burn_in=s["burn_in"])
        if kind == "regenerative":
            return self.build_regen_spec()
        raise ConfigError(f"unknown system kind {kind!r}")

    def build_regen_spec(self) -> RegenSpec:
        s = self.system
        rule, k_cap, lam = s["block_rule"], s["k_cap"], s["cluster_lambdas"]
        if (rule == "fixed_lengths") != (lam is not None):
            raise ConfigError("cluster_lambdas is set for, and only for, fixed_lengths")
        if rule == "smith":
            return RegenSpec.smith(k_cap)
        if rule == "fixed_lengths":
            return RegenSpec.fixed_lengths(ClusterSizeDist(np.asarray(lam, float)), k_cap)
        raise ConfigError(f"unknown block rule {rule!r}")

    def build_target(self, row: ScheduleRow):
        t = self.target
        kind = t["kind"]
        if kind == "ball":
            return Ball(center=tuple(t["center"]), rho=row.scale)
        if kind == "torus_strip":
            return TorusStrip(rho=row.scale)
        if kind == "diagonal_strip":
            return DiagonalStrip(nu=row.scale)
        if kind == "level_set":
            return row.scale  # the level m of U_m = {X_0 > m}
        raise ConfigError(f"unknown target kind {kind!r}")
