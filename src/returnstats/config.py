"""Experiment configuration: YAML schema, validation, object construction.

A config names a system, a target family, and a schedule of experiment
rows (one scale value per row plus window/horizon/trial settings).  Every
defaulted value is filled in explicitly at load time so the manifest can
echo the exact parameters a run used.

Schema (YAML):

    experiment: torus-strip-sweep        # free-form label
    system:
      kind: torus                        # torus | linear_mod1 | cml | regenerative
      a: 2
      # cml only: n, gamma, weights, eps, burn_in (n: 1 is the base map
      #   alone, e.g. a*x + eps*sin(2 pi x) mod 1)
      # regenerative only: block_rule, cluster_lambdas, k_cap
    target:
      kind: torus_strip                  # one of the kinds PAIRS lists for
                                         # the system kind
      center: [0.5]                      # ball only: one coordinate per
                                         # system dimension
      periodic_period: 1                 # optional: ball around a periodic
                                         # point of known period (predictions)
    schedule:
      - {rho: 1.0e-3, K: 50, t: 1.0, n_trials: 100000,
         min_entries: 10000, max_orbit: 50000000}
    seed: 1234
    workers: 1
    threshold: 0.01
    outputs: {dir: results, formats: [json, csv]}

Scale parameter per row: ``rho`` (ball / torus_strip), ``nu``
(diagonal_strip) or ``m`` (level_set, 0 <= m < k_cap).  Loading builds
the system and every row's target, so a row the system cannot run is an
error before any row writes a file.  So is a ``cml`` whose float64 orbits
drain to 0: uncoupled (gamma 0, eps 0) copies of a*x mod 1 with a a power
of two, which ``linear_mod1`` runs on exact digits instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import yaml

from .distributions import ClusterSizeDist
from .dynamics import (CmlSpec, CmlSystem, LinearInterval, LinearMod1System,
                       SinePerturbedInterval, TorusAffineSystem)
from .records import json_fields
from .regenerative import RegenSpec
from .targets import Ball, DiagonalStrip, TorusStrip

__all__ = ["ExperimentConfig", "ConfigError", "ScheduleRow", "PAIRS"]

# the target kinds each system kind runs.  A torus orbit keeps (a-1)x - y
# mod 1 constant, so only the strip around {y = 0} sees the whole torus;
# a diagonal strip on an interval map is the whole interval.
PAIRS = {
    "torus": ("torus_strip",),
    "linear_mod1": ("ball",),
    "cml": ("diagonal_strip", "ball"),
    "regenerative": ("level_set",),
}


class ConfigError(ValueError):
    """Malformed or out-of-range configuration."""


@dataclass(frozen=True)
class ScheduleRow:
    scale: float            # rho, nu or m depending on the target kind
    K: int = 10
    t: float = 1.0
    n_trials: int = 10000
    min_entries: int = 1000
    max_orbit: int = 20_000_000
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
        system = dict(raw["system"])
        target = dict(raw["target"])
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

        rows = raw["schedule"]
        if not isinstance(rows, list) or not rows:
            raise ConfigError("schedule must be a non-empty list")
        scale_name = cls._scale_name(tkind)
        schedule = []
        labels = set()
        knobs = {f.name for f in fields(ScheduleRow)} - {"scale"}
        for row in rows:
            row = dict(row)
            if scale_name not in row:
                raise ConfigError(f"schedule row missing scale parameter {scale_name!r}")
            scale = float(row.pop(scale_name))
            if not math.isfinite(scale):
                raise ConfigError(f"schedule row {scale_name} must be finite")
            unknown = set(row) - knobs
            if unknown:
                raise ConfigError(f"unknown schedule keys {sorted(unknown)}")
            r = ScheduleRow(scale=scale, **row)
            if not 0 < float(r.t) < math.inf:
                raise ConfigError("schedule row t must be finite and positive")
            # the estimators' own bounds, checked before any row runs
            for name in ("K", "n_trials", "max_orbit", "orbit_len", "stream_len", "k_max"):
                value = getattr(r, name)
                if value is not None and float(value) < 1:
                    raise ConfigError(f"schedule row {name} must be >= 1")
            if kind != "regenerative" and float(r.min_entries) < 100:
                raise ConfigError("schedule row min_entries must be >= 100")
            # a tallied orbit holds at least one full window of 2K+1 and a point
            run = (r.stream_len if kind == "regenerative"
                   else min(r.orbit_len or math.inf, r.max_orbit))
            if run is not None and float(run) < 2 * float(r.K) + 2:
                raise ConfigError("schedule row orbits must be at least 2K+2 steps long")
            label = r.label(scale_name)
            if label in labels:
                raise ConfigError(f"two schedule rows share the label {label!r}, so "
                                  "the second would overwrite the first's files")
            labels.add(label)
            schedule.append(r)

        seed = int(raw.get("seed", 0))
        if not 0 <= seed < 2**64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        workers = int(raw.get("workers", 1))
        if workers < 1:
            raise ConfigError("workers must be >= 1")
        threshold = float(raw.get("threshold", 0.01))
        if not 0.0 <= threshold < 1.0:
            raise ConfigError("threshold must lie in [0, 1)")
        outputs = dict(raw.get("outputs", {}))
        outputs.setdefault("dir", "results")
        outputs.setdefault("formats", ["json", "csv"])

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
        for target in targets:
            if isinstance(target, Ball) and len(target.center) != system.dimension:
                raise ConfigError(f"a ball centre needs one coordinate per system "
                                  f"dimension ({system.dimension}), got {target.center}")
            if isinstance(system, RegenSpec) and not 0 <= target < system.k_cap:
                raise ConfigError(f"level set m = {target} must lie in [0, k_cap) = "
                                  f"[0, {system.k_cap}); U_m is empty from k_cap on")

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

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.to_dict(), sort_keys=False)

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
            return TorusAffineSystem(int(s.get("a", 2)))
        if kind == "linear_mod1":
            return LinearMod1System(int(s.get("a", 2)))
        if kind == "cml":
            n = int(s.get("n", 2))
            weights = s.get("weights")
            w = np.full(n, 1.0 / n) if weights is None else np.asarray(weights, float)
            a, eps = int(s.get("a", 2)), float(s.get("eps", 0.0))
            base_map = SinePerturbedInterval(a, eps) if eps else LinearInterval(a)
            spec = CmlSpec(base_map=base_map, n=n,
                           gamma=float(s.get("gamma", 0.0)), weights=w)
            return CmlSystem(spec, burn_in=int(s.get("burn_in", 1024)))
        if kind == "regenerative":
            return self.build_regen_spec()
        raise ConfigError(f"unknown system kind {kind!r}")

    def build_regen_spec(self) -> RegenSpec:
        s = self.system
        k_cap = int(s.get("k_cap", 10**5))
        rule = s.get("block_rule", "smith")
        if rule == "smith":
            return RegenSpec.smith(k_cap)
        if rule == "fixed_lengths":
            lam = s.get("cluster_lambdas")
            if lam is None:
                raise ConfigError("fixed_lengths needs cluster_lambdas")
            return RegenSpec.fixed_lengths(ClusterSizeDist(np.asarray(lam, float)), k_cap)
        raise ConfigError(f"unknown block rule {rule!r}")

    def build_target(self, row: ScheduleRow):
        t = self.target
        kind = t["kind"]
        if kind == "ball":
            return Ball(center=tuple(t.get("center", [0.5])), rho=row.scale)
        if kind == "torus_strip":
            return TorusStrip(rho=row.scale)
        if kind == "diagonal_strip":
            return DiagonalStrip(nu=row.scale)
        if kind == "level_set":
            return int(row.scale)  # the level m of U_m = {X_0 > m}
        raise ConfigError(f"unknown target kind {kind!r}")
