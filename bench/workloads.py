"""Workload definitions: one returnstats experiment config per workload and seed.

Each workload is a scaled copy of a shipped config family, sized so that
one repetition takes a few seconds on a 2-CPU machine.  The seed given to
the benchmark becomes the config's master seed; nothing else depends on it.
See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

# trial index of the mu(U) stream; the same one `returnstats simulate` uses
MU_TRIAL = 2**32

WORKLOADS = {
    # exact-digit torus: long-orbit cluster phase plus a counting phase of
    # many short orbits, run through `returnstats simulate`
    "torus_strip": {
        "driver": "simulate",
        "system": {"kind": "torus", "a": 2},
        "target": {"kind": "torus_strip"},
        "schedule": [{"rho": 1.0e-3, "K": 50, "t": 1.0, "n_trials": 8000,
                      "min_entries": 20000, "max_orbit": 50_000_000}],
        "workers": 2,
        # the traced run repeats it at workers=1 for the pool's speed-up
        "trace_single_worker": True,
    },
    # regenerative Smith process: stationary block streams and dense
    # tallies, run through `returnstats simulate`
    "smith_regen": {
        "driver": "simulate",
        "system": {"kind": "regenerative", "block_rule": "smith", "k_cap": 3000},
        "target": {"kind": "level_set"},
        "schedule": [{"m": 1000, "K": 10, "t": 1.0, "n_trials": 1000,
                      "min_entries": 15000, "stream_len": 5_000_000}],
        "workers": 2,
    },
    # coupled map lattice: float64 lockstep, one membership call per step
    # and a Monte Carlo mu(U); driven through library calls because
    # `simulate` estimates mu from a fixed 10^6-sample chain
    "cml_diag": {
        "driver": "library",
        "system": {"kind": "cml", "a": 2, "n": 2, "gamma": 0.1,
                   "weights": [0.5, 0.5]},
        "target": {"kind": "diagonal_strip"},
        "schedule": [{"nu": 1.0e-3, "K": 3, "t": 1.0, "n_trials": 300,
                      "min_entries": 3000, "orbit_len": 50_000,
                      "max_orbit": 200_000_000, "k_max": 12}],
        "workers": 1,
        "mu_samples": 10_000,
    },
}


def make_config(name: str, seed: int, out_dir: str, workers: int | None = None) -> dict:
    """The experiment config (as loaded by ``ExperimentConfig.from_dict``)
    for workload `name` on master seed `seed`, writing to `out_dir`."""
    w = WORKLOADS[name]
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return {
        "experiment": f"bench-{name}",
        "system": dict(w["system"]),
        "target": dict(w["target"]),
        "schedule": [dict(row) for row in w["schedule"]],
        "seed": seed,
        "workers": w["workers"] if workers is None else workers,
        "threshold": 0.01,
        "outputs": {"dir": out_dir, "formats": ["json", "csv"]},
    }
