"""Deterministic per-trial random streams.

Every Monte Carlo routine in this package draws from a counter-based
Philox generator keyed by ``(master_seed, trial_index)``.  Trials are
therefore independent streams that can be computed in any order and on
any number of workers without changing a single bit of the output.
"""

from __future__ import annotations

import numpy as np

__all__ = ["master_seed_of", "trial_rng", "trial_seed_sequence"]


def trial_seed_sequence(master_seed: int, trial_index: int,
                        substream: int | None = None) -> np.random.SeedSequence:
    """Seed material for one trial, derived from the master seed.

    ``substream`` names an additional independent stream within the trial
    (e.g. one for a digit stream and one for an initial coordinate).
    """
    if not 0 <= master_seed < 2**64:
        raise ValueError("master_seed must fit in an unsigned 64-bit integer")
    if trial_index < 0:
        raise ValueError("trial_index must be non-negative")
    key = (trial_index,) if substream is None else (trial_index, substream)
    return np.random.SeedSequence(entropy=master_seed, spawn_key=key)


def trial_rng(master_seed: int, trial_index: int,
              substream: int | None = None) -> np.random.Generator:
    """Generator for one trial; identical seeds give identical streams."""
    return np.random.Generator(
        np.random.Philox(trial_seed_sequence(master_seed, trial_index, substream)))


def master_seed_of(seed) -> int:
    """Master seed of a ``(master_seed, trial_index)`` pair or a bare seed."""
    return seed[0] if isinstance(seed, tuple) else int(seed)
