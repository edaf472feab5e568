"""Deterministic per-trial random streams.

Every Monte Carlo routine in this package draws from a counter-based
Philox generator keyed by ``(master_seed, trial_index)``.  Trials are
therefore independent streams that can be computed in any order and on
any number of workers without changing a single bit of the output.

A trial's stream is the one ``Philox(SeedSequence(entropy=master_seed,
spawn_key=(trial_index,)))`` gives (``spawn_key=(trial_index, substream)``
with a substream).  ``trial_rng`` computes that key with ``SeedSequence``'s
own mixing algorithm on Python ints instead of building a ``SeedSequence``:
the pool after the master seed's words is cached per master seed, and each
call mixes in only its spawn-key words.  ``tests/test_rngstreams.py`` checks
the keys and the streams against ``numpy.random.SeedSequence`` bit for bit.
"""

from __future__ import annotations

import functools
import operator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["master_seed_of", "trial_rng"]

# numpy's SeedSequence constants (pool size 4, 32-bit words, xor-shift 16).
# numpy's compiled module does not export them; tests/test_rngstreams.py
# checks the keys built from them against np.random.SeedSequence.
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715

# Philox copies the counter into its state, so one read-only zero serves every
# trial; an array skips Philox's conversion of the int 0 to four words.
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)
_ZERO_COUNTER.flags.writeable = False


@functools.lru_cache(maxsize=16)
def _master_pool(master_seed: int) -> tuple:
    """SeedSequence's pool and hash constant after the master seed's words.

    With a spawn key the entropy is the master seed's words zero-padded to
    the pool size, then the spawn-key words; this is the part before the
    spawn key: 4 hashmixes and 12 cross-mixes.
    """
    h = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal h
        value ^= h
        h = h * _MULT_A & _MASK
        value = value * h & _MASK
        return value ^ value >> 16

    pool = [hashmix(w) for w in (master_seed & _MASK, master_seed >> 32, 0, 0)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                r = _MIX_L * pool[dst] - _MIX_R * hashmix(pool[src]) & _MASK
                pool[dst] = r ^ r >> 16
    return tuple(pool), h


def _philox_key(master_seed: int, spawn_key: tuple) -> tuple:
    """The two 64-bit words ``SeedSequence(master_seed, spawn_key=spawn_key)
    .generate_state(2, np.uint64)`` returns; arguments are non-negative ints."""
    (p0, p1, p2, p3), h = _master_pool(master_seed)
    for k in spawn_key:
        # each 32-bit word of k, low first, is hashmixed once per pool word
        # and mixed into it; the hash constant runs on across words.  Written
        # out per pool word: a loop over the pool costs about 1.5 us a word.
        while True:
            w = k & _MASK
            g = h * _MULT_A & _MASK
            v = (w ^ h) * g & _MASK
            r = _MIX_L * p0 - _MIX_R * (v ^ v >> 16) & _MASK
            p0 = r ^ r >> 16
            h = g * _MULT_A & _MASK
            v = (w ^ g) * h & _MASK
            r = _MIX_L * p1 - _MIX_R * (v ^ v >> 16) & _MASK
            p1 = r ^ r >> 16
            g = h * _MULT_A & _MASK
            v = (w ^ h) * g & _MASK
            r = _MIX_L * p2 - _MIX_R * (v ^ v >> 16) & _MASK
            p2 = r ^ r >> 16
            h = g * _MULT_A & _MASK
            v = (w ^ g) * h & _MASK
            r = _MIX_L * p3 - _MIX_R * (v ^ v >> 16) & _MASK
            p3 = r ^ r >> 16
            k >>= 32
            if not k:
                break
    # generate_state: hash the pool into four output words, pairs little-endian
    out = []
    h = _INIT_B
    for p in (p0, p1, p2, p3):
        p ^= h
        h = h * _MULT_B & _MASK
        p = p * h & _MASK
        out.append(p ^ p >> 16)
    return out[0] | out[1] << 32, out[2] | out[3] << 32


class _PhiloxKey(ISeedSequence):
    """Seed source that hands ``Philox`` one precomputed key."""

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError("a trial key holds exactly one Philox key: 2 uint64 words")
        return self.key


def trial_rng(master_seed: int, trial_index: int,
              substream: int | None = None) -> np.random.Generator:
    """Generator for one trial; identical seeds give identical streams.

    ``substream`` names an additional independent stream within the trial
    (e.g. one for a digit stream and one for an initial coordinate).  The
    stream is the one ``Philox(SeedSequence(entropy=master_seed,
    spawn_key=key))`` gives, with ``key`` ``(trial_index,)`` or
    ``(trial_index, substream)``.  The generator's ``bit_generator.seed_seq``
    holds only that key, not a ``SeedSequence``, so ``spawn`` is not
    supported on it.
    """
    master_seed = operator.index(master_seed)
    trial_index = operator.index(trial_index)
    if not 0 <= master_seed < 2**64:
        raise ValueError("master_seed must fit in an unsigned 64-bit integer")
    if trial_index < 0:
        raise ValueError("trial_index must be non-negative")
    if substream is None:
        spawn_key = (trial_index,)
    else:
        substream = operator.index(substream)
        if substream < 0:
            raise ValueError("substream must be non-negative")
        spawn_key = (trial_index, substream)
    key = np.array(_philox_key(master_seed, spawn_key), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_PhiloxKey(key), counter=_ZERO_COUNTER))


def master_seed_of(seed) -> int:
    """Master seed of a ``(master_seed, trial_index)`` pair or a bare seed."""
    return seed[0] if isinstance(seed, tuple) else int(seed)
