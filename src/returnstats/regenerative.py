"""Symbolic regenerative processes and their cluster statistics.

A stream of integer symbols is built from i.i.d. blocks: a block first
draws a symbol k with probability gamma_k, then a length.  Two block
rules are supported:

* ``smith``          -- symbol k yields length 1 with probability
  p_k = 1 - 1/k and length k + 1 otherwise (the pathological example in
  which cluster mass escapes to infinity: alpha_hat_k -> 1/2 for k >= 2
  while every lambda_k with k >= 2 tends to 0);
* ``fixed_lengths``  -- the length is drawn from a prescribed cluster-size
  law, independent of the symbol, realising arbitrary cluster parameters.

The shift-invariant (stationary) law is sampled by drawing the block
covering index 0 from the size-biased block law with a uniform phase.
Targets are the level sets U_m = {X_0 > m}.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distributions import ClusterSizeDist, empirical_distribution
from .estimators import (ClusterAccumulator, ClusterStats, _default_orbit_len, _ordered_map,
                         kac_horizon)
from .rngstreams import rng_ahead, trial_rng

__all__ = ["RegenSpec", "SymbolStream", "generate_stationary", "stationary_hit_runs",
           "level_measure", "regen_cluster_stats", "regen_counting_distribution"]

_DEFAULT_K_CAP = 10**5
# buckets of the symbol draw's guide table; 2^14, so the bucket holding the
# uniform u = (w >> 11) * 2^-53 of a raw word w is w >> 50
_GUIDE_BUCKETS = 2**14
# blocks per slice of a stream's draws: bounds the symbols, lengths and
# temporaries one stream holds at a time, whatever its length
_SLICE_BLOCKS = 2**16


@dataclass(frozen=True)
class RegenSpec:
    """Symbol law gamma_k (k = 1..k_cap, truncated and renormalized) plus the
    block-length rule."""

    symbol_probs: np.ndarray          # index i -> P(symbol = i + 1)
    block_rule: str                   # "smith" | "fixed_lengths"
    cluster_dist: ClusterSizeDist | None = None

    def __post_init__(self):
        g = np.asarray(self.symbol_probs, dtype=float)
        object.__setattr__(self, "symbol_probs", g)
        # NaN fails neither the sign nor the sum check
        if g.ndim != 1 or g.size == 0 or not np.all(np.isfinite(g)) or np.any(g < 0):
            raise ValueError("symbol_probs must be a finite non-negative 1-d array")
        if abs(g.sum() - 1.0) > 1e-9:
            raise ValueError("symbol_probs must sum to 1 (renormalize after truncation)")
        if self.block_rule not in ("smith", "fixed_lengths"):
            raise ValueError(f"unknown block rule {self.block_rule!r}")
        if self.block_rule == "fixed_lengths" and self.cluster_dist is None:
            raise ValueError("fixed_lengths rule needs a cluster-size distribution")

    @property
    def k_cap(self) -> int:
        return self.symbol_probs.size

    @cached_property
    def _symbol_cdf(self) -> np.ndarray:
        cdf = np.cumsum(self.symbol_probs)
        # the rounded sum can fall short of 1, and a u above it would draw
        # symbol k_cap + 1, outside the law
        np.minimum(cdf, 1.0, out=cdf)
        cdf[-1] = 1.0
        return cdf

    @cached_property
    def _symbol_guide(self) -> np.ndarray:
        """Guide table: entry j is the symbol drawn by every u in
        [j, j + 1) / _GUIDE_BUCKETS, or 0 where a cdf value splits that
        bucket and the draw must search the cdf."""
        cdf = self._symbol_cdf
        edges = np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS
        lo = np.searchsorted(cdf, edges[:-1], side="right")
        hi = np.searchsorted(cdf, np.nextafter(edges[1:], 0.0), side="right")
        # symbols are int32 (a k_cap beyond 2^31 would not fit in memory)
        return np.where(lo == hi, lo + 1, 0).astype(np.int32)

    @cached_property
    def _long_words(self) -> np.ndarray:
        """Entry k (1..k_cap) is the largest raw word whose uniform is below
        1.0 / k: a smith block of symbol k is long when its length word is at
        most it, and always for k = 1."""
        # the scaling is exact, and v < c for an integer v is v <= ceil(c) - 1
        v = np.ceil(1.0 / np.arange(1, self.k_cap + 1) * 2.0**53).astype(np.uint64) - 1
        return np.concatenate([np.zeros(1, np.uint64), v << 11 | 0x7FF])

    @cached_property
    def _guide_long_words(self) -> np.ndarray:
        """`_long_words` of each guide-table symbol (0 at a split bucket)."""
        return self._long_words[self._symbol_guide]

    def _read_blocks(self, n: int, sym_words, len_words):
        """n i.i.d. blocks (int32 symbols, int64 lengths) read from raw Philox
        words: n of bit generator `sym_words`, then n of `len_words`.  Each is
        the block that the uniform u = (w >> 11) * 2^-53 `Generator.random`
        makes of its word w draws, found in integers: the guide table's symbol
        at bucket w >> 50 (only split buckets search the cdf at u), a smith
        block of symbol k long (u < 1.0 / k) when its length word is at most
        `_long_words[k]`, a fixed_lengths length as `choice(p=lambdas)` from u."""
        w = sym_words.random_raw(n)
        bucket = (w >> 50).view(np.intp)
        symbols = self._symbol_guide[bucket]
        split = (symbols == 0).nonzero()[0]
        symbols[split] = self._symbol_cdf.searchsorted(_uniforms(w[split]), side="right") + 1
        del w  # the dels keep a slice's working set to one word array at a time
        if self.block_rule == "fixed_lengths":
            del bucket
            u = _uniforms(len_words.random_raw(n))
            return symbols, self._length_cdf.searchsorted(u, side="right") + 1
        long = self._guide_long_words[bucket]  # the bucket also gives the threshold
        del bucket
        long[split] = self._long_words[symbols[split]]
        np.less_equal(len_words.random_raw(n), long, out=long)
        lengths = long.view(np.int64)  # 1 for a long block, else 0
        lengths *= symbols
        lengths += 1
        return symbols, lengths

    @cached_property
    def _size_biased_cdf(self) -> np.ndarray:
        """`_choice_cdf` of the normalised weights of the size-biased first
        block: over (short, long) blocks of symbols 1..k_cap for smith, over
        the lengths for fixed_lengths."""
        if self.block_rule == "smith":
            g = self.symbol_probs
            k = np.arange(1, g.size + 1)
            w = np.concatenate([g * (1.0 - 1.0 / k) * 1.0, g * (1.0 / k) * (k + 1.0)])
        else:
            lam = self.cluster_dist.lambdas
            w = np.arange(1, lam.size + 1) * lam
        return _choice_cdf(w / w.sum())

    @cached_property
    def _length_cdf(self) -> np.ndarray:
        """`_choice_cdf` of the fixed_lengths cluster-size law."""
        return _choice_cdf(self.cluster_dist.lambdas)

    @cached_property
    def _symbol_choice_cdf(self) -> np.ndarray:
        """`_choice_cdf` of the symbol law (the fixed_lengths first block)."""
        return _choice_cdf(self.symbol_probs)

    def mean_block_length(self) -> float:
        if self.block_rule == "smith":
            # E[zeta | k] = p_k * 1 + q_k * (k+1) = 2 for every k
            return 2.0
        return self.cluster_dist.mean()

    @classmethod
    def smith(cls, k_cap: int = _DEFAULT_K_CAP) -> "RegenSpec":
        """Smith rule over gamma_k proportional to 1/k^2 (truncated at k_cap).

        The qualitative limits are gamma-independent; 1/k^2 gives the level
        sets U_m polynomially small measure so moderately large m is usable.
        """
        return cls(_inverse_square_law(k_cap), "smith")

    @classmethod
    def fixed_lengths(cls, cluster_dist: ClusterSizeDist,
                      k_cap: int = _DEFAULT_K_CAP) -> "RegenSpec":
        """Block lengths drawn from `cluster_dist` over the smith symbol law."""
        return cls(_inverse_square_law(k_cap), "fixed_lengths", cluster_dist)


def _inverse_square_law(k_cap: int) -> np.ndarray:
    """gamma_k proportional to 1/k^2 for k = 1..k_cap."""
    k = np.arange(1, k_cap + 1, dtype=float)
    g = 1.0 / k**2
    return g / g.sum()


@dataclass(frozen=True)
class SymbolStream:
    """Realized symbol sequence; ``block_boundaries[i]`` is the start index
    N_i of block i (N_0 = 0; the first block may be entered mid-way when the
    stream is a stationary sample)."""

    symbols: np.ndarray
    block_boundaries: np.ndarray
    phase: int = 0  # offset of index 0 inside its (size-biased) block

    def __post_init__(self):
        b = np.asarray(self.block_boundaries, dtype=np.int64)
        object.__setattr__(self, "block_boundaries", b)
        object.__setattr__(self, "symbols", np.asarray(self.symbols, dtype=np.int64))
        if b.size and b[0] != 0:
            raise ValueError("block boundaries must start at 0")


def _uniforms(words: np.ndarray) -> np.ndarray:
    """The uniforms `Generator.random` makes of raw Philox words."""
    return (words >> 11) * 2.0**-53


def _choice_cdf(p: np.ndarray) -> np.ndarray:
    """The cdf that `Generator.choice(..., p=p)` searches: the cumulative sums
    divided by their last value (unlike `_symbol_cdf`, which is clamped)."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _choose(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """The index `rng.choice(cdf.size, p=p)` draws, by the same algorithm (one
    `rng.random()` and a right-sided search of `_choice_cdf(p)`), without
    re-validating and re-summing `p` on every call."""
    return int(cdf.searchsorted(rng.random(), side="right"))


def _size_biased_first_block(spec: RegenSpec, rng: np.random.Generator):
    """Draw (symbol, length) of the block covering index 0: probability
    proportional to length times the block law."""
    k_cap = spec.k_cap
    i = _choose(spec._size_biased_cdf, rng)
    if spec.block_rule == "smith":
        if i < k_cap:
            return i + 1, 1
        j = i - k_cap
        return j + 1, j + 2
    return _choose(spec._symbol_choice_cdf, rng) + 1, i + 1


def _block_slices(spec: RegenSpec, length: int, seed):
    """The blocks of the stationary stream of the requested length, drawn a
    bounded slice at a time: ``(phase, slices)``, where `slices` yields
    ``(symbols, lengths, start)`` in stream order (int32 symbols, int64
    lengths and the stream position where the slice starts), the first
    holding the block that covers index 0 and the last ending with the block
    that reaches `length`, cut there.

    The block covering index 0 is drawn from the size-biased block law with
    a uniform phase (``phase`` is the offset of index 0 inside it; its
    remaining length is the first length); subsequent blocks are i.i.d.
    They are drawn in chunks of n blocks: the chunk's symbols take the
    stream's next n 64-bit words and its lengths the n after them, and the
    next chunk follows only if the stream is not yet long enough.  A chunk of more than `_SLICE_BLOCKS` blocks reads its lengths
    from a second generator positioned n words ahead (`rng_ahead`), so that
    symbol slice i and its lengths are drawn together, and the chunk stops
    at the block that reaches `length`: the symbols after that block are
    never drawn, and a following chunk starts where the lengths stopped.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    mean_len = spec.mean_block_length()
    if not math.isfinite(mean_len) or mean_len <= 0:
        raise ValueError("mean block length must be finite and positive")
    master_seed, trial_index = seed if isinstance(seed, tuple) else (int(seed), 0)
    rng = trial_rng(master_seed, trial_index)
    sym0, len0 = _size_biased_first_block(spec, rng)
    phase = int(rng.integers(0, len0))

    def slices():
        total = min(len0 - phase, length)
        yield np.array([sym0], dtype=np.int32), np.array([total], dtype=np.int64), 0
        sym_rng = rng
        while total < length:
            # the over-draw fixes which words go to symbols and which to
            # lengths, so it is part of every stream's definition
            n_blocks = max(64, int((length - total) / mean_len * 1.2))
            # a one-slice chunk reads its symbols, then its lengths, from one
            # generator
            len_rng = sym_rng if n_blocks <= _SLICE_BLOCKS else rng_ahead(sym_rng, n_blocks)
            for lo in range(0, n_blocks, _SLICE_BLOCKS):
                syms, lens = spec._read_blocks(min(_SLICE_BLOCKS, n_blocks - lo),
                                               sym_rng.bit_generator, len_rng.bit_generator)
                start, total = total, total + int(lens.sum())
                if total >= length:
                    ends = lens.cumsum()
                    last = int(ends.searchsorted(length - start))
                    syms, lens = syms[: last + 1], lens[: last + 1]
                    lens[last] -= ends[last] - (length - start)
                    yield syms, lens, start
                    return
                yield syms, lens, start
            sym_rng = len_rng

    return phase, slices()


def generate_stationary(spec: RegenSpec, length: int, seed) -> SymbolStream:
    """Stationary symbol stream of the requested length: the blocks of
    `_block_slices` expanded symbol by symbol, the last cut at `length`."""
    phase, slices = _block_slices(spec, length, seed)
    syms, lens, _ = zip(*slices)
    syms, lens = np.concatenate(syms), np.concatenate(lens)
    return SymbolStream(symbols=np.repeat(syms, lens), block_boundaries=lens.cumsum() - lens,
                        phase=phase)


def stationary_hit_runs(spec: RegenSpec, length: int, seed, m: int):
    """``(starts, ends)`` of the blocks of the stationary stream inside
    U_m = {X_0 > m}: the sorted, disjoint intervals [start, end) on which the
    stream's indicator is 1, gathered slice by slice.  A slice's hit ends are
    its start plus the running sums of its lengths cut after each hit block."""
    _, slices = _block_slices(spec, length, seed)
    starts, stops = [], []
    for syms, lens, start in slices:
        hit = np.flatnonzero(syms > m)
        cuts = np.concatenate(([0], hit + 1))  # reduceat takes only cuts inside the slice
        ends = np.add.reduceat(lens, cuts[:-1] if cuts[-1] == lens.size else cuts)
        ends = ends[: hit.size].cumsum() + start
        stops.append(ends)
        starts.append(ends - lens[hit])
    return np.concatenate(starts), np.concatenate(stops)


def level_measure(spec: RegenSpec, m: int) -> float:
    """P(X_0 > m) under the stationary law (equals the symbol law here
    because block length is mean-2 for smith and symbol-independent for
    fixed_lengths)."""
    if m < 0:
        raise ValueError("m must be non-negative")
    return float(spec.symbol_probs[m:].sum())


def regen_cluster_stats(spec: RegenSpec, m: int, K: int, n_streams: int, seed,
                        stream_len: int | None = None, workers: int = 1,
                        runs: list | None = None) -> ClusterStats:
    """Windowed cluster statistics of the indicator of U_m = {X_0 > m} under
    the shift map on stationary streams, tallied from each stream's hit
    blocks without expanding it into symbols.  Streams are built on up to
    `workers` threads and tallied in stream order, so the result does not
    depend on `workers`.  Given `runs`, an empty list is filled with the
    streams' ``(starts, ends)``, and a filled one (from a call with the same
    spec, m, n_streams, seed and stream_len) is tallied as it is, so that
    several K share one build."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if n_streams < 1:
        raise ValueError("n_streams must be >= 1")
    mu = level_measure(spec, m)
    if mu <= 0.0:
        raise ValueError(f"U_m has zero measure under the truncation (m={m}, "
                         f"k_cap={spec.k_cap})")
    master_seed = operator.index(seed)
    if stream_len is None:
        stream_len = _default_orbit_len(K)

    runs = [] if runs is None else runs
    if not runs:
        runs += _ordered_map(
            lambda trial: stationary_hit_runs(spec, stream_len, (master_seed, trial), m),
            range(n_streams), workers)
    acc = ClusterAccumulator(K=K)
    for starts, ends in runs:
        acc.add_runs(starts, ends, stream_len)
    return acc.finalize(insufficient=False)


def regen_counting_distribution(spec: RegenSpec, m: int, t: float,
                                n_trials: int, seed):
    """Empirical law of the visit count to U_m over the Kac horizon
    N = floor(t / mu(U_m)), one stationary stream per trial, summing the lengths
    of its hit blocks slice by slice.  One thread: the streams' short set-up
    holds the GIL, so a second thread made the phase slower."""
    if not 0 < t < math.inf:
        raise ValueError("t must be finite and positive")
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    mu = level_measure(spec, m)
    if mu <= 0.0:
        raise ValueError("U_m has zero measure under the truncation")
    master_seed = operator.index(seed)
    n_points = kac_horizon(t, mu) + 1
    values = np.empty(n_trials, dtype=np.int64)
    for trial in range(n_trials):
        _, slices = _block_slices(spec, n_points, (master_seed, trial))
        values[trial] = sum(int(lens[syms > m].sum()) for syms, lens, _ in slices)
    return empirical_distribution(values)
