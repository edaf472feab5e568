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
from dataclasses import dataclass

import numpy as np

from .distributions import ClusterSizeDist
from .estimators import ClusterAccumulator, ClusterStats, _ordered_map
from .rngstreams import master_seed_of, trial_rng

__all__ = ["RegenSpec", "SymbolStream", "generate_stationary", "stationary_blocks",
           "stationary_hit_runs", "level_measure", "regen_cluster_stats",
           "regen_counting_distribution"]

_DEFAULT_K_CAP = 10**5
# buckets of the symbol draw's guide table; a power of two, so u * _GUIDE_BUCKETS
# is exact and floor() of it is the bucket holding u
_GUIDE_BUCKETS = 2**14
# blocks per slice of a stream's draws: bounds the float and per-block
# temporaries of one stream, whatever its length
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
        if g.ndim != 1 or g.size == 0 or np.any(g < 0):
            raise ValueError("symbol_probs must be a non-negative 1-d array")
        if abs(g.sum() - 1.0) > 1e-9:
            raise ValueError("symbol_probs must sum to 1 (renormalize after truncation)")
        if self.block_rule not in ("smith", "fixed_lengths"):
            raise ValueError(f"unknown block rule {self.block_rule!r}")
        if self.block_rule == "fixed_lengths" and self.cluster_dist is None:
            raise ValueError("fixed_lengths rule needs a cluster-size distribution")

    @property
    def k_cap(self) -> int:
        return self.symbol_probs.size

    def _cached(self, name: str, build):
        """Per-spec derived array, built on first use (not at construction,
        so building a spec stays cheap)."""
        value = getattr(self, name, None)
        if value is None:
            value = build()
            object.__setattr__(self, name, value)
        return value

    def _symbol_cdf(self) -> np.ndarray:
        def build():
            cdf = np.cumsum(self.symbol_probs)
            # the rounded sum can fall short of 1, and a u above it would
            # draw symbol k_cap + 1, outside the law
            np.minimum(cdf, 1.0, out=cdf)
            cdf[-1] = 1.0
            return cdf
        return self._cached("_cdf_cache", build)

    def _symbol_guide(self) -> np.ndarray:
        """Guide table: entry j is the symbol drawn by every u in
        [j, j + 1) / _GUIDE_BUCKETS, or 0 where a cdf value splits that
        bucket and the draw must search the cdf."""
        def build():
            cdf = self._symbol_cdf()
            edges = np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS
            lo = np.searchsorted(cdf, edges[:-1], side="right")
            hi = np.searchsorted(cdf, np.nextafter(edges[1:], 0.0), side="right")
            # symbols are int32 (a k_cap beyond 2^31 would not fit in memory)
            return np.where(lo == hi, lo + 1, 0).astype(np.int32)
        return self._cached("_guide_cache", build)

    def draw_symbols(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n i.i.d. int32 symbols via inverse-cdf sampling (fast path for the
        very long streams the cluster estimators need): the guide table
        answers most draws, and the rest search the cdf, with the same result
        searchsorted(cdf, u, "right") + 1 for every u."""
        u = rng.random(n)
        bucket = np.empty(n, dtype=np.intp)
        np.multiply(u, _GUIDE_BUCKETS, out=bucket, casting="unsafe")  # truncates
        symbols = self._symbol_guide()[bucket]
        split = (symbols == 0).nonzero()[0]
        symbols[split] = np.searchsorted(self._symbol_cdf(), u[split], side="right") + 1
        return symbols

    def _size_biased_cdf(self) -> np.ndarray:
        """`_choice_cdf` of the normalised weights of the size-biased first
        block: over (short, long) blocks of symbols 1..k_cap for smith, over
        the lengths for fixed_lengths."""
        def build():
            if self.block_rule == "smith":
                g = self.symbol_probs
                k = np.arange(1, g.size + 1)
                w = np.concatenate([g * (1.0 - 1.0 / k) * 1.0, g * (1.0 / k) * (k + 1.0)])
            else:
                lam = self.cluster_dist.lambdas
                w = np.arange(1, lam.size + 1) * lam
            return _choice_cdf(w / w.sum())
        return self._cached("_size_biased_cache", build)

    def _symbol_choice_cdf(self) -> np.ndarray:
        """`_choice_cdf` of the symbol law (the fixed_lengths first block)."""
        return self._cached("_symbol_choice_cache",
                            lambda: _choice_cdf(self.symbol_probs))

    def _warm_caches(self) -> None:
        """Build every cache the rule's streams read, so that threads building
        streams concurrently only read them."""
        self._symbol_guide()
        self._size_biased_cdf()
        if self.block_rule == "fixed_lengths":
            self._symbol_choice_cdf()

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
        k = np.arange(1, k_cap + 1, dtype=float)
        g = 1.0 / k**2
        return cls(g / g.sum(), "smith")

    @classmethod
    def fixed_lengths(cls, cluster_dist: ClusterSizeDist,
                      k_cap: int = _DEFAULT_K_CAP) -> "RegenSpec":
        k = np.arange(1, k_cap + 1, dtype=float)
        g = 1.0 / k**2
        return cls(g / g.sum(), "fixed_lengths", cluster_dist)


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


def _block_lengths(spec: RegenSpec, symbols: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
    """int64 lengths of the blocks of `symbols`, one uniform per block."""
    if spec.block_rule == "smith":
        # length 1 w.p. 1 - 1/k, else k + 1
        lengths = (rng.random(symbols.size) < 1.0 / symbols).astype(np.int64)
        lengths *= symbols
        lengths += 1
        return lengths
    lam = spec.cluster_dist.lambdas
    return rng.choice(np.arange(1, lam.size + 1), size=symbols.size, p=lam)


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
    i = _choose(spec._size_biased_cdf(), rng)
    if spec.block_rule == "smith":
        if i < k_cap:
            return i + 1, 1
        j = i - k_cap
        return j + 1, j + 2
    return _choose(spec._symbol_choice_cdf(), rng) + 1, i + 1


def _block_slices(spec: RegenSpec, length: int, seed):
    """The blocks of the stationary stream of the requested length, drawn a
    bounded slice at a time: ``(phase, slices)``, where `slices` yields
    ``(symbols, lengths, ends)`` in stream order (int32 symbols, int64
    lengths and stream positions where the blocks end), the first holding
    the block that covers index 0 and the last ending with the block that
    reaches `length`, cut there.

    The block covering index 0 is drawn from the size-biased block law with
    a uniform phase (``phase`` is the offset of index 0 inside it; its
    remaining length is the first length); subsequent blocks are i.i.d.
    They are drawn in chunks: a chunk first draws all its symbols, then its
    lengths, and the next chunk follows only if the stream is not yet long
    enough.  Both draws go `_SLICE_BLOCKS` blocks at a time, which consumes
    the same uniforms in the same order as drawing the whole chunk at once,
    and the lengths stop at the block that reaches `length`: nothing reads
    the stream's generator after it.
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
        first = np.array([total], dtype=np.int64)
        yield np.array([sym0], dtype=np.int32), first, first
        while total < length:
            # the over-draw fixes which uniforms go to symbols and which to
            # lengths, so it is part of every stream's definition
            n_blocks = max(64, int((length - total) / mean_len * 1.2))
            chunk = [spec.draw_symbols(min(_SLICE_BLOCKS, n_blocks - lo), rng)
                     for lo in range(0, n_blocks, _SLICE_BLOCKS)]
            for syms in chunk:
                lens = _block_lengths(spec, syms, rng)
                ends = lens.cumsum()
                ends += total
                if ends[-1] >= length:
                    last = int(ends.searchsorted(length))
                    lens, ends = lens[: last + 1], ends[: last + 1]
                    lens[last] -= ends[last] - length
                    ends[last] = length
                    yield syms[: last + 1], lens, ends
                    return
                total = int(ends[-1])
                yield syms, lens, ends

    return phase, slices()


def stationary_blocks(spec: RegenSpec, length: int, seed):
    """Blocks of the stationary stream of the requested length, as
    ``(block_symbols, block_lengths, phase)`` (int64 arrays): block i
    repeats its symbol block_lengths[i] times, the last length is cut at
    `length`, and ``phase`` is the offset of index 0 inside the first block
    (see `_block_slices`)."""
    phase, slices = _block_slices(spec, length, seed)
    syms, lens, _ = zip(*slices)
    return np.concatenate(syms, dtype=np.int64), np.concatenate(lens), phase


def generate_stationary(spec: RegenSpec, length: int, seed) -> SymbolStream:
    """Stationary symbol stream of the requested length: the blocks of
    `stationary_blocks` expanded symbol by symbol."""
    block_syms, block_lens, phase = stationary_blocks(spec, length, seed)
    starts = np.cumsum(block_lens) - block_lens
    return SymbolStream(symbols=np.repeat(block_syms, block_lens),
                        block_boundaries=starts, phase=phase)


def stationary_hit_runs(spec: RegenSpec, length: int, seed, m: int):
    """``(starts, ends)`` of the blocks of the stationary stream inside
    U_m = {X_0 > m}: the sorted, disjoint intervals [start, end) on which the
    stream's indicator is 1, gathered slice by slice."""
    _, slices = _block_slices(spec, length, seed)
    starts, stops = [], []
    for syms, lens, ends in slices:
        hit = np.flatnonzero(syms > m)
        stops.append(ends[hit])
        starts.append(ends[hit] - lens[hit])
    return np.concatenate(starts), np.concatenate(stops)


def level_measure(spec: RegenSpec, m: int) -> float:
    """P(X_0 > m) under the stationary law (equals the symbol law here
    because block length is mean-2 for smith and symbol-independent for
    fixed_lengths)."""
    if m < 0:
        raise ValueError("m must be non-negative")
    return float(spec.symbol_probs[m:].sum())


def regen_cluster_stats(spec: RegenSpec, m: int, K: int, n_streams: int, seed,
                        stream_len: int | None = None, workers: int = 1) -> ClusterStats:
    """Windowed cluster statistics of the indicator of U_m = {X_0 > m} under
    the shift map on stationary streams, tallied from each stream's hit
    blocks without expanding it into symbols.  Streams are built on up to
    `workers` threads and tallied in stream order, so the result does not
    depend on `workers`."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if n_streams < 1:
        raise ValueError("n_streams must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    mu = level_measure(spec, m)
    if mu <= 0.0:
        raise ValueError(f"U_m has zero measure under the truncation (m={m}, "
                         f"k_cap={spec.k_cap})")
    master_seed = master_seed_of(seed)
    if stream_len is None:
        stream_len = max(200_000, 100 * (2 * K + 1))

    spec._warm_caches()
    runs = _ordered_map(
        lambda trial: stationary_hit_runs(spec, stream_len, (master_seed, trial), m),
        range(n_streams), workers)
    acc = ClusterAccumulator(K=K)
    for starts, ends in runs:
        acc.add_runs(starts, ends, stream_len)
    return acc.finalize(insufficient=False)


def regen_counting_distribution(spec: RegenSpec, m: int, t: float,
                                n_trials: int, seed):
    """Empirical law of the visit count to U_m over the Kac horizon
    N = floor(t / mu(U_m)), one independent stationary stream per trial."""
    from .distributions import empirical_distribution

    if not 0 < t < math.inf:
        raise ValueError("t must be finite and positive")
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    mu = level_measure(spec, m)
    if mu <= 0.0:
        raise ValueError("U_m has zero measure under the truncation")
    master_seed = master_seed_of(seed)
    n_points = math.floor(t / mu) + 1
    values = np.empty(n_trials, dtype=np.int64)
    for trial in range(n_trials):
        _, slices = _block_slices(spec, n_points, (master_seed, trial))
        count = 0
        for syms, lens, _ in slices:
            count += int(lens[syms > m].sum())
        values[trial] = count
    return empirical_distribution(values)
