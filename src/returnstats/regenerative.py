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

from dataclasses import dataclass

import numpy as np

from .distributions import ClusterSizeDist
from .estimators import ClusterStats, cluster_stats_from_indicators
from .rngstreams import master_seed_of, trial_rng

__all__ = ["RegenSpec", "SymbolStream", "generate_stationary",
           "level_measure", "regen_cluster_stats", "regen_counting_distribution"]

_DEFAULT_K_CAP = 10**5


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

    def _symbol_cdf(self) -> np.ndarray:
        cdf = getattr(self, "_cdf_cache", None)
        if cdf is None:
            cdf = np.cumsum(self.symbol_probs)
            object.__setattr__(self, "_cdf_cache", cdf)
        return cdf

    def draw_symbols(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n i.i.d. symbols via inverse-cdf sampling (fast path for the very
        long streams the cluster estimators need)."""
        u = rng.random(n)
        return np.searchsorted(self._symbol_cdf(), u, side="right").astype(np.int64) + 1

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

    def to_csv(self) -> str:
        lines = ["index,symbol"]
        lines += [f"{i},{int(s)}" for i, s in enumerate(self.symbols)]
        return "\n".join(lines) + "\n"


def _block_lengths(spec: RegenSpec, symbols: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
    if spec.block_rule == "smith":
        # length 1 w.p. 1 - 1/k, else k + 1
        long = rng.random(symbols.size) < 1.0 / symbols
        return np.where(long, symbols + 1, 1)
    lam = spec.cluster_dist.lambdas
    return rng.choice(np.arange(1, lam.size + 1), size=symbols.size, p=lam)


def _size_biased_first_block(spec: RegenSpec, rng: np.random.Generator):
    """Draw (symbol, length) of the block covering index 0: probability
    proportional to length times the block law."""
    g = spec.symbol_probs
    k = np.arange(1, g.size + 1)
    if spec.block_rule == "smith":
        w_short = g * (1.0 - 1.0 / k) * 1.0
        w_long = g * (1.0 / k) * (k + 1.0)
        w = np.concatenate([w_short, w_long])
        i = rng.choice(w.size, p=w / w.sum())
        if i < g.size:
            return int(i + 1), 1
        j = i - g.size
        return int(j + 1), int(j + 2)
    lam = spec.cluster_dist.lambdas
    ell = np.arange(1, lam.size + 1)
    w = ell * lam
    length = int(rng.choice(ell, p=w / w.sum()))
    symbol = int(rng.choice(k, p=g))
    return symbol, length


def generate_stationary(spec: RegenSpec, length: int, seed) -> SymbolStream:
    """Stationary symbol stream of the requested length.

    The block covering index 0 is drawn from the size-biased block law with
    a uniform phase; subsequent blocks are i.i.d.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    mean_len = spec.mean_block_length()
    if not np.isfinite(mean_len) or mean_len <= 0:
        raise ValueError("mean block length must be finite and positive")
    master_seed, trial_index = seed if isinstance(seed, tuple) else (int(seed), 0)
    rng = trial_rng(master_seed, trial_index)

    sym0, len0 = _size_biased_first_block(spec, rng)
    phase = int(rng.integers(0, len0))
    sym_pieces = [np.full(1, sym0, dtype=np.int64)]
    len_pieces = [np.full(1, len0 - phase, dtype=np.int64)]
    total = len0 - phase
    while total < length:
        n_blocks = max(64, int((length - total) / mean_len * 1.2))
        syms = spec.draw_symbols(n_blocks, rng)
        lens = _block_lengths(spec, syms, rng)
        sym_pieces.append(syms.astype(np.int64))
        len_pieces.append(lens.astype(np.int64))
        total += int(lens.sum())
    block_syms = np.concatenate(sym_pieces)
    block_lens = np.concatenate(len_pieces)
    symbols = np.repeat(block_syms, block_lens)[:length]
    starts = np.concatenate([[0], np.cumsum(block_lens)[:-1]])
    b = starts[starts < length]
    return SymbolStream(symbols=symbols, block_boundaries=b, phase=phase)


def level_measure(spec: RegenSpec, m: int) -> float:
    """P(X_0 > m) under the stationary law (equals the symbol law here
    because block length is mean-2 for smith and symbol-independent for
    fixed_lengths)."""
    if m < 0:
        raise ValueError("m must be non-negative")
    return float(spec.symbol_probs[m:].sum())


def regen_cluster_stats(spec: RegenSpec, m: int, K: int, n_streams: int, seed,
                        stream_len: int | None = None) -> ClusterStats:
    """Windowed cluster statistics of the indicator of U_m = {X_0 > m} under
    the shift map on stationary streams."""
    mu = level_measure(spec, m)
    if mu <= 0.0:
        raise ValueError(f"U_m has zero measure under the truncation (m={m}, "
                         f"k_cap={spec.k_cap})")
    master_seed = master_seed_of(seed)
    if stream_len is None:
        stream_len = max(200_000, 100 * (2 * K + 1))

    def rows():
        for trial in range(n_streams):
            s = generate_stationary(spec, stream_len, (master_seed, trial))
            yield s.symbols > m

    return cluster_stats_from_indicators(rows(), K)


def regen_counting_distribution(spec: RegenSpec, m: int, t: float,
                                n_trials: int, seed):
    """Empirical law of the visit count to U_m over the Kac horizon
    N = floor(t / mu(U_m)), one independent stationary stream per trial."""
    import math

    from .distributions import empirical_distribution

    mu = level_measure(spec, m)
    if mu <= 0.0:
        raise ValueError("U_m has zero measure under the truncation")
    master_seed = master_seed_of(seed)
    n_points = math.floor(t / mu) + 1
    values = np.empty(n_trials, dtype=np.int64)
    for trial in range(n_trials):
        s = generate_stationary(spec, n_points, (master_seed, trial))
        values[trial] = int(np.count_nonzero(s.symbols > m))
    return empirical_distribution(values)
