"""Empirical return-time and cluster statistics along stationary orbits.

Estimates the counting function xi, the centered-window cluster counts
Z^K, forward windows W^K at entry events, the tail probabilities
alpha_hat_ell(K), the cluster-size probabilities lambda_hat_ell(K), the
extremal index 1 - alpha_hat_2, the entry-time ratio P(tau <= L)/(L mu),
and the R2 window-overlap diagnostic.

All Monte Carlo paths draw one independent stream per orbit (trial
index) and merge integer count histograms in trial order, so results are
bit-identical for any worker count.
"""

from __future__ import annotations

import json
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .rngstreams import master_seed_of
from .targets import MeasureEstimate, measure

__all__ = [
    "ClusterStats",
    "ReturnTimeRecord",
    "count_visits",
    "counting_distribution",
    "cluster_statistics",
    "cluster_stats_from_indicators",
    "ClusterAccumulator",
    "return_time_records",
    "alpha_hat_from_records",
    "entry_time_ratio",
    "r2_overlap",
    "r2_overlap_from_indicators",
]

_MEASURE_TRIAL = 2**32  # trial index reserved for internal mu(U) estimation
_CONFIDENT_EVENTS = 30


def _resolve_mu(map_system, target, master_seed: int, mu=None) -> float:
    if mu is not None:
        return float(mu)
    est = measure(target, map_system, 10**6, (master_seed, _MEASURE_TRIAL))
    return est.mean


def _window_sums(ind: np.ndarray, width: int) -> np.ndarray:
    """Sums of every sliding window of `width` along the last axis."""
    c = np.cumsum(ind, axis=-1, dtype=np.int64)
    first = c[..., width - 1 : width]
    rest = c[..., width:] - c[..., :-width]
    return np.concatenate([first, rest], axis=-1)


def _indicator_batch(map_system, target, master_seed, trial_indices, n_points,
                     workers: int = 1) -> np.ndarray:
    """Indicator rows for a batch of trials, optionally split across threads;
    rows are always assembled in trial order."""
    if workers <= 1 or len(trial_indices) == 1:
        return map_system.indicator_block(target, master_seed, trial_indices, n_points)
    parts = np.array_split(np.asarray(trial_indices), workers)
    parts = [p for p in parts if p.size]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        blocks = list(pool.map(
            lambda p: map_system.indicator_block(target, master_seed, list(p), n_points),
            parts))
    return np.concatenate(blocks, axis=0)


# ---------------------------------------------------------------------------
# counting function
# ---------------------------------------------------------------------------


def count_visits(map_system, target, s0, t: float, mu: float) -> int:
    """xi^t_U(s0) = sum_{n=0}^{N} 1_U(T^n s0) with N = floor(t/mu)."""
    if not mu > 0:
        raise ValueError("mu must be positive")
    if not t > 0:
        raise ValueError("t must be positive")
    n_steps = math.floor(t / mu)
    if n_steps > 10**12:
        raise ValueError(f"horizon N={n_steps} exceeds 10^12; refusing to iterate")
    from .dynamics import orbit_visitor  # local import avoids a cycle

    hits = 0

    def visit(coords):
        nonlocal hits
        if target.contains_points(coords[None, :])[0]:
            hits += 1

    orbit_visitor(map_system, s0, n_steps, visit)
    return hits


def counting_distribution(map_system, target, t: float, n_trials: int, seed,
                          mu: float | None = None, workers: int = 1):
    """Empirical law of xi^t_U over independent stationary starts."""
    from .distributions import empirical_distribution

    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    master_seed = master_seed_of(seed)
    mu = _resolve_mu(map_system, target, master_seed, mu)
    n_steps = math.floor(t / mu)
    if n_steps > 10**12:
        raise ValueError(f"horizon N={n_steps} exceeds 10^12; refusing to iterate")
    n_points = n_steps + 1

    chunk = max(1, min(n_trials, int(4e7 // max(n_points, 1)) or 1))
    values = np.empty(n_trials, dtype=np.int64)
    done = 0
    while done < n_trials:
        idx = list(range(done, min(done + chunk, n_trials)))
        block = _indicator_batch(map_system, target, master_seed, idx, n_points, workers)
        values[done : done + len(idx)] = block.sum(axis=1)
        done += len(idx)
    return empirical_distribution(values)


# ---------------------------------------------------------------------------
# cluster statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClusterStats:
    """Empirical alpha_hat / lambda_hat sequences from one run.

    ``alpha_hat[i]`` is alpha_hat_{i+1}(K); ``lambda_hat[i]`` is
    lambda_hat_{i+1}(K).  Standard errors come from batch means over
    independent orbits.  Indices above the confident ell_max (fewer than 30
    events) are retained but should be treated as low-confidence.
    """

    K: int
    n_entries: int
    n_windows: int
    n_orbits: int
    total_steps: int
    alpha_hat: np.ndarray
    alpha_se: np.ndarray
    lambda_hat: np.ndarray
    lambda_se: np.ndarray
    ell_max_alpha: int
    ell_max_lambda: int
    insufficient: bool = False

    @property
    def extremal_index(self) -> float:
        a2 = self.alpha_hat[1] if self.alpha_hat.size > 1 else 0.0
        return float(1.0 - a2)

    @property
    def extremal_index_se(self) -> float:
        return float(self.alpha_se[1]) if self.alpha_se.size > 1 else 0.0

    def to_json(self) -> str:
        d = {
            "K": self.K, "n_entries": self.n_entries, "n_windows": self.n_windows,
            "n_orbits": self.n_orbits, "total_steps": self.total_steps,
            "alpha_hat": self.alpha_hat.tolist(), "alpha_se": self.alpha_se.tolist(),
            "lambda_hat": self.lambda_hat.tolist(), "lambda_se": self.lambda_se.tolist(),
            "ell_max_alpha": self.ell_max_alpha, "ell_max_lambda": self.ell_max_lambda,
            "extremal_index": self.extremal_index, "insufficient": self.insufficient,
        }
        return json.dumps(d)

    @classmethod
    def from_json(cls, text: str) -> "ClusterStats":
        d = json.loads(text)
        return cls(K=int(d["K"]), n_entries=int(d["n_entries"]),
                   n_windows=int(d["n_windows"]), n_orbits=int(d["n_orbits"]),
                   total_steps=int(d["total_steps"]),
                   alpha_hat=np.asarray(d["alpha_hat"]), alpha_se=np.asarray(d["alpha_se"]),
                   lambda_hat=np.asarray(d["lambda_hat"]), lambda_se=np.asarray(d["lambda_se"]),
                   ell_max_alpha=int(d["ell_max_alpha"]),
                   ell_max_lambda=int(d["ell_max_lambda"]),
                   insufficient=bool(d["insufficient"]))

    def to_csv(self) -> str:
        lines = ["ell,alpha_hat,alpha_se,lambda_hat,lambda_se"]
        n = max(self.alpha_hat.size, self.lambda_hat.size)
        for i in range(n):
            a = repr(float(self.alpha_hat[i])) if i < self.alpha_hat.size else ""
            ase = repr(float(self.alpha_se[i])) if i < self.alpha_se.size else ""
            l = repr(float(self.lambda_hat[i])) if i < self.lambda_hat.size else ""
            lse = repr(float(self.lambda_se[i])) if i < self.lambda_se.size else ""
            lines.append(f"{i + 1},{a},{ase},{l},{lse}")
        return "\n".join(lines) + "\n"


@dataclass
class ClusterAccumulator:
    """Per-run integer tallies plus per-orbit ratios for batch-means errors."""

    K: int
    z_hist: np.ndarray = field(default=None)
    w_hist: np.ndarray = field(default=None)
    n_windows: int = 0
    n_entries: int = 0
    n_orbits: int = 0
    total_steps: int = 0
    orbit_alpha: list = field(default_factory=list)
    orbit_lambda: list = field(default_factory=list)

    def __post_init__(self):
        if self.z_hist is None:
            self.z_hist = np.zeros(2 * self.K + 2, dtype=np.int64)
        if self.w_hist is None:
            self.w_hist = np.zeros(self.K + 2, dtype=np.int64)

    def add_orbit(self, ind: np.ndarray) -> None:
        """Tally one orbit's boolean indicator row."""
        K = self.K
        n_points = ind.size
        win = 2 * K + 1
        if n_points < win + 1:
            raise ValueError("orbit shorter than one full window")
        z = _window_sums(ind, win)
        z_hist = np.bincount(z, minlength=2 * K + 2)
        w_full = _window_sums(ind, K + 1)
        # entries: I_t = 1 with t at least 2K+1 steps from the orbit end
        valid = n_points - win
        entry_w = w_full[:valid][ind[:valid]]
        w_hist = np.bincount(entry_w, minlength=K + 2)

        self.z_hist += z_hist
        self.w_hist += w_hist
        self.n_windows += z.size
        n_entries = int(entry_w.size)
        self.n_entries += n_entries
        self.n_orbits += 1
        self.total_steps += n_points

        if n_entries > 0:
            ge = np.cumsum(w_hist[::-1])[::-1]  # ge[l] = #{W >= l}
            self.orbit_alpha.append(ge[1:] / n_entries)
        n_pos = int(z_hist[1:].sum())
        if n_pos > 0:
            self.orbit_lambda.append(z_hist[1:] / n_pos)

    def finalize(self, insufficient: bool) -> ClusterStats:
        ge = np.cumsum(self.w_hist[::-1])[::-1]
        if self.n_entries == 0:
            raise ValueError("no entry events observed; widen the target or the budget")
        alpha_hat = ge[1:] / self.n_entries          # index i -> alpha_hat_{i+1}
        n_pos = int(self.z_hist[1:].sum())
        lambda_hat = self.z_hist[1:] / max(n_pos, 1)  # index i -> lambda_hat_{i+1}

        alpha_se = _batch_se(self.orbit_alpha, alpha_hat.size)
        lambda_se = _batch_se(self.orbit_lambda, lambda_hat.size)

        ell_alpha = int(np.max(np.nonzero(ge[1:] >= _CONFIDENT_EVENTS)[0]) + 1) \
            if np.any(ge[1:] >= _CONFIDENT_EVENTS) else 0
        ell_lambda = int(np.max(np.nonzero(self.z_hist[1:] >= _CONFIDENT_EVENTS)[0]) + 1) \
            if np.any(self.z_hist[1:] >= _CONFIDENT_EVENTS) else 0

        return ClusterStats(K=self.K, n_entries=self.n_entries, n_windows=self.n_windows,
                            n_orbits=self.n_orbits, total_steps=self.total_steps,
                            alpha_hat=alpha_hat, alpha_se=alpha_se,
                            lambda_hat=lambda_hat, lambda_se=lambda_se,
                            ell_max_alpha=ell_alpha, ell_max_lambda=ell_lambda,
                            insufficient=insufficient)


def _batch_se(per_orbit: list, size: int) -> np.ndarray:
    if len(per_orbit) < 2:
        return np.full(size, np.nan)
    arr = np.stack(per_orbit)
    return arr.std(axis=0, ddof=1) / math.sqrt(arr.shape[0])


def cluster_statistics(map_system, target, K: int, min_entries: int,
                       max_orbit: int, seed, orbit_len: int | None = None,
                       workers: int = 1) -> ClusterStats:
    """alpha_hat_ell(K) and lambda_hat_ell(K) harvested along long orbits.

    Runs independent stationary orbits (one RNG stream each) until
    ``min_entries`` conditioning events I_0 = 1 are seen or the total step
    budget ``max_orbit`` is spent; in the latter case the result is flagged
    ``insufficient``.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if min_entries < 100:
        raise ValueError("min_entries must be >= 100")
    master_seed = master_seed_of(seed)
    if orbit_len is None:
        orbit_len = max(200_000, 100 * (2 * K + 1))
    orbit_len = min(orbit_len, max_orbit)

    acc = ClusterAccumulator(K=K)
    trial = 0
    # fixed batch size: the set of orbits processed (and hence the stopping
    # point) must not depend on the worker count
    batch = 16
    while acc.total_steps < max_orbit and acc.n_entries < min_entries:
        idx = list(range(trial, trial + batch))
        block = _indicator_batch(map_system, target, master_seed, idx, orbit_len, workers)
        for row in block:
            acc.add_orbit(row)
        trial += batch
    return acc.finalize(insufficient=acc.n_entries < min_entries)


def cluster_stats_from_indicators(indicator_rows, K: int) -> ClusterStats:
    """Same tallies applied to caller-supplied boolean rows (synthetic
    streams, regenerative symbol processes)."""
    acc = ClusterAccumulator(K=K)
    for row in indicator_rows:
        acc.add_orbit(np.asarray(row, dtype=bool))
    return acc.finalize(insufficient=False)


# ---------------------------------------------------------------------------
# return-time records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReturnTimeRecord:
    """Successive return gaps tau, tau^2 - tau, ... after one entry event."""

    entry_index: int
    successive_gaps: tuple
    censored: bool  # last observed gap exceeded max_gap

    def __post_init__(self):
        if any(g < 1 for g in self.successive_gaps):
            raise ValueError("gaps must be >= 1")


def return_time_records(map_system, target, n_entries: int, max_gap: int, seed,
                        orbit_len: int | None = None) -> list[ReturnTimeRecord]:
    """Gap sequences following the first ``n_entries`` entry events.

    Each record lists the successive return gaps while they stay <= max_gap;
    a gap exceeding max_gap ends the record with ``censored=True``.  Entries
    whose continuation is not resolved within the orbit are skipped.
    """
    if n_entries < 1:
        raise ValueError("n_entries must be >= 1")
    master_seed = master_seed_of(seed)
    if orbit_len is None:
        orbit_len = 500_000

    records: list[ReturnTimeRecord] = []
    trial = 0
    while len(records) < n_entries and trial < 10_000:
        ind = map_system.indicator_block(target, master_seed, [trial], orbit_len)[0]
        hits = np.flatnonzero(ind)
        gaps = np.diff(hits)
        # censor[i]: index of the first gap >= i exceeding max_gap (gaps.size
        # if none), filled by one backward running minimum
        censor = np.where(gaps > max_gap, np.arange(gaps.size), gaps.size)
        censor = np.append(np.minimum.accumulate(censor[::-1])[::-1], gaps.size)
        # an entry without a later censoring gap is resolved only if the tail
        # of the orbit past the last hit exceeds max_gap
        tail_resolved = hits.size and orbit_len - 1 - hits[-1] > max_gap
        for i, t in enumerate(hits):
            if len(records) >= n_entries:
                break
            end = int(censor[i])
            if end < gaps.size:
                records.append(ReturnTimeRecord(int(t), tuple(gaps[i:end].tolist()),
                                                censored=True))
            elif tail_resolved:
                records.append(ReturnTimeRecord(int(t), tuple(gaps[i:].tolist()),
                                                censored=False))
            # otherwise unresolved: skip
        trial += 1
    return records


def alpha_hat_from_records(records, K: int) -> np.ndarray:
    """Re-aggregate records into alpha_hat_ell(K): the fraction of entries
    with at least ell-1 further returns within K steps."""
    counts = np.zeros(K + 2, dtype=np.int64)
    n = 0
    for rec in records:
        # a record censored at max_gap < K would leave the window unresolved
        times = np.cumsum(rec.successive_gaps) if rec.successive_gaps else np.empty(0)
        w = 1 + int(np.count_nonzero(times <= K))
        counts[min(w, K + 1)] += 1
        n += 1
    if n == 0:
        raise ValueError("no records")
    ge = np.cumsum(counts[::-1])[::-1]
    return ge[1:] / n


# ---------------------------------------------------------------------------
# entry-time ratio and R2 overlap
# ---------------------------------------------------------------------------


def entry_time_ratio(map_system, target, L: int, n_trials: int, seed,
                     mu: float | None = None, workers: int = 1) -> float:
    """P_hat(tau_U <= L) / (L mu(U)); converges to the extremal index as
    the target shrinks and then L grows."""
    if L < 1:
        raise ValueError("L must be >= 1")
    master_seed = master_seed_of(seed)
    mu = _resolve_mu(map_system, target, master_seed, mu)
    hits = 0
    chunk = max(1, int(4e7 // (L + 1)))
    done = 0
    while done < n_trials:
        idx = list(range(done, min(done + chunk, n_trials)))
        block = _indicator_batch(map_system, target, master_seed, idx, L + 1, workers)
        hits += int(np.count_nonzero(block[:, 1:].any(axis=1)))
        done += len(idx)
    if hits == 0:
        warnings.warn("no entries within L steps in any trial; ratio is 0")
    return hits / (n_trials * L * mu)


def r2_overlap(map_system, target, K: int, delta: int, n_trials: int, seed,
               workers: int = 1) -> float:
    """sum_{n=2}^{delta} P(Z >= 1 and Z o T^{(2K+1)n} >= 1), estimated over
    independent stationary starts."""
    if delta < 2:
        raise ValueError("delta must be >= 2")
    win = 2 * K + 1
    n_points = win * delta + win
    total = np.zeros(delta - 1, dtype=np.int64)
    chunk = max(1, int(4e7 // n_points))
    done = 0
    while done < n_trials:
        idx = list(range(done, min(done + chunk, n_trials)))
        block = _indicator_batch(map_system, target, master_seed_of(seed), idx,
                                 n_points, workers)
        total += _r2_counts(block, K, delta)
        done += len(idx)
    return float(total.sum() / n_trials)


def _r2_counts(block: np.ndarray, K: int, delta: int) -> np.ndarray:
    win = 2 * K + 1
    z = _window_sums(block, win) >= 1
    z0 = z[:, 0]
    out = np.empty(delta - 1, dtype=np.int64)
    for n in range(2, delta + 1):
        out[n - 2] = np.count_nonzero(z0 & z[:, win * n])
    return out


def r2_overlap_from_indicators(block: np.ndarray, K: int, delta: int) -> float:
    """R2 estimate from caller-supplied indicator rows (one trial per row)."""
    return float(_r2_counts(np.asarray(block, dtype=bool), K, delta).sum()
                 / block.shape[0])
