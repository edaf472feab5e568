"""Empirical return-time and cluster statistics along stationary orbits.

Estimates the counting function xi, the centered-window cluster counts
Z^K, forward windows W^K at entry events, the tail probabilities
alpha_hat_ell(K), the cluster-size probabilities lambda_hat_ell(K) and the
extremal index 1 - alpha_hat_2.

All Monte Carlo paths draw one independent stream per orbit (trial
index), build the orbits one group (``MapSystem.orbit_groups``) a task, the
same groups at any worker count, and merge integer tallies in trial order,
so results are bit-identical for any worker count.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .distributions import empirical_distribution
from .records import csv_table, from_json_fields, json_fields

__all__ = [
    "ClusterStats",
    "counting_distribution",
    "kac_horizon",
    "cluster_statistics",
    "ClusterAccumulator",
]

_CONFIDENT_EVENTS = 30


def _window_sums(ind: np.ndarray, width: int) -> np.ndarray:
    """Sums of every sliding window of `width` along the last axis."""
    c = np.cumsum(ind, axis=-1, dtype=np.int64)
    first = c[..., width - 1 : width]
    rest = c[..., width:] - c[..., :-width]
    return np.concatenate([first, rest], axis=-1)


# the pool of `workers` threads, one per worker count and kept for the life of
# the process, so that each thread keeps its orbit workspace between batches
_pool = functools.cache(ThreadPoolExecutor)


def _ordered_map(fn, items, workers: int) -> list:
    """``[fn(x) for x in items]``, computed on up to `workers` threads; the
    results are always in item order."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers == 1:
        return [fn(x) for x in items]
    return list(_pool(workers).map(fn, items))


def _indicator_batch(map_system, target, master_seed, trial_indices, n_points, reduce,
                     workers: int = 1) -> list:
    """``reduce`` of the indicator block of each orbit group of the trials
    (`MapSystem.orbit_groups`), one task a group on up to `workers` threads;
    the results come back in trial order, and the groups do not depend on
    `workers`."""
    return _ordered_map(
        lambda group: reduce(map_system.indicator_block(target, master_seed, group, n_points)),
        map_system.orbit_groups(list(trial_indices), n_points), workers)


# ---------------------------------------------------------------------------
# counting function
# ---------------------------------------------------------------------------


def kac_horizon(t: float, mu: float) -> int:
    """The counting horizon N = floor(t / mu); refuses a mu that is not finite
    and positive, and N above 10^12."""
    if not 0 < mu < math.inf:
        raise ValueError("mu must be finite and positive")
    n_steps = t / mu  # inf where mu underflows against t
    if n_steps >= 10**12 + 1:
        raise ValueError(f"horizon N={n_steps:.0f} exceeds 10^12; refusing to iterate")
    return math.floor(n_steps)


def counting_distribution(map_system, target, t: float, n_trials: int, seed,
                          mu: float | None = None, workers: int = 1):
    """Empirical law of xi^t_U over independent stationary samples.

    Without `mu`, mu(U) is the target's closed-form volume; a system that does
    not preserve Lebesgue measure needs `mu`, such as ``ClusterStats.mu_hat``.

    Sample i counts the hits in window i mod c of orbit i // c, where the
    system gives c windows of N + 1 points an orbit
    (``MapSystem._counting_windows``); c depends on N alone, so no sample
    depends on `workers` or on `n_trials`.

    By invariance P(tau_U <= L) = P(xi >= 1) over L points, so at
    t = (L - 1/2) mu(U), where N = L - 1, the entry-time ratio
    P(tau_U <= L) / (L mu(U)) is the law's mass off zero over L mu(U)."""
    if not 0 < t < math.inf:
        raise ValueError("t must be finite and positive")
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    master_seed = operator.index(seed)
    if mu is None:
        if not map_system.preserves_lebesgue:
            raise ValueError(f"mu is required: a {type(map_system).__name__} that does not "
                             "preserve Lebesgue measure has no closed-form mu(U)")
        mu = target.exact_measure(map_system.dimension)
    n_points = kac_horizon(t, mu) + 1

    per_orbit, stride = map_system._counting_windows(n_points)
    per_orbit = min(per_orbit, n_trials)  # a shorter orbit is a prefix of the longer

    def window_counts(block):
        windows = np.lib.stride_tricks.sliding_window_view(block, n_points, axis=1)
        return windows[:, ::stride].sum(axis=2).ravel()

    counts = _indicator_batch(map_system, target, master_seed, range(-(-n_trials // per_orbit)),
                              (per_orbit - 1) * stride + n_points, window_counts, workers)
    return empirical_distribution(np.concatenate(counts)[:n_trials])


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
    def mu_hat(self) -> float:
        """mu(U) as the hit rate over the points that can be entries, those at
        least 2K+1 steps from their orbit's end; unbiased, by stationarity."""
        return self.n_entries / (self.total_steps - self.n_orbits * (2 * self.K + 1))

    @property
    def extremal_index(self) -> float:
        a2 = self.alpha_hat[1] if self.alpha_hat.size > 1 else 0.0
        return float(1.0 - a2)

    def to_json(self) -> str:
        d = json_fields(self, extremal_index=self.extremal_index)
        d["insufficient"] = d.pop("insufficient")  # written after extremal_index
        return json.dumps(d)

    @classmethod
    def from_json(cls, text: str) -> "ClusterStats":
        return from_json_fields(cls, json.loads(text))

    def to_csv(self) -> str:
        return csv_table("ell", {"alpha_hat": self.alpha_hat, "alpha_se": self.alpha_se,
                                 "lambda_hat": self.lambda_hat,
                                 "lambda_se": self.lambda_se})


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

    def merge(self, other: "ClusterAccumulator") -> None:
        """Add the tallies of `other`, whose orbits follow this one's."""
        if other.K != self.K:
            raise ValueError("cannot merge tallies of different K")
        for f in fields(self)[1:]:  # every field after K
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def add_orbit(self, ind: np.ndarray) -> None:
        """Tally one orbit's indicator row (boolean, or integers 0 and 1)
        through `add_runs` on its runs of ones."""
        ind = np.asarray(ind)
        if ind.dtype != bool:
            if ind.dtype.kind not in "iu" or np.any((ind != 0) & (ind != 1)):
                raise ValueError("an indicator row holds booleans or 0/1 integers")
            ind = ind.astype(bool)
        # runs start and end where the zero-padded row changes value
        padded = np.zeros(ind.size + 2, dtype=bool)
        padded[1:-1] = ind
        edges = np.flatnonzero(padded[1:] != padded[:-1])
        self.add_runs(edges[0::2], edges[1::2], ind.size)

    def add_runs(self, starts, ends, n_points: int) -> None:
        """Tally one orbit of `n_points` steps whose indicator is 1 exactly on
        the sorted, disjoint intervals [starts[i], ends[i]).

        Every zero gap, the leading and trailing ones included, is cut to
        2K+2 and the short row goes through the dense tally: no window of
        width 2K+1 or K+1 reaches across such a gap and every hit keeps its
        distance to the orbit end at or above 2K+1 exactly when it had it,
        so only all-zero windows go, and they are added back to z_hist[0].
        """
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        gaps = np.concatenate((starts, [n_points])) - np.concatenate(([0], ends))
        runs = ends - starts
        if np.any(gaps < 0) or np.any(runs < 0):
            raise ValueError("runs must be sorted, disjoint and inside the orbit")
        kept = np.minimum(gaps, 2 * self.K + 2)
        cut = int((gaps - kept).sum())
        # interleave gap, run, gap, ..., run, gap
        lengths = np.empty(2 * runs.size + 1, dtype=np.int64)
        lengths[0::2] = kept
        lengths[1::2] = runs
        values = np.zeros(lengths.size, dtype=bool)
        values[1::2] = True
        self._add_dense(np.repeat(values, lengths))
        self.z_hist[0] += cut
        self.n_windows += cut
        self.total_steps += cut

    def _add_dense(self, ind: np.ndarray) -> None:
        """Tally one boolean row window by window."""
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


def _default_orbit_len(K: int) -> int:
    """Orbit or stream length of a row that sets none: 100 windows of 2K+1 or more."""
    return max(200_000, 100 * (2 * K + 1))


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
    master_seed = operator.index(seed)
    if orbit_len is None:
        orbit_len = _default_orbit_len(K)
    orbit_len = min(orbit_len, max_orbit)

    def tally(block):
        group = ClusterAccumulator(K=K)
        for row in block:
            group.add_orbit(row)
        return group

    acc = ClusterAccumulator(K=K)
    trial = 0
    # fixed batch size: the set of orbits processed (and hence the stopping
    # point) must not depend on the worker count
    batch = 16
    while acc.total_steps < max_orbit and acc.n_entries < min_entries:
        for group in _indicator_batch(map_system, target, master_seed,
                                      range(trial, trial + batch), orbit_len, tally, workers):
            acc.merge(group)
        trial += batch
    return acc.finalize(insufficient=acc.n_entries < min_entries)

