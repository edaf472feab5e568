"""Finite-truncation compound distributions on the non-negative integers.

Covers the compound Poisson family W = X_1 + ... + X_P with P ~ Poisson(s)
and i.i.d. cluster sizes X_j >= 1, the compound binomial analogue where the
number of clusters is Binomial(N', p), and the Polya-Aeppli special case
(geometric cluster sizes).  All pmfs carry an explicit ``tail_mass`` so that
normalisation is exact bookkeeping, never a silent renormalisation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .records import csv_table, json_fields

__all__ = [
    "DiscreteDistribution",
    "ClusterSizeDist",
    "CompoundSpec",
    "TruncationError",
    "compound_poisson_pmf",
    "polya_aeppli_pmf",
    "compound_binomial_pmf",
    "empirical_distribution",
]

_NORM_TOL = 1e-12


class TruncationError(ValueError):
    """Raised when a pmf truncation leaves more tail mass than allowed."""


@dataclass(frozen=True)
class DiscreteDistribution:
    """pmf over k = 0, 1, ..., k_max with explicit mass beyond the truncation."""

    probs: np.ndarray
    tail_mass: float = 0.0
    n_samples: int | None = None  # set for empirical distributions

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "tail_mass", float(self.tail_mass))
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a non-empty 1-d array")
        if np.any(probs < -_NORM_TOL) or np.any(probs > 1 + _NORM_TOL):
            raise ValueError("probabilities must lie in [0, 1]")
        if self.tail_mass < -_NORM_TOL:
            raise ValueError("tail_mass must be non-negative")
        total = probs.sum() + self.tail_mass
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probs + tail_mass must sum to 1, got {total!r}")

    @property
    def k_max(self) -> int:
        return self.probs.size - 1

    def mean(self) -> float:
        """Mean of the truncated part (exact when tail_mass is negligible)."""
        return float(np.arange(self.probs.size) @ self.probs)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(json_fields(self))

    def to_csv(self) -> str:
        return csv_table("k", {"prob": self.probs}, start=0)


@dataclass(frozen=True)
class ClusterSizeDist:
    """Cluster-size probabilities; ``lambdas[i]`` is P(X = i+1), support starts at 1."""

    lambdas: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        object.__setattr__(self, "lambdas", lam)
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("lambdas must be a non-empty 1-d array")
        if np.any(lam < -_NORM_TOL):
            raise ValueError("cluster probabilities must be non-negative")
        if abs(lam.sum() - 1.0) > _NORM_TOL:
            raise ValueError(f"cluster probabilities must sum to 1, got {lam.sum()!r}")

    @property
    def ell_max(self) -> int:
        return self.lambdas.size

    def mean(self) -> float:
        return float(np.arange(1, self.lambdas.size + 1) @ self.lambdas)

    @classmethod
    def single(cls) -> "ClusterSizeDist":
        """Degenerate clusters of size 1 (the pure Poisson case)."""
        return cls(np.array([1.0]))

    @classmethod
    def geometric(cls, p: float, tail_tol: float = 1e-13) -> "ClusterSizeDist":
        """Truncated geometric clusters (1-p) p^(ell-1), renormalised.

        The truncation index is the smallest one whose geometric tail is
        below ``tail_tol`` so downstream pmfs agree with the closed-form
        Polya-Aeppli expression far beyond any test tolerance.
        """
        if not 0.0 <= p < 1.0:
            raise ValueError("geometric cluster parameter must satisfy 0 <= p < 1")
        if p == 0.0:
            return cls.single()
        ell_max = max(1, math.ceil(math.log(tail_tol) / math.log(p)) + 1)
        lam = (1.0 - p) * p ** np.arange(ell_max)
        return cls(lam / lam.sum())


@dataclass(frozen=True)
class CompoundSpec:
    """Intensity s > 0 of the cluster-count Poisson plus the cluster-size law."""

    intensity: float
    clusters: ClusterSizeDist

    def __post_init__(self):
        if not self.intensity > 0:
            raise ValueError("intensity must be positive")


def compound_poisson_pmf(spec: CompoundSpec, k_max: int,
                         tail_tol: float | None = None) -> DiscreteDistribution:
    """pmf of W = sum of a Poisson(s) number of i.i.d. cluster sizes.

    Uses the weighted recursion
    P(W=k) = (s/k) * sum_{ell<=k} ell * lambda_ell * P(W=k-ell),
    with P(W=0) = exp(-s).  If ``tail_tol`` is given and the truncated tail
    exceeds it, a TruncationError is raised rather than silently dropping
    mass.
    """
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    s = spec.intensity
    lam = spec.clusters.lambdas
    probs = np.zeros(k_max + 1)
    probs[0] = math.exp(-s)
    weighted = np.arange(1, lam.size + 1) * lam  # ell * lambda_ell
    for k in range(1, k_max + 1):
        m = min(k, lam.size)
        probs[k] = (s / k) * (weighted[:m] @ probs[k - 1 :: -1][:m])
    tail = max(0.0, 1.0 - probs.sum())
    if tail_tol is not None and tail > tail_tol:
        raise TruncationError(
            f"tail mass {tail:.3e} above tolerance {tail_tol:.3e}; increase k_max")
    return DiscreteDistribution(probs, tail)


def polya_aeppli_pmf(s: float, p: float, k_max: int,
                     tail_tol: float | None = None) -> DiscreteDistribution:
    """Closed-form Polya-Aeppli pmf (geometrically distributed cluster sizes).

    P(W=0) = exp(-s) and for k >= 1
    P(W=k) = exp(-s) sum_{j=1..k} p^(k-j) (1-p)^j s^j / j! * C(k-1, j-1).
    Binomial coefficients are evaluated in log space.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError("p must satisfy 0 <= p < 1 (p=1 gives degenerate clusters)")
    if not s > 0:
        raise ValueError("s must be positive")
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    probs = np.zeros(k_max + 1)
    probs[0] = math.exp(-s)
    log_s, log_q = math.log(s), math.log1p(-p)
    log_p = math.log(p) if p > 0 else None
    for k in range(1, k_max + 1):
        if log_p is None:
            # pure Poisson: only the j=k term survives
            probs[k] = math.exp(-s + k * (log_s + log_q) - gammaln(k + 1))
            continue
        j = np.arange(1, k + 1)
        log_terms = ((k - j) * log_p + j * (log_q + log_s) - gammaln(j + 1)
                     + gammaln(k) - gammaln(j) - gammaln(k - j + 1))
        probs[k] = math.exp(-s) * np.exp(log_terms).sum()
    tail = max(0.0, 1.0 - probs.sum())
    if tail_tol is not None and tail > tail_tol:
        raise TruncationError(
            f"tail mass {tail:.3e} above tolerance {tail_tol:.3e}; increase k_max")
    return DiscreteDistribution(probs, tail)


def compound_binomial_pmf(n_trials: int, p: float, clusters: ClusterSizeDist,
                          k_max: int, tail_tol: float | None = None) -> DiscreteDistribution:
    """pmf of W = sum of a Binomial(n_trials, p) number of cluster sizes.

    Computed as the n_trials-fold power of the per-block generating
    polynomial p*(phi_X(z) - 1) + 1, truncated at k_max.  The truncation is
    exact for coefficients <= k_max because polynomial products never feed
    high-order terms back into low orders.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    block = np.zeros(min(k_max, clusters.ell_max) + 1)
    block[0] = 1.0 - p
    upto = min(k_max, clusters.ell_max)
    block[1 : upto + 1] = p * clusters.lambdas[:upto]
    # repeated squaring with truncation at k_max + 1 coefficients
    result = np.array([1.0])
    base = block
    e = n_trials
    while e:
        if e & 1:
            result = np.convolve(result, base)[: k_max + 1]
        e >>= 1
        if e:
            base = np.convolve(base, base)[: k_max + 1]
    probs = np.zeros(k_max + 1)
    probs[: result.size] = result
    tail = max(0.0, 1.0 - probs.sum())
    if tail_tol is not None and tail > tail_tol:
        raise TruncationError(
            f"tail mass {tail:.3e} above tolerance {tail_tol:.3e}; increase k_max")
    return DiscreteDistribution(probs, tail)


def empirical_distribution(values: np.ndarray, k_max: int | None = None) -> DiscreteDistribution:
    """Empirical pmf of integer samples, carrying the sample count."""
    values = np.asarray(values, dtype=np.int64)
    if values.size == 0:
        raise ValueError("need at least one sample")
    hi = int(values.max()) if k_max is None else k_max
    probs = np.bincount(values[values <= hi], minlength=hi + 1) / values.size
    tail = 1.0 - probs.sum()
    return DiscreteDistribution(probs, max(0.0, tail), n_samples=values.size)
