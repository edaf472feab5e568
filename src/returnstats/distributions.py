"""Finite-truncation compound distributions on the non-negative integers.

Covers the compound Poisson family W = X_1 + ... + X_P with P ~ Poisson(s)
and i.i.d. cluster sizes X_j >= 1, and the compound binomial analogue where
the number of clusters is Binomial(N', p).  Every limit law is built from its
cluster-size law: the Polya-Aeppli law of a periodic point is the compound
Poisson law over ``ClusterSizeDist.geometric`` clusters, and the Poisson law
the one over ``ClusterSizeDist.single()``.  All pmfs carry an explicit
``tail_mass`` so that normalisation is exact bookkeeping, never a silent
renormalisation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .records import csv_table, json_fields

__all__ = [
    "DiscreteDistribution",
    "ClusterSizeDist",
    "CompoundSpec",
    "compound_poisson_pmf",
    "compound_binomial_pmf",
    "empirical_distribution",
]

_NORM_TOL = 1e-12


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
    def geometric(cls, p: float) -> "ClusterSizeDist":
        """Geometric clusters (1-p) p^(ell-1), truncated and renormalised.

        The truncation index is the smallest one whose clusters beyond it
        carry less than 2^-53 of the mean, p^ell (1 + ell (1-p)), so that
        renormalising moves the mean and 1/mean by at most an ulp.
        """
        if not 0.0 <= p < 1.0:
            raise ValueError("geometric cluster parameter must satisfy 0 <= p < 1")
        if p == 0.0:
            return cls.single()
        ell_max = 1
        while p**ell_max * (1 + ell_max * (1 - p)) >= 2.0**-53:
            ell_max += 1
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


def compound_poisson_pmf(spec: CompoundSpec, k_max: int) -> DiscreteDistribution:
    """pmf of W = sum of a Poisson(s) number of i.i.d. cluster sizes.

    Uses the weighted recursion
    P(W=k) = (s/k) * sum_{ell<=k} ell * lambda_ell * P(W=k-ell),
    with P(W=0) = exp(-s).  The mass beyond k_max is the pmf's tail_mass.
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
    return DiscreteDistribution(probs, max(0.0, 1.0 - probs.sum()))


def compound_binomial_pmf(n_trials: int, p: float, clusters: ClusterSizeDist,
                          k_max: int) -> DiscreteDistribution:
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
    return DiscreteDistribution(probs, max(0.0, 1.0 - probs.sum()))


def empirical_distribution(values: np.ndarray) -> DiscreteDistribution:
    """Empirical pmf of non-negative integer samples, carrying the sample count."""
    values = np.asarray(values, dtype=np.int64)
    if values.size == 0:
        raise ValueError("need at least one sample")
    probs = np.bincount(values) / values.size
    return DiscreteDistribution(probs, max(0.0, 1.0 - probs.sum()), n_samples=values.size)
