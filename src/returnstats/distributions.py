"""Cluster-size laws and the finite-truncation compound laws built from them.

A cluster-size law lambda_ell = P(X = ell) and the tail-probability sequence
alpha_hat_ell (alpha_hat_1 = 1, non-increasing) determine each other through

    alpha_ell  = P(X >= ell) / E[X] = alpha_hat_ell - alpha_hat_{ell+1}
    lambda_ell = (alpha_ell - alpha_{ell+1}) / alpha_1

with alpha_1 = 1/E[X] = 1 - alpha_hat_2 the extremal index.  A finite
alpha_hat table is extended by the geometric envelope of its last two terms,
so its law carries the tail explicitly instead of quietly truncating it.

The compound Poisson law of W = X_1 + ... + X_P, P ~ Poisson(s), is built
from the cluster-size law: Polya-Aeppli over ``ClusterSizeDist.geometric``
clusters, Poisson over ``ClusterSizeDist.single()``.  All pmfs carry an explicit
``tail_mass`` so that normalisation is exact bookkeeping, never a silent
renormalisation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .records import csv_table, json_fields

__all__ = ["DiscreteDistribution", "ClusterSizeDist", "compound_poisson_pmf",
           "empirical_distribution"]

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
        if not (np.all(np.isfinite(probs)) and math.isfinite(self.tail_mass)):
            raise ValueError("probabilities and tail_mass must be finite")
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
        if not np.all(np.isfinite(lam)):
            raise ValueError("cluster probabilities must be finite")
        if np.any(lam < -_NORM_TOL):
            raise ValueError("cluster probabilities must be non-negative")
        if abs(lam.sum() - 1.0) > _NORM_TOL:
            raise ValueError(f"cluster probabilities must sum to 1, got {lam.sum()!r}")

    def mean(self) -> float:
        return float(np.arange(1, self.lambdas.size + 1) @ self.lambdas)

    @property
    def extremal_index(self) -> float:
        """alpha_1 = P(X >= 1) / E[X]."""
        return float(self.lambdas.sum() / self.mean())

    def alpha_hat(self, n: int) -> np.ndarray:
        """alpha_hat_1..alpha_hat_n, where alpha_hat_{ell+1} = 1 - alpha_1 - ...
        - alpha_ell; it is exactly 0 past the law's support."""
        lam, mean = self.lambdas, self.mean()
        alpha = np.array([lam[k - 1:].sum() / mean for k in range(1, n)])
        alpha_hat = np.clip(np.concatenate([[1.0], 1.0 - np.cumsum(alpha)]), 0.0, 1.0)
        alpha_hat[lam.size:] = 0.0
        return alpha_hat

    @classmethod
    def from_alpha_hat(cls, alpha_hat) -> "ClusterSizeDist":
        """The law of a tail-probability table alpha_hat_1..alpha_hat_m, with
        the table's geometric envelope as its tail.

        Requires alpha_hat_1 = 1, non-increasing entries in [0, 1] and a
        decaying tail (finite mean cluster size); violations are rejected,
        and so is a table whose law does not sum to 1.
        """
        ah = np.asarray(alpha_hat, dtype=float)
        if ah.ndim != 1 or ah.size < 2:
            raise ValueError("alpha_hat needs at least the first two entries")
        if abs(ah[0] - 1.0) > 1e-12:
            raise ValueError("alpha_hat_1 must equal 1")
        if np.any(np.diff(ah) > 1e-12):
            raise ValueError("alpha_hat must be non-increasing")
        if np.any(ah < -1e-15) or np.any(ah > 1 + 1e-12):
            raise ValueError("alpha_hat entries must lie in [0, 1]")
        alpha1 = 1.0 - ah[1]
        if alpha1 <= 0.0:
            raise ValueError("alpha_1 = 1 - alpha_hat_2 must be positive")

        # geometric envelope for the tail beyond the last retained index
        r = 0.0 if ah[-1] <= 0.0 or ah[-2] <= 0.0 else float(ah[-1] / ah[-2])
        if r >= 1.0:
            raise ValueError("alpha_hat tail does not decay; sum k*alpha_hat_k diverges")
        # extend with the envelope until the remaining alpha_hat mass is far
        # below double precision, so term-wise sums carry no visible truncation
        extra = (max(2, math.ceil((math.log(1e-18) - math.log(ah[-1])) / math.log(r)))
                 if r > 0.0 else 2)
        full = np.concatenate([ah, ah[-1] * r ** np.arange(1, extra + 1)])
        alpha = full[:-1] - full[1:]
        return cls(np.clip((alpha[:-1] - alpha[1:]) / alpha1, 0.0, None))

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


def compound_poisson_pmf(s: float, clusters: ClusterSizeDist,
                         k_max: int) -> DiscreteDistribution:
    """pmf of W = sum of a Poisson(s) number of i.i.d. cluster sizes.

    Uses the weighted recursion
    P(W=k) = (s/k) * sum_{ell<=k} ell * lambda_ell * P(W=k-ell),
    with P(W=0) = exp(-s).  The mass beyond k_max is the pmf's tail_mass.
    """
    if not s > 0:
        raise ValueError("intensity must be positive")
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    lam = clusters.lambdas
    probs = np.zeros(k_max + 1)
    probs[0] = math.exp(-s)
    weighted = np.arange(1, lam.size + 1) * lam  # ell * lambda_ell
    for k in range(1, k_max + 1):
        m = min(k, lam.size)
        probs[k] = (s / k) * (weighted[:m] @ probs[k - 1 :: -1][:m])
    return DiscreteDistribution(probs, max(0.0, 1.0 - probs.sum()))


def empirical_distribution(values: np.ndarray) -> DiscreteDistribution:
    """Empirical pmf of non-negative integer samples, carrying the sample count."""
    values = np.asarray(values, dtype=np.int64)
    if values.size == 0:
        raise ValueError("need at least one sample")
    probs = np.bincount(values) / values.size
    return DiscreteDistribution(probs, max(0.0, 1.0 - probs.sum()), n_samples=values.size)
