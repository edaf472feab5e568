"""Compound binomial pmf, the finite-n reference of the compound Poisson law.

W = X_1 + ... + X_P with P ~ Binomial(N', p) tends to the compound Poisson law
of intensity N' p as N' grows with N' p fixed; criterion 11 checks that
convergence against the Polya-Aeppli law.  Nothing in the package needs the
finite-n law, so it lives with the tests.
"""

from __future__ import annotations

import numpy as np

from returnstats.distributions import ClusterSizeDist, DiscreteDistribution


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
    # repeated squaring of the per-block polynomial, truncated at k_max + 1
    # coefficients
    base = np.concatenate([[1.0 - p], p * clusters.lambdas[:k_max]])
    result = np.array([1.0])
    e = n_trials
    while e:
        if e & 1:
            result = np.convolve(result, base)[: k_max + 1]
        e >>= 1
        if e:
            base = np.convolve(base, base)[: k_max + 1]
    probs = np.pad(result, (0, k_max + 1 - result.size))
    return DiscreteDistribution(probs, max(0.0, 1.0 - probs.sum()))
