"""Closed-form Polya-Aeppli pmf, the reference for geometric cluster laws.

The package builds every limit law as compound Poisson over a cluster-size
law; the Polya-Aeppli law of a periodic point is the case of geometric
clusters.  This module evaluates the same law from its closed form instead,
with scipy's ``gammaln``, so tests can check the general recursion against
it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

from returnstats.distributions import DiscreteDistribution


def polya_aeppli_pmf(s: float, p: float, k_max: int) -> DiscreteDistribution:
    """Polya-Aeppli pmf of intensity s and geometric cluster ratio p.

    P(W=0) = exp(-s) and for k >= 1
    P(W=k) = exp(-s) sum_{j=1..k} p^(k-j) (1-p)^j s^j / j! * C(k-1, j-1).
    Binomial coefficients are evaluated in log space; p = 0 is Poisson(s).
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
    return DiscreteDistribution(probs, max(0.0, 1.0 - probs.sum()))
