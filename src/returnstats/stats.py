"""Cluster-sequence algebra and goodness-of-fit utilities.

The tail-probability sequence alpha_hat_ell (alpha_hat_1 = 1, non-increasing)
determines the per-cluster return probabilities alpha_ell and the cluster-size
probabilities lambda_ell through

    alpha_ell  = alpha_hat_ell - alpha_hat_{ell+1}
    lambda_ell = (alpha_ell - alpha_{ell+1}) / alpha_1

with alpha_1 = 1 - alpha_hat_2 the extremal index.  Finite sequences are
extended past the truncation index by the geometric envelope fitted to the
last two retained terms, so the identities (mean cluster size = 1/alpha_1)
can be evaluated with an explicit tail budget instead of being quietly
truncated.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc

from .distributions import DiscreteDistribution
from .records import json_fields

__all__ = ["AlphaSequences", "GofReport", "lambda_from_alpha_hat",
           "total_variation", "chi_square_gof"]


@dataclass(frozen=True)
class AlphaSequences:
    """alpha_hat and alpha to the retained index and the whole lambda law, its
    envelope tail included; index i holds the value at ell = i+1."""

    alpha_hat: np.ndarray
    alpha: np.ndarray
    lam: np.ndarray
    tail_ratio: float          # fitted geometric ratio of alpha_hat past the end
    mean_cluster_size: float   # includes the geometric tail, in closed form

    @property
    def extremal_index(self) -> float:
        return float(self.alpha[0])


def lambda_from_alpha_hat(alpha_hat) -> AlphaSequences:
    """Convert a tail-probability sequence into alpha and lambda sequences.

    Requires alpha_hat[0] = 1, non-increasing entries and a summable tail
    (finite mean cluster size); violations are rejected.
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
    m = ah.size
    if ah[-1] <= 0.0 or ah[-2] <= 0.0:
        r = 0.0
    else:
        r = float(ah[-1] / ah[-2])
    if r >= 1.0:
        raise ValueError("alpha_hat tail does not decay; sum k*alpha_hat_k diverges")

    # extend with the envelope until the remaining alpha_hat mass is far
    # below double precision, so term-wise sums carry no visible truncation
    if r > 0.0:
        extra = max(2, math.ceil((math.log(1e-18) - math.log(ah[-1])) / math.log(r)))
    else:
        extra = 2
    tail = ah[-1] * r ** np.arange(1, extra + 1)
    full = np.concatenate([ah, tail])

    alpha_full = full[:-1] - full[1:]
    lam_full = np.clip((alpha_full[:-1] - alpha_full[1:]) / alpha1, 0.0, None)
    mean_cluster = float(np.arange(1, lam_full.size + 1) @ lam_full)

    return AlphaSequences(alpha_hat=full[:m], alpha=alpha_full[:m], lam=lam_full,
                          tail_ratio=r, mean_cluster_size=mean_cluster)


def total_variation(d1: DiscreteDistribution, d2: DiscreteDistribution) -> float:
    """0.5 * sum_k |p1_k - p2_k| + 0.5 * |tail1 - tail2|."""
    n = max(d1.probs.size, d2.probs.size)
    p1 = np.zeros(n)
    p2 = np.zeros(n)
    p1[: d1.probs.size] = d1.probs
    p2[: d2.probs.size] = d2.probs
    return float(0.5 * np.abs(p1 - p2).sum() + 0.5 * abs(d1.tail_mass - d2.tail_mass))


@dataclass(frozen=True)
class GofReport:
    tv_distance: float
    chi_square: float
    dof: int
    p_value: float
    n: int

    def to_json(self) -> str:
        return json.dumps(json_fields(self))


def chi_square_gof(empirical: DiscreteDistribution, n: int,
                   model: DiscreteDistribution) -> GofReport:
    """Pearson chi-square of an n-sample empirical pmf against a model pmf.

    Bins with expected model mass below 5/n are merged into the tail bin;
    the p-value is the chi-square survival function Q(dof/2, X2/2).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    size = max(empirical.probs.size, model.probs.size)
    pe = np.zeros(size)
    pm = np.zeros(size)
    pe[: empirical.probs.size] = empirical.probs
    pm[: model.probs.size] = model.probs

    cutoff = 5.0 / n
    keep = pm >= cutoff
    obs = list(pe[keep] * n)
    exp = list(pm[keep] * n)
    tail_obs = (pe[~keep].sum() + empirical.tail_mass) * n
    tail_exp = (pm[~keep].sum() + model.tail_mass) * n
    if tail_exp > 0:
        obs.append(tail_obs)
        exp.append(tail_exp)
    if len(obs) < 2:
        raise ValueError("fewer than 2 bins after merging; chi-square undefined")

    obs_a = np.asarray(obs)
    exp_a = np.asarray(exp)
    chi2 = float(np.sum((obs_a - exp_a) ** 2 / exp_a))
    dof = len(obs) - 1
    p_value = float(gammaincc(dof / 2.0, chi2 / 2.0))
    return GofReport(tv_distance=total_variation(empirical, model),
                     chi_square=chi2, dof=dof, p_value=p_value, n=n)
