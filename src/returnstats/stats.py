"""Goodness-of-fit utilities: total variation and the Pearson chi-square test
of an empirical pmf against a model pmf."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
# scipy imports scipy.special on first attribute access, so only a p-value
# pays for loading it
import scipy

from .distributions import DiscreteDistribution
from .records import json_fields

__all__ = ["GofReport", "total_variation", "chi_square_gof"]


def total_variation(d1: DiscreteDistribution, d2: DiscreteDistribution) -> float:
    """0.5 * sum_k |p1_k - p2_k| + 0.5 * |tail1 - tail2|."""
    n = max(d1.probs.size, d2.probs.size)
    p1, p2 = (np.pad(d.probs, (0, n - d.probs.size)) for d in (d1, d2))
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

    Bins with expected model mass below 5/n are merged into the tail bin, kept if
    it holds model mass or samples; the p-value is chi2's survival Q(dof/2, X2/2).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    size = max(empirical.probs.size, model.probs.size)
    pe, pm = (np.pad(d.probs, (0, size - d.probs.size)) for d in (empirical, model))

    cutoff = 5.0 / n
    keep = pm >= cutoff
    obs = list(pe[keep] * n)
    exp = list(pm[keep] * n)
    tail_obs = (pe[~keep].sum() + empirical.tail_mass) * n
    tail_exp = (pm[~keep].sum() + model.tail_mass) * n
    if tail_exp > 0 or tail_obs > 0:
        obs.append(tail_obs)
        exp.append(tail_exp)
    if len(obs) < 2:
        raise ValueError("fewer than 2 bins after merging; chi-square undefined")

    obs_a = np.asarray(obs)
    exp_a = np.asarray(exp)
    with np.errstate(divide="ignore"):  # samples the model rules out: chi2 = inf, p = 0
        chi2 = float(np.sum((obs_a - exp_a) ** 2 / exp_a))
    dof = len(obs) - 1
    p_value = float(scipy.special.gammaincc(dof / 2.0, chi2 / 2.0))
    return GofReport(tv_distance=total_variation(empirical, model),
                     chi_square=chi2, dof=dof, p_value=p_value, n=n)
