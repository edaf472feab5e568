"""Analytic return-time predictions for the coupled lattice on the diagonal.

For n coupled copies of an expanding interval map T with coupling gamma,
the tail probabilities of returns to the diagonal strip are

    alpha_hat_{k+1} = int h((x)^n) / |DT^k(x)|^{n-1} dx
                      / ( (1-gamma)^{k(n-1)} * int h((x)^n) dx )

with h the invariant density evaluated along the diagonal, passed as a plain
vectorized function x -> h((x)^n).  When |DT| is
constant this collapses to ((1-gamma)|DT|)^{-k(n-1)} independently of h.
The integrals are evaluated by composite 16-node Gauss-Legendre quadrature
on the branch intervals of T^k (the integrand is smooth inside each branch
and jumps across them), with adaptive bisection until refinement changes
fall below a fixed tolerance of 1e-10 per unit length.
"""

from __future__ import annotations

import warnings

import numpy as np

from .distributions import ClusterSizeDist
from .dynamics import IntervalMap

__all__ = ["alpha_hat_integral", "cml_prediction", "ExpansionWarning"]

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)
_MAX_BRANCHES = 1 << 21
_MAX_DEPTH = 40
_TOL = 1e-10


class ExpansionWarning(UserWarning):
    """(1-gamma)|DT| <= 1 somewhere: transverse expansion is lost and the
    formula is outside its guaranteed validity range."""


def _gauss(f, a, b):
    x = 0.5 * (b - a) * _NODES + 0.5 * (a + b)
    return 0.5 * (b - a) * float(_WEIGHTS @ f(x))


def _adaptive(f, a, b, tol, depth=0):
    whole = _gauss(f, a, b)
    mid = 0.5 * (a + b)
    refined = _gauss(f, a, mid) + _gauss(f, mid, b)
    if abs(refined - whole) <= tol or depth >= _MAX_DEPTH:
        return refined
    left = _adaptive(f, a, mid, tol / 2, depth + 1)
    return left + _adaptive(f, mid, b, tol / 2, depth + 1)


def _integrate_on_partition(f, breakpoints: np.ndarray):
    """Adaptive composite quadrature, summed over the partition cells."""
    total = 0.0
    for i in range(breakpoints.size - 1):
        a, b = float(breakpoints[i]), float(breakpoints[i + 1])
        total += _adaptive(f, a, b, _TOL * (b - a))
    return total


def _derivative_power(base_map: IntervalMap, x: np.ndarray, k: int) -> np.ndarray:
    """|DT^k(x)| by the chain rule, vectorized over quadrature nodes."""
    x = np.asarray(x, dtype=float)
    d = np.ones_like(x)
    for _ in range(k):
        d *= np.abs(base_map.derivative(x))
        x = base_map.apply(x)
    return d


def _check_expansion(base_map: IntervalMap, gamma: float) -> None:
    grid = (np.arange(4096) + 0.5) / 4096
    min_d = float(np.min(np.abs(base_map.derivative(grid))))
    if (1.0 - gamma) * min_d <= 1.0:
        warnings.warn(
            f"(1-gamma)*min|DT| = {(1.0 - gamma) * min_d:.6g} <= 1: transverse "
            "expansion lost; the prediction is outside its validity range",
            ExpansionWarning, stacklevel=3)


def alpha_hat_integral(base_map: IntervalMap, h, n: int, gamma: float,
                       k: int) -> float:
    """alpha_hat_{k+1} for the n-site lattice with coupling gamma; `h` is the
    vectorized diagonal density x -> h((x)^n), such as ``np.ones_like`` for
    Lebesgue measure or ``lambda x: h_base(x) ** n`` for the gamma = 0
    product of a base density."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return 1.0
    if base_map.a**k > _MAX_BRANCHES:
        raise ValueError(f"T^{k} has {base_map.a**k} branches, above the "
                         f"partition budget {_MAX_BRANCHES}")
    _check_expansion(base_map, gamma)

    pts = base_map.branch_points_of_power(k)
    num_f = lambda x: h(x) / _derivative_power(base_map, x, k) ** (n - 1)
    num = _integrate_on_partition(num_f, pts)
    den = _integrate_on_partition(h, base_map.breakpoints)
    if den <= 0:
        raise ValueError("diagonal density integrates to a non-positive value")
    return num / ((1.0 - gamma) ** (k * (n - 1)) * den)


def cml_prediction(base_map: IntervalMap, h, n: int, gamma: float,
                   k_max: int) -> ClusterSizeDist:
    """The cluster-size law of alpha_hat_{1..k_max+1} by quadrature
    (`ClusterSizeDist.from_alpha_hat`); its extremal index is
    alpha_1 = 1 - alpha_hat_2."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    return ClusterSizeDist.from_alpha_hat([alpha_hat_integral(base_map, h, n, gamma, k)
                                           for k in range(k_max + 1)])
