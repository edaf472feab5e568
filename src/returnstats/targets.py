"""Shrinking target sets and their invariant measure.

Three kinds: sup-metric balls around a point, the horizontal strip around
the invariant line {y = 0} of the torus map, and the strip around the
diagonal of a lattice.  Membership is closed (<=); boundaries carry zero
measure.  Every target has a closed-form Lebesgue measure, which is its
mu(U) in every system that preserves Lebesgue measure; elsewhere mu(U) is a
row's cluster hit rate, ``ClusterStats.mu_hat``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["TargetSet", "Ball", "TorusStrip", "DiagonalStrip",
           "MeasureEstimate", "measure"]


@dataclass(frozen=True)
class MeasureEstimate:
    mean: float
    std_error: float
    n_samples: int

    def __post_init__(self):
        if not 0.0 <= self.mean <= 1.0:
            raise ValueError("mean must lie in [0, 1]")


class TargetSet:
    """Base: membership tests plus the closed-form Lebesgue measure."""

    def contains_points(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized membership for an (n_points, dim) array."""
        raise NotImplementedError

    def exact_measure(self, dimension: int) -> float:
        """Closed-form Lebesgue measure in a `dimension`-dimensional system."""
        raise NotImplementedError


@dataclass(frozen=True)
class Ball(TargetSet):
    """Closed ball of the sup metric, clipped to the unit cube."""

    center: tuple
    rho: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in np.atleast_1d(self.center)))
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if not all(0.0 <= c <= 1.0 for c in self.center):
            raise ValueError(f"a ball centre lies in the unit cube [0, 1], got {self.center}")

    def contains_points(self, pts):
        return np.abs(pts - np.asarray(self.center)).max(axis=-1) <= self.rho

    def exact_measure(self, dimension):
        vol = 1.0
        for c in self.center:
            vol *= min(c + self.rho, 1.0) - max(c - self.rho, 0.0)
        return vol


@dataclass(frozen=True)
class TorusStrip(TargetSet):
    """{(x, y): circle distance of y to 0 <= rho} -- a neighbourhood of the
    invariant line of the torus map."""

    rho: float

    def __post_init__(self):
        if not 0 < self.rho <= 0.5:
            raise ValueError("rho must lie in (0, 1/2]")
        # fl(1 - d) never rises with d, so 1 - d <= rho exactly when d >= the
        # least double `upper` that satisfies it
        rho = float(self.rho)
        upper = 1.0 - rho
        while 1.0 - math.nextafter(upper, 0.0) <= rho:
            upper = math.nextafter(upper, 0.0)
        while 1.0 - upper > rho:
            upper = math.nextafter(upper, 1.0)
        object.__setattr__(self, "_upper", upper)

    def contains_points(self, pts):
        # circle distance of y to 0 at most rho: d <= rho or 1 - d <= rho,
        # that is d >= _upper, with d = |y| mod 1, which is y itself when every
        # y lies in [0, 1), as orbit points do; d - floor(d) is bitwise d % 1.0
        # for every float64, and cheaper
        d = pts[..., 1]
        if not (d.size and 0.0 <= d.min() and d.max() < 1.0):
            d = np.abs(d)
            d -= np.floor(d)
        inside = d <= self.rho
        inside |= d >= self._upper
        return inside

    def exact_measure(self, dimension):
        return min(2 * self.rho, 1.0)


@dataclass(frozen=True)
class DiagonalStrip(TargetSet):
    """{x: max_{i,j} |x_i - x_j| <= nu} around the diagonal of the lattice."""

    nu: float

    def __post_init__(self):
        if not 0 < self.nu < 1:
            raise ValueError("nu must lie in (0, 1)")

    def contains_points(self, pts):
        return pts.max(axis=-1) - pts.min(axis=-1) <= self.nu

    def exact_measure(self, dimension):
        # P(max - min <= nu) for n i.i.d. uniforms: the range of n uniforms
        # has density n (n-1) r^(n-2) (1-r); 1 at n = 1 and 2 nu - nu^2 at 2
        n, nu = dimension, self.nu
        return n * nu ** (n - 1) - (n - 1) * nu**n


def measure(target: TargetSet, map_system, n_samples: int, seed) -> MeasureEstimate:
    """mu(U) of a system that preserves Lebesgue measure: the target's
    closed-form volume, with std_error 0.  Any other system has no closed
    form and is refused; its mu(U) is its cluster phase's hit rate
    (``ClusterStats.mu_hat``).  `seed` is not read.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not map_system.preserves_lebesgue:
        raise ValueError(f"a {type(map_system).__name__} that does not preserve Lebesgue "
                         "measure has no closed-form mu(U)")
    return MeasureEstimate(mean=target.exact_measure(map_system.dimension),
                           std_error=0.0, n_samples=n_samples)
