"""Shrinking target sets and their invariant measure.

Three kinds: sup-metric balls around a point, the horizontal strip around
the invariant line {y = 0} of the torus map, and the strip around the
diagonal of a lattice.  Membership is closed (<=); boundaries carry zero
measure.  Every target has a closed-form Lebesgue measure, which is its
mu(U) in every system that preserves Lebesgue measure.
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

    def contains_points(self, pts):
        # circle distance of y to 0 at most rho: d <= rho or 1 - d <= rho
        # with d = |y| mod 1, in two float buffers; d - floor(d) is bitwise
        # d % 1.0 for every float64, and cheaper
        d = np.abs(pts[..., 1])
        scratch = np.floor(d)
        d -= scratch
        inside = d <= self.rho
        np.subtract(1.0, d, out=scratch)
        inside |= scratch <= self.rho
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
    """mu(U) under the system's stationary law.

    The target's closed-form volume (std_error 0) when the system preserves
    Lebesgue measure; otherwise the Monte Carlo hit frequency over
    ``n_samples`` stationary draws.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if map_system.preserves_lebesgue:
        return MeasureEstimate(mean=target.exact_measure(map_system.dimension),
                               std_error=0.0, n_samples=n_samples)

    master_seed, trial_index = seed
    pts = map_system.stationary_samples(master_seed, trial_index, n_samples)
    hits = int(np.count_nonzero(target.contains_points(pts)))
    mean = hits / n_samples
    return MeasureEstimate(mean=mean,
                           std_error=math.sqrt(mean * (1.0 - mean) / n_samples),
                           n_samples=n_samples)
