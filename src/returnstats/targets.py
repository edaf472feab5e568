"""Shrinking target sets and their invariant measure.

Three kinds: sup-metric balls around a point, the horizontal strip around
the invariant line {y = 0} of the torus map, and the strip around the
diagonal of a lattice.  Membership is closed (<=); boundaries carry zero
measure.
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
    """Base: membership tests plus an exact Lebesgue measure when known."""

    kind: str

    def contains_points(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized membership for an (n_points, dim) array."""
        raise NotImplementedError

    def exact_measure(self, dimension: int) -> float | None:
        """Closed-form Lebesgue measure in a `dimension`-dimensional system,
        or None if only MC is available."""
        return None


@dataclass(frozen=True)
class Ball(TargetSet):
    """Closed ball of the sup metric, clipped to the unit cube."""

    center: tuple
    rho: float
    kind: str = "ball"

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in np.atleast_1d(self.center)))
        if self.rho <= 0:
            raise ValueError("rho must be positive")

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
    kind: str = "torus_strip"

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
    kind: str = "diagonal_strip"

    def __post_init__(self):
        if not 0 < self.nu < 1:
            raise ValueError("nu must lie in (0, 1)")

    def contains_points(self, pts):
        return pts.max(axis=-1) - pts.min(axis=-1) <= self.nu

    def exact_measure(self, dimension):
        # closed form known for one site (the whole interval) and for a pair
        # of sites: the area of {|x1 - x2| <= nu}
        if dimension == 1:
            return 1.0
        if dimension == 2:
            return 2 * self.nu - self.nu**2
        return None


def measure(target: TargetSet, map_system, n_samples: int, seed) -> MeasureEstimate:
    """mu(U) under the system's stationary law.

    Returns the closed form (std_error 0) when the system preserves Lebesgue
    measure and the target has one; otherwise Monte Carlo hit frequency over
    ``n_samples`` stationary draws.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if map_system.preserves_lebesgue:
        exact = target.exact_measure(map_system.dimension)
        if exact is not None:
            return MeasureEstimate(mean=exact, std_error=0.0, n_samples=n_samples)

    master_seed, trial_index = seed
    pts = map_system.stationary_samples(master_seed, trial_index, n_samples)
    hits = int(np.count_nonzero(target.contains_points(pts)))
    mean = hits / n_samples
    return MeasureEstimate(mean=mean,
                           std_error=math.sqrt(mean * (1.0 - mean) / n_samples),
                           n_samples=n_samples)
