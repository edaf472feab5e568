"""Concrete dynamical systems and orbit generation.

Built-in systems:

* ``LinearMod1System``    -- T(x) = a*x mod 1 on [0,1), exact digits
* ``TorusAffineSystem``   -- (x, y) -> (x + y, a*y) mod 1 on the 2-torus
* ``CmlSystem``           -- coupled map lattice over a 1-d expanding base map,
  iterated in float64; one site is the base map itself

Every system builds its orbits through one vectorized interface,
``indicator_block`` and ``stationary_samples``.  The exact-digit systems
realise a stationary orbit of a*x mod 1 as a sliding window over an i.i.d.
base-a digit stream: x_n is the value of digits n, n+1, ..., n+W-1, which is
exact in law for Lebesgue measure and immune to the mantissa-draining that
makes float64 iteration of the doubling map hit 0 within 53 steps.  W is the
largest width with a**W <= 2**53 so window values convert to float64 without
rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Sequence

import numpy as np
from scipy.optimize import brentq

from .rngstreams import trial_rng

__all__ = [
    "IntervalMap",
    "LinearInterval",
    "SinePerturbedInterval",
    "MapSystem",
    "LinearMod1System",
    "TorusAffineSystem",
    "CmlSpec",
    "CmlSystem",
]

# digits per orbit group of the exact-digit systems (a working-set budget)
_GROUP_DIGITS = 1 << 16


# ---------------------------------------------------------------------------
# 1-d interval maps (base maps for the CML and the quadrature module)
# ---------------------------------------------------------------------------


class IntervalMap:
    """Piecewise-smooth expanding map of [0, 1) with finitely many branches.

    ``breakpoints`` are the branch endpoints in [0, 1] including 0 and 1;
    the map is C^2 and monotone on each open branch interval.
    """

    breakpoints: np.ndarray

    def apply(self, x):
        raise NotImplementedError

    def derivative(self, x):
        raise NotImplementedError

    def branch_points_of_power(self, k: int) -> np.ndarray:
        """Branch endpoints of T^k, found by pulling the breakpoints of T
        back through the inverse branches (preimage recursion)."""
        pts = set(float(b) for b in self.breakpoints)
        level = set(pts)
        for _ in range(k - 1):
            level = set(self._preimages(sorted(level)))
            pts |= level
        return np.array(sorted(pts))

    def _preimages(self, ys: Sequence[float]) -> list[float]:
        out = []
        b = self.breakpoints
        for i in range(b.size - 1):
            lo, hi = float(b[i]), float(b[i + 1])
            f_lo = float(self._branch_value(lo, i))
            f_hi = float(self._branch_value(hi, i))
            vmin, vmax = min(f_lo, f_hi), max(f_lo, f_hi)
            for y in ys:
                if vmin <= y <= vmax:
                    if f_hi == f_lo:
                        continue
                    g = lambda x, y=y, i=i: float(self._branch_value(x, i)) - y
                    try:
                        out.append(brentq(g, lo, hi, xtol=1e-15))
                    except ValueError:
                        pass
        return out

    def _branch_value(self, x, branch_index):
        """Continuous (un-wrapped) value of the branch at x; subclasses with a
        simple lift override this."""
        raise NotImplementedError


class LinearInterval(IntervalMap):
    """T(x) = a*x mod 1 with integer slope a >= 2."""

    def __init__(self, a: int):
        if int(a) != a or a < 2:
            raise ValueError("slope a must be an integer >= 2")
        self.a = int(a)
        self.breakpoints = np.arange(self.a + 1) / self.a

    def apply(self, x):
        return (self.a * np.asarray(x, dtype=float)) % 1.0

    def derivative(self, x):
        return np.full_like(np.asarray(x, dtype=float), float(self.a))

    def branch_points_of_power(self, k: int) -> np.ndarray:
        return np.arange(self.a**k + 1) / self.a**k


class SinePerturbedInterval(IntervalMap):
    """T(x) = a*x + eps*sin(2 pi x) mod 1, eps != 0; expanding when a - 2 pi |eps| > 1."""

    def __init__(self, a: int, eps: float):
        if int(a) != a or a < 2:
            raise ValueError("slope a must be an integer >= 2")
        if eps == 0:
            # the map is then a*x mod 1, which CmlSystem's drain check knows
            # only as LinearInterval
            raise ValueError("eps = 0 is a*x mod 1: use LinearInterval(a)")
        if abs(eps) * 2 * math.pi >= a - 1:
            raise ValueError("perturbation too large: map no longer expanding")
        self.a = int(a)
        self.eps = float(eps)
        # lift L(x) = a x + eps sin(2 pi x) is strictly increasing from 0 to a,
        # so the branch endpoints solve L(x) = j for j = 1..a-1
        lift = lambda x: self.a * x + self.eps * math.sin(2 * math.pi * x)
        inner = [brentq(lambda x, j=j: lift(x) - j, 0.0, 1.0, xtol=1e-15)
                 for j in range(1, self.a)]
        self.breakpoints = np.array([0.0] + inner + [1.0])

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        return (self.a * x + self.eps * np.sin(2 * np.pi * x)) % 1.0

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        return self.a + self.eps * 2 * np.pi * np.cos(2 * np.pi * x)

    def _branch_value(self, x, branch_index):
        return self.a * x + self.eps * math.sin(2 * math.pi * x) - branch_index


# ---------------------------------------------------------------------------
# digit-stream machinery (exact-in-law orbits for a*x mod 1)
# ---------------------------------------------------------------------------


def digit_window_width(a: int) -> int:
    """Largest W with a**W <= 2**53 (window values stay exact in float64)."""
    w = int(53 / math.log2(a))
    while a ** (w + 1) <= 2**53:
        w += 1
    while a**w > 2**53:
        w -= 1
    return w


def sliding_window_values(digits: np.ndarray, a: int, width: int,
                          out: np.ndarray | None = None) -> np.ndarray:
    """Float values in [0,1) of all base-a windows of `width` digits.

    Works along the last axis and writes into `out` when given.  Binary
    digits are bit-packed: every window is a shift of the big-endian 64-bit
    word at its byte.  Other bases use log2(width) doubling passes of exact
    int64 arithmetic.  Either way the window is an exact integer below
    2**53, so no precision is lost and no (n, width) matrix is materialised.
    """
    n = digits.shape[-1]
    if n < width:
        raise ValueError("need at least `width` digits")
    m = n - width + 1
    if out is None:
        out = np.empty(digits.shape[:-1] + (m,))
    if a == 2:
        _binary_windows(digits, width, out)
    else:
        out[...] = _doubling_windows(digits, a, width)[..., :m]
    out /= float(a**width)
    return out


def _binary_windows(bits: np.ndarray, width: int, out: np.ndarray) -> None:
    """Integer values of the `width`-bit windows (width <= 57) into `out`.

    Bytes of the packed stream, padded with 7 zero bytes, are read as a
    big-endian 64-bit word at every byte offset j; the window starting at bit
    8j + r is that word shifted left by r and right by 64 - width.
    """
    packed = np.packbits(bits, axis=-1)
    nb = packed.shape[-1]
    padded = np.zeros(packed.shape[:-1] + (nb + 7,), dtype=np.uint8)
    padded[..., :nb] = packed
    words = np.ndarray(packed.shape, dtype=">u8", buffer=padded,
                       strides=padded.strides[:-1] + (1,)).astype(np.uint64)
    m = out.shape[-1]
    for r in range(min(8, m)):
        part = words[..., : (m - r + 7) // 8] << np.uint64(r)
        part >>= np.uint64(64 - width)
        out[..., r::8] = part.view(np.int64)


def _doubling_windows(digits: np.ndarray, a: int, width: int) -> np.ndarray:
    """Integer values (int64) of the base-a windows, at least n - width + 1
    along the last axis.  Doubling powers that `width` does not use are
    dropped as soon as the next one is built."""
    n = digits.shape[-1]
    pw = {1: np.asarray(digits, dtype=np.int64)}
    length = 1
    while 2 * length <= width:
        arr = pw[length]
        nxt = arr[..., : arr.shape[-1] - length] * a**length
        nxt += arr[..., length:]
        pw[2 * length] = nxt
        if not width & length:
            del pw[length]
        length *= 2
    res = None
    covered = 0
    for bit in (1 << b for b in range(width.bit_length() - 1, -1, -1)):
        if not width & bit:
            continue
        part = pw.pop(bit)
        if res is None:
            res, covered = part, bit
        else:
            newlen = covered + bit
            valid = n - newlen + 1
            res = res[..., :valid] * a**bit
            res += part[..., covered : covered + valid]
            covered = newlen
    return res


# ---------------------------------------------------------------------------
# map systems
# ---------------------------------------------------------------------------


class MapSystem:
    """Base class: a concrete system with vectorized stationary orbits.

    ``preserves_lebesgue`` is true when Lebesgue measure is the system's
    stationary law, so a target's closed-form volume is its mu(U).
    """

    dimension: int
    preserves_lebesgue = False

    def indicator_block(self, target, master_seed: int, trial_indices,
                        n_points: int) -> np.ndarray:
        """Boolean (n_trials, n_points) membership array along stationary
        orbits, one independent RNG stream per trial index."""
        raise NotImplementedError

    def stationary_samples(self, master_seed: int, trial_index: int,
                           n_samples: int) -> np.ndarray:
        """(n_samples, dimension) independent draws from the invariant law."""
        raise NotImplementedError


class _DigitOrbitSystem(MapSystem):
    """Shared orbit construction of the exact-digit systems.

    A trial's orbit reads its first n_points + width - 1 base-a digits from
    its own Philox stream ``trial_rng(master_seed, trial)``; orbits are
    built in groups of trials whose digit matrix stays within
    ``_GROUP_DIGITS``.  Each trial draws exactly the digits it reads, and a
    shorter draw is a prefix of a longer one, so neither the grouping nor
    the orbit length changes a bit of any trial's orbit.
    """

    preserves_lebesgue = True

    def __init__(self, a: int, dimension: int):
        self.interval_map = LinearInterval(a)
        self.a = self.interval_map.a
        self.dimension = dimension
        self.width = digit_window_width(self.a)

    def _fill_planes(self, master_seed: int, trials: list, coords: np.ndarray) -> None:
        """Fill the coordinate planes before the last from the window plane
        ``coords[-1]``; `coords` is (dimension, len(trials), n_points)."""

    def _digits(self, master_seed: int, trials: list, n_digits: int) -> np.ndarray:
        """(len(trials), n_digits) matrix of the trials' first base-a digits.

        For a = 2, ``integers(0, 2)`` returns the top bit of each 32-bit half
        of a raw 64-bit Philox word, low half first (Lemire's bound never
        rejects for a range of 2), so the digits are read off the same raw
        words directly, as booleans.
        """
        if self.a != 2:
            digits = np.empty((len(trials), n_digits), dtype=np.int64)
            for row, t in enumerate(trials):
                digits[row] = trial_rng(master_seed, t).integers(0, self.a, size=n_digits,
                                                                 dtype=np.int64)
            return digits
        raw = np.empty((len(trials), (n_digits + 1) // 2), dtype="<u8")
        for row, t in enumerate(trials):
            raw[row] = trial_rng(master_seed, t).bit_generator.random_raw(raw.shape[1])
        return raw.view("<u4")[:, :n_digits] >= 1 << 31

    def _orbit_coords(self, master_seed: int, trials, n_points: int) -> np.ndarray:
        """(len(trials), n_points, dimension) coordinates of the trials' orbits,
        a transposed view of contiguous per-coordinate planes."""
        trials = [int(t) for t in trials]
        digits = self._digits(master_seed, trials, n_points + self.width - 1)
        coords = np.empty((self.dimension, len(trials), n_points))
        sliding_window_values(digits, self.a, self.width, out=coords[-1])
        del digits
        self._fill_planes(master_seed, trials, coords)
        return coords.transpose(1, 2, 0)

    def indicator_block(self, target, master_seed, trial_indices, n_points):
        out = np.empty((len(trial_indices), n_points), dtype=bool)
        group = max(1, _GROUP_DIGITS // (n_points + self.width - 1))
        for start in range(0, len(trial_indices), group):
            trials = trial_indices[start : start + group]
            coords = self._orbit_coords(master_seed, trials, n_points)
            out[start : start + len(trials)] = target.contains_points(
                coords.reshape(-1, self.dimension)).reshape(-1, n_points)
            del coords  # a group's points are freed before the next is built
        return out

    def stationary_samples(self, master_seed, trial_index, n_samples):
        # windows spaced width+1 apart share no digits, hence are independent
        stride = self.width + 1
        n_points = (n_samples - 1) * stride + 1
        return self._orbit_coords(master_seed, [trial_index], n_points)[0, ::stride]


class LinearMod1System(_DigitOrbitSystem):
    """T(x) = a*x mod 1 as a sliding window over the exact digit stream."""

    def __init__(self, a: int):
        super().__init__(a, dimension=1)


class TorusAffineSystem(_DigitOrbitSystem):
    """(x, y) -> (x + y mod 1, a*y mod 1); Lebesgue measure is invariant.

    The expanding y-coordinate uses the exact digit stream; x only ever
    accumulates mod-1 sums and is kept in float64.
    """

    def __init__(self, a: int):
        super().__init__(a, dimension=2)

    def _fill_planes(self, master_seed, trials, coords):
        # x_0 from the trial's substream 1, then x_n = (x_0 + y_0 + ... +
        # y_{n-1}) mod 1 with a sequential float64 cumsum; v - floor(v) is
        # bitwise v % 1.0 for every float64 and several times cheaper
        x, y = coords
        x[:, 0] = [trial_rng(master_seed, t, substream=1).random() for t in trials]
        np.cumsum(y[:, :-1], axis=1, out=x[:, 1:])
        x[:, 1:] += x[:, :1]
        x[:, 1:] -= np.floor(x[:, 1:])


@dataclass(frozen=True)
class CmlSpec:
    """Coupled map lattice: n copies of a base map, coupling gamma through a
    constant-column stochastic matrix built from `weights`."""

    base_map: IntervalMap
    n: int
    gamma: float
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if self.n < 1:
            raise ValueError("lattice size n must be >= 1")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if w.size != self.n or np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be a length-n probability vector")


class CmlSystem(MapSystem):
    """Lattice map x_i -> (1-gamma) T(x_i) + gamma sum_j p_j T(x_j).

    For gamma > 0 Lebesgue measure is not invariant (the coupling contracts
    transversally to the diagonal), so stationary sampling starts uniform and
    burns in.  Orbits are float64.  One site (n = 1) iterates the base map
    itself, so this is also the float64 system of a single interval map.

    Uncoupled copies of a*x mod 1 with a a power of two are refused: every
    float64 step is then an exact bit shift, and every orbit reaches 0
    within 53 steps.  ``LinearMod1System`` builds exact orbits of that map.
    """

    def __init__(self, spec: CmlSpec, burn_in: int = 1024):
        if burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        self.spec = spec
        self.dimension = spec.n
        self.burn_in = int(burn_in)
        a = getattr(spec.base_map, "a", None)
        if self.preserves_lebesgue and a & (a - 1) == 0:
            raise ValueError(f"float64 orbits of the uncoupled {a}x mod 1 lattice drain to 0: "
                             "each step is an exact bit shift, so every orbit reaches 0 "
                             "within 53 steps; linear_mod1 builds exact-digit orbits of "
                             "this map")

    @property
    def preserves_lebesgue(self) -> bool:
        # uncoupled copies of a*x mod 1: the product of Lebesgue measures
        return self.spec.gamma == 0.0 and isinstance(self.spec.base_map, LinearInterval)

    def _apply(self, coords: np.ndarray) -> np.ndarray:
        y = self.spec.base_map.apply(coords)
        coupled = y @ self.spec.weights
        return (1.0 - self.spec.gamma) * y + self.spec.gamma * np.expand_dims(coupled, -1)

    def _orbit(self, master_seed, trial_indices, n_points):
        """Yield the trials' (n_trials, n) states at each of n_points time
        points, iterated in lockstep from uniform starts after the burn-in."""
        coords = np.empty((len(trial_indices), self.spec.n))
        for row, t in enumerate(trial_indices):
            coords[row] = trial_rng(master_seed, int(t)).random(self.spec.n)
        for _ in range(self.burn_in):
            coords = self._apply(coords)
        yield coords
        for _ in range(n_points - 1):
            coords = self._apply(coords)
            yield coords

    def indicator_block(self, target, master_seed, trial_indices, n_points):
        out = np.empty((len(trial_indices), n_points), dtype=bool)
        for i, coords in enumerate(self._orbit(master_seed, trial_indices, n_points)):
            out[:, i] = target.contains_points(coords)
        return out

    def stationary_samples(self, master_seed, trial_index, n_samples):
        # decorrelation stride: transverse contraction/expansion mixes in a
        # few steps for uniformly expanding base maps
        stride = 16
        orbit = self._orbit(master_seed, [trial_index], (n_samples - 1) * stride + 1)
        return np.array([coords[0] for coords in islice(orbit, 0, None, stride)])
