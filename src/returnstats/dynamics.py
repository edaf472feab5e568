"""Concrete dynamical systems and orbit generation.

Built-in systems:

* ``LinearMod1System``    -- T(x) = a*x mod 1 on [0,1), exact digits
* ``TorusAffineSystem``   -- (x, y) -> (x + y, a*y) mod 1 on the 2-torus, a skew
  product over ``LinearMod1System`` that adds its x plane
* ``CmlSystem``           -- coupled map lattice of n sites, its dimension, over
  a 1-d expanding base map, uniform weights unless given, iterated in float64;
  one site is the base map itself

Every system yields the orbits of a group of trials (``orbit_groups``, one
estimator task at any worker count) in time slices, ``_orbit_slices``, and
``MapSystem.indicator_block`` is the one membership loop over them, a call a
slice.  The exact-digit systems realise a stationary orbit of a*x mod 1 as a
sliding window over an i.i.d. base-a digit stream: x_n is the value of digits
n, n+1, ..., n+W-1, which is exact in law for Lebesgue measure and immune to
the mantissa-draining that makes float64 iteration of the doubling map hit 0
within 53 steps.  W is the largest width with a**W <= 2**53 so window values
convert to float64 without rounding.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .rngstreams import trial_rng

__all__ = [
    "IntervalMap",
    "LinearInterval",
    "SinePerturbedInterval",
    "MapSystem",
    "LinearMod1System",
    "TorusAffineSystem",
    "CmlSystem",
]

# digits per orbit group and time slice of the exact-digit systems: bounds
# the windows, planes and membership buffers of one group, whatever its
# orbit length (a working-set budget)
_GROUP_DIGITS = 1 << 16


# ---------------------------------------------------------------------------
# 1-d interval maps (base maps for the CML and the quadrature module)
# ---------------------------------------------------------------------------


class IntervalMap:
    """Expanding map T(x) = lift(x) mod 1 of [0, 1), defined by its lift.

    Subclasses define ``lift`` and ``derivative``; ``lift`` is C^2 and
    increases strictly from 0 at x = 0 to the integer ``a`` at x = 1, so T
    has ``a`` monotone branches.  Every branch point, of T and of T^k, is
    found from the lift alone.
    """

    def __init__(self, a: int):
        if int(a) != a or a < 2:
            raise ValueError("slope a must be an integer >= 2")
        self.a = int(a)

    def lift(self, x):
        raise NotImplementedError

    def derivative(self, x):
        raise NotImplementedError

    def apply(self, x):
        return self.lift(x) % 1.0

    @property
    def breakpoints(self) -> np.ndarray:
        """Branch endpoints of T in [0, 1], 0 and 1 included."""
        return self.branch_points_of_power(1)

    def branch_points_of_power(self, k: int) -> np.ndarray:
        """Branch endpoints of T^k: 0, 1 and the a**k - 1 points where the
        k-fold lift, y -> a*floor(y) + lift(y - floor(y)) applied k times,
        crosses an integer.  The k-fold lift increases strictly, so all points
        are bisected at once until every midpoint rounds to an endpoint; each
        is the upper endpoint, the first float whose k-fold lift reaches its integer."""
        j = np.arange(1, self.a**k, dtype=float)
        lo, hi = np.zeros_like(j), np.ones_like(j)
        while True:
            mid = 0.5 * (lo + hi)
            if np.all((mid == lo) | (mid == hi)):
                return np.concatenate(([0.0], hi, [1.0]))
            y = mid
            for _ in range(k):
                whole = np.floor(y)
                y = self.a * whole + self.lift(y - whole)
            below = y < j
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)


class LinearInterval(IntervalMap):
    """T(x) = a*x mod 1 with integer slope a >= 2."""

    def lift(self, x):
        return self.a * np.asarray(x, dtype=float)

    def derivative(self, x):
        return np.full_like(np.asarray(x, dtype=float), float(self.a))

    def branch_points_of_power(self, k: int) -> np.ndarray:
        return np.arange(self.a**k + 1) / self.a**k


class SinePerturbedInterval(IntervalMap):
    """T(x) = a*x + eps*sin(2 pi x) mod 1, eps != 0; expanding when a - 2 pi |eps| > 1."""

    def __init__(self, a: int, eps: float):
        super().__init__(a)
        if eps == 0:
            # the map is then a*x mod 1, which is LinearInterval: it alone gets
            # the exact mu(U) and predict's law
            raise ValueError("eps = 0 is a*x mod 1: use LinearInterval(a)")
        if abs(eps) * 2 * math.pi >= a - 1:
            raise ValueError("perturbation too large: map no longer expanding")
        self.eps = float(eps)

    def lift(self, x):
        x = np.asarray(x, dtype=float)
        return self.a * x + self.eps * np.sin(2 * np.pi * x)

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        return self.a + self.eps * 2 * np.pi * np.cos(2 * np.pi * x)


# ---------------------------------------------------------------------------
# digit-stream machinery (exact-in-law orbits for a*x mod 1)
# ---------------------------------------------------------------------------


def digit_window_width(a: int) -> int:
    """Largest W with a**W <= 2**53 (window values stay exact in float64)."""
    if a > 2**53:
        raise ValueError(f"slope a = {a} exceeds 2**53: no digit is exact in float64")
    w = 1
    while a ** (w + 1) <= 2**53:
        w += 1
    return w


def sliding_window_values(digits: np.ndarray, a: int, width: int,
                          out: np.ndarray | None = None) -> np.ndarray:
    """Float values in [0,1) of all base-a windows of `width` digits.

    Works along the last axis and writes into `out` (float64) when given.
    Binary digits are bit-packed: every window is a shift of the big-endian
    64-bit word at its byte, an integer scaled into `out` by 2**-width,
    exactly.  Other bases apply Horner's rule to the bits of `width`, in
    exact int64 arithmetic, and divide by a**width (a multiply by its inverse
    rounds differently).  Either way the window is an exact integer below
    2**53, so no precision is lost and no (n, width) matrix is materialised.
    """
    n = digits.shape[-1]
    if n < width:
        raise ValueError("need at least `width` digits")
    if out is None:
        out = np.empty(digits.shape[:-1] + (n - width + 1,))
    if a == 2:
        np.multiply(_binary_windows(digits, width), 2.0**-width, out=out)
    else:
        np.divide(_int_windows(digits, a, width), float(a**width), out=out)
    return out


def _binary_windows(bits: np.ndarray, width: int) -> np.ndarray:
    """Integer values (uint64) of all windows of `width` <= 57 bits along the last axis.

    Bytes of the packed stream, padded with 7 zero bytes, are read as a
    big-endian 64-bit word at every byte offset j; the window starting at bit
    8j + r is that word shifted left by r, stored at r::8; one pass then
    shifts every window right by 64 - width.
    """
    packed = np.packbits(bits, axis=-1)
    nb = packed.shape[-1]
    padded = np.zeros(packed.shape[:-1] + (nb + 7,), dtype=np.uint8)
    padded[..., :nb] = packed
    words = np.ndarray(packed.shape, dtype=">u8", buffer=padded,
                       strides=padded.strides[:-1] + (1,)).astype(np.uint64)
    m = bits.shape[-1] - width + 1
    out = np.empty(packed.shape[:-1] + (m,), dtype=np.uint64)
    for r in range(min(8, m)):
        np.left_shift(words[..., : (m - r + 7) // 8], np.uint64(r), out=out[..., r::8])
    out >>= np.uint64(64 - width)
    return out


def _int_windows(digits: np.ndarray, a: int, width: int) -> np.ndarray:
    """Integer values (int64) of the n - width + 1 base-a windows along the last
    axis, by Horner's rule on the bits of `width`: the windows of w digits, the
    digits themselves at first, become those of 2w for each bit after the
    leading one, then those of 2w + 1 where the bit is set."""
    digits = np.asarray(digits, dtype=np.int64)
    res, w = digits, 1
    for bit in bin(width)[3:]:
        res = res[..., :-w] * a**w + res[..., w:]
        w *= 2
        if bit == "1":
            res = res[..., :-1] * a + digits[..., w:]
            w += 1
    return res


# ---------------------------------------------------------------------------
# map systems
# ---------------------------------------------------------------------------


class MapSystem:
    """Base class: a concrete system with vectorized stationary orbits.

    A system defines ``_orbit_slices``; grouping, the per-thread workspace
    and the membership loop over the slices are shared.
    ``preserves_lebesgue`` is true when Lebesgue measure is the system's
    stationary law, so a target's closed-form volume is its mu(U).
    """

    dimension: int
    preserves_lebesgue = False
    _group_budget = (40_000_000, 0)  # (points, overlap read per orbit) of a group

    def __init__(self):
        self._local = threading.local()

    def _workspace(self, shape: tuple, dtype, slot: str = "planes") -> np.ndarray:
        """An uninitialised `shape` array on this thread's buffer `slot` (a group's
        planes or slices; the torus x plane's staging), grown to the largest size asked
        for and kept: a buffer freed per group is unmapped and faulted in again."""
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        buf = getattr(self._local, slot, np.empty(0, np.uint8))
        if buf.size < nbytes:
            buf = np.empty(nbytes, np.uint8)
            setattr(self._local, slot, buf)
        return buf[:nbytes].view(dtype).reshape(shape)

    def _orbit_slices(self, master_seed: int, trials: list, n_points: int):
        """Yield ``(j, coords)`` over consecutive time slices of the trials' orbits:
        `coords` holds points j, j+1, ... as a (len(trials), n, dimension) view of
        this thread's workspace, valid until the thread builds its next slice."""
        raise NotImplementedError

    def _counting_windows(self, n_points: int) -> tuple:
        """``(c, stride)``: each orbit yields c counting samples, windows of
        `n_points` points at `stride`, that are independent stationary samples.
        A lattice's windows of one orbit are not, so it gives one an orbit."""
        return 1, n_points

    def orbit_groups(self, trials: list, n_points: int) -> list:
        """`trials` cut into the fewest consecutive groups within `_group_budget`,
        whose orbits are built together, one estimator task each."""
        points, overlap = self._group_budget
        size = max(1, points // (n_points + overlap))
        return [trials[i : i + size] for i in range(0, len(trials), size)]

    def indicator_block(self, target, master_seed: int, trial_indices,
                        n_points: int) -> np.ndarray:
        """Boolean (n_trials, n_points) membership array along stationary
        orbits, one independent RNG stream per trial index and one
        membership call per time slice."""
        out = np.empty((len(trial_indices), n_points), dtype=bool)
        start = 0
        for trials in self.orbit_groups(list(trial_indices), n_points):
            rows = out[start : start + len(trials)]
            start += len(trials)
            for j, coords in self._orbit_slices(master_seed, trials, n_points):
                rows[:, j : j + coords.shape[1]] = target.contains_points(
                    coords.reshape(-1, self.dimension)).reshape(len(trials), -1)
        return out

    def stationary_samples(self, master_seed: int, trial_index: int,
                           n_samples: int) -> np.ndarray:
        """Defined by no system: mu(U) without a closed form is
        ``ClusterStats.mu_hat``.  The name stays while ``bench/tracing.py`` hooks it."""
        raise NotImplementedError


class LinearMod1System(MapSystem):
    """T(x) = a*x mod 1 as a sliding window over the exact digit stream.

    A trial's orbit reads its first n_points + width - 1 base-a digits from
    its own Philox stream ``trial_rng(master_seed, trial)``; orbits are
    built in groups of trials whose digit matrix stays within
    ``_GROUP_DIGITS``, and a group's windows, planes and membership in time
    slices of at most ``_GROUP_DIGITS // len(group) - width + 1`` points a
    trial.  Each trial draws exactly the digits it reads, and a shorter draw
    is a prefix of a longer one, so neither the grouping, the slicing nor
    the orbit length changes a bit of any trial's orbit.
    """

    dimension = 1
    preserves_lebesgue = True

    def __init__(self, a: int):
        super().__init__()
        self.a = LinearInterval(a).a  # the slope rule of the interval maps
        self.width = digit_window_width(self.a)

    _group_budget = property(lambda self: (_GROUP_DIGITS, self.width - 1))

    def _counting_windows(self, n_points):
        # window k reads digits kS .. kS + n_points + width - 2 alone, so windows
        # at stride S = n_points + width - 1 share no digit and are exactly
        # i.i.d.; c depends on n_points alone and fills one group's digits
        stride = n_points + self.width - 1
        return max(1, _GROUP_DIGITS // stride), stride

    def _digits(self, master_seed: int, trials: list, n_digits: int) -> np.ndarray:
        """(len(trials), n_digits) matrix of the trials' first base-a digits.

        For a = 2, ``integers(0, 2)`` returns the top bit of each 32-bit half
        of a raw 64-bit Philox word, low half first (Lemire's bound never
        rejects for a range of 2), so the digits are read off the same raw
        words directly, each trial's compared straight into its boolean row.
        """
        digits = np.empty((len(trials), n_digits), dtype=bool if self.a == 2 else np.int64)
        for row, t in enumerate(trials):
            rng = trial_rng(master_seed, t)
            if self.a != 2:
                digits[row] = rng.integers(0, self.a, size=n_digits, dtype=np.int64)
                continue
            words = rng.bit_generator.random_raw((n_digits + 1) // 2)
            halves = words.astype("<u8", copy=False).view("<u4")
            np.greater_equal(halves[:n_digits], 1 << 31, out=digits[row])
        return digits

    def _orbit_slices(self, master_seed, trials, n_points):
        # the digits of the whole orbits are drawn at once, the windows a slice at
        # a time into the last of `dimension` planes; `coords` is their transposed
        # view, and a subclass fills the planes before the last
        digits = self._digits(master_seed, trials, n_points + self.width - 1)
        step = _GROUP_DIGITS // len(trials) - self.width + 1
        planes = self._workspace((self.dimension, len(trials), min(step, n_points)), float)
        for j in range(0, n_points, step):
            coords = planes[..., : min(step, n_points - j)]
            sliding_window_values(digits[:, j : j + coords.shape[-1] + self.width - 1],
                                  self.a, self.width, out=coords[-1])
            yield j, coords.transpose(1, 2, 0)

    def minimal_period(self, c: float) -> int | None:
        """c's minimal period: the least q with a^q <= 2^26 for which c (a^q - 1)
        lies within (a^q - 1) 2^-53 of an integer (T^q c = c up to the float's
        rounding), or None.  A longer period's cluster ratio a^-q is too small to
        tell from Poisson, and a non-periodic float passes with probability ~2^-25."""
        num, den = float(c).as_integer_ratio()  # exactly c
        q = 1
        while self.a**q <= 2**26:
            r = num * (self.a**q - 1) % den
            if min(r, den - r) << 53 <= (self.a**q - 1) * den:
                return q
            q += 1
        return None


class TorusAffineSystem(LinearMod1System):
    """(x, y) -> (x + y mod 1, a*y mod 1), a skew product over a*y mod 1;
    Lebesgue measure is invariant.

    y is the ``LinearMod1System`` orbit of the same trial, digit for digit; x
    only ever accumulates mod-1 sums and is kept in float64.  The x of one
    orbit links its counting windows, so they are independent only for
    targets of y alone, such as TorusStrip, the torus target load runs.
    """

    dimension = 2

    def _orbit_slices(self, master_seed, trials, n_points):
        # x_0 from the trial's substream 1, then x_n = (x_0 + S_n) mod 1 with
        # S_n = y_0 + ... + y_{n-1} summed sequentially in float64.  A slice's
        # cumsum starts from the S carried over from the slice before, which
        # gives the bits of one cumsum along the whole orbit.  v - floor(v) is
        # bitwise v % 1.0 for every float64 and several times cheaper
        x0 = np.array([[trial_rng(master_seed, t, substream=1).random()] for t in trials])
        s = np.zeros_like(x0)
        for j, coords in super()._orbit_slices(master_seed, trials, n_points):
            x, y = coords.transpose(2, 0, 1)
            # each row's cumsum reads a staged copy: numpy (2.4) holds the GIL
            # through a cumsum in place or along an axis of a 2-D array
            staged = self._workspace(x.shape, float, "x")
            staged[:, :1] = s
            staged[:, 1:] = y[:, :-1]
            for row, out in zip(staged, x):
                np.cumsum(row, out=out)
            np.add(x[:, -1:], y[:, -1:], out=s)
            x += x0
            x -= np.floor(x, out=staged)
            yield j, coords


class CmlSystem(MapSystem):
    """Coupled map lattice of n sites, x_i -> (1-gamma) T(x_i) + gamma sum_j p_j T(x_j),
    with base map T, coupling gamma in [0, 1) and the probability vector p of
    `weights` (uniform when omitted); n is the system's ``dimension``.

    For gamma > 0 Lebesgue measure is not invariant (the coupling contracts
    transversally to the diagonal), so stationary sampling starts uniform and
    burns in.  Orbits are float64.  One site (n = 1) iterates the base map
    itself, so this is also the float64 system of a single interval map.
    """

    def __init__(self, base_map: IntervalMap, n: int, gamma: float, weights=None,
                 burn_in: int = 1024):
        if n < 1:
            raise ValueError("lattice size n must be >= 1")
        if not 0.0 <= gamma < 1.0:  # at 1 every site is equal after one step
            raise ValueError("gamma must lie in [0, 1)")
        if n == 1 and gamma != 0.0:  # it would turn preserves_lebesgue off
            raise ValueError("a one-site lattice has no coupling: gamma must be 0")
        w = np.ones(n) / n if weights is None else np.asarray(weights, dtype=float)
        if w.size != n or np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be a length-n probability vector")
        if burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        super().__init__()
        self.base_map, self.dimension, self.gamma, self.weights = base_map, n, gamma, w
        self.burn_in = int(burn_in)
        # uncoupled copies of a*x mod 1: the product of Lebesgue measures
        self.preserves_lebesgue = gamma == 0.0 and isinstance(base_map, LinearInterval)
        # a float64 orbit that reaches a fixed point, or puts every site bitwise equal
        # (equal sites get equal updates), stays there: every point would be a hit.
        # Probe 16 orbits of trials 2^32 + 1 on at seed 0, which no estimator reads
        _, probe = next(self._orbit_slices(0, range(2**32 + 1, 2**32 + 17), 256))
        last = probe[:, -1]
        if np.any((last == probe[:, -2]).all(1) | (n > 1) & (last == last[:, :1]).all(1)):
            raise ValueError("float64 orbits of this lattice drain: a probe orbit reaches a "
                             "fixed point or puts every site equal")

    def _apply(self, coords: np.ndarray) -> np.ndarray:
        y = self.base_map.apply(coords)
        coupled = y @ self.weights
        return (1.0 - self.gamma) * y + self.gamma * np.expand_dims(coupled, -1)

    def _orbit_slices(self, master_seed, trials, n_points):
        # the trials step in lockstep from uniform starts after the burn-in, in
        # slices of at most _GROUP_DIGITS // len(trials) steps
        x = np.empty((len(trials), self.dimension))
        for row, t in enumerate(trials):
            x[row] = trial_rng(master_seed, t).random(self.dimension)
        for _ in range(self.burn_in):
            x = self._apply(x)
        step = max(1, _GROUP_DIGITS // len(trials))
        for j in range(0, n_points, step):
            part = self._workspace((len(trials), min(step, n_points - j), self.dimension), float)
            for i in range(part.shape[1]):
                if i or j:
                    x = self._apply(x)
                part[:, i] = x
            yield j, part
