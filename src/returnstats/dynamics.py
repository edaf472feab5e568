"""Concrete dynamical systems and orbit generation.

Built-in systems:

* ``LinearMod1System``    -- T(x) = a*x mod 1 on [0,1), exact-digit backend
* ``TorusAffineSystem``   -- (x, y) -> (x + y, a*y) mod 1 on the 2-torus
* ``CmlSystem``           -- coupled map lattice over a 1-d expanding base map
* ``PiecewiseSystem``     -- generic piecewise-smooth interval map, float64

The exact-digit backend realises a stationary orbit of a*x mod 1 as a
sliding window over an i.i.d. base-a digit stream: x_n is the value of
digits n, n+1, ..., n+W-1, which is exact in law for Lebesgue measure and
immune to the mantissa-draining that makes float64 iteration of the
doubling map hit 0 within 53 steps.  W is the largest width with
a**W <= 2**53 so window values convert to float64 without rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq

from .rngstreams import trial_rng

__all__ = [
    "SingularPointError",
    "IntervalMap",
    "LinearInterval",
    "SinePerturbedInterval",
    "OrbitState",
    "MapSystem",
    "LinearMod1System",
    "TorusAffineSystem",
    "CmlSpec",
    "CmlSystem",
    "PiecewiseSystem",
    "step",
    "orbit_visitor",
    "sample_stationary",
    "derivative_along",
]

_DIGIT_CHUNK = 1 << 14
# digits per orbit group of the exact-digit systems (a working-set budget)
_GROUP_DIGITS = 1 << 16


class SingularPointError(ValueError):
    """A membership or derivative query landed exactly on a branch endpoint."""


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

    def is_breakpoint(self, x: float, atol: float = 0.0) -> bool:
        b = self.breakpoints
        return bool(np.any(np.abs(b - x) <= atol) or x in b)

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
            f_lo = float(self._branch_value(lo, i, left=False))
            f_hi = float(self._branch_value(hi, i, left=True))
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

    def _branch_value(self, x, branch_index, left=False):
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

    def _branch_value(self, x, branch_index, left=False):
        return self.a * x - branch_index


class SinePerturbedInterval(IntervalMap):
    """T(x) = a*x + eps*sin(2 pi x) mod 1; expanding when a - 2 pi |eps| > 1."""

    def __init__(self, a: int, eps: float):
        if int(a) != a or a < 2:
            raise ValueError("slope a must be an integer >= 2")
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

    def _branch_value(self, x, branch_index, left=False):
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


def sliding_window_values(digits: np.ndarray, a: int, width: int) -> np.ndarray:
    """Float values in [0,1) of all base-a windows of `width` digits.

    Works along the last axis; uses log2(width) doubling passes of exact
    int64 arithmetic, so no precision is lost and no (n, width) matrix is
    materialised.  Doubling powers that `width` does not use are dropped as
    soon as the next one is built.
    """
    n = digits.shape[-1]
    if n < width:
        raise ValueError("need at least `width` digits")
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
    m = n - width + 1
    values = res[..., :m].astype(np.float64)
    values /= float(a**width)
    return values


class _DigitSource:
    """Lazily extended i.i.d. base-a digit stream for one trial."""

    def __init__(self, a: int, master_seed: int, trial_index: int):
        self.a = a
        self._rng = trial_rng(master_seed, trial_index)
        self._buf = np.empty(0, dtype=np.int64)
        self.rng_cursor = 0

    def digits(self, n: int) -> np.ndarray:
        if n > self._buf.size:
            grow = max(n - self._buf.size, _DIGIT_CHUNK)
            fresh = self._rng.integers(0, self.a, size=grow, dtype=np.int64)
            self._buf = np.concatenate([self._buf, fresh])
            self.rng_cursor += grow
        return self._buf[:n]

    def value_at(self, pos: int, width: int) -> float:
        d = self.digits(pos + width)
        v = 0
        for i in range(width):
            v = v * self.a + int(d[pos + i])
        return v / float(self.a**width)


# ---------------------------------------------------------------------------
# orbit state and map systems
# ---------------------------------------------------------------------------


@dataclass
class OrbitState:
    """Point of an orbit; exact-digit states carry their digit stream."""

    coords: np.ndarray
    digit_source: _DigitSource | None = None
    digit_pos: int = 0

    def __post_init__(self):
        self.coords = np.atleast_1d(np.asarray(self.coords, dtype=float))
        if np.any(self.coords < 0) or np.any(self.coords >= 1):
            raise ValueError("coordinates must lie in [0, 1)")

    @property
    def rng_cursor(self) -> int:
        return self.digit_source.rng_cursor if self.digit_source is not None else 0


class MapSystem:
    """Base class: a concrete system with stepping and stationary sampling."""

    dimension: int
    backend: str

    # -- scalar interface -------------------------------------------------

    def step(self, state: OrbitState) -> OrbitState:
        raise NotImplementedError

    def sample_stationary(self, master_seed: int, trial_index: int) -> OrbitState:
        raise NotImplementedError

    def branch_derivative(self, state: OrbitState) -> float:
        """|DT| along the expanding direction at the state."""
        raise NotImplementedError

    # -- vectorized interface (estimators) ---------------------------------

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

    def __init__(self, a: int, dimension: int, backend: str = "exact-digit"):
        self.interval_map = LinearInterval(a)
        self.a = self.interval_map.a
        self.dimension = dimension
        self.backend = backend
        self.width = digit_window_width(self.a)

    def branch_derivative(self, state: OrbitState) -> float:
        return float(self.a)

    def _with_windows(self, master_seed: int, trials: list, y: np.ndarray) -> np.ndarray:
        """(g, n_points, dimension) orbit coordinates from the (g, n_points)
        digit-window values of the trials."""
        raise NotImplementedError

    def _orbit_coords(self, master_seed: int, trials, n_points: int) -> np.ndarray:
        """(len(trials), n_points, dimension) coordinates of the trials' orbits."""
        trials = [int(t) for t in trials]
        n_digits = n_points + self.width - 1
        digits = np.empty((len(trials), n_digits), dtype=np.int64)
        for row, t in enumerate(trials):
            digits[row] = trial_rng(master_seed, t).integers(0, self.a, size=n_digits,
                                                             dtype=np.int64)
        y = sliding_window_values(digits, self.a, self.width)
        del digits
        return self._with_windows(master_seed, trials, y)

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
    """T(x) = a*x mod 1; default backend is the exact digit stream."""

    def __init__(self, a: int, backend: str = "exact-digit"):
        if backend not in ("exact-digit", "float64"):
            raise ValueError(f"unsupported backend {backend!r}")
        super().__init__(a, dimension=1, backend=backend)

    def step(self, state: OrbitState) -> OrbitState:
        if state.digit_source is not None:
            pos = state.digit_pos + 1
            x = state.digit_source.value_at(pos, self.width)
            return OrbitState(np.array([x]), state.digit_source, pos)
        return OrbitState((self.a * state.coords) % 1.0)

    def sample_stationary(self, master_seed: int, trial_index: int) -> OrbitState:
        src = _DigitSource(self.a, master_seed, trial_index)
        return OrbitState(np.array([src.value_at(0, self.width)]), src, 0)

    def _with_windows(self, master_seed, trials, y):
        return y[..., None]


class TorusAffineSystem(_DigitOrbitSystem):
    """(x, y) -> (x + y mod 1, a*y mod 1); Lebesgue measure is invariant.

    The expanding y-coordinate uses the exact digit stream; x only ever
    accumulates mod-1 sums and is kept in float64.
    """

    def __init__(self, a: int):
        super().__init__(a, dimension=2)

    def step(self, state: OrbitState) -> OrbitState:
        x, y = state.coords
        if state.digit_source is not None:
            pos = state.digit_pos + 1
            y_new = state.digit_source.value_at(pos, self.width)
            return OrbitState(np.array([(x + y) % 1.0, y_new]), state.digit_source, pos)
        return OrbitState(np.array([(x + y) % 1.0, (self.a * y) % 1.0]))

    def sample_stationary(self, master_seed, trial_index):
        src = _DigitSource(self.a, master_seed, trial_index)
        x0 = float(trial_rng(master_seed, trial_index, substream=1).random())
        y0 = src.value_at(0, self.width)
        return OrbitState(np.array([x0, y0]), src, 0)

    def _with_windows(self, master_seed, trials, y):
        coords = np.empty(y.shape + (2,))
        coords[..., 1] = y
        # x_0 from the trial's substream 1, then x_n = (x_0 + y_0 + ... +
        # y_{n-1}) mod 1 with a sequential float64 cumsum
        x = coords[..., 0]
        x[:, 0] = [trial_rng(master_seed, t, substream=1).random() for t in trials]
        np.cumsum(y[:, :-1], axis=1, out=x[:, 1:])
        x[:, 1:] += x[:, :1]
        x[:, 1:] %= 1.0
        return coords


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
    burns in.  Backend is float64; an optional per-step dither of magnitude
    2**-40 exists for stress tests.
    """

    def __init__(self, spec: CmlSpec, burn_in: int = 1024, dither: bool = False):
        self.spec = spec
        self.dimension = spec.n
        self.backend = "float64+dither" if dither else "float64"
        self.burn_in = int(burn_in)
        self.dither = dither

    def _apply(self, coords: np.ndarray) -> np.ndarray:
        y = self.spec.base_map.apply(coords)
        coupled = y @ self.spec.weights
        return (1.0 - self.spec.gamma) * y + self.spec.gamma * np.expand_dims(coupled, -1)

    def step(self, state: OrbitState) -> OrbitState:
        return OrbitState(self._apply(state.coords))

    def branch_derivative(self, state: OrbitState) -> float:
        # scalar |DT| of the base map at the diagonal projection
        x0 = float(np.mean(state.coords))
        return float(np.abs(self.spec.base_map.derivative(x0)))

    def sample_stationary(self, master_seed, trial_index):
        rng = trial_rng(master_seed, trial_index)
        coords = rng.random(self.spec.n)
        for _ in range(self.burn_in):
            coords = self._apply(coords)
        return OrbitState(coords)

    def _simulate(self, master_seed, trial_indices, n_points, visit):
        """Run a chunk of trials in lockstep; `visit(step_index, coords)` is
        called with the (n_trials, n) coordinate array at every time point."""
        n_tr = len(trial_indices)
        coords = np.empty((n_tr, self.spec.n))
        rngs = []
        for row, t in enumerate(trial_indices):
            rng = trial_rng(master_seed, int(t))
            coords[row] = rng.random(self.spec.n)
            rngs.append(rng)
        for _ in range(self.burn_in):
            coords = self._apply(coords)
            if self.dither:
                coords = self._dithered(coords, rngs)
        visit(0, coords)
        for i in range(1, n_points):
            coords = self._apply(coords)
            if self.dither:
                coords = self._dithered(coords, rngs)
            visit(i, coords)

    def _dithered(self, coords, rngs):
        noise = np.stack([rng.uniform(-1.0, 1.0, size=self.spec.n) for rng in rngs])
        return (coords + noise * 2.0**-40) % 1.0

    def indicator_block(self, target, master_seed, trial_indices, n_points):
        out = np.empty((len(trial_indices), n_points), dtype=bool)

        def visit(i, coords):
            out[:, i] = target.contains_points(coords)

        self._simulate(master_seed, trial_indices, n_points, visit)
        return out

    def stationary_samples(self, master_seed, trial_index, n_samples):
        # decorrelation stride: transverse contraction/expansion mixes in a
        # few steps for uniformly expanding base maps
        stride = 16
        keep = []

        def visit(i, coords):
            if i % stride == 0:
                keep.append(coords[0].copy())

        self._simulate(master_seed, [trial_index], n_samples * stride, visit)
        return np.array(keep[:n_samples])


class PiecewiseSystem(MapSystem):
    """Generic piecewise-smooth interval map, float64 backend.

    Has no built-in invariant measure; stationary sampling requires an
    explicit burn-in count.
    """

    def __init__(self, interval_map: IntervalMap, burn_in: int | None = None):
        self.interval_map = interval_map
        self.dimension = 1
        self.backend = "float64"
        self.burn_in = burn_in

    def step(self, state: OrbitState) -> OrbitState:
        return OrbitState(self.interval_map.apply(state.coords))

    def branch_derivative(self, state: OrbitState) -> float:
        x = float(state.coords[0])
        if self.interval_map.is_breakpoint(x):
            raise SingularPointError(f"{x} is a branch endpoint")
        return float(np.abs(self.interval_map.derivative(x)))

    def sample_stationary(self, master_seed, trial_index):
        if self.burn_in is None:
            raise ValueError("map without built-in invariant measure needs a burn-in count")
        rng = trial_rng(master_seed, trial_index)
        x = rng.random(1)
        for _ in range(self.burn_in):
            x = self.interval_map.apply(x)
        return OrbitState(x)

    def indicator_block(self, target, master_seed, trial_indices, n_points):
        if self.burn_in is None:
            raise ValueError("map without built-in invariant measure needs a burn-in count")
        n_tr = len(trial_indices)
        x = np.empty(n_tr)
        for row, t in enumerate(trial_indices):
            x[row] = trial_rng(master_seed, int(t)).random()
        for _ in range(self.burn_in):
            x = self.interval_map.apply(x)
        out = np.empty((n_tr, n_points), dtype=bool)
        out[:, 0] = target.contains_points(x[:, None])
        for i in range(1, n_points):
            x = self.interval_map.apply(x)
            out[:, i] = target.contains_points(x[:, None])
        return out

    def stationary_samples(self, master_seed, trial_index, n_samples):
        if self.burn_in is None:
            raise ValueError("map without built-in invariant measure needs a burn-in count")
        rng = trial_rng(master_seed, trial_index)
        x = float(rng.random())
        for _ in range(self.burn_in):
            x = float(self.interval_map.apply(x))
        stride = 32
        out = np.empty(n_samples)
        for i in range(n_samples):
            for _ in range(stride):
                x = float(self.interval_map.apply(x))
            out[i] = x
        return out[:, None]


# ---------------------------------------------------------------------------
# module-level operations (thin wrappers over the system methods)
# ---------------------------------------------------------------------------


def step(system: MapSystem, state: OrbitState) -> OrbitState:
    return system.step(state)


def orbit_visitor(system: MapSystem, s0: OrbitState, n_steps: int,
                  visit: Callable[[np.ndarray], None]) -> OrbitState:
    """Invoke `visit` on the coordinates of s0, T(s0), ..., T^n_steps(s0)."""
    if n_steps < 0:
        raise ValueError("n_steps must be non-negative")
    state = s0
    visit(state.coords)
    for _ in range(n_steps):
        state = system.step(state)
        visit(state.coords)
    return state


def sample_stationary(system: MapSystem, seed: tuple[int, int]) -> OrbitState:
    master_seed, trial_index = seed
    return system.sample_stationary(master_seed, trial_index)


def derivative_along(system: MapSystem, x: float, k: int) -> float:
    """|DT^k(x)| of the system's 1-d base map by the chain rule."""
    imap = getattr(system, "interval_map", None)
    if imap is None:
        imap = system.spec.base_map  # CML: derivative of the base map
    prod = 1.0
    xi = float(x)
    for _ in range(k):
        if imap.is_breakpoint(xi):
            raise SingularPointError(f"orbit hit branch endpoint {xi}")
        prod *= float(np.abs(imap.derivative(xi)))
        xi = float(imap.apply(xi))
    return prod
