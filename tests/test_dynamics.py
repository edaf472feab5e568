import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import kstest

from returnstats import dynamics
from returnstats.cml_theory import _derivative_power
from returnstats.dynamics import (CmlSpec, CmlSystem, IntervalMap, LinearInterval,
                                  LinearMod1System, SinePerturbedInterval,
                                  TorusAffineSystem, digit_window_width,
                                  sliding_window_values)
from returnstats.rngstreams import trial_rng
from returnstats.targets import Ball, DiagonalStrip, TorusStrip

SEED = 2024


# ---------------------------------------------------------------------------
# digit backend
# ---------------------------------------------------------------------------


def test_digit_window_width_values():
    assert digit_window_width(2) == 53
    assert digit_window_width(3) == 33
    assert digit_window_width(10) == 15
    for a in (2, 3, 5, 10):
        w = digit_window_width(a)
        assert a**w <= 2**53 < a ** (w + 1)


def _horner_windows(digits, a, width):
    """Window values by Horner's rule along each window, vectorised over the
    window starts: exact int64 sums, divided by a**width once."""
    digits = np.asarray(digits, dtype=np.int64)
    m = digits.shape[-1] - width + 1
    v = np.zeros(digits.shape[:-1] + (m,), dtype=np.int64)
    for k in range(width):
        v = v * a + digits[..., k : k + m]
    return v / float(a**width)


def test_sliding_window_values_against_horner_oracle():
    rng = np.random.default_rng(0)
    for a, width in ((2, 53), (2, 1), (3, 33), (5, 7), (7, 1)):
        digits = rng.integers(0, a, size=200)
        got = sliding_window_values(digits, a, width)
        n = digits.size - width + 1
        want = np.empty(n)
        for i in range(n):
            v = 0
            for d in digits[i : i + width]:
                v = v * a + int(d)
            want[i] = v / float(a**width)
        np.testing.assert_array_equal(got, want)  # must be bit-exact
        np.testing.assert_array_equal(_horner_windows(digits, a, width), want)


@pytest.mark.parametrize("rows", [1, 2, 118])
def test_packed_binary_windows_match_horner_on_groups(rows):
    # digit counts on both sides of multiples of 8, so the last packed byte
    # is full, nearly empty or nearly full; bool and int64 digits alike
    rng = np.random.default_rng(rows)
    for n_digits in (53, 54, 55, 56, 57, 60, 61, 63, 64, 65, 71, 72, 73, 119, 120, 121,
                     553, 1023, 1024, 1025):
        for width in (53, 8, 1):
            digits = rng.integers(0, 2, size=(rows, n_digits))
            want = _horner_windows(digits, 2, width)
            np.testing.assert_array_equal(sliding_window_values(digits, 2, width), want)
            out = np.full(want.shape, np.nan)
            sliding_window_values(digits.astype(bool), 2, width, out=out)
            np.testing.assert_array_equal(out, want)


def test_sliding_window_values_too_few_digits():
    with pytest.raises(ValueError):
        sliding_window_values(np.zeros(5, dtype=np.int64), 2, 10)


# ---------------------------------------------------------------------------
# linear mod-1 system
# ---------------------------------------------------------------------------


def _orbit(system, trials, n_points):
    """(len(trials), n_points, dim) orbits assembled from the system's time
    slices (copied out, since the slices reuse their planes)."""
    return np.concatenate([coords.copy() for _, coords
                           in system._orbit_slices(SEED, trials, n_points)], axis=1)


def test_linear_mod1_vectorized_matches_scalar_stepping():
    # x_i is the base-3 window of digits i..i+W-1 of the trial's stream,
    # evaluated point by point with a Horner loop
    sys3 = LinearMod1System(3)
    vals = _orbit(sys3, [5], 100)[0, :, 0]
    digits = trial_rng(SEED, 5).integers(0, 3, size=100 + sys3.width - 1)
    for i in range(100):
        v = 0
        for d in digits[i : i + sys3.width]:
            v = v * 3 + int(d)
        assert vals[i] == v / float(3**sys3.width)  # bit-exact


def test_linear_mod1_no_mantissa_draining():
    # float64 iteration of the doubling map collapses to 0 in <= 53 steps;
    # the digit backend must not
    sys2 = LinearMod1System(2)
    vals = _orbit(sys2, [1], 500)[0, :, 0]
    assert np.count_nonzero(vals == 0.0) == 0


def test_linear_mod1_stationary_samples_uniform():
    # orbit points width + 1 apart share no digits, hence are independent
    sys2 = LinearMod1System(2)
    pts = _orbit(sys2, [0], 19_999 * (sys2.width + 1) + 1)[0, :: sys2.width + 1, 0]
    assert pts.size == 20_000
    assert kstest(pts, "uniform").pvalue > 1e-4


def test_linear_mod1_trials_are_independent_streams():
    sys2 = LinearMod1System(2)
    a = _orbit(sys2, [0], 100)[0, :, 0]
    b = _orbit(sys2, [1], 100)[0, :, 0]
    c = _orbit(sys2, [0], 100)[0, :, 0]
    np.testing.assert_array_equal(a, c)
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# torus system
# ---------------------------------------------------------------------------


def test_torus_orbit_satisfies_the_recursion():
    sys_t = TorusAffineSystem(2)
    coords = _orbit(sys_t, [3], 5000)[0]
    x, y = coords[:, 0], coords[:, 1]
    # x_{n+1} = x_n + y_n mod 1 (cumsum accumulation rounds slightly
    # differently from sequential addition)
    want = (x[:-1] + y[:-1]) % 1.0
    d = np.abs(x[1:] - want)
    assert np.max(np.minimum(d, 1.0 - d)) < 1e-9
    # y_{n+1} = 2 y_n mod 1 up to the refreshed last digit: the new window
    # drops one digit and appends a fresh one
    assert np.max(np.abs(y[1:] - (2 * y[:-1]) % 1.0)) <= 2.0 ** (1 - sys_t.width)
    # the same for 3x mod 1, where the window values and 3 y_n also round
    # (by a few units of 2^-53)
    sys3 = LinearMod1System(3)
    y = _orbit(sys3, [3], 5000)[0, :, 0]
    assert np.max(np.abs(y[1:] - (3 * y[:-1]) % 1.0)) <= 2 / 3.0**sys3.width + 2.0**-50


def test_torus_initial_point_uniform_in_both_coordinates():
    sys_t = TorusAffineSystem(2)
    pts = _orbit(sys_t, [0], 4999 * (sys_t.width + 1) + 1)[0, :: sys_t.width + 1]
    assert pts.shape == (5000, 2)
    assert kstest(pts[:, 0], "uniform").pvalue > 1e-4
    assert kstest(pts[:, 1], "uniform").pvalue > 1e-4


# ---------------------------------------------------------------------------
# grouped orbit construction against a row-by-row reference
# ---------------------------------------------------------------------------


def _reference_orbit(system, master_seed, trial, n_points):
    """One trial's (n_points, dim) orbit, built alone and without the
    package's window code: digits are the prefix of an ``integers`` draw of
    at least 16384, windows come from Horner's rule, x is (x0 +
    cumsum(y[:-1])) mod 1."""
    n_digits = n_points + system.width - 1
    digits = trial_rng(master_seed, trial).integers(
        0, system.a, size=max(n_digits, 1 << 14), dtype=np.int64)[:n_digits]
    y = _horner_windows(digits, system.a, system.width)
    if system.dimension == 1:
        return y[:, None]
    x = np.empty(n_points)
    x[0] = trial_rng(master_seed, trial, substream=1).random()
    x[1:] = (x[0] + np.cumsum(y[:-1])) % 1.0
    return np.column_stack([x, y])


def test_binary_digits_from_raw_words_equal_integers():
    # integers(0, 2) reads the top bit of each 32-bit half of a raw Philox
    # word, low half first; the raw-word path must give the same digits
    system = LinearMod1System(2)
    for n in list(range(1, 301)) + [200_000 + 52]:
        trial = n % 7
        want = trial_rng(SEED, trial).integers(0, 2, size=n, dtype=np.int64)
        got = system._digits(SEED, [trial], n)
        assert got.shape == (1, n)
        np.testing.assert_array_equal(got[0], want)
    # a group of trials: one row per trial, in the given order
    trials = [4, 0, 4, 9]
    got = system._digits(SEED, trials, 77)
    for row, t in zip(got, trials):
        np.testing.assert_array_equal(
            row, trial_rng(SEED, t).integers(0, 2, size=77, dtype=np.int64))


def test_orbit_coords_are_a_view_of_contiguous_planes():
    system = TorusAffineSystem(2)
    ((j, coords),) = system._orbit_slices(SEED, [1, 2, 3], 400)
    assert j == 0 and coords.shape == (3, 400, 2)
    flat = coords.reshape(-1, 2)
    assert np.shares_memory(flat, coords)          # no copy
    assert flat[:, 1].flags.c_contiguous and flat[:, 0].flags.c_contiguous
    # a long orbit: one trial's slices, each a contiguous view of the planes
    n = 2 * dynamics._GROUP_DIGITS
    starts = []
    for j, coords in system._orbit_slices(SEED, [4], n):
        starts.append(j)
        flat = coords.reshape(-1, 2)
        assert np.shares_memory(flat, coords)
        assert flat[:, 1].flags.c_contiguous and flat[:, 0].flags.c_contiguous
    step = dynamics._GROUP_DIGITS - system.width + 1
    assert starts == list(range(0, n, step))


@pytest.mark.parametrize("a", [2, 3, 10])
def test_exact_length_digit_draw_is_prefix_of_chunk_draw(a):
    chunk = trial_rng(SEED, 4).integers(0, a, size=1 << 14, dtype=np.int64)
    for n in (1, 553, 1001, (1 << 14) - 1):
        exact = trial_rng(SEED, 4).integers(0, a, size=n, dtype=np.int64)
        np.testing.assert_array_equal(exact, chunk[:n])


# x - y mod 1 is constant along an a=2 torus orbit; the ball [0.2, 0.8]^2
# meets every such line, so every trial list below has hits, and it reads
# the x plane, which the strip does not
SYSTEMS_AND_TARGETS = [
    (TorusAffineSystem(2), TorusStrip(0.01)),
    (TorusAffineSystem(2), Ball((0.5, 0.5), 0.3)),
    (LinearMod1System(2), Ball((0.37,), 0.01)),
    (LinearMod1System(3), Ball((0.37,), 0.01)),
    (LinearMod1System(10), Ball((0.37,), 0.01)),
]


@pytest.mark.parametrize("system,target", SYSTEMS_AND_TARGETS,
                         ids=["torus-strip", "torus-ball", "a2-ball", "a3-ball", "a10-ball"])
def test_indicator_block_matches_row_by_row_reference(system, target):
    n_points = 501
    group = dynamics._GROUP_DIGITS // (n_points + system.width - 1)
    several_groups = list(range(7, 7 + 2 * group + 3))
    long_orbit = dynamics._GROUP_DIGITS + 100
    for trials, n in (([9, 2, 5, 2], n_points), (several_groups, n_points),
                      ([3, 1], long_orbit)):
        block = system.indicator_block(target, SEED, trials, n)
        assert block.shape == (len(trials), n)
        assert block.any()
        for row, t in zip(block, trials):
            want = target.contains_points(_reference_orbit(system, SEED, t, n))
            np.testing.assert_array_equal(row, want)


# the a = 2 torus with a ball (which reads the carried x plane) and the
# int64 digit path of a = 3 and 10, with balls wide enough to be hit in a
# few hundred points
SLICED_SYSTEMS_AND_TARGETS = [
    (TorusAffineSystem(2), Ball((0.5, 0.5), 0.3)),
    (LinearMod1System(3), Ball((0.37,), 0.2)),
    (LinearMod1System(10), Ball((0.37,), 0.2)),
]


@pytest.mark.parametrize("system,target", SLICED_SYSTEMS_AND_TARGETS,
                         ids=["torus-ball", "a3-ball", "a10-ball"])
def test_time_slices_match_row_by_row_reference(system, target, monkeypatch):
    # a small budget puts slice ends a few windows apart
    monkeypatch.setattr(dynamics, "_GROUP_DIGITS", 3 * system.width + 17)
    step = dynamics._GROUP_DIGITS - system.width + 1
    for n in (step - 1, step, step + 1, 2 * step + 1):
        starts = [j for j, _ in system._orbit_slices(SEED, [5], n)]
        assert starts == list(range(0, n, step))
        block = system.indicator_block(target, SEED, [5, 8], n)
        assert block.any()
        for row, t in zip(block, (5, 8)):
            want = _reference_orbit(system, SEED, t, n)
            np.testing.assert_array_equal(_orbit(system, [t], n)[0], want)
            np.testing.assert_array_equal(row, target.contains_points(want))


def test_long_orbit_memory_is_bounded_by_the_slices():
    # a 2e6-point torus orbit draws its 2e6 digits at once (8 MiB of raw
    # words, then 2 MiB of bits) and builds its planes and membership one
    # slice at a time; planes of the whole orbit would take about 67 MiB
    system, target = TorusAffineSystem(2), TorusStrip(1e-3)
    tracemalloc.start()
    try:
        system.indicator_block(target, SEED, [0], 2 * 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 22 * 2**20


def _lattice_orbit(system, master_seed, trial, n_points):
    """One trial's (n_points, n) lattice orbit, stepped alone through
    ``_apply`` from its uniform start."""
    x = trial_rng(master_seed, trial).random(system.spec.n)
    for _ in range(system.burn_in):
        x = system._apply(x)
    orbit = [x]
    for _ in range(n_points - 1):
        x = system._apply(x)
        orbit.append(x)
    return np.array(orbit)


COUPLED_PAIR = CmlSystem(CmlSpec(LinearInterval(2), 2, 0.1, [0.5, 0.5]), burn_in=64)
SINE_SITE = CmlSystem(CmlSpec(SinePerturbedInterval(2, 0.1), 1, 0.0, [1.0]), burn_in=64)


def test_lattice_slices_match_the_orbits_stepped_alone():
    # 5000 trials are one group in 13-step slices, so 60 points cross four
    # slice ends; one trial of a one-site lattice is a 65 536-step slice and
    # a part of one
    trials = list(range(5000))
    slices = [j for j, _ in COUPLED_PAIR._orbit_slices(SEED, trials, 60)]
    assert slices == [0, 13, 26, 39, 52]
    orbits = _orbit(COUPLED_PAIR, trials, 60)
    target = DiagonalStrip(0.05)
    block = COUPLED_PAIR.indicator_block(target, SEED, trials, 60)
    assert block.any()
    for t in trials[::97] + trials[-3:]:
        want = _lattice_orbit(COUPLED_PAIR, SEED, t, 60)
        np.testing.assert_array_equal(orbits[t], want)
        np.testing.assert_array_equal(block[t], target.contains_points(want))
    n = dynamics._GROUP_DIGITS + 1001
    np.testing.assert_array_equal(_orbit(SINE_SITE, [3], n)[0],
                                  _lattice_orbit(SINE_SITE, SEED, 3, n))


def test_lattice_membership_is_one_call_per_slice(monkeypatch):
    # 1000 trials are one group in 65-step slices: 200 points take 4 calls
    # where a call a step took 200
    calls = []
    contains = DiagonalStrip.contains_points
    monkeypatch.setattr(DiagonalStrip, "contains_points",
                        lambda self, pts: calls.append(pts.shape) or contains(self, pts))
    COUPLED_PAIR.indicator_block(DiagonalStrip(0.05), SEED, range(1000), 200)
    assert calls == [(65_000, 2)] * 3 + [(5000, 2)]


def test_only_the_base_class_groups_buffers_and_loops():
    # every system yields time slices; grouping, the workspace and the
    # membership loop are written once, on MapSystem
    systems = [c for c in vars(dynamics).values()
               if isinstance(c, type) and issubclass(c, dynamics.MapSystem)]
    assert {CmlSystem, LinearMod1System, TorusAffineSystem} < set(systems)
    for cls in systems:
        if cls is not dynamics.MapSystem:
            assert not {"indicator_block", "orbit_groups", "_workspace"} & set(vars(cls))


# ---------------------------------------------------------------------------
# interval maps
# ---------------------------------------------------------------------------


def test_linear_interval_branch_grid():
    lin = LinearInterval(2)
    np.testing.assert_allclose(lin.branch_points_of_power(3), np.arange(9) / 8)
    # the lift's bisection rule gives the closed-form grid bit for bit at a = 2
    for k in range(1, 9):
        np.testing.assert_array_equal(IntervalMap.branch_points_of_power(lin, k),
                                      np.arange(2**k + 1) / 2**k)
    with pytest.raises(ValueError):
        LinearInterval(1)


def test_sine_perturbed_breakpoints_solve_the_lift():
    imap = SinePerturbedInterval(3, 0.05)
    lift = lambda x: 3 * x + 0.05 * math.sin(2 * math.pi * x)
    for j, b in enumerate(imap.breakpoints[1:-1], start=1):
        assert abs(lift(float(b)) - j) < 1e-12
    with pytest.raises(ValueError):
        SinePerturbedInterval(2, 0.2)  # 2*pi*0.2 > a - 1


@pytest.mark.parametrize("a", [2, 3])
@pytest.mark.parametrize("eps", [0.0, -0.0])
def test_sine_perturbation_zero_is_refused(a, eps):
    # with eps 0 the map is a*x mod 1: LinearInterval, which alone gets the
    # exact mu(U) and predict's law
    with pytest.raises(ValueError, match="LinearInterval"):
        SinePerturbedInterval(a, eps)


def _lift_power(a, eps, x, k):
    """The k-fold lift of a*x + eps*sin(2 pi x) at a scalar x."""
    for _ in range(k):
        whole = math.floor(x)
        x = a * whole + a * (x - whole) + eps * math.sin(2 * math.pi * (x - whole))
    return x


def test_sine_perturbed_branch_points_of_power():
    x = np.linspace(0, 1, 1001)[:-1]
    for a, eps in ((2, 0.05), (3, 0.05)):
        imap = SinePerturbedInterval(a, eps)
        # the map is its lift mod 1
        np.testing.assert_array_equal(imap.apply(x),
                                      (a * x + eps * np.sin(2 * np.pi * x)) % 1.0)
        for k in range(1, 6):
            pts = imap.branch_points_of_power(k)
            # T^k has a^k branches, and the k-fold lift crosses the integer j
            # at the j-th interior point
            assert pts.size == a**k + 1 and pts[0] == 0.0 and pts[-1] == 1.0
            assert np.all(np.diff(pts) > 0)
            for j, p in enumerate(pts[1:-1], start=1):
                assert abs(_lift_power(a, eps, float(p), k) - j) < 1e-12
                root = brentq(lambda y: _lift_power(a, eps, y, k) - j, 0.0, 1.0, xtol=1e-15)
                assert abs(p - root) < 1e-14, (a, k, j)


def test_derivative_along_linear_is_exact():
    assert _derivative_power(LinearInterval(3), 0.123, 5) == 3.0**5


def test_derivative_along_matches_finite_differences():
    imap = SinePerturbedInterval(3, 0.05)
    x, k, h = 0.1234, 3, 1e-7

    def tk(x0):
        for _ in range(k):
            x0 = float(imap.apply(x0))
        return x0

    numeric = abs(tk(x + h) - tk(x - h)) / (2 * h)
    assert abs(_derivative_power(imap, x, k) - numeric) / numeric < 1e-4


# ---------------------------------------------------------------------------
# coupled map lattice
# ---------------------------------------------------------------------------


def test_cml_single_step_hand_value():
    spec = CmlSpec(LinearInterval(2), 2, 0.25, np.array([0.5, 0.5]))
    system = CmlSystem(spec)
    got = system._apply(np.array([0.3, 0.4]))
    # T(0.3)=0.6, T(0.4)=0.8; mean=0.7
    want = np.array([0.75 * 0.6 + 0.25 * 0.7, 0.75 * 0.8 + 0.25 * 0.7])
    np.testing.assert_allclose(got, want, atol=1e-15)


def test_cml_diagonal_is_invariant():
    spec = CmlSpec(LinearInterval(2), 3, 0.5, np.array([0.25, 0.25, 0.5]))
    system = CmlSystem(spec)
    x = np.array([0.3, 0.3, 0.3])
    for _ in range(10):
        x = system._apply(x)
        assert np.max(x) - np.min(x) < 1e-14


def test_cml_spec_validation():
    with pytest.raises(ValueError):
        CmlSpec(LinearInterval(2), 2, 1.5, np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        CmlSpec(LinearInterval(2), 2, 0.1, np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        CmlSpec(LinearInterval(2), 0, 0.1, np.array([]))
    # one site has no coupling, and gamma > 0 would turn preserves_lebesgue off
    with pytest.raises(ValueError, match="one-site lattice has no coupling"):
        CmlSpec(LinearInterval(2), 1, 0.1, np.array([1.0]))


def test_cml_indicator_block_deterministic_and_trialwise():
    # each lockstep row is the trial's orbit stepped alone, bit for bit
    trials = [4, 0, 9, 4, 2]
    for base_map in (LinearInterval(2), SinePerturbedInterval(2, 0.1)):
        system = CmlSystem(CmlSpec(base_map, 2, 0.1, [0.5, 0.5]), burn_in=64)
        orbits = [_lattice_orbit(system, SEED, t, 2000) for t in trials]
        for target in (DiagonalStrip(0.05), Ball((0.3, 0.7), 0.2)):
            block = system.indicator_block(target, SEED, trials, 2000)
            assert block.any()
            for row, orbit in zip(block, orbits):
                np.testing.assert_array_equal(row, target.contains_points(orbit))


def _interval_map_block(imap, burn_in, target, master_seed, trials, n_points):
    """Membership rows of one interval map iterated in float64 on a vector
    of trials: the reference loop for a one-site lattice."""
    x = np.empty(len(trials))
    for row, t in enumerate(trials):
        x[row] = trial_rng(master_seed, int(t)).random()
    for _ in range(burn_in):
        x = imap.apply(x)
    out = np.empty((len(trials), n_points), dtype=bool)
    out[:, 0] = target.contains_points(x[:, None])
    for i in range(1, n_points):
        x = imap.apply(x)
        out[:, i] = target.contains_points(x[:, None])
    return out


@pytest.mark.parametrize("imap", [SinePerturbedInterval(2, 0.1),
                                  SinePerturbedInterval(3, 0.05), LinearInterval(3)],
                         ids=["sine-a2", "sine-a3", "linear-a3"])
def test_one_site_lattice_is_the_interval_map(imap):
    system = CmlSystem(CmlSpec(imap, 1, 0.0, [1.0]), burn_in=100)
    target = Ball((0.3,), 0.01)
    trials = list(range(16))
    block = system.indicator_block(target, SEED, trials, 5000)
    assert block.any()
    np.testing.assert_array_equal(
        block, _interval_map_block(imap, 100, target, SEED, trials, 5000))


def test_cml_rejects_a_negative_burn_in_and_draining_orbits():
    spec = CmlSpec(SinePerturbedInterval(3, 0.05), 1, 0.0, [1.0])
    with pytest.raises(ValueError, match="burn_in must be >= 0"):
        CmlSystem(spec, burn_in=-1)
    assert CmlSystem(spec, burn_in=0).burn_in == 0
    # an even a shifts the float64 mantissa out: 6x mod 1 reaches 0 at step 53,
    # and a diagonal strip on it read alpha_hat = 1 at every k
    for a, n in ((2, 2), (4, 1), (6, 2), (8, 3)):
        with pytest.raises(ValueError, match="drain: a probe orbit reaches a fixed point"):
            CmlSystem(CmlSpec(LinearInterval(a), n, 0.0, np.full(n, 1 / n)))
    for a, gamma in ((3, 0.0), (2, 0.1)):
        CmlSystem(CmlSpec(LinearInterval(a), 2, gamma, [0.5, 0.5]))


# (a, n, gamma, weights) of lattices whose float64 orbits reach an absorbing
# state: uncoupled even slopes drain to 0, the coupled power-of-two lattices to
# (0, 0), and synchronising ones ((1 - gamma) a < 1, or a site that drives the
# other) put every site bitwise equal
DRAINING = [(2, 1, 0.0, [1.0]), (4, 2, 0.0, [0.5, 0.5]), (6, 1, 0.0, [1.0]),
            (8, 2, 0.0, [0.5, 0.5]), (10, 3, 0.0, [1 / 3] * 3), (16, 2, 0.0, [0.5, 0.5]),
            (4, 2, 0.5, [0.5, 0.5]), (8, 2, 0.25, [0.5, 0.5]), (8, 2, 0.5, [0.5, 0.5]),
            (8, 2, 0.75, [0.5, 0.5]), (2, 2, 0.75, [0.5, 0.5]), (3, 2, 0.75, [0.5, 0.5]),
            (3, 2, 0.9, [1.0, 0.0])]
LOADING = [(LinearInterval(a), 2, gamma) for a, gamma in
           ((2, 0.1), (3, 0.5), (4, 0.25), (4, 0.75), (6, 0.1), (3, 0.0), (5, 0.0))]
LOADING += [(imap, n, gamma) for imap in (SinePerturbedInterval(2, 0.1),
                                          SinePerturbedInterval(3, 0.05))
            for n, gamma in ((1, 0.0), (2, 0.1))]


@pytest.mark.parametrize("burn_in", [0, 1024])
@pytest.mark.parametrize("a, n, gamma, weights", DRAINING)
def test_cml_refuses_a_lattice_whose_probe_orbits_drain(a, n, gamma, weights, burn_in):
    with pytest.raises(ValueError, match="float64 orbits of this lattice drain"):
        CmlSystem(CmlSpec(LinearInterval(a), n, gamma, weights), burn_in=burn_in)


@pytest.mark.parametrize("burn_in", [0, 1024])
@pytest.mark.parametrize("base_map, n, gamma", LOADING)
def test_cml_loads_a_lattice_whose_probe_orbits_do_not_drain(base_map, n, gamma, burn_in):
    assert CmlSystem(CmlSpec(base_map, n, gamma, np.full(n, 1 / n)), burn_in).burn_in == burn_in
