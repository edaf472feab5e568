import math

import numpy as np
import pytest
from scipy.stats import kstest

from returnstats import dynamics
from returnstats.dynamics import (CmlSpec, CmlSystem, LinearInterval,
                                  LinearMod1System, OrbitState,
                                  PiecewiseSystem, SingularPointError,
                                  SinePerturbedInterval, TorusAffineSystem,
                                  derivative_along, digit_window_width,
                                  orbit_visitor, sample_stationary,
                                  sliding_window_values, step)
from returnstats.rngstreams import trial_rng
from returnstats.targets import Ball, TorusStrip

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


def test_sliding_window_values_against_horner_oracle():
    rng = np.random.default_rng(0)
    for a, width in ((2, 53), (3, 33), (5, 7), (7, 1)):
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


def test_sliding_window_values_too_few_digits():
    with pytest.raises(ValueError):
        sliding_window_values(np.zeros(5, dtype=np.int64), 2, 10)


# ---------------------------------------------------------------------------
# linear mod-1 system
# ---------------------------------------------------------------------------


def test_linear_mod1_step_tracks_multiplication():
    sys2 = LinearMod1System(2)
    state = sample_stationary(sys2, (SEED, 0))
    for _ in range(50):
        nxt = step(sys2, state)
        # the new window drops one digit and appends a fresh one, so it can
        # differ from exact multiplication only in the last digit slot
        want = (2 * state.coords[0]) % 1.0
        assert abs(nxt.coords[0] - want) <= 2.0 ** (1 - sys2.width)
        state = nxt


def test_linear_mod1_vectorized_matches_scalar_stepping():
    sys3 = LinearMod1System(3)
    vals = sys3._orbit_coords(SEED, [5], 100)[0, :, 0]
    state = sample_stationary(sys3, (SEED, 5))
    for i in range(100):
        assert state.coords[0] == vals[i]  # bit-exact
        state = step(sys3, state)


def test_linear_mod1_no_mantissa_draining():
    # float64 iteration of the doubling map collapses to 0 in <= 53 steps;
    # the digit backend must not
    sys2 = LinearMod1System(2)
    vals = sys2._orbit_coords(SEED, [1], 500)[0, :, 0]
    assert np.count_nonzero(vals == 0.0) == 0


def test_linear_mod1_stationary_samples_uniform():
    sys2 = LinearMod1System(2)
    pts = sys2.stationary_samples(SEED, 0, 20_000)[:, 0]
    assert kstest(pts, "uniform").pvalue > 1e-4


def test_linear_mod1_trials_are_independent_streams():
    sys2 = LinearMod1System(2)
    a = sys2._orbit_coords(SEED, [0], 100)[0, :, 0]
    b = sys2._orbit_coords(SEED, [1], 100)[0, :, 0]
    c = sys2._orbit_coords(SEED, [0], 100)[0, :, 0]
    np.testing.assert_array_equal(a, c)
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# torus system
# ---------------------------------------------------------------------------


def test_torus_orbit_satisfies_the_recursion():
    sys_t = TorusAffineSystem(2)
    coords = sys_t._orbit_coords(SEED, [3], 5000)[0]
    x, y = coords[:, 0], coords[:, 1]
    # x_{n+1} = x_n + y_n mod 1 (cumsum accumulation rounds slightly
    # differently from sequential addition)
    want = (x[:-1] + y[:-1]) % 1.0
    d = np.abs(x[1:] - want)
    assert np.max(np.minimum(d, 1.0 - d)) < 1e-9
    # y_{n+1} = 2 y_n mod 1 up to the refreshed last digit
    assert np.max(np.abs(y[1:] - (2 * y[:-1]) % 1.0)) <= 2.0 ** (1 - sys_t.width)


def test_torus_scalar_step_matches_vectorized_orbit():
    sys_t = TorusAffineSystem(2)
    coords = sys_t._orbit_coords(SEED, [9], 50)[0]
    state = sample_stationary(sys_t, (SEED, 9))
    for i in range(50):
        assert state.coords[1] == coords[i, 1]          # y bit-exact
        d = abs(state.coords[0] - coords[i, 0])
        assert min(d, 1.0 - d) < 1e-9                    # x within rounding
        state = step(sys_t, state)


def test_torus_initial_point_uniform_in_both_coordinates():
    sys_t = TorusAffineSystem(2)
    pts = sys_t.stationary_samples(SEED, 0, 5000)
    assert kstest(pts[:, 0], "uniform").pvalue > 1e-4
    assert kstest(pts[:, 1], "uniform").pvalue > 1e-4


# ---------------------------------------------------------------------------
# grouped orbit construction against a row-by-row reference
# ---------------------------------------------------------------------------


def _reference_orbit(system, master_seed, trial, n_points):
    """One trial's (n_points, dim) orbit, built alone: digits are the prefix
    of a draw of at least 16384, x is (x0 + cumsum(y[:-1])) mod 1."""
    n_digits = n_points + system.width - 1
    digits = trial_rng(master_seed, trial).integers(
        0, system.a, size=max(n_digits, 1 << 14), dtype=np.int64)[:n_digits]
    y = sliding_window_values(digits, system.a, system.width)
    if system.dimension == 1:
        return y[:, None]
    x = np.empty(n_points)
    x[0] = trial_rng(master_seed, trial, substream=1).random()
    x[1:] = (x[0] + np.cumsum(y[:-1])) % 1.0
    return np.column_stack([x, y])


@pytest.mark.parametrize("a", [2, 3, 10])
def test_exact_length_digit_draw_is_prefix_of_chunk_draw(a):
    chunk = trial_rng(SEED, 4).integers(0, a, size=1 << 14, dtype=np.int64)
    for n in (1, 553, 1001, (1 << 14) - 1):
        exact = trial_rng(SEED, 4).integers(0, a, size=n, dtype=np.int64)
        np.testing.assert_array_equal(exact, chunk[:n])


# x - y mod 1 is constant along an a=2 torus orbit; a periodic ball of
# radius 1/4 meets every such line, so every trial list below has hits
SYSTEMS_AND_TARGETS = [
    (TorusAffineSystem(2), TorusStrip(0.01)),
    (TorusAffineSystem(2), Ball((0.97, 0.55), 0.25, periodic=True)),
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


@pytest.mark.parametrize("system", [TorusAffineSystem(2), LinearMod1System(3)],
                         ids=["torus", "a3"])
def test_stationary_samples_are_strided_reference_orbit_points(system):
    stride = system.width + 1
    pts = system.stationary_samples(SEED, 6, 300)
    want = _reference_orbit(system, SEED, 6, 300 * stride)[::stride]
    assert pts.shape == (300, system.dimension)
    np.testing.assert_array_equal(pts, want)


# ---------------------------------------------------------------------------
# interval maps
# ---------------------------------------------------------------------------


def test_linear_interval_branch_grid():
    lin = LinearInterval(2)
    np.testing.assert_allclose(lin.branch_points_of_power(3), np.arange(9) / 8)
    with pytest.raises(ValueError):
        LinearInterval(1)


def test_sine_perturbed_breakpoints_solve_the_lift():
    imap = SinePerturbedInterval(3, 0.05)
    lift = lambda x: 3 * x + 0.05 * math.sin(2 * math.pi * x)
    for j, b in enumerate(imap.breakpoints[1:-1], start=1):
        assert abs(lift(float(b)) - j) < 1e-12
    with pytest.raises(ValueError):
        SinePerturbedInterval(2, 0.2)  # 2*pi*0.2 > a - 1


def test_sine_perturbed_branch_points_of_power():
    imap = SinePerturbedInterval(2, 0.05)
    pts = imap.branch_points_of_power(2)
    # T^2 has 4 branches: every interior branch point maps to a branch point
    # of T (or is one itself)
    assert pts.size == 5
    inner = pts[1:-1]
    images = imap.apply(inner)
    for x, y in zip(inner, images):
        on_level1 = np.min(np.abs(imap.breakpoints - x)) < 1e-9
        maps_to_bp = np.min(np.minimum(np.abs(imap.breakpoints - y),
                                       1 - np.abs(imap.breakpoints - y))) < 1e-9
        assert on_level1 or maps_to_bp


def test_derivative_along_linear_is_exact():
    sys3 = LinearMod1System(3)
    assert derivative_along(sys3, 0.123, 5) == 3.0**5


def test_derivative_along_matches_finite_differences():
    imap = SinePerturbedInterval(3, 0.05)
    system = PiecewiseSystem(imap, burn_in=16)
    x, k, h = 0.1234, 3, 1e-7

    def tk(x0):
        for _ in range(k):
            x0 = float(imap.apply(x0))
        return x0

    numeric = abs(tk(x + h) - tk(x - h)) / (2 * h)
    assert abs(derivative_along(system, x, k) - numeric) / numeric < 1e-4


def test_derivative_along_singular_point():
    sys2 = LinearMod1System(2)
    with pytest.raises(SingularPointError):
        derivative_along(sys2, 0.5, 2)


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


def test_cml_indicator_block_deterministic_and_trialwise():
    spec = CmlSpec(LinearInterval(3), 2, 0.1, np.array([0.5, 0.5]))
    system = CmlSystem(spec, burn_in=32)
    from returnstats.targets import DiagonalStrip

    target = DiagonalStrip(0.2)
    a = system.indicator_block(target, SEED, [0, 1, 2], 500)
    b = system.indicator_block(target, SEED, [1], 500)
    np.testing.assert_array_equal(a[1], b[0])


def test_cml_dither_stays_in_unit_cube():
    spec = CmlSpec(LinearInterval(3), 2, 0.1, np.array([0.5, 0.5]))
    system = CmlSystem(spec, burn_in=8, dither=True)
    pts = system.stationary_samples(SEED, 0, 200)
    assert np.all((pts >= 0) & (pts < 1))


# ---------------------------------------------------------------------------
# generic pieces
# ---------------------------------------------------------------------------


def test_piecewise_requires_burn_in():
    system = PiecewiseSystem(SinePerturbedInterval(3, 0.05))
    with pytest.raises(ValueError):
        system.sample_stationary(SEED, 0)
    with pytest.raises(ValueError):
        system.indicator_block(None, SEED, [0], 10)


def test_orbit_state_validation():
    with pytest.raises(ValueError):
        OrbitState(np.array([1.5]))
    with pytest.raises(ValueError):
        OrbitState(np.array([-0.1]))


def test_orbit_visitor_counts_points():
    sys2 = LinearMod1System(2)
    seen = []
    orbit_visitor(sys2, sample_stationary(sys2, (SEED, 0)), 10,
                  lambda c: seen.append(c[0]))
    assert len(seen) == 11
    vals = sys2._orbit_coords(SEED, [0], 11)[0, :, 0]
    np.testing.assert_array_equal(np.asarray(seen), vals)
