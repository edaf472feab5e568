import math

import numpy as np
import pytest

from returnstats.dynamics import (CmlSpec, CmlSystem, LinearInterval,
                                  LinearMod1System, TorusAffineSystem)
from returnstats.targets import (Ball, DiagonalStrip, MeasureEstimate,
                                 TorusStrip, measure)

SEED = 99


def test_ball_membership_interval():
    b = Ball((0.5,), 0.1)
    # the boundary 0.6 is closed
    assert b.contains_points(np.array([[0.45], [0.6], [0.605]])).tolist() \
        == [True, True, False]
    # distance on the interval does not wrap around 1
    assert not Ball((0.01,), 0.05).contains_points(np.array([[0.99], [0.90]])).any()


def test_ball_sup_metric_in_2d():
    b = Ball((0.5, 0.5), 0.1)
    assert b.contains_points(np.array([[0.59, 0.41], [0.59, 0.39]])).tolist() \
        == [True, False]


def test_torus_strip_membership():
    s = TorusStrip(0.05)
    assert s.contains_points(np.array([[0.3, 0.02], [0.3, 0.97], [0.3, 0.5]])).tolist() \
        == [True, True, False]


def test_diagonal_strip_membership():
    d = DiagonalStrip(0.1)
    assert d.contains_points(np.array([[0.5, 0.54, 0.46], [0.5, 0.65, 0.45]])).tolist() \
        == [True, False]


def test_exact_measures():
    assert Ball((0.5,), 0.001).exact_measure(1) == pytest.approx(0.002)
    # clipped at the interval edge
    assert Ball((0.0005,), 0.001).exact_measure(1) == pytest.approx(0.0015)
    assert Ball((0.3, 0.7), 0.01).exact_measure(2) == pytest.approx(4e-4)
    assert TorusStrip(0.05).exact_measure(2) == pytest.approx(0.1)
    assert DiagonalStrip(0.1).exact_measure(1) == 1.0
    assert DiagonalStrip(0.1).exact_measure(2) == pytest.approx(0.19)
    assert DiagonalStrip(0.1).exact_measure(3) is None


def test_target_validation():
    with pytest.raises(ValueError):
        Ball((0.5,), 0.0)
    with pytest.raises(ValueError):
        TorusStrip(0.6)
    with pytest.raises(ValueError):
        DiagonalStrip(1.5)
    with pytest.raises(ValueError):
        MeasureEstimate(1.2, 0.0, 10)


def test_shrinking_targets_are_nested():
    rng = np.random.default_rng(1)
    pts = rng.random((10_000, 2))
    small = Ball((0.3, 0.6), 0.05)
    large = Ball((0.3, 0.6), 0.2)
    in_small = small.contains_points(pts)
    in_large = large.contains_points(pts)
    assert np.all(in_large[in_small])
    s_strip, l_strip = DiagonalStrip(0.05), DiagonalStrip(0.2)
    assert np.all(l_strip.contains_points(pts)[s_strip.contains_points(pts)])


def test_measure_closed_form_for_lebesgue_systems():
    est = measure(TorusStrip(0.01), TorusAffineSystem(2), 1000, (SEED, 0))
    assert est.mean == pytest.approx(0.02) and est.std_error == 0.0
    est = measure(Ball((0.5,), 0.001), LinearMod1System(3), 1000, (SEED, 0))
    assert est.mean == pytest.approx(0.002) and est.std_error == 0.0


def test_measure_monte_carlo_against_closed_form():
    # 3 uncoupled sites with a linear base map are Lebesgue-stationary, but
    # the diagonal strip has no built-in closed form for n=3, forcing the MC
    # path; P(max - min <= nu) for 3 uniforms is 3 nu^2 - 2 nu^3
    spec = CmlSpec(LinearInterval(3), 3, 0.0, np.full(3, 1 / 3))
    system = CmlSystem(spec, burn_in=16)
    nu = 0.3
    truth = 3 * nu**2 - 2 * nu**3
    est = measure(DiagonalStrip(nu), system, 20_000, (SEED, 0))
    assert est.std_error > 0
    assert abs(est.mean - truth) < 5 * math.sqrt(truth * (1 - truth) / 20_000) + 0.005
    assert abs(est.std_error
               - math.sqrt(est.mean * (1 - est.mean) / 20_000)) < 1e-12


def test_measure_mc_path_for_coupled_lattice():
    # gamma > 0: Lebesgue is not invariant, so even a ball must go through MC
    spec = CmlSpec(LinearInterval(2), 2, 0.1, np.array([0.5, 0.5]))
    system = CmlSystem(spec, burn_in=64)
    est = measure(DiagonalStrip(0.05), system, 4000, (SEED, 0))
    assert est.std_error > 0.0
    assert 0.0 < est.mean < 1.0


def test_measure_validation():
    with pytest.raises(ValueError):
        measure(TorusStrip(0.01), TorusAffineSystem(2), 0, (SEED, 0))


# ---------------------------------------------------------------------------
# mod 1 as v - floor(v), and torus-strip membership at its edges
# ---------------------------------------------------------------------------


def _old_circle_dist(u, v):
    """The circle distance as first written, with the % operator."""
    d = np.abs(u - v) % 1.0
    return np.minimum(d, 1.0 - d)


def _edge_values():
    tiny = np.nextafter(0.0, 1.0)
    base = [0.0, -0.0, tiny, -tiny, 1e-300, -1e-300, 1e-17, -1e-17, 0.5, -0.5,
            1.0, -1.0, np.nextafter(1.0, 0.0), -np.nextafter(1.0, 0.0),
            np.nextafter(1.0, 2.0), 3.0, -3.0, 2.0**52 + 0.5, -(2.0**52 + 0.5),
            2.0**53, 2.0**53 + 2, -(2.0**53), 1e300, -1e300,
            np.finfo(float).max, -np.finfo(float).max, np.inf, -np.inf, np.nan]
    rng = np.random.default_rng(7)
    scale = 10.0 ** rng.integers(-20, 20, size=20_000)
    return np.concatenate([base, rng.standard_normal(20_000) * scale,
                           rng.integers(-10**6, 10**6, size=2000).astype(float)])


def test_v_minus_floor_v_is_bitwise_v_mod_1():
    v = _edge_values()
    with np.errstate(invalid="ignore"):
        want = v % 1.0
        got = v - np.floor(v)
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def _membership_edges(rho):
    pts = []
    for p in (0.0, rho, -rho, 1.0 - rho, 1.0, 1.0 + rho, 0.5):
        lo, hi = np.nextafter(p, -np.inf), np.nextafter(p, np.inf)
        pts += [p, lo, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)]
    pts = np.array(pts)
    return np.concatenate([pts, pts - 1.0, pts + 1.0, -pts, pts + 7.0, pts - 7.0,
                           [-0.0, 2.0**53, -(2.0**53), np.inf, -np.inf, np.nan]])


@pytest.mark.parametrize("rho", [2.0**-6, 1e-3, 0.01, 0.25, 0.5])
def test_torus_strip_membership_equals_the_mod_formula_at_its_edges(rho):
    y = _membership_edges(rho)
    pts = np.column_stack([np.full(y.size, 0.3), y])
    with np.errstate(invalid="ignore"):
        want = _old_circle_dist(pts[:, 1], 0.0) <= rho
        got = TorusStrip(rho).contains_points(pts)
    assert want.any() and not want.all()
    np.testing.assert_array_equal(got, want)

