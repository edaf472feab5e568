import math

import numpy as np
import pytest

from returnstats.config import PAIRS, ExperimentConfig
from returnstats.dynamics import (CmlSpec, CmlSystem, LinearInterval,
                                  LinearMod1System, SinePerturbedInterval,
                                  TorusAffineSystem)
from returnstats.estimators import cluster_statistics
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
    assert DiagonalStrip(0.1).exact_measure(3) == pytest.approx(3 * 0.1**2 - 2 * 0.1**3)


@pytest.mark.parametrize("n", [1, 2])
def test_diagonal_strip_measure_is_bitwise_the_one_and_two_site_forms(n):
    # the general form must not move the bits of the configs that ran before it
    nu = np.random.default_rng(n).uniform(1e-6, 1.0 - 1e-6, size=10_000).tolist()
    got = [DiagonalStrip(v).exact_measure(n) for v in nu]
    want = [1.0 if n == 1 else 2 * v - v**2 for v in nu]
    assert got == want


@pytest.mark.parametrize("n, nu", [(3, 0.3), (4, 0.3), (4, 0.1)])
def test_diagonal_strip_measure_against_uniform_monte_carlo(n, nu):
    # the range of n uniforms is at most nu with probability n nu^(n-1) - (n-1) nu^n
    samples = 400_000
    pts = np.random.default_rng(SEED + n).random((samples, n))
    hit = np.count_nonzero(DiagonalStrip(nu).contains_points(pts)) / samples
    exact = DiagonalStrip(nu).exact_measure(n)
    assert abs(hit - exact) < 5 * math.sqrt(exact * (1 - exact) / samples)


# every Lebesgue-preserving system a config can build: the cml lattice is
# uncoupled copies of 3x mod 1
LEBESGUE_SYSTEMS = ([{"kind": "torus", "a": 2}, {"kind": "linear_mod1", "a": 3}]
                    + [{"kind": "cml", "a": 3, "gamma": 0.0, "n": n} for n in (1, 2, 3, 4)])


def _closed_forms(kind, dim):
    rho, nu = 0.01, 0.05
    return {"torus_strip": (rho, 2 * rho), "ball": (rho, (2 * rho) ** dim),
            "diagonal_strip": (nu, dim * nu ** (dim - 1) - (dim - 1) * nu**dim)}[kind]


def test_measure_is_the_closed_form_on_every_lebesgue_system():
    assert {s["kind"] for s in LEBESGUE_SYSTEMS} == set(PAIRS) - {"regenerative"}
    for system_raw in LEBESGUE_SYSTEMS:
        dim = system_raw.get("n", 2 if system_raw["kind"] == "torus" else 1)
        for kind in PAIRS[system_raw["kind"]]:
            if dim == 1 and kind == "diagonal_strip":
                continue  # the whole interval, refused at load (see test_exact_measures)
            scale, want = _closed_forms(kind, dim)
            target = {"kind": kind, "center": [0.5] * dim} if kind == "ball" else {"kind": kind}
            cfg = ExperimentConfig.from_dict({
                "system": system_raw, "target": target,
                "schedule": [{"rho" if kind != "diagonal_strip" else "nu": scale}]})
            system = cfg.build_system()
            assert system.preserves_lebesgue and system.dimension == dim
            est = measure(cfg.build_target(cfg.schedule[0]), system, 1000, (SEED, 0))
            assert est.mean == pytest.approx(want, rel=1e-12) and est.std_error == 0.0


def test_target_validation():
    with pytest.raises(ValueError):
        Ball((0.5,), 0.0)
    for centre in ((1.5,), (0.5, -0.1), (float("nan"),)):
        with pytest.raises(ValueError, match="unit cube"):
            Ball(centre, 0.1)
    assert Ball((0.0, 1.0), 0.1).center == (0.0, 1.0)
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
    # 3 uncoupled sites with a linear base map are Lebesgue-stationary, so
    # the cluster phase's hit rate estimates P(max - min <= nu) = 3 nu^2 - 2 nu^3
    # for 3 uniforms, which is mu(U); the bound is the batch-means SE over
    # the phase's own orbits, which allows for clustered hits
    system = CmlSystem(CmlSpec(LinearInterval(3), 3, 0.0, np.full(3, 1 / 3)), burn_in=16)
    target, K, orbit_len = DiagonalStrip(0.1), 3, 5000
    truth = 3 * 0.1**2 - 2 * 0.1**3
    cs = cluster_statistics(system, target, K=K, min_entries=100, max_orbit=10**6,
                            seed=SEED, orbit_len=orbit_len)
    assert cs.n_orbits == 16
    block = system.indicator_block(target, SEED, range(16), orbit_len)
    per_orbit = block[:, : orbit_len - 2 * K - 1].mean(axis=1)
    assert cs.mu_hat == pytest.approx(per_orbit.mean(), rel=1e-12)
    se = per_orbit.std(ddof=1) / math.sqrt(16)
    assert abs(cs.mu_hat - truth) < 4 * se


@pytest.mark.parametrize("spec", [CmlSpec(LinearInterval(2), 2, 0.1, [0.5, 0.5]),
                                  CmlSpec(SinePerturbedInterval(2, 0.1), 1, 0.0, [1.0])],
                         ids=["coupled", "sine-site"])
def test_measure_refuses_a_system_without_a_closed_form(spec):
    with pytest.raises(ValueError, match="no closed-form mu"):
        measure(DiagonalStrip(0.05), CmlSystem(spec, burn_in=64), 4000, (SEED, 0))


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

