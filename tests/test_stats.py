import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from returnstats.distributions import (DiscreteDistribution,
                                       empirical_distribution,
                                       polya_aeppli_pmf)
from returnstats.records import from_json_fields
from returnstats.stats import (AlphaSequences, GofReport, chi_square_gof,
                               lambda_from_alpha_hat, total_variation)


def test_lambda_from_geometric_alpha_hat_closed_form():
    # alpha_hat_k = p^(k-1) gives alpha_1 = 1-p, lambda_ell = (1-p) p^(ell-1)
    # and mean cluster size 1/(1-p)
    for p in (0.2, 0.5, 0.8):
        ah = p ** np.arange(8)
        seqs = lambda_from_alpha_hat(ah)
        assert abs(seqs.extremal_index - (1 - p)) < 1e-12
        expected = (1 - p) ** 2 * p ** np.arange(8)
        np.testing.assert_allclose(seqs.alpha, (1 - p) * p ** np.arange(8), atol=1e-12)
        np.testing.assert_allclose(seqs.lam, expected / (1 - p), atol=1e-12)
        assert abs(seqs.mean_cluster_size - 1.0 / (1 - p)) < 1e-10
        assert abs(seqs.tail_ratio - p) < 1e-12


def random_valid_alpha_hat(rng):
    """alpha_hat built from a random cluster law with a geometric tail
    (random head + exact geometric continuation), plus its true mean."""
    h = int(rng.integers(1, 5))
    head = rng.uniform(0.1, 1.0, size=h)
    r = float(rng.uniform(0.05, 0.9))
    w = np.concatenate([head, head[-1] * r ** np.arange(1, 2000)])
    lam = w / w.sum()
    mean = float(np.arange(1, lam.size + 1) @ lam)
    alpha = np.cumsum(lam[::-1])[::-1] / mean     # alpha_1 = 1/mean
    ahat = np.cumsum(alpha[::-1])[::-1]
    ahat = ahat / ahat[0]
    return ahat[: h + 4], mean


def test_mean_cluster_identity_random_sequences():
    rng = np.random.default_rng(7)
    for _ in range(100):
        ah, mean = random_valid_alpha_hat(rng)
        seqs = lambda_from_alpha_hat(ah)
        assert abs(seqs.mean_cluster_size - 1.0 / (1.0 - ah[1])) < 1e-9
        assert abs(seqs.mean_cluster_size - mean) < 1e-9


def test_lambda_from_alpha_hat_validation():
    with pytest.raises(ValueError):
        lambda_from_alpha_hat([0.9, 0.5])          # alpha_hat_1 != 1
    with pytest.raises(ValueError):
        lambda_from_alpha_hat([1.0, 0.3, 0.4])     # increasing
    with pytest.raises(ValueError):
        lambda_from_alpha_hat([1.0, 1.0, 1.0])     # alpha_1 = 0
    with pytest.raises(ValueError):
        lambda_from_alpha_hat([1.0])               # too short
    with pytest.raises(ValueError):
        lambda_from_alpha_hat([1.0, 0.5, 0.5])     # non-decaying tail


def test_total_variation_brute_force():
    d1 = DiscreteDistribution(np.array([0.5, 0.3, 0.2]))
    d2 = DiscreteDistribution(np.array([0.4, 0.4]), tail_mass=0.2)
    expected = 0.5 * (abs(0.5 - 0.4) + abs(0.3 - 0.4) + abs(0.2 - 0.0)) \
        + 0.5 * abs(0.0 - 0.2)
    assert abs(total_variation(d1, d2) - expected) < 1e-15
    assert total_variation(d1, d1) == 0.0


@st.composite
def dists(draw):
    n = draw(st.integers(1, 8))
    raw = np.asarray(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    total = raw.sum()
    if total == 0:
        return DiscreteDistribution(np.zeros(n), tail_mass=1.0)
    tail = draw(st.floats(0.0, 0.5))
    return DiscreteDistribution(raw / total * (1 - tail), tail_mass=tail)


@given(dists(), dists(), dists())
@settings(max_examples=100, deadline=None)
def test_total_variation_is_a_metric(a, b, c):
    assert total_variation(a, b) == pytest.approx(total_variation(b, a), abs=1e-12)
    assert 0.0 <= total_variation(a, b) <= 1.0 + 1e-12
    assert total_variation(a, c) <= total_variation(a, b) + total_variation(b, c) + 1e-12


def test_chi_square_calibration_under_the_null():
    # samples drawn from the model itself: p-values should not pile up low
    model = polya_aeppli_pmf(1.0, 0.5, 30)
    rng = np.random.default_rng(11)
    n = 2000
    support = np.arange(31)
    low = 0
    reps = 200
    for _ in range(reps):
        draws = rng.choice(support, size=n, p=model.probs / model.probs.sum())
        emp = empirical_distribution(draws, k_max=30)
        rep = chi_square_gof(emp, n, model)
        if rep.p_value < 0.05:
            low += 1
    # Binomial(200, ~0.05): allow a generous band
    assert low <= 25, f"{low}/{reps} null p-values below 0.05"


def test_chi_square_power_against_wrong_model():
    model = polya_aeppli_pmf(1.0, 0.0, 30)   # Poisson(1)
    truth = polya_aeppli_pmf(1.0, 0.5, 30)   # clustered alternative
    rng = np.random.default_rng(3)
    n = 100_000
    draws = rng.choice(np.arange(31), size=n, p=truth.probs / truth.probs.sum())
    rep = chi_square_gof(empirical_distribution(draws, k_max=30), n, model)
    assert rep.p_value < 1e-10
    assert rep.tv_distance > 0.05


def test_chi_square_merges_thin_bins():
    model = polya_aeppli_pmf(0.5, 0.5, 40)
    emp = empirical_distribution(np.array([0] * 90 + [1] * 10), k_max=40)
    rep = chi_square_gof(emp, 100, model)
    # with n=100 only bins of model mass >= 0.05 survive individually
    assert rep.dof < 6
    assert rep.n == 100


def test_gof_report_round_trip():
    rep = GofReport(tv_distance=0.01, chi_square=3.2, dof=4, p_value=0.52, n=1000)
    back = from_json_fields(GofReport, json.loads(rep.to_json()))
    assert back == rep


def test_alpha_sequences_extremal_index():
    seqs = lambda_from_alpha_hat([1.0, 0.5, 0.25, 0.125])
    assert isinstance(seqs, AlphaSequences)
    assert seqs.extremal_index == pytest.approx(0.5)
