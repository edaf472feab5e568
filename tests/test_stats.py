import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from returnstats.distributions import DiscreteDistribution, empirical_distribution
from returnstats.records import from_json_fields
from returnstats.stats import GofReport, chi_square_gof, total_variation

from polya_aeppli_reference import polya_aeppli_pmf
from test_records import _strict


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
        emp = empirical_distribution(draws)
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
    rep = chi_square_gof(empirical_distribution(draws), n, model)
    assert rep.p_value < 1e-10
    assert rep.tv_distance > 0.05


def test_chi_square_merges_thin_bins():
    model = polya_aeppli_pmf(0.5, 0.5, 40)
    emp = empirical_distribution(np.array([0] * 90 + [1] * 10))
    rep = chi_square_gof(emp, 100, model)
    # with n=100 only bins of model mass >= 0.05 survive individually
    assert rep.dof < 6
    assert rep.n == 100


def test_gof_report_round_trip():
    rep = GofReport(tv_distance=0.01, chi_square=3.2, dof=4, p_value=0.52, n=1000)
    back = from_json_fields(GofReport, json.loads(rep.to_json()))
    assert back == rep


def test_samples_on_outcomes_the_model_rules_out_fail():
    # the model puts no mass past k = 1, so 20 samples at k = 2 rule it out;
    # dropping the empty-model tail bin with its samples gave chi2 4.0, p 0.0455
    model = DiscreteDistribution(np.array([0.5, 0.5]))
    emp = empirical_distribution(np.array([0] * 40 + [1] * 40 + [2] * 20))
    rep = chi_square_gof(emp, 100, model)
    assert rep.chi_square == np.inf and rep.p_value == 0.0
    # the report still parses as strict JSON, with the infinite chi2 as null
    back = from_json_fields(GofReport, _strict(rep.to_json()))
    assert np.isnan(back.chi_square) and back.p_value == 0.0 and back.dof == rep.dof
    # a model that rules out only outcomes nobody saw keeps its finite statistic
    fits = chi_square_gof(empirical_distribution(np.array([0] * 50 + [1] * 50)), 100, model)
    assert fits.chi_square == 0.0 and fits.dof == 1
