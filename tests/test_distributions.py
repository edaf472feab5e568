import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom as scipy_binom

from returnstats.distributions import (ClusterSizeDist, CompoundSpec,
                                       DiscreteDistribution, TruncationError,
                                       compound_binomial_pmf,
                                       compound_poisson_pmf,
                                       empirical_distribution,
                                       polya_aeppli_pmf)
from returnstats.records import from_json_fields


def test_compound_poisson_atom_at_zero_is_exact():
    for s in (0.3, 1.0, 2.5):
        spec = CompoundSpec(s, ClusterSizeDist.geometric(0.5))
        dist = compound_poisson_pmf(spec, 20)
        assert dist.probs[0] == math.exp(-s)


def test_polya_aeppli_matches_recursion_on_grid():
    # closed form vs the generic recursion with geometric clusters
    for s in (0.5, 1.0, 2.0):
        for p in (0.1, 0.5, 0.9):
            pa = polya_aeppli_pmf(s, p, 40)
            cp = compound_poisson_pmf(CompoundSpec(s, ClusterSizeDist.geometric(p)), 40)
            np.testing.assert_allclose(pa.probs, cp.probs, rtol=0, atol=1e-10)


def test_polya_aeppli_p_zero_is_poisson():
    pa = polya_aeppli_pmf(2.0, 0.0, 30)
    k = np.arange(31)
    poisson = np.exp(-2.0 + k * math.log(2.0) - [math.lgamma(i + 1) for i in k])
    np.testing.assert_allclose(pa.probs, poisson, atol=1e-14)


def _sample_compound_poisson(spec, n_samples, rng):
    """Direct Monte Carlo draws of W: a Poisson number of cluster sizes."""
    counts = rng.poisson(spec.intensity, size=n_samples)
    sizes = rng.choice(np.arange(1, spec.clusters.ell_max + 1), size=int(counts.sum()),
                       p=spec.clusters.lambdas)
    out = np.zeros(n_samples, dtype=np.int64)
    np.add.at(out, np.repeat(np.arange(n_samples), counts), sizes)
    return out


def test_compound_poisson_against_monte_carlo_oracle():
    rng = np.random.default_rng(42)
    spec = CompoundSpec(1.5, ClusterSizeDist(np.array([0.5, 0.3, 0.2])))
    n = 1_000_000
    draws = _sample_compound_poisson(spec, n, rng)
    dist = compound_poisson_pmf(spec, 30)
    emp = np.bincount(draws, minlength=31)[:31] / n
    for k in range(15):
        se = math.sqrt(dist.probs[k] * (1 - dist.probs[k]) / n)
        assert abs(emp[k] - dist.probs[k]) < 5 * se + 1e-9, f"k={k}"


def test_compound_binomial_single_block():
    # one block: P(W=0) = 1-p, P(W=ell) = p * lambda_ell
    cd = ClusterSizeDist(np.array([0.6, 0.4]))
    dist = compound_binomial_pmf(1, 0.3, cd, 5)
    np.testing.assert_allclose(dist.probs[:3], [0.7, 0.3 * 0.6, 0.3 * 0.4], atol=1e-15)
    assert dist.probs[3:].sum() == 0.0


def test_compound_binomial_unit_clusters_is_binomial():
    # degenerate clusters of size 1 reduce W to the binomial count itself
    n_tr, p = 40, 0.2
    dist = compound_binomial_pmf(n_tr, p, ClusterSizeDist.single(), n_tr)
    ref = scipy_binom.pmf(np.arange(n_tr + 1), n_tr, p)
    np.testing.assert_allclose(dist.probs, ref, atol=1e-12)


def test_compound_poisson_pgf_identity():
    # E z^W = exp(s (phi_X(z) - 1)) with phi_X(z) = sum_ell z^ell lambda_ell
    polyval = np.polynomial.polynomial.polyval
    clusters = ClusterSizeDist(np.array([0.4, 0.35, 0.25]))
    spec = CompoundSpec(1.2, clusters)
    dist = compound_poisson_pmf(spec, 120)
    for z in (0.0, 0.3, 0.7, 1.0):
        lhs = polyval(z, dist.probs)
        rhs = math.exp(1.2 * (z * polyval(z, clusters.lambdas) - 1.0))
        assert abs(lhs - rhs) < 1e-10 + dist.tail_mass


def test_truncation_error_raised():
    spec = CompoundSpec(5.0, ClusterSizeDist.geometric(0.5))
    with pytest.raises(TruncationError):
        compound_poisson_pmf(spec, 3, tail_tol=1e-6)
    with pytest.raises(TruncationError):
        polya_aeppli_pmf(5.0, 0.5, 3, tail_tol=1e-6)
    with pytest.raises(TruncationError):
        compound_binomial_pmf(100, 0.1, ClusterSizeDist.geometric(0.5), 2,
                              tail_tol=1e-6)


def test_cluster_size_dist_geometric_mean():
    for p in (0.0, 0.3, 0.8):
        cd = ClusterSizeDist.geometric(p)
        assert abs(cd.mean() - 1.0 / (1.0 - p)) < 1e-9
        assert abs(cd.lambdas.sum() - 1.0) < 1e-12


def test_cluster_size_dist_validation():
    with pytest.raises(ValueError):
        ClusterSizeDist(np.array([0.5, 0.4]))  # does not sum to 1
    with pytest.raises(ValueError):
        ClusterSizeDist(np.array([-0.1, 1.1]))
    with pytest.raises(ValueError):
        ClusterSizeDist.geometric(1.0)


def test_discrete_distribution_validation():
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([0.5, 0.4]))  # missing mass, no tail
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([0.5, 0.6]), tail_mass=-0.1)
    d = DiscreteDistribution(np.array([0.5, 0.3]), tail_mass=0.2)
    assert d.k_max == 1


def test_json_and_csv_round_trips():
    d = DiscreteDistribution(np.array([0.5, 0.3, 0.1]), tail_mass=0.1, n_samples=77)
    back = from_json_fields(DiscreteDistribution, json.loads(d.to_json()))
    np.testing.assert_array_equal(back.probs, d.probs)
    assert back.tail_mass == d.tail_mass and back.n_samples == 77
    rows = d.to_csv().splitlines()
    assert rows[0] == "k,prob"
    np.testing.assert_array_equal([float(r.split(",")[1]) for r in rows[1:]], d.probs)


def test_empirical_distribution_counts():
    d = empirical_distribution(np.array([0, 0, 1, 3, 3, 3]))
    np.testing.assert_allclose(d.probs, [2 / 6, 1 / 6, 0.0, 3 / 6])
    assert d.n_samples == 6
    trunc = empirical_distribution(np.array([0, 0, 1, 3, 3, 3]), k_max=1)
    np.testing.assert_allclose(trunc.probs, [2 / 6, 1 / 6])
    assert abs(trunc.tail_mass - 0.5) < 1e-12


@st.composite
def cluster_dists(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    arr = np.asarray(raw)
    return ClusterSizeDist(arr / arr.sum())


@given(cluster_dists(), st.floats(0.1, 4.0))
@settings(max_examples=50, deadline=None)
def test_compound_poisson_pmf_is_a_pmf(clusters, s):
    dist = compound_poisson_pmf(CompoundSpec(s, clusters), 60)
    assert np.all(dist.probs >= 0)
    assert abs(dist.probs.sum() + dist.tail_mass - 1.0) < 1e-9


@given(st.integers(1, 200), st.floats(0.0, 1.0), cluster_dists())
@settings(max_examples=50, deadline=None)
def test_compound_binomial_pmf_is_a_pmf(n_trials, p, clusters):
    dist = compound_binomial_pmf(n_trials, p, clusters, 40)
    assert np.all(dist.probs >= -1e-15)
    assert dist.probs.sum() + dist.tail_mass == pytest.approx(1.0, abs=1e-9)
