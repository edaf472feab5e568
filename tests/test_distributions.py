import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom as scipy_binom

from returnstats.distributions import (ClusterSizeDist, DiscreteDistribution,
                                       compound_poisson_pmf,
                                       empirical_distribution)
from returnstats.records import from_json_fields

from compound_binomial_reference import compound_binomial_pmf
from polya_aeppli_reference import polya_aeppli_pmf


def test_compound_poisson_atom_at_zero_is_exact():
    for s in (0.3, 1.0, 2.5):
        dist = compound_poisson_pmf(s, ClusterSizeDist.geometric(0.5), 20)
        assert dist.probs[0] == math.exp(-s)


def test_polya_aeppli_matches_recursion_on_grid():
    # closed form vs the generic recursion with geometric clusters
    for s in (0.5, 1.0, 2.0):
        for p in (0.1, 0.5, 0.9):
            pa = polya_aeppli_pmf(s, p, 40)
            cp = compound_poisson_pmf(s, ClusterSizeDist.geometric(p), 40)
            np.testing.assert_allclose(pa.probs, cp.probs, rtol=0, atol=1e-10)


def test_polya_aeppli_p_zero_is_poisson():
    pa = polya_aeppli_pmf(2.0, 0.0, 30)
    k = np.arange(31)
    poisson = np.exp(-2.0 + k * math.log(2.0) - [math.lgamma(i + 1) for i in k])
    np.testing.assert_allclose(pa.probs, poisson, atol=1e-14)


def _sample_compound_poisson(s, clusters, n_samples, rng):
    """Direct Monte Carlo draws of W: a Poisson number of cluster sizes."""
    counts = rng.poisson(s, size=n_samples)
    sizes = rng.choice(np.arange(1, clusters.lambdas.size + 1), size=int(counts.sum()),
                       p=clusters.lambdas)
    out = np.zeros(n_samples, dtype=np.int64)
    np.add.at(out, np.repeat(np.arange(n_samples), counts), sizes)
    return out


def test_compound_poisson_against_monte_carlo_oracle():
    rng = np.random.default_rng(42)
    clusters = ClusterSizeDist(np.array([0.5, 0.3, 0.2]))
    n = 1_000_000
    draws = _sample_compound_poisson(1.5, clusters, n, rng)
    dist = compound_poisson_pmf(1.5, clusters, 30)
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
    dist = compound_poisson_pmf(1.2, clusters, 120)
    for z in (0.0, 0.3, 0.7, 1.0):
        lhs = polyval(z, dist.probs)
        rhs = math.exp(1.2 * (z * polyval(z, clusters.lambdas) - 1.0))
        assert abs(lhs - rhs) < 1e-10 + dist.tail_mass


def test_cluster_size_dist_geometric_mean():
    for p in (0.0, 0.3, 0.8):
        cd = ClusterSizeDist.geometric(p)
        assert abs(cd.mean() - 1.0 / (1.0 - p)) < 1e-9
        assert abs(cd.lambdas.sum() - 1.0) < 1e-12


def test_geometric_truncation_moves_the_extremal_index_by_ulps():
    # the clusters cut off carry under 2^-53 of the mean, so 1/mean is 1-p
    # up to the rounding of the sums (a cut where p^ell < 1e-13 read 0.5 as
    # 0.5000000000003197)
    for p in (0.5, 1 / 3, 0.25, 0.1, 0.9, 0.99, 2.0**-10):
        cd = ClusterSizeDist.geometric(p)
        assert abs(1.0 / cd.mean() - (1.0 - p)) <= 4 * np.spacing(1.0 - p)
        assert p**cd.lambdas.size * (1 + cd.lambdas.size * (1 - p)) < 2.0**-53


def test_lambda_from_geometric_alpha_hat_closed_form():
    # alpha_hat_k = p^(k-1) gives alpha_1 = 1-p, lambda_ell = (1-p) p^(ell-1)
    # and mean cluster size 1/(1-p); the law is the whole law, the envelope's
    # tail included
    for p in (0.2, 0.5, 0.8):
        ah = p ** np.arange(8)
        law = ClusterSizeDist.from_alpha_hat(ah)
        assert abs(law.extremal_index - (1 - p)) < 1e-12
        assert law.lambdas.size > 8
        expected = (1 - p) * p ** np.arange(law.lambdas.size)
        np.testing.assert_allclose(law.lambdas, expected, atol=1e-12)
        # alpha_ell = alpha_hat_ell - alpha_hat_{ell+1} = (1-p) p^(ell-1), and
        # the envelope continues the table with the ratio p
        np.testing.assert_allclose(-np.diff(law.alpha_hat(law.lambdas.size + 1)),
                                   (1 - p) * p ** np.arange(law.lambdas.size), atol=1e-12)
        assert abs(law.lambdas.sum() - 1.0) < 1e-12
        assert abs(law.mean() - 1.0 / (1 - p)) < 1e-10


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
        law = ClusterSizeDist.from_alpha_hat(ah)
        assert abs(law.mean() - 1.0 / (1.0 - ah[1])) < 1e-9
        assert abs(law.mean() - mean) < 1e-9
        assert abs(law.lambdas.sum() - 1.0) < 1e-12


def test_from_alpha_hat_validation():
    with pytest.raises(ValueError):
        ClusterSizeDist.from_alpha_hat([0.9, 0.5])          # alpha_hat_1 != 1
    with pytest.raises(ValueError):
        ClusterSizeDist.from_alpha_hat([1.0, 0.3, 0.4])     # increasing
    with pytest.raises(ValueError):
        ClusterSizeDist.from_alpha_hat([1.0, 1.0, 1.0])     # alpha_1 = 0
    with pytest.raises(ValueError):
        ClusterSizeDist.from_alpha_hat([1.0])               # too short
    with pytest.raises(ValueError):
        ClusterSizeDist.from_alpha_hat([1.0, 0.5, 0.5])     # non-decaying tail


def test_from_alpha_hat_extremal_index():
    law = ClusterSizeDist.from_alpha_hat([1.0, 0.5, 0.25, 0.125])
    assert law.extremal_index == pytest.approx(0.5)


@pytest.mark.parametrize("law", [ClusterSizeDist(np.array([0.5, 0.3, 0.2])),
                                 ClusterSizeDist.geometric(1 / 2),
                                 ClusterSizeDist.geometric(1 / 3),
                                 ClusterSizeDist.single()],
                         ids=["three-point", "geometric-1/2", "geometric-1/3", "single"])
def test_alpha_hat_round_trips(law):
    # alpha_hat is exactly 0 past the support, so the table of a finite law
    # ends in zeros and its envelope adds nothing; with 1.1e-16 there, the
    # three-point law's table read as a tail that does not decay.  The
    # cumulative sums round, so the law comes back to a few ulps per entry
    size = law.lambdas.size
    alpha_hat = law.alpha_hat(size + 4)
    assert np.all(alpha_hat[size:] == 0.0)
    back = ClusterSizeDist.from_alpha_hat(alpha_hat)
    assert abs(back.extremal_index - law.extremal_index) < 1e-13
    np.testing.assert_allclose(back.lambdas, np.pad(law.lambdas, (0, back.lambdas.size - size)),
                               rtol=0, atol=1e-13)


def test_cluster_size_dist_validation():
    with pytest.raises(ValueError):
        ClusterSizeDist(np.array([0.5, 0.4]))  # does not sum to 1
    with pytest.raises(ValueError):
        ClusterSizeDist(np.array([-0.1, 1.1]))
    with pytest.raises(ValueError):
        ClusterSizeDist.geometric(1.0)
    # nan compares false with every bound, so only a finiteness check sees it
    for lam in ([0.5, np.nan], [np.nan], [1.0, 0.0, np.inf]):
        with pytest.raises(ValueError, match="finite"):
            ClusterSizeDist(np.array(lam))


def test_discrete_distribution_validation():
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([0.5, 0.4]))  # missing mass, no tail
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([0.5, 0.6]), tail_mass=-0.1)
    for probs, tail in (([0.5, np.nan], 0.0), ([np.nan], 0.0), ([1.0], np.nan),
                        ([0.5, 0.5], np.inf)):
        with pytest.raises(ValueError, match="finite"):
            DiscreteDistribution(np.array(probs), tail_mass=tail)
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
    assert d.n_samples == 6 and d.tail_mass == 0.0


@st.composite
def cluster_dists(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    arr = np.asarray(raw)
    return ClusterSizeDist(arr / arr.sum())


@given(cluster_dists(), st.floats(0.1, 4.0))
@settings(max_examples=50, deadline=None)
def test_compound_poisson_pmf_is_a_pmf(clusters, s):
    dist = compound_poisson_pmf(s, clusters, 60)
    assert np.all(dist.probs >= 0)
    assert abs(dist.probs.sum() + dist.tail_mass - 1.0) < 1e-9


@given(st.integers(1, 200), st.floats(0.0, 1.0), cluster_dists())
@settings(max_examples=50, deadline=None)
def test_compound_binomial_pmf_is_a_pmf(n_trials, p, clusters):
    dist = compound_binomial_pmf(n_trials, p, clusters, 40)
    assert np.all(dist.probs >= -1e-15)
    assert dist.probs.sum() + dist.tail_mass == pytest.approx(1.0, abs=1e-9)
