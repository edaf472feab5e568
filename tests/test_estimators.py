import math

import numpy as np
import pytest

from returnstats.distributions import DiscreteDistribution
from returnstats.dynamics import (LinearMod1System, TorusAffineSystem,
                                  sample_stationary)
from returnstats.estimators import (ClusterStats, ReturnTimeRecord,
                                    alpha_hat_from_records,
                                    cluster_statistics,
                                    cluster_stats_from_indicators,
                                    count_visits, counting_distribution,
                                    entry_time_ratio, r2_overlap_from_indicators,
                                    return_time_records)

SEED = 31337


# ---------------------------------------------------------------------------
# counting function
# ---------------------------------------------------------------------------


def test_count_visits_full_space_counts_every_point():
    sys2 = LinearMod1System(2)
    target = type("All", (), {"contains_points": staticmethod(
        lambda pts: np.ones(pts.shape[0], dtype=bool))})()
    s0 = sample_stationary(sys2, (SEED, 0))
    assert count_visits(sys2, target, s0, t=0.02, mu=0.001) == 21  # N = 20


def test_count_visits_validation():
    sys2 = LinearMod1System(2)
    s0 = sample_stationary(sys2, (SEED, 0))
    with pytest.raises(ValueError):
        count_visits(sys2, None, s0, t=1.0, mu=0.0)
    with pytest.raises(ValueError):
        count_visits(sys2, None, s0, t=0.0, mu=0.1)
    with pytest.raises(ValueError):
        count_visits(sys2, None, s0, t=1.0, mu=1e-14)  # horizon > 1e12


def test_counting_distribution_mean_is_stationary():
    # E xi = (N+1) mu because every orbit point is stationary
    from returnstats.targets import TorusStrip

    sys_t = TorusAffineSystem(2)
    mu = 0.1
    n_trials = 3000
    dist = counting_distribution(sys_t, TorusStrip(0.05), t=1.0,
                                 n_trials=n_trials, seed=SEED)
    n_points = math.floor(1.0 / mu) + 1
    k = np.arange(dist.probs.size)
    mean = float(k @ dist.probs)
    second = float((k**2) @ dist.probs)
    se = math.sqrt(max(second - mean**2, 0.0) / n_trials)
    assert abs(mean - n_points * mu) < 4 * se + 1e-9
    assert dist.n_samples == n_trials


# ---------------------------------------------------------------------------
# cluster statistics: hand-computed oracle
# ---------------------------------------------------------------------------


def test_cluster_tallies_match_hand_computation():
    # K=1, window width 3, one row of 12 points with a pair and two singletons
    ind = np.array([0, 0, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0], dtype=bool)
    cs = cluster_stats_from_indicators([ind], K=1)
    # sliding sums of width 3: 1,2,2,1,0,1,1,1,0,0 -> 7 positive, two of them 2
    assert cs.n_windows == 10
    assert cs.lambda_hat[0] == pytest.approx(5 / 7)
    assert cs.lambda_hat[1] == pytest.approx(2 / 7)
    # entries at t < 12-3: t = 2, 3, 7; forward windows of width 2: 2, 1, 1
    assert cs.n_entries == 3
    assert cs.alpha_hat[0] == pytest.approx(1.0)
    assert cs.alpha_hat[1] == pytest.approx(1 / 3)
    assert cs.extremal_index == pytest.approx(2 / 3)


def test_cluster_stats_iid_bernoulli():
    # for an i.i.d. Bernoulli(mu) row, P(another hit within K steps of an
    # entry) = 1 - (1-mu)^K
    rng = np.random.default_rng(5)
    mu, K = 0.01, 10
    rows = [rng.random(200_000) < mu for _ in range(20)]
    cs = cluster_stats_from_indicators(rows, K)
    want = 1.0 - (1.0 - mu) ** K
    assert abs(cs.alpha_hat[1] - want) < 4 * cs.alpha_se[1] + 0.003


def test_cluster_stats_serialization_round_trip():
    ind = np.zeros(1000, dtype=bool)
    ind[[100, 300, 301, 600]] = True
    cs = cluster_stats_from_indicators([ind], K=2)
    back = ClusterStats.from_json(cs.to_json())
    np.testing.assert_array_equal(back.alpha_hat, cs.alpha_hat)
    np.testing.assert_array_equal(back.lambda_hat, cs.lambda_hat)
    assert back.n_entries == cs.n_entries
    header = cs.to_csv().splitlines()[0]
    assert header == "ell,alpha_hat,alpha_se,lambda_hat,lambda_se"


def test_cluster_statistics_validation_and_insufficient_flag():
    from returnstats.targets import Ball

    sys2 = LinearMod1System(2)
    ball = Ball((0.7,), 1e-4)
    with pytest.raises(ValueError):
        cluster_statistics(sys2, ball, K=0, min_entries=100, max_orbit=10**6, seed=SEED)
    with pytest.raises(ValueError):
        cluster_statistics(sys2, ball, K=5, min_entries=50, max_orbit=10**6, seed=SEED)
    cs = cluster_statistics(sys2, ball, K=5, min_entries=10_000,
                            max_orbit=300_000, seed=SEED, orbit_len=10_000)
    assert cs.insufficient


def test_cluster_statistics_deterministic_across_workers():
    from returnstats.targets import TorusStrip

    sys_t = TorusAffineSystem(2)
    kw = dict(K=5, min_entries=500, max_orbit=10**7, seed=SEED, orbit_len=20_000)
    one = cluster_statistics(sys_t, TorusStrip(0.01), workers=1, **kw)
    four = cluster_statistics(sys_t, TorusStrip(0.01), workers=4, **kw)
    assert one.to_json() == four.to_json()


def test_counting_distribution_deterministic_across_workers():
    from returnstats.targets import TorusStrip

    sys_t = TorusAffineSystem(2)
    one = counting_distribution(sys_t, TorusStrip(0.02), t=1.0, n_trials=500,
                                seed=SEED, workers=1)
    four = counting_distribution(sys_t, TorusStrip(0.02), t=1.0, n_trials=500,
                                 seed=SEED, workers=4)
    assert one.to_json() == four.to_json()


# ---------------------------------------------------------------------------
# return-time records
# ---------------------------------------------------------------------------


def test_return_time_record_validation():
    with pytest.raises(ValueError):
        ReturnTimeRecord(0, (0,), censored=False)


def test_records_agree_with_cluster_alpha_hat():
    from returnstats.targets import Ball

    sys3 = LinearMod1System(3)
    ball = Ball((0.5,), 0.01)
    K = 5
    recs = return_time_records(sys3, ball, n_entries=3000, max_gap=200, seed=SEED)
    ah_rec = alpha_hat_from_records(recs, K)
    cs = cluster_statistics(sys3, ball, K=K, min_entries=3000,
                            max_orbit=10**7, seed=SEED)
    # two estimators of the same limit from overlapping data
    se = max(cs.alpha_se[1], 1e-3)
    assert abs(ah_rec[1] - cs.alpha_hat[1]) < 5 * se + 0.02
    assert ah_rec[0] == pytest.approx(1.0)


def _records_by_rescanning(map_system, target, n_entries, max_gap, seed, orbit_len):
    """return_time_records as a rescan of the remaining gaps at every hit."""
    records = []
    trial = 0
    while len(records) < n_entries and trial < 10_000:
        ind = map_system.indicator_block(target, seed, [trial], orbit_len)[0]
        hits = np.flatnonzero(ind)
        gaps = np.diff(hits)
        for i, t in enumerate(hits):
            if len(records) >= n_entries:
                break
            sub = gaps[i:]
            over = np.flatnonzero(sub > max_gap)
            if over.size:
                kept = tuple(int(g) for g in sub[: over[0]])
                records.append(ReturnTimeRecord(int(t), kept, censored=True))
            elif hits.size and orbit_len - 1 - hits[-1] > max_gap:
                kept = tuple(int(g) for g in sub)
                records.append(ReturnTimeRecord(int(t), kept, censored=False))
        trial += 1
    return records


def test_return_time_records_match_the_rescanning_formulation():
    from returnstats.targets import Ball

    sys2 = LinearMod1System(2)
    ball = Ball((0.3,), 0.01)
    args = (sys2, ball, 1000, 60, SEED)
    got = return_time_records(*args, orbit_len=4000)
    want = _records_by_rescanning(*args, orbit_len=4000)
    assert got == want
    assert len(got) == 1000 and len({r.entry_index for r in got}) < 1000  # several orbits
    assert any(r.censored for r in got) and any(not r.censored for r in got)
    assert any(len(r.successive_gaps) > 1 for r in got)


def test_alpha_hat_from_records_empty():
    with pytest.raises(ValueError):
        alpha_hat_from_records([], K=3)


# ---------------------------------------------------------------------------
# entry-time ratio and R2 overlap
# ---------------------------------------------------------------------------


def test_entry_time_ratio_near_independent_prediction():
    # ball around a non-periodic point: short returns are negligible, so
    # P(tau <= L) is close to the independent value 1 - (1-mu)^L
    from returnstats.targets import Ball

    sys2 = LinearMod1System(2)
    rho, L = 1e-3, 100
    mu = 2 * rho
    ratio = entry_time_ratio(sys2, Ball((1 / math.sqrt(2),), rho), L=L,
                             n_trials=20_000, seed=SEED)
    want = (1.0 - (1.0 - mu) ** L) / (L * mu)
    assert abs(ratio - want) < 0.05


def test_entry_time_ratio_warns_when_no_hits():
    from returnstats.targets import Ball

    sys2 = LinearMod1System(2)
    with pytest.warns(UserWarning):
        r = entry_time_ratio(sys2, Ball((1 / math.sqrt(2),), 1e-9), L=5,
                             n_trials=10, seed=SEED)
    assert r == 0.0


def test_r2_overlap_iid_closed_form():
    # i.i.d. Bernoulli rows: P(Z>=1 and Z o shift >= 1) = (1-(1-mu)^(2K+1))^2
    rng = np.random.default_rng(8)
    mu, K, delta = 0.02, 3, 5
    win = 2 * K + 1
    n_trials = 200_000
    block = rng.random((n_trials, win * delta + win)) < mu
    got = r2_overlap_from_indicators(block, K, delta)
    q = 1.0 - (1.0 - mu) ** win
    want = (delta - 1) * q * q
    se = math.sqrt((delta - 1) * q * q * (1 - q * q) / n_trials)
    assert abs(got - want) < 5 * se


def test_counting_distribution_is_a_distribution():
    from returnstats.targets import TorusStrip

    sys_t = TorusAffineSystem(2)
    dist = counting_distribution(sys_t, TorusStrip(0.05), t=0.5,
                                 n_trials=200, seed=SEED)
    assert isinstance(dist, DiscreteDistribution)
    assert abs(dist.probs.sum() + dist.tail_mass - 1.0) < 1e-12
