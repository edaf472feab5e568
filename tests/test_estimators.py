import math

import numpy as np
import pytest

from returnstats.distributions import DiscreteDistribution
from returnstats.dynamics import LinearMod1System, TorusAffineSystem
from returnstats.estimators import (ClusterAccumulator, ClusterStats,
                                    cluster_statistics, counting_distribution,
                                    entry_time_ratio)

SEED = 31337


def _stats_of_rows(rows, K: int) -> ClusterStats:
    acc = ClusterAccumulator(K=K)
    for row in rows:
        acc.add_orbit(row)
    return acc.finalize(insufficient=False)


# ---------------------------------------------------------------------------
# counting function
# ---------------------------------------------------------------------------


def test_counting_distribution_rejects_a_non_positive_horizon():
    from returnstats.targets import Ball

    for t in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="t must be finite and positive"):
            counting_distribution(LinearMod1System(2), Ball((0.3,), 0.01), t=t,
                                  n_trials=10, seed=SEED, mu=0.02)


def test_counting_distribution_rejects_a_bad_measure():
    from returnstats.targets import Ball

    for mu in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="mu must be finite and positive"):
            counting_distribution(LinearMod1System(2), Ball((0.3,), 0.01), t=1.0,
                                  n_trials=10, seed=SEED, mu=mu)
    with pytest.raises(ValueError, match="exceeds 10"):
        counting_distribution(LinearMod1System(2), Ball((0.3,), 0.01), t=1.0,
                              n_trials=10, seed=SEED, mu=1e-14)


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
    cs = _stats_of_rows([ind], K=1)
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
    cs = _stats_of_rows(rows, K)
    want = 1.0 - (1.0 - mu) ** K
    assert abs(cs.alpha_hat[1] - want) < 4 * cs.alpha_se[1] + 0.003


def test_cluster_stats_serialization_round_trip():
    ind = np.zeros(1000, dtype=bool)
    ind[[100, 300, 301, 600]] = True
    cs = _stats_of_rows([ind], K=2)
    back = ClusterStats.from_json(cs.to_json())
    np.testing.assert_array_equal(back.alpha_hat, cs.alpha_hat)
    np.testing.assert_array_equal(back.lambda_hat, cs.lambda_hat)
    assert back.n_entries == cs.n_entries
    header = cs.to_csv().splitlines()[0]
    assert header == "ell,alpha_hat,alpha_se,lambda_hat,lambda_se"


# ---------------------------------------------------------------------------
# add_orbit and add_runs against a dense window-by-window reference
# ---------------------------------------------------------------------------


def _dense_reference(acc, ind):
    """Tally a boolean row into `acc` window by window over the whole row:
    the definition that `add_orbit` and `add_runs` must reproduce."""
    K = acc.K
    n_points = ind.size
    win = 2 * K + 1
    if n_points < win + 1:
        raise ValueError("orbit shorter than one full window")
    c = np.concatenate([[0], np.cumsum(ind, dtype=np.int64)])
    z = c[win:] - c[:-win]
    z_hist = np.bincount(z, minlength=2 * K + 2)
    w_full = c[K + 1:] - c[: -(K + 1)]
    # entries: I_t = 1 with t at least 2K+1 steps from the orbit end
    valid = n_points - win
    entry_w = w_full[:valid][ind[:valid]]
    w_hist = np.bincount(entry_w, minlength=K + 2)
    acc.z_hist += z_hist
    acc.w_hist += w_hist
    acc.n_windows += z.size
    acc.n_entries += entry_w.size
    acc.n_orbits += 1
    acc.total_steps += n_points
    if entry_w.size > 0:
        ge = np.cumsum(w_hist[::-1])[::-1]
        acc.orbit_alpha.append(ge[1:] / entry_w.size)
    n_pos = int(z_hist[1:].sum())
    if n_pos > 0:
        acc.orbit_lambda.append(z_hist[1:] / n_pos)


def _runs_of(ind):
    """(starts, ends) of the maximal runs of ones in a boolean row."""
    d = np.diff(np.concatenate([[0], ind.astype(np.int8), [0]]))
    return np.flatnonzero(d == 1), np.flatnonzero(d == -1)


def _state(acc):
    return (acc.z_hist.tolist(), acc.w_hist.tolist(), acc.n_windows,
            acc.n_entries, acc.n_orbits, acc.total_steps)


def _assert_same_tallies(a, b):
    assert _state(a) == _state(b)
    for x, y in ((a.orbit_alpha, b.orbit_alpha), (a.orbit_lambda, b.orbit_lambda)):
        assert len(x) == len(y)
        assert not x or np.array_equal(np.stack(x), np.stack(y))


def _three_ways(rows, K, runs=None):
    """Reference, add_orbit and add_runs accumulators over the same rows."""
    ref, dense, sparse = (ClusterAccumulator(K=K) for _ in range(3))
    for i, ind in enumerate(rows):
        _dense_reference(ref, ind)
        dense.add_orbit(ind)
        starts, ends = _runs_of(ind) if runs is None else runs[i]
        sparse.add_runs(starts, ends, ind.size)
    return ref, dense, sparse


@pytest.mark.parametrize("K", [1, 2, 3])
def test_add_runs_equals_add_orbit_on_every_short_row(K):
    # every 0/1 row of length 2K+2 .. 14; the integer tallies are compared
    # after each row, so each orbit's increments must agree
    for n in range(2 * K + 2, 15):
        ref, dense, sparse = (ClusterAccumulator(K=K) for _ in range(3))
        bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
        for ind in bits.astype(bool):
            _dense_reference(ref, ind)
            dense.add_orbit(ind)
            sparse.add_runs(*_runs_of(ind), n)
            assert _state(dense) == _state(ref)
            assert _state(sparse) == _state(ref)
        _assert_same_tallies(ref, dense)
        _assert_same_tallies(ref, sparse)


def test_add_runs_rejects_what_add_orbit_rejects():
    acc = ClusterAccumulator(K=2)
    with pytest.raises(ValueError, match="shorter than one full window"):
        acc.add_orbit(np.ones(5, dtype=bool))
    with pytest.raises(ValueError, match="shorter than one full window"):
        acc.add_runs([1], [2], 5)
    assert _state(acc) == _state(ClusterAccumulator(K=2))
    with pytest.raises(ValueError):
        acc.add_runs([3, 4], [6, 8], 40)      # overlapping runs
    with pytest.raises(ValueError):
        acc.add_runs([30], [41], 40)          # past the orbit end


@pytest.mark.parametrize("K", [1, 3, 10])
def test_add_runs_equals_add_orbit_on_long_sparse_rows(K):
    rng = np.random.default_rng(K)
    rows = [np.zeros(5000, dtype=bool)]       # all zero: one cut gap
    for _ in range(6):
        # gaps straddling the cut length 2K+2 plus long ones; runs of 1..2K+3
        gaps = rng.choice([0, 2 * K + 1, 2 * K + 2, 2 * K + 3, 5 * K + 40], size=60)
        lens = rng.integers(1, 2 * K + 4, size=60)
        ind = np.repeat(np.tile([False, True], 60),
                        np.column_stack([gaps, lens]).ravel())
        rows.append(ind)
        rows.append(ind[::-1].copy())
    hit_ends = np.zeros(3000, dtype=bool)
    hit_ends[[0, 1500, 2999]] = True          # hits at index 0 and n - 1
    rows.append(hit_ends)
    rows.append(np.ones(2 * K + 2, dtype=bool))
    ref, dense, sparse = _three_ways(rows, K)
    _assert_same_tallies(ref, dense)
    _assert_same_tallies(ref, sparse)

    # adjacent hit blocks (gap 0) given as separate intervals
    ind = np.zeros(400, dtype=bool)
    ind[100:110] = True
    ind[300:301] = True
    split = (np.array([100, 104, 107, 300]), np.array([104, 107, 110, 301]))
    ref, _, sparse = _three_ways([ind], K, runs=[split])
    _assert_same_tallies(ref, sparse)


def test_add_orbit_tallies_a_0_1_integer_row_like_the_boolean_row():
    ind = np.zeros(40, dtype=bool)
    ind[[5, 6, 20]] = True
    for dtype in (np.int64, np.int8, np.uint8):
        acc = ClusterAccumulator(K=2)
        acc.add_orbit(ind.astype(dtype))
        assert acc.n_entries == 3
        assert acc.w_hist.tolist() == [0, 2, 1, 0]
        ref = ClusterAccumulator(K=2)
        _dense_reference(ref, ind)
        _assert_same_tallies(ref, acc)


def test_add_orbit_rejects_a_row_that_is_not_0_1():
    acc = ClusterAccumulator(K=2)
    ind = np.zeros(40, dtype=np.int64)
    ind[[5, 6]] = 1
    for bad_value in (2, -1):
        row = ind.copy()
        row[20] = bad_value
        with pytest.raises(ValueError, match="0/1"):
            acc.add_orbit(row)
    with pytest.raises(ValueError, match="0/1"):
        acc.add_orbit(ind.astype(float))
    assert _state(acc) == _state(ClusterAccumulator(K=2))


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
# alpha_hat from hit times, an independent check of the window tallies
# ---------------------------------------------------------------------------


def _alpha_hat_from_hit_times(map_system, target, K, n_entries, seed,
                              orbit_len=500_000):
    """alpha_hat_ell(K) read off the hit times of whole orbits: the fraction
    of entries followed by at least ell-1 further hits within K steps."""
    counts = np.zeros(K + 2, dtype=np.int64)
    trial = 0
    while counts.sum() < n_entries:
        hits = np.flatnonzero(map_system.indicator_block(target, seed, [trial], orbit_len)[0])
        entries = hits[hits + K < orbit_len]
        later = (np.searchsorted(hits, entries + K, side="right")
                 - np.searchsorted(hits, entries, side="right"))
        np.add.at(counts, 1 + later, 1)
        trial += 1
    ge = np.cumsum(counts[::-1])[::-1]
    return ge[1:] / counts.sum()


def test_hit_times_agree_with_cluster_alpha_hat():
    from returnstats.targets import Ball

    sys3 = LinearMod1System(3)
    ball = Ball((0.5,), 0.01)
    K = 5
    ah_hits = _alpha_hat_from_hit_times(sys3, ball, K, n_entries=3000, seed=SEED)
    cs = cluster_statistics(sys3, ball, K=K, min_entries=3000,
                            max_orbit=10**7, seed=SEED)
    # two estimators of the same limit from overlapping data
    se = max(cs.alpha_se[1], 1e-3)
    assert abs(ah_hits[1] - cs.alpha_hat[1]) < 5 * se + 0.02
    assert ah_hits[0] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# entry-time ratio
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


def test_entry_time_ratio_rejects_no_trials():
    from returnstats.targets import Ball

    with pytest.raises(ValueError, match="n_trials"):
        entry_time_ratio(LinearMod1System(2), Ball((0.3,), 0.01), L=5, n_trials=0,
                         seed=SEED, mu=0.02)


def test_counting_distribution_is_a_distribution():
    from returnstats.targets import TorusStrip

    sys_t = TorusAffineSystem(2)
    dist = counting_distribution(sys_t, TorusStrip(0.05), t=0.5,
                                 n_trials=200, seed=SEED)
    assert isinstance(dist, DiscreteDistribution)
    assert abs(dist.probs.sum() + dist.tail_mass - 1.0) < 1e-12
