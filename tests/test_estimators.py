import hashlib
import math
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from returnstats import estimators
from returnstats.distributions import DiscreteDistribution, empirical_distribution
from returnstats.dynamics import (CmlSystem, LinearInterval, LinearMod1System,
                                  TorusAffineSystem, sliding_window_values)
from returnstats.estimators import (ClusterAccumulator, ClusterStats,
                                    cluster_statistics, counting_distribution,
                                    kac_horizon)
from returnstats.targets import Ball, DiagonalStrip, TorusStrip

from strip_reference import entry_time_ratio_strip

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


def _counting_samples(monkeypatch, *args, **kwargs) -> np.ndarray:
    """The samples `counting_distribution` draws, in sample order."""
    seen = []
    monkeypatch.setattr(estimators, "empirical_distribution",
                        lambda values: seen.append(values) or empirical_distribution(values))
    counting_distribution(*args, **kwargs)
    return seen.pop()


DIGIT_CASES = [(LinearMod1System(2), Ball((0.3,), 0.01)),
               (LinearMod1System(3), Ball((0.5,), 0.02)),
               (TorusAffineSystem(2), TorusStrip(0.02))]


@pytest.mark.parametrize("system,target", DIGIT_CASES, ids=["a2", "a3", "torus"])
def test_counting_windows_read_disjoint_digits_of_one_orbit(system, target):
    # window k is points kS .. kS + N of the orbit, and those points read
    # digits kS .. (k+1)S - 1 alone, so no two windows share a digit
    n_points = kac_horizon(1.0, target.exact_measure(system.dimension)) + 1
    per_orbit, stride = system._counting_windows(n_points)
    assert stride == n_points + system.width - 1
    assert per_orbit == 2**16 // stride > 1
    length = (per_orbit - 1) * stride + n_points
    digits = system._digits(SEED, [4], length + system.width - 1)[0].copy()
    ((_, coords),) = system._orbit_slices(SEED, [4], length)
    for k in range(per_orbit):
        window = coords[0, k * stride : k * stride + n_points, -1]
        np.testing.assert_array_equal(window, sliding_window_values(
            digits[k * stride : (k + 1) * stride], system.a, system.width))


@pytest.mark.parametrize("system,target", DIGIT_CASES, ids=["a2", "a3", "torus"])
def test_counting_sample_i_is_window_i_mod_c_of_orbit_i_div_c(system, target, monkeypatch):
    mu = target.exact_measure(system.dimension)
    n_points = kac_horizon(1.0, mu) + 1
    per_orbit, stride = system._counting_windows(n_points)
    n_trials = 2 * per_orbit + 7  # the last orbit is cut short
    samples = _counting_samples(monkeypatch, system, target, t=1.0, n_trials=n_trials,
                                seed=SEED, workers=2)
    orbits = system.indicator_block(target, SEED, range(3), (per_orbit - 1) * stride + n_points)
    want = [orbits[i // per_orbit, i % per_orbit * stride:][:n_points].sum()
            for i in range(n_trials)]
    np.testing.assert_array_equal(samples, want)
    # a larger n_trials, past a multiple of c, leaves the earlier samples as they are
    for n in (1, per_orbit - 1, per_orbit + 1):
        np.testing.assert_array_equal(
            _counting_samples(monkeypatch, system, target, t=1.0, n_trials=n, seed=SEED),
            samples[:n])


# digests of counting_distribution(system, target, t=1, n_trials=40, seed=SEED)
# with one fresh orbit per trial, as written before the windows: N + W above
# 2^15 leaves one window an orbit, so these rows keep their bytes
ONE_WINDOW_ROWS = [
    (LinearMod1System(2), Ball((0.3,), 1e-5),
     "701200a93f657e40474aba0d380a2d27e18991bf47dceb1cb37506e6d36e5972"),
    (TorusAffineSystem(2), TorusStrip(1e-5),
     "8f4866363942fea5919bf08bd3af15e5a76293118be46693c2fb2ccdc397d907"),
    (LinearMod1System(3), Ball((0.5,), 1e-5),
     "36b0c35bf07294da47d645aca795aed27ffd22d36cd579c5d9e3032c81e6feb1"),
]


@pytest.mark.parametrize("system,target,digest", ONE_WINDOW_ROWS, ids=["a2", "torus", "a3"])
def test_a_row_of_one_window_an_orbit_keeps_its_bytes(system, target, digest):
    n_points = kac_horizon(1.0, target.exact_measure(system.dimension)) + 1
    assert system._counting_windows(n_points)[0] == 1
    cd = counting_distribution(system, target, t=1.0, n_trials=40, seed=SEED)
    assert hashlib.sha256(cd.to_json().encode()).hexdigest() == digest


def _homogeneity_p(a: np.ndarray, b: np.ndarray) -> float:
    """Chi-square p-value that two samples of counts share one law; the
    counts from the first whose pooled bin holds fewer than 10 are one bin."""
    size = max(a.max(), b.max()) + 1
    table = np.stack([np.bincount(a, minlength=size), np.bincount(b, minlength=size)])
    cut = int(np.argmax(np.append(table.sum(axis=0), 0) < 10))
    table = np.column_stack([table[:, :cut], table[:, cut:].sum(axis=1)])
    return float(chi2_contingency(table[:, table.sum(axis=0) > 0], correction=False).pvalue)


@pytest.mark.parametrize("system,target", [(TorusAffineSystem(2), TorusStrip(1e-3)),
                                           (LinearMod1System(3), Ball((0.5,), 1e-2))],
                         ids=["strip", "a3-fixed-point"])
def test_windowed_counting_law_matches_the_law_of_one_orbit_a_trial(system, target,
                                                                    monkeypatch):
    # the threshold p >= 1e-3 and the seeds were fixed before the first run;
    # the per-trial sample uses another master seed, so it shares no digit
    # with the windowed one
    n_trials = 20_000
    n_points = kac_horizon(1.0, target.exact_measure(system.dimension)) + 1
    assert system._counting_windows(n_points)[0] > 1
    windowed = _counting_samples(monkeypatch, system, target, t=1.0, n_trials=n_trials,
                                 seed=SEED)
    per_trial = np.concatenate([
        system.indicator_block(target, SEED + 1, range(i, i + 2000), n_points).sum(axis=1)
        for i in range(0, n_trials, 2000)])
    assert _homogeneity_p(windowed, per_trial) >= 1e-3


def test_counting_distribution_needs_mu_without_a_closed_form(monkeypatch):
    # a coupled lattice has no closed-form mu(U), so without `mu` the call
    # refuses before it builds an orbit; with `mu` it gives its pinned law
    system = CmlSystem(LinearInterval(2), 2, 0.1, [0.5, 0.5])
    target = DiagonalStrip(0.05)

    def refuse(*args):
        raise AssertionError("an orbit was built")

    monkeypatch.setattr(system, "_orbit_slices", refuse)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="mu is required"):
        counting_distribution(system, target, t=1.0, n_trials=300, seed=SEED)
    assert time.perf_counter() - t0 < 0.1
    monkeypatch.undo()
    cd = counting_distribution(system, target, t=1.0, n_trials=300, seed=SEED, mu=0.0975)
    assert hashlib.sha256(cd.to_json().encode()).hexdigest() == \
        "fee1f044e1cd376a3e9e5917806e96b0ba5be3b1ed46868ed125ae71d32dbebe"


def test_window_counter_matches_a_dense_count_on_every_short_row():
    # every 0/1 row of length 1 .. 9 and every window of every width, so runs
    # touch the row's ends and every window edge from either side
    for n in range(1, 10):
        rows = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(bool)
        cum = np.concatenate([np.zeros((rows.shape[0], 1), np.int64),
                              rows.cumsum(axis=1)], axis=1)
        for width in range(1, n + 1):
            lo = np.arange(n - width + 1)
            want = cum[:, lo + width] - cum[:, lo]
            for row, counts in zip(rows, want):
                got = estimators._window_counts(*estimators._hit_runs(row), lo, width)
                assert got.tolist() == counts.tolist(), (row, width)
        # the rows laid end to end, as a group's block is counted
        lo = (np.arange(rows.shape[0])[:, None] * n + np.arange(n)).ravel()
        got = estimators._window_counts(*estimators._hit_runs(rows.ravel()), lo, 1)
        assert got.tolist() == rows.ravel().tolist()


RUNS_CASES = [(LinearMod1System(2), Ball((0.3,), 0.01)),
              (LinearMod1System(3), Ball((0.5,), 0.02)),
              (TorusAffineSystem(2), TorusStrip(0.02)),
              (CmlSystem(LinearInterval(2), 2, 0.1, [0.5, 0.5], burn_in=64),
               DiagonalStrip(0.05))]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("system,target", RUNS_CASES, ids=["a2", "a3", "torus", "cml-pair"])
def test_counting_from_cluster_runs_draws_the_samples_of_built_orbits(system, target,
                                                                      workers, monkeypatch):
    # windows read off the cluster orbits' hit runs are the windows of the same
    # orbits built afresh: with runs covering every counting orbit, some of
    # them, none (cluster orbits one point shorter than a counting orbit), and
    # with n_trials below the windows an orbit
    def cluster_runs(orbit_len):
        runs = []
        cs = cluster_statistics(system, target, K=3, min_entries=100, max_orbit=16 * orbit_len,
                                seed=SEED, orbit_len=orbit_len, workers=workers, runs=runs)
        assert len(runs) == cs.n_orbits == 16
        return cs, (runs, orbit_len)

    cs, _ = cluster_runs(2000)
    mu = None if system.preserves_lebesgue else cs.mu_hat  # a coupled lattice's mu_hat
    n_points = kac_horizon(1.0, mu or target.exact_measure(system.dimension)) + 1
    per_orbit, stride = system._counting_windows(n_points)
    orbit_len = (per_orbit - 1) * stride + n_points
    covering, short = cluster_runs(orbit_len)[1], cluster_runs(orbit_len - 1)[1]
    for n_trials in (16 * per_orbit, 16 * per_orbit - 7, 18 * per_orbit + 3,
                     max(1, per_orbit // 2)):
        kw = dict(t=1.0, n_trials=n_trials, seed=SEED, mu=mu, workers=workers)
        want = _counting_samples(monkeypatch, system, target, **kw)
        for runs in (covering, short):
            got = _counting_samples(monkeypatch, system, target, runs=runs, **kw)
            assert got.tolist() == want.tolist(), (n_trials, runs[1])


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


def test_mu_hat_is_the_hit_rate_off_the_last_2K_plus_1_points():
    # K = 2: a hit in the last 5 points of its row is no entry, and those
    # points leave the count; the zero gaps reach past 2K+2 = 6, so add_runs
    # cuts them
    K = 2
    rows = [np.zeros(n, dtype=bool) for n in (40, 25, 60)]
    rows[0][[0, 1, 2, 20, 36, 39]] = True   # 36 and 39 are in the last 5
    rows[1][[10, 19, 20, 24]] = True        # 20 and 24 are
    rows[2][[7, 8, 30, 31, 32, 54, 55]] = True  # 55 is
    # ones in the first n - 2K - 1 points over that count: (4 + 2 + 6) / (35 + 20 + 55)
    want = 12 / 110
    dense, sparse = ClusterAccumulator(K=K), ClusterAccumulator(K=K)
    for ind in rows:
        dense.add_orbit(ind)
        sparse.add_runs(*_runs_of(ind), ind.size)
    assert sparse.total_steps == dense.total_steps == 125
    for acc in (dense, sparse):
        assert acc.finalize(insufficient=False).mu_hat == want


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
    # after each row, so each orbit's increments must agree.  add_orbit is
    # add_runs over the runs it returns, so checking those runs covers add_runs
    for n in range(2 * K + 2, 15):
        ref, dense = ClusterAccumulator(K=K), ClusterAccumulator(K=K)
        bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
        for ind in bits.astype(bool):
            _dense_reference(ref, ind)
            starts, ends = dense.add_orbit(ind)
            want_starts, want_ends = _runs_of(ind)
            assert np.array_equal(starts, want_starts) and np.array_equal(ends, want_ends)
            assert _state(dense) == _state(ref)
        _assert_same_tallies(ref, dense)


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


def test_merging_contiguous_parts_changes_no_bit():
    # the cut points fall inside, at the start and at the end of the rows,
    # so empty parts are merged too; the per-orbit ratios, which the batch
    # SEs read, must keep their order
    rng = np.random.default_rng(11)
    rows = [rng.random(rng.integers(40, 400)) < p for p in rng.uniform(0.01, 0.5, 13)]
    rows.append(np.zeros(60, dtype=bool))  # an orbit without entries
    whole = ClusterAccumulator(K=3)
    for row in rows:
        whole.add_orbit(row)
    for cuts in ([5, 9], [0, 14], [1, 2, 3, 13]):
        merged = ClusterAccumulator(K=3)
        for lo, hi in zip([0] + cuts, cuts + [len(rows)]):
            part = ClusterAccumulator(K=3)
            for row in rows[lo:hi]:
                part.add_orbit(row)
            merged.merge(part)
        _assert_same_tallies(merged, whole)
        assert merged.finalize(False).to_json() == whole.finalize(False).to_json()
    with pytest.raises(ValueError, match="different K"):
        whole.merge(ClusterAccumulator(K=2))


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


# digit systems with several orbit groups per batch, and a lattice whose
# batch is one lockstep group
SPLIT_CASES = [
    (TorusAffineSystem(2), TorusStrip(0.02), 20_000, 20.0, None),
    (LinearMod1System(3), Ball((0.37,), 0.02), 20_000, 20.0, None),
    (CmlSystem(LinearInterval(2), 2, 0.1, [0.5, 0.5], burn_in=64),
     DiagonalStrip(0.05), 2_000, 2.0, 0.0975),
]


@pytest.mark.parametrize("system,target,orbit_len,t,mu", SPLIT_CASES,
                         ids=["torus", "a3", "cml-pair"])
def test_estimators_are_identical_at_workers_1_2_and_3(system, target, orbit_len, t, mu,
                                                       monkeypatch):
    # the results, and the trials of every indicator_block call: each orbit
    # group is one task, so every worker count builds the same groups
    calls, lock = [], threading.Lock()
    block = system.indicator_block

    def record(target, master_seed, trial_indices, n_points):
        with lock:
            calls.append((n_points, list(trial_indices)))
        return block(target, master_seed, trial_indices, n_points)

    monkeypatch.setattr(system, "indicator_block", record)

    def run(workers):
        calls.clear()
        cs = cluster_statistics(system, target, K=4, min_entries=2000, max_orbit=10**7,
                                seed=SEED, orbit_len=orbit_len, workers=workers)
        cluster_calls = len(calls)
        cd = counting_distribution(system, target, t=t, n_trials=300, seed=SEED, mu=mu,
                                   workers=workers)
        return cs.to_json(), cd.to_json(), (cluster_calls, len(calls)), sorted(calls)

    one = run(1)
    # both estimators built their orbits through the recorded calls
    cluster_calls, all_calls = one[2]
    assert 0 < cluster_calls < all_calls
    assert run(2) == one and run(3) == one


def test_working_set_is_one_group_per_worker():
    # at workers=1 neither a 16-orbit cluster batch nor the counting phase
    # holds a batch-sized indicator block: one torus cluster batch stays below
    # 16 * orbit_len bytes, the counting phase below n_trials * (N + 1)
    orbit_len, n_trials, mu = 200_000, 8000, 2e-3
    tracemalloc.start()
    try:
        cs = cluster_statistics(TorusAffineSystem(2), TorusStrip(1e-3), K=50, min_entries=100,
                                max_orbit=10**8, seed=SEED, orbit_len=orbit_len)
        cluster_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        counting_distribution(TorusAffineSystem(2), TorusStrip(1e-3), t=1.0,
                              n_trials=n_trials, seed=SEED)
        counting_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cs.n_orbits == 16
    assert cluster_peak < 16 * orbit_len
    assert counting_peak < n_trials * (kac_horizon(1.0, mu) + 1)


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
# entry-time ratio, the counting law's mass off zero
# ---------------------------------------------------------------------------


def _ratio_from_counting_law(system, target, L, mu, n_trials, seed):
    """P_hat(tau_U <= L) / (L mu): at t = (L - 1/2) mu each counting sample
    holds L points, and tau_U <= L is a hit among them."""
    cd = counting_distribution(system, target, t=(L - 0.5) * mu, n_trials=n_trials,
                               seed=seed, mu=mu)
    assert kac_horizon((L - 0.5) * mu, mu) == L - 1
    return (1.0 - cd.probs[0]) / (L * mu)


def test_entry_time_ratio_near_independent_prediction():
    # ball around a non-periodic point: short returns are negligible, so
    # P(tau <= L) is close to the independent value 1 - (1-mu)^L
    rho, L = 1e-3, 100
    mu = 2 * rho
    ratio = _ratio_from_counting_law(LinearMod1System(2), Ball((1 / math.sqrt(2),), rho),
                                     L, mu, n_trials=20_000, seed=SEED)
    want = (1.0 - (1.0 - mu) ** L) / (L * mu)
    assert abs(ratio - want) < 0.05


def test_counting_mass_off_zero_is_the_exact_strip_entry_ratio():
    # at rho = 2^-7 and L = 50 the strip's ratio is known exactly; the
    # estimate is a binomial proportion over independent windows, so it lies
    # within 4 standard errors of the exact value
    n, L, n_trials = 7, 50, 20_000
    mu = 2.0 ** (1 - n)
    ratio = _ratio_from_counting_law(TorusAffineSystem(2), TorusStrip(2.0**-n), L, mu,
                                     n_trials=n_trials, seed=SEED)
    exact = float(entry_time_ratio_strip(L, n))
    p = exact * L * mu
    se = math.sqrt(p * (1 - p) / n_trials) / (L * mu)
    assert abs(ratio - exact) < 4 * se


MAP_ESTIMATORS = {
    "cluster": lambda **kw: cluster_statistics(LinearMod1System(2), Ball((0.3,), 0.1), K=3,
                                               min_entries=100, max_orbit=10**5,
                                               orbit_len=5000, **kw),
    "counting": lambda **kw: counting_distribution(LinearMod1System(2), Ball((0.3,), 0.1),
                                                   t=1.0, n_trials=10, **kw),
}


@pytest.mark.parametrize("estimator", MAP_ESTIMATORS.values(), ids=MAP_ESTIMATORS)
@pytest.mark.parametrize("workers", [0, -3])
def test_map_estimators_refuse_fewer_than_one_worker(estimator, workers):
    # each used to run serially
    with pytest.raises(ValueError, match="workers must be >= 1"):
        estimator(seed=SEED, workers=workers)


def test_estimators_take_an_integer_master_seed():
    # a (master_seed, trial) pair used to run the master seed and drop the trial
    from returnstats.regenerative import (RegenSpec, regen_cluster_stats,
                                          regen_counting_distribution)

    spec = RegenSpec.smith(100)
    estimators = [*MAP_ESTIMATORS.values(),
                  lambda seed: regen_cluster_stats(spec, 10, 3, 2, seed, stream_len=1000),
                  lambda seed: regen_counting_distribution(spec, 10, 1.0, 5, seed)]
    for estimator in estimators:
        with pytest.raises(TypeError):
            estimator(seed=(7, 3))
        estimator(seed=np.uint64(7))


def test_counting_distribution_rejects_no_trials():
    with pytest.raises(ValueError, match="n_trials"):
        counting_distribution(LinearMod1System(2), Ball((0.3,), 0.01), t=1.0, n_trials=0,
                              seed=SEED, mu=0.02)


def test_counting_distribution_is_a_distribution():
    from returnstats.targets import TorusStrip

    sys_t = TorusAffineSystem(2)
    dist = counting_distribution(sys_t, TorusStrip(0.05), t=0.5,
                                 n_trials=200, seed=SEED)
    assert isinstance(dist, DiscreteDistribution)
    assert abs(dist.probs.sum() + dist.tail_mass - 1.0) < 1e-12
