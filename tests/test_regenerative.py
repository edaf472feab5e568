import sys

import numpy as np
import pytest

from returnstats import regenerative
from returnstats.distributions import ClusterSizeDist, empirical_distribution
from returnstats.estimators import ClusterAccumulator
from returnstats.regenerative import (_GUIDE_BUCKETS, _SLICE_BLOCKS, RegenSpec,
                                      SymbolStream, _block_lengths, _block_slices,
                                      _size_biased_first_block,
                                      generate_stationary, level_measure,
                                      regen_cluster_stats,
                                      regen_counting_distribution,
                                      stationary_blocks, stationary_hit_runs)
from returnstats.rngstreams import trial_rng

SEED = 424242
LAM = ClusterSizeDist(np.array([0.5, 0.3, 0.2]))


def test_spec_validation():
    with pytest.raises(ValueError):
        RegenSpec(np.array([0.5, 0.4]), "smith")           # not normalized
    with pytest.raises(ValueError):
        RegenSpec(np.array([1.0]), "bogus")
    with pytest.raises(ValueError):
        RegenSpec(np.array([1.0]), "fixed_lengths")        # needs cluster law


def test_symbol_law_is_inverse_square():
    spec = RegenSpec.smith(k_cap=100)
    k = np.arange(1, 101, dtype=float)
    want = (1 / k**2) / (1 / k**2).sum()
    np.testing.assert_allclose(spec.symbol_probs, want, atol=1e-15)
    assert spec.k_cap == 100


def test_level_measure_is_the_symbol_tail():
    spec = RegenSpec.smith(k_cap=50)
    assert level_measure(spec, 0) == pytest.approx(1.0)
    assert level_measure(spec, 10) == pytest.approx(spec.symbol_probs[10:].sum())
    with pytest.raises(ValueError):
        level_measure(spec, -1)


def test_mean_block_length():
    assert RegenSpec.smith(100).mean_block_length() == 2.0
    assert RegenSpec.fixed_lengths(LAM, 100).mean_block_length() == pytest.approx(1.7)


def test_smith_block_lengths_conditional_law():
    # given symbol k, the block is long (length k+1) with probability 1/k
    spec = RegenSpec.smith(10)
    rng = trial_rng(SEED, 0)
    symbols = np.full(200_000, 2, dtype=np.int64)
    lens = _block_lengths(spec, symbols, rng)
    assert set(np.unique(lens)) == {1, 3}
    frac_long = np.mean(lens == 3)
    assert abs(frac_long - 0.5) < 4 * np.sqrt(0.25 / symbols.size)
    # E[length | k] = 2 for every k
    assert abs(lens.mean() - 2.0) < 0.01


def test_fixed_lengths_block_law():
    spec = RegenSpec.fixed_lengths(LAM, 100)
    rng = trial_rng(SEED, 1)
    lens = _block_lengths(spec, np.ones(100_000, dtype=np.int64), rng)
    freqs = np.bincount(lens, minlength=4)[1:4] / lens.size
    np.testing.assert_allclose(freqs, [0.5, 0.3, 0.2], atol=0.01)


def test_size_biased_first_block_law():
    # the block covering a stationary time is length-biased: ell lambda_ell
    spec = RegenSpec.fixed_lengths(LAM, 100)
    rng = trial_rng(SEED, 2)
    lens = np.array([_size_biased_first_block(spec, rng)[1] for _ in range(20_000)])
    want = np.arange(1, 4) * LAM.lambdas / 1.7
    freqs = np.bincount(lens, minlength=4)[1:4] / lens.size
    for i in range(3):
        se = np.sqrt(want[i] * (1 - want[i]) / lens.size)
        assert abs(freqs[i] - want[i]) < 4 * se


def test_stream_blocks_are_constant_runs():
    spec = RegenSpec.fixed_lengths(LAM, 50)
    s = generate_stationary(spec, 5000, (SEED, 0))
    assert s.symbols.size == 5000
    b = s.block_boundaries
    assert b[0] == 0 and np.all(np.diff(b) >= 1)
    for i in range(min(200, b.size - 1)):
        run = s.symbols[b[i] : b[i + 1]]
        assert np.all(run == run[0])
        if i > 0:  # interior blocks obey the block rule's length support
            assert 1 <= run.size <= 3


def test_stationary_symbol_frequencies():
    # mean block length is symbol-independent in both rules, so the
    # stationary symbol law equals gamma
    spec = RegenSpec.smith(20)
    s = generate_stationary(spec, 400_000, (SEED, 3))
    freq1 = np.mean(s.symbols == 1)
    want = spec.symbol_probs[0]
    assert abs(freq1 - want) < 0.01


def test_streams_are_deterministic_per_trial():
    spec = RegenSpec.smith(100)
    a = generate_stationary(spec, 1000, (SEED, 7))
    b = generate_stationary(spec, 1000, (SEED, 7))
    c = generate_stationary(spec, 1000, (SEED, 8))
    np.testing.assert_array_equal(a.symbols, b.symbols)
    assert not np.array_equal(a.symbols, c.symbols)


def test_symbol_stream_validation():
    s = SymbolStream(np.array([2, 2, 5]), np.array([0, 2]))
    assert s.symbols.dtype == np.int64 and s.block_boundaries.dtype == np.int64
    with pytest.raises(ValueError):
        SymbolStream(np.array([1]), np.array([1]))


def test_regen_cluster_stats_extremal_index_identity():
    # extremal index of level sets = 1 / mean cluster size = 1/1.7
    spec = RegenSpec.fixed_lengths(LAM)
    cs = regen_cluster_stats(spec, m=200, K=10, n_streams=8, seed=SEED)
    assert abs(cs.extremal_index - 1 / 1.7) < 0.05
    assert cs.n_entries > 1000


def test_regen_cluster_stats_zero_measure_level():
    spec = RegenSpec.smith(10)
    with pytest.raises(ValueError):
        regen_cluster_stats(spec, m=10, K=5, n_streams=2, seed=SEED)


def test_regen_counting_distribution_mean():
    spec = RegenSpec.fixed_lengths(LAM, 50)
    m = 5
    mu = level_measure(spec, m)
    t, n_trials = 1.0, 3000
    dist = regen_counting_distribution(spec, m, t, n_trials, SEED)
    n_points = int(np.floor(t / mu)) + 1
    k = np.arange(dist.probs.size)
    mean = float(k @ dist.probs)
    second = float((k**2) @ dist.probs)
    se = np.sqrt(max(second - mean**2, 0.0) / n_trials)
    assert abs(mean - n_points * mu) < 4 * se + 1e-9
    assert dist.n_samples == n_trials


# ---------------------------------------------------------------------------
# block streams, the guide-table draw and the size-biased cache against
# plain references
# ---------------------------------------------------------------------------


def _first_block_reference(spec, rng):
    """The size-biased first block with its weights rebuilt on every call."""
    g = spec.symbol_probs
    k = np.arange(1, g.size + 1)
    if spec.block_rule == "smith":
        w = np.concatenate([g * (1.0 - 1.0 / k) * 1.0, g * (1.0 / k) * (k + 1.0)])
        i = rng.choice(w.size, p=w / w.sum())
        return (int(i + 1), 1) if i < g.size else (int(i - g.size + 1), int(i - g.size + 2))
    lam = spec.cluster_dist.lambdas
    ell = np.arange(1, lam.size + 1)
    w = ell * lam
    length = int(rng.choice(ell, p=w / w.sum()))
    return int(rng.choice(k, p=g)), length


def _chunked_reference(spec, length, seed):
    """The stationary blocks drawn a whole chunk at a time: each chunk's
    symbols by one plain cdf search, then its lengths by one draw, and the
    blocks cut at the first one that reaches `length`.  Also returns the
    number of chunks drawn and whether the last block was cut."""
    rng = trial_rng(*seed)
    sym0, len0 = _first_block_reference(spec, rng)
    phase = int(rng.integers(0, len0))
    syms, lens = [np.array([sym0])], [np.array([len0 - phase])]
    total, chunks = len0 - phase, 0
    while total < length:
        chunks += 1
        n = max(64, int((length - total) / spec.mean_block_length() * 1.2))
        s = np.searchsorted(spec._symbol_cdf(), rng.random(n), side="right") + 1
        if spec.block_rule == "smith":
            lens.append(np.where(rng.random(n) < 1.0 / s, s + 1, 1))
        else:
            lam = spec.cluster_dist.lambdas
            lens.append(rng.choice(np.arange(1, lam.size + 1), size=n, p=lam))
        syms.append(s)
        total += int(lens[-1].sum())
    syms, lens = np.concatenate(syms), np.concatenate(lens)
    ends = np.cumsum(lens)
    last = int(np.searchsorted(ends, length))
    cut = bool(ends[last] > length)
    lens = lens[: last + 1]
    lens[last] -= ends[last] - length
    return syms[: last + 1], lens, phase, chunks, cut


def _dense_reference(spec, length, seed):
    """Symbol-by-symbol stationary stream: the chunked reference expanded.
    Also says whether `length` fell on a block boundary."""
    syms, lens, phase, _, cut = _chunked_reference(spec, length, seed)
    starts = np.cumsum(lens) - lens
    return np.repeat(syms, lens), starts, phase, not cut


@pytest.mark.parametrize("spec", [RegenSpec.smith(100), RegenSpec.fixed_lengths(LAM, 100)],
                         ids=["smith", "fixed_lengths"])
def test_stationary_blocks_expand_to_the_dense_reference(spec):
    cases = {"mid_block": 0, "boundary": 0}
    for length in [*range(1, 120), 5000, 20_011]:
        for trial in range(3):
            seed = (SEED, trial)
            symbols, boundaries, phase, on_boundary = _dense_reference(spec, length, seed)
            block_syms, block_lens, block_phase = stationary_blocks(spec, length, seed)
            assert block_lens.sum() == length and np.all(block_lens >= 1)
            np.testing.assert_array_equal(np.repeat(block_syms, block_lens), symbols)
            np.testing.assert_array_equal(np.cumsum(block_lens) - block_lens, boundaries)
            assert block_phase == phase
            s = generate_stationary(spec, length, seed)
            np.testing.assert_array_equal(s.symbols, symbols)
            np.testing.assert_array_equal(s.block_boundaries, boundaries)
            assert s.phase == phase
            cases["boundary" if on_boundary else "mid_block"] += 1
    assert min(cases.values()) > 10


# laws whose short streams often need a second chunk of blocks: a smith law
# on symbols 1 and 40, and a cluster-size law spread wide
TWO_SYMBOLS = RegenSpec(np.array([0.5] + [0.0] * 38 + [0.5]), "smith")
SPIKY = ClusterSizeDist(np.array([0.9] + [0.0] * 18 + [0.1]))
CHUNK_SIZES = (_SLICE_BLOCKS - 1, _SLICE_BLOCKS, _SLICE_BLOCKS + 1, 3 * _SLICE_BLOCKS + 7)


def _length_for_first_chunk(spec, seed, n_blocks):
    """A stream length whose first chunk draws exactly `n_blocks` blocks."""
    rng = trial_rng(*seed)
    _, len0 = _first_block_reference(spec, rng)
    rest = len0 - int(rng.integers(0, len0))
    mean = spec.mean_block_length()

    def chunk(length):
        return max(64, int((length - rest) / mean * 1.2))

    length = rest + int(n_blocks * mean / 1.2)
    while chunk(length) < n_blocks:
        length += 1
    while chunk(length) > n_blocks:
        length -= 1
    assert chunk(length) == n_blocks
    return length


def _check_slices(spec, length, seed, levels):
    """`stationary_blocks` and `stationary_hit_runs` at each level against the
    chunked reference; returns the reference's chunk count and cut flag."""
    syms, lens, phase, chunks, cut = _chunked_reference(spec, length, seed)
    got_syms, got_lens, got_phase = stationary_blocks(spec, length, seed)
    assert got_syms.dtype == got_lens.dtype == np.int64
    np.testing.assert_array_equal(got_syms, syms)
    np.testing.assert_array_equal(got_lens, lens)
    assert got_phase == phase
    assert all(s.size <= regenerative._SLICE_BLOCKS
               for s, _, _ in _block_slices(spec, length, seed)[1])
    ends = np.cumsum(lens)
    for m in levels:
        starts, stops = stationary_hit_runs(spec, length, seed, m)
        np.testing.assert_array_equal(starts, (ends - lens)[syms > m])
        np.testing.assert_array_equal(stops, ends[syms > m])
    # a level below the first symbol makes the block covering index 0 a hit
    assert stationary_hit_runs(spec, length, seed, int(syms[0]) - 1)[0][0] == 0
    return chunks, cut


@pytest.mark.parametrize("spec", [TWO_SYMBOLS, RegenSpec.fixed_lengths(SPIKY, 100)],
                         ids=["smith", "fixed_lengths"])
def test_slices_equal_the_chunked_reference(spec):
    cases = [((SEED, trial), _length_for_first_chunk(spec, (SEED, trial), n))
             for n in CHUNK_SIZES for trial in range(3)]
    cases += [((SEED, trial), length) for trial in range(8)
              for length in (1, 2, 3, 5, 40, 100, 129, 150, 200)]
    seen = set()
    for seed, length in cases:
        chunks, cut = _check_slices(spec, length, seed, (0, 1, 3, 39, 40))
        seen.add("first block covers the stream" if chunks == 0 else
                 "one chunk" if chunks == 1 else "several chunks")
        seen.add("last block cut" if cut else "ends on a boundary")
    assert seen == {"first block covers the stream", "one chunk", "several chunks",
                    "last block cut", "ends on a boundary"}


@pytest.mark.parametrize("spec", [TWO_SYMBOLS, RegenSpec.fixed_lengths(SPIKY, 100)],
                         ids=["smith", "fixed_lengths"])
def test_streams_do_not_depend_on_the_slice_size(spec, monkeypatch):
    # tiny slices put slice ends everywhere, including on the last block
    for size in (1, 2, 5):
        monkeypatch.setattr(regenerative, "_SLICE_BLOCKS", size)
        for length in range(1, 150, 7):
            for trial in range(3):
                _check_slices(spec, length, (SEED, trial), (3, 39))


def test_shipped_smith_slices_equal_the_chunked_reference():
    spec = RegenSpec.smith(3000)
    for n in CHUNK_SIZES:
        for trial in range(2):
            _check_slices(spec, _length_for_first_chunk(spec, (SEED, trial), n),
                          (SEED, trial), (0, 3, 1000))


def test_regen_estimators_accept_the_smallest_valid_inputs():
    spec = RegenSpec.smith(100)
    regen_cluster_stats(spec, m=10, K=1, n_streams=1, seed=SEED, stream_len=1000, workers=1)
    regen_counting_distribution(spec, m=10, t=0.5, n_trials=1, seed=SEED)


@pytest.mark.parametrize("t", [0.0, -1.0, np.inf, np.nan])
def test_regen_counting_distribution_rejects_a_bad_horizon(t):
    with pytest.raises(ValueError, match="t must be finite and positive"):
        regen_counting_distribution(RegenSpec.smith(100), 10, t, 10, SEED)


def test_regen_counting_distribution_rejects_no_trials():
    with pytest.raises(ValueError, match="n_trials must be >= 1"):
        regen_counting_distribution(RegenSpec.smith(100), 10, 1.0, 0, SEED)


def test_regen_cluster_stats_rejects_an_empty_window():
    with pytest.raises(ValueError, match="K must be >= 1"):
        regen_cluster_stats(RegenSpec.smith(100), 10, 0, 2, SEED, stream_len=1000)


def test_regen_cluster_stats_rejects_no_streams():
    with pytest.raises(ValueError, match="n_streams must be >= 1"):
        regen_cluster_stats(RegenSpec.smith(100), 10, 5, 0, SEED, stream_len=1000)


def test_regen_cluster_stats_rejects_no_workers():
    with pytest.raises(ValueError, match="workers must be >= 1"):
        regen_cluster_stats(RegenSpec.smith(100), 10, 5, 2, SEED, stream_len=1000, workers=0)


@pytest.mark.parametrize("spec", [RegenSpec.smith(3000), RegenSpec.fixed_lengths(LAM, 100)],
                         ids=["smith", "fixed_lengths"])
def test_regen_cluster_stats_do_not_depend_on_workers(spec):
    one = regen_cluster_stats(spec, 30, 5, 5, SEED, stream_len=50_000, workers=1)
    # fresh specs, so the pooled calls start with cold caches, and more
    # workers than streams or cores with frequent thread switches
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (2, 8):
            fresh = RegenSpec(spec.symbol_probs, spec.block_rule, spec.cluster_dist)
            pooled = regen_cluster_stats(fresh, 30, 5, 5, SEED, stream_len=50_000,
                                         workers=workers)
            assert pooled.to_json() == one.to_json()
    finally:
        sys.setswitchinterval(interval)


def test_regen_tallies_equal_the_dense_reference():
    # the block tallies print what dense indicator rows of the same streams give
    for spec, m, K, n_streams, stream_len in (
            (RegenSpec.smith(3000), 30, 10, 4, 60_000),
            (RegenSpec.smith(3000), 3, 2, 2, 20_000),
            (RegenSpec.fixed_lengths(LAM, 100), 10, 3, 3, 30_000)):
        rows = (generate_stationary(spec, stream_len, (SEED, t)).symbols > m
                for t in range(n_streams))
        acc = ClusterAccumulator(K=K)
        for row in rows:
            acc.add_orbit(row)
        want = acc.finalize(insufficient=False)
        got = regen_cluster_stats(spec, m, K, n_streams, SEED, stream_len=stream_len)
        assert got.to_json() == want.to_json()
        assert got.to_csv() == want.to_csv()

        t = 2.0
        n_points = int(np.floor(t / level_measure(spec, m))) + 1
        counts = [np.count_nonzero(generate_stationary(spec, n_points, (SEED, i)).symbols > m)
                  for i in range(300)]
        got = regen_counting_distribution(spec, m, t, 300, SEED)
        assert got.to_json() == empirical_distribution(np.array(counts)).to_json()


class _StubRng:
    """Hands out prescribed uniforms in place of rng.random."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, n):
        assert n == self.u.size
        return self.u.copy()


# a law whose plain cumulative sums reach 1.0000000000000002 before its
# last, zero-probability symbol
_OVERSHOOT = RegenSpec(np.array([0.15324321880937372, 0.1741020222634683,
                                 0.16984617858461468, 0.02639650050407304,
                                 0.17258204177922165, 0.15790905335663924,
                                 0.14592098470260945, 0.0]), "smith")


@pytest.mark.parametrize("spec", [RegenSpec.smith(10), RegenSpec.smith(100),
                                  RegenSpec.smith(1000), RegenSpec.smith(3000),
                                  RegenSpec.fixed_lengths(LAM, 100), _OVERSHOOT],
                         ids=["smith10", "smith100", "smith1000", "smith3000",
                              "fixed_lengths", "overshoot"])
def test_guide_table_draw_equals_the_cdf_search(spec):
    cdf = spec._symbol_cdf()
    assert cdf[-1] == 1.0 and np.all(np.diff(cdf) >= 0)
    edges = np.arange(_GUIDE_BUCKETS) / _GUIDE_BUCKETS
    u = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0),
                        edges, np.nextafter(edges, 0.0), [0.0, np.nextafter(1.0, 0.0)]])
    u = u[(u >= 0.0) & (u < 1.0)]
    got = spec.draw_symbols(u.size, _StubRng(u))
    np.testing.assert_array_equal(got, np.searchsorted(cdf, u, side="right") + 1)
    assert got.min() >= 1 and got.max() <= spec.k_cap
    # the largest uniform below 1 draws the last symbol of positive
    # probability (k_cap in the shipped laws), never k_cap + 1
    last = np.flatnonzero(spec.symbol_probs)[-1] + 1
    assert spec.draw_symbols(1, _StubRng([np.nextafter(1.0, 0.0)]))[0] == last


def test_symbol_cdf_ends_at_one():
    # the plain cumulative sums fall short of 1 here, which let a u above
    # them draw symbol k_cap + 1
    for k_cap in (100, 1000):
        spec = RegenSpec.smith(k_cap)
        assert np.cumsum(spec.symbol_probs)[-1] < 1.0
        assert spec._symbol_cdf()[-1] == 1.0


@pytest.mark.parametrize("spec", [RegenSpec.smith(500), RegenSpec.fixed_lengths(LAM, 100),
                                  RegenSpec.smith(), RegenSpec.fixed_lengths(LAM)],
                         ids=["smith", "fixed_lengths", "smith_1e5", "fixed_lengths_1e5"])
def test_cached_size_biased_weights_draw_the_same_blocks(spec):
    # consecutive draws of one stream, then the first draw of fresh trial
    # streams, each against rng.choice and followed by the same next draw
    a, b = trial_rng(SEED, 11), trial_rng(SEED, 11)
    got = [_size_biased_first_block(spec, a) for _ in range(200)]
    want = [_first_block_reference(spec, b) for _ in range(200)]
    assert got == want
    assert a.random() == b.random()
    for trial in range(100):
        a, b = trial_rng(SEED, trial), trial_rng(SEED, trial)
        assert _size_biased_first_block(spec, a) == _first_block_reference(spec, b)
        assert a.random() == b.random()
