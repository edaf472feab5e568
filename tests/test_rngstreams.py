import os
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from returnstats.rngstreams import rng_ahead, trial_rng

SRC = Path(__file__).resolve().parents[1] / "src"


def _reference(master_seed, trial_index, substream=None):
    key = (trial_index,) if substream is None else (trial_index, substream)
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=master_seed, spawn_key=key)))


def _state(rng):
    """`rng`'s Philox state as comparable plain values."""
    st = rng.bit_generator.state
    return (tuple(st["state"]["counter"]), tuple(st["state"]["key"]),
            tuple(st["buffer"]), st["buffer_pos"], st["has_uint32"], st["uinteger"])


def _check_ahead(rng, offsets):
    """`rng_ahead(rng, n)` gives `rng`'s raw words from n on, for each n,
    and leaves `rng` as it was."""
    before = _state(rng)
    ahead = [rng_ahead(rng, n).bit_generator.random_raw(9) for n in offsets]
    assert _state(rng) == before
    want = rng.bit_generator.random_raw(max(offsets) + 9)
    for n, got in zip(offsets, ahead):
        np.testing.assert_array_equal(got, want[n : n + 9])


AHEAD_OFFSETS = [*range(10), 2**16 - 1, 2**16, 2**16 + 1]


@pytest.mark.parametrize("drawn", [0, 1, 2, 3, 4, 7])
def test_rng_ahead_continues_the_raw_stream(drawn):
    # misaligned starts: `drawn` words already taken from a 4-word block
    rng = trial_rng(31, 4)
    rng.bit_generator.random_raw(drawn)
    _check_ahead(rng, AHEAD_OFFSETS)


def test_rng_ahead_after_a_buffered_32_bit_half():
    # integers(0, 5) draws one 32-bit half and keeps the other; 64-bit
    # draws never read it, so the positioned stream's doubles are rng's
    rng = trial_rng(31, 4)
    rng.integers(0, 5)
    assert rng.bit_generator.state["has_uint32"] == 1
    _check_ahead(rng, AHEAD_OFFSETS)
    rng = trial_rng(31, 4)
    rng.integers(0, 5)
    ahead = rng_ahead(rng, 5).random(20)
    rng.random(5)
    np.testing.assert_array_equal(ahead, rng.random(20))


@pytest.mark.parametrize("counter", [2**64 - 2, 2**128 - 1, 2**256 - 2])
def test_rng_ahead_carries_and_wraps_the_counter(counter):
    # past 2^64 blocks the counter carries into its next word, and it wraps
    # at 2^256 as Philox's own does
    key = trial_rng(31, 4).bit_generator.state["state"]["key"]
    words = np.array([counter >> 64 * i & (1 << 64) - 1 for i in range(4)], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(counter=words, key=key))
    rng.bit_generator.random_raw(3)
    _check_ahead(rng, [0, 1, 5, 8, 13])


def test_rng_ahead_rejects_a_negative_offset():
    with pytest.raises(ValueError, match="non-negative"):
        rng_ahead(trial_rng(31, 4), -1)


def test_same_key_same_stream():
    a = trial_rng(123, 5).random(100)
    b = trial_rng(123, 5).random(100)
    np.testing.assert_array_equal(a, b)


def test_distinct_keys_distinct_streams():
    base = trial_rng(123, 5).random(100)
    assert not np.array_equal(base, trial_rng(123, 6).random(100))
    assert not np.array_equal(base, trial_rng(124, 5).random(100))
    assert not np.array_equal(base, trial_rng(123, 5, substream=1).random(100))


def test_substream_is_stable():
    a = trial_rng(9, 2, substream=7).random(10)
    b = trial_rng(9, 2, substream=7).random(10)
    np.testing.assert_array_equal(a, b)


def test_keys_match_seed_sequence_bit_for_bit():
    # master seeds of one and two 32-bit words; trial indices of one, two and
    # (2^40) two words with a nonzero high word
    for m in (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1):
        for t in (0, 1, 2**32 - 1, 2**32, 2**40):
            for s in (None, 1, 3):
                case = (m, t, s)
                key = (t,) if s is None else (t, s)
                np.testing.assert_array_equal(
                    trial_rng(*case).bit_generator.seed_seq.generate_state(2, np.uint64),
                    np.random.SeedSequence(entropy=m, spawn_key=key).generate_state(2, np.uint64),
                    err_msg=str(case))
                np.testing.assert_array_equal(
                    trial_rng(*case).bit_generator.random_raw(9),
                    _reference(*case).bit_generator.random_raw(9), err_msg=str(case))
                for a in (3, 10):
                    np.testing.assert_array_equal(
                        trial_rng(*case).integers(0, a, size=500, dtype=np.int64),
                        _reference(*case).integers(0, a, size=500, dtype=np.int64),
                        err_msg=str(case))
                assert trial_rng(*case).random() == _reference(*case).random(), case


def test_numpy_int_arguments_give_the_python_int_stream():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for args, ints in [((np.uint64(7), np.int64(3)), (7, 3)),
                           ((np.uint64(2**64 - 1), np.uint64(2**40), np.int32(1)),
                            (2**64 - 1, 2**40, 1)),
                           ((np.int64(2**32), np.uint32(2**32 - 1), np.uint8(3)),
                            (2**32, 2**32 - 1, 3))]:
            np.testing.assert_array_equal(trial_rng(*args).bit_generator.random_raw(5),
                                          trial_rng(*ints).bit_generator.random_raw(5))


def test_validation():
    with pytest.raises(ValueError):
        trial_rng(-1, 0)
    with pytest.raises(ValueError):
        trial_rng(2**64, 0)
    with pytest.raises(ValueError):
        trial_rng(0, -1)


def test_bad_substream_raises_and_returns():
    # a negative spawn-key word never shifts down to 0, so a missing check
    # loops forever: run the calls in a child with a deadline
    code = (
        "from returnstats.rngstreams import trial_rng\n"
        "for s in (-1, -2**40, 1.0, 2.5):\n"
        "    try:\n"
        "        trial_rng(7, 3, s)\n"
        "    except (TypeError, ValueError) as e:\n"
        "        print(type(e).__name__)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env=dict(os.environ, PYTHONPATH=str(SRC)), check=True).stdout
    assert out.split() == ["ValueError", "ValueError", "TypeError", "TypeError"]


def test_threads_give_the_serial_streams():
    # two threads build streams for many master seeds at once, switching
    # every microsecond; each stream is a function of its arguments alone
    seeds = range(100, 120)

    def draw(lo):
        return [trial_rng(seeds[t % len(seeds)], t, substream=t % 2 or None)
                .bit_generator.random_raw(2) for t in range(lo, lo + 2000)]

    serial = draw(0) + draw(2000)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(2) as pool:
            futures = [pool.submit(draw, lo) for lo in (0, 2000)]
            threaded = [row for f in futures for row in f.result(timeout=120)]
    finally:
        sys.setswitchinterval(interval)
    np.testing.assert_array_equal(np.array(threaded), np.array(serial))


def test_package_import_loads_numpy_random():
    # numpy loads numpy.random on first attribute access, about 5 ms; the
    # package takes that at import, so no run pays it on its first trial
    code = "import sys, returnstats\nprint('numpy.random' in sys.modules)\n"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
    assert out.stdout.strip() == "True"
