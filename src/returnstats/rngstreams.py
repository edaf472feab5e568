"""Deterministic per-trial random streams.

Every Monte Carlo routine in this package draws from a counter-based
Philox generator keyed by ``(master_seed, trial_index)``.  Trials are
therefore independent streams that can be computed in any order and on
any number of workers without changing a single bit of the output.

A trial's stream is ``Philox(SeedSequence(entropy=master_seed,
spawn_key=(trial_index,)))``, or ``spawn_key=(trial_index, substream)``
with a substream.  ``rng_ahead`` starts a copy of a stream further on by
setting Philox's counter, without drawing the words in between.
"""

from __future__ import annotations

import operator

# numpy loads numpy.random on first attribute access; importing the names
# here loads it with the package rather than inside the first run
from numpy.random import Generator, Philox, SeedSequence

__all__ = ["rng_ahead", "trial_rng"]


def trial_rng(master_seed: int, trial_index: int,
              substream: int | None = None) -> Generator:
    """Generator for one trial; identical seeds give identical streams.

    ``substream`` names an additional independent stream within the trial
    (e.g. one for a digit stream and one for an initial coordinate).  The
    stream is the one ``Philox(SeedSequence(entropy=master_seed,
    spawn_key=key))`` gives, with ``key`` ``(trial_index,)`` or
    ``(trial_index, substream)``.
    """
    master_seed = operator.index(master_seed)
    trial_index = operator.index(trial_index)
    if not 0 <= master_seed < 2**64:
        raise ValueError("master_seed must fit in an unsigned 64-bit integer")
    if trial_index < 0:
        raise ValueError("trial_index must be non-negative")
    if substream is None:
        spawn_key = (trial_index,)
    else:
        substream = operator.index(substream)
        if substream < 0:
            raise ValueError("substream must be non-negative")
        spawn_key = (trial_index, substream)
    return Generator(Philox(SeedSequence(master_seed, spawn_key=spawn_key)))


def rng_ahead(rng: Generator, n_words: int) -> Generator:
    """A new generator whose 64-bit words are those of the Philox generator
    `rng` from `n_words` past its current position; `rng` is not advanced.

    Philox is counter-based: word w of a stream is word w % 4 of the block
    the counter value w // 4 + 1 encrypts (the counter is stepped before each
    block), so the new generator takes `rng`'s key with the counter w // 4
    and discards w % 4 words.  The counter wraps at 2**256 as `rng`'s does.
    A 32-bit half that `rng` holds back (after a narrow `integers` draw) is
    not carried over; 64-bit draws (`random`, `random_raw`) never read it.
    """
    n_words = operator.index(n_words)
    if n_words < 0:
        raise ValueError("n_words must be non-negative")
    state = rng.bit_generator.state
    counter = sum(int(w) << 64 * i for i, w in enumerate(state["state"]["counter"]))
    # the words drawn so far: 4 per block up to `counter`, less the unread ones
    block, skip = divmod(4 * counter - 4 + state["buffer_pos"] + n_words, 4)
    bit_gen = Philox(counter=block % (1 << 256), key=state["state"]["key"])
    if skip:
        bit_gen.random_raw(skip)
    return Generator(bit_gen)
