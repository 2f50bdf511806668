"""The documented draws: Box-Muller on PCG64 uniform doubles, the raw-word integer reader, and
seed spawning."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlat.rng import WordReader, box_muller, gaussian, new_rng, seed_stream


def two_call_box_muller(rng, n):
    """Reference: ceil(n/2) uniforms for the radii, then as many for the angles."""
    pairs = (n + 1) // 2
    u1 = 1.0 - rng.random(pairs)
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:n]


@pytest.mark.parametrize("n", [0, 1, 2, 7, 320, 1281])
def test_gaussian_is_the_documented_two_call_draw(n):
    rng, reference = new_rng(n), new_rng(n)
    assert np.array_equal(gaussian(rng, (n, 1)), two_call_box_muller(reference, n)[:, None])
    # and it leaves the stream where the reference does
    assert rng.random() == reference.random()


@pytest.mark.parametrize("row_words", [2, 16, 18, 2562])
def test_box_muller_block_equals_each_row_alone(row_words):
    uniforms = new_rng(row_words).random((37, row_words))
    rows = [box_muller(row.copy()) for row in uniforms]
    assert np.array_equal(box_muller(uniforms), np.stack(rows))


@pytest.mark.parametrize("seed", [0, 9, 2**64 - 1])
def test_seed_stream_is_one_eager_spawn(seed):
    children = np.random.SeedSequence(seed).spawn(300)
    eager = [int(child.generate_state(1, dtype=np.uint64)[0]) for child in children]
    assert list(itertools.islice(seed_stream(seed), 300)) == eager


def reading_pairs(seed, readings):
    """(WordReader's value, Generator's value) per reading, each side on its own generator of
    ``seed``, then the same for a 32-bit integer and a double drawn after the last reading.

    A reading is ``("below", n)`` against ``integers(n)``, ``("sample", n, k)`` against
    ``sorted(choice(n, k, replace=False))``, or ``("random", m)``, m doubles drawn by both
    generators' ``random(out=)``.  Each pair also holds both PCG64 states as the reading left
    them, so a reading that takes a word more or less than numpy's fails where it is made.
    """
    rng, reference = new_rng(seed), new_rng(seed)
    words = WordReader(rng)
    for kind, *args in [*readings, ("below", 2**32), ("random", 1)]:
        if kind == "below":
            ours, theirs = words.below(*args), int(reference.integers(*args))
        elif kind == "sample":
            ours = words.sample(*args)
            theirs = sorted(reference.choice(*args, replace=False).tolist())
        else:
            ours, theirs = np.empty(*args), np.empty(*args)
            rng.random(out=ours)
            reference.random(out=theirs)
            ours, theirs = ours.tobytes(), theirs.tobytes()
        yield ((ours, rng.bit_generator.state["state"]),
               (theirs, reference.bit_generator.state["state"]))


@pytest.mark.parametrize("readings", [
    [("below", 1), ("below", 1), ("random", 1)],  # n = 1 takes no word
    [("sample", 10, 10), ("sample", 1, 1), ("sample", 5, 0)],  # k = n
    [("below", 7), ("random", 3), ("below", 7), ("random", 2)],  # a high half kept over doubles
    [("below", 2**31 + 1)] * 8 + [("below", 2**32 - 1)] * 4,  # about half the products rejected
    [("sample", 10000, 300), ("sample", 10001, 200), ("sample", 10001, 201),
     ("sample", 65536, 1310), ("sample", 65536, 1311), ("sample", 65536, 65536)],
], ids=["n-is-1", "k-is-n", "half-across-doubles", "rejections", "choice-switch"])
@pytest.mark.parametrize("seed", [0, 5])
def test_word_reader_draws_as_the_generator_does(readings, seed):
    # 10 of 10: Floyd's sample draws a value it already chose in all but 1 of 10! streams
    for ours, theirs in reading_pairs(seed, readings):
        assert ours == theirs


a_reading = st.one_of(
    st.tuples(st.just("below"), st.integers(1, 12) | st.integers(1, 2**32)),
    st.integers(1, 12).flatmap(lambda n: st.tuples(st.just("sample"), st.just(n),
                                                   st.integers(0, n))),
    # numpy's choice switches to a tail shuffle above n = 10000 and k = n // 50
    st.sampled_from([10000, 10001, 10099, 65536]).flatmap(
        lambda n: st.tuples(st.just("sample"), st.just(n), st.integers(n // 50 - 1, n // 50 + 2))),
    st.tuples(st.just("random"), st.integers(0, 4)),
)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), readings=st.lists(a_reading, max_size=10))
def test_word_reader_matches_a_generator_reading_for_reading(seed, readings):
    for ours, theirs in reading_pairs(seed, readings):
        assert ours == theirs
