"""The documented Gaussian draw: Box-Muller on PCG64 uniform doubles, and seed spawning."""

import itertools

import numpy as np
import pytest

from wlat.rng import box_muller, gaussian, new_rng, seed_stream


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
