"""Seeded random number generation used by every stochastic component.

All randomness in this package (synthetic data, weight init, dropout masks,
batch shuffling) flows through PCG64 generators created here, so any run is
a pure function of its seeds.  Gaussian variates are produced by the
Box-Muller transform on the generator's uniform doubles rather than by
``Generator.standard_normal``; the exact draw sequence is therefore pinned
to two documented primitives (PCG64 64-bit output -> 53-bit uniform double,
Box-Muller pairing) and can be replayed outside numpy.  The transform,
:func:`box_muller`, maps rows of uniforms elementwise, so a caller may draw
many rows and transform them as one block: the stream and every variate are
the same as drawing and transforming each row alone.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["new_rng", "box_muller", "gaussian", "seed_stream"]


def new_rng(seed: int) -> np.random.Generator:
    """Create the package-standard generator (PCG64) for a 64-bit seed."""
    return np.random.Generator(np.random.PCG64(seed))


def box_muller(uniforms: np.ndarray) -> np.ndarray:
    """Turn each row of ``2 * pairs`` uniform doubles into standard normals, in place.

    A row ``[u1, u2]`` of two halves becomes ``[r * cos(a), r * sin(a)]`` with
    ``r = sqrt(-2 log(1 - u1))`` and ``a = 2 pi u2``; mapping ``u1`` to (0, 1]
    keeps zero out of the log.  The log, cos and sin run on contiguous
    temporaries, so a block of rows gives every row the bits it gets alone.
    Returns ``uniforms``.
    """
    pairs = uniforms.shape[-1] // 2
    radius = 1.0 - uniforms[..., :pairs]
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle = 2.0 * np.pi * uniforms[..., pairs:]
    np.multiply(radius, np.cos(angle), out=uniforms[..., :pairs])
    np.multiply(radius, np.sin(angle, out=angle), out=uniforms[..., pairs:])
    return uniforms


def gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard normal draws via :func:`box_muller` on ``rng``'s uniform doubles.

    Consumes ceil(n/2) pairs of uniforms for n variates: the first uniform of
    every pair, then the second of every pair.
    """
    n = int(np.prod(shape)) if np.ndim(shape) else int(shape)
    return box_muller(rng.random(2 * ((n + 1) // 2)))[:n].reshape(shape)


def seed_stream(seed: int) -> Iterator[int]:
    """Independent child seeds of one master seed, each spawned as it is taken.

    SeedSequence children do not alias the words ``PCG64(seed)`` consumes, so
    a child seed fed back into :func:`new_rng` starts an independent stream.
    """
    parent = np.random.SeedSequence(seed)
    while True:
        yield int(parent.spawn(1)[0].generate_state(1, dtype=np.uint64)[0])
