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

:class:`WordReader` makes integers from the raw 64-bit words one at a time,
in stream order, exactly as numpy's ``Generator`` makes them, so the
synthetic data stream is pinned to two more documented primitives:

- an integer below ``n`` is Lemire's multiply-shift on PCG64's 32-bit
  outputs, rejecting the biased products ("Fast Random Integer Generation in
  an Interval", ACM TOMACS 2019).  A word gives its low half first and keeps
  its high half for the next 32-bit output, across any doubles drawn
  between; ``n = 1`` takes no word;
- ``k`` distinct integers below ``n`` are Floyd's sample (Bentley and Floyd,
  CACM 1987), then the k - 1 draws of numpy's shuffle of what it chose; or,
  when ``n > 10000`` and ``k > n // 50``, the last ``k`` of ``range(n)``
  once a Fisher-Yates shuffle from its end has made its first ``k`` swaps.  Either set is then sorted.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["new_rng", "box_muller", "gaussian", "WordReader", "seed_stream"]


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


class WordReader:
    """Integer draws on ``rng``'s raw PCG64 words, made as its ``Generator`` makes them.

    :meth:`below` and :meth:`sample` take exactly the words of the
    ``Generator`` call each names, one word at a time and never ahead, so
    ``rng.random`` may draw doubles between them and the stream is that of
    the ``Generator`` calls.  The reader keeps a word's unused high half
    itself, and starts with none, as a generator that has drawn no integer
    does: take integers from the reader only, not from ``rng``.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._raw = rng.bit_generator.random_raw
        self._half: int | None = None

    def _uint32(self) -> int:
        """PCG64's next 32-bit output: a new word's low half, else the half it kept."""
        if self._half is not None:
            half, self._half = self._half, None
            return half
        word = self._raw()
        self._half = word >> 32
        return word & 0xFFFFFFFF

    def below(self, n: int) -> int:
        """An integer in [0, n), for 1 <= n <= 2**32, drawn as ``Generator.integers(n)`` draws it."""
        if n == 1:
            return 0
        product, threshold = self._uint32() * n, (2**32 - n) % n
        while product & 0xFFFFFFFF < threshold:  # a biased product: draw again
            product = self._uint32() * n
        return product >> 32

    def sample(self, n: int, k: int) -> list[int]:
        """``k <= n`` distinct integers below ``n``, ascending, as ``sorted(Generator.choice(n,
        k, replace=False))`` draws them."""
        if n > 10000 and k > n // 50:
            moved: dict[int, int] = {}  # position -> value, where the swaps moved range(n)
            for i in range(n - 1, n - k - 1, -1):  # at i = 0 (k = n) it swaps 0 with 0
                j = self.below(i + 1)
                moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
            return sorted(moved.get(i, i) for i in range(n - k, n))
        chosen: set[int] = set()
        for j in range(n - k, n):
            drawn = self.below(j + 1)
            chosen.add(j if drawn in chosen else drawn)
        for i in range(k - 1, 0, -1):  # numpy shuffles what it chose; the order is not kept
            self.below(i + 1)
        return sorted(chosen)


def seed_stream(seed: int) -> Iterator[int]:
    """Independent child seeds of one master seed, each spawned as it is taken.

    SeedSequence children do not alias the words ``PCG64(seed)`` consumes, so
    a child seed fed back into :func:`new_rng` starts an independent stream.
    """
    parent = np.random.SeedSequence(seed)
    while True:
        yield int(parent.spawn(1)[0].generate_state(1, dtype=np.uint64)[0])
