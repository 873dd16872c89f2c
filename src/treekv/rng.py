"""Pinned pseudorandom streams for weights and synthetic input rows.

Every random quantity in this package comes from one documented recurrence,
so a (seed, tag) pair produces bit-identical values on any machine and in
any run.  The recurrence is deliberately simple enough to re-implement from
this docstring alone:

state update (splitmix64)
    Each call returns ``mix64(state)`` and then sets
    ``state = (state + 0x9E3779B97F4A7C15) mod 2**64``.

output finalizer
    ``mix64(z)`` computes, in 64-bit wrap-around arithmetic::

        z = z + 0x9E3779B97F4A7C15
        z = (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9
        z = (z XOR (z >> 27)) * 0x94D049BB133111EB
        return z XOR (z >> 31)

substream derivation (splitting)
    ``stream_seed(seed, tag) = mix64((seed mod 2**64) XOR mix64(tag))``.
    Tag values are fixed per consumer and listed in ``treekv.engine``;
    retired tags are never reused.

uniforms
    The top 53 bits of each 64-bit word:
    ``u = (word >> 11) * 2.0**-53``, giving u in [0, 1).

normal variates (Marsaglia polar method)
    Draw ``v1 = 2*u - 1`` and ``v2 = 2*u' - 1`` from consecutive uniforms,
    let ``s = v1*v1 + v2*v2``, reject unless ``0 < s < 1``, then emit
    ``v1 * m`` followed by ``v2 * m`` with ``m = sqrt(-2*ln(s)/s)``.
    The second variate of each accepted pair is cached and returned by the
    next call, so the uniform stream is always consumed pairwise.

Words are numpy uint64 arrays, which wrap mod 2**64 as above.  The 53-bit
conversion is exact, and numpy's IEEE-754 double products, sums,
differences, quotient and sqrt each round once, unfused, as scalar code
does.  Only ``ln`` runs per pair in ``math.log``, because a vectorized log
may differ from libm by an ulp.  So independently written scalar reference
code reproduces the values exactly.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_CHUNK = 2048  # polar pairs drawn at a time, which bounds temporary memory


def mix64(z: np.ndarray) -> np.ndarray:
    """Stateless splitmix64 output function on uint64 arrays (adds the golden step)."""
    z = z + np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def stream_seed(seed: int, tag: int) -> int:
    """Derive the seed of an independent substream from (seed, tag)."""
    tag_word = mix64(np.array([tag & _MASK64], dtype=np.uint64))
    return int(mix64(np.uint64(seed & _MASK64) ^ tag_word)[0])


class NormalStream:
    """Sequential stream of polar-method normal variates."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        self._spare: float | None = None

    def _words(self, count: int) -> np.ndarray:
        """The next ``count`` words, advancing the state past all of them."""
        steps = np.arange(count, dtype=np.uint64) * np.uint64(_GOLDEN)
        words = mix64(steps + np.uint64(self._state))
        self._state = (self._state + count * _GOLDEN) & _MASK64
        return words

    def normals(self, count: int) -> np.ndarray:
        """The next ``count`` variates, as ``count`` one-at-a-time draws give
        them: a pending spare comes first, and an odd count leaves one."""
        try:
            out = np.empty(count)
        except ValueError as exc:  # more bytes than numpy can address
            raise MemoryError(exc) from None
        done = 0
        if count and self._spare is not None:
            out[0], self._spare, done = self._spare, None, 1
        while done < count:
            start, need = self._state, (count - done + 1) // 2
            drawn = min(_CHUNK, need + need // 3 + 8)  # pi/4 of all pairs are kept
            u = (self._words(2 * drawn) >> np.uint64(11)) * 2.0**-53
            v1, v2 = 2.0 * u[0::2] - 1.0, 2.0 * u[1::2] - 1.0
            s = v1 * v1 + v2 * v2
            kept = np.flatnonzero((0.0 < s) & (s < 1.0))[:need]
            used = int(kept[-1]) + 1 if len(kept) == need else drawn
            self._state = (start + 2 * used * _GOLDEN) & _MASK64  # no word past the last pair
            s = s[kept]
            m = np.sqrt(-2.0 * np.fromiter(map(math.log, s.tolist()), float) / s)
            pairs = np.stack((v1[kept] * m, v2[kept] * m), axis=1).ravel()
            out[done : done + len(pairs)] = pairs[: count - done]  # both clipped at count
            self._spare = float(pairs[-1]) if len(pairs) > count - done else None
            done += len(pairs)
        return out
