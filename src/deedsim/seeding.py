"""Deterministic, labelled random streams.

Every randomized step of a simulated run (quantization dither, row
sampling, participation draws, coin flips) pulls from its own
counter-based stream derived from the run's master seed plus integer
labels.  Streams are independent and reproducible across platforms, so
two runs with the same configuration consume identical randomness even
when the order of operations changes.

A stream is numpy's ``Philox`` keyed by
``SeedSequence(entropy=seed, spawn_key=labels).generate_state(2, uint64)``.
The key is derived here in plain integer arithmetic rather than by
building a ``SeedSequence`` per stream, which costs more than the
draws of a small message; ``tests/test_seeding.py`` pins the keys to
numpy's own.
"""

import functools

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Fixed purpose labels; values are part of the reproducibility contract.
UPLINK = 0
DOWNLINK = 1
ROW_SAMPLE = 2
PARTICIPATION = 3
COIN = 4

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): a pool
# of four uint32 words, hashed with (INIT_A, MULT_A) while entropy is
# mixed in and with (INIT_B, MULT_B) when the state is read out.
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_L = 0xCA01F9DD
_MIX_R = 0x4973F715
_POOL = 4


def _words(n: int) -> list[int]:
    """Little-endian uint32 words of a nonnegative integer (``[0]`` for 0)."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hashmix(value: int, h: int) -> tuple[int, int]:
    """SeedSequence's ``hashmix``: the hashed value and the next hash constant."""
    value ^= h
    h = h * _MULT_A & _MASK32
    value = value * h & _MASK32
    return value ^ value >> 16, h


def _mix(x: int, y: int) -> int:
    """SeedSequence's ``mix`` of two uint32 words."""
    x = (_MIX_L * x - _MIX_R * y) & _MASK32
    return x ^ x >> 16


@functools.lru_cache(maxsize=256)
def _hashed(word: int, h: int) -> tuple[tuple, int]:
    """``hashmix(word)`` for each of the four pool words, from the running
    hash constant ``h``; returns the four values and the next constant.

    The constant depends only on how many words came before, so a run's
    node and purpose labels hit this cache on every round.
    """
    out = []
    for _ in range(_POOL):
        v, h = _hashmix(word, h)
        out.append(v)
    return tuple(out), h


def _absorb(pool: tuple, h: int, word: int) -> tuple[tuple, int]:
    """Mix one entropy word into every pool word: ``pool[i] =
    mix(pool[i], hashmix(word))``.  Returns the pool and the running hash
    constant.  ``_mix`` is written out: this runs twice per stream."""
    (v0, v1, v2, v3), h = _hashed(word, h)
    x0, x1, x2, x3 = pool
    x0 = (_MIX_L * x0 - _MIX_R * v0) & _MASK32
    x1 = (_MIX_L * x1 - _MIX_R * v1) & _MASK32
    x2 = (_MIX_L * x2 - _MIX_R * v2) & _MASK32
    x3 = (_MIX_L * x3 - _MIX_R * v3) & _MASK32
    return (x0 ^ x0 >> 16, x1 ^ x1 >> 16, x2 ^ x2 >> 16, x3 ^ x3 >> 16), h


@functools.lru_cache(maxsize=64)
def _pool(seed: int, labels: tuple) -> tuple[tuple, int]:
    """SeedSequence's mixed pool (and running hash constant) for the
    entropy ``seed`` padded to four words, followed by ``labels``."""
    if labels:
        pool, h = _pool(seed, labels[:-1])
        for word in _words(labels[-1]):
            pool, h = _absorb(pool, h, word)
        return pool, h
    words = _words(seed)
    words += [0] * (_POOL - len(words))
    h = _INIT_A
    pool = []
    for word in words[:_POOL]:
        v, h = _hashmix(word, h)
        pool.append(v)
    # Mix all pool words together so late words reach early ones.
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                v, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], v)
    pool = tuple(pool)
    for word in words[_POOL:]:
        pool, h = _absorb(pool, h, word)
    return pool, h


def _readout_constants() -> tuple:
    """(xor, multiplier) that ``generate_state`` applies to each of the
    four pool words it reads for two uint64 words."""
    out, h = [], _INIT_B
    for _ in range(_POOL):
        out.append((h, h * _MULT_B & _MASK32))
        h = out[-1][1]
    return tuple(out)


(_C0, _M0), (_C1, _M1), (_C2, _M2), (_C3, _M3) = _readout_constants()


class _Key(ISeedSequence):
    """A seed sequence whose state is a precomputed Philox key; ``Philox``
    asks it for exactly that, ``generate_state(2, np.uint64)``."""

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray) -> None:
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def philox_key(master_seed: int, *labels: int) -> np.ndarray:
    """``SeedSequence(entropy=master_seed, spawn_key=labels)
    .generate_state(2, np.uint64)``: the Philox key of a stream."""
    seed = int(master_seed)
    labels = tuple(map(int, labels))
    # Runs share their (seed, run, round) prefix across every message of a
    # round; only the last two labels (node, purpose) are mixed per call.
    if len(labels) < 2 or not (0 <= labels[-2] <= _MASK32 and 0 <= labels[-1] <= _MASK32):
        pool, h = _pool(seed, labels[:-2])
        for label in labels[-2:]:
            for word in _words(label):
                pool, h = _absorb(pool, h, word)
        return _readout(*pool)
    # Both fit one word, the engines' case: the two ``_absorb`` calls and
    # the readout written out.
    (x0, x1, x2, x3), h = _pool(seed, labels[:-2])
    (a0, a1, a2, a3), h = _hashed(labels[-2], h)
    (b0, b1, b2, b3), _ = _hashed(labels[-1], h)
    x0 = (_MIX_L * x0 - _MIX_R * a0) & _MASK32
    x1 = (_MIX_L * x1 - _MIX_R * a1) & _MASK32
    x2 = (_MIX_L * x2 - _MIX_R * a2) & _MASK32
    x3 = (_MIX_L * x3 - _MIX_R * a3) & _MASK32
    x0 = (_MIX_L * (x0 ^ x0 >> 16) - _MIX_R * b0) & _MASK32
    x1 = (_MIX_L * (x1 ^ x1 >> 16) - _MIX_R * b1) & _MASK32
    x2 = (_MIX_L * (x2 ^ x2 >> 16) - _MIX_R * b2) & _MASK32
    x3 = (_MIX_L * (x3 ^ x3 >> 16) - _MIX_R * b3) & _MASK32
    return _readout(x0 ^ x0 >> 16, x1 ^ x1 >> 16, x2 ^ x2 >> 16, x3 ^ x3 >> 16)


def _readout(x0: int, x1: int, x2: int, x3: int) -> np.ndarray:
    """``generate_state(2, np.uint64)`` of the mixed pool ``x0..x3``."""
    s0 = (x0 ^ _C0) * _M0 & _MASK32
    s1 = (x1 ^ _C1) * _M1 & _MASK32
    s2 = (x2 ^ _C2) * _M2 & _MASK32
    s3 = (x3 ^ _C3) * _M3 & _MASK32
    return np.array(
        [s0 ^ s0 >> 16 | (s1 ^ s1 >> 16) << 32, s2 ^ s2 >> 16 | (s3 ^ s3 >> 16) << 32],
        dtype=np.uint64,
    )


def stream(master_seed: int, *labels: int) -> np.random.Generator:
    """Return the Philox generator for ``(master_seed, *labels)``.

    Labels are nonnegative integers, typically (run, round, node,
    purpose).  The same tuple always yields the same stream.
    """
    return np.random.Generator(np.random.Philox(_Key(philox_key(master_seed, *labels))))
