"""Deterministic, labelled random streams.

Every randomized step of a simulated run (quantization dither, row
sampling, participation draws, coin flips) pulls from its own
counter-based stream derived from the run's master seed plus integer
labels.  Streams are independent and reproducible across platforms, so
two runs with the same configuration consume identical randomness even
when the order of operations changes.

A stream is numpy's ``Philox`` keyed by
``SeedSequence(entropy=seed, spawn_key=labels).generate_state(2, uint64)``,
with its counter at 0 (one shared, read-only array of four uint64 zeros).
The key is a pure function of the seed and the labels.  It is derived
here rather than by building a ``SeedSequence`` per stream, which costs
more than the draws of a small message; ``tests/test_seeding.py`` pins
the keys to numpy's own.  Two functions derive keys, and neither keeps
anything between calls but the caches of pure helpers:

* ``philox_key(seed, *labels)``, behind ``stream``, takes any labels and
  absorbs them word by word in plain integer arithmetic.
* ``block_keys(seed, prefixes, block, pairs)`` takes labels ``(*prefix,
  round, node, purpose)`` whose round, node and purpose each fit one
  uint32 word, as every engine stream and ``theory``'s coin stream do.
  It derives the keys of every prefix (run), every (node, purpose) pair
  and every round of one aligned block of ``KEY_BLOCK`` rounds in one
  stacked numpy pass.  A run loop knows the runs, nodes and purposes it
  will draw for, so it asks for a block's keys at the block's first
  round and builds each stream from a key row with ``key_stream``.

``draw_index`` draws an index in ``range(m)`` from a stream with
Lemire's method on the raw Philox words: the index numpy's
``integers(m)`` gives on a fresh stream, without that call's overhead.
"""

import functools

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import InvalidInputError

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
    constant.  ``_mix`` is written out: the scalar path runs this for
    every label word."""
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
    .generate_state(2, np.uint64)``: the Philox key of a stream, as a fresh
    array, word by word from the cached pool of all labels but the last
    three."""
    seed = int(master_seed)
    labels = tuple(map(int, labels))
    pool, h = _pool(seed, labels[:-3])
    for label in labels[-3:]:
        for word in _words(label):
            pool, h = _absorb(pool, h, word)
    return _readout(*pool)


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


# The rounds of one block share every label before the round, so their
# keys are derived together: the four pool words are uint32 arrays with
# one column per round, and numpy's uint32 arithmetic wraps modulo 2**32
# as SeedSequence's does.
KEY_BLOCK = 64
_ROUNDS = np.arange(KEY_BLOCK, dtype=np.uint32)
_READ_XOR = np.array([_C0, _C1, _C2, _C3], dtype=np.uint32)[:, None]
_READ_MUL = np.array([_M0, _M1, _M2, _M3], dtype=np.uint32)[:, None]
for _table in (_ROUNDS, _READ_XOR, _READ_MUL):
    _table.setflags(write=False)


def block_keys(master_seed: int, prefixes, block: int, pairs) -> np.ndarray:
    """The Philox keys of every label prefix of ``prefixes``, every
    ``(node, purpose)`` of ``pairs`` and every round of block ``block`` as
    one read-only ``(len(prefixes), len(pairs), KEY_BLOCK, 2)`` uint64
    array: ``keys[p, j, i]`` is ``philox_key(master_seed, *prefixes[p],
    KEY_BLOCK * block + i, *pairs[j])``.

    Rounds, nodes and purposes must each fit one uint32 word.  A prefix's
    words fix the hash constant that the next word is hashed with, and a
    label of 2**32 or more takes two words, so the prefixes are grouped by
    that constant and each group is derived in one ``_derive`` pass.
    """
    seed = int(master_seed)
    nodes, purposes = (tuple(map(int, words)) for words in zip(*pairs))
    if not (0 <= block < (_MASK32 + 1) // KEY_BLOCK
            and all(0 <= word <= _MASK32 for word in nodes + purposes)):
        raise ValueError("block_keys needs round, node and purpose labels of one uint32 word")
    groups = {}  # hash constant -> the rows and pools of its prefixes
    for row, prefix in enumerate(prefixes):
        pool, h = _pool(seed, tuple(map(int, prefix)))
        rows, pools = groups.setdefault(h, ([], []))
        rows.append(row)
        pools.append(pool)
    # Round i's key is (x[0] | x[1] << 32, x[2] | x[3] << 32): the
    # little-endian uint32 words of column i read as two uint64.
    words = np.empty((len(prefixes), len(nodes), KEY_BLOCK, _POOL), dtype="<u4")
    for h, (rows, pools) in groups.items():
        words[rows] = _derive(pools, h, int(block), nodes, purposes).swapaxes(2, 3)
    words.setflags(write=False)
    return words.view("<u8")


@functools.lru_cache(maxsize=16)
def _hashed_columns(words: tuple, h: int) -> tuple[np.ndarray, int]:
    """``_MIX_R * hashmix(word)`` for the four pool words of each of
    ``words``, from hash constant ``h``, as a read-only uint32
    ``(len(words), 4, 1)`` array, and the next hash constant."""
    rows = []
    for word in words:
        values, after = _hashed(word, h)
        rows.append([_MIX_R * v & _MASK32 for v in values])
    columns = np.array(rows, dtype=np.uint32).reshape(len(words), _POOL, 1)
    columns.setflags(write=False)
    return columns, after


@functools.lru_cache(maxsize=16)
def _round_columns(index: int, h: int) -> tuple[np.ndarray, int]:
    """``_MIX_R * hashmix(round)`` for the four pool words and each round
    of block ``index``, from hash constant ``h``, as a read-only uint32
    ``(4, KEY_BLOCK)`` array, and the next hash constant."""
    xors, muls = [], []
    for _ in range(_POOL):
        xors.append(h)
        h = h * _MULT_A & _MASK32
        muls.append(h)
    xors = np.array(xors, dtype=np.uint32)[:, None]
    v = (index * KEY_BLOCK + _ROUNDS ^ xors) * np.array(muls, dtype=np.uint32)[:, None]
    v ^= v >> 16
    v *= _MIX_R
    v.setflags(write=False)
    return v, h


def _derive(pools: list, h: int, index: int, nodes: tuple, purposes: tuple) -> np.ndarray:
    """The ``(P, J, 4, KEY_BLOCK)`` uint32 words of the keys of ``P`` mixed
    ``pools`` of hash constant ``h``, ``J`` (node, purpose) pairs and every
    round of block ``index``: SeedSequence's absorb of the round, node
    and purpose words into the pools, then its readout."""
    mixed, h = _round_columns(index, h)
    x = _MIX_L * np.array(pools, dtype=np.uint32)[:, None, :, None] - mixed
    x ^= x >> 16
    # One row per pair from here on, worked on in place.
    x = np.repeat(x, len(nodes), axis=1)
    for words in (nodes, purposes):
        mixed, h = _hashed_columns(words, h)
        x *= _MIX_L
        x -= mixed
        x ^= x >> 16
    x ^= _READ_XOR
    x *= _READ_MUL
    x ^= x >> 16
    return x


# Every stream starts at Philox counter 0.  ``Philox`` copies its counter
# into the generator's own state, so one read-only array serves them all
# and spares numpy's conversion of the integer 0 on every call.
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)
_ZERO_COUNTER.setflags(write=False)


def key_stream(key: np.ndarray) -> np.random.Generator:
    """The Philox generator of ``key`` (a key of ``philox_key``, or a key
    row of ``block_keys``) at counter 0."""
    return np.random.Generator(np.random.Philox(_Key(key), counter=_ZERO_COUNTER))


def stream(master_seed: int, *labels: int) -> np.random.Generator:
    """Return the Philox generator for ``(master_seed, *labels)``.

    Labels are nonnegative integers, typically (run, round, node,
    purpose).  The same tuple always yields the same stream.
    """
    return key_stream(philox_key(master_seed, *labels))


_WORD = 1 << 32


def draw_index(rng: np.random.Generator, m: int) -> int:
    """A uniform index in ``range(m)``: ``int(rng.integers(m))`` when
    ``rng`` is a fresh stream, for ``1 <= m <= 2**32``.

    This is numpy's own algorithm, Lemire's bounded integer on 32-bit
    draws, read from the raw Philox words: the first draw is the low half
    of the first word, a rejected draw is followed by the high half, then
    by the low half of a new word.  ``m == 1`` draws nothing, as numpy's
    ``integers(1)``.  (On a stream that has already handed out half a word
    to a 32-bit draw, numpy would start from that buffered half instead.)
    """
    if not 1 <= m <= _WORD:
        raise InvalidInputError(f"draw_index needs 1 <= m <= 2**32, got {m!r}")
    if m == 1:
        return 0
    bits = rng.bit_generator
    raw = bits.random_raw()
    product = (raw & _MASK32) * m
    if (product & _MASK32) < m:
        threshold = (_WORD - m) % m
        high = True
        while (product & _MASK32) < threshold:
            if high:
                word = raw >> 32
            else:
                raw = bits.random_raw()
                word = raw & _MASK32
            high = not high
            product = word * m
    return product >> 32
