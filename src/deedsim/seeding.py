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
The key is a pure function of the seed and the labels, and the module
keeps nothing between calls but the caches of pure helpers:

* ``philox_key(seed, *labels)``, behind ``stream``, is that
  ``SeedSequence`` call itself, for any labels.
* ``block_keys(seed, prefixes, block, pairs)`` takes labels ``(*prefix,
  round, node, purpose)`` whose round, node and purpose each fit one
  uint32 word, as every engine stream and ``theory``'s coin stream do.
  It takes each prefix's mixed pool from numpy's ``SeedSequence`` and
  absorbs the round, node and purpose words of every prefix (run), every
  (node, purpose) pair and every round of one aligned block of
  ``KEY_BLOCK`` rounds in one stacked numpy pass: the one port of
  ``SeedSequence``'s hashing here, which ``tests/test_seeding.py`` pins
  to numpy's keys.  A run loop knows the runs, nodes and purposes it
  will draw for, so it asks for a block's keys at the block's first
  round and builds each stream from a key row with ``key_stream``.

Seeds and labels are nonnegative integers: Python or numpy integers,
bools included, as ``SeedSequence`` takes them.  Any other value, a
float say, is an ``InvalidInputError`` rather than truncated, and a
negative one a ``ValueError``.

``draw_index`` draws an index in ``range(m)`` from a stream with
Lemire's method on the raw Philox words: the index numpy's
``integers(m)`` gives on a fresh stream, without that call's overhead.
"""

import functools
import operator

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


def _integer(value) -> int:
    """A seed or label as a Python int.  numpy integers and bools pass, as
    ``SeedSequence`` takes them; a float or any other value is an
    ``InvalidInputError`` where ``int()`` would truncate it."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidInputError(f"seeds and labels must be integers, got {value!r}") from None


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
    array."""
    seq = np.random.SeedSequence(_integer(master_seed), spawn_key=tuple(map(_integer, labels)))
    return seq.generate_state(2, np.uint64)


def _word_count(n: int) -> int:
    """How many uint32 words ``SeedSequence`` makes of the nonnegative
    integer ``n`` (one for 0)."""
    return max(1, -(-n.bit_length() // 32))


@functools.lru_cache(maxsize=64)
def _prefix_pool(seed: int, prefix: tuple) -> tuple[tuple, int]:
    """``SeedSequence(seed, spawn_key=prefix)``'s mixed pool, and the hash
    constant that its next entropy word is hashed with.

    Each hashmix multiplies the constant by ``MULT_A``.  Mixing takes 4
    hashmixes of the seed's words padded to four, 12 that mix the pool
    words together, and 4 for every word past the fourth, so the constant
    is ``INIT_A * MULT_A ** (4 * words)`` modulo 2**32.
    """
    pool = np.random.SeedSequence(seed, spawn_key=prefix).pool
    words = max(_word_count(seed), _POOL) + sum(map(_word_count, prefix))
    return tuple(pool.tolist()), _INIT_A * pow(_MULT_A, _POOL * words, _MASK32 + 1) & _MASK32


def _hash_constants(h: int, mult: int) -> np.ndarray:
    """``h`` and the four hash constants after it, as a uint32 ``(5, 1)``
    array: the k-th hashmix of a word xors it with entry k and multiplies
    it by entry k + 1."""
    out = [h]
    for _ in range(_POOL):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


# The rounds of one block share every label before the round, so their
# keys are derived together: the four pool words are uint32 arrays with
# one column per round, and numpy's uint32 arithmetic wraps modulo 2**32
# as SeedSequence's does.  ``generate_state`` reads the four pool words
# out with the constants of ``_READ``.
KEY_BLOCK = 64
_ROUNDS = np.arange(KEY_BLOCK, dtype=np.uint32)
_READ = _hash_constants(_INIT_B, _MULT_B)
for _table in (_ROUNDS, _READ):
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
    seed, block = _integer(master_seed), _integer(block)
    nodes, purposes = (tuple(map(_integer, words)) for words in zip(*pairs))
    if not (0 <= block < (_MASK32 + 1) // KEY_BLOCK
            and all(0 <= word <= _MASK32 for word in nodes + purposes)):
        raise ValueError("block_keys needs round, node and purpose labels of one uint32 word")
    groups = {}  # hash constant -> the rows and pools of its prefixes
    for row, prefix in enumerate(prefixes):
        pool, h = _prefix_pool(seed, tuple(map(_integer, prefix)))
        rows, pools = groups.setdefault(h, ([], []))
        rows.append(row)
        pools.append(pool)
    # Round i's key is (x[0] | x[1] << 32, x[2] | x[3] << 32): the
    # little-endian uint32 words of column i read as two uint64.
    words = np.empty((len(prefixes), len(nodes), KEY_BLOCK, _POOL), dtype="<u4")
    for h, (rows, pools) in groups.items():
        words[rows] = _derive(pools, h, block, nodes, purposes).swapaxes(2, 3)
    words.setflags(write=False)
    return words.view("<u8")


def _hashmix(words: np.ndarray, h: int) -> tuple[np.ndarray, int]:
    """``_MIX_R * hashmix(word)`` into each of the four pool words (rows)
    for each of the uint32 ``words`` (columns), all at the one position
    whose hash constant is ``h``, as a read-only ``(4, len(words))``
    array, and the next position's hash constant."""
    consts = _hash_constants(h, _MULT_A)
    v = (words ^ consts[:-1]) * consts[1:]
    v ^= v >> 16
    v *= _MIX_R
    v.setflags(write=False)
    return v, int(consts[-1, 0])


@functools.lru_cache(maxsize=16)
def _hashed_columns(words: tuple, h: int) -> tuple[np.ndarray, int]:
    """``_hashmix`` of each of ``words`` as a ``(len(words), 4, 1)`` array,
    one row per (node, purpose) pair, and the next hash constant."""
    v, h = _hashmix(np.array(words, dtype=np.uint32), h)
    return v.T[:, :, None], h


@functools.lru_cache(maxsize=16)
def _round_columns(index: int, h: int) -> tuple[np.ndarray, int]:
    """``_hashmix`` of every round of block ``index`` as a ``(4,
    KEY_BLOCK)`` array, and the next hash constant."""
    return _hashmix(index * KEY_BLOCK + _ROUNDS, h)


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
    x ^= _READ[:-1]
    x *= _READ[1:]
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
