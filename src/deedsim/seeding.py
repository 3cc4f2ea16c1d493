"""Deterministic, labelled random streams.

Every randomized step of a simulated run (quantization dither, row
sampling, participation draws, coin flips) pulls from its own
counter-based stream derived from the run's master seed plus integer
labels.  Streams are independent and reproducible across platforms, so
two runs with the same configuration consume identical randomness even
when the order of operations changes.

A stream is numpy's ``Philox`` keyed by
``SeedSequence(entropy=seed, spawn_key=labels).generate_state(2, uint64)``.
The key is derived here rather than by building a ``SeedSequence`` per
stream, which costs more than the draws of a small message;
``tests/test_seeding.py`` pins the keys to numpy's own.

When the last three labels (round, node, purpose) each fit one uint32
word, as in every engine stream and ``theory``'s coin stream, a
(node, purpose) pair asked for at a second round of an aligned block of
64 rounds gets the keys of the whole block from one numpy pass.  The
keys of one (seed, round block) window are held, one block per label
prefix (the run), so runs advanced round by round keep theirs.  The
pair's first round in a block, and every other label shape, take the
one scalar path, word by word in plain integer arithmetic.
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
    .generate_state(2, np.uint64)``: the Philox key of a stream.

    The key is a fresh array, or a read-only row of the held round block.
    """
    seed = int(master_seed)
    labels = tuple(map(int, labels))
    if len(labels) >= 3:
        rnd, node, purpose = labels[-3:]
        if 0 <= rnd <= _MASK32 and 0 <= node <= _MASK32 and 0 <= purpose <= _MASK32:
            return _block_key(seed, labels[:-3], rnd, (node, purpose))
    return _scalar_key(seed, labels[:-3], labels[-3:])


def _scalar_key(seed: int, prefix: tuple, labels: tuple) -> np.ndarray:
    """``philox_key(seed, *prefix, *labels)`` word by word from the cached
    pool of ``prefix``: every label shape, and a (node, purpose) pair's
    first request in a round block."""
    pool, h = _pool(seed, prefix)
    for label in labels:
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


# A run asks for the streams of one (node, purpose) pair round after round,
# so the keys of an aligned block of rounds are derived together: the four
# pool words are uint32 rows with one column per round, and numpy's uint32
# arithmetic wraps modulo 2**32 as SeedSequence's does.
_BLOCK_BITS = 6
_BLOCK = 1 << _BLOCK_BITS
_ROUNDS = np.arange(_BLOCK, dtype=np.uint32)
_READ_XOR = np.array([_C0, _C1, _C2, _C3], dtype=np.uint32)[:, None]
_READ_MUL = np.array([_M0, _M1, _M2, _M3], dtype=np.uint32)[:, None]


class _RoundBlock:
    """What is held for one ``(seed, prefix, round block)``: the pool
    columns after each round of the block, and each (node, purpose)
    pair's ``(_BLOCK, 2)`` keys."""

    __slots__ = ("label", "rounds", "keys", "seen")

    def __init__(self, label: tuple) -> None:
        self.label = label
        self.rounds = None
        self.keys = {}
        self.seen = set()


# The held window: one (seed, round block) and its round blocks by prefix.
_window = (None, {})


def _block_key(seed: int, prefix: tuple, rnd: int, pair: tuple) -> np.ndarray:
    """``philox_key(seed, *prefix, rnd, *pair)`` for one-word round, node
    and purpose labels.

    A pair's first request in a block takes the scalar path; its second
    derives all the block's keys at once.  So a pair used in only one
    round of a block (a one-round run, or a sync every 64 or more rounds)
    costs no block, and one used every round costs one block per 64.
    Runs advanced together ask for every run's prefix round by round, so
    the blocks of all prefixes in one ``(seed, round block)`` window are
    held; a request for another window drops them all.
    """
    global _window
    label, blocks = _window
    index = rnd >> _BLOCK_BITS
    if label != (seed, index):
        blocks = {}
        _window = (seed, index), blocks
    block = blocks.get(prefix)
    if block is None:
        block = blocks[prefix] = _RoundBlock((seed, prefix, index))
    keys = block.keys.get(pair)
    if keys is None:
        if pair not in block.seen:
            block.seen.add(pair)
            return _scalar_key(seed, prefix, (rnd, *pair))
        keys = block.keys[pair] = _derive_block(block, pair)
    return keys[rnd & _BLOCK - 1]


@functools.lru_cache(maxsize=256)
def _hashed_column(word: int, h: int) -> tuple[np.ndarray, int]:
    """``_MIX_R * hashmix(word)`` for the four pool words as a uint32
    ``(4, 1)`` column, and the next hash constant."""
    values, h = _hashed(word, h)
    return np.array([_MIX_R * v & _MASK32 for v in values], dtype=np.uint32)[:, None], h


@functools.lru_cache(maxsize=16)
def _hash_columns(h: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The xors and multipliers of ``hashmix`` for the four pool words
    from hash constant ``h``, as uint32 ``(4, 1)`` columns, and the next
    constant."""
    xors, muls = [], []
    for _ in range(_POOL):
        xors.append(h)
        h = h * _MULT_A & _MASK32
        muls.append(h)
    return np.array(xors, dtype=np.uint32)[:, None], np.array(muls, dtype=np.uint32)[:, None], h


def _derive_block(block: _RoundBlock, pair: tuple) -> np.ndarray:
    """The read-only ``(_BLOCK, 2)`` keys of ``pair`` for every round of
    ``block``: SeedSequence's absorb of the round, node and purpose words,
    then its readout."""
    if block.rounds is None:
        seed, prefix, index = block.label
        pool, h = _pool(seed, prefix)
        xors, muls, h = _hash_columns(h)
        v = ((index << _BLOCK_BITS) + _ROUNDS ^ xors) * muls
        v ^= v >> 16
        x = _MIX_L * np.array(pool, dtype=np.uint32)[:, None] - _MIX_R * v
        x ^= x >> 16
        block.rounds = x, h
    x, h = block.rounds
    for word in pair:
        mixed, h = _hashed_column(word, h)
        x = _MIX_L * x - mixed
        x ^= x >> 16
    x ^= _READ_XOR
    x *= _READ_MUL
    x ^= x >> 16
    # Round j's key is (x[0] | x[1] << 32, x[2] | x[3] << 32): the
    # little-endian uint32 words of column j read as two uint64.
    words = np.ascontiguousarray(x.T, dtype="<u4")
    words.setflags(write=False)
    return words.view("<u8")


def stream(master_seed: int, *labels: int) -> np.random.Generator:
    """Return the Philox generator for ``(master_seed, *labels)``.

    Labels are nonnegative integers, typically (run, round, node,
    purpose).  The same tuple always yields the same stream.
    """
    return np.random.Generator(np.random.Philox(_Key(philox_key(master_seed, *labels))))
