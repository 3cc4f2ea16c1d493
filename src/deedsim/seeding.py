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
The key is derived here rather than by building a ``SeedSequence`` per
stream, which costs more than the draws of a small message;
``tests/test_seeding.py`` pins the keys to numpy's own.

When the last three labels (round, node, purpose) each fit one uint32
word, as in every engine stream and ``theory``'s coin stream, the
first request for a (node, purpose) pair in an aligned block of 64
rounds derives the pair's keys for every round of the block and every
label prefix (run) the window holds, in one stacked numpy pass.  The
keys of one (seed, round block) window are held as ``(64, 2)`` arrays in
one flat dict keyed on ``(seed, *prefix, node, purpose)``, so runs
advanced round by round keep theirs, and ``stream`` finds an engine
stream's held key (labels run, round, node, purpose) in one lookup.
Every other label shape takes the one scalar path, word by word in
plain integer arithmetic.

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
    .generate_state(2, np.uint64)``: the Philox key of a stream.

    The key is a fresh array, or a read-only row of a held round block.
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
    pool of ``prefix``: every label shape outside the round blocks."""
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
# and runs advanced together ask for every run's, so the keys of an aligned
# block of rounds are derived for every held prefix at once: the four pool
# words are uint32 arrays with one row per prefix and one column per round,
# and numpy's uint32 arithmetic wraps modulo 2**32 as SeedSequence's does.
_BLOCK_BITS = 6
_BLOCK = 1 << _BLOCK_BITS
_LAST = _BLOCK - 1
_ROUNDS = np.arange(_BLOCK, dtype=np.uint32)
_READ_XOR = np.array([_C0, _C1, _C2, _C3], dtype=np.uint32)[:, None]
_READ_MUL = np.array([_M0, _M1, _M2, _M3], dtype=np.uint32)[:, None]


class _Group:
    """The prefixes of one window whose words leave the same hash constant
    ``h``, so that a round, node or purpose word hashes alike for all of
    them, and their mixed pools, in the order they joined.  A label of
    2**32 or more takes two words, so prefixes of one length can fall in
    different groups."""

    __slots__ = ("h", "prefixes", "pools")

    def __init__(self, h: int) -> None:
        self.h, self.prefixes, self.pools = h, [], []


# The held window: its seed and round block index, its prefixes (each
# mapped to its group), and one flat dict from ``(seed, *prefix, node,
# purpose)`` to the pair's ``(_BLOCK, 2)`` keys.  The seed in the dict's
# keys lets ``stream`` find a key in one lookup.
_window = (None, None, {}, {})


def _block_key(seed: int, prefix: tuple, rnd: int, pair: tuple) -> np.ndarray:
    """``philox_key(seed, *prefix, rnd, *pair)`` for one-word round, node
    and purpose labels.

    A pair's first request in a ``(seed, round block)`` window derives its
    keys for every round of the block, for the requested prefix and every
    other prefix of its group that lacks them, in one stacked pass; later
    requests find them held.  A new window of the same seed starts by
    holding the last window's prefixes, so runs advanced together derive
    each pair once per block for all runs.  A window of another seed
    starts empty, and a prefix joins it on its first request, so a cold
    run's first window derives prefix by prefix.
    """
    global _window
    held_seed, index, prefixes, held = _window
    if held_seed != seed or index != rnd >> _BLOCK_BITS:
        carried = prefixes if held_seed == seed else ()
        index, prefixes, held = rnd >> _BLOCK_BITS, {}, {}
        _window = seed, index, prefixes, held
        _hold(seed, prefixes, carried)
    name = (seed, *prefix, *pair)
    keys = held.get(name)
    if keys is None:
        group = prefixes.get(prefix)
        if group is None:
            group = _hold(seed, prefixes, (prefix,))
        _derive(seed, index, group, pair, held)
        keys = held[name]
    return keys[rnd & _LAST]


def _hold(seed: int, prefixes: dict, new) -> _Group | None:
    """Add each prefix of ``new`` to a window's ``prefixes``, in the group
    of the hash constant its words leave; returns the last one's group."""
    groups = {group.h: group for group in prefixes.values()}
    group = None
    for prefix in new:
        pool, h = _pool(seed, prefix)
        group = groups.get(h)
        if group is None:
            group = groups[h] = _Group(h)
        group.prefixes.append(prefix)
        group.pools.append(pool)
        prefixes[prefix] = group
    return group


@functools.lru_cache(maxsize=256)
def _hashed_column(word: int, h: int) -> tuple[np.ndarray, int]:
    """``_MIX_R * hashmix(word)`` for the four pool words as a uint32
    ``(4, 1)`` column, and the next hash constant."""
    values, h = _hashed(word, h)
    return np.array([_MIX_R * v & _MASK32 for v in values], dtype=np.uint32)[:, None], h


@functools.lru_cache(maxsize=16)
def _round_columns(index: int, h: int) -> tuple[np.ndarray, int]:
    """``_MIX_R * hashmix(round)`` for the four pool words and each round
    of block ``index``, from hash constant ``h``, as a read-only uint32
    ``(4, _BLOCK)`` array, and the next hash constant."""
    xors, muls = [], []
    for _ in range(_POOL):
        xors.append(h)
        h = h * _MULT_A & _MASK32
        muls.append(h)
    xors = np.array(xors, dtype=np.uint32)[:, None]
    v = ((index << _BLOCK_BITS) + _ROUNDS ^ xors) * np.array(muls, dtype=np.uint32)[:, None]
    v ^= v >> 16
    v *= _MIX_R
    v.setflags(write=False)
    return v, h


def _derive(seed: int, index: int, group: _Group, pair: tuple, held: dict) -> None:
    """Hold the read-only ``(_BLOCK, 2)`` keys of ``pair`` for every round
    of block ``index`` and every prefix of ``group`` that lacks them, from
    one pass on ``(P, 4, _BLOCK)`` uint32 words: SeedSequence's absorb of
    the round, node and purpose words into the prefixes' pools, then its
    readout."""
    names = [(seed, *prefix, *pair) for prefix in group.prefixes]
    rows = [j for j, name in enumerate(names) if name not in held]
    pools = np.array([group.pools[j] for j in rows], dtype=np.uint32)[:, :, None]
    mixed, h = _round_columns(index, group.h)
    x = _MIX_L * pools - mixed
    x ^= x >> 16
    for word in pair:
        mixed, h = _hashed_column(word, h)
        x *= _MIX_L
        x -= mixed
        x ^= x >> 16
    x ^= _READ_XOR
    x *= _READ_MUL
    x ^= x >> 16
    # Round j's key is (x[0] | x[1] << 32, x[2] | x[3] << 32): the
    # little-endian uint32 words of column j read as two uint64.
    words = np.ascontiguousarray(x.swapaxes(1, 2), dtype="<u4")
    words.setflags(write=False)
    for j, keys in zip(rows, words.view("<u8")):
        held[names[j]] = keys


# Every stream starts at Philox counter 0.  ``Philox`` copies its counter
# into the generator's own state, so one read-only array serves them all
# and spares numpy's conversion of the integer 0 on every call.
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)
_ZERO_COUNTER.setflags(write=False)


def stream(master_seed: int, *labels: int) -> np.random.Generator:
    """Return the Philox generator for ``(master_seed, *labels)``.

    Labels are nonnegative integers, typically (run, round, node,
    purpose).  The same tuple always yields the same stream.  For that
    shape, a pair whose round block is held finds its key in one lookup
    of the held dict; every other request goes through ``philox_key``.
    """
    if len(labels) == 4:
        run, rnd, node, purpose = labels
        _, index, _, held = _window
        keys = held.get((master_seed, run, node, purpose))
        # Only a held window's one-word ints are in ``held``; a round of
        # another block, or not one word, has another index.
        if keys is not None and type(rnd) is int and rnd >> _BLOCK_BITS == index:
            return np.random.Generator(
                np.random.Philox(_Key(keys[rnd & _LAST]), counter=_ZERO_COUNTER))
    key = _Key(philox_key(master_seed, *labels))
    return np.random.Generator(np.random.Philox(key, counter=_ZERO_COUNTER))


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
