"""``seeding.stream`` and ``seeding.block_keys`` against numpy's own
SeedSequence -> Philox streams."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deedsim import seeding
from deedsim.errors import InvalidInputError
from deedsim.seeding import stream

EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**128, 2**200)
EDGE_LABELS = (0, 2**32 - 1, 2**32, 2**70)


def oracle(seed, *labels) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=labels)
    return np.random.Generator(np.random.Philox(seq))


def state(g: np.random.Generator) -> tuple:
    """Philox key, counter and buffered output, comparable with ``==``."""
    st_ = g.bit_generator.state
    return (st_["state"]["key"].tolist(), st_["state"]["counter"].tolist(),
            st_["buffer"].tolist(), st_["buffer_pos"], st_["has_uint32"], st_["uinteger"])


def assert_same_stream(got: np.random.Generator, want: np.random.Generator) -> None:
    """Same key and counter, then the same draws from later counter blocks."""
    assert state(got) == state(want)
    # Nine doubles span three Philox blocks; the draws below start later.
    assert np.array_equal(got.random(9), want.random(9))
    assert np.array_equal(got.integers(0, 1000, size=7), want.integers(0, 1000, size=7))
    assert np.array_equal(got.choice(20, size=5, replace=False),
                          want.choice(20, size=5, replace=False))
    assert np.array_equal(got.random(3), want.random(3))
    assert state(got) == state(want)


seeds = st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(min_value=0, max_value=2**130))
labels = st.one_of(
    st.sampled_from(EDGE_LABELS),
    st.integers(min_value=0, max_value=2**40),
    st.integers(min_value=0, max_value=2**32 - 1).map(np.uint32),
    st.integers(min_value=0, max_value=2**63 - 1).map(np.int64),
    st.just(True),
)


@given(seeds, st.lists(labels, min_size=0, max_size=6))
@settings(max_examples=400, deadline=None)
def test_stream_matches_numpy(seed, label_list):
    assert_same_stream(stream(seed, *label_list), oracle(seed, *label_list))


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_stream_edge_seeds_and_labels(seed):
    for n in range(7):
        for first in range(len(EDGE_LABELS)):
            key = tuple(EDGE_LABELS[(first + j) % len(EDGE_LABELS)] for j in range(n))
            assert_same_stream(stream(seed, *key), oracle(seed, *key))


def test_stream_run_labels_match_numpy():
    # The label shapes the engines use: (run, round, node, purpose).
    for run in range(3):
        for rnd in (0, 1, 499):
            for node in range(6):
                for purpose in (seeding.UPLINK, seeding.DOWNLINK, seeding.ROW_SAMPLE,
                                seeding.PARTICIPATION, seeding.COIN):
                    assert_same_stream(stream(11, run, rnd, node, purpose),
                                       oracle(11, run, rnd, node, purpose))


def test_philox_key_is_seed_sequence_state():
    for seed, key in ((5, ()), (2**64 + 3, (1,)), (7, (2**33, 0, 9)), (0, (0, 0, 0, 0, 0))):
        want = np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(2, np.uint64)
        got = seeding.philox_key(seed, *key)
        assert got.dtype == np.uint64 and np.array_equal(got, want)


@pytest.mark.parametrize("args", [(-1,), (-1, 0, 0), (3, -1), (3, 0, 0, -5, 1), (3, 0, 0, 1, -2)])
def test_negative_seed_or_label_raises(args):
    with pytest.raises(ValueError):
        oracle(*args)
    with pytest.raises(ValueError):
        stream(*args)


def seed_sequence_key(seed, *labels) -> np.ndarray:
    return np.random.SeedSequence(entropy=seed, spawn_key=labels).generate_state(2, np.uint64)


def assert_block_keys(seed, prefixes, block, pairs, rounds=range(64)) -> np.ndarray:
    """One ``block_keys`` call against SeedSequence, for every prefix and
    pair at ``rounds`` (offsets in the block); returns the keys."""
    keys = seeding.block_keys(seed, prefixes, block, pairs)
    assert keys.dtype == np.uint64 and keys.shape == (len(prefixes), len(pairs), 64, 2)
    for p, prefix in enumerate(prefixes):
        for j, pair in enumerate(pairs):
            for i in rounds:
                labels = (*prefix, 64 * block + i, *pair)
                assert np.array_equal(keys[p, j, i], seed_sequence_key(seed, *labels)), (
                    seed, labels)
    return keys


def test_round_blocks_keep_streams_exact():
    # Streams built from key rows of block_keys, for (seed, run) prefixes
    # and round blocks asked for in turn, equal numpy's streams of the same
    # labels: key, counter and draws.
    prefixes = [(run,) for run in range(3)]
    pairs = [(node, seeding.UPLINK) for node in range(3)]
    for block in (0, 1, 5, 2**26 - 1):
        for seed in (2, 2**40):
            keys = seeding.block_keys(seed, prefixes, block, pairs)
            for run in range(3):
                for node in range(3):
                    for i in (0, 1, 62, 63):
                        got = seeding.key_stream(keys[run, node, i])
                        want = oracle(seed, run, 64 * block + i, node, seeding.UPLINK)
                        assert state(got) == state(want)
                        assert np.array_equal(got.random(2), want.random(2))


def test_block_keys_depend_on_their_arguments_only(monkeypatch):
    # A seed asked for with 30 runs and then with one, with calls of other
    # seeds and blocks between: every call returns the bytes of a first
    # call, and a call derives the pools of its own prefixes only, each
    # once, in one pass for the 30 runs.
    derived = []  # the number of pools each _derive pass took
    real = seeding._derive
    monkeypatch.setattr(seeding, "_derive",
                        lambda pools, *rest: derived.append(len(pools)) or real(pools, *rest))
    pairs = [(i, seeding.UPLINK) for i in range(5)] + [(0, seeding.DOWNLINK)]
    runs = [(r,) for r in range(30)]
    all_runs = seeding.block_keys(7, runs, 1, pairs).tobytes()
    one_run = seeding.block_keys(7, runs[:1], 1, pairs).tobytes()
    assert derived == [30, 1]
    for seed in (7, 8, 2**130, 7):
        for block in (1, 0, 2**26 - 1, 1):
            seeding.block_keys(seed, runs, block, pairs)
            derived.clear()
            assert seeding.block_keys(7, runs[:1], 1, pairs).tobytes() == one_run
            assert derived == [1]
            assert seeding.block_keys(7, runs, 1, pairs).tobytes() == all_runs
    assert np.frombuffer(all_runs, dtype=np.uint64)[:len(one_run) // 8].tobytes() == one_run
    assert_block_keys(7, [(0,), (29,)], 1, pairs[4:], rounds=(0, 63))


BLOCK_EDGE_ROUNDS = (0, 63, 64, 65, 2**32 - 64, 2**32 - 1)
PREFIXES = ((), (0,), (5,), (1, 2**33, 7))


def assert_keys_match(seed, prefix, rounds, node, purpose):
    # ``block_keys`` gives SeedSequence's key where the round, node and
    # purpose each fit one uint32 word, and refuses wider labels.
    for rnd in rounds:
        labels = prefix + (rnd, node, purpose)
        want = seed_sequence_key(seed, *labels)
        block, i = divmod(rnd, 64)
        if max(rnd, node, purpose) < 2**32:
            keys = seeding.block_keys(seed, [prefix], block, [(node, purpose)])
            assert np.array_equal(keys[0, 0, i], want), (seed, labels)
        else:
            with pytest.raises(ValueError):
                seeding.block_keys(seed, [prefix], block, [(node, purpose)])


@given(
    seeds,
    st.lists(st.sampled_from(EDGE_LABELS + (1, 7)), max_size=3).map(tuple),
    st.one_of(st.sampled_from(BLOCK_EDGE_ROUNDS), st.integers(0, 2**32 - 1)),
    st.lists(st.integers(0, 63), min_size=1, max_size=4),
    st.one_of(st.sampled_from((0, 1, 2**32 - 1, 2**32)), st.integers(0, 2**33)),
    st.sampled_from((seeding.UPLINK, seeding.DOWNLINK, seeding.ROW_SAMPLE, seeding.COIN, 2**32)),
)
@settings(max_examples=150, deadline=None)
def test_block_keys_match_seed_sequence(seed, prefix, rnd, offsets, node, purpose):
    first = rnd - rnd % 64
    assert_keys_match(seed, prefix, [rnd] + [first + o for o in offsets], node, purpose)


@pytest.mark.parametrize("prefix", PREFIXES)
@pytest.mark.parametrize("rnd", BLOCK_EDGE_ROUNDS)
def test_block_keys_at_block_edges(prefix, rnd):
    neighbours = [r for r in (rnd - 1, rnd + 1) if 0 <= r < 2**32]
    for seed in (0, 11, 2**64 + 3):
        for purpose in (seeding.UPLINK, seeding.COIN):
            assert_keys_match(seed, prefix, [rnd, *neighbours], 3, purpose)


ONE_WORD_EDGES = (0, 1, 2**32 - 1, 2**32, 2**40)


@pytest.mark.parametrize("prefix", [(), (0,), (2, 499), (1, 2**32, 7)])
def test_philox_key_on_both_sides_of_one_word_labels(prefix):
    # block_keys derives SeedSequence's Philox key for a node and a purpose
    # that each fit one uint32 word, and refuses one of 2**32 or more.
    for node in ONE_WORD_EDGES:
        for purpose in ONE_WORD_EDGES:
            for seed in (0, 11, 2**64 + 3):
                assert_keys_match(seed, prefix, [70], node, purpose)


@pytest.mark.parametrize("wide", [(2**32, 0, 0), (0, 2**32, 0), (0, 0, 2**32), (2**40, 2**32, 2**33)])
def test_labels_of_two_words_take_the_scalar_path(wide):
    # A round, node or purpose of 2**32 or more takes two words: ``stream``
    # gives numpy's stream, and ``block_keys`` refuses it.
    rnd, node, purpose = wide
    for prefix in ((), (0,), (2, 3, 4)):
        labels = prefix + wide
        assert_same_stream(stream(11, *labels), oracle(11, *labels))
        with pytest.raises(ValueError):
            seeding.block_keys(11, [prefix], rnd // 64, [(node, purpose)])


def test_theory_coin_labels_match_seed_sequence():
    # theory's coin stream: (t, 0, COIN), a round block with an empty prefix.
    for seed in (0, 3):
        for block in range(3):
            coins = seeding.block_keys(seed, [()], block, [(0, seeding.COIN)])[0, 0]
            for i in range(64):
                t = 64 * block + i
                want = oracle(seed, t, 0, seeding.COIN)
                assert_same_stream(seeding.key_stream(coins[i]), want)
                assert_same_stream(stream(seed, t, 0, seeding.COIN),
                                   oracle(seed, t, 0, seeding.COIN))


# One-word run labels, two-word ones (a label of 2**32 or more, or two
# labels) and a three-word one: (2**32,) and (3, 4) leave the same hash
# constant, (0,) and (9,) another.  The seeds' words leave them apart too.
MIXED_PREFIXES = ((0,), (9,), (2**32,), (2**40 + 1,), (3, 4), (3, 2**33))
MIXED_SEEDS = (5, 2**130)
ONE_WORD = st.one_of(st.sampled_from((0, 1, 2**32 - 1)), st.integers(0, 2**32 - 1))


@given(st.lists(
    st.tuples(
        st.one_of(st.sampled_from(MIXED_SEEDS), seeds),
        st.permutations(MIXED_PREFIXES),
        st.one_of(st.sampled_from((0, 1, 2, 2**26 - 1)), st.integers(0, 2**26 - 1)),
        st.lists(st.tuples(ONE_WORD, ONE_WORD), min_size=1, max_size=3),
        st.lists(st.integers(0, 63), min_size=1, max_size=3),
    ),
    min_size=1, max_size=4,
))
@settings(max_examples=100, deadline=None)
def test_interleaved_prefixes_seeds_and_block_edges_match_seed_sequence(requests):
    # Calls in a drawn order, each over every mixed prefix in a drawn
    # order, so that one call spans three hash-constant groups: each key
    # is SeedSequence's.
    for seed, prefixes, block, pairs, rounds in requests:
        assert_block_keys(seed, prefixes, block, pairs, rounds)


def test_two_prefixes_used_alternately():
    # block_keys caches each prefix's pool: prefixes asked for in turn,
    # one of them of two words, each keep their own keys.
    for rnd in range(0, 140, 3):
        for prefix in ((0,), (1,), (0,), (2**40,)):
            assert_keys_match(9, prefix, [rnd], rnd % 2, seeding.ROW_SAMPLE)


@pytest.mark.parametrize(
    "args", [(3, 0, 5, -1, 0), (3, 0, 5, 1, -1), (3, 0, -5, 1, 0), (3, -1, 5, 1, 0), (-3, 0, 5, 1, 0)]
)
def test_negative_labels_raise_with_a_block_held(args):
    held = seeding.block_keys(3, [(0,)], 0, [(1, 0)])
    copy = held.copy()
    seed, run, rnd, node, purpose = args
    with pytest.raises(ValueError):
        stream(*args)
    with pytest.raises(ValueError):
        seeding.block_keys(seed, [(run,)], rnd // 64, [(node, purpose)])
    assert held.tobytes() == copy.tobytes()
    assert_keys_match(3, (0,), [5, 6], 1, 0)


@pytest.mark.parametrize("seed, run, node, purpose, bad", [
    (5.5, 1, 0, seeding.UPLINK, 5.5),
    (5, 1.7, 0, seeding.UPLINK, 1.7),
    (5, 1, 2.0, seeding.UPLINK, 2.0),
    (5, 1, 0, np.float64(1.0), np.float64(1.0)),
])
def test_non_integer_seed_or_label_is_a_named_error(seed, run, node, purpose, bad):
    # A float is refused, not truncated to the integer below it, whichever
    # label it is; numpy's SeedSequence refuses it too.
    with pytest.raises(TypeError):
        oracle(seed, run, 70, node, purpose)
    for call in (lambda: seeding.philox_key(seed, run, 70, node, purpose),
                 lambda: stream(seed, run, 70, node, purpose),
                 lambda: seeding.block_keys(seed, [(run,)], 1, [(node, purpose)])):
        with pytest.raises(InvalidInputError, match=re.escape(repr(bad))):
            call()
    # numpy integers and bools are integers, as numpy's SeedSequence takes them.
    keys = seeding.block_keys(np.uint64(5), [(np.int64(1), True)], np.int32(1),
                              [(np.uint32(2), True)])
    assert np.array_equal(keys[0, 0, 6], seed_sequence_key(5, 1, 1, 70, 2, 1))


def test_writing_to_a_returned_key_cannot_change_a_later_stream():
    labels = (4, 2, 70, 1, seeding.UPLINK)
    want = seed_sequence_key(*labels)
    for _ in range(3):
        # block_keys returns a read-only array that cannot be made
        # writeable, and so are its key rows.
        keys = seeding.block_keys(4, [(2,)], 1, [(1, seeding.UPLINK)])
        for held in (keys, keys[0, 0, 6]):
            assert not held.flags.writeable
            with pytest.raises(ValueError):
                held[...] = 0
            with pytest.raises(ValueError):
                held.setflags(write=True)
        # philox_key returns a fresh array.
        seeding.philox_key(*labels)[0] = 0
    assert np.array_equal(seeding.block_keys(4, [(2,)], 1, [(1, seeding.UPLINK)])[0, 0, 6], want)
    assert np.array_equal(seeding.philox_key(*labels), want)
    assert_same_stream(stream(*labels), oracle(*labels))


def test_streams_share_a_zero_counter_they_cannot_advance():
    # Every stream starts from one read-only counter array; drawing from
    # a stream advances its own copy only.
    keys = seeding.block_keys(7, [(run,) for run in range(4)], 0, [(node, seeding.UPLINK)
                                                                   for node in range(50)])
    streams = [seeding.key_stream(key) for key in keys[:, :, 3].reshape(-1, 2)]
    for g in streams:
        g.random(int(g.integers(1, 1000)))
    assert streams[0].bit_generator.state["state"]["counter"][0] > 0
    counter = seeding._ZERO_COUNTER
    assert counter.dtype == np.uint64 and counter.tolist() == [0, 0, 0, 0]
    assert not counter.flags.writeable
    with pytest.raises(ValueError):
        counter[0] = 1
    labels = (7, 2, 3, 9, seeding.UPLINK)
    assert state(stream(*labels)) == state(oracle(*labels))
    assert state(seeding.key_stream(keys[2, 9, 3])) == state(oracle(*labels))


def test_module_holds_no_mutable_state():
    # A key is a pure function of the seed and the labels: the module keeps
    # no container that a call could fill, alone or in a tuple, and its
    # arrays are read-only.
    for name, value in vars(seeding).items():
        for item in value if isinstance(value, tuple) else (value,):
            if not name.startswith("__"):
                assert not isinstance(item, (dict, list, set, bytearray)), name
                assert not isinstance(item, np.ndarray) or not item.flags.writeable, name


def test_same_stream_past_the_first_hundred_counter_blocks():
    # A Philox block is four uint64 words, four doubles: 500 doubles span
    # 125 blocks before assert_same_stream's own draws.
    labels = (11, 0, 130, 2, seeding.DOWNLINK)
    got, want = stream(*labels), oracle(*labels)
    assert np.array_equal(got.random(500), want.random(500))
    assert got.bit_generator.state["state"]["counter"][0] > 100
    assert_same_stream(got, want)


M_EDGES = (1, 2, 3, 12, 20, 2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1, 2**32)


def stream_position(g: np.random.Generator) -> tuple:
    """Key, counter and raw words read: what ``draw_index`` and numpy's
    ``integers`` share after a draw (numpy also buffers a spare half word)."""
    st_ = g.bit_generator.state
    return st_["state"]["key"].tolist(), st_["state"]["counter"].tolist(), st_["buffer_pos"]


@given(seeds, st.lists(labels, max_size=5),
       st.one_of(st.sampled_from(M_EDGES), st.integers(1, 2**32)))
@settings(max_examples=400, deadline=None)
def test_draw_index_is_numpys_first_integer(seed, label_list, m):
    got, want = stream(seed, *label_list), stream(seed, *label_list)
    assert seeding.draw_index(got, m) == int(want.integers(m))
    assert stream_position(got) == stream_position(want)


def test_draw_index_rejections_match_numpy():
    # m = 2**31 + 1 rejects a 32-bit draw about half the time; a quarter
    # of the draws reject both halves of the first raw word and read a
    # second word.
    m = 2**31 + 1
    threshold = (2**32 - m) % m
    rejected = second_word = 0
    for run in range(300):
        labels = (3, run, 70, 2, seeding.ROW_SAMPLE)
        got, want = stream(*labels), stream(*labels)
        first = oracle(*labels).bit_generator.random_raw()
        rejected += (first & 0xFFFFFFFF) * m % 2**32 < threshold
        assert seeding.draw_index(got, m) == int(want.integers(m))
        assert stream_position(got) == stream_position(want)
        second_word += got.bit_generator.state["buffer_pos"] > 1
    assert 100 < rejected < 200 and 40 < second_word < 110


@pytest.mark.parametrize("m", [2**32, 2**32 - 1, 2])
def test_draw_index_at_the_word_edges(m):
    for seed in (0, 2**32, 2**70):
        for rnd in range(130):
            labels = (seed, 1, rnd, 0, seeding.COIN)
            assert seeding.draw_index(stream(*labels), m) == int(stream(*labels).integers(m))


def test_draw_index_of_one_row_draws_nothing():
    for labels in ((5, 0, 3, 1, seeding.ROW_SAMPLE), (2**40, 2**33), (9,)):
        got, want = stream(*labels), stream(*labels)
        assert seeding.draw_index(got, 1) == int(want.integers(1)) == 0
        assert state(got) == state(want) == state(stream(*labels))


@pytest.mark.parametrize("m", [0, -1, 2**32 + 1, 2**64])
def test_draw_index_outside_its_domain_is_a_named_error(m):
    g = stream(5, 0, 3, 1, seeding.ROW_SAMPLE)
    with pytest.raises(InvalidInputError, match="draw_index"):
        seeding.draw_index(g, m)
    assert state(g) == state(stream(5, 0, 3, 1, seeding.ROW_SAMPLE))
