"""``seeding.stream`` against numpy's own SeedSequence -> Philox streams."""

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


FAST_PATH_EDGES = (0, 1, 2**32 - 1, 2**32, 2**40)


@pytest.mark.parametrize("prefix", [(), (0,), (2, 499), (1, 2**32, 7)])
def test_philox_key_on_both_sides_of_one_word_labels(prefix):
    # Three or more labels whose last three (round, node, purpose) each fit
    # one uint32 word take the round-block path; fewer labels, or a wider
    # one, take the word-by-word path.
    for node in FAST_PATH_EDGES:
        for purpose in FAST_PATH_EDGES:
            labels = prefix + (node, purpose)
            for seed in (0, 11, 2**64 + 3):
                want = np.random.SeedSequence(entropy=seed, spawn_key=labels).generate_state(
                    2, np.uint64
                )
                got = seeding.philox_key(seed, *labels)
                assert got.dtype == np.uint64 and np.array_equal(got, want), (seed, labels)


@pytest.mark.parametrize("args", [(-1,), (-1, 0, 0), (3, -1), (3, 0, 0, -5, 1), (3, 0, 0, 1, -2)])
def test_negative_seed_or_label_raises(args):
    with pytest.raises(ValueError):
        oracle(*args)
    with pytest.raises(ValueError):
        stream(*args)


def seed_sequence_key(seed, *labels) -> np.ndarray:
    return np.random.SeedSequence(entropy=seed, spawn_key=labels).generate_state(2, np.uint64)


def test_round_blocks_keep_streams_exact():
    # Many (seed, run) prefixes and round blocks, interleaved so that every
    # change of seed or block drops the held window, then the first visits
    # again after their windows were dropped.  Each visit asks for a pair
    # at two rounds of its block: the first request derives the block's
    # keys, the later ones find them held.
    prefixes = [(seed, run) for seed in (2, 2**40) for run in range(3)]
    starts = [b * 64 + off for b in (0, 1, 5, 2**26 - 1) for off in (0, 1, 63)]
    visits = [(seed, run, rnd) for rnd in starts for seed, run in prefixes]
    before = seeding._pool.cache_info().misses
    for seed, run, rnd in visits + visits[:20]:
        for r in (rnd, rnd ^ 1, rnd):
            for node in range(3):
                got = stream(seed, run, r, node, seeding.UPLINK)
                want = oracle(seed, run, r, node, seeding.UPLINK)
                assert state(got) == state(want)
                assert np.array_equal(got.random(2), want.random(2))
        # The held window is this visit's (seed, block), it holds this
        # run's prefix among the seed's runs, and this run holds one
        # read-only (64, 2) array per pair.
        held_seed, index, runs_held, held = seeding._window
        assert (held_seed, index) == (seed, rnd // 64)
        assert (run,) in runs_held and set(runs_held) <= {(run_,) for run_ in range(3)}
        assert sorted(k for k in held if k[1] == run) == [
            (seed, run, node, seeding.UPLINK) for node in range(3)]
        assert all(k.shape == (64, 2) and not k.flags.writeable for k in held.values())
    # The pool cache holds (seed, run) prefixes, not rounds.
    assert seeding._pool.cache_info().misses - before <= 2 * len(prefixes)


def test_runs_in_lane_order_keep_their_blocks(monkeypatch):
    # Runs advanced together ask for every run's streams round by round,
    # so the (run,) prefix changes on every request.  A pair's first
    # request in a block derives its keys for every held run that lacks
    # them, in one stacked pass.  The first block starts empty, so each
    # run derives its own as it joins; a later block starts with every
    # run of the last, so each (pair, block) is one derivation that
    # covers all of them.  A cache that dropped a run's keys when another
    # run came would derive again and give the same keys, so only this
    # count can see it.
    derived = []  # (block, pair, the runs one derivation gave keys to)
    real = seeding._derive

    def spy(seed, index, group, pair, held):
        before = set(held)
        real(seed, index, group, pair, held)
        derived.append((index, pair, sorted(name[1] for name in set(held) - before)))

    monkeypatch.setattr(seeding, "_derive", spy)
    monkeypatch.setattr(seeding, "_window", (None, None, {}, {}))
    seed, runs = 123457, range(30)
    pairs = [(0, seeding.UPLINK), (2, seeding.UPLINK), (0, seeding.DOWNLINK),
             (1, seeding.ROW_SAMPLE), (4, seeding.ROW_SAMPLE)]
    rounds = range(62, 132)  # the tail of block 0, all of block 1, the head of block 2
    for rnd in rounds:
        for run in runs:
            for node, purpose in pairs:
                labels = (run, rnd, node, purpose)
                got = seeding.philox_key(seed, *labels)
                assert np.array_equal(got, seed_sequence_key(seed, *labels)), labels
    assert derived == (
        [(0, pair, [run]) for run in runs for pair in pairs]
        + [(index, pair, list(runs)) for index in (1, 2) for pair in pairs]
    )


def test_prefix_pools_derived_once_per_window(monkeypatch):
    # With 64 or more runs taking turns, a 64-entry cache of prefix pools
    # would miss on every request.  Each run's round block holds its
    # prefix's pool, so a (run, window) derives it once, whatever the
    # number of runs; the keys stay SeedSequence's.
    derived = {}
    window = [None]
    real = seeding._pool

    def spy(seed, labels):
        if len(labels) == 1:  # a run's prefix, not the seed's own pool
            derived[labels, window[0]] = derived.get((labels, window[0]), 0) + 1
        return real(seed, labels)

    monkeypatch.setattr(seeding, "_pool", spy)
    monkeypatch.setattr(seeding, "_window", (None, None, {}, {}))
    seed, runs = 424243, range(100)
    pairs = [(0, seeding.UPLINK), (1, seeding.UPLINK), (0, seeding.DOWNLINK)]  # N = 2
    rounds = range(58, 72)  # across the edge of round blocks 0 and 1
    for rnd in rounds:
        window[0] = rnd // seeding._BLOCK
        for run in runs:
            for node, purpose in pairs:
                labels = (run, rnd, node, purpose)
                got = seeding.philox_key(seed, *labels)
                assert np.array_equal(got, seed_sequence_key(seed, *labels)), labels
    assert derived == {((run,), index): 1 for run in runs for index in (0, 1)}


BLOCK_EDGE_ROUNDS = (0, 63, 64, 65, 2**32 - 64, 2**32 - 1)
PREFIXES = ((), (0,), (5,), (1, 2**33, 7))


def assert_keys_match(seed, prefix, rounds, node, purpose):
    # Twice over: the first request of a pair in a block derives the
    # block's keys, a later one finds them held.
    for _ in range(2):
        for rnd in rounds:
            labels = prefix + (rnd, node, purpose)
            got = seeding.philox_key(seed, *labels)
            assert got.dtype == np.uint64 and np.array_equal(got, seed_sequence_key(seed, *labels)), (
                seed, labels)


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


@pytest.mark.parametrize("wide", [(2**32, 0, 0), (0, 2**32, 0), (0, 0, 2**32), (2**40, 2**32, 2**33)])
def test_labels_of_two_words_take_the_scalar_path(wide):
    assert_keys_match(11, (0,), [0, 1], 1, 0)
    held = seeding._window
    contents = dict(held[2]), dict(held[3])
    for prefix in ((), (0,), (2, 3, 4)):
        labels = prefix + wide
        assert np.array_equal(seeding.philox_key(11, *labels), seed_sequence_key(11, *labels))
    assert seeding._window is held
    assert (held[2], held[3]) == contents


def test_theory_coin_labels_match_seed_sequence():
    # theory's coin stream: (t, 0, COIN), a round block with an empty prefix.
    for seed in (0, 3):
        for t in range(130):
            got = stream(seed, t, 0, seeding.COIN)
            assert_same_stream(got, oracle(seed, t, 0, seeding.COIN))


# One-word run labels, two-word ones (a label of 2**32 or more, or two
# labels) and a three-word one: (2**32,) and (3, 4) leave the same hash
# constant, (0,) and (9,) another.  The seeds' words leave them apart too.
MIXED_PREFIXES = ((0,), (9,), (2**32,), (2**40 + 1,), (3, 4), (3, 2**33))
MIXED_SEEDS = (5, 2**130)


@given(st.lists(
    st.tuples(
        st.sampled_from(MIXED_SEEDS),
        st.sampled_from(MIXED_PREFIXES),
        st.sampled_from((0, 62, 63, 64, 65, 127, 128, 2**32 - 1)),
        st.sampled_from(((0, seeding.UPLINK), (1, seeding.ROW_SAMPLE), (7, seeding.DOWNLINK))),
        st.booleans(),
    ),
    min_size=1, max_size=60,
))
@settings(max_examples=150, deadline=None)
def test_interleaved_prefixes_seeds_and_block_edges_match_seed_sequence(requests):
    # Requests in a drawn order: a window change of seed or block, a
    # prefix joining a held window, and a stacked derivation over prefixes
    # of one hash constant must each give SeedSequence's key, by
    # ``philox_key`` or, for one-label prefixes, by ``stream``'s lookup.
    for seed, prefix, rnd, pair, by_stream in requests:
        labels = prefix + (rnd, *pair)
        want = seed_sequence_key(seed, *labels)
        if by_stream and len(prefix) == 1:
            assert stream(seed, *labels).bit_generator.state["state"]["key"].tolist() == (
                want.tolist()), (seed, labels)
        got = seeding.philox_key(seed, *labels)
        assert got.dtype == np.uint64 and np.array_equal(got, want), (seed, labels)


def test_two_prefixes_used_alternately():
    for rnd in range(0, 140, 3):
        for prefix in ((0,), (1,), (0,), (2**40,)):
            for node in range(2):
                labels = prefix + (rnd, node, seeding.ROW_SAMPLE)
                assert np.array_equal(seeding.philox_key(9, *labels), seed_sequence_key(9, *labels))


@pytest.mark.parametrize(
    "args", [(3, 0, 5, -1, 0), (3, 0, 5, 1, -1), (3, 0, -5, 1, 0), (3, -1, 5, 1, 0), (-3, 0, 5, 1, 0)]
)
def test_negative_labels_raise_with_a_block_held(args):
    assert_keys_match(3, (0,), [5, 6], 1, 0)
    with pytest.raises(ValueError):
        seeding.philox_key(*args)
    with pytest.raises(ValueError):
        stream(*args)
    assert_keys_match(3, (0,), [5, 6], 1, 0)


def test_writing_to_a_returned_key_cannot_change_a_later_stream():
    labels = (4, 2, 70, 1, seeding.UPLINK)
    want = seed_sequence_key(*labels)
    # Every request returns a read-only row of the held block.
    for _ in range(3):
        key = seeding.philox_key(*labels)
        assert not key.flags.writeable
        with pytest.raises(ValueError):
            key[0] = 0
        with pytest.raises(ValueError):
            key.setflags(write=True)
    assert np.array_equal(seeding.philox_key(*labels), want)
    assert_same_stream(stream(*labels), oracle(*labels))


def test_streams_share_a_zero_counter_they_cannot_advance():
    # Every stream starts from one read-only counter array; drawing from
    # a stream advances its own copy only.
    streams = [stream(7, run, 3, node, seeding.UPLINK) for run in range(4) for node in range(50)]
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


def test_same_stream_past_the_first_hundred_counter_blocks():
    # A Philox block is four uint64 words, four doubles: 500 doubles span
    # 125 blocks before assert_same_stream's own draws.
    labels = (11, 0, 130, 2, seeding.DOWNLINK)
    got, want = stream(*labels), oracle(*labels)
    assert np.array_equal(got.random(500), want.random(500))
    assert got.bit_generator.state["state"]["counter"][0] > 100
    assert_same_stream(got, want)


def test_engine_order_finds_held_keys_and_holds_one_window(monkeypatch):
    # The engines' order: every lane's nodes and purposes, round by round,
    # across two block edges, with a second seed asked for now and then.
    # A held key found for the wrong round block or seed would give another
    # stream; a window change must drop every entry of the last window.
    monkeypatch.setattr(seeding, "_window", (None, None, {}, {}))
    runs, nodes = range(4), range(3)
    purposes = (seeding.UPLINK, seeding.DOWNLINK, seeding.ROW_SAMPLE)
    for rnd in range(60, 134):
        for seed in (7, 2**40 + 1) if rnd % 5 == 0 else (7,):
            for run in runs:
                for node in nodes:
                    for purpose in purposes:
                        labels = (run, rnd, node, purpose)
                        got, want = stream(seed, *labels), oracle(seed, *labels)
                        assert state(got) == state(want), (seed, labels)
                        assert got.random() == want.random()
            held_seed, index, prefixes, held = seeding._window
            assert (held_seed, index) == (seed, rnd // 64)
            assert set(prefixes) == {(run,) for run in runs}
            assert set(held) == {(seed, run, node, purpose)
                                 for run in runs for node in nodes for purpose in purposes}
            for keys in held.values():
                assert keys.shape == (64, 2) and not keys.flags.writeable


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
