"""``seeding.stream`` against numpy's own SeedSequence -> Philox streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deedsim import seeding
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
    # at two rounds of its block, so the second request derives the
    # block's keys.
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
        # The held window is this visit's (seed, block), with one block per
        # run visited in it, and this run's holds one (64, 2) array per pair.
        label, blocks = seeding._window
        assert label == (seed, rnd // 64)
        assert set(blocks) <= {(run_,) for run_ in range(3)}
        block = blocks[(run,)]
        assert block.label == (seed, (run,), rnd // 64)
        assert sorted(block.keys) == [(node, seeding.UPLINK) for node in range(3)]
        assert all(k.shape == (64, 2) and not k.flags.writeable for k in block.keys.values())
    # The pool cache holds (seed, run) prefixes, not rounds.
    assert seeding._pool.cache_info().misses - before <= 2 * len(prefixes)


def test_runs_in_lane_order_keep_their_blocks(monkeypatch):
    # Runs advanced together ask for every run's streams round by round,
    # so the (run,) prefix changes on every request.  Each (run, pair,
    # block) must still derive its block once, on its second request:
    # a cache that dropped a run's block when another run came would take
    # the scalar path every time and give the same keys, so only this
    # count can see it.
    derived = {}
    real = seeding._derive_block

    def spy(block, pair):
        seed, prefix, index = block.label
        derived[prefix, pair, index] = derived.get((prefix, pair, index), 0) + 1
        return real(block, pair)

    monkeypatch.setattr(seeding, "_derive_block", spy)
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
    assert derived == {((run,), pair, index): 1
                       for run in runs for pair in pairs for index in (0, 1, 2)}


BLOCK_EDGE_ROUNDS = (0, 63, 64, 65, 2**32 - 64, 2**32 - 1)
PREFIXES = ((), (0,), (5,), (1, 2**33, 7))


def assert_keys_match(seed, prefix, rounds, node, purpose):
    # Twice over: the first request of a pair in a block takes the scalar
    # path, a later one the block's keys.
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
    contents = {prefix: (dict(b.keys), set(b.seen)) for prefix, b in held[1].items()}
    for prefix in ((), (0,), (2, 3, 4)):
        labels = prefix + wide
        assert np.array_equal(seeding.philox_key(11, *labels), seed_sequence_key(11, *labels))
    assert seeding._window is held
    assert {prefix: (dict(b.keys), set(b.seen)) for prefix, b in held[1].items()} == contents


def test_theory_coin_labels_match_seed_sequence():
    # theory's coin stream: (t, 0, COIN), a round block with an empty prefix.
    for seed in (0, 3):
        for t in range(130):
            got = stream(seed, t, 0, seeding.COIN)
            assert_same_stream(got, oracle(seed, t, 0, seeding.COIN))


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
    # The first request returns a fresh key, later ones a row of the block.
    for _ in range(3):
        key = seeding.philox_key(*labels)
        if key.flags.writeable:
            key[:] = 0
        else:
            with pytest.raises(ValueError):
                key[0] = 0
            with pytest.raises(ValueError):
                key.setflags(write=True)
    assert np.array_equal(seeding.philox_key(*labels), want)
    assert_same_stream(stream(*labels), oracle(*labels))
