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
    # The last two labels take the straight-line path when both fit one
    # uint32 word, and the word-by-word path otherwise.
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


def test_cache_eviction_keeps_streams_exact():
    # Far more (seed, run, round) prefixes than the prefix cache holds,
    # then the first ones again, after they have been evicted.
    size = seeding._pool.cache_info().maxsize
    prefixes = [(seed, run, rnd) for seed in (2, 2**40) for run in range(3) for rnd in range(4 * size)]
    before = seeding._pool.cache_info().misses
    for seed, run, rnd in prefixes + prefixes[:50]:
        got = stream(seed, run, rnd, rnd % 5, seeding.UPLINK)
        want = oracle(seed, run, rnd, rnd % 5, seeding.UPLINK)
        assert np.array_equal(got.random(2), want.random(2))
    assert seeding._pool.cache_info().misses - before > len(prefixes)
    assert seeding._pool.cache_info().currsize <= size
