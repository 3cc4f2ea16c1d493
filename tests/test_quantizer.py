import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quantize_reference as ref
from deedsim.bitstream import BitStream, SparseIntVector, decode_sparse, elias_decode, encode_sparse
from deedsim.errors import InvalidInputError
from deedsim.quantizer import (
    QuantizedMessage,
    QuantSpec,
    bits_lower_bound,
    bits_upper_bound,
    dequantize,
    quantize,
)


def test_spec_grid_step_derivation():
    spec = QuantSpec(max_error=0.3, dim=9)
    assert spec.grid_step == 0.3 / math.sqrt(9)
    assert QuantSpec(0.0, 5).lossless


def test_zero_vector_is_on_grid():
    rng = np.random.default_rng(0)
    msg = quantize(np.zeros(7), QuantSpec(0.1, 7), rng)
    assert np.array_equal(msg.decoded, np.zeros(7))
    assert msg.grid.nnz == 0
    assert msg.bits == 1  # header only


def test_scalar_stochastic_rounding_split():
    # w = 0.5 on step 0.2: rounds to 0.4 or 0.6 with equal probability,
    # per-draw error 0.1 within the 0.2 budget, mean 0.5.
    spec = QuantSpec(0.2, 1)
    lows = highs = 0
    total = 20_000
    acc = 0.0
    for i in range(total):
        msg = quantize(np.array([0.5]), spec, np.random.default_rng(i))
        val = msg.grid.values[0]
        assert val in (2, 3)
        assert abs(msg.decoded[0] - 0.5) <= 0.2
        acc += msg.decoded[0]
        lows += val == 2
        highs += val == 3
    assert abs(lows / total - 0.5) < 0.02
    assert abs(acc / total - 0.5) < 0.005


def test_on_grid_inputs_reproduce_exactly():
    rng = np.random.default_rng(5)
    for _ in range(100):
        d = int(rng.integers(1, 20))
        spec = QuantSpec(float(rng.uniform(1e-3, 10)), d)
        w = rng.integers(-1000, 1000, size=d) * spec.grid_step
        for seed in (0, 1):
            msg = quantize(w, spec, np.random.default_rng(seed))
            assert np.array_equal(msg.decoded, w)


def test_hard_error_bound_randomized():
    rng = np.random.default_rng(17)
    for _ in range(2000):
        d = int(rng.integers(1, 64))
        w = rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 3)
        eps = float(np.linalg.norm(w) * 10.0 ** rng.uniform(-2, 1) + 1e-12)
        msg = quantize(w, QuantSpec(eps, d), rng)
        assert np.linalg.norm(msg.decoded - w) <= eps


def test_unbiasedness_hoeffding():
    d, M = 6, 40_000
    w = np.random.default_rng(3).standard_normal(d)
    spec = QuantSpec(0.4, d)
    rng = np.random.default_rng(4)
    acc = np.zeros(d)
    for _ in range(M):
        acc += quantize(w, spec, rng).decoded
    tol = 5.0 * (spec.grid_step / 2.0) / math.sqrt(M)
    assert np.all(np.abs(acc / M - w) <= tol)


def test_dequantize_matches_committed_value():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        d = int(rng.integers(1, 30))
        w = rng.standard_normal(d)
        msg = quantize(w, QuantSpec(0.05 * d, d), rng)
        assert np.array_equal(dequantize(msg), msg.decoded)


def test_dequantize_worked_examples():
    rng = np.random.default_rng(0)
    msg = quantize(np.zeros(5), QuantSpec(1.0, 5), rng)
    assert np.array_equal(dequantize(msg), np.zeros(5))
    # grid (1 -> 3) at step 0.2 decodes to (0.6, 0, ...)
    spec = QuantSpec(0.2 * math.sqrt(4), 4)
    w = np.array([3 * spec.grid_step, 0.0, 0.0, 0.0])
    msg = quantize(w, spec, rng)
    assert msg.grid.positions == (1,) and msg.grid.values == (3,)
    assert dequantize(msg)[0] == 3 * spec.grid_step


def test_payload_matches_bits_and_roundtrips():
    rng = np.random.default_rng(21)
    for _ in range(50):
        d = int(rng.integers(1, 100))
        w = rng.standard_normal(d) * 5
        msg = quantize(w, QuantSpec(0.3, d), rng)
        payload = msg.payload
        assert len(payload) == msg.bits
        assert decode_sparse(payload, d) == msg.grid


def test_passthrough_mode():
    w = np.random.default_rng(2).standard_normal(12)
    msg = quantize(w, QuantSpec(0.0, 12), np.random.default_rng(0), float_bits=32)
    assert np.array_equal(msg.decoded, w)
    assert msg.bits == 32 * 12
    assert msg.grid is None and len(msg.payload) == 0
    msg64 = quantize(w, QuantSpec(0.0, 12), np.random.default_rng(0), float_bits=64)
    assert msg64.bits == 64 * 12


@pytest.mark.parametrize("float_bits", [0, -5])
def test_passthrough_rejects_nonpositive_float_bits(float_bits):
    # A non-positive width would charge a zero or negative bit count.
    with pytest.raises(InvalidInputError, match="float_bits must be >= 1"):
        quantize(np.ones(3), QuantSpec(0.0, 3), np.random.default_rng(0), float_bits)


def test_invalid_inputs():
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidInputError):
        quantize(np.array([np.nan, 0.0]), QuantSpec(0.1, 2), rng)
    with pytest.raises(InvalidInputError):
        quantize(np.array([np.inf]), QuantSpec(0.1, 1), rng)
    with pytest.raises(InvalidInputError):
        quantize(np.ones(3), QuantSpec(0.1, 4), rng)
    # Scaled magnitude beyond the signed-64 grid.
    with pytest.raises(InvalidInputError):
        quantize(np.array([1e19]), QuantSpec(1e-3, 1), rng)


@pytest.mark.parametrize("max_error, dim", [(5e-324, 4), (1e-322, 10**6)])
def test_spec_rejects_budget_whose_grid_step_underflows(max_error, dim):
    # A positive budget with a zero grid step has no grid to quantize on;
    # quantize would blame a 64-bit overflow instead.
    with pytest.raises(InvalidInputError, match=r"^max_error = .* underflows to 0$"):
        QuantSpec(max_error, dim)
    assert QuantSpec(max_error, 2).grid_step > 0.0
    assert QuantSpec(0.0, dim).lossless


def _decode_wire(msg):
    """Unpack ``msg.to_bytes()`` by hand: (dim, grid step, payload grid)."""
    data, nbits = msg.to_bytes()
    stream = BitStream.from_bytes(data, nbits)
    dim, cur = elias_decode(stream, 0)
    step_bits = 0
    for i in range(64):
        step_bits = (step_bits << 1) | stream[cur + i]
    cur += 64
    (step,) = np.frombuffer(np.uint64(step_bits).tobytes(), dtype=np.float64)
    rest = BitStream(stream[i] for i in range(cur, len(stream)))
    assert len(rest) == msg.bits
    return dim, step, decode_sparse(rest, dim)


def test_message_serialization_decodes_by_hand():
    rng = np.random.default_rng(13)
    w = rng.standard_normal(8)
    msg = quantize(w, QuantSpec(0.25, 8), rng)
    dim, step, grid = _decode_wire(msg)
    assert dim == 8
    assert step == msg.spec.grid_step
    assert grid == msg.grid


@pytest.mark.parametrize("d", [1, 20, 100, 10_000])
def test_bits_and_wire_round_trip_across_dims(d):
    rng = np.random.default_rng(d)
    for ratio in (0.4, 1.5, 40.0):
        w = rng.standard_normal(d)
        spec = QuantSpec(float(np.linalg.norm(w)) / ratio, d)
        msg = quantize(w, spec, rng)
        assert msg.bits == len(encode_sparse(msg.grid))
        dim, step, grid = _decode_wire(msg)
        assert (dim, step, grid) == (d, spec.grid_step, msg.grid)
        assert np.array_equal(grid.to_dense() * step, msg.decoded)


def test_grid_limit_rejects_two_to_the_63():
    # 2**63 does not fit a signed 64-bit grid; accepting it would wrap to
    # -2**63 and flip the decoded sign.
    rng = np.random.default_rng(0)
    for w in (2.0**63, -(2.0**63), 2.0**64):
        with pytest.raises(InvalidInputError):
            quantize(np.array([w]), QuantSpec(1.0, 1), rng)
    with pytest.raises(InvalidInputError):
        quantize(np.array([1.0, -(2.0**63)]), QuantSpec(math.sqrt(2.0), 2), rng)


def test_grid_limit_accepts_largest_float_below():
    top = float(np.nextafter(2.0**63, 0.0))
    for w in (top, -top):
        msg = quantize(np.array([w]), QuantSpec(1.0, 1), np.random.default_rng(0))
        assert msg.grid.values == (int(w),)
        assert msg.decoded[0] == w
        assert dequantize(msg)[0] == w
        assert msg.bits == len(encode_sparse(msg.grid))
        assert _decode_wire(msg) == (1, 1.0, msg.grid)


def test_bits_lower_bound_worked_values():
    assert bits_lower_bound(2, 0.25) == 4
    assert bits_lower_bound(1, 1.0) == 0
    assert bits_lower_bound(3, 1.5) == 0  # clamped for coarse precision
    assert bits_lower_bound(100, 0.5) == 100


def test_bits_upper_bound_worked_values():
    assert bits_upper_bound(2, 0.25) == 8
    assert bits_upper_bound(1, 1.0) == 3


def test_bits_upper_bound_monotone():
    for d in (1, 7, 64):
        vals = [bits_upper_bound(d, r) for r in np.linspace(0.05, 4.0, 60)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_bit_bound_argument_validation():
    with pytest.raises(InvalidInputError):
        bits_lower_bound(0, 0.5)
    with pytest.raises(InvalidInputError):
        bits_upper_bound(4, 0.0)


def test_encoded_size_within_engineering_envelope():
    # Unit-norm vectors at moderate precision stay within 4x the
    # achievable-cost formula.
    rng = np.random.default_rng(31)
    for _ in range(200):
        d = int(rng.integers(2, 200))
        w = rng.standard_normal(d)
        w /= np.linalg.norm(w)
        rel = float(rng.uniform(0.1, 1.0))
        msg = quantize(w, QuantSpec(rel, d), rng)
        assert msg.bits <= 4 * bits_upper_bound(d, rel)


# -- the fast path against the frozen reference (tests/quantize_reference.py) --


def _outcome(fn, w, spec, seed, float_bits):
    """(message or error text, the generator's next draw afterwards)."""
    rng = np.random.Generator(np.random.Philox(seed))
    try:
        out = fn(w, spec, rng, float_bits)
    except InvalidInputError as err:
        out = str(err)
    return out, rng.random()


def assert_matches_reference(w, spec, seed=0, float_bits=32):
    got, got_next = _outcome(quantize, w, spec, seed, float_bits)
    want, want_next = _outcome(ref.quantize, w, spec, seed, float_bits)
    # The next draw agrees only if both consumed the same number of draws.
    assert got_next == want_next
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert got.bits == want.bits
    assert got.decoded.dtype == want.decoded.dtype
    assert got.decoded.tobytes() == want.decoded.tobytes()
    if want.grid is None:
        assert got.grid is None
        return
    assert got.grid == want.grid
    # The unchecked grid is one the checked constructor accepts.
    assert SparseIntVector(got.grid.dim, got.grid.positions, got.grid.values) == want.grid
    assert all(type(x) is int for x in got.grid.positions + got.grid.values)


def _on_grid_cases(rng, d, step):
    """On-grid vectors, their nextafter neighbours and mixtures of both."""
    k = np.round(rng.normal(size=d) * 30)
    on = k * step
    yield on
    yield np.nextafter(on, np.inf)
    yield np.nextafter(on, -np.inf)
    mixed = on.copy()
    pick = rng.random(d) < 0.5
    mixed[pick] = np.nextafter(on[pick], np.where(rng.random(int(pick.sum())) < 0.5, 1.0, -1.0) * np.inf)
    yield mixed


@pytest.mark.parametrize("d", [1, 2, 20, 100, 10_000])
def test_quantize_matches_reference(d):
    rng = np.random.default_rng(d)
    repeats = 3 if d == 10_000 else 40
    for rep in range(repeats):
        max_error = float(rng.choice([1e-6, 0.05, 0.5, 3.0, math.sqrt(d)]))
        spec = QuantSpec(max_error, d)
        # |w| / budget over the range the runs send, and far beyond it.
        for ratio in (0.4, 1.2, 27.0, 255.0, 1e6):
            w = rng.normal(size=d)
            w *= ratio * max_error / max(np.linalg.norm(w), 1e-300)
            assert_matches_reference(w, spec, seed=rep)
        for w in _on_grid_cases(rng, d, spec.grid_step):
            assert_matches_reference(w, spec, seed=rep)
        assert_matches_reference(np.zeros(d), spec, seed=rep)
        assert_matches_reference(-np.zeros(d), spec, seed=rep)
        assert_matches_reference(rng.normal(size=d), QuantSpec(0.0, d), seed=rep, float_bits=rep % 40)


@pytest.mark.parametrize("d", [1, 2, 20, 100, 10_000])
def test_quantize_grid_limit_matches_reference(d):
    # max_error = sqrt(d) makes the grid step exactly 1, so w is |scaled|.
    spec = QuantSpec(math.sqrt(d), d)
    assert spec.grid_step == 1.0
    top = float(np.nextafter(2.0**63, 0.0))
    rng = np.random.default_rng(7)
    for edge in (top, -top, 2.0**63, -(2.0**63), float(np.nextafter(2.0**63, np.inf))):
        w = rng.normal(size=d)
        w[rng.integers(d)] = edge
        assert_matches_reference(w, spec)
        assert_matches_reference(np.full(d, edge), spec)


@pytest.mark.parametrize("d", [1, 2, 20, 100])
def test_quantize_matches_reference_beyond_two_to_the_53(d):
    # Above 2**53 not every integer is a float: lo + 1.0 can round back to
    # lo, so the grid and the decoded vector must still come from one sum.
    rng = np.random.default_rng(53)
    mags = [2.0**52 + 0.5, 2.0**53 - 0.5, 2.0**53 - 1, 2.0**53, 2.0**53 + 2, 2.0**60, 2.0**62 + 2.0**10]
    for max_error in (math.sqrt(d), 0.3, 7.5):
        spec = QuantSpec(max_error, d)
        for rep, mag in enumerate(mags):
            w = rng.normal(size=d)
            w[rng.integers(d)] = mag * spec.grid_step
            assert_matches_reference(w, spec, seed=rep)
            assert_matches_reference(-w, spec, seed=rep)
            signs = np.where(rng.random(d) < 0.5, -1.0, 1.0)
            big = signs * np.array(rng.choice(mags, size=d)) * spec.grid_step
            assert_matches_reference(big, spec, seed=rep)
            assert_matches_reference(np.nextafter(big, 0.0), spec, seed=rep)


@pytest.mark.parametrize("d", [1, 2, 20, 100, 10_000])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_quantize_nonfinite_messages_match_reference(d, bad):
    rng = np.random.default_rng(3)
    for max_error in (0.5, 0.0):
        spec = QuantSpec(max_error, d)
        for float_bits in (32, 0):
            w = rng.normal(size=d)
            w[-1] = bad
            assert_matches_reference(w, spec, float_bits=float_bits)
            # A coordinate that overflows the grid does not change the message.
            w[0] = 2.0**70
            assert_matches_reference(w, spec, float_bits=float_bits)
    with pytest.raises(InvalidInputError, match="^input coordinates must be finite$"):
        quantize(np.full(d, bad), QuantSpec(0.5, d), np.random.default_rng(0))
    big = np.full(d, 2.0**70)
    with pytest.raises(InvalidInputError, match="^scaled magnitude overflows the 64-bit grid$"):
        quantize(big, QuantSpec(0.5, d), np.random.default_rng(0))
    assert_matches_reference(big, QuantSpec(0.5, d))


def test_quantize_shape_errors_match_reference():
    for w, spec in ((np.zeros(3), QuantSpec(0.5, 4)), (np.zeros((2, 2)), QuantSpec(0.5, 4)),
                    (np.array([np.nan, 1.0]), QuantSpec(0.5, 3))):
        assert_matches_reference(w, spec)


any_float = st.floats(allow_nan=True, allow_infinity=True, width=64)


@given(
    st.integers(min_value=1, max_value=20).flatmap(lambda d: st.lists(any_float, min_size=d, max_size=d)),
    st.sampled_from([0.0, 1e-300, 1e-9, 0.3, 1.0, 7.5, 1e12]),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=500, deadline=None)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_quantize_matches_reference_on_any_floats(coords, max_error, seed):
    w = np.array(coords, dtype=np.float64)
    assert_matches_reference(w, QuantSpec(max_error, len(w)), seed=seed)


# -- the grid, built on first read --

FIELDS = {"spec", "grid", "decoded", "bits"}


def _philox(seed):
    return np.random.Generator(np.random.Philox(seed))


@pytest.mark.parametrize("d", [1, 20, 100])
def test_grid_built_on_first_read_equals_reference(d):
    rng = np.random.default_rng(100 + d)
    for rep in range(10):
        spec = QuantSpec(float(rng.choice([1e-6, 0.05, 3.0])), d)
        w = rng.normal(size=d) * float(rng.choice([0.0, 1e-3, 1.0, 1e4]))
        msg = quantize(w, spec, _philox(rep))
        want = ref.quantize(w, spec, _philox(rep))
        assert "grid" not in vars(msg)
        assert msg.grid == want.grid
        assert msg.grid.positions == want.grid.positions
        assert msg.grid.values == want.grid.values
        # Once built, the message holds its fields and nothing else: the
        # float grid it was built from is dropped.
        assert set(vars(msg)) == FIELDS
        assert msg.grid is msg.grid


def test_unbuilt_message_keeps_dataclass_behaviour():
    spec = QuantSpec(0.05, 6)
    w = np.array([0.3, -0.01, 0.0, 2.5, -7.25, 1e-9])

    def fresh():
        return quantize(w, spec, _philox(3))

    want = ref.quantize(w, spec, _philox(3))
    assert not hasattr(fresh(), "no_such_field")

    # replace with a grid takes that grid and builds none.
    msg = fresh()
    other = dataclasses.replace(msg, grid=want.grid)
    assert other.grid is want.grid and other.decoded is msg.decoded and other.bits == msg.bits
    assert "grid" not in vars(msg)
    # replace of another field reads the grid.
    assert dataclasses.replace(fresh(), bits=0).grid == want.grid

    # == and repr read the grid, field by field as a built message's do.
    msg = fresh()
    assert msg == QuantizedMessage(spec, want.grid, msg.decoded, msg.bits)
    msg = fresh()
    assert msg != QuantizedMessage(spec, want.grid, msg.decoded, msg.bits + 1)
    assert repr(fresh()) == repr(want)

    # A pickle or copy round trip, before or after the first read.
    built = fresh()
    built.grid
    for m in (fresh(), built):
        for back in (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)):
            assert back.grid == want.grid
            assert back.bits == want.bits
            assert back.decoded.tobytes() == want.decoded.tobytes()
            assert back.to_bytes() == want.to_bytes()
            assert set(vars(back)) == FIELDS


def test_messages_from_separate_calls_compare_by_value():
    spec = QuantSpec(0.1, 3)

    def fresh(w=(1.0, 1.0, 1.0), rep=1):
        return quantize(np.array(w), spec, _philox(rep))

    def built(*args):
        msg = fresh(*args)
        msg.grid
        return msg

    def lossless(w=(1.0, 1.0, 1.0)):
        return quantize(np.array(w), QuantSpec(0.0, 3), _philox(0))

    # Unbuilt, built, and one of each: equal from separate calls, and
    # unequal for another input.
    for make, other in [(fresh, fresh), (built, built), (fresh, built), (built, fresh)]:
        assert make() == other() and not make() != other()
        assert make() != other((2.0, -1.0, 0.5)) and not make() == other((2.0, -1.0, 0.5))
    assert fresh() != dataclasses.replace(fresh(), bits=fresh().bits + 1)
    assert lossless() == lossless() and not lossless() != lossless()
    # Lossless messages differ only in their decoded values here.
    assert lossless() != lossless((1.0, 1.0, 2.0))
    assert lossless() != fresh() and fresh() != lossless()
    assert fresh() != "a message" and not fresh() == "a message"
    for msg in (fresh(), built(), lossless()):
        with pytest.raises(TypeError, match="unhashable"):
            hash(msg)
