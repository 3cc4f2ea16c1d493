import math

import numpy as np
import pytest

from deedsim.bitstream import BitStream, decode_sparse, elias_decode, encode_sparse
from deedsim.errors import InvalidInputError
from deedsim.quantizer import (
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
