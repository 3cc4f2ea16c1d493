import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quantize_reference as ref
from deedsim.bitstream import (
    BitStream,
    SparseIntVector,
    decode_sparse,
    elias_decode,
    encode_sparse,
    sparse_payload_bits,
)
from deedsim.errors import InvalidInputError
from deedsim.quantizer import (
    QuantizedMessage,
    QuantSpec,
    bits_lower_bound,
    bits_upper_bound,
    dequantize,
    grid_payload_bits,
    grid_point,
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
    msg = quantize(w, QuantSpec(0.0, 12), np.random.default_rng(0))
    assert np.array_equal(msg.decoded, w)
    assert msg.bits == 32 * 12
    assert msg.grid is None and len(msg.payload) == 0


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


@pytest.mark.parametrize("dim", [3.0, True, 2.5, np.float64(4.0)])
def test_spec_rejects_non_integer_dim(dim):
    # A float or bool dimension would otherwise quantize as its integer
    # value, or fail only later, inside quantize.
    with pytest.raises(InvalidInputError) as err:
        QuantSpec(0.5, dim)
    assert str(err.value) == f"dim must be an integer (dim = {dim!r})"
    assert QuantSpec(0.5, np.int64(3)).grid_step == 0.5 / math.sqrt(3)


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
    # Coarse precision needs no bits at a dimension beyond the float range too.
    assert bits_lower_bound(10**400, 1.0) == bits_lower_bound(10**400, 1.5) == 0


def test_bits_upper_bound_worked_values():
    assert bits_upper_bound(2, 0.25) == 8
    assert bits_upper_bound(1, 1.0) == 3
    # Where 2 rel_err overflows, the ratio (1 + 2 rel_err) / rel_err is 2.
    assert bits_upper_bound(3, 1e308) == math.ceil(1.05 * 3 + 3)


def test_bits_upper_bound_monotone():
    for d in (1, 7, 64):
        vals = [bits_upper_bound(d, r) for r in np.linspace(0.05, 4.0, 60)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_bit_bound_argument_validation():
    with pytest.raises(InvalidInputError):
        bits_lower_bound(0, 0.5)
    with pytest.raises(InvalidInputError):
        bits_upper_bound(4, 0.0)


@pytest.mark.parametrize("bound", [bits_lower_bound, bits_upper_bound])
@pytest.mark.parametrize("dim, rel_err, named", [
    (2.5, 0.25, r"dim must be an integer \(dim = 2\.5\)"),
    (True, 0.25, r"dim must be an integer \(dim = True\)"),
    (math.nan, 0.25, r"dim must be an integer \(dim = nan\)"),
    (3, math.inf, r"must be finite \(rel_err = inf\)"),
    (3, 1e-320, r"must be finite \(rel_err = 1e-320\)"),  # 1 / rel_err overflows
    pytest.param(10**400, 0.5, r"not a finite float \(dim = 10{400}, rel_err = 0\.5\)",
                 id="dim-10**400"),  # no float holds dim
    pytest.param(10**308, 1e-300, r"not a finite float \(dim = 10{308}, rel_err = 1e-300\)",
                 id="dim-10**308-overflows"),
])
def test_bit_bounds_reject_malformed_input(bound, dim, rel_err, named):
    # A float or bool dimension once ran as its integer part, and a
    # non-finite rel_err or 1 / rel_err, or a bound beyond the float
    # range, raised a bare math error.
    with pytest.raises(InvalidInputError, match=named):
        bound(dim, rel_err)


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


def _outcome(fn, w, spec, seed):
    """(message or error text, the generator's next draw afterwards)."""
    rng = np.random.Generator(np.random.Philox(seed))
    try:
        out = fn(w, spec, rng)
    except InvalidInputError as err:
        out = str(err)
    return out, rng.random()


def assert_matches_reference(w, spec, seed=0):
    got, got_next = _outcome(quantize, w, spec, seed)
    point, point_next = _outcome(grid_point, w, spec, seed)
    # The reference still takes the float width that quantize fixes at 32.
    want, want_next = _outcome(lambda *args: ref.quantize(*args, 32), w, spec, seed)
    # The next draw agrees only if all three consumed the same number of draws.
    assert got_next == want_next
    assert point_next == want_next
    if isinstance(want, str):
        assert got == want
        assert point == want
        return
    assert not isinstance(got, str), got
    assert not isinstance(point, str), point
    assert got.bits == want.bits and type(got.bits) is type(want.bits)
    assert got.decoded.dtype == want.decoded.dtype
    assert got.decoded.tobytes() == want.decoded.tobytes()
    # The grid point is a new float array: the grid, or a lossless w.
    assert point.dtype == np.float64 and not np.shares_memory(point, w)
    if want.grid is None:
        assert got.grid is None
        assert point.tobytes() == got.decoded.tobytes() == np.asarray(w).tobytes()
        return
    assert np.array_equal(point, want.grid.to_dense(dtype=np.float64))
    assert got.decoded.tobytes() == (point * spec.grid_step).tobytes()
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
        assert_matches_reference(rng.normal(size=d), QuantSpec(0.0, d), seed=rep)


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
        w = rng.normal(size=d)
        w[-1] = bad
        assert_matches_reference(w, spec)
        # A coordinate that overflows the grid does not change the message.
        w[0] = 2.0**70
        assert_matches_reference(w, spec)
    with pytest.raises(InvalidInputError, match="^input coordinates must be finite$"):
        quantize(np.full(d, bad), QuantSpec(0.5, d), np.random.default_rng(0))
    big = np.full(d, 2.0**70)
    with pytest.raises(InvalidInputError, match="^scaled magnitude overflows the 64-bit grid$"):
        quantize(big, QuantSpec(0.5, d), np.random.default_rng(0))
    assert_matches_reference(big, QuantSpec(0.5, d))


@pytest.mark.parametrize("d", [1, 2, 20, 100, 10_000])
@pytest.mark.parametrize("max_error", [0.5, 0.0])
def test_quantize_guard_finds_a_bad_coordinate_anywhere(d, max_error):
    # The guards read the least and the greatest coordinate by index, and
    # argmin and argmax both land on the first NaN: a NaN, +inf or -inf
    # must be found at the front, inside or at the end, alone or beside
    # another of them or a coordinate that overflows the grid, in either
    # order, with the reference's message or error text.
    rng = np.random.default_rng(d)
    spec = QuantSpec(max_error, d)
    bad = [np.nan, np.inf, -np.inf]
    interior = [int(rng.integers(1, d - 1))] if d > 2 else []
    positions = sorted({0, *interior, d - 1})  # the front, inside, the end
    base = rng.normal(size=d)
    for value in bad:
        for i in positions:
            w = base.copy()
            w[i] = value
            assert_matches_reference(w, spec)
            for other in bad + [2.0**70]:
                for j in positions:
                    if j != i:
                        w = base.copy()
                        w[i], w[j] = value, other
                        assert_matches_reference(w, spec)


def test_quantize_shape_errors_match_reference():
    for w, spec in ((np.zeros(3), QuantSpec(0.5, 4)), (np.zeros((2, 2)), QuantSpec(0.5, 4)),
                    (np.array([np.nan, 1.0]), QuantSpec(0.5, 3))):
        assert_matches_reference(w, spec)


def _ulps(x, n):
    """``x`` moved ``|n|`` ulps toward +inf (n > 0) or -inf (n < 0)."""
    for _ in range(abs(n)):
        x = np.nextafter(x, math.copysign(math.inf, n))
    return x


def _near_tolerance_cases(rng, d, step):
    """Vectors on both sides of the short path's test: generic off-grid
    ones; ones with one or every coordinate's ``frac`` 1 to 64 ulps from 0
    or from 1 (the scaled magnitudes lie in [512, 1000), where the
    tolerance is about 31 ulps); one coordinate on the grid or a signed
    zero; and one scaled magnitude near 2**52, 2**62 or 2**63."""
    k = rng.integers(512, 1000, size=d) * np.where(rng.random(d) < 0.5, -1.0, 1.0)
    base = (k + rng.uniform(0.25, 0.75, size=d)) * step
    yield base
    j = rng.integers(d)
    for n in (1, 2, 15, 16, 17, 31, 32, 33, 63, 64):
        for scaled in (_ulps(k, n), _ulps(k, -n)):
            yield scaled * step
            one = base.copy()
            one[j] = scaled[j] * step
            yield one
    for value in (k[j] * step, 0.0, -0.0):
        one = base.copy()
        one[j] = value
        yield one
    for mag in (2.0**52, 2.0**62, 2.0**63):
        for n in (-3, -1, 1):
            one = base.copy()
            one[j] = _ulps(mag, n) * step
            yield one


@pytest.mark.parametrize("d", [1, 20, 10_000])
def test_quantize_short_and_full_paths_match_reference(d):
    # The short path runs when every coordinate's frac lies strictly
    # between tol = (max|s| + 1) 2**-48 and 1 - tol; the full path
    # otherwise.  Both must give the reference's grid and draws.
    rng = np.random.default_rng(29 + d)
    subnormal = [5 * 2.0**-1074 * math.sqrt(d), 2.0**-1030 * 1.5 * math.sqrt(d)]
    for max_error in [math.sqrt(d), 0.1, 3e-7] + subnormal:
        spec = QuantSpec(max_error, d)
        if max_error in subnormal:
            assert spec.grid_step < np.finfo(np.float64).tiny
        for rep, w in enumerate(_near_tolerance_cases(rng, d, spec.grid_step)):
            assert_matches_reference(w, spec, seed=rep)

    # frac exactly at the tolerance, one ulp either side, and the same at
    # 1 - tol, on a unit grid step where s is w itself.
    spec = QuantSpec(math.sqrt(d), d)
    assert spec.grid_step == 1.0
    w = (rng.integers(512, 1000, size=d) + rng.uniform(0.25, 0.75, size=d)) * np.where(
        rng.random(d) < 0.5, -1.0, 1.0)
    j = int(np.argmin(np.abs(w)))
    tol = (float(np.abs(w).max()) + 1.0) * 2.0**-48
    for edge in (tol, 1.0 - tol):
        for frac in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)):
            for sign in (1.0, -1.0):
                one = w.copy()
                one[j] = sign * frac
                assert_matches_reference(one, spec, seed=j)


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


def _planted(step):
    """Coordinates planted into a normal vector: non-finite values, scaled
    magnitudes either side of 2**63, signed zeros and on-grid values."""
    top = float(np.nextafter(2.0**63, 0.0))
    above = float(np.nextafter(2.0**63, np.inf))
    return st.one_of(
        st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0]),
        st.sampled_from([top, -top, above, -above]).map(lambda s: s * step),
        st.integers(-(2**40), 2**40).map(lambda k: k * step),
    )


@st.composite
def _long_vectors(draw):
    """A vector of 21 to 300 coordinates, long enough that numpy's SIMD
    argmin and argmax run whole vector blocks as well as a scalar tail,
    with coordinates of ``_planted`` at drawn positions, and its spec."""
    d = draw(st.integers(min_value=21, max_value=300))
    max_error = draw(st.sampled_from([0.0, 1e-9, 0.3, 7.5, 1e12]))
    spec = QuantSpec(max_error, d)
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    w = rng.normal(size=d) * draw(st.sampled_from([0.4, 27.0, 1e6])) * (max_error or 1.0)
    step = spec.grid_step or 1.0
    for _ in range(draw(st.integers(0, 4))):
        w[draw(st.integers(0, d - 1))] = draw(_planted(step))
    return w, spec


@given(_long_vectors(), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=150, deadline=None)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_quantize_matches_reference_on_long_vectors(case, seed):
    w, spec = case
    assert_matches_reference(w, spec, seed=seed)


# -- a message as a dataclass --


def _philox(seed):
    return np.random.Generator(np.random.Philox(seed))


def test_message_keeps_dataclass_behaviour():
    spec = QuantSpec(0.05, 6)
    w = np.array([0.3, -0.01, 0.0, 2.5, -7.25, 1e-9])

    def fresh():
        return quantize(w, spec, _philox(3))

    want = ref.quantize(w, spec, _philox(3))
    assert not hasattr(fresh(), "no_such_field")
    with pytest.raises(dataclasses.FrozenInstanceError):
        fresh().bits = 0

    # replace with a grid takes that grid and copies the other fields.
    msg = fresh()
    other = dataclasses.replace(msg, grid=want.grid)
    assert other.grid is want.grid and other.decoded is msg.decoded and other.bits == msg.bits
    assert msg.grid == want.grid and msg.grid is not want.grid
    assert dataclasses.replace(fresh(), bits=0).grid == want.grid

    # == and repr compare and show the fields.
    msg = fresh()
    assert msg == QuantizedMessage(spec, want.grid, msg.decoded, msg.bits)
    assert msg != QuantizedMessage(spec, want.grid, msg.decoded, msg.bits + 1)
    assert repr(fresh()) == repr(want)

    # A pickle or copy round trip.
    for back in (pickle.loads(pickle.dumps(msg)), copy.copy(msg), copy.deepcopy(msg)):
        assert back.grid == want.grid
        assert back.bits == want.bits
        assert back.decoded.tobytes() == want.decoded.tobytes()
        assert back.to_bytes() == want.to_bytes()


def test_messages_from_separate_calls_compare_by_value():
    spec = QuantSpec(0.1, 3)

    def fresh(w=(1.0, 1.0, 1.0), rep=1):
        return quantize(np.array(w), spec, _philox(rep))

    def lossless(w=(1.0, 1.0, 1.0)):
        return quantize(np.array(w), QuantSpec(0.0, 3), _philox(0))

    # Equal from separate calls, and unequal for another input.
    assert fresh() == fresh() and not fresh() != fresh()
    assert fresh() != fresh((2.0, -1.0, 0.5)) and not fresh() == fresh((2.0, -1.0, 0.5))
    assert fresh() != dataclasses.replace(fresh(), bits=fresh().bits + 1)
    assert lossless() == lossless() and not lossless() != lossless()
    # Lossless messages differ only in their decoded values here.
    assert lossless() != lossless((1.0, 1.0, 2.0))
    assert lossless() != fresh() and fresh() != lossless()
    assert fresh() != "a message" and not fresh() == "a message"
    for msg in (fresh(), lossless()):
        with pytest.raises(TypeError, match="unhashable"):
            hash(msg)


# -- the stacked payload-bit counter against the per-row counts --

_TOP = float(np.nextafter(2.0**63, 0.0))  # the largest grid magnitude
_magnitudes = st.one_of(
    st.integers(1, 40).map(float),
    st.sampled_from([2.0**52 - 1, 2.0**52, 2.0**52 + 1, 2.0**53, 2.0**53 + 2, 2.0**62, _TOP]),
    st.floats(1.0, _TOP).map(math.floor),
)
_signed = st.tuples(_magnitudes, st.booleans()).map(lambda m: -m[0] if m[1] else m[0])


def _row(d):
    """One grid point of dimension d: all zero, a lone last-coordinate
    nonzero, dense, or sparse."""
    return st.one_of(
        st.just([0.0] * d),
        _signed.map(lambda x: [0.0] * (d - 1) + [x]),
        st.lists(_signed, min_size=d, max_size=d),
        st.lists(st.one_of(st.just(0.0), _signed), min_size=d, max_size=d),
    )


_stacks = st.integers(1, 12).flatmap(
    lambda d: st.lists(_row(d), min_size=0, max_size=6).map(
        lambda rows: np.array(rows, dtype=np.float64).reshape(len(rows), d)
    )
)


@given(_stacks)
@settings(max_examples=300, deadline=None)
def test_grid_payload_bits_equals_per_row_counts(stack):
    got = grid_payload_bits(stack)
    assert got.shape == stack.shape[:1] and got.dtype == np.int64
    for row, bits in zip(stack, got.tolist()):
        grid = SparseIntVector.from_dense(row.astype(np.int64))
        assert bits == len(encode_sparse(grid))
        assert bits == sparse_payload_bits(np.array(grid.positions), np.array(grid.values))
        assert grid_payload_bits(row) == bits  # one row, as a message counts it
    # Any leading shape: the rows of a (2, n, d) stack.
    twice = np.stack([stack, stack[::-1]])
    assert grid_payload_bits(twice).tolist() == [got.tolist(), got[::-1].tolist()]
