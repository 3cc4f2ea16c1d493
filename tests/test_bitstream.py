import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deedsim.bitstream import (
    BitStream,
    SparseIntVector,
    decode_sparse,
    elias_decode,
    elias_encode,
    elias_length,
    encode_sparse,
    sparse_payload_bits,
)
from deedsim.errors import CorruptStreamError, InvalidInputError

import elias_reference as ref


def test_elias_worked_examples():
    assert elias_encode(1).to01() == "1"
    assert elias_encode(2).to01() == "010"
    assert elias_encode(5).to01() == "00101"


def test_elias_rejects_nonpositive():
    with pytest.raises(InvalidInputError):
        elias_encode(0)
    with pytest.raises(InvalidInputError):
        elias_encode(-3)


def test_elias_decode_worked_examples():
    assert elias_decode(BitStream.from_string("1")) == (1, 1)
    assert elias_decode(BitStream.from_string("00101")) == (5, 5)
    # Sequential decode of a concatenation: "010" ++ "1" -> 2 then 1.
    stream = elias_encode(2) + elias_encode(1)
    n1, cur = elias_decode(stream, 0)
    n2, cur = elias_decode(stream, cur)
    assert (n1, n2) == (2, 1) and cur == len(stream)


def test_elias_decode_truncated():
    with pytest.raises(CorruptStreamError):
        elias_decode(BitStream.from_string("0"))
    with pytest.raises(CorruptStreamError):
        elias_decode(BitStream.from_string("001"))


@given(st.integers(min_value=1, max_value=2**62))
def test_elias_roundtrip_and_length(n):
    code = elias_encode(n)
    assert len(code) == 2 * (n.bit_length() - 1) + 1 == elias_length(n)
    assert elias_decode(code) == (n, len(code))


def test_concatenation_is_length_additive():
    a = BitStream.from_string("0101")
    b = BitStream.from_string("11")
    c = BitStream.from_string("0")
    assert (a + b) + c == a + (b + c)
    assert len(a + b + c) == len(a) + len(b) + len(c)


def test_sparse_worked_example():
    v = SparseIntVector(dim=4, positions=(2, 4), values=(3, -1))
    enc = encode_sparse(v)
    assert enc.to01() == "011" + "010" + "0" + "011" + "010" + "1" + "1"
    assert decode_sparse(enc, 4) == v


def test_sparse_empty_vector():
    v = SparseIntVector(dim=4, positions=(), values=())
    assert encode_sparse(v).to01() == "1"
    assert decode_sparse(BitStream.from_string("1"), 7) == SparseIntVector(7, (), ())


def test_sparse_corrupt_streams():
    with pytest.raises(CorruptStreamError):
        decode_sparse(BitStream.from_string("0"), 4)  # truncated header
    # Position overflow: single entry at position 9 in a dim-4 vector.
    bad = encode_sparse(SparseIntVector(dim=9, positions=(9,), values=(1,)))
    with pytest.raises(CorruptStreamError):
        decode_sparse(bad, 4)
    # Trailing garbage.
    with pytest.raises(CorruptStreamError):
        decode_sparse(BitStream.from_string("11"), 4)


_INVALID_SPARSE = [
    (4, (2, 2), (1, 1), "positions must be strictly increasing"),
    (4, (3, 2), (1, 1), "positions must be strictly increasing"),
    (4, (5,), (1,), "position 5 exceeds dim 4"),
    (4, (1,), (0,), "values must be nonzero"),
    (4, (0,), (1,), "positions must be strictly increasing"),
    (4, (-1, 2), (1, 1), "positions must be strictly increasing"),
    (4, (1, 2), (1,), "positions and values must align"),
    (4, (1,), (1, 2), "positions and values must align"),
    (0, (), (), "dim must be positive"),
    (-3, (1,), (1,), "dim must be positive"),
    # The first offending entry decides the message, in check order.
    (4, (1, 9, 9), (0, 1, 1), "values must be nonzero"),
    (4, (2, 5, 5), (1, 1, 0), "position 5 exceeds dim 4"),
    (4, (2**70,), (1,), f"position {2**70} exceeds dim 4"),
]


def test_sparse_invariants_rejected():
    for dim, positions, values, message in _INVALID_SPARSE:
        with pytest.raises(InvalidInputError) as info:
            SparseIntVector(dim=dim, positions=positions, values=values)
        assert str(info.value) == message


def test_sparse_accepts_values_beyond_int64():
    v = SparseIntVector(dim=3, positions=(1, 3), values=(2**70, -(2**64)))
    assert decode_sparse(encode_sparse(v), 3) == v


def test_from_dense_matches_elementwise_reference():
    for arr in ([0, 3, 0, -7], np.array([0.0, 2.5, -1.9]), np.zeros(5, dtype=np.int64)):
        arr = np.asarray(arr)
        idx = [i for i in range(len(arr)) if arr[i] != 0]
        v = SparseIntVector.from_dense(arr)
        assert v.positions == tuple(i + 1 for i in idx)
        assert v.values == tuple(int(arr[i]) for i in idx)
        assert all(type(x) is int for x in v.positions + v.values)


def test_to_dense_float_matches_elementwise_assignment():
    values = (2**53 + 1, -(2**53 + 3), 2**62 - 1, -(2**63) + 1, 2**53 - 1, 7)
    v = SparseIntVector(dim=9, positions=(1, 2, 4, 5, 8, 9), values=values)
    for dtype in (np.float64, np.int64):
        expected = np.zeros(9, dtype=dtype)
        for pos, val in zip(v.positions, v.values):
            expected[pos - 1] = val
        got = v.to_dense(dtype=dtype)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()


def _random_sparse(rng, dim_max=10_000):
    dim = int(rng.integers(1, dim_max + 1))
    density = rng.uniform(0.0, 1.0)
    nnz = int(round(density * dim))
    positions = np.sort(rng.choice(dim, size=nnz, replace=False)) + 1
    values = rng.integers(1, 2**40, size=nnz) * rng.choice([-1, 1], size=nnz)
    return SparseIntVector(
        dim=dim, positions=tuple(int(p) for p in positions),
        values=tuple(int(x) for x in values),
    )


def test_sparse_roundtrip_1000_random_vectors():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        v = _random_sparse(rng, dim_max=500)
        assert decode_sparse(encode_sparse(v), v.dim) == v


def test_sparse_roundtrip_large_dims():
    rng = np.random.default_rng(7)
    for _ in range(10):
        v = _random_sparse(rng, dim_max=10_000)
        assert decode_sparse(encode_sparse(v), v.dim) == v


def test_payload_bits_matches_encoding():
    rng = np.random.default_rng(3)
    for _ in range(300):
        v = _random_sparse(rng, dim_max=200)
        expected = len(encode_sparse(v))
        got = sparse_payload_bits(
            np.array(v.positions, dtype=np.int64), np.array(v.values, dtype=np.int64)
        )
        assert got == expected


def test_payload_bits_huge_values():
    v = SparseIntVector(dim=3, positions=(1, 3), values=(2**62 - 1, -(2**55)))
    assert sparse_payload_bits(np.array(v.positions), np.array(v.values)) == len(
        encode_sparse(v)
    )


def test_payload_bits_rejects_misaligned_arrays():
    with pytest.raises(InvalidInputError):
        sparse_payload_bits(np.array([1, 2]), np.array([5]))
    with pytest.raises(InvalidInputError):
        sparse_payload_bits(np.array([], dtype=np.int64), np.array([5]))


# Magnitudes at the edge of float64's exact-integer range, where frexp
# stops being exact and floor(log2) needs the integer fallback.
_FLOAT_EDGE = [
    base + off for base in (2**52, 2**53) for off in (-1, 0, 1)
] + [2**62, 2**63 - 1]


@pytest.mark.parametrize("big", _FLOAT_EDGE)
def test_payload_bits_at_float_exactness_edge(big):
    cases = [
        SparseIntVector(dim=1, positions=(1,), values=(big,)),
        SparseIntVector(dim=1, positions=(1,), values=(-big,)),
        # A gap of ``big``: the only entry sits at position ``big``.
        SparseIntVector(dim=big, positions=(big,), values=(3,)),
        SparseIntVector(dim=big, positions=(2, big), values=(1, -5)),
        # Small and large magnitudes mixed in one vector.
        SparseIntVector(dim=6, positions=(1, 2, 4, 6), values=(1, big, -3, -big)),
    ]
    for v in cases:
        got = sparse_payload_bits(
            np.array(v.positions, dtype=np.int64), np.array(v.values, dtype=np.int64)
        )
        assert got == len(encode_sparse(v))


def test_encoded_length_monotone_in_nnz():
    values = [7, -3, 19, 2, -1]
    prev = None
    for nnz in range(len(values) + 1):
        v = SparseIntVector(
            dim=10, positions=tuple(range(1, nnz + 1)), values=tuple(values[:nnz])
        )
        n = len(encode_sparse(v))
        if prev is not None:
            assert n >= prev
        prev = n


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_sparse_roundtrip_property(data):
    dim = data.draw(st.integers(min_value=1, max_value=300))
    nnz = data.draw(st.integers(min_value=0, max_value=dim))
    positions = tuple(
        sorted(
            data.draw(
                st.sets(st.integers(1, dim), min_size=nnz, max_size=nnz)
            )
        )
    )
    values = tuple(
        data.draw(
            st.lists(
                st.integers(-(2**62), 2**62).filter(lambda x: x != 0),
                min_size=len(positions),
                max_size=len(positions),
            )
        )
    )
    v = SparseIntVector(dim=dim, positions=positions, values=values)
    enc = encode_sparse(v)
    assert decode_sparse(enc, dim) == v
    assert sparse_payload_bits(np.array(positions or [], dtype=np.int64),
                               np.array(values or [], dtype=np.int64)) == len(enc)


def test_byte_serialization_golden():
    # "011010001101011" packs MSB-first into 0x68 0xD6 (last bit padded).
    enc = encode_sparse(SparseIntVector(dim=4, positions=(2, 4), values=(3, -1)))
    data = enc.to_bytes()
    assert data == bytes([0x68, 0xD6])
    assert BitStream.from_bytes(data, len(enc)) == enc


def test_byte_serialization_roundtrip_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        bits = BitStream(rng.integers(0, 2, size=int(rng.integers(0, 70))).tolist())
        assert BitStream.from_bytes(bits.to_bytes(), len(bits)) == bits


def test_from_bytes_rejects_overlong_declaration():
    with pytest.raises(CorruptStreamError):
        BitStream.from_bytes(b"\x00", 9)
    with pytest.raises(CorruptStreamError):
        BitStream.from_bytes(b"\x00", -1)


def _pack_reference(bits):
    out = bytearray((len(bits) + 7) // 8)
    for i, bit in enumerate(bits):
        if bit:
            out[i >> 3] |= 0x80 >> (i & 7)
    return bytes(out)


def _unpack_reference(data, nbits):
    return [(data[i >> 3] >> (7 - (i & 7))) & 1 for i in range(nbits)]


def test_byte_packing_matches_per_bit_reference():
    rng = np.random.default_rng(12)
    for nbits in range(71):
        for _ in range(3):
            bits = rng.integers(0, 2, size=nbits).tolist()
            data = BitStream(bits).to_bytes()
            assert data == _pack_reference(bits)
            assert list(BitStream.from_bytes(data, nbits)) == bits
            # A buffer longer than the declared length: the rest is ignored.
            padded = data + bytes(rng.integers(0, 256, size=2).tolist())
            for short in {0, nbits // 2, nbits}:
                assert list(BitStream.from_bytes(padded, short)) == _unpack_reference(
                    padded, short
                )


def test_bit_constructors_validate():
    assert BitStream.from_string("0110").to01() == "0110"
    assert list(BitStream([1, 0, 1])) == [1, 0, 1]
    for text in ("012", "01a", "0 1", "\u0661"):
        with pytest.raises(InvalidInputError):
            BitStream.from_string(text)
    for bits in ([0, 2], [255], [1, 1, 0, 3]):
        with pytest.raises(InvalidInputError):
            BitStream(bits)


def test_extend_uint_matches_per_bit_loop():
    values = [0, 1, 5, 2**31 - 1, 2**64 - 1, 2**70 + 12345, -1, -2, -(2**40) - 7, -(2**80)]
    for width in range(71):
        for value in values + [2**width - 1, 2**width, -(2**width)]:
            got = BitStream()
            got.extend_uint(value, width)
            want = []
            ref.extend_uint(want, value, width)
            assert list(got) == want, (value, width)
    got = BitStream.from_string("10")
    got.extend_uint(np.uint64(2**63 + 1), 64)  # numpy integers are accepted
    assert got.to01() == "10" + "1" + "0" * 62 + "1"
    for width in (0, -3):
        got.extend_uint(-1, width)
    assert len(got) == 66


# Gaps and magnitudes at the edges of float64's exact integers, of int64
# and beyond it, where the codec must stay exact.
_EDGE_INTS = [1, 2, 3] + [
    base + off for base in (2**52, 2**53) for off in (-1, 0, 1)
] + [2**62, 2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**70 + 3]


def _entries(data, nnz):
    pick = st.one_of(st.integers(1, 300), st.sampled_from(_EDGE_INTS))
    gaps = data.draw(st.lists(pick, min_size=nnz, max_size=nnz))
    mags = data.draw(st.lists(pick, min_size=nnz, max_size=nnz))
    signs = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=nnz, max_size=nnz))
    positions = tuple(int(p) for p in np.cumsum(np.array(gaps, dtype=object)))
    values = tuple(s * m for s, m in zip(signs, mags))
    return positions, values


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_sparse_codec_matches_reference(data):
    nnz = data.draw(st.integers(0, 12))
    positions, values = _entries(data, nnz)
    dim = (positions[-1] if nnz else 1) + data.draw(st.integers(0, 3))
    v = SparseIntVector(dim=dim, positions=positions, values=values)
    enc = encode_sparse(v)
    assert enc == ref.encode_sparse(v)
    gaps = [b - a for a, b in zip((0,) + positions, positions)]
    codes = [nnz + 1] + gaps + [abs(x) for x in values]
    assert len(enc) == sum(map(elias_length, codes)) + nnz
    assert decode_sparse(enc, dim) == v == ref.decode_sparse(enc, dim)


def _same_outcome(stream, dim):
    """decode_sparse and the reference agree: the same vector, or a
    CorruptStreamError with the same message."""
    try:
        want = ref.decode_sparse(stream, dim)
    except CorruptStreamError as exc:
        with pytest.raises(CorruptStreamError) as info:
            decode_sparse(stream, dim)
        assert str(info.value) == str(exc)
        return None
    got = decode_sparse(stream, dim)
    assert got == want
    return got


_FAULT_VECTORS = [
    SparseIntVector(dim=1, positions=(), values=()),
    SparseIntVector(dim=4, positions=(2, 4), values=(3, -1)),
    SparseIntVector(dim=12, positions=(2, 4, 11), values=(3, -1, 40)),
    SparseIntVector(dim=9, positions=(1, 2, 3, 9), values=(-1, 1, -2, 7)),
    SparseIntVector(dim=70, positions=(5, 70), values=(2**40 + 1, -6)),
]


@pytest.mark.parametrize("v", _FAULT_VECTORS, ids=lambda v: f"nnz{v.nnz}-dim{v.dim}")
def test_sparse_decode_faults_match_reference(v):
    # Every truncation, 1-8 trailing bits and every single-bit flip, also
    # decoded into a smaller dim, where an early entry overflows before a
    # later one is found cut short.
    bits = list(encode_sparse(v))
    rng = np.random.default_rng(v.dim)
    dims = (max(1, v.dim // 2), v.dim, 2 * v.dim + 100)
    for cut in range(len(bits)):
        for dim in dims:
            _same_outcome(BitStream(bits[:cut]), dim)
    for extra in range(1, 9):
        for tail in ([0] * extra, [1] * extra, rng.integers(0, 2, extra).tolist()):
            for dim in dims:
                _same_outcome(BitStream(bits + tail), dim)
    for i in range(len(bits)):
        flipped = bits.copy()
        flipped[i] ^= 1
        for dim in dims:
            got = _same_outcome(BitStream(flipped), dim)
            assert got is None or (got.positions, got.values) != (v.positions, v.values)


def test_sparse_decode_wide_codes_and_dims():
    for v in (
        SparseIntVector(dim=2**70, positions=(3, 2**70), values=(-(2**63), 2**64 + 1)),
        SparseIntVector(dim=2**63, positions=(2**63,), values=(1,)),
        SparseIntVector(dim=2**64 + 5, positions=(2**62, 2**64 + 1), values=(5, -5)),
    ):
        enc = encode_sparse(v)
        assert enc == ref.encode_sparse(v)
        assert decode_sparse(enc, v.dim) == v
        for dim in (v.dim - 1, v.positions[-1] - 1, 2**63 - 1):
            _same_outcome(enc, dim)
    # Gaps that wrap an int64 running sum must still overflow by their exact sum.
    v = SparseIntVector(dim=3 * 2**62, positions=(2**62, 2**63, 3 * 2**62), values=(1, 1, 1))
    _same_outcome(encode_sparse(v), 2**63 - 1)


def test_elias_decode_matches_reference():
    rng = np.random.default_rng(5)
    for _ in range(200):
        bits = rng.integers(0, 2, int(rng.integers(0, 40))).tolist()
        for cursor in range(len(bits) + 1):
            try:
                want = ref.elias_decode(bits, cursor)
            except CorruptStreamError as exc:
                with pytest.raises(CorruptStreamError, match=re.escape(str(exc))):
                    elias_decode(BitStream(bits), cursor)
                continue
            assert elias_decode(BitStream(bits), cursor) == want


def test_sparse_codec_demo_runs():
    import os
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, os.path.join(root, "demos", "01_sparse_codec.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "roundtrip ok: True" in done.stdout
    assert "unpacked ok: True" in done.stdout


# The vector stores read-only int64 arrays, or object arrays of Python
# ints where an entry does not fit in int64; ``positions`` and ``values``
# are tuple views of them.
def _assert_array_backed(v):
    for arr, view in ((v.position_array, v.positions), (v.value_array, v.values)):
        assert type(view) is tuple and all(type(x) is int for x in view)
        assert view == tuple(arr.tolist())
        assert arr.ndim == 1 and not arr.flags.writeable
        wide = any(not -(2**63) <= x < 2**63 for x in view)
        assert arr.dtype == (object if wide else np.int64)
        if len(arr):
            with pytest.raises(ValueError):
                arr[0] = 1
    assert v.nnz == len(v.positions) == len(v.values)


@given(
    d=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
    scale_exp=st.floats(-3.0, 3.0),
    budget_exp=st.floats(-3.0, 1.0),
)
@settings(max_examples=150, deadline=None)
def test_quantize_and_decode_store_read_only_arrays(d, seed, scale_exp, budget_exp):
    from deedsim.quantizer import QuantSpec, quantize

    rng = np.random.default_rng(seed)
    w = rng.standard_normal(d) * 10.0**scale_exp
    msg = quantize(w, QuantSpec(10.0**budget_exp, d), rng)
    _assert_array_backed(msg.grid)
    enc = encode_sparse(msg.grid)
    assert enc == ref.encode_sparse(msg.grid)
    got = decode_sparse(enc, d)
    _assert_array_backed(got)
    assert got == msg.grid == ref.decode_sparse(enc, d)
    assert (got.positions, got.values) == (msg.grid.positions, msg.grid.values)
    assert got.to_dense().tobytes() == msg.grid.to_dense().tobytes()


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_array_backed_and_tuple_built_vectors_agree(data):
    nnz = data.draw(st.integers(0, 8))
    positions, values = _entries(data, nnz)
    floor = positions[-1] if nnz else 1
    dim = floor + data.draw(st.one_of(st.integers(0, 3), st.sampled_from([2**63, 2**64])))
    built = SparseIntVector(dim=dim, positions=positions, values=values)
    _assert_array_backed(built)
    # Decoded (wide codes or dim >= 2**63 decode through object arrays)
    # and adopted from object arrays: equal, and hashed as the tuples are.
    enc = encode_sparse(built)
    assert enc == ref.encode_sparse(built)
    decoded = decode_sparse(enc, dim)
    adopted = SparseIntVector._unchecked(
        dim, np.array(positions, dtype=object), np.array(values, dtype=object)
    )
    for v in (decoded, adopted):
        _assert_array_backed(v)
        assert v == built and built == v and not v != built
        assert hash(v) == hash(built) == hash((dim, positions, values))
        assert encode_sparse(v) == enc
    assert ref.decode_sparse(enc, dim) == decoded
    assert SparseIntVector(dim + 1, positions, values) != built
    if nnz:
        flipped = (-values[0],) + values[1:]
        assert SparseIntVector(dim, positions, flipped) != built


def test_sparse_vector_takes_integer_sequences_of_any_form():
    want = SparseIntVector(dim=2**64, positions=(1, 2**63), values=(-1, 2**63))
    for positions, values in (
        ([1, 2**63], [-1, 2**63]),
        (np.array([1, 2**63], dtype=np.uint64), np.array([-1, 2**63], dtype=object)),
        ((np.int64(1), 2**63), (np.int64(-1), np.uint64(2**63))),
    ):
        assert SparseIntVector(2**64, positions, values) == want
    source = np.array([2, 5])
    v = SparseIntVector(dim=5, positions=source, values=np.array([1, -1], dtype=np.int8))
    source[0] = 9  # the vector keeps its own copy
    assert v.positions == (2, 5) and v.value_array.dtype == np.int64
    for bad in ((1.0, 2.0), np.array([1.5]), ("1",), ((1,),)):
        with pytest.raises(InvalidInputError, match="must be integers"):
            SparseIntVector(dim=4, positions=(1,) * len(bad), values=bad)
        with pytest.raises(InvalidInputError, match="must be integers"):
            SparseIntVector(dim=4, positions=bad, values=(1,) * len(bad))


def test_sparse_vector_is_immutable_and_pickles():
    import dataclasses
    import pickle

    v = SparseIntVector(dim=2**70, positions=(3, 2**70), values=(-(2**63), 2**64 + 1))
    for name in ("dim", "positions", "position_array", "values"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(v, name, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del v.dim
    assert repr(v) == (
        f"SparseIntVector(dim={2**70}, positions=(3, {2**70}), values=({-(2**63)}, {2**64 + 1}))"
    )
    back = pickle.loads(pickle.dumps(v))
    assert back == v and hash(back) == hash(v)
    _assert_array_backed(back)
