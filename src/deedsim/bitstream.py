"""Bit-exact integer coding.

Implements Elias gamma codes and a self-delimiting wire format for
sparse signed-integer vectors:

    Elias(nnz + 1)                                  -- header
    for each nonzero, in increasing position order:
        Elias(gap)      gap = position - previous position (first from 0)
        1 sign bit      0 = positive, 1 = negative
        Elias(|value|)

Positions are 1-based; gaps are therefore always >= 1 and every Elias
argument is positive.  Bits are most-significant-first within each code
and streams are plain concatenations of codes with no padding.

A ``SparseIntVector`` stores its positions and values as read-only numpy
arrays (int64, or object arrays of Python ints where an entry does not
fit in int64).  ``encode_sparse`` reads those arrays, ``decode_sparse``
returns its vector in them, and ``to_dense`` scatters them; the tuple
views ``positions`` and ``values`` are built only when read.
"""

from __future__ import annotations

import operator
from dataclasses import FrozenInstanceError
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CorruptStreamError, InvalidInputError

__all__ = [
    "BitStream",
    "SparseIntVector",
    "elias_encode",
    "elias_decode",
    "elias_length",
    "encode_sparse",
    "decode_sparse",
    "sparse_payload_bits",
]

# bytes.translate tables between ASCII '0' / '1' and bit values 0 / 1.
_ASCII_TO_BIT = bytes.maketrans(b"01", b"\x00\x01")
_BIT_TO_ASCII = bytes.maketrans(b"\x00\x01", b"01")


class BitStream:
    """Append-only ordered sequence of bits.

    Concatenation is associative and length-additive; ``to_bytes`` packs
    MSB-first with the final byte zero-padded (the padded length is the
    caller's to record, see ``from_bytes``).
    """

    __slots__ = ("_buf",)

    def __init__(self, bits: Iterable[int] = ()) -> None:
        self._buf = bytearray(bits)
        # Deleting every 0 and 1 byte leaves exactly the invalid ones.
        if self._buf.translate(None, b"\x00\x01"):
            raise InvalidInputError("bits must be 0 or 1")

    @classmethod
    def from_string(cls, text: str) -> "BitStream":
        """Build from a string like ``\"00101\"``."""
        raw = text.encode("ascii", "replace")
        if raw.translate(None, b"01"):
            raise InvalidInputError("bit string may contain only '0' and '1'")
        s = cls()
        s._buf = bytearray(raw.translate(_ASCII_TO_BIT))
        return s

    def append(self, bit: int) -> None:
        self._buf.append(bit)

    def extend_uint(self, value: int, width: int) -> None:
        """Append ``value`` as ``width`` bits, most significant first.

        Only the low ``width`` bits are kept, so a negative value is
        written in two's complement.
        """
        if width > 0:
            value = operator.index(value) & ((1 << width) - 1)
            digits = bin(value | (1 << width))[3:]  # strip "0b1"
            self._buf += digits.encode("ascii").translate(_ASCII_TO_BIT)

    def extend(self, other: "BitStream") -> None:
        self._buf.extend(other._buf)

    def __add__(self, other: "BitStream") -> "BitStream":
        out = BitStream()
        out._buf = self._buf + other._buf
        return out

    def __len__(self) -> int:
        return len(self._buf)

    def __getitem__(self, i: int) -> int:
        return self._buf[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BitStream) and self._buf == other._buf

    def __hash__(self):  # streams are mutable; keep them unhashable
        raise TypeError("BitStream is unhashable")

    def __iter__(self) -> Iterator[int]:
        return iter(self._buf)

    def __repr__(self) -> str:
        head = self.to01() if len(self) <= 64 else self.to01()[:61] + "..."
        return f"BitStream({head!r}, len={len(self)})"

    def to01(self) -> str:
        return "".join("01"[b] for b in self._buf)

    def to_bytes(self) -> bytes:
        """Pack MSB-first; final byte zero-padded on the right."""
        return np.packbits(np.frombuffer(self._buf, dtype=np.uint8)).tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, nbits: int) -> "BitStream":
        """Inverse of ``to_bytes``; ``nbits`` is the unpadded length."""
        if nbits < 0:
            raise CorruptStreamError(f"negative declared bit length {nbits}")
        if nbits > 8 * len(data):
            raise CorruptStreamError("declared bit length exceeds data")
        s = cls()
        s._buf = bytearray(np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=nbits))
        return s


def _int_array(seq) -> np.ndarray:
    """A new int64 array of the integers in ``seq``, or an object array of
    Python ints when one of them does not fit in int64."""
    arr = np.asarray(seq)
    kind = arr.dtype.kind
    if arr.ndim == 1 and (kind in "ib" or (kind == "u" and not (arr >> 63).any())):
        return arr.astype(np.int64)
    # Mixed or wide integers, which numpy may have turned into floats.
    try:
        ints = [operator.index(x) for x in seq]
    except TypeError:
        raise InvalidInputError("positions and values must be integers") from None
    try:
        return np.array(ints, dtype=np.int64)
    except OverflowError:
        return np.array(ints, dtype=object)


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr`` as stored: int64 if every entry fits, made read-only."""
    if arr.dtype.hasobject:
        try:
            arr = arr.astype(np.int64)
        except OverflowError:
            pass
    arr.setflags(write=False)
    return arr


class SparseIntVector:
    """Nonzero entries of an integer vector, as (1-based position, value).

    Positions are strictly increasing and bounded by ``dim``; values are
    nonzero.  Both are stored as read-only numpy arrays,
    ``position_array`` and ``value_array``: int64, or an object array of
    Python ints when an entry does not fit in int64.  ``positions`` and
    ``values`` are tuples of Python ints, built from the arrays on first
    access and cached.  Instances are immutable; equality and hashing
    are by ``(dim, positions, values)``.
    """

    __slots__ = ("dim", "position_array", "value_array", "_positions", "_values")

    def __init__(self, dim: int, positions: Sequence[int], values: Sequence[int]) -> None:
        if dim < 1:
            raise InvalidInputError("dim must be positive")
        if len(positions) != len(values):
            raise InvalidInputError("positions and values must align")
        pos = _int_array(positions)
        val = _int_array(values)
        if len(pos) and not (
            pos[0] > 0 and int(pos[-1]) <= dim and (pos[1:] > pos[:-1]).all() and val.all()
        ):
            # Invalid: name the first bad entry, checked in the documented order.
            prev = 0
            for p, v in zip(pos.tolist(), val.tolist()):
                if p <= prev:
                    raise InvalidInputError("positions must be strictly increasing")
                if p > dim:
                    raise InvalidInputError(f"position {p} exceeds dim {dim}")
                if v == 0:
                    raise InvalidInputError("values must be nonzero")
                prev = p
        self._set(dim, pos, val)

    def _set(self, dim, positions: np.ndarray, values: np.ndarray) -> None:
        # The tuple views ``_positions`` and ``_values`` stay unset until read.
        setattr_ = object.__setattr__  # the class's own __setattr__ refuses
        setattr_(self, "dim", dim)
        setattr_(self, "position_array", _frozen(positions))
        setattr_(self, "value_array", _frozen(values))

    @classmethod
    def _unchecked(
        cls, dim: int, positions: np.ndarray, values: np.ndarray
    ) -> "SparseIntVector":
        """Adopt integer arrays without the constructor's checks, for
        producers that guarantee them (the decoder and the quantizer).
        The arrays are made read-only in place, so they must be the
        producer's own."""
        self = object.__new__(cls)
        self._set(dim, positions, values)
        return self

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return SparseIntVector._unchecked, (self.dim, self.position_array, self.value_array)

    @property
    def positions(self) -> tuple[int, ...]:
        try:
            return self._positions
        except AttributeError:
            object.__setattr__(self, "_positions", tuple(self.position_array.tolist()))
            return self._positions

    @property
    def values(self) -> tuple[int, ...]:
        try:
            return self._values
        except AttributeError:
            object.__setattr__(self, "_values", tuple(self.value_array.tolist()))
            return self._values

    @property
    def nnz(self) -> int:
        return len(self.position_array)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.dim == other.dim
            and np.array_equal(self.position_array, other.position_array)
            and np.array_equal(self.value_array, other.value_array)
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.positions, self.values))

    def __repr__(self) -> str:
        return (
            f"SparseIntVector(dim={self.dim!r}, positions={self.positions!r}, "
            f"values={self.values!r})"
        )

    @classmethod
    def from_dense(cls, arr: Sequence[int] | np.ndarray) -> "SparseIntVector":
        arr = np.asarray(arr)
        idx = np.flatnonzero(arr)
        return cls(
            dim=len(arr),
            positions=idx + 1,
            values=tuple(map(int, arr[idx].tolist())),
        )

    def to_dense(self, dtype=np.int64) -> np.ndarray:
        out = np.zeros(self.dim, dtype=dtype)
        out[self.position_array - 1] = self.value_array
        return out


def elias_length(n: int) -> int:
    """Code length of the Elias gamma code of ``n``: 2*floor(log2 n) + 1."""
    if n < 1:
        raise InvalidInputError(f"Elias gamma requires n >= 1, got {n}")
    return 2 * (int(n).bit_length() - 1) + 1


def elias_encode(n: int) -> BitStream:
    """Elias gamma code: floor(log2 n) zeros, then the binary digits of n."""
    n = int(n)
    if n < 1:
        raise InvalidInputError(f"Elias gamma requires n >= 1, got {n}")
    width = n.bit_length()
    out = BitStream()
    out._buf = bytearray(width - 1)  # leading zeros
    out.extend_uint(n, width)
    return out


def _elias_end(buf: bytearray, cursor: int) -> int:
    """End (exclusive) of the Elias gamma code that starts at ``cursor``.

    The code of n is floor(log2 n) zeros, then floor(log2 n) + 1 digits
    of n, so its end lies as far past its leading 1 as that 1 lies past
    ``cursor``, plus one.
    """
    one = buf.find(1, cursor)
    if one < 0:
        raise CorruptStreamError("truncated Elias code (no leading 1)")
    end = 2 * one - cursor + 1
    if end > len(buf):
        raise CorruptStreamError("truncated Elias code (payload cut short)")
    return end


def elias_decode(stream: BitStream, cursor: int = 0) -> tuple[int, int]:
    """Decode one Elias gamma code starting at ``cursor``.

    Returns ``(n, new_cursor)``; raises ``CorruptStreamError`` on a
    truncated code.
    """
    buf = stream._buf
    end = _elias_end(buf, cursor)
    digits = buf[(end + cursor - 1) // 2 : end]
    return int(digits.translate(_BIT_TO_ASCII), 2), end


def encode_sparse(v: SparseIntVector) -> BitStream:
    """Encode a sparse integer vector; see the module docstring for layout.

    Every field of the stream (each Elias code and each sign bit) is an
    unsigned integer written in a fixed width: an Elias code of n is n in
    2 floor(log2 n) + 1 bits.  The widths and their running sum place
    every field, and digit j of all fields is written in one numpy pass.
    """
    nnz = v.nnz
    positions, values = v.position_array, v.value_array
    if positions.dtype == object or values.dtype == object:
        # Exact Python ints beyond int64.
        positions = positions.astype(object)
        values = values.astype(object)
        dtype = object
    else:
        dtype = np.uint64  # holds |-2**63|
    # Stream order: nnz + 1, then gap, sign and |value| of each entry.
    fields = np.empty(3 * nnz + 1, dtype=dtype)
    fields[0] = nnz + 1
    fields[1:2] = positions[:1]
    fields[4::3] = np.diff(positions)
    fields[2::3] = values < 0
    fields[3::3] = np.abs(values)
    del positions, values
    digits = _floor_log2(fields)
    digits += 1
    digits[2::3] = 1  # a sign bit is one digit, also when it is 0
    # Digit j (from the least significant) of a field ending before
    # position e sits at e - 1 - j; the leading zeros stay as allocated.
    last = np.cumsum(2 * digits - 1)
    last -= 1
    out = bytearray(int(last[-1]) + 1)
    # Longest fields first: those with more than j digits are a prefix,
    # of length ``longer[j]``.
    order = np.argsort(-digits)
    longer = np.cumsum(np.bincount(digits)[::-1])[-2::-1].tolist()
    del digits
    fields = fields[order]
    last = last[order]
    del order
    bits = np.frombuffer(out, dtype=np.uint8)
    for n in longer:
        bits[last[:n]] = fields[:n] & 1
        fields[:n] >>= 1
        last[:n] -= 1
    del bits  # release the buffer so that the stream can grow
    stream = BitStream()
    stream._buf = out
    return stream


# Digits read per numpy pass: a run of 57 bits that starts at any bit of
# a byte lies inside the 64-bit word that starts at that byte.
_CHUNK = 57


def _read_codes(buf: bytearray, ones: np.ndarray, ends: np.ndarray, dtype) -> np.ndarray:
    """Values of the binary numbers ``buf[ones[i]:ends[i]]``, as ``dtype``.

    The bits are packed once; each pass reads the lowest 57 digits not
    yet read of every number from the unaligned big-endian 64-bit word
    that starts at their first byte, so numbers below 2**57 take one.
    """
    nbytes = (len(buf) + 7) // 8
    packed = np.zeros(nbytes + 7, dtype=np.uint8)
    packed[:nbytes] = np.packbits(np.frombuffer(buf, dtype=np.uint8))
    words = np.ndarray((nbytes,), dtype=">i8", buffer=packed, strides=(1,))
    values = np.zeros(len(ones), dtype=dtype)
    pick = slice(None)
    done = 0
    while True:
        hi = ends[pick] - done
        # The digits read, at most 57, start in byte ``at`` and end
        # 64 + 8 at - hi bits before the 64-bit word from that byte does.
        at = hi - _CHUNK
        np.maximum(at, ones[pick], out=at)
        at >>= 3
        chunk = words[at]
        at <<= 3
        at += 64
        at -= hi
        chunk >>= at
        del at
        hi -= ones[pick]
        np.minimum(hi, _CHUNK, out=hi)
        np.left_shift(1, hi, out=hi)
        hi -= 1
        chunk &= hi  # also clears the sign-extended bits
        del hi
        chunk = chunk.astype(dtype)
        chunk <<= done
        values[pick] |= chunk
        del chunk
        done += _CHUNK
        pick = np.flatnonzero(ends - ones > done)
        if not len(pick):
            return values


def _code_ends(buf: bytearray) -> np.ndarray:
    """``ends[p]``: the end (exclusive) of the Elias gamma code that would
    start at bit p, for every p at once; ``len(buf) + 1`` where the stream
    cuts that code short.  Three extra entries past the stream hold
    ``len(buf) + 1`` too, so that ``ends[ends[p] + 1]`` is always defined.
    """
    total = len(buf)
    # Intermediate values reach 4 total + 7.
    ends = np.empty(total + 3, dtype=np.int32 if total < 2**29 else np.int64)
    # The next 1 at or after p: a running minimum, from the end, of q for
    # a 1 at q and q + total for a 0 (total or more means no 1 is left).
    np.multiply(np.frombuffer(buf, dtype=np.uint8) == 0, total, out=ends[:total])
    ends[:total] += np.arange(total, dtype=ends.dtype)
    ends[total:] = total
    np.minimum.accumulate(ends[::-1], out=ends[::-1])
    # A code ends as far past its leading 1 as that 1 lies past p, plus one.
    ends *= 2
    ends -= np.arange(total + 3, dtype=ends.dtype)
    ends += 1
    np.minimum(ends, total + 1, out=ends)
    ends[total:] = total + 1
    return ends


def decode_sparse(stream: BitStream, dim: int) -> SparseIntVector:
    """Exact inverse of ``encode_sparse``.

    The stream must contain exactly one encoded vector; trailing bits and
    positions beyond ``dim`` raise ``CorruptStreamError``.  Errors are
    raised in stream order: an entry's position is checked once its
    magnitude is read, before any later entry.
    """
    buf = stream._buf
    total = len(buf)
    header, cursor = elias_decode(stream, 0)
    nnz = header - 1
    # Walk one entry per step: past Elias(gap), its sign bit and
    # Elias(|value|), marking where each entry ends.  An entry the stream
    # cuts short ends the walk and is diagnosed below.  Arrays are dropped
    # as soon as they are spent, which keeps the peak memory of a call
    # near that of the vector it returns.
    ends = _code_ends(buf)
    step = memoryview(ends)
    marks = bytearray(total + 1)
    p = cursor
    for _ in range(nnz):
        p = step[step[p] + 1]
        if p > total:
            break
        marks[p] = 1
    del step
    bounds = np.concatenate(([cursor], np.flatnonzero(marks)))
    del marks
    complete = len(bounds) - 1
    signs_at = ends[bounds[:-1]].astype(np.int64)  # where Elias(gap) ends
    del ends
    signs = np.frombuffer(buf, dtype=np.uint8)[signs_at].astype(bool)
    # Gap codes, then magnitude codes; an Elias code from start to end
    # has its leading 1 halfway, at (start + end - 1) / 2.
    starts = np.concatenate((bounds[:-1], signs_at + 1))
    code_ends = np.concatenate((signs_at, bounds[1:]))
    del signs_at
    cursor = int(bounds[-1])
    del bounds
    ones = starts + code_ends
    del starts
    ones -= 1
    ones >>= 1
    wide = (code_ends - ones).max(initial=0) > 63 or dim >= 2**63
    codes = _read_codes(buf, ones, code_ends, object if wide else np.int64)
    del ones, code_ends
    gaps, mags = codes[:complete], codes[complete:]
    positions = np.cumsum(gaps)
    # With int64, a sum that wraps past 2**63 turns negative.
    bad = np.flatnonzero((positions > dim) | (positions < 1))
    if len(bad):
        i = int(bad[0])
        pos = int(gaps[0]) if i == 0 else int(positions[i - 1]) + int(gaps[i])
        raise CorruptStreamError(f"position {pos} overflows dim {dim}")
    if complete < nnz:
        end = _elias_end(buf, cursor)
        if end >= total:
            raise CorruptStreamError("truncated entry (missing sign bit)")
        _elias_end(buf, end + 1)
    if cursor != total:
        raise CorruptStreamError(f"{total - cursor} trailing bits")
    if dim < 1:
        raise InvalidInputError("dim must be positive")
    # Gaps and magnitudes are Elias codes, so at least 1: positions rise
    # strictly and values are nonzero, as the vector requires.
    values = np.where(signs, -mags, mags)
    del codes, gaps, mags, signs
    return SparseIntVector._unchecked(dim, positions, values)


def _floor_log2(n: np.ndarray) -> np.ndarray:
    """Exact floor(log2) for arrays of positive integers (int64, uint64 or
    Python ints), as an integer array; 0 gives -1."""
    n = np.asarray(n)
    # frexp is exact on integers below 2**52: n = m * 2**e with
    # 0.5 <= m < 1, so floor(log2 n) = e - 1.
    if n.max(initial=0) < (1 << 52):
        return np.frexp(n.astype(np.float64))[1] - 1
    return np.array([x.bit_length() - 1 for x in n.tolist()], dtype=np.int64)


def sparse_payload_bits(positions: np.ndarray, values: np.ndarray) -> int:
    """Length in bits of ``encode_sparse`` without building the stream.

    ``positions`` are 1-based and strictly increasing, ``values`` nonzero.
    Each entry costs Elias(gap) + 1 sign bit + Elias(|value|), and an
    Elias code of n takes 2 floor(log2 n) + 1 bits.
    """
    positions = np.asarray(positions, dtype=np.int64)
    values = np.asarray(values, dtype=np.int64)
    nnz = len(positions)
    if len(values) != nnz:
        raise InvalidInputError("positions and values must align")
    if not nnz:
        return elias_length(1)
    # Gaps and magnitudes share one buffer so floor(log2) runs once.
    buf = np.empty(2 * nnz, dtype=np.int64)
    buf[0] = positions[0]
    np.subtract(positions[1:], positions[:-1], out=buf[1:nnz])
    np.abs(values, out=buf[nnz:])
    return elias_length(nnz + 1) + 3 * nnz + 2 * int(_floor_log2(buf).sum())
