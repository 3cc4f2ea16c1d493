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
"""

from __future__ import annotations

from dataclasses import dataclass
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

# bytes.translate table from ASCII '0' / '1' to bit values 0 / 1.
_ASCII_TO_BIT = bytes.maketrans(b"01", b"\x00\x01")


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
        """Append ``value`` as ``width`` bits, most significant first."""
        for shift in range(width - 1, -1, -1):
            self._buf.append((value >> shift) & 1)

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


@dataclass(frozen=True)
class SparseIntVector:
    """Nonzero entries of an integer vector, as (1-based position, value).

    Positions are strictly increasing and bounded by ``dim``; values are
    nonzero.
    """

    dim: int
    positions: tuple[int, ...]
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise InvalidInputError("dim must be positive")
        if len(self.positions) != len(self.values):
            raise InvalidInputError("positions and values must align")
        if not len(self.positions):
            return
        # Integers beyond int64 give object arrays, which compare exactly.
        arr = np.array(self.positions)
        if (
            arr[0] > 0
            and arr[-1] <= self.dim
            and (arr[1:] > arr[:-1]).all()
            and 0 not in self.values
        ):
            return
        # Invalid: name the first bad entry, checked in the documented order.
        prev = 0
        for pos, val in zip(self.positions, self.values):
            if pos <= prev:
                raise InvalidInputError("positions must be strictly increasing")
            if pos > self.dim:
                raise InvalidInputError(f"position {pos} exceeds dim {self.dim}")
            if val == 0:
                raise InvalidInputError("values must be nonzero")
            prev = pos

    @property
    def nnz(self) -> int:
        return len(self.positions)

    @classmethod
    def from_dense(cls, arr: Sequence[int] | np.ndarray) -> "SparseIntVector":
        arr = np.asarray(arr)
        idx = np.flatnonzero(arr)
        return cls(
            dim=len(arr),
            positions=tuple((idx + 1).tolist()),
            values=tuple(map(int, arr[idx].tolist())),
        )

    def to_dense(self, dtype=np.int64) -> np.ndarray:
        out = np.zeros(self.dim, dtype=dtype)
        out[np.array(self.positions, dtype=np.intp) - 1] = self.values
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


def elias_decode(stream: BitStream, cursor: int = 0) -> tuple[int, int]:
    """Decode one Elias gamma code starting at ``cursor``.

    Returns ``(n, new_cursor)``; raises ``CorruptStreamError`` on a
    truncated code.
    """
    total = len(stream)
    zeros = 0
    while True:
        if cursor >= total:
            raise CorruptStreamError("truncated Elias code (no leading 1)")
        if stream[cursor]:
            break
        zeros += 1
        cursor += 1
    if cursor + zeros >= total:
        raise CorruptStreamError("truncated Elias code (payload cut short)")
    n = 1
    cursor += 1
    for _ in range(zeros):
        n = (n << 1) | stream[cursor]
        cursor += 1
    return n, cursor


def encode_sparse(v: SparseIntVector) -> BitStream:
    """Encode a sparse integer vector; see the module docstring for layout."""
    out = elias_encode(v.nnz + 1)
    prev = 0
    for pos, val in zip(v.positions, v.values):
        out.extend(elias_encode(pos - prev))
        out.append(0 if val > 0 else 1)
        out.extend(elias_encode(abs(val)))
        prev = pos
    return out


def decode_sparse(stream: BitStream, dim: int) -> SparseIntVector:
    """Exact inverse of ``encode_sparse``.

    The stream must contain exactly one encoded vector; trailing bits and
    positions beyond ``dim`` raise ``CorruptStreamError``.
    """
    header, cursor = elias_decode(stream, 0)
    nnz = header - 1
    positions = []
    values = []
    prev = 0
    for _ in range(nnz):
        gap, cursor = elias_decode(stream, cursor)
        if cursor >= len(stream):
            raise CorruptStreamError("truncated entry (missing sign bit)")
        sign = -1 if stream[cursor] else 1
        cursor += 1
        mag, cursor = elias_decode(stream, cursor)
        pos = prev + gap
        if pos > dim:
            raise CorruptStreamError(f"position {pos} overflows dim {dim}")
        positions.append(pos)
        values.append(sign * mag)
        prev = pos
    if cursor != len(stream):
        raise CorruptStreamError(f"{len(stream) - cursor} trailing bits")
    return SparseIntVector(dim=dim, positions=tuple(positions), values=tuple(values))


def _floor_log2(n: np.ndarray) -> np.ndarray:
    """Exact floor(log2) for positive int64 arrays, as an integer array."""
    n = np.asarray(n, dtype=np.int64)
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
