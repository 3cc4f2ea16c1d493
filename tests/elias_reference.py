"""Bit-by-bit reference implementation of the sparse Elias wire format.

These loops read and write one bit per Python step, exactly as the
format is specified in ``deedsim.bitstream``'s module docstring.  They
are the oracle the vectorized codec is tested against: encodings must
be bit-identical, and decoding must give the same vector or the same
``CorruptStreamError`` message, with the checks made in the same order.
"""

from deedsim.bitstream import BitStream, SparseIntVector
from deedsim.errors import CorruptStreamError, InvalidInputError


def extend_uint(bits: list, value: int, width: int) -> None:
    """Append ``value`` as ``width`` bits, most significant first."""
    for shift in range(width - 1, -1, -1):
        bits.append((value >> shift) & 1)


def elias_bits(n: int) -> list:
    """Elias gamma code: floor(log2 n) zeros, then the binary digits of n."""
    if n < 1:
        raise InvalidInputError(f"Elias gamma requires n >= 1, got {n}")
    width = n.bit_length()
    bits = [0] * (width - 1)
    extend_uint(bits, n, width)
    return bits


def elias_decode(bits, cursor: int = 0) -> tuple[int, int]:
    total = len(bits)
    zeros = 0
    while True:
        if cursor >= total:
            raise CorruptStreamError("truncated Elias code (no leading 1)")
        if bits[cursor]:
            break
        zeros += 1
        cursor += 1
    if cursor + zeros >= total:
        raise CorruptStreamError("truncated Elias code (payload cut short)")
    n = 1
    cursor += 1
    for _ in range(zeros):
        n = (n << 1) | bits[cursor]
        cursor += 1
    return n, cursor


def encode_sparse(v: SparseIntVector) -> BitStream:
    bits = elias_bits(v.nnz + 1)
    prev = 0
    for pos, val in zip(v.positions, v.values):
        bits += elias_bits(pos - prev)
        bits.append(0 if val > 0 else 1)
        bits += elias_bits(abs(val))
        prev = pos
    return BitStream(bits)


def decode_sparse(stream: BitStream, dim: int) -> SparseIntVector:
    bits = list(stream)
    header, cursor = elias_decode(bits, 0)
    nnz = header - 1
    positions = []
    values = []
    prev = 0
    for _ in range(nnz):
        gap, cursor = elias_decode(bits, cursor)
        if cursor >= len(bits):
            raise CorruptStreamError("truncated entry (missing sign bit)")
        sign = -1 if bits[cursor] else 1
        cursor += 1
        mag, cursor = elias_decode(bits, cursor)
        pos = prev + gap
        if pos > dim:
            raise CorruptStreamError(f"position {pos} overflows dim {dim}")
        positions.append(pos)
        values.append(sign * mag)
        prev = pos
    if cursor != len(bits):
        raise CorruptStreamError(f"{len(bits) - cursor} trailing bits")
    return SparseIntVector(dim=dim, positions=tuple(positions), values=tuple(values))
