"""Unbiased vector quantization with a hard absolute error bound.

A vector ``w`` in R^d is scaled onto an integer grid of step
``max_error / sqrt(d)``, each coordinate is rounded to floor or ceil
unbiasedly (stochastic rounding), and the integer grid point is shipped
as a sparse Elias-coded payload.  ``quantize`` counts the payload bits
from the grid point held as integer-valued floats, and the message keeps
that float grid; its ``grid``, a ``SparseIntVector``, is built from it on
first read, and the float grid is then dropped.  A simulated run reads
only a message's decoded vector and bits, so it builds no grid.  The
decoded vector is always within Euclidean distance ``max_error`` of the
input, and its expectation over the rounding dither equals the input.

Setting ``max_error = 0`` selects lossless pass-through: the vector is
transmitted verbatim and charged ``float_bits * dim`` bits, which gives
exact baselines a communication cost and makes the zero-budget mode of
the quantized algorithms coincide bit-for-bit with their exact
counterparts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bitstream import (
    BitStream,
    SparseIntVector,
    elias_encode,
    elias_length,
    encode_sparse,
    sparse_payload_bits,  # noqa: F401 -- quantize's bit count, inlined; perfbench traces this name
)
from .errors import InvalidInputError

__all__ = [
    "DEFAULT_FLOAT_BITS",
    "QuantSpec",
    "QuantizedMessage",
    "quantize",
    "dequantize",
    "bits_lower_bound",
    "bits_upper_bound",
]

DEFAULT_FLOAT_BITS = 32

# Scaled magnitudes must stay strictly below this to fit a signed 64-bit
# grid: 2**63 itself would wrap to -2**63 in the int64 cast.
_GRID_LIMIT = 2.0**63


@dataclass(frozen=True)
class QuantSpec:
    """Quantization contract: dimension and maximal Euclidean error."""

    max_error: float
    dim: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise InvalidInputError("dim must be positive")
        if not (self.max_error >= 0.0) or not math.isfinite(self.max_error):
            raise InvalidInputError("max_error must be finite and >= 0")
        if self.max_error > 0.0 and self.grid_step == 0.0:
            raise InvalidInputError(
                f"max_error = {self.max_error!r} is too small: its grid step "
                "max_error / sqrt(dim) underflows to 0"
            )

    @property
    def grid_step(self) -> float:
        """Per-coordinate grid spacing, ``max_error / sqrt(dim)``."""
        return self.max_error / math.sqrt(self.dim)

    @property
    def lossless(self) -> bool:
        return self.max_error == 0.0


@dataclass(frozen=True, eq=False)
class QuantizedMessage:
    """A quantized vector: integer grid point, payload size, decoded value.

    ``grid`` is ``None`` in pass-through mode, where ``decoded`` carries
    the verbatim vector and ``bits`` is ``float_bits * dim``.  Otherwise
    ``decoded == grid * grid_step`` coordinate-wise and ``bits`` equals
    the Elias payload length.  A message from ``quantize`` builds its
    ``grid`` on first read (see ``_unbuilt``).  Two messages are equal when
    their spec, bits, grid and decoded values are; a message is unhashable,
    as its decoded array is mutable.
    """

    spec: QuantSpec
    grid: SparseIntVector | None
    decoded: np.ndarray = field(repr=False)
    bits: int

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.spec == other.spec
            and self.bits == other.bits
            and self.grid == other.grid
            and np.array_equal(self.decoded, other.decoded)
        )

    __hash__ = None

    @classmethod
    def _unbuilt(
        cls, spec: QuantSpec, float_grid: np.ndarray, idx: np.ndarray, decoded: np.ndarray,
        bits: int,
    ) -> "QuantizedMessage":
        """A message that holds its grid point as the integer-valued float
        array ``float_grid`` (the quantizer's own) and the indices ``idx``
        of its nonzeros, in place of ``grid``."""
        self = object.__new__(cls)
        self.__dict__.update(spec=spec, decoded=decoded, bits=bits, _float_grid=(float_grid, idx))
        return self

    def __getattr__(self, name):
        # Reached only for a name the instance does not hold: ``grid`` of
        # an unbuilt message, before its first read.  Once the grid is
        # stored, the float grid is dropped.
        state = self.__dict__
        if name != "grid" or "_float_grid" not in state:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        lo, idx = state["_float_grid"]
        state["grid"] = SparseIntVector._unchecked(self.spec.dim, idx + 1, lo[idx].astype(np.int64))
        del state["_float_grid"]
        return state["grid"]

    @property
    def payload(self) -> BitStream:
        """Encoded payload, built on demand (empty for pass-through)."""
        if self.grid is None:
            return BitStream()
        return encode_sparse(self.grid)

    def to_bytes(self) -> tuple[bytes, int]:
        """Serialize as Elias(dim) ++ 64 float bits of grid_step ++ payload.

        Returns ``(data, nbits)``; ``nbits`` records the unpadded length.
        The grid-step field is protocol metadata and excluded from the
        communicated-bit count.  Pass-through messages are not
        serializable (they exist only for in-process baselines).
        """
        if self.grid is None:
            raise InvalidInputError("pass-through messages have no wire form")
        stream = elias_encode(self.spec.dim)
        (step_bits,) = np.frombuffer(
            np.float64(self.spec.grid_step).tobytes(), dtype=np.uint64
        )
        stream.extend_uint(int(step_bits), 64)
        stream.extend(self.payload)
        return stream.to_bytes(), len(stream)


def quantize(
    w: np.ndarray,
    spec: QuantSpec,
    rng: np.random.Generator,
    float_bits: int = DEFAULT_FLOAT_BITS,
) -> QuantizedMessage:
    """Quantize ``w`` under ``spec``, consuming one dither draw per
    randomized coordinate in coordinate order.

    Coordinates already equal to a representable grid point reproduce
    themselves deterministically (no draw consumed).
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1 or len(w) != spec.dim:
        raise InvalidInputError(f"expected a vector of dim {spec.dim}")

    if spec.lossless:
        if not np.isfinite(w).all():
            raise InvalidInputError("input coordinates must be finite")
        if float_bits < 1:
            raise InvalidInputError(f"float_bits must be >= 1 (float_bits = {float_bits!r})")
        return QuantizedMessage(
            spec=spec, grid=None, decoded=w.copy(), bits=float_bits * spec.dim
        )

    step = spec.grid_step
    scaled = w / step
    # One guard for both faults: a NaN fails every comparison.
    if not np.maximum.reduce(np.abs(scaled)) < _GRID_LIMIT:
        if not np.isfinite(w).all():
            raise InvalidInputError("input coordinates must be finite")
        raise InvalidInputError("scaled magnitude overflows the 64-bit grid")

    lo = np.floor(scaled)
    frac = np.subtract(scaled, lo, out=scaled)
    # A coordinate is on-grid when some candidate decodes back to it
    # exactly; the upper candidate wins when both do.  The rest with a
    # fractional part take one draw each (on booleans, a > b is a & ~b).
    up = (lo + 1.0) * step == w
    randomized = np.logical_and(frac, lo * step != w)
    np.greater(randomized, up, out=randomized)
    n = np.count_nonzero(randomized)
    if n:
        up[randomized] = rng.random(n) < frac[randomized]

    # The grid point lo + up in place of lo.  Every grid value is an
    # integer-valued float below 2**63, so the int64 grid built from it is
    # exact and the decoded value lo * step equals grid * step.
    np.add(lo, up, out=lo)
    decoded = lo * step
    (idx,) = lo.nonzero()
    # Payload bits, as ``sparse_payload_bits`` counts them: per entry
    # Elias(gap) + sign + Elias(|value|), where an Elias code of n takes
    # 2 floor(log2 n) + 1 = 2 e - 1 bits for frexp's n = m 2**e with
    # 0.5 <= |m| < 1, whatever the sign.  frexp gives 0 an exponent of 0,
    # so the dense grid sums the values' exponents.  The gaps are
    # idx[0] + 1, then the steps of idx.
    nnz = len(idx)
    exponents = np.add.reduce(np.frexp(lo)[1]) + np.add.reduce(np.frexp(idx[1:] - idx[:-1])[1])
    if nnz:
        exponents += (int(idx[0]) + 1).bit_length()
    bits = elias_length(nnz + 1) - nnz + 2 * int(exponents)
    return QuantizedMessage._unbuilt(spec, lo, idx, decoded, bits)


def dequantize(msg: QuantizedMessage) -> np.ndarray:
    """Decode a message: grid times grid step (deterministic, no RNG)."""
    if msg.grid is None:
        return msg.decoded.copy()
    return msg.grid.to_dense(dtype=np.float64) * msg.spec.grid_step


def bits_lower_bound(dim: int, rel_err: float) -> int:
    """Information-theoretic floor ``ceil(dim * log2(1 / rel_err))``,
    clamped at zero, for coding a ball to relative accuracy ``rel_err``."""
    if dim < 1:
        raise InvalidInputError("dim must be positive")
    if not rel_err > 0:
        raise InvalidInputError("rel_err must be positive")
    return max(0, math.ceil(dim * math.log2(1.0 / rel_err)))


def bits_upper_bound(dim: int, rel_err: float) -> int:
    """Achievable cost ``ceil(1.05 d + d log2((1 + 2 rel_err)/rel_err))``
    of an unbiased grid code at relative accuracy ``rel_err``."""
    if dim < 1:
        raise InvalidInputError("dim must be positive")
    if not rel_err > 0:
        raise InvalidInputError("rel_err must be positive")
    return math.ceil(1.05 * dim + dim * math.log2((1.0 + 2.0 * rel_err) / rel_err))
