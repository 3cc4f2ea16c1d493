"""Unbiased vector quantization with a hard absolute error bound.

A vector ``w`` in R^d is scaled onto an integer grid of step
``max_error / sqrt(d)``, each coordinate is rounded to floor or ceil
unbiasedly (stochastic rounding), and the integer grid point is shipped
as a sparse Elias-coded payload.  ``grid_point`` stops at the grid
point, held as integer-valued floats, which is all a run reads;
``quantize`` builds the whole message from it: the sparse ``grid``, the
decoded vector and the payload bits.  A vector with no coordinate on
the grid, nearly every vector a run sends, takes a short path of one
draw per coordinate; ``grid_point``'s docstring proves that both paths
agree.  ``grid_payload_bits`` counts a whole ``(..., d)`` stack of grid
points, so a run decodes and counts a round's messages at once; a
message counts its bits from its sparse ``grid`` with
``sparse_payload_bits``.  The decoded vector is always within Euclidean
distance ``max_error`` of the input, and its expectation over the
rounding dither equals the input.

``grid_point`` makes no ``ufunc`` reduction (``np.maximum.reduce``,
``.min()``, ``.all()``) on a vector it accepts: each check reads the
least and greatest value by index through ``argmin`` and ``argmax``.  On
numpy 2.4 one reduction of a 20- to 100-float vector costs 0.7-1.2 us,
and both reads by index together 0.5-0.75 us.  ``grid_point`` takes
6.1 us at d = 20, 6.4-6.7 us at d = 100 and 1.35 us lossless; a whole
message from ``quantize`` takes 20-21 us, and 2.3-2.7 us lossless
(2-core x86 box, minima of 9 x 5,000 calls).

Setting ``max_error = 0`` selects lossless pass-through: the vector is
transmitted verbatim and charged ``DEFAULT_FLOAT_BITS * dim`` bits, which gives
exact baselines a communication cost and makes the zero-budget mode of
the quantized algorithms coincide bit-for-bit with their exact
counterparts.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .bitstream import (
    BitStream,
    SparseIntVector,
    elias_encode,
    encode_sparse,
    sparse_payload_bits,
)
from .errors import InvalidInputError

__all__ = [
    "DEFAULT_FLOAT_BITS",
    "QuantSpec",
    "QuantizedMessage",
    "grid_point",
    "quantize",
    "grid_payload_bits",
    "dequantize",
    "bits_lower_bound",
    "bits_upper_bound",
]

DEFAULT_FLOAT_BITS = 32

# Scaled magnitudes must stay strictly below this to fit a signed 64-bit
# grid: 2**63 itself would wrap to -2**63 in the int64 cast.
_GRID_LIMIT = 2.0**63


def _is_integer(value) -> bool:
    """An integer that is not a bool.  A float seed would otherwise run
    as its integer part, and a float count or dimension fail later in
    numpy or ``range``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class QuantSpec:
    """Quantization contract: dimension and maximal Euclidean error; the
    grid spacing ``grid_step = max_error / sqrt(dim)`` is derived once."""

    max_error: float
    dim: int
    grid_step: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not _is_integer(self.dim):
            raise InvalidInputError(f"dim must be an integer (dim = {self.dim!r})")
        if self.dim < 1:
            raise InvalidInputError("dim must be positive")
        if not (self.max_error >= 0.0) or not math.isfinite(self.max_error):
            raise InvalidInputError("max_error must be finite and >= 0")
        object.__setattr__(self, "grid_step", self.max_error / math.sqrt(self.dim))
        if self.max_error > 0.0 and self.grid_step == 0.0:
            raise InvalidInputError(
                f"max_error = {self.max_error!r} is too small: its grid step "
                "max_error / sqrt(dim) underflows to 0"
            )

    @property
    def lossless(self) -> bool:
        return self.max_error == 0.0


@dataclass(frozen=True, eq=False)
class QuantizedMessage:
    """A quantized vector: integer grid point, payload size, decoded value.

    ``grid`` is ``None`` in pass-through mode, where ``decoded`` carries
    the verbatim vector and ``bits`` is ``DEFAULT_FLOAT_BITS * dim``.  Otherwise
    ``decoded == grid * grid_step`` coordinate-wise and ``bits`` equals
    the Elias payload length.  ``quantize`` sets all four fields from
    ``grid_point``'s grid point.  Two messages are equal when their spec,
    bits, grid and decoded values are; a message is unhashable, as its
    decoded array is mutable.
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


def grid_point(w: np.ndarray, spec: QuantSpec, rng: np.random.Generator) -> np.ndarray:
    """The grid point of ``w`` under ``spec``, a new array of integer-valued
    floats below 2**63 (a copy of ``w`` when lossless), consuming one
    dither draw per randomized coordinate in coordinate order.

    Coordinates already equal to a representable grid point reproduce
    themselves deterministically (no draw consumed).

    Most vectors have no such coordinate, and for them a short path skips
    the on-grid tests: every coordinate takes one draw.  Which path runs
    depends on ``w`` and ``spec`` alone, and both give the same grid point
    and draws.  Let ``s = fl(w / step)``, ``lo = floor(s)``, ``frac = fl(s - lo)``
    and ``u = 2**-53``.  Suppose a candidate ``c`` (``lo`` or ``lo + 1``)
    decodes to ``w``: ``fl(c * step) == w``.  A product and a quotient
    each err by at most a factor ``1 + u`` (an integer multiple of a grid
    step is exact where it is subnormal), so ``s`` lies within
    ``|c| (2u + u**2) <= (|s| + 1) (2u + u**2)`` of ``c``.  The difference
    ``s - lo`` lies in [0, 1) and rounds by less than ``u``, so
    ``frac <= (|s| + 1) 2**-51`` for ``c = lo``, and
    ``frac >= 1 - (|s| + 1) 2**-51`` for ``c = lo + 1`` (Sterbenz's
    lemma makes the subtraction exact for ``|s| >= 1``; Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2002, section 2).  Above
    2**52 every float is an integer and ``frac`` is 0, so ``lo + 1`` is
    exact wherever this matters.  A coordinate with ``frac == 0`` fails
    any positive tolerance.  So with ``M`` the guard's ``max |s|`` (read
    by index, see below) and ``tol = (M + 1) 2**-48``, eight times the
    worst case (which also covers the rounding of ``tol`` and of
    ``1 - tol``), a vector whose
    every ``frac`` lies strictly between ``tol`` and ``1 - tol`` has no
    on-grid coordinate and none with ``frac == 0``: the full path would
    randomize every coordinate, as the short one does.

    The guard reads ``M`` by index, as ``max(-s[argmin s], s[argmax s])``,
    and the short path's test reads the least and the greatest ``frac``
    the same way, so a message makes no ``ufunc`` reduction.  A minimum
    and a maximum are exact and do not depend on the order of the
    coordinates, so ``M`` is ``max |s|`` to the bit.  ``argmin`` and
    ``argmax`` both land on the first NaN, so a NaN anywhere makes ``M``
    NaN, which fails the guard's comparison, and an infinity of either
    sign makes it infinite.  The lossless branch tests its least and
    greatest coordinate with ``math.isfinite`` for the same reasons.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1 or len(w) != spec.dim:
        raise InvalidInputError(f"expected a vector of dim {spec.dim}")

    if spec.lossless:
        # The least and greatest coordinates, or the first NaN.
        if not (math.isfinite(w[w.argmin()]) and math.isfinite(w[w.argmax()])):
            raise InvalidInputError("input coordinates must be finite")
        return w.copy()

    step = spec.grid_step
    scaled = w / step
    # One guard for both faults: max |s| read by index, or NaN if any
    # coordinate is (argmin and argmax both land on the first NaN), and a
    # NaN fails every comparison.
    largest = max(-scaled[scaled.argmin()], scaled[scaled.argmax()])
    if not largest < _GRID_LIMIT:
        if not np.isfinite(w).all():
            raise InvalidInputError("input coordinates must be finite")
        raise InvalidInputError("scaled magnitude overflows the 64-bit grid")

    lo = np.floor(scaled)
    frac = np.subtract(scaled, lo, out=scaled)
    tol = (float(largest) + 1.0) * 2.0**-48
    if tol < frac[frac.argmin()] and frac[frac.argmax()] < 1.0 - tol:
        # No coordinate is on-grid or has frac == 0 (see above): one draw each.
        up = rng.random(len(frac)) < frac
    else:
        # A coordinate is on-grid when some candidate decodes back to it
        # exactly; the upper candidate wins when both do.  The rest with a
        # fractional part take one draw each (on booleans, a > b is a & ~b).
        up = (lo + 1.0) * step == w
        randomized = np.logical_and(frac, lo * step != w)
        np.greater(randomized, up, out=randomized)
        n = np.count_nonzero(randomized)
        if n:
            up[randomized] = rng.random(n) < frac[randomized]

    # The grid point lo + up in place of lo.
    return np.add(lo, up, out=lo)


def quantize(w: np.ndarray, spec: QuantSpec, rng: np.random.Generator) -> QuantizedMessage:
    """The message of ``w`` under ``spec``: ``grid_point``'s grid point, from
    the same draws, as its sparse grid, decoded vector and payload bits."""
    point = grid_point(w, spec, rng)
    if spec.lossless:
        return QuantizedMessage(spec, None, point, DEFAULT_FLOAT_BITS * spec.dim)
    (idx,) = point.nonzero()  # exact: every value is an integer below 2**63
    grid = SparseIntVector._unchecked(spec.dim, idx + 1, point[idx].astype(np.int64))
    bits = sparse_payload_bits(grid.position_array, grid.value_array)
    point *= spec.grid_step  # the decoded vector, in the grid point's place
    return QuantizedMessage(spec, grid, point, bits)


def grid_payload_bits(points: np.ndarray) -> np.ndarray:
    """Payload bits of each row of a ``(..., d)`` stack of grid points
    (integer-valued floats below 2**63), as ``sparse_payload_bits``
    counts the row's nonzeros: Elias(nnz + 1), then per nonzero
    Elias(gap) + sign + Elias(|value|).  An Elias code of n takes 2 e - 1
    bits for frexp's n = m 2**e, whatever the sign, and frexp gives 0 an
    exponent of 0, so the rows sum their values' exponents and their
    gaps' (a 1-based position less the previous nonzero's, or less 0)."""
    nonzero = points != 0.0
    last = np.maximum.accumulate(nonzero * np.arange(1, points.shape[-1] + 1), axis=-1)
    gaps = last.copy()  # at a nonzero, its position less the previous one's; 0 elsewhere
    gaps[..., 1:] -= last[..., :-1]
    nnz = np.add.reduce(nonzero, axis=-1)
    exponents = np.add.reduce(np.frexp(points)[1], axis=-1)
    exponents += np.add.reduce(np.frexp(gaps)[1], axis=-1)
    return 2 * (exponents + np.frexp(nnz + 1)[1]) - 1 - nnz


def dequantize(msg: QuantizedMessage) -> np.ndarray:
    """Decode a message: grid times grid step (deterministic, no RNG)."""
    if msg.grid is None:
        return msg.decoded.copy()
    return msg.grid.to_dense(dtype=np.float64) * msg.spec.grid_step


def _bound_bits(dim, rel_err, bound) -> int:
    """``ceil(bound())`` once ``dim`` is a positive integer and ``rel_err``
    and ``1 / rel_err`` are positive and finite; ``InvalidInputError``
    names them where the bound is not a finite float."""
    if not _is_integer(dim):
        raise InvalidInputError(f"dim must be an integer (dim = {dim!r})")
    if dim < 1:
        raise InvalidInputError("dim must be positive")
    if not rel_err > 0:
        raise InvalidInputError("rel_err must be positive")
    if not (math.isfinite(rel_err) and math.isfinite(1.0 / rel_err)):
        raise InvalidInputError(f"rel_err and 1 / rel_err must be finite (rel_err = {rel_err!r})")
    try:
        return math.ceil(bound())
    except OverflowError:  # an integer dim or a bound beyond the float range
        raise InvalidInputError(
            f"the bound is not a finite float (dim = {dim!r}, rel_err = {rel_err!r})"
        ) from None


def bits_lower_bound(dim: int, rel_err: float) -> int:
    """Information-theoretic floor ``ceil(dim * log2(1 / rel_err))`` for coding
    a ball to relative accuracy ``rel_err``; 0 from rel_err = 1 on, for any dim."""
    return _bound_bits(dim, rel_err, lambda: dim * math.log2(1.0 / rel_err) if rel_err < 1 else 0.0)


def bits_upper_bound(dim: int, rel_err: float) -> int:
    """Achievable cost ``ceil(1.05 d + d log2((1 + 2 rel_err)/rel_err))``
    of an unbiased grid code at relative accuracy ``rel_err``."""
    # Taken after the checks, as rel_err may be 0.  From 2**54 on 1 + 2 rel_err
    # rounds to 2 rel_err (or overflows): the ratio is 2.
    ratio = lambda: 2.0 if rel_err >= 2.0**54 else (1.0 + 2.0 * rel_err) / rel_err
    return _bound_bits(dim, rel_err, lambda: 1.05 * dim + dim * math.log2(ratio()))
