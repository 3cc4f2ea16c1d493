"""Array-at-a-time reference implementation of ``deedsim.quantizer.quantize``.

A frozen copy of ``quantize`` as it stood before its per-call overhead
was cut: separate on-grid masks, a checked ``SparseIntVector`` and the
payload length from ``sparse_payload_bits``.  It is the oracle the fast
path is tested against: the same grid, bits and decoded bytes, the same
dither draws consumed, and the same ``InvalidInputError`` message, with
the checks made in the same order.
"""

import numpy as np

from deedsim.bitstream import SparseIntVector, sparse_payload_bits
from deedsim.errors import InvalidInputError
from deedsim.quantizer import DEFAULT_FLOAT_BITS, QuantizedMessage, QuantSpec

_GRID_LIMIT = 2.0**63


def quantize(
    w: np.ndarray,
    spec: QuantSpec,
    rng: np.random.Generator,
    float_bits: int = DEFAULT_FLOAT_BITS,
) -> QuantizedMessage:
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1 or len(w) != spec.dim:
        raise InvalidInputError(f"expected a vector of dim {spec.dim}")
    if not np.isfinite(w).all():
        raise InvalidInputError("input coordinates must be finite")

    if spec.lossless:
        if float_bits < 1:
            raise InvalidInputError(f"float_bits must be >= 1 (float_bits = {float_bits!r})")
        return QuantizedMessage(
            spec=spec, grid=None, decoded=w.copy(), bits=float_bits * spec.dim
        )

    step = spec.grid_step
    scaled = w / step
    if np.abs(scaled).max() >= _GRID_LIMIT:
        raise InvalidInputError("scaled magnitude overflows the 64-bit grid")

    lo = np.floor(scaled)
    frac = scaled - lo
    snap_lo = lo * step == w
    snap_hi = (lo + 1.0) * step == w
    randomized = (frac != 0.0) & ~snap_lo & ~snap_hi

    up = snap_hi.copy()
    if randomized.any():
        draws = rng.random(int(randomized.sum()))
        up[randomized] = draws < frac[randomized]

    grid_dense = (lo + up).astype(np.int64)
    decoded = grid_dense * step
    idx = np.flatnonzero(grid_dense)
    positions = idx + 1
    values = grid_dense[idx]
    grid = SparseIntVector(spec.dim, tuple(positions.tolist()), tuple(values.tolist()))
    bits = sparse_payload_bits(positions, values)
    return QuantizedMessage(spec=spec, grid=grid, decoded=decoded, bits=bits)
