"""Run records: per-iteration distances, loss gaps and the bit ledger.

A trace has one row per iterate t = 0..T.  Row t holds the state of
iterate t (distance to optimum, loss gap) together with the
communication spent by the round *starting* at t and that round's total
quantization-error budget; the final row carries zero bits.  Cumulative
bits are the running sum, so the bits already paid to *reach* iterate t
are ``cum_bits[t] - bits_up[t] - bits_down[t]``.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError

__all__ = ["RunTrace"]

_CSV_HEADER = "t,dist,fgap,bits_up,bits_down,cum_bits,budget"
_CSV_FIELDS = tuple(_CSV_HEADER.split(","))
_CSV_TYPES = (int, float, float, int, int, int, float)


@dataclass
class RunTrace:
    """Columnar record of one simulated run."""

    algorithm: str
    t: np.ndarray
    dist: np.ndarray
    fgap: np.ndarray
    bits_up: np.ndarray
    bits_down: np.ndarray
    budget: np.ndarray
    # Free-form diagnostics (per-round error fractions, payload bit lists,
    # hyperparameters); not part of the CSV contract.
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = len(self.t)
        for name in ("dist", "fgap", "bits_up", "bits_down", "budget"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} has mismatched length")

    @property
    def cum_bits(self) -> np.ndarray:
        return np.cumsum(self.bits_up + self.bits_down)

    @property
    def total_bits(self) -> int:
        return int(self.bits_up.sum() + self.bits_down.sum())

    def bits_to_accuracy(self, threshold: float) -> int | None:
        """Bits spent to first reach ``fgap <= threshold`` (None if never).

        Rows whose bits belong to the round *starting* there exclude
        their own bits; traces flagged ``bits_timing: arriving`` (sync
        rows record the communication that produced the state) include
        them.
        """
        hits = np.nonzero(self.fgap <= threshold)[0]
        if len(hits) == 0:
            return None
        t_star = int(hits[0])
        spent_through = int(self.cum_bits[t_star])
        if self.extras.get("bits_timing") == "arriving":
            return spent_through
        return spent_through - int(self.bits_up[t_star] + self.bits_down[t_star])

    def to_csv(self, fh: io.TextIOBase | str) -> None:
        """Write ``t,dist,fgap,bits_up,bits_down,cum_bits,budget`` rows.

        Floats carry 17 significant digits so the file round-trips the
        exact binary values.
        """
        own = isinstance(fh, str)
        out = open(fh, "w", newline="\n") if own else fh
        columns = (self.t, self.dist, self.fgap, self.bits_up, self.bits_down, self.cum_bits,
                   self.budget)
        out.write(_CSV_HEADER + "\n" + "".join(
            f"{int(t)},{dist:.17g},{fgap:.17g},{int(up)},{int(down)},{int(cum)},{budget:.17g}\n"
            for t, dist, fgap, up, down, cum, budget in zip(*(c.tolist() for c in columns))
        ))
        if own:
            out.close()

    def to_csv_bytes(self) -> bytes:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue().encode()

    @classmethod
    def from_csv(cls, fh: io.TextIOBase | str, algorithm: str = "") -> "RunTrace":
        """Read rows written by ``to_csv``.

        Raises ``InvalidInputError`` naming the line (the header is line 1)
        and the field at fault: a wrong header, a row with too few or too
        many fields, a field that does not parse, or a ``cum_bits`` that is
        not the running sum of ``bits_up + bits_down``.
        """
        own = isinstance(fh, str)
        inp = open(fh) if own else fh
        try:
            header = inp.readline().strip()
            if header != _CSV_HEADER:
                raise InvalidInputError(f"line 1: expected header {_CSV_HEADER!r}, got {header!r}")
            cols = [[] for _ in _CSV_FIELDS]
            cum = 0
            for lineno, line in enumerate(inp, start=2):
                if not line.strip():
                    continue
                fields = line.strip().split(",")
                if len(fields) != len(_CSV_FIELDS):
                    raise InvalidInputError(
                        f"line {lineno}: expected {len(_CSV_FIELDS)} fields ({_CSV_HEADER}), "
                        f"got {len(fields)}"
                    )
                for col, name, kind, text in zip(cols, _CSV_FIELDS, _CSV_TYPES, fields):
                    try:
                        col.append(kind(text))
                    except ValueError:
                        raise InvalidInputError(
                            f"line {lineno}: {name} {text!r} is not {kind.__name__}"
                        ) from None
                cum += cols[3][-1] + cols[4][-1]
                if cols[5][-1] != cum:
                    raise InvalidInputError(
                        f"line {lineno}: cum_bits {cols[5][-1]} is not the running sum "
                        f"of bits_up + bits_down ({cum})"
                    )
        finally:
            if own:
                inp.close()
        t, dist, fgap, bits_up, bits_down, _, budget = map(np.array, cols)
        return cls(algorithm=algorithm, t=t, dist=dist, fgap=fgap, bits_up=bits_up,
                   bits_down=bits_down, budget=budget)
