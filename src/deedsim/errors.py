"""Exception types shared across the package."""

import math


class DeedsimError(Exception):
    """Base class for all package errors."""


class InvalidInputError(DeedsimError, ValueError):
    """An argument violates a documented precondition."""


class CorruptStreamError(DeedsimError, ValueError):
    """A bitstream cannot be decoded (truncated or inconsistent)."""


class RankDeficiencyError(DeedsimError, ValueError):
    """The requested problem has no unique optimum."""


class ConfigError(DeedsimError, ValueError):
    """One or more configuration entries are invalid.

    ``violations`` lists every failed check, not just the first.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class BoundViolationError(DeedsimError, AssertionError):
    """A run broke a convergence envelope or error-budget guarantee.

    An envelope violation is found after the simulation has finished and
    carries its ``traces``; a violation raised mid-run carries ``None``
    and names the Monte Carlo ``run`` it happened in.
    """

    def __init__(self, kind, t, observed, allowed, traces=None, run=None):
        self.kind = kind
        self.t = t
        self.observed = observed
        self.allowed = allowed
        self.traces = traces
        self.run = run
        where = f"t={t}" if run is None else f"t={t} in run {run}"
        super().__init__(f"{kind} violated at {where}: {self.comparison}")

    @property
    def comparison(self) -> str:
        """``observed X > allowed Y``, or which of the two is NaN: a NaN
        compares false with everything, so it is named, not compared."""
        nan = [name for name in ("observed", "allowed") if math.isnan(getattr(self, name))]
        if not nan:
            return f"observed {self.observed!r} > allowed {self.allowed!r}"
        return (
            f"NaN {' and '.join(nan)} value "
            f"(observed {self.observed!r}, allowed {self.allowed!r})"
        )
