"""Closed-form convergence envelopes and their tightness certificate.

Every envelope produced by this module is an upper bound that a
correctly implemented run must sit under; the simulators assert against
them row by row.  The inexact-contraction recursion here is the common
root: an iteration ``w_{t+1} = F_t(w_t) + e_t`` with ``F_t`` a
``c_t``-contraction toward ``w*`` and ``|e_t| <= alpha_t`` obeys

    E |w_T - w*|^2  <=  D_T^2 |w_0 - w*|^2 + C_T^2,
    D_T^2 = prod_{i<T} c_i^2,   C_T^2 = sum_{i<T} alpha_i^2 prod_{j>i} c_j^2,

with equality achieved by an explicit adversarial construction, and the
right-hand side decays linearly iff the contractions stay bounded below
one and the noise bound decays linearly.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .problems import FedConstants
from .seeding import COIN, draw_index, stream
from .trace import RunTrace

__all__ = [
    "RecursionSpec",
    "BoundSeries",
    "AcceleratedConstants",
    "LinearRateVerdict",
    "recursion_bound",
    "deterministic_bound",
    "sgd_squared_bound",
    "xi_constant",
    "zeta_bits",
    "accelerated_bound",
    "accelerated_xi",
    "fed_bound",
    "tightness_construction",
    "linear_rate_iff_check",
]


@dataclass(frozen=True)
class RecursionSpec:
    """Per-step contraction factors, noise bounds and initial distance."""

    c_seq: np.ndarray
    alpha_seq: np.ndarray
    D0: float

    def __post_init__(self) -> None:
        c = np.asarray(self.c_seq, dtype=np.float64)
        a = np.asarray(self.alpha_seq, dtype=np.float64)
        object.__setattr__(self, "c_seq", c)
        object.__setattr__(self, "alpha_seq", a)
        if len(c) != len(a):
            raise InvalidInputError("c_seq and alpha_seq must have equal length")
        if np.any(c <= 0.0) or np.any(c >= 1.0):
            raise InvalidInputError("contraction factors must lie in (0, 1)")
        if np.any(a < 0.0):
            raise InvalidInputError("noise bounds must be nonnegative")
        if self.D0 < 0.0:
            raise InvalidInputError("D0 must be nonnegative")

    def __len__(self) -> int:
        return len(self.c_seq)


@dataclass
class BoundSeries:
    """A theoretical envelope evaluated per iteration."""

    t: np.ndarray
    bound: np.ndarray
    extras: dict = field(default_factory=dict)

    def to_csv(self, fh: io.TextIOBase | str) -> None:
        """Write ``t,bound`` rows aligned with a run trace."""
        own = isinstance(fh, str)
        out = open(fh, "w", newline="\n") if own else fh
        out.write("t,bound\n")
        for i in range(len(self.t)):
            out.write(f"{int(self.t[i])},{self.bound[i]:.17g}\n")
        if own:
            out.close()

    def to_csv_bytes(self) -> bytes:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue().encode()


def recursion_bound(spec: RecursionSpec, T: int) -> BoundSeries:
    """Envelope of the inexact-contraction recursion on E|w_t - w*|^2.

    Computed by the stable forward recursion ``C_{t+1}^2 = c_t^2 C_t^2 +
    alpha_t^2``; extras carry the ``D_t^2`` and ``C_t^2`` series.
    """
    if T > len(spec):
        raise InvalidInputError("T exceeds the supplied sequences")
    D2 = np.empty(T + 1)
    C2 = np.empty(T + 1)
    D2[0], C2[0] = 1.0, 0.0
    for t in range(T):
        c2 = spec.c_seq[t] ** 2
        D2[t + 1] = c2 * D2[t]
        C2[t + 1] = c2 * C2[t] + spec.alpha_seq[t] ** 2
    bound = D2 * spec.D0**2 + C2
    return BoundSeries(t=np.arange(T + 1), bound=bound, extras={"D2": D2, "C2": C2})


def xi_constant(c: float, c_prime: float, eta: float, s: float, D0: float) -> float:
    """Trajectory coefficient: distance stays below ``xi * c'^t``."""
    if not 0.0 <= c < c_prime < 1.0:
        raise InvalidInputError("requires 0 <= c < c' < 1")
    drift = eta * s / (c_prime - c)
    return max(0.0, D0 - c * drift) + c_prime * drift


def deterministic_bound(
    c: float, c_prime: float, eta: float, s: float, D0: float, T: int
) -> BoundSeries:
    """Distance envelope for a c-contraction with noise ``|e_t| <= eta s c'^t``:

        |w_t - w*| <= c'^t (max{0, D0 - c eta s/(c'-c)} + c' eta s/(c'-c)).
    """
    xi = xi_constant(c, c_prime, eta, s, D0)
    t = np.arange(T + 1)
    return BoundSeries(t=t, bound=xi * c_prime**t, extras={"xi": xi})


def sgd_squared_bound(
    c: float, c_prime: float, eta: float, s: float, D0: float, T: int
) -> BoundSeries:
    """Envelope on the *squared* distance of the stochastic engine:

        E|w_t - w*|^2 <= c'^t (max{0, D0^2 - c eta^2 s/(c'-c)} + c' eta^2 s/(c'-c)),

    i.e. the deterministic envelope with ``eta^2 s`` as the noise scale
    and squared initial distance.
    """
    return deterministic_bound(c, c_prime, eta**2, s, D0**2, T)


def zeta_bits(
    c: float, c_prime: float, eta: float, s: float, L: float, xi: float
) -> float:
    """Worst-case error fraction (encoded length over budget) per message:

        zeta = (2 L^2 eta xi / s + 2 L eta c' + 3 c') / c'^2.

    Undefined at ``s = 0`` (lossless runs have no finite fraction).
    """
    if s <= 0.0:
        raise InvalidInputError("zeta is undefined for s = 0")
    return (2.0 * L**2 * eta * xi / s + 2.0 * L * eta * c_prime + 3.0 * c_prime) / (
        c_prime**2
    )


@dataclass(frozen=True)
class AcceleratedConstants:
    """Constants of the momentum-run envelope.

    ``Delta`` is the initial potential ``f(x0) - f* + (mu/2)|x0 - x*|^2``;
    ``gamma = c'/c`` must exceed one.  ``C`` combines them so that

        |x_k - x*| <= sqrt(2/mu) c'^k sqrt(Delta / gamma^{2k} + C).
    """

    Delta: float
    gamma: float
    alpha_s: float
    beta_s: float
    C: float

    @classmethod
    def from_run_params(
        cls, L: float, mu: float, c: float, c_prime: float, s: float, Delta: float
    ) -> "AcceleratedConstants":
        if not 0.0 < c < c_prime < 1.0:
            raise InvalidInputError("requires 0 < c < c' < 1")
        gamma = c_prime / c
        g2 = gamma**2 - 1.0
        alpha_s = s**2 / (L * g2) + Delta
        beta_s = (3.0 * math.sqrt(2.0 / L) + 5.0 * math.sqrt(2.0 / mu)) / (c * g2) * s * gamma
        C = beta_s**2 + alpha_s + beta_s * math.sqrt(alpha_s) - Delta
        return cls(Delta=Delta, gamma=gamma, alpha_s=alpha_s, beta_s=beta_s, C=C)


def accelerated_bound(
    consts: AcceleratedConstants, mu: float, c: float, c_prime: float, T: int
) -> BoundSeries:
    """Distance envelope sqrt(2/mu) * sqrt(c^{2k} Delta + c'^{2k} C)."""
    k = np.arange(T + 1)
    inner = c ** (2 * k) * consts.Delta + c_prime ** (2 * k) * consts.C
    return BoundSeries(t=k, bound=np.sqrt(2.0 / mu) * np.sqrt(inner))


def accelerated_xi(consts: AcceleratedConstants, mu: float) -> float:
    """Coefficient xi with |x_k - x*| <= xi c'^k (the k = 0 envelope value)."""
    return math.sqrt(2.0 / mu * (consts.Delta + consts.C))


def fed_bound(
    fed: FedConstants,
    beta: float,
    gamma: float,
    mu: float,
    s: float,
    D0: float,
    T: int,
) -> BoundSeries:
    """Infrequent-communication envelope ``v / (gamma + t)`` with

        v = max{ beta^2 (B + C + s^2) / (beta mu - 1), gamma D0^2 }.
    """
    if beta * mu <= 1.0:
        raise InvalidInputError(
            f"requires beta > 1/mu (beta = {beta!r}, 1/mu = {1.0 / mu!r})"
        )
    if gamma <= 1.0:
        raise InvalidInputError("requires gamma > 1")
    v = max(beta**2 * (fed.B + fed.C + s**2) / (beta * mu - 1.0), gamma * D0**2)
    t = np.arange(T + 1)
    return BoundSeries(t=t, bound=v / (gamma + t), extras={"v": v})


def tightness_construction(
    spec: RecursionSpec, w0: np.ndarray, T: int, seed: int, dim: int | None = None
) -> RunTrace:
    """Adversarial run achieving the recursion envelope with equality.

    Iterates ``w_{t+1} = c_t w_t + e_t`` (fixed point at the origin) with
    ``e_t`` a fair-coin sign times a vector of length ``alpha_t``
    orthogonal to ``c_t w_t``, so each step adds exactly ``alpha_t^2`` in
    squared distance; the realized squared distance equals
    ``D_T^2 |w_0|^2 + C_T^2`` for every coin sequence.
    """
    w0 = np.asarray(w0, dtype=np.float64)
    if dim is None:
        dim = len(w0)
    if dim < 2 or len(w0) != dim:
        raise InvalidInputError("orthogonal noise requires dim >= 2")
    if T > len(spec):
        raise InvalidInputError("T exceeds the supplied sequences")

    w = w0.copy()
    dist = np.empty(T + 1)
    dist[0] = np.linalg.norm(w)
    budget = np.zeros(T + 1)
    for t in range(T):
        u = spec.c_seq[t] * w
        alpha = spec.alpha_seq[t]
        e = _orthogonal_vector(u)
        coin = draw_index(stream(seed, t, 0, COIN), 2)
        w = u + (alpha if coin else -alpha) * e
        dist[t + 1] = np.linalg.norm(w)
        budget[t] = alpha
    zeros = np.zeros(T + 1, dtype=np.int64)
    return RunTrace(
        algorithm="tightness",
        t=np.arange(T + 1),
        dist=dist,
        fgap=dist**2,  # squared distance, the quantity the envelope governs
        bits_up=zeros,
        bits_down=zeros.copy(),
        budget=budget,
        extras={"seed": seed},
    )


def _orthogonal_vector(u: np.ndarray) -> np.ndarray:
    """A unit vector orthogonal to ``u`` (deterministic)."""
    n = np.linalg.norm(u)
    if n == 0.0:
        e = np.zeros(len(u))
        e[0] = 1.0
        return e
    basis = int(np.argmin(np.abs(u)))
    v = -u * (u[basis] / n**2)
    v[basis] += 1.0
    return v / np.linalg.norm(v)


@dataclass(frozen=True)
class LinearRateVerdict:
    """Outcome of the linear-decay classification.

    ``is_linear`` classifies the bound series itself (log-linear fit over
    the trailing half: slope <= -1e-3 with R^2 >= 0.99).  The two
    condition flags report the same test applied to the contraction
    product and to the noise sequence; under the nondecreasing-
    contraction hypothesis the bound decays linearly iff both hold.
    """

    is_linear: bool
    contraction_bounded: bool
    noise_linear: bool
    conditions_hold: bool
    consistent: bool
    slope: float
    r_squared: float
    hypothesis_warning: bool = False


_SLOPE_TOL = -1e-3
# Polynomial tails are locally near-log-linear: one octave of 1/t fits a
# line with R^2 around 0.992 regardless of horizon, so the cut sits above
# that; geometric tails fit exactly.
_R2_TOL = 0.999


def _loglinear_fit(y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope and R^2 of log(y) on the trailing half."""
    y = np.asarray(y, dtype=np.float64)
    half = y[len(y) // 2 :]
    half = half[half > 0.0]
    if len(half) < 3:
        return -math.inf, 1.0  # collapsed to zero: decays faster than linear
    x = np.arange(len(half), dtype=np.float64)
    logs = np.log(half)
    slope, intercept = np.polyfit(x, logs, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), r2


def _decays_linearly(y: np.ndarray) -> tuple[bool, float, float]:
    slope, r2 = _loglinear_fit(y)
    return slope <= _SLOPE_TOL and r2 >= _R2_TOL, slope, r2


def linear_rate_iff_check(spec: RecursionSpec) -> LinearRateVerdict:
    """Classify whether the recursion envelope decays linearly.

    The hypothesis behind the iff characterization asks for nondecreasing
    contraction factors; a decreasing sequence only flags a warning, the
    verdict is still computed.
    """
    warning = bool(np.any(np.diff(spec.c_seq) < 0.0))
    T = len(spec)
    series = recursion_bound(spec, T)

    is_linear, slope, r2 = _decays_linearly(series.bound)
    contraction_bounded, _, _ = _decays_linearly(series.extras["D2"])
    if np.all(spec.alpha_seq == 0.0):
        noise_linear = True
    else:
        noise_linear, _, _ = _decays_linearly(spec.alpha_seq)
    conditions = contraction_bounded and noise_linear
    return LinearRateVerdict(
        is_linear=is_linear,
        contraction_bounded=contraction_bounded,
        noise_linear=noise_linear,
        conditions_hold=conditions,
        consistent=is_linear == conditions,
        slope=slope,
        r_squared=r2,
        hypothesis_warning=warning,
    )
