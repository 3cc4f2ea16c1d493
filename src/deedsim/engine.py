"""Simulated star network and the algorithm engines.

One center and N workers exchange quantized messages over a simulated
star topology.  Workers encode the difference between their current
payload (gradient, stochastic gradient or local weights) and a local
accumulator; the center aggregates, encodes the difference to its own
broadcast accumulator, and broadcasts.  Every replica of the broadcast
accumulator is required to stay bit-identical across nodes, and the
center's aggregate is required to equal the fixed-order weighted sum of
the worker accumulators bit-exactly; both are asserted every round.

Engines:

* ``run_deed_gd``       -- full gradients, geometric budget s c'^{k+1}/2
* ``run_adeed_gd``      -- momentum variant querying the lookahead point
* ``run_deed_sgd``      -- single-row gradients, budget sqrt(s c'^{k+1})/2
* ``run_deed_fed``      -- E local steps per round, weight-difference
                           encoding with budget s eta_k / 2
* ``run_exact_gd`` / ``run_exact_agd``  -- lossless baselines (same loop,
                           zero budget), charged float_bits * d per message
* ``run_const_error_gd``-- double-encodes raw gradients at a fixed budget

Bit accounting: uplink counts every worker payload; the broadcast is
charged once per receiving worker.  ``counting_mode`` applies to the
non-double-encoded baselines: ``star-full`` charges the broadcast at
float precision per worker, ``fully-connected`` multiplies the uplink by
(N - 1) with no broadcast, and ``x2`` charges the downlink equal to the
uplink.  The double-encoded algorithms always charge their actual
quantized payloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundViolationError, ConfigError, InvalidInputError
from .problems import QuadraticProblem, estimate_fed_constants, estimate_rho
from .quantizer import DEFAULT_FLOAT_BITS, QuantSpec, quantize
from .seeding import DOWNLINK, PARTICIPATION, ROW_SAMPLE, UPLINK, stream
from .theory import (
    AcceleratedConstants,
    accelerated_bound,
    deterministic_bound,
    fed_bound,
    sgd_squared_bound,
)
from .trace import RunTrace

__all__ = [
    "WorkerState",
    "CenterState",
    "run_deed_gd",
    "run_adeed_gd",
    "run_deed_sgd",
    "run_deed_fed",
    "run_exact_gd",
    "run_exact_agd",
    "run_const_error_gd",
    "check_envelope",
    "contraction_envelope",
    "contraction_factor",
    "fed_violations",
    "margin_violations",
    "param_violations",
    "COUNTING_MODES",
    "PARTICIPATION_SCHEMES",
]

COUNTING_MODES = ("star-full", "fully-connected", "x2")
PARTICIPATION_SCHEMES = ("full", "with-replacement", "without-replacement")

# Relative slack for floating-point dust in envelope and budget asserts.
_REL_SLACK = 1e-9
_ABS_DUST = 1e-12


@dataclass
class WorkerState:
    """Per-node state: accumulators, broadcast replica and iterate."""

    i: int
    s_prev: np.ndarray
    v_prev: np.ndarray
    w: np.ndarray
    x_prev: np.ndarray | None = None  # momentum memory (lookahead engines)


@dataclass
class CenterState:
    """Center state: reconstructed worker accumulators and broadcast memory."""

    s_replicas: list[np.ndarray]
    v_prev: np.ndarray


def _weighted_sum(arrays: list[np.ndarray], coefs: np.ndarray) -> np.ndarray:
    """Fixed-order (ascending node id) sequential weighted sum."""
    out = coefs[0] * arrays[0]
    for i in range(1, len(arrays)):
        out = out + coefs[i] * arrays[i]
    return out


def _check_replication(workers: list[WorkerState], center: CenterState) -> None:
    for wk in workers:
        if not np.array_equal(wk.v_prev, center.v_prev):
            raise BoundViolationError("broadcast replication", wk.i, "mismatch", "bit-equal")


def _exchange(
    workers: list[WorkerState],
    center: CenterState,
    payloads: list[np.ndarray],
    stage_budget: float,
    seed: int,
    run_index: int,
    round_index: int,
    float_bits: int,
    agg_coefs: np.ndarray,
):
    """One difference-encoded uplink/aggregate/downlink exchange.

    Returns (v_k, up_bits, down_payload_bits, max fraction, max message bits).
    """
    d = len(center.v_prev)
    spec = QuantSpec(max_error=stage_budget, dim=d)
    up_bits = 0
    max_bits = 0
    max_fraction = 0.0
    for wk, target in zip(workers, payloads):
        diff = target - wk.s_prev
        rng = stream(seed, run_index, round_index, wk.i, UPLINK)
        msg = quantize(diff, spec, rng, float_bits)
        wk.s_prev = wk.s_prev + msg.decoded
        center.s_replicas[wk.i] = center.s_replicas[wk.i] + msg.decoded
        if not np.array_equal(wk.s_prev, center.s_replicas[wk.i]):
            raise BoundViolationError("accumulator replication", round_index, wk.i, "bit-equal")
        up_bits += msg.bits
        max_bits = max(max_bits, msg.bits)
        if stage_budget > 0.0:
            max_fraction = max(max_fraction, float(np.linalg.norm(diff)) / stage_budget)

    s_k = _weighted_sum(center.s_replicas, agg_coefs)
    down_diff = s_k - center.v_prev
    rng = stream(seed, run_index, round_index, 0, DOWNLINK)
    umsg = quantize(down_diff, spec, rng, float_bits)
    center.v_prev = center.v_prev + umsg.decoded
    for wk in workers:
        wk.v_prev = wk.v_prev + umsg.decoded
    _check_replication(workers, center)
    if stage_budget > 0.0:
        max_fraction = max(max_fraction, float(np.linalg.norm(down_diff)) / stage_budget)
    max_bits = max(max_bits, umsg.bits)
    return center.v_prev, up_bits, umsg.bits, max_fraction, max_bits


def _assert_budget(v_k, gbar, budget, round_index):
    err = float(np.linalg.norm(v_k - gbar))
    allowed = budget * (1.0 + _REL_SLACK) + _ABS_DUST * (1.0 + float(np.linalg.norm(gbar)))
    if err > allowed:
        raise BoundViolationError("aggregate error budget", round_index, err, allowed)


def _require(violations: list[str]) -> None:
    if violations:
        raise ConfigError(violations)


def param_violations(problem, T, *, eta=None, c_prime=None, s=None) -> list[str]:
    """Horizon, stepsize, margin-range and budget-scale preconditions
    shared by the engines; a check whose argument is None is skipped."""
    violations = []
    if T < 0:
        violations.append(f"requires T >= 0 (T = {T!r})")
    if eta is not None:
        limit = 2.0 / (problem.L + problem.mu)
        if not 0.0 < eta <= limit * (1.0 + 1e-12):
            violations.append(
                f"requires 0 < eta <= 2/(L+mu) (eta = {eta!r}, 2/(L+mu) = {limit!r})"
            )
    if c_prime is not None and not 0.0 < c_prime < 1.0:
        violations.append(f"requires c < c' < 1 (c_prime = {c_prime!r})")
    if s is not None and s < 0.0:
        violations.append(f"requires s >= 0 (s = {s!r})")
    return violations


def contraction_factor(algorithm, problem, *, eta=None, rho=None) -> float:
    """Contraction factor c of the unquantized method behind ``deed-gd``
    (stepsize ``eta``), ``a-deed-gd`` or ``deed-sgd`` (growth constant ``rho``)."""
    if algorithm == "deed-gd":
        return 1.0 - eta * problem.mu
    if algorithm == "a-deed-gd":
        return math.sqrt(1.0 - math.sqrt(problem.mu / problem.L))
    return 1.0 - problem.mu / (rho * problem.L)


_C_FORMULA = {
    "deed-gd": "1 - eta*mu",
    "a-deed-gd": "sqrt(1 - sqrt(mu/L))",
    "deed-sgd": "1 - mu/(rho L)",
}


def margin_violations(algorithm, problem, c_prime, *, eta=None, rho=None) -> list[str]:
    """The contraction margin ``c < c' < 1`` that the envelope of
    ``algorithm`` needs (``a-deed-gd`` also needs ``c > 0``: c = 0 only
    for kappa = 1, where the momentum envelope degenerates)."""
    c = contraction_factor(algorithm, problem, eta=eta, rho=rho)
    momentum = algorithm == "a-deed-gd"
    if c < c_prime < 1.0 and (c > 0.0 or not momentum):
        return []
    return [
        f"requires {'0 < ' if momentum else ''}c < c' < 1 "
        f"(c = {_C_FORMULA[algorithm]} = {c!r}, c_prime = {c_prime!r})"
    ]


def contraction_envelope(algorithm, problem, c_prime, s, T, w0=None, *, eta=None, rho=None):
    """Envelope of a ``deed-gd`` or ``a-deed-gd`` run's distance, or of a
    ``deed-sgd`` run's mean squared distance, for a met margin.  The
    momentum envelope's constants are in ``extras["accel_constants"]``."""
    c = contraction_factor(algorithm, problem, eta=eta, rho=rho)
    w0 = np.zeros(problem.d) if w0 is None else np.asarray(w0, dtype=np.float64)
    D0 = float(np.linalg.norm(w0 - problem.w_star))
    if algorithm == "deed-gd":
        return deterministic_bound(c, c_prime, eta, s, D0, T)
    if algorithm == "deed-sgd":
        return sgd_squared_bound(c, c_prime, 1.0 / (rho * problem.L), s, D0, T)
    Delta = problem.f_gap(w0) + 0.5 * problem.mu * D0**2
    consts = AcceleratedConstants.from_run_params(
        problem.L, problem.mu, c, c_prime, s, Delta
    )
    series = accelerated_bound(consts, problem.mu, c, c_prime, T)
    series.extras["accel_constants"] = consts
    return series


def check_envelope(traces, series, kind, squared, rows=None) -> None:
    """Verify finished traces against an envelope.

    ``squared=False`` checks the one trace's distance row by row;
    ``squared=True`` checks the across-run mean squared distance plus
    three standard errors (none for a single run).  ``rows`` restricts
    the check (deed-fed: sync rows only).  Raises ``BoundViolationError``
    at the first offending row, carrying ``traces``.
    """
    if squared:
        sq = np.stack([tr.dist**2 for tr in traces])
        observed = sq.mean(axis=0)
        se = sq.std(axis=0, ddof=1) / math.sqrt(len(traces)) if len(traces) > 1 else 0.0
    else:
        (trace,) = traces
        observed, se = trace.dist, 0.0
    allowed = series.bound * (1.0 + _REL_SLACK) + 3.0 * se + _ABS_DUST
    rows = np.arange(len(observed)) if rows is None else rows
    bad = rows[observed[rows] > allowed[rows]]
    if len(bad):
        t = int(bad[0])
        raise BoundViolationError(kind, t, observed[t], allowed[t], traces=traces)


def _init_states(problem, w0):
    d = problem.d
    w0 = np.zeros(d) if w0 is None else np.asarray(w0, dtype=np.float64)
    if w0.shape != (d,):
        raise InvalidInputError(f"w0 must have dim {d}")
    workers = [
        WorkerState(i=i, s_prev=np.zeros(d), v_prev=np.zeros(d), w=w0.copy())
        for i in range(problem.N)
    ]
    center = CenterState(
        s_replicas=[np.zeros(d) for _ in range(problem.N)], v_prev=np.zeros(d)
    )
    return w0, workers, center


def _frequent_run(
    problem: QuadraticProblem,
    *,
    algorithm: str,
    eta: float,
    tau: float,
    grad_source,  # callable (round, query_point) -> list of per-node gradients
    T: int,
    seed: int,
    run_index: int,
    counting_mode: str,
    float_bits: int,
    w0,
    budget_total,  # callable round -> total v-vs-mean budget
) -> RunTrace:
    """Shared loop for the frequent-communication engines; each of the
    two encoding stages of a round gets half the round's total budget."""
    n = problem.N
    coefs = np.full(n, 1.0 / n)
    w0, workers, center = _init_states(problem, w0)
    for wk in workers:
        wk.x_prev = wk.w.copy()
    y = w0.copy()  # lookahead point; equals w for the non-momentum engines

    dist = np.empty(T + 1)
    fgap = np.empty(T + 1)
    bits_up = np.zeros(T + 1, dtype=np.int64)
    bits_down = np.zeros(T + 1, dtype=np.int64)
    budgets = np.zeros(T + 1)
    fractions = np.full(T + 1, np.nan)
    max_msg_bits = np.zeros(T + 1, dtype=np.int64)
    vg_err = np.full(T + 1, np.nan)

    def record(t: int) -> None:
        x = workers[0].w
        dist[t] = np.linalg.norm(x - problem.w_star)
        fgap[t] = problem.f_gap(x)

    record(0)
    for k in range(T):
        query = y if tau is not None else workers[0].w
        grads = grad_source(k, query)
        total = budget_total(k)
        v_k, up, down_payload, frac, mbits = _exchange(
            workers, center, grads, total / 2.0, seed, run_index, k, float_bits, coefs
        )
        gbar = _weighted_sum(grads, coefs)
        _assert_budget(v_k, gbar, total, k)
        vg_err[k] = np.linalg.norm(v_k - gbar)

        if tau is None:
            for wk in workers:
                wk.w = wk.w - eta * wk.v_prev
        else:
            for wk in workers:
                x_next = y - eta * wk.v_prev
                wk.x_prev, wk.w = wk.w, x_next
            y = workers[0].w + tau * (workers[0].w - workers[0].x_prev)

        bits_up[k] = up
        bits_down[k] = n * down_payload  # broadcast charged per receiving link
        budgets[k] = total
        fractions[k] = frac
        max_msg_bits[k] = mbits
        record(k + 1)

    return RunTrace(
        algorithm=algorithm,
        t=np.arange(T + 1),
        dist=dist,
        fgap=fgap,
        bits_up=bits_up,
        bits_down=bits_down,
        budget=budgets,
        extras={
            "counting_mode": counting_mode,
            "float_bits": float_bits,
            "eta": eta,
            "seed": seed,
            "run_index": run_index,
            "fractions": fractions,
            "max_msg_bits": max_msg_bits,
            "vg_err": vg_err,
        },
    )


def run_deed_gd(
    problem: QuadraticProblem,
    eta: float | None,
    c_prime: float,
    s: float,
    T: int,
    seed: int = 0,
    counting_mode: str = "star-full",
    *,
    float_bits: int = DEFAULT_FLOAT_BITS,
    w0: np.ndarray | None = None,
    assert_envelope: bool | None = None,
    run_index: int = 0,
) -> RunTrace:
    """Difference-encoded gradient descent with geometric error budgets.

    Per round k each worker encodes its gradient difference with maximal
    error ``s c'^{k+1} / 2``; the center re-encodes the aggregate at the
    same budget, so the broadcast direction is within ``s c'^{k+1}`` of
    the true mean gradient (asserted).  With the default ``eta`` of
    ``2/(L + mu)`` and ``c = 1 - eta mu < c' < 1`` the distance envelope
    ``xi c'^t`` is checked row by row once the run has finished
    (``check_envelope``).  ``assert_envelope=None`` enables the check
    exactly when ``c' > c``; with ``s = 0`` the run coincides bit-for-bit
    with ``run_exact_gd``.
    """
    if eta is None:
        eta = 2.0 / (problem.L + problem.mu)
    _require(param_violations(problem, T, eta=eta, c_prime=c_prime, s=s))
    margin = margin_violations("deed-gd", problem, c_prime, eta=eta)
    check = not margin if assert_envelope is None else assert_envelope
    if check:
        _require(margin)

    grads = lambda k, q: [problem.full_grad(i, q) for i in range(problem.N)]
    trace = _frequent_run(
        problem,
        algorithm="deed-gd",
        eta=eta,
        tau=None,
        grad_source=grads,
        T=T,
        seed=seed,
        run_index=run_index,
        counting_mode=counting_mode,
        float_bits=float_bits,
        w0=w0,
        budget_total=lambda k: s * c_prime ** (k + 1),
    )
    c = contraction_factor("deed-gd", problem, eta=eta)
    trace.extras.update({"c": c, "c_prime": c_prime, "s": s, "envelope_checked": check})
    if check:
        series = contraction_envelope("deed-gd", problem, c_prime, s, T, w0, eta=eta)
        check_envelope([trace], series, "deed-gd envelope", squared=False)
    return trace


def run_adeed_gd(
    problem: QuadraticProblem,
    c_prime: float,
    s: float,
    T: int,
    seed: int = 0,
    counting_mode: str = "star-full",
    *,
    float_bits: int = DEFAULT_FLOAT_BITS,
    w0: np.ndarray | None = None,
    assert_envelope: bool | None = None,
    run_index: int = 0,
) -> RunTrace:
    """Momentum variant: gradients taken at the lookahead point.

    Uses ``eta = 1/L`` and ``tau = (sqrt(L) - sqrt(mu))/(sqrt(L) +
    sqrt(mu))``; the double encoding is identical to ``run_deed_gd``.
    With ``0 < c = sqrt(1 - sqrt(mu/L)) < c' < 1`` the momentum envelope
    ``sqrt(2/mu) sqrt(c^{2k} Delta + c'^{2k} C)`` is checked row by row
    once the run has finished (``assert_envelope=None`` enables it exactly
    when that margin holds).
    """
    L, mu = problem.L, problem.mu
    tau = (math.sqrt(L) - math.sqrt(mu)) / (math.sqrt(L) + math.sqrt(mu))
    _require(param_violations(problem, T, c_prime=c_prime, s=s))
    margin = margin_violations("a-deed-gd", problem, c_prime)
    check = not margin if assert_envelope is None else assert_envelope
    if check:
        _require(margin)

    grads = lambda k, q: [problem.full_grad(i, q) for i in range(problem.N)]
    trace = _frequent_run(
        problem,
        algorithm="a-deed-gd",
        eta=1.0 / L,
        tau=tau,
        grad_source=grads,
        T=T,
        seed=seed,
        run_index=run_index,
        counting_mode=counting_mode,
        float_bits=float_bits,
        w0=w0,
        budget_total=lambda k: s * c_prime ** (k + 1),
    )
    series = contraction_envelope("a-deed-gd", problem, c_prime, s, T, w0) if check else None
    trace.extras.update(
        {
            "c": contraction_factor("a-deed-gd", problem),
            "c_prime": c_prime,
            "s": s,
            "tau": tau,
            "envelope_checked": check,
            "accel_constants": series.extras["accel_constants"] if check else None,
        }
    )
    if check:
        check_envelope([trace], series, "a-deed-gd envelope", squared=False)
    return trace


def run_exact_gd(
    problem: QuadraticProblem,
    eta: float | None,
    T: int,
    counting_mode: str = "star-full",
    *,
    float_bits: int = DEFAULT_FLOAT_BITS,
    w0: np.ndarray | None = None,
    seed: int = 0,
    run_index: int = 0,
) -> RunTrace:
    """Lossless gradient descent over the same wire protocol.

    Messages are transmitted verbatim and charged ``float_bits * d`` per
    link and direction under the configured counting mode.
    """
    if eta is None:
        eta = 2.0 / (problem.L + problem.mu)
    _require(param_violations(problem, T, eta=eta))
    grads = lambda k, q: [problem.full_grad(i, q) for i in range(problem.N)]
    trace = _frequent_run(
        problem,
        algorithm="gd",
        eta=eta,
        tau=None,
        grad_source=grads,
        T=T,
        seed=seed,
        run_index=run_index,
        counting_mode=counting_mode,
        float_bits=float_bits,
        w0=w0,
        budget_total=lambda k: 0.0,
    )
    _apply_baseline_counting(trace, problem.N, counting_mode)
    return trace


def run_exact_agd(
    problem: QuadraticProblem,
    T: int,
    counting_mode: str = "star-full",
    *,
    float_bits: int = DEFAULT_FLOAT_BITS,
    w0: np.ndarray | None = None,
    seed: int = 0,
    run_index: int = 0,
) -> RunTrace:
    """Lossless momentum baseline (eta = 1/L, standard strongly-convex tau)."""
    _require(param_violations(problem, T))
    L, mu = problem.L, problem.mu
    tau = (math.sqrt(L) - math.sqrt(mu)) / (math.sqrt(L) + math.sqrt(mu))
    grads = lambda k, q: [problem.full_grad(i, q) for i in range(problem.N)]
    trace = _frequent_run(
        problem,
        algorithm="agd",
        eta=1.0 / L,
        tau=tau,
        grad_source=grads,
        T=T,
        seed=seed,
        run_index=run_index,
        counting_mode=counting_mode,
        float_bits=float_bits,
        w0=w0,
        budget_total=lambda k: 0.0,
    )
    _apply_baseline_counting(trace, problem.N, counting_mode)
    return trace


def _apply_baseline_counting(trace: RunTrace, n: int, counting_mode: str) -> None:
    """Re-price a lossless baseline's ledger under the counting convention."""
    if counting_mode not in COUNTING_MODES:
        raise ConfigError([f"unknown counting_mode {counting_mode!r}"])
    rounds = trace.bits_up > 0
    if counting_mode == "star-full":
        pass  # uplink N F d, broadcast F d per receiving worker: already exact
    elif counting_mode == "x2":
        trace.bits_down[rounds] = trace.bits_up[rounds]
    else:  # fully-connected: peers broadcast to N-1 others, no center
        trace.bits_up[rounds] = trace.bits_up[rounds] * (n - 1)
        trace.bits_down[rounds] = 0


def run_const_error_gd(
    problem: QuadraticProblem,
    eta: float | None,
    T: int,
    fixed_eps: float,
    counting_mode: str = "star-full",
    seed: int = 0,
    *,
    float_bits: int = DEFAULT_FLOAT_BITS,
    w0: np.ndarray | None = None,
    run_index: int = 0,
) -> RunTrace:
    """Double-encoded gradient descent at a *fixed* absolute budget.

    Raw gradients (not differences) are quantized with per-stage error
    ``fixed_eps / 2`` every round, so the iterates plateau at a level
    proportional to ``eta * fixed_eps`` instead of converging.
    """
    if eta is None:
        eta = 2.0 / (problem.L + problem.mu)
    if fixed_eps <= 0.0:
        raise ConfigError([f"requires fixed_eps > 0 (fixed_eps = {fixed_eps!r})"])
    _require(param_violations(problem, T, eta=eta))
    n, d = problem.N, problem.d
    w0v, workers, center = _init_states(problem, w0)
    w = w0v.copy()
    spec = QuantSpec(max_error=fixed_eps / 2.0, dim=d)

    dist = np.empty(T + 1)
    fgap = np.empty(T + 1)
    bits_up = np.zeros(T + 1, dtype=np.int64)
    bits_down = np.zeros(T + 1, dtype=np.int64)
    dist[0] = np.linalg.norm(w - problem.w_star)
    fgap[0] = problem.f_gap(w)
    for k in range(T):
        decoded = []
        up = 0
        for i in range(n):
            g = problem.full_grad(i, w)
            msg = quantize(g, spec, stream(seed, run_index, k, i, UPLINK), float_bits)
            decoded.append(msg.decoded)
            up += msg.bits
        mean = _weighted_sum(decoded, np.full(n, 1.0 / n))
        umsg = quantize(mean, spec, stream(seed, run_index, k, 0, DOWNLINK), float_bits)
        w = w - eta * umsg.decoded
        bits_up[k] = up
        bits_down[k] = n * umsg.bits
        dist[k + 1] = np.linalg.norm(w - problem.w_star)
        fgap[k + 1] = problem.f_gap(w)

    return RunTrace(
        algorithm="const-quant-gd",
        t=np.arange(T + 1),
        dist=dist,
        fgap=fgap,
        bits_up=bits_up,
        bits_down=bits_down,
        budget=np.full(T + 1, fixed_eps),
        extras={
            "counting_mode": counting_mode,
            "eta": eta,
            "fixed_eps": fixed_eps,
            "seed": seed,
            "c": 1.0 - eta * problem.mu,
        },
    )


def run_deed_sgd(
    problem: QuadraticProblem,
    c_prime: float,
    s: float,
    T: int,
    seed: int = 0,
    counting_mode: str = "star-full",
    mc_runs: int = 1,
    *,
    rho: float | None = None,
    float_bits: int = DEFAULT_FLOAT_BITS,
    w0: np.ndarray | None = None,
    assert_envelope: bool = True,
) -> list[RunTrace]:
    """Stochastic engine under the interpolation growth condition.

    Each worker samples one row per round; budgets follow
    ``sqrt(s c'^{k+1}) / 2`` per stage and ``eta = 1/(rho L)`` with the
    certified growth constant ``rho``.  Returns one trace per Monte Carlo
    run; with ``assert_envelope`` the across-run mean squared distance is
    checked against the envelope plus three standard errors at every
    iteration.
    """
    if not problem.interpolating:
        raise InvalidInputError("the stochastic engine requires an interpolating problem")
    if rho is None:
        rho = estimate_rho(problem)
    eta = 1.0 / (rho * problem.L)
    c = contraction_factor("deed-sgd", problem, rho=rho)
    _require(
        margin_violations("deed-sgd", problem, c_prime, rho=rho)
        + param_violations(problem, T, s=s)
    )

    def grad_source_for(run_index):
        def grads(k, q):
            return [
                problem.stochastic_grad(i, q, stream(seed, run_index, k, i, ROW_SAMPLE))
                for i in range(problem.N)
            ]

        return grads

    traces = []
    for r in range(mc_runs):
        trace = _frequent_run(
            problem,
            algorithm="deed-sgd",
            eta=eta,
            tau=None,
            grad_source=grad_source_for(r),
            T=T,
            seed=seed,
            run_index=r,
            counting_mode=counting_mode,
            float_bits=float_bits,
            w0=w0,
            budget_total=lambda k: math.sqrt(s * c_prime ** (k + 1)),
        )
        trace.extras.update({"c": c, "c_prime": c_prime, "s": s, "rho": rho})
        traces.append(trace)

    if assert_envelope:
        series = contraction_envelope("deed-sgd", problem, c_prime, s, T, w0, rho=rho)
        check_envelope(traces, series, "stochastic envelope", squared=True)
    return traces


def fed_radius(problem, w0, trajectory_radius) -> float:
    """The radius ``run_deed_fed`` certifies its constants on:
    ``trajectory_radius``, by default ``2 |w0 - w*|`` (``w0 = 0`` if None)."""
    if trajectory_radius is not None:
        return trajectory_radius
    w0 = np.zeros(problem.d) if w0 is None else np.asarray(w0, dtype=np.float64)
    return 2.0 * float(np.linalg.norm(w0 - problem.w_star))


def fed_violations(
    problem, E, beta, gamma, s, T_rounds, participation, K, trajectory_radius, w0=None
) -> list[str]:
    """Every precondition of ``run_deed_fed``: horizon, budget scale,
    participation and ``K``, certification radius (by default
    ``2 |w0 - w*|``), and stepsize schedule."""
    violations = param_violations(problem, T_rounds, s=s)
    if participation not in PARTICIPATION_SCHEMES:
        violations.append(f"unknown participation scheme {participation!r}")
    elif participation != "full":
        if K is None:
            violations.append("K is required for partial participation")
        elif participation == "without-replacement" and not 1 <= K <= problem.N:
            violations.append(
                f"requires 1 <= K <= N without replacement (K = {K!r}, N = {problem.N})"
            )
        elif participation == "with-replacement" and K < 1:
            violations.append(f"requires K >= 1 (K = {K!r})")
    radius = fed_radius(problem, w0, trajectory_radius)
    if not radius > 0:
        default = ", the default 2 |w0 - w*|" if trajectory_radius is None else ""
        violations.append(
            f"requires trajectory_radius > 0 (trajectory_radius = {radius!r}{default})"
        )
    if E < 1:
        violations.append(f"requires E >= 1 (E = {E!r})")
    if not beta * problem.mu > 1.0:
        violations.append(
            f"requires beta > 1/mu (beta = {beta!r}, 1/mu = {1.0 / problem.mu!r})"
        )
    if not gamma > 1.0:
        violations.append(f"requires gamma > 1 (gamma = {gamma!r})")
    else:
        eta0 = beta / gamma
        if not eta0 <= 1.0 / (4.0 * problem.L) * (1.0 + 1e-12):
            violations.append(
                f"requires eta_0 <= 1/(4L) (eta_0 = {eta0!r}, 1/(4L) = {1.0 / (4 * problem.L)!r})"
            )
        # eta_t <= 2 eta_{t+E}, scanned over the horizon.
        for t in range(T_rounds * E + 1):
            if beta / (t + gamma) > 2.0 * beta / (t + E + gamma) * (1.0 + 1e-12):
                violations.append(
                    f"requires eta_t <= 2*eta_(t+E) (violated at t = {t})"
                )
                break
    return violations


def run_deed_fed(
    problem: QuadraticProblem,
    E: int,
    beta: float,
    gamma: float,
    s: float,
    T_rounds: int,
    participation: str = "full",
    K: int | None = None,
    seed: int = 0,
    counting_mode: str = "star-full",
    mc_runs: int = 1,
    *,
    trajectory_radius: float | None = None,
    float_bits: int = DEFAULT_FLOAT_BITS,
    w0: np.ndarray | None = None,
    assert_envelope: bool = True,
) -> list[RunTrace]:
    """Infrequent communication: E local stochastic steps between syncs.

    Local steps use ``eta_t = beta / (t + gamma)``.  At sync iteration k
    each participating worker encodes its *weights* against its
    accumulator with per-stage error ``s eta_k / 2``; the center
    aggregates per the participation scheme and double-encodes the
    broadcast, after which every node restarts from the decoded average.
    Trace rows are per iteration; bits and budgets sit on the sync rows
    and record the communication that *produced* that row's iterate.

    With ``assert_envelope`` the across-run mean squared distance of the
    weighted average iterate is checked against ``v / (gamma + t)`` plus
    three standard errors at every sync round, with ``v`` assembled from
    variance/second-moment constants certified on the ball of radius
    ``trajectory_radius`` (default ``2 |w0 - w*|``) around the optimum.
    """
    _require(
        fed_violations(
            problem, E, beta, gamma, s, T_rounds, participation, K, trajectory_radius, w0
        )
    )
    T_total = T_rounds * E

    n, p = problem.N, problem.weights
    w0v = np.zeros(problem.d) if w0 is None else np.asarray(w0, dtype=np.float64)
    D0 = float(np.linalg.norm(w0v - problem.w_star))
    radius = fed_radius(problem, w0, trajectory_radius)

    eta_at = lambda t: beta / (t + gamma)
    traces = []
    for r in range(mc_runs):
        _, workers, center = _init_states(problem, w0)
        dist = np.empty(T_total + 1)
        fgap = np.empty(T_total + 1)
        bits_up = np.zeros(T_total + 1, dtype=np.int64)
        bits_down = np.zeros(T_total + 1, dtype=np.int64)
        budgets = np.zeros(T_total + 1)

        def record(t):
            wbar = _weighted_sum([wk.w for wk in workers], p)
            dist[t] = np.linalg.norm(wbar - problem.w_star)
            fgap[t] = problem.f_gap(wbar)

        record(0)
        for t in range(T_total):
            eta_t = eta_at(t)
            for wk in workers:
                g = problem.stochastic_grad(
                    wk.i, wk.w, stream(seed, r, t, wk.i, ROW_SAMPLE)
                )
                wk.w = wk.w - eta_t * g
            k = t + 1
            if k % E == 0:
                up, down = _fed_sync(
                    problem, workers, center, k, eta_at(k), s, participation, K,
                    seed, r, float_bits,
                )
                bits_up[k] = up
                bits_down[k] = n * down
                budgets[k] = s * eta_at(k)
            record(t + 1)

        trace = RunTrace(
            algorithm="deed-fed",
            t=np.arange(T_total + 1),
            dist=dist,
            fgap=fgap,
            bits_up=bits_up,
            bits_down=bits_down,
            budget=budgets,
            extras={
                "counting_mode": counting_mode,
                "E": E,
                "beta": beta,
                "gamma": gamma,
                "s": s,
                "participation": participation,
                "K": K,
                "seed": seed,
                "run_index": r,
                "bits_timing": "arriving",
            },
        )
        traces.append(trace)

    if assert_envelope:
        fed = estimate_fed_constants(
            problem, E, K if K is not None else n, participation, radius
        )
        series = fed_bound(fed, beta, gamma, problem.mu, s, D0, T_total)
        for tr in traces:
            tr.extras["fed_constants"] = fed
            tr.extras["v"] = series.extras["v"]
        check_envelope(
            traces, series, "federated envelope", squared=True,
            rows=np.arange(E, T_total + 1, E),
        )
    return traces


def _fed_sync(
    problem, workers, center, k, eta_k, s, participation, K, seed, run_index, float_bits
):
    """One weight-difference sync; returns (uplink bits, broadcast payload bits)."""
    n, d, p = problem.N, problem.d, problem.weights
    stage = s * eta_k / 2.0
    spec = QuantSpec(max_error=stage, dim=d)

    if participation == "full":
        participants = list(range(n))
        coef_of = {i: p[i] for i in participants}
    else:
        rng = stream(seed, run_index, k, 0, PARTICIPATION)
        if participation == "with-replacement":
            draws = rng.choice(n, size=K, replace=True, p=p)
            counts = np.bincount(draws, minlength=n)
            participants = sorted(np.nonzero(counts)[0].tolist())
            coef_of = {i: counts[i] / K for i in participants}
        else:
            draws = rng.choice(n, size=K, replace=False)
            participants = sorted(int(i) for i in draws)
            coef_of = {i: (n / K) * p[i] for i in participants}

    up = 0
    for i in participants:
        wk = workers[i]
        diff = wk.w - wk.s_prev
        msg = quantize(diff, spec, stream(seed, run_index, k, i, UPLINK), float_bits)
        wk.s_prev = wk.s_prev + msg.decoded
        center.s_replicas[i] = center.s_replicas[i] + msg.decoded
        if not np.array_equal(wk.s_prev, center.s_replicas[i]):
            raise BoundViolationError("accumulator replication", k, i, "bit-equal")
        up += msg.bits

    # The replica of a participating worker now estimates that worker's
    # current weights to within the uplink budget; the center aggregates
    # the participants' estimates per the scheme's weighting (for K = N
    # without replacement the coefficients equal the full-participation
    # ones float-for-float, so the schemes coincide bitwise).
    s_k = _weighted_sum(
        [center.s_replicas[i] for i in participants],
        np.array([coef_of[i] for i in participants]),
    )

    down_diff = s_k - center.v_prev
    umsg = quantize(down_diff, spec, stream(seed, run_index, k, 0, DOWNLINK), float_bits)
    center.v_prev = center.v_prev + umsg.decoded
    for wk in workers:
        wk.v_prev = wk.v_prev + umsg.decoded
        wk.w = wk.v_prev.copy()
    _check_replication(workers, center)
    return up, umsg.bits
