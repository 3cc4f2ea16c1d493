"""Simulated star network and the algorithm engines.

One center and N workers exchange quantized messages over a simulated
star topology.  Workers encode the difference between their current
payload (gradient, stochastic gradient or local weights) and a local
accumulator; the center aggregates, encodes the difference to its own
broadcast accumulator, and broadcasts.  Sender and receivers apply the
same decoded message to the same accumulator, so the replicas are
bit-identical by construction and each quantity is held once: one
iterate (or one row of local weights per node), one broadcast, and the
worker accumulators as one ``(N, d)`` array.  Every engine sends its
messages through one ``_exchange``: the uplinks of the round's
participants, the center's weighted aggregate, the downlink, and the
aggregate error chain assert (the broadcast lies within the round's
total budget of the exact aggregate).  ``_book`` records each exchange's
bits, budget, largest error fraction, largest message and aggregate
error on its trace row.

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
charged once per receiving worker.  The double-encoded algorithms
charge their actual quantized payloads, and the lossless baselines
``float_bits * d`` per message.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BoundViolationError, ConfigError, InvalidInputError
from .problems import _MAX_RADIUS, QuadraticProblem, estimate_fed_constants, estimate_rho
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
    "PARTICIPATION_SCHEMES",
]

PARTICIPATION_SCHEMES = ("full", "with-replacement", "without-replacement")

# Relative slack for floating-point dust in envelope and budget asserts.
_REL_SLACK = 1e-9
_ABS_DUST = 1e-12


def _weighted_sum(arrays: np.ndarray, rows, coefs: np.ndarray) -> np.ndarray:
    """``sum_j coefs[j] * arrays[rows[j]]`` over the rows of an ``(N, d)``
    array, added in the order of ``rows`` (ascending node ids).

    One broadcast product and a running sum down axis 0, which adds row
    after row by definition; a BLAS product or ``sum``'s pairwise
    summation would round differently.
    """
    return np.add.accumulate(coefs[:, None] * arrays[_rows(rows)], axis=0)[-1]


def _rows(rows):
    """An index of the node ids ``rows``: a slice (a view, not a gather)
    for a range."""
    if isinstance(rows, range):
        return slice(rows.start, rows.stop, rows.step)
    return rows


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a 1-D float vector, as ``np.linalg.norm`` computes
    it (``sqrt(x.dot(x))``) without its dispatch."""
    return math.sqrt(x.dot(x))


def _initial_point(problem, w0) -> np.ndarray:
    """``w0`` as a float vector of dimension d; zeros if None."""
    w0 = np.zeros(problem.d) if w0 is None else np.asarray(w0, dtype=np.float64)
    if w0.shape != (problem.d,):
        raise InvalidInputError(f"w0 must have dim {problem.d} (got shape {w0.shape})")
    return w0


def _exchange(S, v, payloads, participants, coefs, stage, budget, labels, float_bits):
    """One difference-encoded uplink/aggregate/downlink exchange, the one
    message path of every engine; updates ``S`` and ``v`` in place.

    Node ``i`` of ``participants`` encodes ``payloads[i] - S[i]`` at
    maximal error ``stage``, and sender and center apply the decoded
    message to the one accumulator row ``S[i]``.  The center encodes the
    ``coefs``-weighted sum of those rows against the broadcast ``v`` at
    the same error, and every node applies it to ``v``.  Asserts that
    ``v`` lies within ``budget`` of the weighted payloads.  ``labels`` is
    the exchange's ``(seed, run, round)`` stream prefix.

    Returns (up_bits, down_payload_bits, max fraction, max message bits,
    aggregate error).
    """
    seed, run_index, round_index = labels
    spec = QuantSpec(max_error=stage, dim=len(v))
    rows = _rows(participants)
    D = payloads[rows] - S[rows]  # one difference per participant
    max_fraction = 0.0
    if stage > 0.0:
        # Each diff's norm as sqrt(d.dot(d)): a stacked 1 x d by d x 1
        # product makes the same dot call per row.
        max_fraction = float((np.sqrt((D[:, None, :] @ D[..., None])[:, 0, 0]) / stage).max())
    bits = []
    for j, i in enumerate(participants):
        msg = quantize(D[j], spec, stream(seed, run_index, round_index, i, UPLINK), float_bits)
        D[j] = msg.decoded  # D now holds the decoded messages
        bits.append(msg.bits)
    S[rows] += D
    up_bits, max_bits = sum(bits), max(bits)

    down_diff = _weighted_sum(S, participants, coefs) - v
    rng = stream(seed, run_index, round_index, 0, DOWNLINK)
    umsg = quantize(down_diff, spec, rng, float_bits)
    v += umsg.decoded
    if stage > 0.0:
        max_fraction = max(max_fraction, _norm(down_diff) / stage)
    max_bits = max(max_bits, umsg.bits)
    err = _assert_budget(v, _weighted_sum(payloads, participants, coefs), budget, round_index)
    return up_bits, umsg.bits, max_fraction, max_bits, err


def _row_streams(seed, run_index, round_index, nodes) -> list:
    """Each node's row-sample stream of one round or local step."""
    return [stream(seed, run_index, round_index, i, ROW_SAMPLE) for i in nodes]


def _new_trace(algorithm: str, T: int, extras: dict) -> RunTrace:
    """A trace of ``T + 1`` rows with nothing booked: no bits or budget,
    NaN error fractions and aggregate errors, zero message bits."""
    return RunTrace(
        algorithm=algorithm,
        t=np.arange(T + 1),
        dist=np.empty(T + 1),
        fgap=np.empty(T + 1),
        bits_up=np.zeros(T + 1, dtype=np.int64),
        bits_down=np.zeros(T + 1, dtype=np.int64),
        budget=np.zeros(T + 1),
        extras={
            **extras,
            "fractions": np.full(T + 1, np.nan),
            "max_msg_bits": np.zeros(T + 1, dtype=np.int64),
            "vg_err": np.full(T + 1, np.nan),
        },
    )


def _book(trace: RunTrace, row: int, total: float, n: int, exchange) -> None:
    """Book an ``_exchange`` result and its total budget on ``row``; the
    broadcast is charged once per receiving link."""
    up, down_payload, frac, mbits, err = exchange
    trace.bits_up[row] = up
    trace.bits_down[row] = n * down_payload
    trace.budget[row] = total
    trace.extras["fractions"][row] = frac
    trace.extras["max_msg_bits"][row] = mbits
    trace.extras["vg_err"][row] = err


def _record(trace: RunTrace, t: int, problem, x: np.ndarray) -> None:
    """Row ``t``'s distance to the optimum and loss gap at ``x``."""
    trace.dist[t] = _norm(x - problem.w_star)
    trace.fgap[t] = problem.f_gap(x)


def _assert_budget(v_k, gbar, budget, round_index) -> float:
    """Raise unless ``|v_k - gbar| <= budget`` (up to float dust); returns the error."""
    err = _norm(v_k - gbar)
    allowed = budget * (1.0 + _REL_SLACK) + _ABS_DUST * (1.0 + _norm(gbar))
    if err > allowed:
        raise BoundViolationError("aggregate error budget", round_index, err, allowed)
    return err


def _require(violations: list[str]) -> None:
    if violations:
        raise ConfigError(violations)


def param_violations(problem, T, *, eta=None, c_prime=None, s=None, fixed_eps=None) -> list[str]:
    """Horizon, stepsize, margin-range, budget-scale and fixed-budget
    preconditions shared by the engines; a check whose argument is None
    is skipped."""
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
    if fixed_eps is not None and not fixed_eps > 0.0:
        violations.append(f"requires fixed_eps > 0 (fixed_eps = {fixed_eps!r})")
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
    w0 = _initial_point(problem, w0)
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
    at the first offending row, carrying ``traces``; a NaN observed or
    allowed value offends.  Otherwise returns the smallest slack (allowed
    minus observed) over the checked rows, ``inf`` when none is checked.
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
    bad = rows[~(observed[rows] <= allowed[rows])]
    if len(bad):
        t = int(bad[0])
        raise BoundViolationError(kind, t, observed[t], allowed[t], traces=traces)
    return float(np.min(allowed[rows] - observed[rows])) if len(rows) else math.inf


def _momentum(problem) -> float:
    """Momentum ``tau = (sqrt(L) - sqrt(mu))/(sqrt(L) + sqrt(mu))`` of the
    ``eta = 1/L`` momentum runs."""
    L, mu = problem.L, problem.mu
    return (math.sqrt(L) - math.sqrt(mu)) / (math.sqrt(L) + math.sqrt(mu))


def _frequent_run(
    problem: QuadraticProblem,
    *,
    algorithm: str,
    eta: float,
    tau: float | None,
    T: int,
    seed: int,
    float_bits: int,
    w0,
    budget_total,  # callable round -> total v-vs-mean budget
    run_index: int = 0,
    grad_source=None,  # callable (run, round, query_point) -> (N, d) gradients; full if None
    differential: bool = True,
) -> RunTrace:
    """Shared loop for the frequent-communication engines; each of the
    two encoding stages of a round gets half the round's total budget.

    Every node applies the same decoded messages, so the iterate, the
    momentum memory and the broadcast ``v`` are held once, and the
    per-node accumulators as one ``(N, d)`` array ``S``.
    ``differential=False`` clears ``S`` and ``v`` at the start of every
    round, so raw payloads rather than differences are encoded.
    """
    n = problem.N
    nodes = range(n)
    if grad_source is None:
        grad_source = lambda r, k, q: problem.full_grad(nodes, q)
    coefs = np.full(n, 1.0 / n)
    w = y = _initial_point(problem, w0)  # y: lookahead point
    S = np.zeros((n, problem.d))
    v = np.zeros(problem.d)
    trace = _new_trace(
        algorithm,
        T,
        {"float_bits": float_bits, "eta": eta, "seed": seed, "run_index": run_index},
    )

    _record(trace, 0, problem, w)
    for k in range(T):
        if not differential:
            S.fill(0.0)
            v.fill(0.0)
        grads = grad_source(run_index, k, w if tau is None else y)
        total = budget_total(k)
        exchange = _exchange(
            S, v, grads, nodes, coefs, total / 2.0, total, (seed, run_index, k), float_bits
        )
        _book(trace, k, total, n, exchange)

        if tau is None:
            w = w - eta * v
        else:
            x_prev, w = w, y - eta * v
            y = w + tau * (w - x_prev)
        _record(trace, k + 1, problem, w)
    return trace


def _contraction_run(algorithm, problem, eta, tau, c_prime, s, T, **run):
    """Body of ``run_deed_gd`` (``tau`` None) and ``run_adeed_gd``:
    preconditions, the run at budget ``s c'^{k+1}``, and the row-by-row
    envelope check exactly when the contraction margin holds."""
    _require(param_violations(problem, T, eta=eta, c_prime=c_prime, s=s))
    check = not margin_violations(algorithm, problem, c_prime, eta=eta)

    trace = _frequent_run(
        problem, algorithm=algorithm, eta=eta, tau=tau, T=T,
        budget_total=lambda k: s * c_prime ** (k + 1), **run,
    )
    series = None
    if check:
        series = contraction_envelope(algorithm, problem, c_prime, s, T, run["w0"], eta=eta)
    trace.extras.update(
        {
            "c": contraction_factor(algorithm, problem, eta=eta),
            "c_prime": c_prime,
            "s": s,
            "tau": tau,
            "envelope_checked": check,
            "accel_constants": series.extras.get("accel_constants") if check else None,
        }
    )
    if check:
        check_envelope([trace], series, f"{algorithm} envelope", squared=False)
    return trace


def run_deed_gd(
    problem: QuadraticProblem,
    eta: float | None,
    c_prime: float,
    s: float,
    T: int,
    *,
    seed: int = 0,
    float_bits: int = DEFAULT_FLOAT_BITS,
    w0: np.ndarray | None = None,
) -> RunTrace:
    """Difference-encoded gradient descent with geometric error budgets.

    Per round k each worker encodes its gradient difference with maximal
    error ``s c'^{k+1} / 2``; the center re-encodes the aggregate at the
    same budget, so the broadcast direction is within ``s c'^{k+1}`` of
    the true mean gradient (asserted).  With the default ``eta`` of
    ``2/(L + mu)`` and ``c = 1 - eta mu < c' < 1`` the distance envelope
    ``xi c'^t`` is checked row by row once the run has finished
    (``check_envelope``); without that margin the run is not checked.
    With ``s = 0`` the run coincides bit-for-bit with ``run_exact_gd``.
    """
    if eta is None:
        eta = 2.0 / (problem.L + problem.mu)
    return _contraction_run(
        "deed-gd", problem, eta, None, c_prime, s, T, seed=seed, float_bits=float_bits, w0=w0,
    )


def run_adeed_gd(
    problem: QuadraticProblem,
    c_prime: float,
    s: float,
    T: int,
    *,
    seed: int = 0,
    float_bits: int = DEFAULT_FLOAT_BITS,
    w0: np.ndarray | None = None,
) -> RunTrace:
    """Momentum variant: gradients taken at the lookahead point.

    Uses ``eta = 1/L`` and ``tau = (sqrt(L) - sqrt(mu))/(sqrt(L) +
    sqrt(mu))``; the double encoding is identical to ``run_deed_gd``.
    With ``0 < c = sqrt(1 - sqrt(mu/L)) < c' < 1`` the momentum envelope
    ``sqrt(2/mu) sqrt(c^{2k} Delta + c'^{2k} C)`` is checked row by row
    once the run has finished; without that margin the run is not checked.
    """
    return _contraction_run(
        "a-deed-gd", problem, 1.0 / problem.L, _momentum(problem), c_prime, s, T,
        seed=seed, float_bits=float_bits, w0=w0,
    )


def run_exact_gd(
    problem: QuadraticProblem,
    eta: float | None,
    T: int,
    *,
    seed: int = 0,
    float_bits: int = DEFAULT_FLOAT_BITS,
    w0: np.ndarray | None = None,
) -> RunTrace:
    """Lossless gradient descent over the same wire protocol.

    Messages are transmitted verbatim and charged ``float_bits * d`` per
    link and direction: N uplinks, and the broadcast once per receiving
    worker.
    """
    if eta is None:
        eta = 2.0 / (problem.L + problem.mu)
    return _lossless_run("gd", problem, eta, None, T, seed=seed, float_bits=float_bits, w0=w0)


def run_exact_agd(
    problem: QuadraticProblem,
    T: int,
    *,
    seed: int = 0,
    float_bits: int = DEFAULT_FLOAT_BITS,
    w0: np.ndarray | None = None,
) -> RunTrace:
    """Lossless momentum baseline (eta = 1/L, standard strongly-convex tau)."""
    return _lossless_run(
        "agd", problem, 1.0 / problem.L, _momentum(problem), T, seed=seed,
        float_bits=float_bits, w0=w0,
    )


def _lossless_run(algorithm, problem, eta, tau, T, **run):
    """Body of ``run_exact_gd`` (``tau`` None) and ``run_exact_agd``: the
    shared loop at zero budget."""
    _require(param_violations(problem, T, eta=eta))
    return _frequent_run(
        problem, algorithm=algorithm, eta=eta, tau=tau, T=T, budget_total=lambda k: 0.0, **run
    )


def run_const_error_gd(
    problem: QuadraticProblem,
    eta: float | None,
    T: int,
    fixed_eps: float,
    *,
    seed: int = 0,
    float_bits: int = DEFAULT_FLOAT_BITS,
    w0: np.ndarray | None = None,
) -> RunTrace:
    """Double-encoded gradient descent at a *fixed* absolute budget.

    Raw gradients (not differences) are quantized with per-stage error
    ``fixed_eps / 2`` every round, so the broadcast is within ``fixed_eps``
    of the mean gradient (asserted) and the iterates plateau at a level
    proportional to ``eta * fixed_eps`` instead of converging.
    """
    if eta is None:
        eta = 2.0 / (problem.L + problem.mu)
    _require(param_violations(problem, T, eta=eta, fixed_eps=fixed_eps))
    trace = _frequent_run(
        problem,
        algorithm="const-quant-gd",
        eta=eta,
        tau=None,
        T=T,
        seed=seed,
        float_bits=float_bits,
        w0=w0,
        budget_total=lambda k: fixed_eps,
        differential=False,
    )
    trace.budget[-1] = fixed_eps
    trace.extras.update({"fixed_eps": fixed_eps, "c": 1.0 - eta * problem.mu})
    return trace


def run_deed_sgd(
    problem: QuadraticProblem,
    c_prime: float,
    s: float,
    T: int,
    *,
    seed: int = 0,
    mc_runs: int = 1,
    rho: float | None = None,
    float_bits: int = DEFAULT_FLOAT_BITS,
    w0: np.ndarray | None = None,
) -> list[RunTrace]:
    """Stochastic engine under the interpolation growth condition.

    Each worker samples one row per round; budgets follow
    ``sqrt(s c'^{k+1}) / 2`` per stage and ``eta = 1/(rho L)`` with the
    certified growth constant ``rho``.  Returns one trace per Monte Carlo
    run; the across-run mean squared distance is checked against the
    envelope plus three standard errors at every iteration.
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

    nodes = range(problem.N)

    def row_grads(r, k, q):
        return problem.stochastic_grad(nodes, q, _row_streams(seed, r, k, nodes))

    traces = []
    for r in range(mc_runs):
        trace = _frequent_run(
            problem,
            algorithm="deed-sgd",
            eta=eta,
            tau=None,
            grad_source=row_grads,
            T=T,
            seed=seed,
            run_index=r,
            float_bits=float_bits,
            w0=w0,
            budget_total=lambda k: math.sqrt(s * c_prime ** (k + 1)),
        )
        trace.extras.update({"c": c, "c_prime": c_prime, "s": s, "rho": rho})
        traces.append(trace)

    series = contraction_envelope("deed-sgd", problem, c_prime, s, T, w0, rho=rho)
    check_envelope(traces, series, "stochastic envelope", squared=True)
    return traces


def fed_radius(problem, w0, trajectory_radius) -> float:
    """The radius ``run_deed_fed`` certifies its constants on:
    ``trajectory_radius``, by default ``2 |w0 - w*|`` (``w0 = 0`` if None)."""
    if trajectory_radius is not None:
        return trajectory_radius
    return 2.0 * float(np.linalg.norm(_initial_point(problem, w0) - problem.w_star))


def fed_violations(
    problem, E, beta, gamma, s, T_rounds, participation, K, trajectory_radius, w0=None
) -> list[str]:
    """Every precondition of ``run_deed_fed``: horizon, budget scale,
    participation and ``K``, certification radius (by default
    ``2 |w0 - w*|``), and stepsize schedule."""
    violations = param_violations(problem, T_rounds, s=s)
    if participation not in PARTICIPATION_SCHEMES:
        violations.append(f"unknown participation scheme {participation!r}")
    elif participation == "full":
        if K is not None:
            violations.append(
                f"full participation uses every node; K is not accepted (K = {K!r})"
            )
    else:
        if K is None:
            violations.append("K is required for partial participation")
        elif participation == "without-replacement" and not 1 <= K <= problem.N:
            violations.append(
                f"requires 1 <= K <= N without replacement (K = {K!r}, N = {problem.N})"
            )
        elif participation == "with-replacement" and K < 1:
            violations.append(f"requires K >= 1 (K = {K!r})")
    radius = fed_radius(problem, w0, trajectory_radius)
    default = ", the default 2 |w0 - w*|" if trajectory_radius is None else ""
    if not radius > 0:
        violations.append(
            f"requires trajectory_radius > 0 (trajectory_radius = {radius!r}{default})"
        )
    elif radius == math.inf:
        violations.append(
            f"requires trajectory_radius < inf (trajectory_radius = {radius!r}{default})"
        )
    elif not radius <= _MAX_RADIUS:  # the certificate squares it
        violations.append(
            f"requires trajectory_radius**2 < inf (trajectory_radius = {radius!r}{default})"
        )
    if E < 1:
        violations.append(f"requires E >= 1 (E = {E!r})")
    if not beta * problem.mu > 1.0:
        violations.append(
            f"requires beta > 1/mu (beta = {beta!r}, 1/mu = {1.0 / problem.mu!r})"
        )
    if not gamma > 1.0:
        violations.append(f"requires gamma > 1 (gamma = {gamma!r})")
    elif gamma == math.inf:
        violations.append(f"requires gamma < inf (gamma = {gamma!r})")
    else:
        eta0 = beta / gamma
        if not eta0 <= 1.0 / (4.0 * problem.L) * (1.0 + 1e-12):
            violations.append(
                f"requires eta_0 <= 1/(4L) (eta_0 = {eta0!r}, 1/(4L) = {1.0 / (4 * problem.L)!r})"
            )
        # eta_t <= 2 eta_{t+E} for every t >= 0: for beta > 0 the ratio
        # eta_t / eta_{t+E} = 1 + E/(t + gamma) is largest at t = 0.
        if E >= 1 and beta / gamma > 2.0 * beta / (E + gamma) * (1.0 + 1e-12):
            violations.append("requires eta_t <= 2*eta_(t+E) (violated at t = 0)")
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
    *,
    seed: int = 0,
    mc_runs: int = 1,
    trajectory_radius: float | None = None,
    float_bits: int = DEFAULT_FLOAT_BITS,
    w0: np.ndarray | None = None,
) -> list[RunTrace]:
    """Infrequent communication: E local stochastic steps between syncs.

    Local steps use ``eta_t = beta / (t + gamma)``.  At sync iteration k
    each participating worker encodes its *weights* against its
    accumulator with per-stage error ``s eta_k / 2``; the center
    aggregates per the participation scheme and double-encodes the
    broadcast, after which every node restarts from the decoded average.
    The broadcast's distance to the participants' weighted weights is
    asserted every sync and recorded in ``extras["vg_err"]``, beside the
    sync's largest error fraction and message (``fractions``,
    ``max_msg_bits``).  Trace rows are per iteration; bits, budgets and
    these diagnostics sit on the sync rows and record the communication
    that *produced* that row's iterate.

    The across-run mean squared distance of the weighted average iterate is checked against ``v / (gamma + t)`` plus
    three standard errors at every sync round, with ``v`` assembled from
    variance/second-moment constants certified on the ball of radius
    ``trajectory_radius`` (default ``2 |w0 - w*|``) around the optimum.
    """
    w0 = _initial_point(problem, w0)
    _require(
        fed_violations(
            problem, E, beta, gamma, s, T_rounds, participation, K, trajectory_radius, w0
        )
    )
    T_total = T_rounds * E
    n, p = problem.N, problem.weights
    nodes = range(n)

    eta_at = lambda t: beta / (t + gamma)
    traces = []
    for r in range(mc_runs):
        W = np.tile(w0, (n, 1))  # local weights, one row per node
        S = np.zeros((n, problem.d))
        v = np.zeros(problem.d)
        trace = _new_trace(
            "deed-fed",
            T_total,
            {
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

        _record(trace, 0, problem, _weighted_sum(W, nodes, p))
        for t in range(T_total):
            # Node i's gradient reads only row i, so one update of all rows
            # after every gradient takes the same floats as one per node.
            W -= eta_at(t) * problem.stochastic_grad(nodes, W, _row_streams(seed, r, t, nodes))
            k = t + 1
            if k % E == 0:
                # The broadcast lies within (s eta_k / 2)(1 + sum_i c_i) of
                # sum_i c_i W[i]; every node restarts from it.
                labels = (seed, r, k)
                participants, coefs = _participants(participation, K, p, labels)
                total = s * eta_at(k)
                stage = total / 2.0
                budget = stage * (1.0 + float(np.sum(coefs)))
                exchange = _exchange(
                    S, v, W, participants, coefs, stage, budget, labels, float_bits
                )
                _book(trace, k, total, n, exchange)
                W[:] = v
            _record(trace, k, problem, _weighted_sum(W, nodes, p))
        traces.append(trace)

    radius = fed_radius(problem, w0, trajectory_radius)
    fed = estimate_fed_constants(problem, E, K if K is not None else n, participation, radius)
    D0 = float(np.linalg.norm(w0 - problem.w_star))
    series = fed_bound(fed, beta, gamma, problem.mu, s, D0, T_total)
    for tr in traces:
        tr.extras["fed_constants"] = fed
        tr.extras["v"] = series.extras["v"]
    check_envelope(
        traces, series, "federated envelope", squared=True, rows=np.arange(E, T_total + 1, E)
    )
    return traces


def _participants(participation, K, p, labels):
    """Node ids (ascending) and aggregation coefficients of one sync under
    ``participation`` with node weights ``p``; partial schemes draw from
    the sync's participation stream (``labels``: seed, run, round).

    The center aggregates the participants' accumulator rows with these
    coefficients.  For K = N without replacement they equal the
    full-participation ones float-for-float, so the schemes coincide
    bitwise.
    """
    n = len(p)
    if participation == "full":
        return range(n), p
    rng = stream(*labels, 0, PARTICIPATION)
    if participation == "with-replacement":
        counts = np.bincount(rng.choice(n, size=K, replace=True, p=p), minlength=n)
        participants = np.flatnonzero(counts).tolist()
        return participants, counts[participants] / K
    participants = sorted(rng.choice(n, size=K, replace=False).tolist())
    return participants, (n / K) * p[participants]
