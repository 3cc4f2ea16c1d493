"""Run-by-run reference implementation of ``run_deed_sgd`` and ``run_deed_fed``.

A frozen copy of the two Monte Carlo engines as they stood before the
runs were advanced together as lanes: one run after another, each with
its own ``(N, d)`` accumulators and broadcast, its own exchange and its
own trace.  It is the oracle the lane loop is tested against: every
trace column and every extra must be equal bit for bit.  Preconditions,
participation draws and the envelope check are the engine's own, since
the lane loop does not change them.
"""

import math

import numpy as np

from deedsim.engine import (
    _initial_point,
    _participants,
    _require,
    check_envelope,
    contraction_envelope,
    contraction_factor,
    fed_radius,
    fed_violations,
    margin_violations,
    param_violations,
)
from deedsim.errors import BoundViolationError, InvalidInputError
from deedsim.problems import estimate_fed_constants, estimate_rho
from deedsim.quantizer import DEFAULT_FLOAT_BITS, QuantSpec, quantize
from deedsim.seeding import DOWNLINK, PARTICIPATION, ROW_SAMPLE, UPLINK, philox_key, stream
from deedsim.theory import fed_bound
from deedsim.trace import RunTrace

_REL_SLACK = 1e-9
_ABS_DUST = 1e-12


def _rows(rows):
    if isinstance(rows, range):
        return slice(rows.start, rows.stop, rows.step)
    return rows


def _weighted_sum(arrays, rows, coefs):
    return np.add.accumulate(coefs[:, None] * arrays[_rows(rows)], axis=0)[-1]


def _norm(x):
    return math.sqrt(x.dot(x))


def _assert_budget(v_k, gbar, budget, round_index):
    err = _norm(v_k - gbar)
    allowed = budget * (1.0 + _REL_SLACK) + _ABS_DUST * (1.0 + _norm(gbar))
    if err > allowed:
        raise BoundViolationError("aggregate error budget", round_index, err, allowed)
    return err


def _exchange(S, v, payloads, participants, coefs, stage, budget, labels, float_bits):
    seed, run_index, round_index = labels
    spec = QuantSpec(max_error=stage, dim=len(v))
    rows = _rows(participants)
    D = payloads[rows] - S[rows]
    max_fraction = 0.0
    if stage > 0.0:
        max_fraction = float((np.sqrt((D[:, None, :] @ D[..., None])[:, 0, 0]) / stage).max())
    bits = []
    for j, i in enumerate(participants):
        msg = quantize(D[j], spec, stream(seed, run_index, round_index, i, UPLINK), float_bits)
        D[j] = msg.decoded
        bits.append(msg.bits)
    S[rows] += D
    up_bits, max_bits = sum(bits), max(bits)

    down_diff = _weighted_sum(S, participants, coefs) - v
    umsg = quantize(down_diff, spec, stream(seed, run_index, round_index, 0, DOWNLINK), float_bits)
    v += umsg.decoded
    if stage > 0.0:
        max_fraction = max(max_fraction, _norm(down_diff) / stage)
    max_bits = max(max_bits, umsg.bits)
    err = _assert_budget(v, _weighted_sum(payloads, participants, coefs), budget, round_index)
    return up_bits, umsg.bits, max_fraction, max_bits, err


def _row_streams(seed, run_index, round_index, nodes):
    return [stream(seed, run_index, round_index, i, ROW_SAMPLE) for i in nodes]


def _new_trace(algorithm, T, extras):
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


def _book(trace, row, total, n, exchange):
    up, down_payload, frac, mbits, err = exchange
    trace.bits_up[row] = up
    trace.bits_down[row] = n * down_payload
    trace.budget[row] = total
    trace.extras["fractions"][row] = frac
    trace.extras["max_msg_bits"][row] = mbits
    trace.extras["vg_err"][row] = err


def _record(trace, t, problem, x):
    trace.dist[t] = _norm(x - problem.w_star)
    trace.fgap[t] = 0.5 * float((x - problem.w_star) @ problem.hess @ (x - problem.w_star))


def run_deed_sgd(problem, c_prime, s, T, *, seed=0, mc_runs=1, rho=None,
                 float_bits=DEFAULT_FLOAT_BITS, w0=None):
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
    n = problem.N
    nodes = range(n)
    coefs = np.full(n, 1.0 / n)
    traces = []
    for r in range(mc_runs):
        w = _initial_point(problem, w0)
        S = np.zeros((n, problem.d))
        v = np.zeros(problem.d)
        trace = _new_trace(
            "deed-sgd", T, {"float_bits": float_bits, "eta": eta, "seed": seed, "run_index": r}
        )
        _record(trace, 0, problem, w)
        for k in range(T):
            grads = problem.stochastic_grad(nodes, w, _row_streams(seed, r, k, nodes))
            total = math.sqrt(s * c_prime ** (k + 1))
            exchange = _exchange(S, v, grads, nodes, coefs, total / 2.0, total, (seed, r, k),
                                 float_bits)
            _book(trace, k, total, n, exchange)
            w = w - eta * v
            _record(trace, k + 1, problem, w)
        trace.extras.update({"c": c, "c_prime": c_prime, "s": s, "rho": rho})
        traces.append(trace)

    series = contraction_envelope("deed-sgd", problem, c_prime, s, T, w0, rho=rho)
    check_envelope(traces, series, "stochastic envelope", squared=True)
    return traces


def run_deed_fed(problem, E, beta, gamma, s, T_rounds, participation="full", K=None, *,
                 seed=0, mc_runs=1, trajectory_radius=None, float_bits=DEFAULT_FLOAT_BITS,
                 w0=None):
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
        W = np.tile(w0, (n, 1))
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
            W -= eta_at(t) * problem.stochastic_grad(nodes, W, _row_streams(seed, r, t, nodes))
            k = t + 1
            if k % E == 0:
                labels = (seed, r, k)
                key = philox_key(seed, r, k, 0, PARTICIPATION)
                participants, coefs = _participants(participation, K, p, key)
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
