"""Simulated star network and the algorithm engines.

One center and N workers exchange quantized messages over a simulated
star topology.  Workers encode the difference between their current
payload (gradient, stochastic gradient or local weights) and a local
accumulator; the center aggregates, encodes the difference to its own
broadcast accumulator, and broadcasts.  Sender and receivers apply the
same decoded message to the same accumulator, so the replicas are
bit-identical by construction and each quantity is held once.  Every
engine is a step and an update on one run loop, ``_run``, which advances
the Monte Carlo runs together, one *lane* per run: each lane's iterate
(or row of local weights per node) and broadcast are rows of ``(R, d)``
arrays (``(N, R, d)`` for local weights), and the nodes' accumulators
and payloads are one ``(2, N, R, d)`` array.  The single-run engines are
the case R = 1.  Every iteration of a frequent engine, and every E-th of
``deed-fed``, is a sync: one call of the run's one ``_Exchange`` for
every lane (each lane's uplinks, the center's weighted aggregate, the
downlink, and the assert that the broadcast lies within the sync's
budget of the exact aggregate).  Partial participation selects each
lane's participants and masks the others out.  A lane draws from its own
run's streams, which are pure functions of their labels, so advancing
the runs together changes no draw.  ``_Lanes`` books each sync's bits,
budget and diagnostics on its trace row and records every row's
distance and loss gap.

Engines:

* ``run_deed_gd``       -- full gradients, geometric budget s c'^{k+1}/2
* ``run_adeed_gd``      -- momentum variant querying the lookahead point
* ``run_deed_sgd``      -- single-row gradients, budget sqrt(s c'^{k+1})/2
* ``run_deed_fed``      -- E local steps per round, weight-difference
                           encoding with budget s eta_k / 2
* ``run_exact_gd`` / ``run_exact_agd``  -- lossless baselines (same loop,
                           zero budget), charged 32 bits per coordinate
* ``run_const_error_gd``-- double-encodes raw gradients at a fixed budget

Bit accounting: uplink counts every worker payload; the broadcast is
charged once per receiving worker.  The double-encoded algorithms
charge their actual quantized payloads, and a lossless message (zero
budget) is priced by ``quantize``'s default float width,
``DEFAULT_FLOAT_BITS * d`` = 32 bits per coordinate.

Each run parameter is defaulted and checked here, once (``_default_eta``,
``_initial_point`` and the ``*_violations`` functions);
``config.parse_config`` reports the same messages.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import BoundViolationError, ConfigError, InvalidInputError
from .problems import _MAX_RADIUS, QuadraticProblem, estimate_fed_constants, estimate_rho
from .quantizer import DEFAULT_FLOAT_BITS, QuantSpec, _is_integer, grid_payload_bits
# perfbench/tracing.py wraps ``engine.quantize`` and counts its calls, so
# every message of a run is one call of this name: its grid point.
from .quantizer import grid_point as quantize
from .seeding import DOWNLINK, KEY_BLOCK, PARTICIPATION, ROW_SAMPLE, UPLINK, block_keys
# perfbench/tracing.py wraps ``engine.stream`` and counts the generators it
# returns, so every stream of a run is built by one call of this name.
from .seeding import key_stream as stream
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


def _weighted_sums(SP: np.ndarray, coefs, terms=None, out=None, where=True) -> np.ndarray:
    """``sum_i coefs[i] * SP[:, i]`` over the member nodes of a
    ``(2, N, R, d)`` array (the nodes' accumulators, then their payloads,
    a row per lane) as one ``(2, R, d)`` array, added node after node in
    ascending node order; ``terms`` (``(N, 2, R, d)``) and ``out`` are
    optional scratch and result arrays.  ``coefs`` is ``(N,)``, shared by
    every lane, or ``(N, R)``, each lane's own.  ``where`` is True (every
    node a member) or an ``(N, 1, R, 1)`` mask of each lane's members.

    The products are laid out node-major, ``(N, 2, R, d)``, and
    ``add.reduce`` down that leading axis adds each member's whole
    ``2 x R x d`` block to the running sum in turn, starting from ``-0.0``,
    which leaves every float unchanged, signed zeros included; a
    non-member is skipped, not added as zero.  (Blocks of two or more
    floats keep numpy from summing pairwise, as it does along a single
    axis; a BLAS product would round differently too.)
    """
    held = SP.swapaxes(0, 1)
    if terms is None:
        terms = np.empty(held.shape)
    np.multiply(coefs.reshape(len(coefs), 1, -1, 1), held, out=terms)
    return np.add.reduce(terms, axis=0, initial=-0.0, out=out, where=where)


@functools.lru_cache(maxsize=1)
def _quant_spec(stage: float, d: int) -> QuantSpec:
    """The ``QuantSpec`` of one encoding stage: every round of a run at a
    fixed budget, and every lane of one round, ask for the same one again."""
    return QuantSpec(max_error=stage, dim=d)


def _norm(x: np.ndarray):
    """Euclidean norm along the last axis, as ``np.linalg.norm`` computes
    it for one vector (``sqrt(x.dot(x))``): a stacked 1 x d by d x 1
    product makes the same dot call per vector."""
    return np.sqrt((x[..., None, :] @ x[..., None])[..., 0, 0])


def _initial_point(problem, w0) -> np.ndarray:
    """``w0`` as a float vector of dimension d; zeros if None."""
    w0 = np.zeros(problem.d) if w0 is None else np.asarray(w0, dtype=np.float64)
    if w0.shape != (problem.d,):
        raise InvalidInputError(f"w0 must have dim {problem.d} (got shape {w0.shape})")
    return w0


class _Exchange:
    """The difference-encoded uplink/aggregate/downlink exchange of every
    lane, the one message path of every engine.  A call runs one round's
    exchange in every lane and updates the accumulators ``SP[0]`` and
    ``v`` in place.

    Lane ``l`` is one Monte Carlo run.  ``SP`` is ``(2, N, R, d)``:
    ``SP[0, i, l]`` is node ``i``'s accumulator and ``SP[1, i, l]`` its
    payload in lane ``l``; ``v`` is ``(R, d)``.  In each lane each member
    ``i`` encodes ``SP[1, i, l] - SP[0, i, l]`` at maximal error
    ``stage``, and sender and center apply the decoded message to the one
    accumulator row.  The center encodes the coefficient-weighted sum of
    the members' rows against the broadcast ``v[l]`` at the same error,
    and every node applies it to ``v[l]``.  Asserts that each lane's ``v``
    lies within its ``budget`` (a list of one float per lane) of the
    weighted payloads.  ``keys`` holds the round's key rows, ``(R, J, 2)``
    with ``J > N``: lane ``l`` draws node ``i``'s uplink from the stream
    of ``keys[l, i]`` and its downlink from that of ``keys[l, N]``, one
    stream per message.  Lane ``l`` is run ``l``, which a budget violation
    names at round ``round_index``.

    Every node of every lane starts as a member, with the ``(N,)``
    coefficients ``coefs``; ``select`` narrows one lane to its own
    participants and coefficients, which hold until it is selected again.
    The exchange always works on views of all N nodes of every lane: a
    call forms every node's difference, quantizes only the members', and
    skips the non-members everywhere else (``where=``), so a
    non-participant's accumulator keeps every bit.  Until a lane is
    narrowed every ``where`` is True, which costs nothing.

    Per message a call makes one stream, one ``quantize`` (the quantizer's
    ``grid_point``) and one row copy of the grid point, or a lossless
    message's verbatim vector, into one ``(N + 1, R, d)`` stack, the
    downlinks in the last row.  After each loop one multiply by the grid
    step decodes the rows into an array of their own (``_decode``), so
    every grid point lasts until the call ends, and then one
    ``grid_payload_bits`` call counts the bits of every message sent.  The differences and the
    aggregate error of every lane are rows of one ``(N + 2, R, d)`` array,
    so one stacked call takes all their norms, and one reduce gives both
    weighted sums.
    The scratch arrays are made once, so a call pays only for arithmetic.

    A call returns one value per lane of each of (up_bits,
    down_payload_bits, max fraction, max message bits, aggregate error).
    """

    def __init__(self, SP, v, coefs) -> None:
        _, N, R, d = SP.shape
        self.SP, self.v, self.coefs = SP, v, coefs
        self.S, self.payloads = SP
        self.diffs = np.empty((N + 2, R, d))  # N uplinks, the downlink, the error
        self.up, self.down, self.error = self.diffs[:N], self.diffs[N], self.diffs[N + 1]
        # Every message's grid point, the downlinks in the last row, and
        # its decoded vector.
        self.points, self.decoded = np.empty((2, N + 1, R, d))
        self.terms = np.empty((N, 2, R, d))
        self.sums = np.empty((2, R, d))
        self.aggregate, self.gbar = self.sums
        # Each difference's norm as _norm takes it: one dot per vector.
        self.rows_of_diffs = self.diffs[..., None, :], self.diffs[..., None]
        self.dots = np.empty((N + 2, R, 1, 1))
        self.norms = np.empty((N + 2, R))
        self.squares, self.message_norms, self.error_norms = (
            self.dots[..., 0, 0], self.norms[:-1], self.norms[-1],
        )
        # Each lane's messages, the downlink's always sent: the mask of the
        # largest fraction and of the bit count, whose first N rows are the
        # member mask.
        self.sending = np.ones((N + 1, R), dtype=bool)
        self.member = self.sending[:N]
        self.where = (True, True, True)  # the update's, the sums' and the fraction's
        self.uplinks = [list(zip(range(N), self.up[:, lane], self.points[:, lane]))
                        for lane in range(R)]
        self.downlinks = list(zip(self.down, self.points[N]))
        # Each lane's own coefficients, used from the first select on; per
        # lane, views of its member and coefficient columns and all its uplinks.
        self.lane_coefs = np.repeat(np.asarray(coefs)[:, None], R, axis=1)
        self.lanes = list(zip(self.member.T, self.lane_coefs.T, self.uplinks))

    def select(self, lane, nodes, coefs) -> None:
        """Make ``nodes`` (ascending node ids) lane ``lane``'s members, with
        coefficients ``coefs``, from the next call on."""
        if self.coefs is not self.lane_coefs:  # the first narrowing
            member = self.member
            self.coefs = self.lane_coefs
            self.where = (member[..., None], member[:, None, :, None], self.sending)
        member, column, sends = self.lanes[lane]
        member[:] = False
        member[nodes] = True
        column[:] = 0.0
        column[nodes] = coefs
        self.uplinks[lane] = [sends[i] for i in nodes]

    def __call__(self, stage, budget, round_index, keys):
        spec = _quant_spec(stage, self.v.shape[-1])
        S, v, N = self.S, self.v, len(self.up)
        update, members, sending = self.where
        np.subtract(self.payloads, S, out=self.up)
        for sends, lane_keys in zip(self.uplinks, keys):
            for i, diff, row in sends:
                row[...] = quantize(diff, spec, stream(lane_keys[i]))
        np.add(S, self._decode(spec, slice(N), update), out=S, where=update)

        _weighted_sums(self.SP, self.coefs, self.terms, self.sums, members)
        np.subtract(self.aggregate, v, out=self.down)
        for (diff, row), key in zip(self.downlinks, keys[:, N]):  # every uplink is applied
            row[...] = quantize(diff, spec, stream(key))
        v += self._decode(spec, N, True)
        np.subtract(v, self.gbar, out=self.error)
        np.matmul(*self.rows_of_diffs, out=self.dots)
        np.sqrt(self.squares, out=self.norms)
        err = _assert_budget(self.error_norms.tolist(), self.gbar, budget, round_index)
        # stage > 0 divides monotonically, so the largest norm gives the largest fraction.
        max_fraction = (
            np.maximum.reduce(self.message_norms, initial=0.0, where=sending) / stage
            if stage > 0.0 else np.zeros(len(v))
        )
        if sending is True and not spec.lossless:  # no lane narrowed: every row is sent
            bits = grid_payload_bits(self.points)
        else:
            sent = self.sending
            bits = np.zeros(sent.shape, dtype=np.int64)
            bits[sent] = (DEFAULT_FLOAT_BITS * spec.dim if spec.lossless
                          else grid_payload_bits(self.points[sent]))
        return (
            np.add.reduce(bits[:N]), bits[N], max_fraction, np.maximum.reduce(bits), err,
        )

    def _decode(self, spec, rows, where):
        """The decoded vectors of the message rows ``rows``: their grid
        points scaled by the grid step on the rows ``where``, or, lossless,
        the points themselves."""
        if spec.lossless:
            return self.points[rows]
        return np.multiply(self.points[rows], spec.grid_step, out=self.decoded[rows], where=where)


def _lane_grads(problem, keys, Q):
    """Every node's and lane's single-row gradients of one round or local
    step as a node-major ``(N, R, d)`` view, in one ``stochastic_grad``
    call: node ``i`` of lane ``l`` queries ``Q[l]`` (an ``(R, d)`` ``Q``)
    or its own row ``Q[i, l]`` (a node-major ``(N, R, d)`` ``Q``), and draws
    from the stream of key row ``keys[l, i]`` (``keys``: the round's
    ``(R, N, 2)`` row-sample keys).  The streams are built as they are
    drawn from, so a round's ``R x N`` streams are never held at once."""
    R, n, _ = keys.shape
    points = np.repeat(Q, n, axis=0) if Q.ndim == 2 else Q.swapaxes(0, 1).reshape(R * n, -1)
    streams = map(stream, keys.reshape(R * n, 2))
    grads = problem.stochastic_grad(np.tile(np.arange(n), R), points, streams)
    return grads.reshape(R, n, -1).swapaxes(0, 1)


class _RoundKeys:
    """The stream keys of the ``(node, purpose)`` labels ``pairs`` in every
    run of ``runs`` under ``seed``, round by round: a call with round ``k``
    returns its ``(R, len(pairs), 2)`` key rows, ``[l, j]`` the key of
    labels ``(runs[l], k, *pairs[j])``.  The rounds of one block of
    ``KEY_BLOCK`` are derived together, by one ``block_keys`` call when a
    round of another block is asked for."""

    __slots__ = ("seed", "prefixes", "pairs", "block", "keys")

    def __init__(self, seed, runs, pairs) -> None:
        self.seed, self.prefixes, self.pairs = seed, [(r,) for r in runs], pairs
        self.block = self.keys = None

    def __call__(self, k):
        block, row = divmod(k, KEY_BLOCK)
        if block != self.block:
            self.block = block
            self.keys = block_keys(self.seed, self.prefixes, block, self.pairs)
        return self.keys[:, :, row]


# Rows of iterates a trace holds before one stacked call takes all their
# distances to the optimum and another all their loss gaps.
_BLOCK = 64


class _Lanes:
    """Every lane's trace columns: the float columns (distance, loss gap,
    budget, largest error fraction, aggregate error) as one
    ``(T + 1, 5, R)`` array and the bit columns (uplink, downlink, largest
    message) as one ``(T + 1, 3, R)`` array, so that ``book`` writes a
    round in two calls.  Nothing is booked (no bits or budget, NaN error
    fractions and aggregate errors, zero message bits) until ``book`` and
    ``record`` fill a row.

    ``record`` holds up to ``_BLOCK`` iterates and then takes all their
    distances in one stacked ``_norm`` and all their loss gaps in one
    ``f_gap`` call.  Rows are recorded in order and row T comes last, so
    the last block is written when the run ends.
    """

    def __init__(self, problem, runs: int, T: int) -> None:
        self.problem, self.T = problem, T
        self.floats = np.full((T + 1, 5, runs), np.nan)
        self.floats[:, 2] = 0.0
        self.bits = np.zeros((T + 1, 3, runs), dtype=np.int64)
        self._points = np.empty((min(_BLOCK, T + 1), runs, problem.d))

    def book(self, row: int, total: float, exchange) -> None:
        """Book an ``_Exchange`` result of every lane and its total budget
        on ``row``; the broadcast is charged once per node."""
        up, down, frac, mbits, err = exchange
        self.bits[row] = (up, self.problem.N * down, mbits)
        self.floats[row][2:] = ([total] * len(err), frac, err)

    def record(self, t: int, X: np.ndarray) -> None:
        """Hold row ``t``'s point of each lane, one row of ``X`` per lane,
        for its distance to the optimum and loss gap."""
        j = t % len(self._points)
        self._points[j] = X
        if j == len(self._points) - 1 or t == self.T:
            X = self._points[: j + 1]
            rows = slice(t - j, t + 1)
            self.floats[rows, 0] = _norm(X - self.problem.w_star)
            gaps = self.problem.f_gap(X.reshape(-1, X.shape[-1]))
            self.floats[rows, 1] = gaps.reshape(j + 1, -1)

    def traces(self, algorithm: str, extras) -> list[RunTrace]:
        """One trace per lane, its columns views of that lane's columns (no
        copy), and its extras ``extras(run)`` followed by the per-round
        diagnostics."""
        F, B = self.floats, self.bits
        return [
            RunTrace(
                algorithm=algorithm,
                t=np.arange(len(F)),
                dist=F[:, 0, r],
                fgap=F[:, 1, r],
                bits_up=B[:, 0, r],
                bits_down=B[:, 1, r],
                budget=F[:, 2, r],
                extras={
                    **extras(r),
                    "fractions": F[:, 3, r],
                    "max_msg_bits": B[:, 2, r],
                    "vg_err": F[:, 4, r],
                },
            )
            for r in range(F.shape[2])
        ]


def _assert_budget(err, gbar, budget, round_index) -> list:
    """Raise unless every lane's aggregate error ``err[l] = |v[l] -
    gbar[l]|`` (floats) is at most its budget ``budget[l]`` (up to float
    dust), naming round ``round_index`` and the first offending lane,
    which is run ``l``.  Returns ``err``."""
    # The dust term only adds slack, so gbar's norm is needed only past it.
    scale = 1.0 + _REL_SLACK
    if any(e > b * scale for e, b in zip(err, budget)):
        allowed = np.multiply(budget, scale) + _ABS_DUST * (1.0 + _norm(gbar))
        for lane, (e, a) in enumerate(zip(err, allowed.tolist())):
            if e > a:
                raise BoundViolationError(
                    "aggregate error budget", round_index, e, a, run=lane
                )
    return err


def _require(violations: list[str]) -> None:
    if violations:
        raise ConfigError(violations)


def _default_eta(problem) -> float:
    """The stepsize ``2/(L+mu)``: the default of the engines that take
    one, and the largest that ``param_violations`` accepts."""
    return 2.0 / (problem.L + problem.mu)


def param_violations(
    problem, T, *, eta=None, c_prime=None, s=None, fixed_eps=None, mc_runs=None, seed=None
) -> list[str]:
    """Horizon, stepsize, margin-range, budget-scale, fixed-budget, Monte
    Carlo run count and seed preconditions shared by the engines; a check
    whose argument is None is skipped.  ``T``, ``mc_runs`` and ``seed``
    must be integers, not bools."""
    violations = _count_violations("T", T, 0)
    if eta is not None:
        limit = _default_eta(problem)
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
    if mc_runs is not None:
        violations += _count_violations("mc_runs", mc_runs, 1)
    if seed is not None:
        violations += _count_violations("seed", seed, 0)
    return violations


def _count_violations(name, value, low) -> list[str]:
    """``value`` must be an integer, not a bool, of at least ``low``."""
    if not _is_integer(value):
        return [f"requires an integer {name} ({name} = {value!r})"]
    if value < low:
        return [f"requires {name} >= {low} ({name} = {value!r})"]
    return []


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


def check_envelope(traces, series, kind, squared, rows=None) -> float:
    """Verify finished traces against an envelope; return the smallest
    slack.

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


def _run(problem, algorithm, SP, v, coefs, step, update, point, budget_total, *, T, seed, extras,
         E=1, participation="full", K=None, lane_budget=lambda total, c: total, bits_timing=None):
    """The one run loop of every engine: ``T`` iterations of every lane
    (``SP`` and ``v`` as ``_Exchange`` takes them).  Iteration ``t`` calls
    the engine's ``step(t)``, which leaves the payloads in ``SP[1]``; every
    ``E``-th is then a sync, one call of the run's one ``_Exchange`` for
    every lane at stage error ``budget_total(k) / 2``, and the engine's
    ``update()``.  Row ``t + 1`` records ``point()``, a row per lane.

    Sync ``k`` is iteration ``t``, booked on row ``t`` whose iterate it
    starts from; for ``bits_timing`` "arriving" (``deed-fed``) it is ``t +
    1``, booked on the row whose iterate it produces.  ``k`` labels its
    messages.  Each lane's aggregate budget is ``lane_budget(total, c)``
    (by default ``total``) for the lane's coefficients ``c``: ``coefs``
    under full participation, which draws and selects nothing, or the
    lane's own ``_participants`` draw, which the exchange selects.  The
    messages and participation draws of every lane take their keys from
    one ``_RoundKeys``.  A budget violation names the lowest run that
    breaks it at that sync.
    Returns one trace per run; its extras are ``extras``, ``seed``,
    ``run_index`` and any ``bits_timing``.
    """
    runs = range(v.shape[0])
    pairs = [(i, UPLINK) for i in range(SP.shape[1])] + [(0, DOWNLINK)]
    if participation != "full":
        pairs.append((0, PARTICIPATION))
    sync_keys = _RoundKeys(seed, runs, pairs)
    exchange = _Exchange(SP, v, coefs)
    log = _Lanes(problem, len(runs), T)
    log.record(0, point())
    for t in range(T):
        step(t)
        if (t + 1) % E == 0:
            k = t + (bits_timing == "arriving")
            total = budget_total(k)
            stage = total / 2.0
            keys = sync_keys(k)
            if participation == "full":
                budgets = [lane_budget(total, coefs)] * len(runs)
            else:
                budgets = []
                for r, key in enumerate(keys[:, -1]):
                    nodes, c = _participants(participation, K, coefs, key)
                    exchange.select(r, nodes, c)
                    budgets.append(lane_budget(total, c))
            log.book(k, total, exchange(stage, budgets, k, keys))
            update()
        log.record(t + 1, point())
    timing = {"bits_timing": bits_timing} if bits_timing else {}
    return log.traces(algorithm, lambda r: {**extras, "seed": seed, "run_index": r, **timing})


def _frequent_run(
    problem: QuadraticProblem,
    *,
    algorithm: str,
    eta: float,
    tau: float | None,
    T: int,
    seed: int,
    w0,
    budget_total,  # callable round -> total v-vs-mean budget
    runs: int = 1,
    grad_source=None,  # callable (round, (R, d) query points) -> (N, R, d) gradients
    differential: bool = True,
) -> list[RunTrace]:
    """The frequent engines on ``_run``: every round is a sync of the
    gradients at each lane's iterate (with momentum ``tau``, its lookahead
    point), returned by ``grad_source`` as ``(N, R, d)`` (by default the
    full gradients of one lane), then ``w -= eta v`` or the momentum pair.
    The center weights the nodes by ``problem.weights``, which define
    ``w*``.  ``differential=False`` clears the accumulators and ``v`` at
    the start of every round, so raw payloads rather than differences are
    encoded.
    """
    n = problem.N
    if grad_source is None:
        grad_source = lambda k, Q: problem.full_grad(range(n), Q[0])[:, None]
    w = y = np.tile(_initial_point(problem, w0), (runs, 1))  # y: lookahead points
    SP = np.zeros((2, n, runs, problem.d))
    v = np.zeros((runs, problem.d))

    def step(k):
        if not differential:
            SP[0].fill(0.0)
            v.fill(0.0)
        SP[1] = grad_source(k, w if tau is None else y)

    def update():
        nonlocal w, y
        if tau is None:
            w = w - eta * v
        else:
            x_prev, w = w, y - eta * v
            y = w + tau * (w - x_prev)

    return _run(problem, algorithm, SP, v, problem.weights, step, update, lambda: w,
                budget_total, T=T, seed=seed, extras={"eta": eta})


def _contraction_run(algorithm, problem, eta, tau, c_prime, s, T, **run):
    """Body of ``run_deed_gd`` (``tau`` None) and ``run_adeed_gd``:
    preconditions, the run at budget ``s c'^{k+1}``, and the row-by-row
    envelope check exactly when the contraction margin holds."""
    _require(param_violations(problem, T, eta=eta, c_prime=c_prime, s=s, seed=run["seed"]))
    check = not margin_violations(algorithm, problem, c_prime, eta=eta)

    [trace] = _frequent_run(
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
        eta = _default_eta(problem)
    return _contraction_run("deed-gd", problem, eta, None, c_prime, s, T, seed=seed, w0=w0)


def run_adeed_gd(
    problem: QuadraticProblem,
    c_prime: float,
    s: float,
    T: int,
    *,
    seed: int = 0,
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
        seed=seed, w0=w0,
    )


def run_exact_gd(
    problem: QuadraticProblem,
    eta: float | None,
    T: int,
    *,
    seed: int = 0,
    w0: np.ndarray | None = None,
) -> RunTrace:
    """Lossless gradient descent over the same wire protocol.

    Messages are transmitted verbatim and charged 32 bits per coordinate
    per link and direction: N uplinks, and the broadcast once per
    receiving worker.
    """
    if eta is None:
        eta = _default_eta(problem)
    return _lossless_run("gd", problem, eta, None, T, seed=seed, w0=w0)


def run_exact_agd(
    problem: QuadraticProblem,
    T: int,
    *,
    seed: int = 0,
    w0: np.ndarray | None = None,
) -> RunTrace:
    """Lossless momentum baseline (eta = 1/L, standard strongly-convex tau)."""
    return _lossless_run("agd", problem, 1.0 / problem.L, _momentum(problem), T, seed=seed, w0=w0)


def _lossless_run(algorithm, problem, eta, tau, T, **run):
    """Body of ``run_exact_gd`` (``tau`` None) and ``run_exact_agd``: the
    shared loop at zero budget."""
    _require(param_violations(problem, T, eta=eta, seed=run["seed"]))
    [trace] = _frequent_run(
        problem, algorithm=algorithm, eta=eta, tau=tau, T=T, budget_total=lambda k: 0.0, **run
    )
    return trace


def run_const_error_gd(
    problem: QuadraticProblem,
    eta: float | None,
    T: int,
    fixed_eps: float,
    *,
    seed: int = 0,
    w0: np.ndarray | None = None,
) -> RunTrace:
    """Double-encoded gradient descent at a *fixed* absolute budget.

    Raw gradients (not differences) are quantized with per-stage error
    ``fixed_eps / 2`` every round, so the broadcast is within ``fixed_eps``
    of the mean gradient (asserted) and the iterates plateau at a level
    proportional to ``eta * fixed_eps`` instead of converging.
    """
    if eta is None:
        eta = _default_eta(problem)
    _require(param_violations(problem, T, eta=eta, fixed_eps=fixed_eps, seed=seed))
    [trace] = _frequent_run(
        problem,
        algorithm="const-quant-gd",
        eta=eta,
        tau=None,
        T=T,
        seed=seed,
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
    w0: np.ndarray | None = None,
) -> list[RunTrace]:
    """Stochastic engine under the interpolation growth condition.

    Each worker samples one row per round; budgets follow
    ``sqrt(s c'^{k+1}) / 2`` per stage and ``eta = 1/(rho L)`` with the
    certified growth constant ``rho``.  The ``mc_runs`` Monte Carlo runs
    advance together, one lane each, with every lane's row gradients in
    one oracle call per round.  Returns one trace per run; the across-run
    mean squared distance is checked against the envelope plus three
    standard errors at every iteration.  A budget violation is raised at
    the earliest round any run breaks it, naming that run.
    """
    if not problem.interpolating:
        raise InvalidInputError("the stochastic engine requires an interpolating problem")
    # Certify rho only for a call that passes the cheap checks; the margin
    # check that needs it follows, as in ``config.parse_config``.
    _require(param_violations(problem, T, s=s, mc_runs=mc_runs, seed=seed))
    if rho is None:
        rho = estimate_rho(problem)
    _require(margin_violations("deed-sgd", problem, c_prime, rho=rho))
    eta = 1.0 / (rho * problem.L)
    c = contraction_factor("deed-sgd", problem, rho=rho)

    row_keys = _RoundKeys(seed, range(mc_runs), [(i, ROW_SAMPLE) for i in range(problem.N)])
    traces = _frequent_run(
        problem,
        algorithm="deed-sgd",
        eta=eta,
        tau=None,
        grad_source=lambda k, Q: _lane_grads(problem, row_keys(k), Q),
        T=T,
        seed=seed,
        runs=mc_runs,
        w0=w0,
        budget_total=lambda k: math.sqrt(s * c_prime ** (k + 1)),
    )
    for trace in traces:
        trace.extras.update({"c": c, "c_prime": c_prime, "s": s, "rho": rho})

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
    problem, E, beta, gamma, s, T_rounds, participation, K, trajectory_radius, w0=None,
    *, mc_runs=None, seed=None,
) -> list[str]:
    """Every precondition of ``run_deed_fed``: horizon, budget scale,
    Monte Carlo run count, seed, participation and ``K``, certification
    radius (by default ``2 |w0 - w*|``), and stepsize schedule.
    ``T_rounds``, ``E`` and ``K`` must be integers, not bools."""
    violations = param_violations(problem, T_rounds, s=s, mc_runs=mc_runs, seed=seed)
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
        elif not _is_integer(K):
            violations.append(f"requires an integer K (K = {K!r})")
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
    bad_E = _count_violations("E", E, 1)
    violations += bad_E
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
        if not bad_E and beta / gamma > 2.0 * beta / (E + gamma) * (1.0 + 1e-12):
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
    w0: np.ndarray | None = None,
) -> list[RunTrace]:
    """Infrequent communication: E local stochastic steps between syncs,
    on ``_run``.

    Local steps use ``eta_t = beta / (t + gamma)``, every lane's and
    node's row gradients in one oracle call.  At sync iteration k each
    participating worker encodes its *weights* against its accumulator
    with per-stage error ``s eta_k / 2``; the center aggregates per the
    participation scheme and double-encodes the broadcast, after which
    every node restarts from the decoded average (``W[:] = v``).  The
    broadcast lies within ``(s eta_k / 2)(1 + sum_i c_i)`` of the
    participants' weighted weights ``sum_i c_i W[i]`` (asserted).  Rows
    are per iteration; bits, budgets and the diagnostics (``fractions``,
    ``max_msg_bits``, ``vg_err``) sit on the row of the iterate that the
    sync produced (``bits_timing`` "arriving").

    The across-run mean squared distance of the weighted average iterate
    is checked against ``v / (gamma + t)`` plus
    three standard errors at every sync round, with ``v`` assembled from
    variance/second-moment constants certified on the ball of radius
    ``trajectory_radius`` (default ``2 |w0 - w*|``) around the optimum.
    """
    w0 = _initial_point(problem, w0)
    _require(
        fed_violations(
            problem, E, beta, gamma, s, T_rounds, participation, K, trajectory_radius, w0,
            mc_runs=mc_runs, seed=seed,
        )
    )
    T_total = T_rounds * E
    n, p = problem.N, problem.weights
    row_keys = _RoundKeys(seed, range(mc_runs), [(i, ROW_SAMPLE) for i in range(n)])
    eta_at = lambda t: beta / (t + gamma)
    # The nodes' accumulators, then their local weights, a row per lane.
    SP = np.zeros((2, n, mc_runs, problem.d))
    W = SP[1]
    W[:] = w0
    v = np.zeros((mc_runs, problem.d))
    # Node i's gradient reads only its own row, so one update of all rows
    # after every gradient takes the same floats as one per node.
    step = lambda t: np.subtract(W, eta_at(t) * _lane_grads(problem, row_keys(t), W), out=W)
    traces = _run(
        problem, "deed-fed", SP, v, p, step, lambda: np.copyto(W, v),
        lambda: _weighted_sums(SP, p)[1], lambda k: s * eta_at(k), T=T_total, seed=seed, E=E,
        participation=participation, K=K, bits_timing="arriving",
        lane_budget=lambda total, c: total / 2.0 * (1.0 + float(np.sum(c))),
        extras=dict(E=E, beta=beta, gamma=gamma, s=s, participation=participation, K=K),
    )

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


def _participants(participation, K, p, key):
    """Node ids (ascending) and aggregation coefficients of one sync under
    the partial scheme ``participation`` with node weights ``p``, drawn
    from the stream of ``key``, the key row of the sync's participation
    stream.

    The center aggregates the participants' accumulator rows with these
    coefficients.  For K = N without replacement they equal the
    full-participation ones float-for-float, so the schemes coincide
    bitwise.
    """
    n = len(p)
    rng = stream(key)
    if participation == "with-replacement":
        counts = np.bincount(rng.choice(n, size=K, replace=True, p=p), minlength=n)
        participants = np.flatnonzero(counts).tolist()
        return participants, counts[participants] / K
    participants = sorted(rng.choice(n, size=K, replace=False).tolist())
    return participants, (n / K) * p[participants]
