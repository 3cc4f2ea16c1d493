"""Synthetic distributed least-squares problems with exact constants.

A problem is a collection of per-node data blocks ``(A_i, b_i)`` with
node weights ``p`` on the simplex.  The objective is

    f(w) = sum_i p_i * f_i(w),     f_i(w) = ||A_i w - b_i||^2 / (2 m_i),

so with uniform weights f is the plain average of the node objectives.
When every node holds the same number of rows m, the blocks are stored
once, as one ``(N, m, d)`` array and one ``(N, m)`` array, and ``A[i]``
and ``b[i]`` are views of them.  The gradient oracles take one node id
or a sequence of them; for a sequence they compute every node's gradient
in one stacked ``np.matmul``, which makes the same BLAS call per node as
the one-node form and so returns the same bits.
Constructed problems expose exact smoothness / strong-convexity
constants, the exact optimum, per-row stochastic gradient oracles, a
certified growth constant for the interpolation regime, and certified
second-moment bounds for local-SGD analyses.

scipy is imported inside the two solvers that call it (``solve_optimum``
and ``estimate_rho``, both ``scipy.linalg``), so importing the package does
not load it.  The trust-region root of ``estimate_fed_constants`` comes
from ``_brentq``, a bit-exact port of scipy's ``brentq``.
"""

from __future__ import annotations

import io
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, RankDeficiencyError
from .seeding import draw_index

__all__ = [
    "QuadraticProblem",
    "FedConstants",
    "make_linreg",
    "from_node_data",
    "solve_optimum",
    "estimate_rho",
    "estimate_fed_constants",
    "save_problem",
    "load_problem",
]

_OPT_RESIDUAL_RTOL = 1e-10
# The largest certification radius whose square is a finite float; an
# int or float comparison against it is exact, so it never overflows.
_MAX_RADIUS = math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class QuadraticProblem:
    """An N-node least-squares objective with known constants."""

    A: tuple[np.ndarray, ...]
    b: tuple[np.ndarray, ...]
    weights: np.ndarray
    interpolating: bool
    # Derived constants, filled by the factory:
    L_i: np.ndarray = field(repr=False)
    L: float
    mu: float
    kappa: float
    w_star: np.ndarray = field(repr=False)
    f_star: float
    hess: np.ndarray = field(repr=False)  # the weighted sum of the node Hessians
    # The blocks stacked, (N, m, d) and (N, m), when every node has m
    # rows (A[i] and b[i] are their views); None for ragged nodes.
    A_stack: np.ndarray | None = field(repr=False, default=None)
    b_stack: np.ndarray | None = field(repr=False, default=None)

    @property
    def N(self) -> int:
        return len(self.A)

    @property
    def d(self) -> int:
        return self.A[0].shape[1]

    @property
    def rows(self) -> tuple[int, ...]:
        return tuple(Ai.shape[0] for Ai in self.A)

    def node_hessian(self, i: int) -> np.ndarray:
        Ai = self.A[i]
        return Ai.T @ Ai / Ai.shape[0]

    def hessian(self) -> np.ndarray:
        return self.hess

    def f_node(self, i: int, w: np.ndarray) -> float:
        r = self.A[i] @ w - self.b[i]
        return float(r @ r) / (2.0 * self.A[i].shape[0])

    def f(self, w: np.ndarray) -> float:
        return float(sum(self.weights[i] * self.f_node(i, w) for i in range(self.N)))

    def f_gap(self, w: np.ndarray):
        """Optimality gap via the exact quadratic identity
        ``f(w) - f* = (w - w*)' H (w - w*) / 2``, which avoids the
        catastrophic cancellation of subtracting two near-equal values.
        For an ``(R, d)`` stack of points, the ``R`` gaps: the same vector
        by matrix and dot calls per point, stacked."""
        delta = w - self.w_star
        if delta.ndim == 1:
            return 0.5 * float(delta @ self.hess @ delta)
        return 0.5 * ((delta[:, None, :] @ self.hess) @ delta[..., None])[:, 0, 0]

    def full_grad(self, i, w: np.ndarray) -> np.ndarray:
        """Gradient of ``f_i`` at ``w``.  For a sequence of node ids
        ``i``, the ``(n, d)`` gradients of those nodes at ``w``, one point
        or one row per node."""
        if isinstance(i, (int, np.integer)):
            Ai = self.A[i]
            return Ai.T @ (Ai @ w - self.b[i]) / Ai.shape[0]
        if self.A_stack is None:
            W = np.broadcast_to(w, (len(i), self.d))
            return _rows_of(self.d, (self.full_grad(k, W[j]) for j, k in enumerate(i)))
        if isinstance(i, range) and i == range(self.N):
            A3, B = self.A_stack, self.b_stack
        else:
            ids = np.asarray(i, dtype=np.intp)
            A3, B = self.A_stack[ids], self.b_stack[ids]
        Aw = A3 @ w if w.ndim == 1 else (A3 @ w[..., None])[..., 0]
        return (A3.transpose(0, 2, 1) @ (Aw - B)[..., None])[..., 0] / A3.shape[1]

    def global_grad(self, w: np.ndarray) -> np.ndarray:
        g = np.zeros(self.d)
        for i in range(self.N):
            g += self.weights[i] * self.full_grad(i, w)
        return g

    def stochastic_grad(self, i, w: np.ndarray, rng) -> np.ndarray:
        """Gradient of a uniformly sampled single row of node ``i``;
        unbiased for ``full_grad(i, w)``.  For a sequence of node ids
        ``i``, the ``(n, d)`` row gradients of those nodes at ``w`` (one
        point or one row per node), node ``i[j]`` drawing its row from
        the stream ``rng[j]``.

        A row index is ``seeding.draw_index``: Lemire's method on the
        stream's raw Philox words, which equals ``rng.integers(m)`` only
        when ``rng`` is a fresh stream, as every engine's is."""
        if isinstance(i, (int, np.integer)):
            Ai = self.A[i]
            r = draw_index(rng, Ai.shape[0])
            a = Ai[r]
            return a * (a @ w - self.b[i][r])
        if self.A_stack is None:
            W = np.broadcast_to(w, (len(i), self.d))
            return _rows_of(
                self.d, (self.stochastic_grad(k, W[j], g) for j, (k, g) in enumerate(zip(i, rng)))
            )
        m = self.A_stack.shape[1]
        picks = np.asarray(i, dtype=np.intp), [draw_index(g, m) for g in rng]
        a = self.A_stack[picks]
        x = w[:, None] if w.ndim == 1 else w[..., None]
        return a * ((a[:, None, :] @ x)[:, 0, 0] - self.b_stack[picks])[:, None]


def _rows_of(d: int, vectors) -> np.ndarray:
    """The length-``d`` ``vectors`` as the rows of an ``(n, d)`` array."""
    return np.array(list(vectors), dtype=np.float64).reshape(-1, d)


@dataclass(frozen=True)
class FedConstants:
    """Certified constants for the infrequent-communication bound.

    ``sigma_sq[k]`` bounds the per-node stochastic-gradient variance and
    ``G_sq`` the uniform second moment, both as exact suprema over the
    ball of radius ``radius`` around the optimum.  ``Gamma`` is the
    heterogeneity ``f_star - sum_k p_k f_k_star``; ``B`` and ``C``
    combine them for a given number of local steps and participation
    scheme.
    """

    sigma_sq: np.ndarray
    G_sq: float
    Gamma: float
    B: float
    C: float
    E: int
    radius: float


# ---------------------------------------------------------------------------
# Construction


def _orthonormal_columns(rng: np.random.Generator, m: int, d: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((m, d)))
    return q[:, :d]


def make_linreg(
    seed: int,
    d: int,
    N: int,
    target_kappa: float,
    rows_per_node: int,
    interpolating: bool,
    *,
    w_star_scale: float = 1.0,
    noise_scale: float = 0.0,
    l_spread: float = 1.0,
    weights: np.ndarray | None = None,
) -> QuadraticProblem:
    """Draw a random N-node least-squares problem with exact conditioning.

    The global Hessian spectrum is geometrically spaced on
    ``[L/target_kappa, L]`` so its condition number hits ``target_kappa``
    to near machine precision.  With ``rows_per_node >= d`` every node
    gets a full-rank block sharing the global eigenbasis; ``l_spread``
    boosts the top eigenvalue of node 0 by that factor (compensated on
    the other nodes) so ``max_i L_i = l_spread * L_global``, which
    controls how heterogeneous the per-node smoothness is.  With fewer
    rows per node the stacked data matrix is SVD-reshaped instead and
    per-node spectra fall where they may.

    ``interpolating=True`` sets ``b_i = A_i w_star`` exactly, so every
    stochastic gradient vanishes at the optimum; otherwise observations
    get Gaussian noise of scale ``noise_scale``.
    """
    if d < 1 or N < 1 or rows_per_node < 1:
        raise InvalidInputError("d, N and rows_per_node must be positive")
    if target_kappa < 1.0:
        raise InvalidInputError("target_kappa must be >= 1")
    if d == 1 and target_kappa != 1.0:
        raise InvalidInputError("a 1-D problem has condition number 1")
    if rows_per_node * N < d:
        raise RankDeficiencyError(
            f"{rows_per_node * N} rows cannot determine {d} unknowns uniquely"
        )
    if not 0 < l_spread <= N:
        raise InvalidInputError("l_spread must lie in (0, N]")

    rng = np.random.default_rng(seed)
    lam = np.geomspace(1.0 / target_kappa, 1.0, d) if d > 1 else np.ones(1)
    V = _orthonormal_columns(rng, d, d)
    w_star = w_star_scale * rng.standard_normal(d)

    if rows_per_node >= d:
        # Per-node profiles share the eigenbasis; multipliers on the top
        # eigendirection average to one so the global spectrum is exact.
        top_mult = np.full(N, (N - l_spread) / (N - 1) if N > 1 else 1.0)
        top_mult[0] = l_spread if N > 1 else 1.0
        A = np.empty((N, rows_per_node, d))
        for i in range(N):
            profile = lam.copy()
            profile[-1] *= top_mult[i]
            Q = _orthonormal_columns(rng, rows_per_node, d)
            A[i] = Q * np.sqrt(rows_per_node * profile) @ V.T
    else:
        if l_spread != 1.0:
            raise InvalidInputError("l_spread requires rows_per_node >= d")
        # Too few rows per node for balanced blocks: shape the stacked
        # matrix globally and split it.
        total = rows_per_node * N
        G = rng.standard_normal((total, d))
        U, _, _ = np.linalg.svd(G, full_matrices=False)
        A = ((U * np.sqrt(total * lam)) @ V.T).reshape(N, rows_per_node, d)

    if interpolating:
        b = np.stack([Ai @ w_star for Ai in A])
    else:
        b = np.stack([Ai @ w_star + noise_scale * rng.standard_normal(rows_per_node) for Ai in A])
    return _assemble(A, b, weights, interpolating, w_star if interpolating else None)


def from_node_data(
    blocks: list[tuple[np.ndarray, np.ndarray]],
    weights: np.ndarray | None = None,
    interpolating: bool | None = None,
    exact_w_star: np.ndarray | None = None,
) -> QuadraticProblem:
    """Assemble a problem from explicit per-node ``(A_i, b_i)`` blocks;
    blocks with equal row counts are copied into one stack.  Every node
    must hold at least one row."""
    A = [np.ascontiguousarray(Ai, dtype=np.float64) for Ai, _ in blocks]
    b = [np.ascontiguousarray(bi, dtype=np.float64) for _, bi in blocks]
    if len(A) == 0:
        raise InvalidInputError("at least one node required")
    d = A[0].shape[1]
    for i, (Ai, bi) in enumerate(zip(A, b)):
        if Ai.ndim != 2 or Ai.shape[1] != d or bi.shape != (Ai.shape[0],):
            raise InvalidInputError("inconsistent block shapes")
        if Ai.shape[0] == 0:  # its Hessian would be 0/0, and every constant NaN
            raise InvalidInputError(f"node {i} holds no rows")
    if len({Ai.shape[0] for Ai in A}) == 1:
        A, b = np.stack(A), np.stack(b)
    return _assemble(A, b, weights, interpolating, exact_w_star)


def _assemble(A, b, weights, interpolating, exact_w_star) -> QuadraticProblem:
    """The problem on checked blocks: ``A`` and ``b`` stacked as
    ``(N, m, d)`` and ``(N, m)`` arrays, whose views become the per-node
    blocks, or lists of ragged blocks."""
    stacked = isinstance(A, np.ndarray)
    N, d = len(A), A[0].shape[1]
    if weights is None:
        p = np.full(N, 1.0 / N)
    else:
        p = np.asarray(weights, dtype=np.float64)
        if p.shape != (N,) or np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
            raise InvalidInputError("weights must be a length-N simplex vector")

    node_hess = [Ai.T @ Ai / Ai.shape[0] for Ai in A]  # each formed once
    L_i = np.array([float(np.linalg.eigvalsh(Hi)[-1]) for Hi in node_hess])
    H = np.zeros((d, d))
    for pi, Hi in zip(p, node_hess):
        H += pi * Hi
    H.setflags(write=False)  # hessian() hands this one array to every caller
    eigs = np.linalg.eigvalsh(H)
    mu = float(eigs[0])
    if mu <= 0:
        raise RankDeficiencyError("global Hessian is singular")
    L = float(L_i.max())

    prob = QuadraticProblem(
        A=tuple(A),
        b=tuple(b),
        weights=p,
        interpolating=bool(interpolating),
        L_i=L_i,
        L=L,
        mu=mu,
        kappa=L / mu,
        w_star=np.zeros(d),
        f_star=0.0,
        hess=H,
        A_stack=A if stacked else None,
        b_stack=b if stacked else None,
    )
    if exact_w_star is not None:
        # b was built as A @ w_star, so the gradient vanishes identically
        # and the optimal value is exactly zero.
        w_star, f_star = np.asarray(exact_w_star, dtype=np.float64), 0.0
    else:
        w_star, f_star = solve_optimum(prob)
    object.__setattr__(prob, "w_star", w_star)
    object.__setattr__(prob, "f_star", f_star)
    if interpolating is None:
        resid = max(
            float(np.max(np.abs(A[i] @ w_star - b[i]), initial=0.0))
            for i in range(N)
        )
        object.__setattr__(prob, "interpolating", resid <= 1e-10)
    return prob


def solve_optimum(problem: QuadraticProblem) -> tuple[np.ndarray, float]:
    """Direct solve of the weighted normal equations.

    Raises ``RankDeficiencyError`` on a singular global Hessian; the
    returned point has gradient norm below ``1e-10 * L * (1 + |w*|)``.
    """
    H = problem.hessian()
    rhs = np.zeros(problem.d)
    for i in range(problem.N):
        rhs += problem.weights[i] * (problem.A[i].T @ problem.b[i]) / problem.A[i].shape[0]
    import scipy.linalg

    try:
        c, low = scipy.linalg.cho_factor(H)
        w_star = scipy.linalg.cho_solve((c, low), rhs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise RankDeficiencyError("global Hessian is singular") from exc
    resid = float(np.linalg.norm(problem.global_grad(w_star)))
    allowed = _OPT_RESIDUAL_RTOL * problem.L * (1.0 + float(np.linalg.norm(w_star)))
    if resid > allowed:
        raise RankDeficiencyError(
            f"normal-equation residual {resid:.3e} exceeds {allowed:.3e}"
        )
    return w_star, problem.f(w_star)


# ---------------------------------------------------------------------------
# Certified growth and second-moment constants


def _row_moment_matrices(problem: QuadraticProblem, i: int):
    """W = E[|a|^2 a a^T], q = E[|a|^2 r* a], c0 = E[|a|^2 r*^2] for node i,
    expectations over a uniform row, residuals taken at the optimum."""
    Ai, bi = problem.A[i], problem.b[i]
    m = Ai.shape[0]
    sq = np.einsum("ij,ij->i", Ai, Ai)  # per-row squared norms
    r_star = Ai @ problem.w_star - bi
    W = (Ai * sq[:, None]).T @ Ai / m
    q = (Ai * (sq * r_star)[:, None]).sum(axis=0) / m
    c0 = float(sq @ r_star**2) / m
    return W, q, c0


def estimate_rho(problem: QuadraticProblem) -> float:
    """Certified growth constant for single-row stochastic gradients.

    Returns 1.05 times the exact supremum over directions of the ratio of
    the mean stochastic second moment to ``2 L (f - f*)``, so the growth
    inequality holds everywhere with margin.  Requires an interpolating
    problem.
    """
    if not problem.interpolating:
        raise InvalidInputError("growth certification requires interpolation")
    W = np.zeros((problem.d, problem.d))
    for i in range(problem.N):
        Wi, _, _ = _row_moment_matrices(problem, i)
        W += problem.weights[i] * Wi
    H = problem.hessian()
    import scipy.linalg

    # Exact supremum of (x' W x) / (L x' H x): top generalized eigenvalue.
    vals, vecs = scipy.linalg.eigh(W, problem.L * H)
    top = float(vals[-1])
    x = vecs[:, -1]
    # The eigenvector's ratio can only differ from the eigenvalue by rounding.
    return 1.05 * max(float(x @ W @ x) / (problem.L * float(x @ H @ x)), top)


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """Root of ``f`` in the sign-changing bracket ``[xa, xb]`` by Brent's method.

    A line-for-line port of scipy's ``brentq.c`` (Brent, *Algorithms for
    Minimization without Derivatives*, 1973): the same float operations in
    the same order, so it returns the bits ``scipy.optimize.brentq`` does
    (``tests/test_problems.py`` checks this against scipy).  A NaN value
    or a bracket whose ends have the same sign raises ``InvalidInputError``;
    ``maxiter`` iterations without convergence raise ``RuntimeError``.
    """

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise InvalidInputError(f"f({x!r}) is NaN; the root finder cannot continue")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise InvalidInputError(
            f"f(a) and f(b) must have different signs (f({xpre!r}) = {fpre!r}, "
            f"f({xcur!r}) = {fcur!r})"
        )
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            limit = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < limit else limit):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"brentq did not converge after {maxiter} iterations (x = {xcur!r})")


def _max_quadratic_on_ball(
    M: np.ndarray, q: np.ndarray, c0: float, radius: float
) -> float:
    """Exact maximum of ``x'Mx + 2 q'x + c0`` over ``|x| <= radius``.

    Solved by eigendecomposition plus the secular equation of the
    trust-region stationarity condition ``(lam I - M) x = q`` with
    ``lam >= lam_max(M)``, including the hard case.  A NaN objective
    raises ``InvalidInputError`` rather than dropping out of the maximum.
    """

    def objective(x: np.ndarray) -> float:
        value = float(x @ M @ x + 2 * q @ x) + c0
        if math.isnan(value):
            raise InvalidInputError(f"the objective is NaN on the ball of radius {radius!r}")
        return value

    vals, vecs = np.linalg.eigh(M)
    qt = vecs.T @ q
    lam_max = float(vals[-1])

    best = c0  # x = 0
    # Interior stationary point exists only when M is negative definite.
    if lam_max < 0:
        x = vecs @ (qt / -vals)
        if np.linalg.norm(x) <= radius:
            best = max(best, objective(x))

    def norm_at(lam: float) -> float:
        return float(np.sqrt(np.sum((qt / (lam - vals)) ** 2)))

    gap = max(1e-14, 1e-12 * max(1.0, abs(lam_max)))
    if norm_at(lam_max + gap) <= radius:
        # Hard case: put the residual mass on the top eigenvector.
        denom = lam_max - vals
        safe = denom > gap
        x0 = np.zeros_like(qt)
        x0[safe] = qt[safe] / denom[safe]
        extra = radius**2 - float(np.sum(x0**2))
        x0[-1] += math.sqrt(max(0.0, extra))
        x = vecs @ x0
    else:
        hi = lam_max + gap
        while norm_at(hi) > radius:
            hi = lam_max + 2 * (hi - lam_max)
        lam = _brentq(lambda t: norm_at(t) - radius, lam_max + gap, hi, xtol=1e-14, rtol=1e-14)
        x = vecs @ (qt / (lam - vals))
    return max(best, objective(x))


def estimate_fed_constants(
    problem: QuadraticProblem,
    E: int,
    K: int,
    participation: str,
    trajectory_radius: float,
) -> FedConstants:
    """Exact variance / second-moment / heterogeneity constants.

    Suprema are taken over the ball ``|w - w*| <= trajectory_radius``
    (stochastic gradients of quadratics are unbounded globally, so the
    certificate is scoped to that ball).  ``participation`` is one of
    ``full``, ``with-replacement`` (K draws by node weight, averaged by
    1/K) or ``without-replacement`` (K uniform draws, reweighted N/K).
    """
    if not 0 < trajectory_radius < math.inf:
        raise InvalidInputError(
            f"requires 0 < trajectory_radius < inf (trajectory_radius = {trajectory_radius!r})"
        )
    if not trajectory_radius <= _MAX_RADIUS:
        raise InvalidInputError(
            f"requires trajectory_radius**2 < inf (trajectory_radius = {trajectory_radius!r})"
        )
    if E < 1:
        raise InvalidInputError("E must be >= 1")
    N, R = problem.N, trajectory_radius

    sigma_sq = np.zeros(N)
    G_sq = 0.0
    for k in range(N):
        W, q, c0 = _row_moment_matrices(problem, k)
        Hk = problem.node_hessian(k)
        gk_star = problem.full_grad(k, problem.w_star)
        # Second moment E|grad_row|^2 as a quadratic in (w - w*).
        G_sq = max(G_sq, _max_quadratic_on_ball(W, q, c0, R))
        # Variance = second moment - |full grad|^2, also a quadratic.
        M = W - Hk @ Hk
        qd = q - Hk @ gk_star
        cd = c0 - float(gk_star @ gk_star)
        sigma_sq[k] = _max_quadratic_on_ball(M, qd, cd, R)

    f_node_star = []
    for k in range(N):
        sol, *_ = np.linalg.lstsq(problem.A[k], problem.b[k], rcond=None)
        f_node_star.append(problem.f_node(k, sol))
    Gamma = problem.f_star - float(np.dot(problem.weights, f_node_star))

    p = problem.weights
    B = float(p**2 @ sigma_sq) + 6.0 * problem.L * Gamma + 8.0 * (E - 1) ** 2 * G_sq
    if participation == "full":
        C = 0.0
    elif participation == "with-replacement":
        if not 1 <= K:
            raise InvalidInputError("K must be >= 1")
        C = 4.0 * E**2 * G_sq / K
    elif participation == "without-replacement":
        if not 1 <= K <= N:
            raise InvalidInputError("K must be in [1, N] without replacement")
        C = 0.0 if K == N else (N - K) / (N - 1) * 4.0 * E**2 * G_sq / K
    else:
        raise InvalidInputError(f"unknown participation scheme {participation!r}")

    return FedConstants(
        sigma_sq=sigma_sq, G_sq=G_sq, Gamma=Gamma, B=B, C=C, E=E, radius=R
    )


# ---------------------------------------------------------------------------
# Serialization (deterministic byte-for-byte fixtures)


def save_problem(problem: QuadraticProblem, fh: io.BufferedIOBase | str) -> None:
    """Write a self-describing, timestamp-free binary fixture."""
    own = isinstance(fh, str)
    out = open(fh, "wb") if own else fh
    header = {
        "format": "deedsim-problem",
        "version": 1,
        "N": problem.N,
        "d": problem.d,
        "rows": list(problem.rows),
        "interpolating": problem.interpolating,
    }
    blob = json.dumps(header, sort_keys=True).encode()
    out.write(len(blob).to_bytes(8, "little"))
    out.write(blob)

    def put(arr: np.ndarray) -> None:
        buf = io.BytesIO()
        np.save(buf, np.ascontiguousarray(arr))
        raw = buf.getvalue()
        out.write(len(raw).to_bytes(8, "little"))
        out.write(raw)

    put(problem.weights)
    put(problem.w_star)
    for i in range(problem.N):
        put(problem.A[i])
        put(problem.b[i])
    if own:
        out.close()


def load_problem(fh: io.BufferedIOBase | str) -> QuadraticProblem:
    own = isinstance(fh, str)
    inp = open(fh, "rb") if own else fh
    hlen = int.from_bytes(inp.read(8), "little")
    header = json.loads(inp.read(hlen))
    if header.get("format") != "deedsim-problem":
        raise InvalidInputError("not a problem fixture")

    def get() -> np.ndarray:
        n = int.from_bytes(inp.read(8), "little")
        return np.load(io.BytesIO(inp.read(n)))

    weights = get()
    w_star = get()
    blocks = [(get(), get()) for _ in range(header["N"])]
    if own:
        inp.close()
    prob = from_node_data(
        blocks,
        weights=weights,
        interpolating=header["interpolating"],
        exact_w_star=w_star if header["interpolating"] else None,
    )
    return prob
