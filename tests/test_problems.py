import io
import math
import os
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deedsim.errors import InvalidInputError, RankDeficiencyError
from deedsim.problems import (
    _brentq,
    _max_quadratic_on_ball,
    estimate_fed_constants,
    estimate_rho,
    from_node_data,
    load_problem,
    make_linreg,
    save_problem,
    solve_optimum,
)


def scalar_problem(target=2.0):
    return from_node_data([(np.array([[1.0]]), np.array([target]))])


def test_scalar_worked_example():
    p = scalar_problem()
    # f(w) = (w - 2)^2 / 2 with L = mu = 1.
    assert p.L == 1.0 and p.mu == 1.0 and p.kappa == 1.0
    assert p.w_star[0] == pytest.approx(2.0, abs=1e-12)
    assert p.f_star == pytest.approx(0.0, abs=1e-18)
    assert p.f(np.array([3.0])) == pytest.approx(0.5)
    assert p.full_grad(0, np.array([3.0]))[0] == pytest.approx(1.0)


def test_kappa_targeting():
    p = make_linreg(seed=3, d=100, N=10, target_kappa=16.0, rows_per_node=100,
                    interpolating=True)
    eigs = np.linalg.eigvalsh(p.hessian())
    assert eigs[-1] / eigs[0] == pytest.approx(16.0, rel=1e-6)
    assert p.kappa == pytest.approx(16.0, rel=1e-6)  # balanced nodes: L = lam_max


def test_generator_determinism():
    a = make_linreg(seed=11, d=12, N=3, target_kappa=5.0, rows_per_node=15,
                    interpolating=False, noise_scale=0.5)
    b = make_linreg(seed=11, d=12, N=3, target_kappa=5.0, rows_per_node=15,
                    interpolating=False, noise_scale=0.5)
    for Ai, Bi in zip(a.A, b.A):
        assert np.array_equal(Ai, Bi)
    for ai, bi in zip(a.b, b.b):
        assert np.array_equal(ai, bi)


def test_l_spread_controls_node_smoothness():
    p = make_linreg(seed=5, d=40, N=10, target_kappa=16.0, rows_per_node=40,
                    interpolating=True, l_spread=3.125)
    lam_max = np.linalg.eigvalsh(p.hessian())[-1]
    assert p.L / lam_max == pytest.approx(3.125, rel=1e-9)


def test_rank_deficiency_rejected():
    with pytest.raises(RankDeficiencyError):
        make_linreg(seed=0, d=10, N=2, target_kappa=2.0, rows_per_node=3,
                    interpolating=False)


def test_small_row_blocks_supported():
    # Fewer rows than d per node, full rank overall: stacked shaping path.
    p = make_linreg(seed=8, d=12, N=4, target_kappa=6.0, rows_per_node=4,
                    interpolating=True)
    eigs = np.linalg.eigvalsh(p.hessian())
    assert eigs[-1] / eigs[0] == pytest.approx(6.0, rel=1e-6)
    assert p.mu > 0


def test_gradients_match_finite_differences():
    p = make_linreg(seed=7, d=8, N=3, target_kappa=4.0, rows_per_node=10,
                    interpolating=False, noise_scale=1.0)
    rng = np.random.default_rng(0)
    h = 1e-6
    for _ in range(100):
        w = rng.standard_normal(p.d)
        v = rng.standard_normal(p.d)
        v /= np.linalg.norm(v)
        directional = float(p.global_grad(w) @ v)
        central = (p.f(w + h * v) - p.f(w - h * v)) / (2 * h)
        assert directional == pytest.approx(central, rel=1e-6, abs=1e-9)


def test_constants_match_eigenvalues():
    p = make_linreg(seed=9, d=10, N=4, target_kappa=7.0, rows_per_node=12,
                    interpolating=False, noise_scale=0.3)
    worst = max(
        np.linalg.eigvalsh(p.A[i].T @ p.A[i] / p.A[i].shape[0])[-1]
        for i in range(p.N)
    )
    assert p.L == pytest.approx(worst, rel=1e-8)
    assert p.mu == pytest.approx(np.linalg.eigvalsh(p.hessian())[0], rel=1e-8)


def test_gradient_zero_at_optimum():
    p = make_linreg(seed=13, d=20, N=5, target_kappa=3.0, rows_per_node=25,
                    interpolating=True, w_star_scale=2.0)
    g = p.global_grad(p.w_star)
    assert np.linalg.norm(g) <= 1e-10 * p.L * np.linalg.norm(p.w_star)
    assert p.f_star == 0.0


def test_solve_optimum_scalar_and_perturbation():
    p = scalar_problem()
    w, f = solve_optimum(p)
    assert w[0] == pytest.approx(2.0) and f == pytest.approx(0.0, abs=1e-18)

    q = make_linreg(seed=21, d=30, N=5, target_kappa=16.0, rows_per_node=30,
                    interpolating=False, noise_scale=1.0)
    rng = np.random.default_rng(1)
    for _ in range(1000):
        w = q.w_star + rng.standard_normal(q.d) * 10.0 ** rng.uniform(-3, 1)
        assert q.f(w) >= q.f_star - 1e-9


def test_f_gap_quadratic_identity():
    p = make_linreg(seed=4, d=15, N=3, target_kappa=5.0, rows_per_node=20,
                    interpolating=False, noise_scale=2.0)
    rng = np.random.default_rng(2)
    for _ in range(50):
        w = rng.standard_normal(p.d) * 3
        assert p.f_gap(w) == pytest.approx(p.f(w) - p.f_star, rel=1e-8, abs=1e-10)


def test_stochastic_gradient_unbiased():
    p = make_linreg(seed=6, d=6, N=2, target_kappa=2.0, rows_per_node=20,
                    interpolating=True)
    rng = np.random.default_rng(0)
    w = rng.standard_normal(p.d)
    acc = np.zeros(p.d)
    M = 100_000
    for _ in range(M):
        acc += p.stochastic_grad(0, w, rng)
    full = p.full_grad(0, w)
    scale = max(1.0, float(np.linalg.norm(full)))
    assert np.linalg.norm(acc / M - full) <= 0.05 * scale


def test_stochastic_gradient_degenerate_cases():
    # A single-row node is deterministic and equals the full gradient.
    p = from_node_data([(np.array([[1.0, 2.0]]), np.array([0.5])),
                        (np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.1, 0.2]))])
    rng = np.random.default_rng(0)
    w = np.array([0.3, -0.7])
    for _ in range(5):
        assert np.allclose(p.stochastic_grad(0, w, rng), p.full_grad(0, w))
    # At an interpolating optimum every sampled row gradient vanishes.
    q = make_linreg(seed=10, d=5, N=3, target_kappa=2.0, rows_per_node=8,
                    interpolating=True)
    for _ in range(50):
        g = q.stochastic_grad(1, q.w_star, rng)
        assert np.linalg.norm(g) <= 1e-12


def test_rho_scalar_single_row():
    # One row per node in 1-D: the growth ratio is identically 1.
    p = from_node_data(
        [(np.array([[1.5]]), np.array([3.0])), (np.array([[1.5]]), np.array([3.0]))],
        interpolating=True,
        exact_w_star=np.array([2.0]),
    )
    assert estimate_rho(p) == pytest.approx(1.05, rel=1e-9)


def test_rho_certificate_and_monotonicity():
    p = make_linreg(seed=19, d=12, N=4, target_kappa=6.0, rows_per_node=15,
                    interpolating=True)
    rho = estimate_rho(p)
    # rho is 1.05 times the top eigenvalue of (L H)^-1 W, W being the
    # weighted mean over nodes of E_row[|a|^2 a a^T].
    W = sum(
        w * (A * np.einsum("ij,ij->i", A, A)[:, None]).T @ A / A.shape[0]
        for w, A in zip(p.weights, p.A)
    )
    top = np.linalg.eigvals(np.linalg.solve(p.L * p.hessian(), W)).real.max()
    assert rho == pytest.approx(1.05 * top, rel=1e-9)
    assert rho >= 1.0

    # Certificate: the growth inequality holds on fresh points.
    rng = np.random.default_rng(99)
    for _ in range(10_000):
        w = p.w_star + rng.standard_normal(p.d) * 10.0 ** rng.uniform(-2, 2)
        second = 0.0
        for i in range(p.N):
            Ai, bi = p.A[i], p.b[i]
            r = Ai @ w - bi
            sq = np.einsum("ij,ij->i", Ai, Ai)
            second += p.weights[i] * float(sq @ r**2) / Ai.shape[0]
        assert second <= rho * 2.0 * p.L * p.f_gap(w) * (1 + 1e-9) + 1e-12


def test_rho_requires_interpolation():
    p = make_linreg(seed=1, d=4, N=2, target_kappa=2.0, rows_per_node=6,
                    interpolating=False, noise_scale=1.0)
    with pytest.raises(InvalidInputError):
        estimate_rho(p)


def test_max_quadratic_on_ball_against_brute_force():
    rng = np.random.default_rng(23)
    for _ in range(200):
        d = int(rng.integers(1, 7))
        M = rng.standard_normal((d, d))
        M = (M + M.T) / 2
        q = rng.standard_normal(d)
        c0 = float(rng.standard_normal())
        R = float(rng.uniform(0.1, 3.0))
        exact = _max_quadratic_on_ball(M, q, c0, R)
        # 4,000 points uniform in the ball: Gaussian directions, radii R u^(1/d).
        x = rng.standard_normal((4000, d))
        x *= (R * rng.uniform(size=4000) ** (1.0 / d) / np.linalg.norm(x, axis=1))[:, None]
        best = float(np.max(np.einsum("ij,jk,ik->i", x, M, x) + 2 * x @ q) + c0)
        assert exact >= best - 1e-9 * max(1.0, abs(best))
        assert exact <= best + 0.35 * max(1.0, abs(best))  # sampling comes close


def assert_brentq_matches_scipy(f, a, b, xtol=1e-14, rtol=1e-14, maxiter=100):
    """``_brentq`` returns scipy's root bit for bit, or fails where scipy does."""
    from scipy.optimize import brentq

    try:
        want = brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)
    except RuntimeError:  # no convergence within maxiter
        with pytest.raises(RuntimeError):
            _brentq(f, a, b, xtol, rtol, maxiter)
        return
    except ValueError:  # same-sign bracket or a NaN value
        with pytest.raises(InvalidInputError):
            _brentq(f, a, b, xtol, rtol, maxiter)
        return
    got = _brentq(f, a, b, xtol, rtol, maxiter)
    assert struct.pack("<d", got) == struct.pack("<d", want), (got, want)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 7),
    q_exp=st.floats(-8.0, 2.0),
    top_exp=st.floats(-12.0, 0.0),
    fill=st.floats(1e-6, 1.0 - 1e-12),
)
def test_brentq_matches_scipy_on_secular_equations(seed, d, q_exp, top_exp, fill):
    # The secular equation and bracket of _max_quadratic_on_ball.  A small
    # component of q on the top eigenvector and a radius just under the
    # hard-case threshold put the root close to lam_max.
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((d, d))
    vals = np.linalg.eigvalsh((M + M.T) / 2)
    qt = rng.standard_normal(d) * 10.0**q_exp
    qt[-1] *= 10.0**top_exp
    lam_max = float(vals[-1])

    def norm_at(lam):
        return float(np.sqrt(np.sum((qt / (lam - vals)) ** 2)))

    gap = max(1e-14, 1e-12 * max(1.0, abs(lam_max)))
    radius = fill * norm_at(lam_max + gap)
    hi = lam_max + gap
    while norm_at(hi) > radius:
        hi = lam_max + 2 * (hi - lam_max)
    assert_brentq_matches_scipy(lambda t: norm_at(t) - radius, lam_max + gap, hi)


FAMILIES = {
    "cubic": lambda r, c: lambda x: (x - r) * (1.0 + c * x * x),
    "triple root": lambda r, c: lambda x: c * (x - r) ** 3,
    "tanh": lambda r, c: lambda x: math.tanh(c * (x - r)),
    "exp": lambda r, c: lambda x: math.exp(c * x / 10.0) - math.exp(c * r / 10.0),
    # Shifted: the bracket may not change sign.
    "atan": lambda r, c: lambda x: math.atan(c * (x - r)) + 0.3,
}


@settings(max_examples=400, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    root=st.floats(-10.0, 10.0),
    c=st.floats(1e-2, 10.0),
    below=st.floats(1e-6, 20.0),
    above=st.floats(1e-6, 20.0),
    swap=st.booleans(),
    tol=st.sampled_from([(1e-14, 1e-14), (2e-12, 4 * np.finfo(float).eps), (1e-6, 1e-10)]),
)
def test_brentq_matches_scipy_on_generic_brackets(family, root, c, below, above, swap, tol):
    a, b = root - below, root + above
    if swap:
        a, b = b, a
    assert_brentq_matches_scipy(FAMILIES[family](root, c), a, b, *tol)


def test_brentq_edge_cases():
    # A zero at either end is returned before any iteration; a at both.
    for f, a, b, root in [
        (lambda x: x - 1.0, 1.0, 3.0, 1.0),
        (lambda x: x - 1.0, -2.0, 1.0, 1.0),
        (lambda x: (x - 1.0) * (x - 2.0), 1.0, 2.0, 1.0),
        (lambda x: (x - 1.0) * (x - 2.0), 2.0, 1.0, 2.0),
    ]:
        assert _brentq(f, a, b, 1e-14, 1e-14) == root
        assert_brentq_matches_scipy(f, a, b)
    # A same-sign bracket, NaN at an end, NaN at the first interior step,
    # and an iteration limit that runs out.
    for f, a, b, maxiter, error, match in [
        (lambda x: x * x + 1.0, -1.0, 1.0, 100, InvalidInputError, "different signs"),
        (lambda x: math.nan if x > 0.9 else x - 0.5, 0.0, 1.0, 100, InvalidInputError, "NaN"),
        (lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5, 0.0, 1.0, 100, InvalidInputError,
         "NaN"),
        (lambda x: x**3 - 2.0, 0.0, 2.0, 2, RuntimeError, "did not converge after 2 iterations"),
    ]:
        with pytest.raises(error, match=match):
            _brentq(f, a, b, 1e-14, 1e-14, maxiter)
        assert_brentq_matches_scipy(f, a, b, maxiter=maxiter)


def test_fed_certificate_rejects_unbounded_radius():
    p = make_linreg(seed=2, d=4, N=3, target_kappa=3.0, rows_per_node=6,
                    interpolating=False, noise_scale=1.0)
    for radius in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(InvalidInputError, match="requires 0 < trajectory_radius < inf"):
            estimate_fed_constants(p, E=2, K=3, participation="full",
                                   trajectory_radius=radius)
    # On an infinite ball the objective is NaN; max() must not drop it.
    M = np.array([[1.0, 0.5], [0.5, -2.0]])
    with np.errstate(invalid="ignore"), pytest.raises(InvalidInputError, match="objective is NaN"):
        _max_quadratic_on_ball(M, np.array([0.3, -0.2]), 1.0, math.inf)


def test_fed_certificate_rejects_radius_with_overflowing_square():
    p = make_linreg(seed=2, d=4, N=3, target_kappa=3.0, rows_per_node=6,
                    interpolating=False, noise_scale=1.0)
    for radius in (1e160, 10**400):
        with pytest.raises(InvalidInputError, match=r"requires trajectory_radius\*\*2 < inf"):
            estimate_fed_constants(p, 2, 3, "full", radius)
    fed = estimate_fed_constants(p, 2, 3, "full", 1e100)
    assert math.isfinite(fed.G_sq) and np.all(np.isfinite(fed.sigma_sq))


def test_fed_constants_homogeneous_gamma_zero():
    A = np.random.default_rng(0).standard_normal((8, 4))
    b = np.random.default_rng(1).standard_normal(8)
    p = from_node_data([(A.copy(), b.copy()) for _ in range(3)])
    fed = estimate_fed_constants(p, E=3, K=3, participation="full",
                                 trajectory_radius=1.0)
    assert fed.Gamma == pytest.approx(0.0, abs=1e-12)
    assert fed.C == 0.0


def test_fed_constants_participation_formulas():
    p = make_linreg(seed=2, d=6, N=5, target_kappa=3.0, rows_per_node=8,
                    interpolating=False, noise_scale=1.0)
    full = estimate_fed_constants(p, E=4, K=5, participation="full",
                                  trajectory_radius=2.0)
    s1 = estimate_fed_constants(p, E=4, K=2, participation="with-replacement",
                                trajectory_radius=2.0)
    s2 = estimate_fed_constants(p, E=4, K=2, participation="without-replacement",
                                trajectory_radius=2.0)
    s2_full = estimate_fed_constants(p, E=4, K=5, participation="without-replacement",
                                     trajectory_radius=2.0)
    G2 = full.G_sq
    assert full.C == 0.0
    assert s1.C == pytest.approx(4.0 * 16 * G2 / 2)
    assert s2.C == pytest.approx((5 - 2) / 4 * 4.0 * 16 * G2 / 2)
    assert s2_full.C == 0.0
    # B reassembles from its parts exactly.
    B = float(p.weights**2 @ full.sigma_sq) + 6 * p.L * full.Gamma + 8 * 9 * G2
    assert full.B == pytest.approx(B, rel=1e-12)


def test_fed_constants_certify_on_ball():
    p = make_linreg(seed=15, d=5, N=3, target_kappa=4.0, rows_per_node=9,
                    interpolating=False, noise_scale=1.5)
    R = 2.5
    fed = estimate_fed_constants(p, E=2, K=3, participation="full",
                                 trajectory_radius=R)
    rng = np.random.default_rng(3)
    for _ in range(3000):
        delta = rng.standard_normal(p.d)
        delta *= R * rng.uniform() / np.linalg.norm(delta)
        w = p.w_star + delta
        for k in range(p.N):
            Ak, bk = p.A[k], p.b[k]
            r = Ak @ w - bk
            sq = np.einsum("ij,ij->i", Ak, Ak)
            second = float(sq @ r**2) / Ak.shape[0]
            assert second <= fed.G_sq * (1 + 1e-9)
            var = second - float(p.full_grad(k, w) @ p.full_grad(k, w))
            assert var <= fed.sigma_sq[k] * (1 + 1e-9) + 1e-12


def test_serialization_roundtrip_and_determinism():
    p = make_linreg(seed=31, d=8, N=3, target_kappa=4.0, rows_per_node=10,
                    interpolating=True, w_star_scale=2.0)
    buf = io.BytesIO()
    save_problem(p, buf)
    first = buf.getvalue()
    buf2 = io.BytesIO()
    save_problem(p, buf2)
    assert buf2.getvalue() == first  # byte-for-byte reproducible

    q = load_problem(io.BytesIO(first))
    assert q.N == p.N and q.d == p.d
    for a, b in zip(p.A, q.A):
        assert np.array_equal(a, b)
    assert np.array_equal(p.w_star, q.w_star)
    assert q.interpolating and q.f_star == 0.0


# -- the stacked layout and the batched oracles --


def _gaussian_problem(rows, d, a_scale, seed):
    """Gaussian blocks of ``rows[i]`` rows and entries of size ``a_scale``,
    interpolating a Gaussian optimum."""
    rng = np.random.default_rng(seed)
    w_star = rng.standard_normal(d)
    blocks = [a_scale * rng.standard_normal((m, d)) for m in rows]
    return from_node_data([(A, A @ w_star) for A in blocks], interpolating=True,
                          exact_w_star=w_star)


def assert_batched_oracles_match(p, w_scale, seed):
    """``full_grad`` and ``stochastic_grad`` over a sequence of nodes equal
    the one-node calls bit for bit, at one point and at one row per node,
    for every node in order and for a shuffled subset, and consume the
    same draws."""
    rng = np.random.default_rng(seed)
    W = w_scale * rng.standard_normal((p.N, p.d))
    subset = rng.permutation(p.N)[: max(1, p.N // 2)].tolist()
    for nodes in (range(p.N), subset):
        n = len(nodes)
        for x in (W[0], W[:n]):
            at = [x if x.ndim == 1 else x[j] for j in range(n)]
            got = p.full_grad(nodes, x)
            want = np.array([p.full_grad(i, at[j]) for j, i in enumerate(nodes)])
            assert got.shape == (n, p.d) and got.tobytes() == want.tobytes()

            batched = [np.random.default_rng([seed, i]) for i in nodes]
            one_by_one = [np.random.default_rng([seed, i]) for i in nodes]
            got = p.stochastic_grad(nodes, x, batched)
            want = np.array(
                [p.stochastic_grad(i, at[j], one_by_one[j]) for j, i in enumerate(nodes)]
            )
            assert got.shape == (n, p.d) and got.tobytes() == want.tobytes()
            assert [g.bit_generator.state for g in batched] == [
                g.bit_generator.state for g in one_by_one
            ]


@given(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=1, max_value=100),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example(N=10, d=100, m=100, a_exp=0, w_exp=0, seed=1)  # the gd-race shape
@example(N=5, d=20, m=20, a_exp=-5, w_exp=5, seed=2)  # sgd-mc
@example(N=8, d=10, m=12, a_exp=5, w_exp=-5, seed=3)  # fed-local
@example(N=1, d=1, m=1, a_exp=0, w_exp=0, seed=4)
@example(N=4, d=1, m=7, a_exp=0, w_exp=0, seed=5)
@example(N=3, d=3, m=1, a_exp=0, w_exp=0, seed=6)
@settings(max_examples=60, deadline=None)
def test_batched_oracles_equal_per_node(N, d, m, a_exp, w_exp, seed):
    m = max(m, -(-d // N))  # enough rows for a nonsingular Hessian
    p = _gaussian_problem([m] * N, d, 10.0**a_exp, seed)
    assert p.A_stack.shape == (N, m, d)
    assert_batched_oracles_match(p, 10.0**w_exp, seed)


def test_ragged_problem_takes_the_same_call():
    p = _gaussian_problem([3, 5, 1, 4], 4, 1.0, 7)
    assert p.A_stack is None and p.rows == (3, 5, 1, 4)
    assert_batched_oracles_match(p, 1.0, 7)


def _saved(p):
    buf = io.BytesIO()
    save_problem(p, buf)
    buf.seek(0)
    return buf


def test_blocks_are_views_of_one_stack():
    for p in (
        make_linreg(seed=1, d=6, N=3, target_kappa=4.0, rows_per_node=8, interpolating=False,
                    noise_scale=1.0),
        make_linreg(seed=2, d=12, N=4, target_kappa=6.0, rows_per_node=4, interpolating=True),
        load_problem(_saved(make_linreg(seed=3, d=5, N=2, target_kappa=2.0, rows_per_node=5,
                                        interpolating=True))),
    ):
        assert p.A_stack.shape == (p.N, p.rows[0], p.d) and p.b_stack.shape == (p.N, p.rows[0])
        for i in range(p.N):
            assert np.shares_memory(p.A[i], p.A_stack[i])
            assert np.shares_memory(p.b[i], p.b_stack[i])


def test_empty_node_named_by_the_batched_oracle():
    # A node with no rows would get a 0/0 Hessian and NaN constants, so the
    # problem is refused before any constant is computed; no oracle ever
    # sees an empty node.
    one = (np.eye(2), np.ones(2))
    empty = (np.zeros((0, 2)), np.zeros(0))
    for blocks, first in (([one, empty], 1), ([empty, empty], 0), ([empty, one, one], 0)):
        for kwargs in ({}, dict(interpolating=True, exact_w_star=np.ones(2))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no RuntimeWarning on the way
                with pytest.raises(InvalidInputError, match=f"^node {first} holds no rows$"):
                    from_node_data(blocks, **kwargs)


# Each variant changes the BLAS kernel, its thread count or numpy's SIMD
# loops, and with them some golden digests; the batched oracles, the
# exchange and the Monte Carlo lanes must still equal their one-node and
# run-by-run forms.
KERNEL_VARIANTS = (
    {"OPENBLAS_NUM_THREADS": "1"},
    {"OPENBLAS_CORETYPE": "Haswell"},
    {"NPY_DISABLE_CPU_FEATURES": "X86_V4,AVX512_ICL,AVX512_SPR"},
)

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")

BATCHED_CHILD = r"""
import test_engine, test_problems
from deedsim.problems import make_linreg

shapes = [  # the perfbench run workloads' problems, then a ragged one
    dict(d=100, N=10, target_kappa=16.0, rows_per_node=100, interpolating=False,
         w_star_scale=300.0, noise_scale=10.0, l_spread=3.125),
    dict(d=20, N=5, target_kappa=8.0, rows_per_node=20, interpolating=True, w_star_scale=5.0),
    dict(d=10, N=8, target_kappa=4.0, rows_per_node=12, interpolating=False, noise_scale=2.0,
         w_star_scale=5.0),
]
for seed, shape in enumerate(shapes):
    test_problems.assert_batched_oracles_match(make_linreg(seed=seed, **shape), 300.0, seed)
test_problems.assert_batched_oracles_match(
    test_problems._gaussian_problem([3, 5, 1, 4], 4, 1e5, 9), 1e-5, 9
)
for n, d, scheme in ((10, 100, "uniform"), (5, 20, "uniform"), (8, 10, "without-replacement"),
                     (8, 10, "with-replacement"), (3, 1, "full")):
    for stage in (0.0, 1.0):
        test_engine.assert_exchange_matches_per_node(n, d, scheme, stage, seed=n * d)
for participation in ("full", "with-replacement", "without-replacement"):
    test_engine.assert_lanes_match_reference(3, participation)
print("ok")
"""


@pytest.mark.parametrize("variant", KERNEL_VARIANTS, ids=lambda v: next(iter(v)))
def test_batched_equals_per_node_under_other_kernels(variant):
    path = os.pathsep.join(filter(None, [SRC, TESTS, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, **variant, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", BATCHED_CHILD], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
