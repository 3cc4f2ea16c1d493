import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deedsim import engine
from deedsim.bitstream import SparseIntVector, encode_sparse
from deedsim.engine import (
    PARTICIPATION_SCHEMES,
    _Exchange,
    _norm,
    _participants,
    _weighted_sums,
    run_adeed_gd,
    run_const_error_gd,
    run_deed_fed,
    run_deed_gd,
    run_deed_sgd,
    run_exact_agd,
    run_exact_gd,
)
from deedsim.errors import BoundViolationError, ConfigError, InvalidInputError
from deedsim.problems import estimate_rho, from_node_data, make_linreg
from deedsim.quantizer import DEFAULT_FLOAT_BITS, QuantSpec, quantize
from deedsim.seeding import DOWNLINK, PARTICIPATION, UPLINK, philox_key, stream
from deedsim.theory import RecursionSpec, recursion_bound


@pytest.fixture(scope="module")
def small_problem():
    return make_linreg(seed=7, d=30, N=4, target_kappa=8.0, rows_per_node=30,
                       interpolating=False, noise_scale=1.0, w_star_scale=5.0)


@pytest.fixture(scope="module")
def interp_problem():
    return make_linreg(seed=11, d=12, N=4, target_kappa=4.0, rows_per_node=12,
                       interpolating=True, w_star_scale=3.0)


def scalar_problem():
    # f(w) = w^2 / 2
    return from_node_data([(np.array([[1.0]]), np.array([0.0]))])


def test_scalar_closed_form_envelope():
    p = scalar_problem()
    tr = run_deed_gd(p, 1.0, 0.5, 1.0, 25, seed=3, w0=np.array([1.0]))
    for t in range(26):
        assert tr.dist[t] <= 0.5**t * 2.0 * (1 + 1e-12)


def test_budget_chain_recorded(small_problem):
    tr = run_deed_gd(small_problem, None, 0.95, 0.5, 120, seed=5)
    T = 120
    vg = tr.extras["vg_err"][:T]
    assert np.all(vg <= tr.budget[:T] * (1 + 1e-9) + 1e-10)
    assert np.allclose(tr.budget[:T], 0.5 * 0.95 ** (np.arange(T) + 1), rtol=1e-13)


def test_zero_budget_matches_exact_gd(small_problem):
    a = run_deed_gd(small_problem, None, 0.9, 0.0, 60, seed=1)
    b = run_exact_gd(small_problem, None, 60, seed=1)
    for col in ("dist", "fgap", "bits_up", "bits_down", "budget"):
        assert np.array_equal(getattr(a, col), getattr(b, col)), col


def test_zero_budget_matches_exact_agd(small_problem):
    a = run_adeed_gd(small_problem, 0.97, 0.0, 60, seed=1)
    b = run_exact_agd(small_problem, 60, seed=1)
    for col in ("dist", "fgap", "bits_up", "bits_down"):
        assert np.array_equal(getattr(a, col), getattr(b, col)), col


def test_lossless_bit_pricing(small_problem):
    tr = run_exact_gd(small_problem, None, 5, seed=0)
    n, d, F = small_problem.N, small_problem.d, 32
    assert np.all(tr.bits_up[:5] == n * F * d)
    assert np.all(tr.bits_down[:5] == n * F * d)  # broadcast per receiving link
    assert tr.bits_up[5] == 0  # final row carries no round


def test_counting_modes(small_problem):
    # Both lossless baselines charge the one star convention and take no
    # counting_mode to re-price it.
    n, d, F = small_problem.N, small_problem.d, 32
    for tr in (run_exact_gd(small_problem, None, 4), run_exact_agd(small_problem, 4)):
        assert np.all(tr.bits_up[:4] == n * F * d)
        assert np.all(tr.bits_down[:4] == n * F * d)
    with pytest.raises(TypeError, match="counting_mode"):
        run_exact_gd(small_problem, None, 4, counting_mode="star-full")
    with pytest.raises(TypeError, match="counting_mode"):
        run_exact_agd(small_problem, 4, counting_mode="star-full")


def test_kappa_one_momentum_reduces_to_plain():
    I = np.eye(3)
    p = from_node_data([(I, np.array([1.0, -2.0, 0.5])), (I, np.array([0.0, 1.0, 2.0]))])
    assert p.L == p.mu  # exactly, so the momentum coefficient is exactly zero
    a = run_adeed_gd(p, 0.6, 0.3, 40, seed=9)
    g = run_deed_gd(p, 1.0 / p.L, 0.6, 0.3, 40, seed=9)
    for col in ("dist", "fgap", "bits_up", "bits_down"):
        assert np.array_equal(getattr(a, col), getattr(g, col)), col


def test_parameter_validation(small_problem):
    with pytest.raises(ConfigError, match="0 < eta <= 2/"):
        run_deed_gd(small_problem, 10.0, 0.9, 0.1, 5)
    with pytest.raises(ConfigError, match="c < c' < 1"):
        run_deed_gd(small_problem, None, 1.2, 0.1, 5)
    with pytest.raises(ConfigError, match="s >= 0"):
        run_deed_gd(small_problem, None, 0.9, -1.0, 5)


def test_experiment_margin_relaxation(small_problem):
    # c' below the contraction factor: allowed, envelope auto-disabled.
    c = 1.0 - (2.0 / (small_problem.L + small_problem.mu)) * small_problem.mu
    tr = run_deed_gd(small_problem, None, c * 0.5, 0.1, 30, seed=2)
    assert tr.extras["envelope_checked"] is False


def test_sgd_requires_interpolation(small_problem):
    with pytest.raises(InvalidInputError):
        run_deed_sgd(small_problem, 0.99, 1.0, 10, mc_runs=2)


def test_sgd_single_row_nodes_lossless_equals_exact_gd():
    # One row per node: the stochastic oracle is the full gradient, and a
    # zero budget makes the run exact descent at the certified stepsize.
    rng = np.random.default_rng(5)
    blocks = [(rng.standard_normal((1, 3)), rng.standard_normal(1)) for _ in range(3)]
    w_star = np.linalg.lstsq(
        np.vstack([A for A, _ in blocks]), np.concatenate([b for _, b in blocks]),
        rcond=None,
    )[0]
    blocks = [(A, A @ w_star) for A, _ in blocks]
    p = from_node_data(blocks, interpolating=True, exact_w_star=w_star)
    rho = estimate_rho(p)
    c = 1.0 - p.mu / (rho * p.L)
    traces = run_deed_sgd(p, 1 - 0.5 * (1 - c), 0.0, 40, seed=3, mc_runs=1, rho=rho)
    exact = run_exact_gd(p, 1.0 / (rho * p.L), 40, seed=3)
    assert np.allclose(traces[0].dist, exact.dist, rtol=1e-12, atol=1e-14)


def test_sgd_mean_under_envelope(interp_problem):
    # Engine-internal assertion plus Monte Carlo reproducibility.
    rho = estimate_rho(interp_problem)
    c = 1.0 - interp_problem.mu / (rho * interp_problem.L)
    traces = run_deed_sgd(interp_problem, 1 - 0.5 * (1 - c), 1.0, 150, seed=4,
                          mc_runs=10, rho=rho)
    assert len(traces) == 10
    again = run_deed_sgd(interp_problem, 1 - 0.5 * (1 - c), 1.0, 150, seed=4,
                         mc_runs=10, rho=rho)
    for a, b in zip(traces, again):
        assert np.array_equal(a.dist, b.dist)


def test_sgd_budget_schedule(interp_problem):
    rho = estimate_rho(interp_problem)
    c = 1.0 - interp_problem.mu / (rho * interp_problem.L)
    traces = run_deed_sgd(interp_problem, 1 - 0.5 * (1 - c), 4.0, 50, seed=4,
                          mc_runs=1, rho=rho)
    tr = traces[0]
    cp = 1 - 0.5 * (1 - c)
    expect = np.sqrt(4.0 * cp ** (np.arange(50) + 1))
    assert np.allclose(tr.budget[:50], expect)
    assert np.all(tr.extras["vg_err"][:50] <= tr.budget[:50] * (1 + 1e-9) + 1e-10)


def test_const_error_plateau(small_problem):
    # A fixed budget stalls convergence: the run sits inside the
    # constant-noise envelope but never leaves the noise floor.  (The
    # quantitative eta*eps/4 floor is asserted on the acceptance
    # benchmark, whose spectrum it is calibrated for.)
    eps = 0.5
    tr = run_const_error_gd(small_problem, None, 400, fixed_eps=eps, seed=6)
    eta, c = tr.extras["eta"], tr.extras["c"]
    assert np.all(tr.dist[-100:] >= eta * eps / 16.0)
    assert tr.fgap[-100:].min() > 1e-6  # stalls far above tight accuracy
    D0 = float(np.linalg.norm(small_problem.w_star))
    env = recursion_bound(
        RecursionSpec(np.full(400, c), np.full(400, eta * eps), D0), 400
    )
    assert np.all(tr.dist**2 <= env.bound * (1 + 1e-9))
    assert np.all(tr.budget == eps)


def test_momentum_needs_fewer_iterations(small_problem):
    # Matched budget scales: the momentum variant reaches a tight
    # accuracy in strictly fewer rounds than the plain variant.
    p = small_problem
    cg = 1.0 - (2.0 / (p.L + p.mu)) * p.mu
    ca = math.sqrt(1.0 - math.sqrt(p.mu / p.L))
    plain = run_deed_gd(p, None, (1 + cg) / 2, 1e-3, 400, seed=2)
    mom = run_adeed_gd(p, (1 + ca) / 2, 1e-3, 400, seed=2)
    it_plain = int(np.nonzero(plain.fgap <= 1e-8)[0][0])
    it_mom = int(np.nonzero(mom.fgap <= 1e-8)[0][0])
    assert it_mom < it_plain


def test_exact_agd_classical_rate():
    # Iterations to a 1e-8 loss gap scale like sqrt(kappa) * ln(1e8)
    # times a problem constant; K0 = 0.6 was fitted on the kappa = 16
    # instance (measured 0.543) and transfers to kappa = 64.
    K0 = 0.6
    for kap in (16.0, 64.0):
        p = make_linreg(seed=777, d=50, N=4, target_kappa=kap, rows_per_node=50,
                        interpolating=False, w_star_scale=10.0, noise_scale=1.0)
        tr = run_exact_agd(p, 600, seed=0)
        iters = int(np.nonzero(tr.fgap <= 1e-8)[0][0])
        assert iters <= math.ceil(math.sqrt(p.kappa) * math.log(1e8) * K0)


def test_exact_gd_scalar_one_step():
    p = scalar_problem()
    tr = run_exact_gd(p, 1.0, 3, w0=np.array([5.0]))
    assert tr.dist[0] == 5.0 and tr.dist[1] == 0.0


FED_ARGS = dict(E=4, s=1.0, T_rounds=12, seed=2, mc_runs=3)


@pytest.fixture(scope="module")
def fed_problem():
    return make_linreg(seed=13, d=8, N=6, target_kappa=4.0, rows_per_node=10,
                       interpolating=False, noise_scale=1.0, w_star_scale=3.0)


def _fed_params(p):
    beta = 2.0 / p.mu
    gamma = max(4.0 * p.L * beta, 8.0)
    return beta, gamma


def test_fed_degenerate_single_node_sgd():
    p = make_linreg(seed=3, d=4, N=1, target_kappa=2.0, rows_per_node=8,
                    interpolating=True, w_star_scale=2.0)
    beta, gamma = _fed_params(p)
    traces = run_deed_fed(p, 1, beta, gamma, 0.0, 30, "full", seed=5, mc_runs=1)
    # Plain stochastic descent with the 1/(t+gamma) schedule: replicate it.
    w = np.zeros(p.d)
    from deedsim.seeding import ROW_SAMPLE, stream

    for t in range(30):
        g = p.stochastic_grad(0, w, stream(5, 0, t, 0, ROW_SAMPLE))
        w = w - beta / (t + gamma) * g
        # After each sync (E=1 means every iteration) the iterate is the
        # losslessly decoded broadcast of itself.
    assert traces[0].dist[30] == pytest.approx(float(np.linalg.norm(w - p.w_star)))


def test_fed_k_equals_n_matches_full(fed_problem):
    beta, gamma = _fed_params(fed_problem)
    full = run_deed_fed(fed_problem, beta=beta, gamma=gamma,
                        participation="full", K=None, **FED_ARGS)
    allk = run_deed_fed(fed_problem, beta=beta, gamma=gamma,
                        participation="without-replacement", K=fed_problem.N,
                        **FED_ARGS)
    for a, b in zip(full, allk):
        for col in ("dist", "fgap", "bits_up", "bits_down"):
            assert np.array_equal(getattr(a, col), getattr(b, col)), col


def test_fed_bits_on_sync_rows_only(fed_problem):
    beta, gamma = _fed_params(fed_problem)
    tr = run_deed_fed(fed_problem, beta=beta, gamma=gamma, participation="full",
                      K=None, **FED_ARGS)[0]
    T = 12 * 4
    syncs = np.arange(4, T + 1, 4)
    others = np.setdiff1d(np.arange(T + 1), syncs)
    assert np.all(tr.bits_up[syncs] > 0)
    assert np.all(tr.bits_up[others] == 0)
    eta = beta / (syncs + gamma)
    assert np.allclose(tr.budget[syncs], 1.0 * eta)


def test_fed_schedule_validation(fed_problem):
    beta, gamma = _fed_params(fed_problem)
    with pytest.raises(ConfigError, match="beta > 1/mu"):
        run_deed_fed(fed_problem, 4, 0.5 / fed_problem.mu, gamma, 1.0, 4, "full")
    with pytest.raises(ConfigError, match="gamma > 1"):
        run_deed_fed(fed_problem, 4, beta, 0.5, 1.0, 4, "full")
    with pytest.raises(ConfigError, match="eta_0"):
        run_deed_fed(fed_problem, 4, beta, beta * fed_problem.mu * 1.01, 1.0, 4, "full")
    with pytest.raises(ConfigError, match="K"):
        run_deed_fed(fed_problem, 4, beta, gamma, 1.0, 4, "without-replacement",
                     K=fed_problem.N + 1)
    with pytest.raises(ConfigError, match="participation"):
        run_deed_fed(fed_problem, 4, beta, gamma, 1.0, 4, "sometimes", K=2)


def test_negative_horizon_named(small_problem, interp_problem, fed_problem):
    beta, gamma = _fed_params(fed_problem)
    runs = [
        lambda: run_deed_gd(small_problem, None, 0.9, 0.1, -1),
        lambda: run_adeed_gd(small_problem, 0.97, 0.1, -1),
        lambda: run_exact_gd(small_problem, None, -1),
        lambda: run_exact_agd(small_problem, -1),
        lambda: run_const_error_gd(small_problem, None, -1, 1.0),
        lambda: run_deed_sgd(interp_problem, 0.999, 1.0, -1),
        lambda: run_deed_fed(fed_problem, 4, beta, gamma, 1.0, -1, "full"),
    ]
    for run in runs:
        with pytest.raises(ConfigError, match=r"requires T >= 0 \(T = -1\)"):
            run()


def test_negative_seed_named(small_problem, interp_problem, fed_problem):
    # Each engine used to fail inside seeding, with a bare ValueError.
    beta, gamma = _fed_params(fed_problem)
    runs = [
        lambda: run_deed_gd(small_problem, None, 0.9, 0.1, 5, seed=-1),
        lambda: run_adeed_gd(small_problem, 0.97, 0.1, 5, seed=-1),
        lambda: run_exact_gd(small_problem, None, 5, seed=-1),
        lambda: run_exact_agd(small_problem, 5, seed=-1),
        lambda: run_const_error_gd(small_problem, None, 5, 1.0, seed=-1),
        lambda: run_deed_sgd(interp_problem, 0.999, 1.0, 5, seed=-1),
        lambda: run_deed_fed(fed_problem, 4, beta, gamma, 1.0, 2, "full", seed=-1),
    ]
    for run in runs:
        with pytest.raises(ConfigError, match=r"^requires seed >= 0 \(seed = -1\)$"):
            run()


@pytest.mark.parametrize("mc_runs", [0, -1])
def test_nonpositive_mc_runs_named(interp_problem, fed_problem, mc_runs):
    # These used to fail in numpy: a reshape of an empty array, or a
    # negative dimension.
    beta, gamma = _fed_params(fed_problem)
    message = rf"^requires mc_runs >= 1 \(mc_runs = {mc_runs}\)$"
    with pytest.raises(ConfigError, match=message):
        run_deed_sgd(interp_problem, 0.999, 1.0, 5, mc_runs=mc_runs)
    with pytest.raises(ConfigError, match=message):
        run_deed_fed(fed_problem, 4, beta, gamma, 1.0, 2, "full", mc_runs=mc_runs)


@pytest.mark.parametrize("fixed_eps", [0.0, -0.5, math.nan])
def test_nonpositive_fixed_eps_named(small_problem, fixed_eps):
    with pytest.raises(ConfigError) as err:
        run_const_error_gd(small_problem, None, 5, fixed_eps)
    assert err.value.violations == [f"requires fixed_eps > 0 (fixed_eps = {fixed_eps!r})"]


@pytest.mark.parametrize("value", [1.5, 2.0, True, "2"])
def test_non_integer_seed_named(small_problem, interp_problem, fed_problem, value):
    # A float seed used to run as its integer part and be recorded as given.
    beta, gamma = _fed_params(fed_problem)
    runs = [
        lambda: run_deed_gd(small_problem, None, 0.9, 0.1, 3, seed=value),
        lambda: run_exact_agd(small_problem, 3, seed=value),
        lambda: run_const_error_gd(small_problem, None, 3, 1.0, seed=value),
        lambda: run_deed_sgd(interp_problem, 0.999, 1.0, 3, seed=value),
        lambda: run_deed_fed(fed_problem, 4, beta, gamma, 1.0, 2, "full", seed=value),
    ]
    for run in runs:
        with pytest.raises(ConfigError) as err:
            run()
        assert err.value.violations == [f"requires an integer seed (seed = {value!r})"]


@pytest.mark.parametrize("value", [1.5, 2.0, True])
def test_non_integer_mc_runs_named(interp_problem, fed_problem, value):
    beta, gamma = _fed_params(fed_problem)
    message = [f"requires an integer mc_runs (mc_runs = {value!r})"]
    with pytest.raises(ConfigError) as err:
        run_deed_sgd(interp_problem, 0.999, 1.0, 3, mc_runs=value)
    assert err.value.violations == message
    with pytest.raises(ConfigError) as err:
        run_deed_fed(fed_problem, 4, beta, gamma, 1.0, 2, "full", mc_runs=value)
    assert err.value.violations == message


@pytest.mark.parametrize("value", [2.5, 3.0, True])
def test_non_integer_horizon_named(small_problem, interp_problem, value):
    message = [f"requires an integer T (T = {value!r})"]
    for run in (
        lambda: run_deed_gd(small_problem, None, 0.9, 0.1, value),
        lambda: run_adeed_gd(small_problem, 0.97, 0.1, value),
        lambda: run_exact_gd(small_problem, None, value),
        lambda: run_deed_sgd(interp_problem, 0.999, 1.0, value),
    ):
        with pytest.raises(ConfigError) as err:
            run()
        assert err.value.violations == message


@pytest.mark.parametrize("value", [2.5, 2.0, True])
def test_non_integer_fed_counts_named(fed_problem, value):
    beta, gamma = _fed_params(fed_problem)
    # T_rounds is checked as the horizon T.
    with pytest.raises(ConfigError) as err:
        run_deed_fed(fed_problem, 4, beta, gamma, 1.0, value, "full")
    assert err.value.violations == [f"requires an integer T (T = {value!r})"]
    with pytest.raises(ConfigError) as err:
        run_deed_fed(fed_problem, value, beta, gamma, 1.0, 2, "full")
    assert err.value.violations == [f"requires an integer E (E = {value!r})"]
    for participation in ("with-replacement", "without-replacement"):
        with pytest.raises(ConfigError) as err:
            run_deed_fed(fed_problem, 4, beta, gamma, 1.0, 2, participation, K=value)
        assert err.value.violations == [f"requires an integer K (K = {value!r})"]


def test_runs_build_no_grid(monkeypatch, small_problem, interp_problem, fed_problem):
    # A run sends each message as its grid point and builds no
    # SparseIntVector; only a whole message from quantize builds one.
    def refuse(*args):
        raise AssertionError("a message's grid was built")

    monkeypatch.setattr(SparseIntVector, "_unchecked", refuse)
    with pytest.raises(AssertionError, match="grid was built"):
        quantize(np.ones(3), QuantSpec(0.1, 3), stream(1, 0))
    traces = run_deed_sgd(interp_problem, 0.999, 1.0, 40, mc_runs=3)
    assert all(tr.total_bits > 0 for tr in traces)
    assert run_deed_gd(small_problem, None, 0.9, 0.1, 10).total_bits > 0
    beta, gamma = _fed_params(fed_problem)
    traces = run_deed_fed(fed_problem, 4, beta, gamma, 1.0, 3, "full", mc_runs=2)
    assert all(tr.total_bits > 0 for tr in traces)


def test_numpy_integer_counts_accepted(small_problem):
    # numpy integers are integers: the run equals the one with Python ints.
    ref = run_deed_gd(small_problem, None, 0.9, 0.1, 3, seed=4)
    tr = run_deed_gd(small_problem, None, 0.9, 0.1, np.int64(3), seed=np.int64(4))
    assert tr.dist.tobytes() == ref.dist.tobytes()
    assert tr.bits_up.tobytes() == ref.bits_up.tobytes()


def test_fed_eta_schedule_scan():
    # E > gamma violates eta_t <= 2 eta_(t+E) at t = 0.
    p = make_linreg(seed=4, d=4, N=2, target_kappa=2.0, rows_per_node=6,
                    interpolating=True)
    beta = 2.0 / p.mu
    gamma = max(4.0 * p.L * beta, 8.0)
    with pytest.raises(ConfigError, match="eta_t <= 2"):
        run_deed_fed(p, int(gamma) + 2, beta, gamma, 1.0, 2, "full")


def test_fed_nonfinite_beta_or_gamma_named(fed_problem):
    # An infinite gamma gave eta_t = 0 and a NaN envelope that passed.
    beta, gamma = _fed_params(fed_problem)
    with pytest.raises(ConfigError) as err:
        run_deed_fed(fed_problem, 4, beta, math.inf, 1.0, 4, "full")
    assert err.value.violations == ["requires gamma < inf (gamma = inf)"]
    with pytest.raises(ConfigError, match=r"eta_0 <= 1/\(4L\) \(eta_0 = inf"):
        run_deed_fed(fed_problem, 4, math.inf, gamma, 1.0, 4, "full")
    with pytest.raises(ConfigError, match=r"gamma > 1 \(gamma = nan\)"):
        run_deed_fed(fed_problem, 4, beta, math.nan, 1.0, 4, "full")


def _scanned_schedule_violations(beta, gamma, E, T_rounds):
    # The scan fed_violations ran before its one comparison at t = 0.
    for t in range(T_rounds * E + 1):
        if beta / (t + gamma) > 2.0 * beta / (t + E + gamma) * (1.0 + 1e-12):
            return [f"requires eta_t <= 2*eta_(t+E) (violated at t = {t})"]
    return []


def test_fed_schedule_check_equals_the_scan(fed_problem):
    nudge = 1.0 + 1e-12
    for beta in (1e-3, 0.5, 2.0 / fed_problem.mu, 7.0, 1e3, 1e9):
        for gamma in (1.0 + 1e-9, 1.5, 2.0, 3.0, 7.0, 8.0 / nudge, 8.0, 8.0 * nudge, 8.5,
                      99.0, 100.0, 1e5):
            for E in (1, 2, 3, 7, 8, 9, 100, 101):
                for T in (0, 1, 2, 5):
                    found = [
                        v for v in engine.fed_violations(
                            fed_problem, E, beta, gamma, 1.0, T, "full", None, None)
                        if v.startswith("requires eta_t")
                    ]
                    assert found == _scanned_schedule_violations(beta, gamma, E, T), (
                        beta, gamma, E, T)
    # A negative E is named, not divided by: here E + gamma = 0.
    violations = engine.fed_violations(fed_problem, -2, 1e3, 2.0, 1.0, 3, "full", None, None)
    assert "requires E >= 1 (E = -2)" in violations


def test_fed_zero_rounds_runs_one_row(fed_problem):
    # With no sync row to check the envelope check used to raise a bare
    # ValueError from np.min of an empty array.
    beta, gamma = _fed_params(fed_problem)
    traces = run_deed_fed(fed_problem, 4, beta, gamma, 1.0, 0, "full", mc_runs=2)
    assert len(traces) == 2
    for tr in traces:
        assert len(tr.t) == 1 and tr.total_bits == 0


def test_check_envelope_counts_nan_as_a_violation(small_problem):
    eta = 2.0 / (small_problem.L + small_problem.mu)
    tr = run_deed_gd(small_problem, eta, 0.9, 0.1, 20, seed=1)
    series = engine.envelope("deed-gd", small_problem, 20, eta=eta, c_prime=0.9, s=0.1)
    assert engine.check_envelope([tr], series, "envelope", squared=False) > 0.0
    assert engine.check_envelope([tr], series, "envelope", False, np.arange(0)) == math.inf

    broken = dataclasses.replace(tr, dist=tr.dist.copy())
    broken.dist[7] = math.nan
    with pytest.raises(BoundViolationError) as err:
        engine.check_envelope([broken], series, "envelope", squared=False)
    assert err.value.t == 7 and math.isnan(err.value.observed)
    assert str(err.value).startswith("envelope violated at t=7: NaN observed value (observed ")
    assert ">" not in err.value.comparison
    # Not even an infinite envelope lets a NaN mean through.
    unbounded = dataclasses.replace(series, bound=np.full_like(series.bound, math.inf))
    assert engine.check_envelope([tr, tr], unbounded, "envelope", squared=True) == math.inf
    with pytest.raises(BoundViolationError) as err:
        engine.check_envelope([tr, broken, tr], unbounded, "envelope", squared=True)
    assert err.value.t == 7

    series.bound[4] = math.nan
    with pytest.raises(BoundViolationError) as err:
        engine.check_envelope([tr], series, "envelope", squared=False)
    assert err.value.t == 4 and math.isnan(err.value.allowed)
    assert err.value.comparison.startswith("NaN allowed value (observed ")
    assert BoundViolationError("k", 0, math.nan, math.nan).comparison.startswith(
        "NaN observed and allowed value"
    )
    # Rows other than the NaN one still pass.
    rows = np.array([0, 5, 20])
    assert engine.check_envelope([tr], series, "envelope", False, rows) > 0.0


def _allowed(bound):
    """The envelope or budget value a check admits at ``bound``, with the
    engine's float-dust slack and no standard error."""
    return bound * (1.0 + engine._REL_SLACK) + engine._ABS_DUST


def _root_at_most(x):
    """The largest float whose square does not exceed ``x``."""
    r = math.sqrt(x)
    while r * r > x:
        r = np.nextafter(r, 0.0)
    return r


@pytest.mark.parametrize("squared", [False, True], ids=["distance", "squared-one-run"])
def test_check_envelope_is_tight_at_the_allowed_value(small_problem, squared):
    # A row exactly at the allowed value passes and one a millionth above
    # it raises: the check admits float dust, not a factor of the envelope.
    eta = 2.0 / (small_problem.L + small_problem.mu)
    tr = run_deed_gd(small_problem, eta, 0.9, 0.1, 20, seed=1)
    series = engine.envelope("deed-gd", small_problem, 20, eta=eta, c_prime=0.9, s=0.1)
    rows = np.array([5])
    allowed = _allowed(series.bound[5])
    for factor, passes in ((1.0, True), (1.0 + 1e-6, False)):
        probe = dataclasses.replace(tr, dist=tr.dist.copy())
        target = allowed * factor
        probe.dist[5] = _root_at_most(target) if squared else target
        if passes:
            assert engine.check_envelope([probe], series, "envelope", squared, rows) >= 0.0
        else:
            with pytest.raises(BoundViolationError) as err:
                engine.check_envelope([probe], series, "envelope", squared, rows)
            assert err.value.t == 5 and err.value.allowed == allowed


def test_assert_budget_is_tight_at_the_allowed_value():
    # Three lanes, each lane its run; only the lane under test is off zero.
    gbar = np.zeros((3, 3))
    budget = [0.75] * 3
    allowed = _allowed(0.75)
    for lane in range(3):
        at = np.zeros(3)  # the lanes' errors |v - gbar|
        at[lane] = allowed
        assert engine._assert_budget(at, gbar, budget, 4)[lane] == allowed
        with pytest.raises(BoundViolationError) as err:
            engine._assert_budget(at * (1.0 + 1e-6), gbar, budget, 4)
        assert err.value.t == 4 and err.value.allowed == allowed
        assert err.value.run == lane and f"at t=4 in run {lane}:" in str(err.value)


def test_trace_csv_roundtrip(small_problem):
    from deedsim.trace import RunTrace
    import io

    tr = run_deed_gd(small_problem, None, 0.95, 0.5, 20, seed=5)
    buf = io.StringIO(tr.to_csv_bytes().decode())
    back = RunTrace.from_csv(buf, algorithm=tr.algorithm)
    assert np.array_equal(back.dist, tr.dist)
    assert np.array_equal(back.bits_up, tr.bits_up)
    assert np.array_equal(back.budget, tr.budget)


def _reference_csv(tr) -> str:
    """A trace's CSV written row by row from the numpy columns."""
    cum = tr.cum_bits
    return "t,dist,fgap,bits_up,bits_down,cum_bits,budget\n" + "".join(
        f"{int(tr.t[i])},{tr.dist[i]:.17g},{tr.fgap[i]:.17g},"
        f"{int(tr.bits_up[i])},{int(tr.bits_down[i])},{int(cum[i])},{tr.budget[i]:.17g}\n"
        for i in range(len(tr.t))
    )


def test_trace_csv_matches_a_per_row_reference(small_problem):
    from deedsim.trace import RunTrace

    floats = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308,
                       0.1, -2.5e-17, 1.0 / 3.0])
    big = np.array([2**53, 2**53 + 1, 2**60 + 3, 0, 1, 2**62 - 1, 7, 2**53 - 1, 5, 9])
    small = np.arange(10, dtype=np.int64) * 3
    traces = [
        RunTrace("edges", np.arange(10), floats, floats[::-1].copy(), big, small, -floats),
        RunTrace("edges", np.arange(10) + 2**53, floats[::-1].copy(), floats, small, small, floats),
        run_deed_gd(small_problem, None, 0.95, 0.5, 20, seed=5),
    ]
    for tr in traces:
        assert tr.to_csv_bytes().decode() == _reference_csv(tr)


TRACE_CSV = (
    "t,dist,fgap,bits_up,bits_down,cum_bits,budget\n"
    "0,1.5,2.25,10,5,15,0.5\n"
    "1,0.75,0.5,10,5,30,0.25\n"
    "2,0.5,0.125,0,0,30,0\n"
)


def test_trace_csv_reads_well_formed_rows():
    from deedsim.trace import RunTrace
    import io

    back = RunTrace.from_csv(io.StringIO(TRACE_CSV))
    assert back.t.tolist() == [0, 1, 2]
    assert back.cum_bits.tolist() == [15, 30, 30]
    assert back.budget.tolist() == [0.5, 0.25, 0.0]


@pytest.mark.parametrize(
    "old, new, match",
    [
        ("budget\n", "budgets\n", r"line 1: expected header"),
        ("0.25\n", "0.25,7\n", r"line 3: expected 7 fields .*got 8"),
        ("30,0.25\n", "30\n", r"line 3: expected 7 fields .*got 6"),
        (",30,0.25", ",31,0.25", r"line 3: cum_bits 31 is not the running sum .*\(30\)"),
        ("0,0,30,0\n", "0,0,31,0\n", r"line 4: cum_bits 31 is not the running sum .*\(30\)"),
        ("1,0.75,0.5,10,", "1,0.75,0.5,1e1,", r"line 3: bits_up '1e1' is not int"),
        ("2,0.5,0.125", "2,0.5,x", r"line 4: fgap 'x' is not float"),
    ],
)
def test_trace_csv_malformed_rows_name_line_and_field(old, new, match):
    from deedsim.trace import RunTrace
    import io

    assert TRACE_CSV.count(old) == 1
    with pytest.raises(InvalidInputError, match=match):
        RunTrace.from_csv(io.StringIO(TRACE_CSV.replace(old, new)))


def test_bits_to_accuracy(small_problem):
    tr = run_exact_gd(small_problem, None, 200, seed=0)
    bits = tr.bits_to_accuracy(1e-6)
    t_star = int(np.nonzero(tr.fgap <= 1e-6)[0][0])
    assert bits == int(tr.cum_bits[t_star - 1])
    assert tr.bits_to_accuracy(0.0) is None


def test_bits_to_accuracy_sync_timed(fed_problem):
    # Federated rows record the sync that produced them; its bits count
    # toward reaching that row's accuracy.
    beta, gamma = _fed_params(fed_problem)
    tr = run_deed_fed(fed_problem, beta=beta, gamma=gamma, participation="full",
                      K=None, **FED_ARGS)[0]
    thr = float(tr.fgap[-1] * 2.0)
    t_star = int(np.nonzero(tr.fgap <= thr)[0][0])
    assert tr.bits_to_accuracy(thr) == int(tr.cum_bits[t_star])


def test_fed_records_aggregate_error_on_sync_rows(fed_problem):
    # |v - sum_i c_i w_i| is asserted at every sync and recorded there; with
    # coefficients summing to 1 it sits within the round's budget s*eta_k.
    beta, gamma = _fed_params(fed_problem)
    for participation, K in (("full", None), ("with-replacement", 3)):
        tr = run_deed_fed(fed_problem, beta=beta, gamma=gamma,
                          participation=participation, K=K, **FED_ARGS)[0]
        syncs = np.arange(4, 12 * 4 + 1, 4)
        others = np.setdiff1d(np.arange(12 * 4 + 1), syncs)
        vg = tr.extras["vg_err"]
        assert np.all(vg[syncs] <= tr.budget[syncs]), participation
        assert np.all(np.isnan(vg[others])), participation


@pytest.mark.parametrize(
    "participation, K", [("full", None), ("with-replacement", 3), ("without-replacement", 3)]
)
def test_fed_sync_rows_carry_message_diagnostics(monkeypatch, fed_problem, participation, K):
    # A sync row records the largest |w| / budget and the largest payload
    # over that sync's uplinks and downlink; other rows send nothing.
    from deedsim import engine

    real = engine.quantize
    sent = []  # (spec, |w| / max_error, bits) per message, in send order

    def spy(w, spec, *args):
        point = real(w, spec, *args)
        sent.append((spec, math.sqrt(w.dot(w)) / spec.max_error, _point_bits(spec, point)))
        return point

    monkeypatch.setattr(engine, "quantize", spy)
    beta, gamma = _fed_params(fed_problem)
    args = {**FED_ARGS, "mc_runs": 1}
    (tr,) = run_deed_fed(fed_problem, beta=beta, gamma=gamma,
                         participation=participation, K=K, **args)
    # The messages of one sync share its QuantSpec.
    syncs = []
    for spec, frac, bits in sent:
        if not syncs or syncs[-1][0] is not spec:
            syncs.append((spec, []))
        syncs[-1][1].append((frac, bits))
    T = args["T_rounds"] * args["E"]
    rows = np.arange(args["E"], T + 1, args["E"])
    assert len(syncs) == len(rows)
    fractions, max_bits = tr.extras["fractions"], tr.extras["max_msg_bits"]
    for row, (spec, msgs) in zip(rows, syncs):
        if participation != "with-replacement":
            assert len(msgs) == (K or fed_problem.N) + 1  # uplinks and the broadcast
        assert spec.max_error == tr.budget[row] / 2
        assert fractions[row] == pytest.approx(max(f for f, _ in msgs), rel=1e-12)
        assert max_bits[row] == max(b for _, b in msgs)
    others = np.setdiff1d(np.arange(T + 1), rows)
    assert np.all(np.isnan(fractions[others]))
    assert np.all(max_bits[others] == 0)


def _point_bits(spec, point):
    """The payload bits of one message the engine sent as ``point``,
    counted on their own: its Elias-coded sparse grid, or
    ``DEFAULT_FLOAT_BITS`` per coordinate when lossless."""
    if spec.lossless:
        return DEFAULT_FLOAT_BITS * spec.dim
    return len(encode_sparse(SparseIntVector.from_dense(point.astype(np.int64))))


def _shifted(point):
    """The grid point ``point`` with its first coordinate moved
    ceil(3 sqrt d) grid steps, so its decoded vector lands at least 3
    budgets off target."""
    point[0] += math.ceil(3.0 * math.sqrt(len(point)))
    return point


def _shifted_quantize(monkeypatch):
    # A faulty codec: every decoded message lands 3 budgets off target.
    from deedsim import engine

    real = engine.quantize
    monkeypatch.setattr(engine, "quantize", lambda *args: _shifted(real(*args)))


def test_fed_faulty_codec_breaks_budget_chain(monkeypatch, fed_problem):
    beta, gamma = _fed_params(fed_problem)
    _shifted_quantize(monkeypatch)
    with pytest.raises(BoundViolationError) as err:
        run_deed_fed(fed_problem, beta=beta, gamma=gamma, participation="full",
                     K=None, **FED_ARGS)
    assert err.value.kind == "aggregate error budget"
    assert err.value.t == FED_ARGS["E"]


def test_const_error_faulty_codec_breaks_budget_chain(monkeypatch, small_problem):
    _shifted_quantize(monkeypatch)
    with pytest.raises(BoundViolationError) as err:
        run_const_error_gd(small_problem, None, 20, fixed_eps=0.5, seed=6)
    assert err.value.kind == "aggregate error budget"
    assert err.value.t == 0


def test_fed_w0_dimension_named(fed_problem):
    beta, gamma = _fed_params(fed_problem)
    with pytest.raises(InvalidInputError, match="w0 must have dim 8"):
        run_deed_fed(fed_problem, beta=beta, gamma=gamma, participation="full",
                     K=None, w0=np.ones(3), **FED_ARGS)


# -- the vectorized aggregate and norm against the loops they replaced --

# Lane counts of the lane loop: a single run, two, and sgd-mc's thirty.
LANES = (1, 2, 30)

# Values where a sum's order or starting value shows: signed zeros (-0.0 +
# 0.0 is 0.0, so a sum started at 0.0 loses an all-negative-zero column's
# sign), subnormals and the smallest normal.
_AWKWARD = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308)


def _awkward_floats(rng, shape, scale=1.0):
    """Normal floats over 17 decades, with some entries, and some whole
    columns along the node axis (-2), replaced by ``_AWKWARD`` values."""
    x = scale * rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    spots = rng.random(shape) < 0.2
    x[spots] = rng.choice(_AWKWARD, size=int(spots.sum()))
    columns = rng.random(shape[:-2] + shape[-1:]) < 0.2  # one value down every node
    x.swapaxes(-2, -1)[columns] = rng.choice(_AWKWARD, size=int(columns.sum()))[:, None]
    return x


def _sequential_weighted_sum(arrays, rows, coefs):
    """The aggregate as a loop, adding ``coefs[j] * arrays[rows[j]]`` in row order."""
    out = coefs[0] * arrays[rows[0]]
    for j in range(1, len(rows)):
        out = out + coefs[j] * arrays[rows[j]]
    return out


def _held(S, payloads):
    """The engine's ``(2, N, R, d)`` layout of ``(R, N, d)`` accumulators
    and payloads."""
    return np.ascontiguousarray(np.stack([S, payloads]).swapaxes(1, 2))


def _draw(scheme, K, p, seed, run, k):
    """The participants and coefficients of sync ``k`` of run ``run`` under
    ``seed``: every node at the weights ``p`` under full participation,
    else ``_participants`` from the key of its participation stream."""
    if scheme == "full":
        return range(len(p)), p
    return _participants(scheme, K, p, philox_key(seed, run, k, 0, PARTICIPATION))


def _exchange_keys(seed, runs, k, n):
    """The ``(R, N + 1, 2)`` key rows of an ``_Exchange`` call at round
    ``k``, from ``philox_key``: each run's uplink keys, then its downlink's."""
    return np.array([[philox_key(seed, r, k, i, UPLINK) for i in range(n)]
                     + [philox_key(seed, r, k, 0, DOWNLINK)] for r in runs])


def _member_masks(scheme, K, p, seed, runs):
    """Each run's participants and coefficients of round 1 (every node, at
    the weights ``p``, under full participation) as the member mask and
    coefficients of an ``_Exchange``: ``(N, R)`` each."""
    member, coefs = np.zeros((len(p), len(runs)), dtype=bool), np.zeros((len(p), len(runs)))
    draws = [_draw(scheme, K, p, seed, r, 1) for r in runs]
    for lane, (nodes, c) in enumerate(draws):
        member[nodes, lane], coefs[nodes, lane] = True, c
    return draws, member, coefs


def assert_weighted_sums_match(n, d, scheme, seed, lanes):
    """``_weighted_sums`` of the engine's layout of two ``(lanes, n, d)`` arrays
    equals the sequential loop in both and every lane: every node at shared
    ``(N,)`` coefficients (uniform, full), and each lane's own draw as an
    ``(N, R)`` member mask and coefficients (full too: all True)."""
    rng = np.random.default_rng(seed)
    arrays = [_awkward_floats(rng, (lanes, n, d)) for _ in range(2)]
    p = rng.random(n) + 0.05
    p /= p.sum()
    if scheme in ("full", "uniform"):  # every node, as the frequent engines sum them
        rows, coefs = range(n), np.full(n, 1.0 / n) if scheme == "uniform" else p
        got = _weighted_sums(_held(*arrays), coefs)
        assert got.shape == (2, lanes, d)
        for x, sums in zip(arrays, got):
            for lane, total in zip(x, sums):
                assert total.tobytes() == _sequential_weighted_sum(lane, rows, coefs).tobytes()
        if scheme == "uniform":
            return
    K = int(rng.integers(1, n + 1)) if scheme != "full" else None
    draws, member, C = _member_masks(scheme, K, p, seed, range(lanes))
    assert all(isinstance(rows, range) == (scheme == "full") for rows, _ in draws)
    got = _weighted_sums(_held(*arrays), C, where=member[:, None, :, None])
    assert got.shape == (2, lanes, d)
    for x, sums in zip(arrays, got):
        for lane, (total, (rows, coefs)) in enumerate(zip(sums, draws)):
            want = _sequential_weighted_sum(x[lane], rows, coefs)
            assert total.tobytes() == want.tobytes()


@given(
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=1, max_value=64),
    st.sampled_from(PARTICIPATION_SCHEMES + ("uniform",)),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(LANES),
)
@settings(max_examples=300, deadline=None)
def test_weighted_sum_equals_sequential_loop(n, d, scheme, seed, lanes):
    # n > 8 and d = 1 are where numpy's sum would switch to pairwise order.
    assert_weighted_sums_match(n, d, scheme, seed, lanes)


def assert_norms_match(coords, lanes):
    """``_norm`` of one vector, and of a ``(lanes, 3, d)`` stack of its
    rotations and sign flips, equals ``np.linalg.norm`` of each vector."""
    x = np.array(coords)
    got, want = _norm(x), np.linalg.norm(x)
    assert np.array(got).tobytes() == np.array(want).tobytes()
    stack = np.array([[np.roll(x, lane + j) * (-1.0) ** j for j in range(3)]
                      for lane in range(lanes)])
    norms = _norm(stack)
    assert norms.shape == (lanes, 3)
    for vectors, lane_norms in zip(stack, norms):
        for vector, norm in zip(vectors, lane_norms):
            assert norm.tobytes() == np.array(np.linalg.norm(vector)).tobytes()


@given(
    st.integers(min_value=1, max_value=64).flatmap(
        lambda d: st.lists(st.floats(allow_nan=False, width=64), min_size=d, max_size=d)
    ),
    st.sampled_from(LANES),
)
@settings(max_examples=300, deadline=None)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_norm_equals_numpy_norm(coords, lanes):
    assert_norms_match(coords, lanes)


AWKWARD_VECTOR = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 3.0, -2.5, 1e-160, 7e153]


def test_norm_equals_numpy_norm_on_awkward_values():
    for lanes in LANES:
        assert_norms_match(AWKWARD_VECTOR, lanes)
        assert_norms_match([-0.0] * 5, lanes)


# -- the batched uplinks against the one-message-at-a-time exchange --


def _exchange_per_node(S, v, payloads, participants, coefs, stage, budget, labels):
    """One run's ``_Exchange`` call with its uplinks sent one at a time: each
    participant's difference, message, accumulator update, bits and error
    fraction, on ``(N, d)`` accumulators and a ``(d,)`` broadcast."""
    seed, run_index, round_index = labels
    spec = QuantSpec(max_error=stage, dim=len(v))
    up_bits = max_bits = 0
    max_fraction = 0.0
    for i in participants:
        diff = payloads[i] - S[i]
        msg = quantize(diff, spec, stream(seed, run_index, round_index, i, UPLINK))
        S[i] += msg.decoded
        up_bits += msg.bits
        max_bits = max(max_bits, msg.bits)
        if stage > 0.0:
            max_fraction = max(max_fraction, math.sqrt(diff.dot(diff)) / stage)
    down_diff = _sequential_weighted_sum(S, participants, coefs) - v
    umsg = quantize(down_diff, spec, stream(seed, run_index, round_index, 0, DOWNLINK))
    v += umsg.decoded
    if stage > 0.0:
        max_fraction = max(max_fraction, math.sqrt(down_diff.dot(down_diff)) / stage)
    max_bits = max(max_bits, umsg.bits)
    err = v - _sequential_weighted_sum(payloads, participants, coefs)
    return up_bits, umsg.bits, max_fraction, max_bits, math.sqrt(err.dot(err))


def assert_exchange_matches_per_node(n, d, scheme, stage, seed, lanes=2):
    """One ``_Exchange`` call over ``lanes`` runs leaves the same
    accumulators and broadcasts, and books the same bits, fraction, largest
    message and error in each lane, as the per-node loop run by run.  The
    uniform scheme (the frequent engines) keeps every node a member; the
    others select each lane's own draw into the one exchange first (full
    participation selects every node).  A non-participant's accumulator
    row keeps its exact bytes, signed zeros included."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** int(rng.integers(-5, 6))
    payloads = _awkward_floats(rng, (lanes, n, d), scale)
    S0 = _awkward_floats(rng, (lanes, n, d), scale)
    v0 = _awkward_floats(rng, (lanes, 1, d), scale)[:, 0]
    runs = tuple(int(r) for r in rng.choice(50, size=lanes, replace=False))
    p = rng.random(n) + 0.05
    p /= p.sum()
    stage *= scale * math.sqrt(d)

    SP, v = _held(S0, payloads), v0.copy()
    if scheme == "uniform":  # the frequent engines
        draws = [(range(n), np.full(n, 1.0 / n))] * lanes
        exchange = _Exchange(SP, v, draws[0][1])
    else:
        K = int(rng.integers(1, n + 1)) if scheme != "full" else None
        draws = [_draw(scheme, K, p, seed, r, 1) for r in runs]
        exchange = _Exchange(SP, v, p)
        for lane, (nodes, coefs) in enumerate(draws):
            exchange.select(lane, nodes, coefs)
    result = exchange(stage, [math.inf] * lanes, 3, _exchange_keys(seed, runs, 3, n))
    out = [repr(tuple(np.asarray(x)[lane].item() for x in result)) for lane in range(lanes)]
    assert SP[1].tobytes() == _held(S0, payloads)[1].tobytes()  # payloads untouched
    for lane, (nodes, _) in enumerate(draws):
        for i in sorted(set(range(n)) - set(nodes)):
            assert SP[0, i, lane].tobytes() == S0[lane, i].tobytes()
    got = [(SP[0, :, lane].tobytes(), v[lane].tobytes(), out[lane]) for lane in range(lanes)]
    want = []
    for lane, (nodes, coefs) in enumerate(draws):
        S, w = S0[lane].copy(), v0[lane].copy()
        one = _exchange_per_node(S, w, payloads[lane], nodes, coefs, stage, math.inf,
                                 (seed, runs[lane], 3))
        want.append((S.tobytes(), w.tobytes(), repr(one)))
    assert got == want


@given(
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=1, max_value=100),
    st.sampled_from(PARTICIPATION_SCHEMES + ("uniform",)),
    st.sampled_from([0.0, 0.01, 1.0, 30.0]),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(LANES),
)
@settings(max_examples=150, deadline=None)
def test_exchange_equals_per_node_loop(n, d, scheme, stage, seed, lanes):
    assert_exchange_matches_per_node(n, d, scheme, stage, seed, lanes)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scheme", ["with-replacement", "without-replacement"])
def test_exchange_scales_and_counts_member_rows_only(monkeypatch, scheme):
    # The non-members' rows of the grid points and of the decoded vectors
    # hold the largest float: at a grid step of 10, scaling one overflows,
    # and the warning is an error.  The one count of a call sees exactly
    # the member rows and one downlink per lane.
    n, d, lanes, seed = 7, 4, 5, 9
    rng = np.random.default_rng(seed)
    payloads, S0 = rng.normal(size=(2, lanes, n, d))
    v0 = rng.normal(size=(lanes, d))
    runs = tuple(range(lanes))
    p = np.full(n, 1.0 / n)
    stage = 10.0 * math.sqrt(d)
    assert QuantSpec(stage, d).grid_step == 10.0
    SP, v = _held(S0, payloads), v0.copy()
    exchange = _Exchange(SP, v, p)
    draws = [_draw(scheme, 3, p, seed, r, 1) for r in runs]
    for lane, (nodes, coefs) in enumerate(draws):
        exchange.select(lane, nodes, coefs)
    assert any(len(nodes) < n for nodes, _ in draws)
    huge = np.finfo(np.float64).max
    exchange.points.fill(huge)
    exchange.decoded.fill(huge)
    counted = []
    real = engine.grid_payload_bits
    monkeypatch.setattr(engine, "grid_payload_bits",
                        lambda points: counted.append(points) or real(points))

    result = exchange(stage, [math.inf] * lanes, 3, _exchange_keys(seed, runs, 3, n))
    (rows,) = counted
    assert rows.shape == (sum(len(nodes) for nodes, _ in draws) + lanes, d)
    assert np.isfinite(rows).all()
    # The downlinks have a row of their own; every non-member row is untouched.
    for lane, (nodes, _) in enumerate(draws):
        for i in sorted(set(range(n)) - set(nodes)):
            assert (exchange.points[i, lane] == huge).all()
            assert (exchange.decoded[i, lane] == huge).all()
    for lane, (nodes, coefs) in enumerate(draws):
        S, w = S0[lane].copy(), v0[lane].copy()
        want = _exchange_per_node(S, w, payloads[lane], nodes, coefs, stage, math.inf,
                                  (seed, runs[lane], 3))
        assert tuple(np.asarray(x)[lane].item() for x in result) == want
        assert SP[0, :, lane].tobytes() == S.tobytes() and v[lane].tobytes() == w.tobytes()


@pytest.mark.parametrize("stage", [0.0, 0.05, 3.0])
@pytest.mark.parametrize("scheme", ["uniform", "full", "with-replacement", "without-replacement"])
def test_exchange_bits_equal_its_messages_bits(monkeypatch, scheme, stage):
    # Each lane's uplink sum, downlink and largest message, from the one
    # stacked count, equal the bits of the messages the call sent, each
    # counted on its own.
    n, d, lanes, seed = 6, 5, 4, 21
    rng = np.random.default_rng(seed)
    payloads, S0 = rng.normal(size=(2, lanes, n, d))
    runs = (3, 8, 1, 5)
    p = np.full(n, 1.0 / n)
    exchange = _Exchange(_held(S0, payloads), rng.normal(size=(lanes, d)), p)
    if scheme != "uniform":
        K = None if scheme == "full" else 3
        for lane, r in enumerate(runs):
            exchange.select(lane, *_draw(scheme, K, p, seed, r, 1))
    keys = _exchange_keys(seed, runs, 2, n)
    # Each key row's run and purpose; each stream's key; each message with
    # its stream's run and purpose.
    names = {key.tobytes(): (r, UPLINK if i < n else DOWNLINK)
             for r, run_keys in zip(runs, keys) for i, key in enumerate(run_keys)}
    streamed, sent = [], []
    real_stream, real_quantize = engine.stream, engine.quantize

    def send(w, spec, rng):
        point = real_quantize(w, spec, rng)
        sent.append((names[streamed[-1]], _point_bits(spec, point)))
        return point

    monkeypatch.setattr(engine, "stream",
                        lambda key: streamed.append(key.tobytes()) or real_stream(key))
    monkeypatch.setattr(engine, "quantize", send)

    up, down, _, largest, _ = exchange(stage, [math.inf] * lanes, 2, keys)
    assert len(sent) == int(exchange.member.sum()) + lanes
    for lane, r in enumerate(runs):
        ups = [bits for (run, kind), bits in sent if run == r and kind == UPLINK]
        (downlink,) = [bits for (run, kind), bits in sent if run == r and kind == DOWNLINK]
        assert len(ups) == int(exchange.member[:, lane].sum())
        assert (up[lane], down[lane], largest[lane]) == (sum(ups), downlink, max(ups + [downlink]))
        if stage == 0.0:
            assert downlink == DEFAULT_FLOAT_BITS * d


# -- the Monte Carlo lanes against the run-by-run loops they replaced --


def assert_same_traces(got, want):
    """Equal bit for bit: every trace column, every extra and its type."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.algorithm == b.algorithm
        for col in ("t", "dist", "fgap", "bits_up", "bits_down", "budget"):
            x, y = getattr(a, col), getattr(b, col)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), col
        assert list(a.extras) == list(b.extras)
        for key, x in a.extras.items():
            y = b.extras[key]
            if isinstance(x, np.ndarray):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), key
            else:
                assert type(x) is type(y) and repr(x) == repr(y), key


def _lane_problems():
    interp = make_linreg(seed=11, d=12, N=4, target_kappa=4.0, rows_per_node=12,
                         interpolating=True, w_star_scale=3.0)
    fed = make_linreg(seed=13, d=8, N=6, target_kappa=4.0, rows_per_node=10,
                      interpolating=False, noise_scale=1.0, w_star_scale=3.0)
    return interp, fed


def assert_lanes_match_reference(mc_runs, participation, sgd_T=40, fed_rounds=10):
    """``run_deed_sgd`` and ``run_deed_fed`` against the run-by-run loops
    of ``tests/engine_reference.py``."""
    import engine_reference as ref

    interp, fed = _lane_problems()
    rho = estimate_rho(interp)
    c = 1.0 - interp.mu / (rho * interp.L)
    sgd = dict(c_prime=1 - 0.5 * (1 - c), s=1.0, T=sgd_T, seed=4, mc_runs=mc_runs, rho=rho)
    want = ref.run_deed_sgd(interp, **sgd)
    assert_same_traces(run_deed_sgd(interp, **sgd), want)
    beta, gamma = _fed_params(fed)
    K = None if participation == "full" else 4
    # E = 1 syncs every iteration; its bits still sit on the row after it.
    for E in (4, 1):
        args = (fed, E, beta, gamma, 1.0, fed_rounds, participation, K)
        assert_same_traces(run_deed_fed(*args, seed=2, mc_runs=mc_runs),
                           ref.run_deed_fed(*args, seed=2, mc_runs=mc_runs))


@pytest.mark.parametrize(
    "participation, mc_runs",
    [(scheme, runs) for scheme in PARTICIPATION_SCHEMES for runs in (1, 3)]
    + [("with-replacement", 5)],
)
def test_lanes_equal_run_by_run_reference(participation, mc_runs):
    if mc_runs == 5:
        # The lanes of some sync draw different numbers of distinct
        # participants, and that sync's one _Exchange call masks each
        # lane's own non-participants.
        assert sum(len(c) > 1 for c in _distinct_participant_counts(participation)) >= 5
    assert_lanes_match_reference(mc_runs, participation)


def _distinct_participant_counts(participation, mc_runs=5):
    """At each sync of the lane problem's ``deed-fed`` run (E = 4, 10
    rounds, seed 2, K = 4), the set of its lanes' numbers of distinct
    participants."""
    fed = _lane_problems()[1]
    syncs = range(4, 4 * 10 + 1, 4)
    return [{len(_draw(participation, 4, fed.weights, 2, r, k)[0])
             for r in range(mc_runs)} for k in syncs]


def test_fed_run_makes_one_exchange_and_one_call_per_sync(monkeypatch):
    # Every scheme, five lanes; with replacement the lanes of at least
    # five syncs draw different numbers of distinct participants.
    assert sum(len(c) > 1 for c in _distinct_participant_counts("with-replacement")) >= 5
    made, calls, selects = [], [], []

    class Counted(_Exchange):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

        def select(self, *args):
            selects.append(args)
            return super().select(*args)

        def __call__(self, *args):
            calls.append(args)
            return super().__call__(*args)

    monkeypatch.setattr(engine, "_Exchange", Counted)
    _, fed = _lane_problems()
    beta, gamma = _fed_params(fed)
    for participation in PARTICIPATION_SCHEMES:
        made.clear()
        calls.clear()
        selects.clear()
        K = None if participation == "full" else 4
        run_deed_fed(fed, 4, beta, gamma, 1.0, 10, participation, K, seed=2, mc_runs=5)
        assert (len(made), len(calls)) == (1, 10), participation
        assert [k for _, _, k, _ in calls] == list(range(4, 41, 4))
        # Full participation selects nothing; a partial scheme selects
        # every lane's draw at every sync.
        assert len(selects) == (0 if participation == "full" else 5 * 10), participation


def test_each_key_holder_derives_one_block_at_a_time_for_every_run(monkeypatch):
    # 30 lanes across the edge of key blocks 0 and 1: deed-sgd's rounds 0
    # to 69, and deed-fed's local steps 0 to 79 and syncs 4 to 80 without
    # replacement.  The row samples have one holder, and the messages and
    # participation draws another; each derives each of its blocks once,
    # the first included, for all 30 runs at once.
    from deedsim.seeding import ROW_SAMPLE

    derived = []
    real = engine.block_keys

    def spy(seed, prefixes, block, pairs):
        derived.append((seed, list(prefixes), block, list(pairs)))
        return real(seed, prefixes, block, pairs)

    monkeypatch.setattr(engine, "block_keys", spy)
    interp, fed = _lane_problems()
    rho = estimate_rho(interp)
    c = 1.0 - interp.mu / (rho * interp.L)
    runs = [(r,) for r in range(30)]
    run_deed_sgd(interp, 1 - 0.5 * (1 - c), 1.0, 70, seed=4, mc_runs=30, rho=rho)
    rows = [(i, ROW_SAMPLE) for i in range(interp.N)]
    sync = [(i, UPLINK) for i in range(interp.N)] + [(0, DOWNLINK)]
    assert derived == [(4, runs, block, pairs) for block in (0, 1) for pairs in (rows, sync)]

    derived.clear()
    beta, gamma = _fed_params(fed)
    run_deed_fed(fed, 4, beta, gamma, 1.0, 20, "without-replacement", 4, seed=2, mc_runs=30)
    rows = [(i, ROW_SAMPLE) for i in range(fed.N)]
    sync = [(i, UPLINK) for i in range(fed.N)] + [(0, DOWNLINK), (0, PARTICIPATION)]
    # Sync 64 follows local step 63, so its block comes before step 64's.
    assert derived == [(2, runs, block, pairs) for block, pairs in
                       [(0, rows), (0, sync), (1, sync), (1, rows)]]


def test_lanes_equal_run_by_run_reference_across_record_blocks():
    # 151 and 141 trace rows: records held and written in blocks of 64.
    assert engine._BLOCK == 64
    assert_lanes_match_reference(2, "without-replacement", sgd_T=150, fed_rounds=35)


def _faulty_downlinks(monkeypatch, faults):
    """Shift the broadcast of each (run, round) in ``faults`` by at least
    three stage budgets (``_shifted``), so that run's aggregate-error
    assert trips at that round; every other message is untouched.  A
    downlink is known by its stream's key, under either seed of the lane
    runs (``deed-sgd``'s 4, ``deed-fed``'s 2)."""
    real_stream, real_quantize = engine.stream, engine.quantize
    shifted = {philox_key(seed, run, rnd, 0, DOWNLINK).tobytes()
               for seed in (4, 2) for run, rnd in faults}
    last = []

    def keyed(key):
        last[:] = [key.tobytes()]
        return real_stream(key)

    def faulty(w, spec, *args):
        point = real_quantize(w, spec, *args)
        return _shifted(point) if last[0] in shifted else point

    monkeypatch.setattr(engine, "stream", keyed)
    monkeypatch.setattr(engine, "quantize", faulty)


@pytest.mark.parametrize("participation", PARTICIPATION_SCHEMES)
def test_budget_violation_in_one_lane_names_its_run(monkeypatch, participation):
    interp, fed = _lane_problems()
    rho = estimate_rho(interp)
    c = 1.0 - interp.mu / (rho * interp.L)
    beta, gamma = _fed_params(fed)
    K = None if participation == "full" else 4
    runs = {
        "deed-sgd": lambda: run_deed_sgd(interp, 1 - 0.5 * (1 - c), 1.0, 40, seed=4,
                                         mc_runs=3, rho=rho),
        "deed-fed": lambda: run_deed_fed(fed, 4, beta, gamma, 1.0, 10, participation, K,
                                         seed=2, mc_runs=3),
    }
    clean = {name: run() for name, run in runs.items()}
    with monkeypatch.context() as m:
        _faulty_downlinks(m, {(5, 8)})  # no such run: every output stays the same
        for name, run in runs.items():
            assert_same_traces(run(), clean[name])
    # Run 1 fails at round 12 and run 2 at round 8: the earliest round is
    # reported, though run 1 comes first.
    for name, run in runs.items():
        with monkeypatch.context() as m:
            _faulty_downlinks(m, {(1, 12), (2, 8)})
            with pytest.raises(BoundViolationError) as err:
                run()
        assert err.value.kind == "aggregate error budget"
        assert (err.value.t, err.value.run, err.value.traces) == (8, 2, None)
        assert "violated at t=8 in run 2:" in str(err.value)


@pytest.mark.parametrize("participation", PARTICIPATION_SCHEMES)
def test_fed_downlink_fault_names_its_run_and_sync(monkeypatch, participation):
    # Five lanes; with replacement, sync 4's lanes draw 3, 4, 2, 3 and 2
    # distinct participants and sync 20's 2, 4, 3, 4, 3, so the faults hit
    # lanes with different numbers of participants in one call.
    _, fed = _lane_problems()
    beta, gamma = _fed_params(fed)
    K = None if participation == "full" else 4
    if participation == "with-replacement":
        draws = [len(_draw(participation, K, fed.weights, 2, r, 4)[0])
                 for r in range(5)]
        assert draws == [3, 4, 2, 3, 2]
    for faults, (t, run) in [
        ({(4, 20)}, (20, 4)),  # one lane shifted: that run and that sync
        ({(4, 20), (0, 24)}, (20, 4)),  # the earliest sync
        ({(3, 4), (1, 4)}, (4, 1)),  # two runs at one sync: the lowest run
    ]:
        with monkeypatch.context() as m:
            _faulty_downlinks(m, faults)
            with pytest.raises(BoundViolationError) as err:
                run_deed_fed(fed, 4, beta, gamma, 1.0, 10, participation, K, seed=2, mc_runs=5)
        assert err.value.kind == "aggregate error budget"
        assert (err.value.t, err.value.run) == (t, run)
        assert f"violated at t={t} in run {run}:" in str(err.value)


# -- the single-run engines' outputs at a shape no shipped config runs --


def _second_shape_runs():
    p = make_linreg(seed=5, d=7, N=3, target_kappa=5.0, rows_per_node=9, interpolating=False,
                    noise_scale=1.0, w_star_scale=4.0)
    w0 = np.linspace(-1.0, 1.0, 7)
    return {
        "deed-gd": lambda: run_deed_gd(p, None, 0.8, 2.0, 60, seed=3, w0=w0),
        "a-deed-gd": lambda: run_adeed_gd(p, 0.85, 2.0, 60, seed=3, w0=w0),
        "gd": lambda: run_exact_gd(p, None, 60, seed=3, w0=w0),
        "agd": lambda: run_exact_agd(p, 60, seed=3, w0=w0),
        "const-quant-gd": lambda: run_const_error_gd(p, None, 60, 0.5, seed=3, w0=w0),
    }


# "dtype:sha256" of every trace column and array extra, N = 3, d = 7.
SECOND_SHAPE_GOLDEN = {
    "deed-gd": {
        "t": "<i8:cc789dacd7efe5552adf2e5ce49e4a4efb47a446872f95d20d2aab84ae95dea5",
        "dist": "<f8:eaa5913995897847ca7735a3718adc6a933a37316d79b4f55720a7c1825a28c3",
        "fgap": "<f8:f63a4f0b680cf1190f3c047db5c0360c9632f3bc78ddb1cee3bcf0f967fb61d8",
        "bits_up": "<i8:eb7e5e18f341ac99b09253a5211c6d48589f5dc0284b512e646329602ebb2e05",
        "bits_down": "<i8:532f6e7d7038dfdb60683b40f1f6decaf96a5303d4c8b062bd0e6e409b4e0e27",
        "budget": "<f8:243992115c72b2490cbc42b6f842b86476e5d5b53623a7f2a6b33e229330cde6",
        "fractions": "<f8:3a8f30641a6726e47809bc404a7cd815a8c690c6dce03ffb9b9c29b8d86609d3",
        "max_msg_bits": "<i8:386d3231e0b7497c3111ceee0408a7b3d1c4259f8dcd2b3f883452460f69b5b1",
        "vg_err": "<f8:88744b889d3d05328829d7c6d9f161ced1c5698cd9e2a056ece506dc2c995ff5",
    },
    "a-deed-gd": {
        "t": "<i8:cc789dacd7efe5552adf2e5ce49e4a4efb47a446872f95d20d2aab84ae95dea5",
        "dist": "<f8:a6907701dabc3aa6fcf4fa1e6f1d763c283ecc89934bd8602d6d651553adce10",
        "fgap": "<f8:717c3359350876712e71ee89aa2092aa4f1ece6f4e349dbb9cced78ce9c752c9",
        "bits_up": "<i8:3c44461bab7b17691f2cba0dab7504487abdf3fb1daa1db56c805d86b3faf247",
        "bits_down": "<i8:6dd4a2333fe2d3171bbca0e42d9c2e8f66733108daee46bcdefdc9cf6efcb0ec",
        "budget": "<f8:eb2118ac812820df1e6b37906c3282ca5c5ad5b89b04216bcfa01e3ef51e4407",
        "fractions": "<f8:1d73f7758b85e72d95b308d58b6dbcbede2039a8a13aa924b35ff67658109ffe",
        "max_msg_bits": "<i8:cd84bbe0060bc61020d0b971ed3f29f5778d2a937d14a99007b9118c3d19a4fb",
        "vg_err": "<f8:00cdbf5dd279a4f5b4b53976a1c3ab65413ec5500058b1312d1595288e39c38b",
    },
    "gd": {
        "t": "<i8:cc789dacd7efe5552adf2e5ce49e4a4efb47a446872f95d20d2aab84ae95dea5",
        "dist": "<f8:249a5a27a9e7f235c9a508bd5890b11f0c62f5d52b9e081251973752d12ab7bf",
        "fgap": "<f8:633664d4e05305d6ba9285308b632d3b6e5ca12babb3b3ac80cbb93bb3118c02",
        "bits_up": "<i8:300aa32886aa6b7cf2393f62bcf960e6e2ac0e6041fdcbc001f31385f6065349",
        "bits_down": "<i8:300aa32886aa6b7cf2393f62bcf960e6e2ac0e6041fdcbc001f31385f6065349",
        "budget": "<f8:f8afcaf4ddde4b7d144069a66a2a5f6ee05b9652f6de33095ae49251486216af",
        "fractions": "<f8:2891fe945708863bbdab9249045e1d77c9e892500141dfcff2eacce2478beeca",
        "max_msg_bits": "<i8:4dc10a433c088d81186c0c9875ac38bc7349615d1e4c8f5acd0648383b19d0ae",
        "vg_err": "<f8:80627acb9414aac90257bbea73185dc76cda3ec6e9519d895d7c017536aa46ac",
    },
    "agd": {
        "t": "<i8:cc789dacd7efe5552adf2e5ce49e4a4efb47a446872f95d20d2aab84ae95dea5",
        "dist": "<f8:a028bb48b76475572d7d3c729aa5e02147f4c6ac028d054e22e645b3282037e9",
        "fgap": "<f8:1796ed6eaaf0ab4f0573cd5d7d37eb16b6c316aa8bfde89de38c0ade32ea12f6",
        "bits_up": "<i8:300aa32886aa6b7cf2393f62bcf960e6e2ac0e6041fdcbc001f31385f6065349",
        "bits_down": "<i8:300aa32886aa6b7cf2393f62bcf960e6e2ac0e6041fdcbc001f31385f6065349",
        "budget": "<f8:f8afcaf4ddde4b7d144069a66a2a5f6ee05b9652f6de33095ae49251486216af",
        "fractions": "<f8:2891fe945708863bbdab9249045e1d77c9e892500141dfcff2eacce2478beeca",
        "max_msg_bits": "<i8:4dc10a433c088d81186c0c9875ac38bc7349615d1e4c8f5acd0648383b19d0ae",
        "vg_err": "<f8:717017a88874e1a7dda40c5352d62c92fef5a742709280787b1616aa44514e12",
    },
    "const-quant-gd": {
        "t": "<i8:cc789dacd7efe5552adf2e5ce49e4a4efb47a446872f95d20d2aab84ae95dea5",
        "dist": "<f8:b0d6f7e0539437d0c096634578f66de3165a699da4acd77118489eb023f1ca72",
        "fgap": "<f8:a9d9ef4e42a1c6b28c4fe7bce0511b797187079237a3317f63baf785f5227ab9",
        "bits_up": "<i8:603d4e1daa0436808b7372910605b80aaa29ca48c0ee849aca006f09d5f0ffee",
        "bits_down": "<i8:e86aace0f08521ba318576b3e096f7162b243fc9a58933402ed2726520db9b16",
        "budget": "<f8:ba8d98c75704d14fb226236c103795843d8716bae53444f20ffe7e16ab1aaaee",
        "fractions": "<f8:ac6fda6801e7d1e6f6f4b663dc64876904d1f83d2b50bddc8a2fd7553da82b43",
        "max_msg_bits": "<i8:7435ff0553e02d55bee5444b2e1d4c8e36713bccd085e23ca3100d5b5581380b",
        "vg_err": "<f8:655c916cb8bb3e7b6b976273393384c7bbabdb116d3e87d8e2798864d3a19122",
    },
}


@pytest.mark.parametrize("algorithm", sorted(SECOND_SHAPE_GOLDEN))
def test_single_run_engines_golden_at_second_shape(algorithm):
    trace = _second_shape_runs()[algorithm]()
    cols = {c: getattr(trace, c) for c in ("t", "dist", "fgap", "bits_up", "bits_down", "budget")}
    cols.update({k: x for k, x in trace.extras.items() if isinstance(x, np.ndarray)})
    got = {c: f"{x.dtype.str}:{hashlib.sha256(x.tobytes()).hexdigest()}" for c, x in cols.items()}
    assert got == SECOND_SHAPE_GOLDEN[algorithm]
