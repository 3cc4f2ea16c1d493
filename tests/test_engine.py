import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deedsim import engine
from deedsim.engine import (
    PARTICIPATION_SCHEMES,
    _exchange,
    _norm,
    _participants,
    _weighted_sum,
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
from deedsim.quantizer import QuantSpec, quantize
from deedsim.seeding import DOWNLINK, UPLINK, stream
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
    series = engine.contraction_envelope("deed-gd", small_problem, 0.9, 0.1, 20, eta=eta)
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
    series = engine.contraction_envelope("deed-gd", small_problem, 0.9, 0.1, 20, eta=eta)
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
    # Three lanes of runs 5, 6 and 7; only the lane under test is off zero.
    gbar = np.zeros((3, 3))
    budget = 0.75
    allowed = _allowed(budget)
    labels = (0, range(5, 8), 4)
    for lane in range(3):
        at = np.zeros((3, 3))
        at[lane, 0] = allowed
        assert engine._assert_budget(at, gbar, budget, labels)[lane] == allowed
        with pytest.raises(BoundViolationError) as err:
            engine._assert_budget(at * (1.0 + 1e-6), gbar, budget, labels)
        assert err.value.t == 4 and err.value.allowed == allowed
        assert err.value.run == 5 + lane and f"at t=4 in run {5 + lane}:" in str(err.value)


def test_trace_csv_roundtrip(small_problem):
    from deedsim.trace import RunTrace
    import io

    tr = run_deed_gd(small_problem, None, 0.95, 0.5, 20, seed=5)
    buf = io.StringIO(tr.to_csv_bytes().decode())
    back = RunTrace.from_csv(buf, algorithm=tr.algorithm)
    assert np.array_equal(back.dist, tr.dist)
    assert np.array_equal(back.bits_up, tr.bits_up)
    assert np.array_equal(back.budget, tr.budget)


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
        msg = real(w, spec, *args)
        sent.append((spec, math.sqrt(w.dot(w)) / spec.max_error, msg.bits))
        return msg

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


def _shifted_quantize(monkeypatch):
    # A faulty codec: every decoded message lands 3 budgets off target.
    from deedsim import engine

    real = engine.quantize

    def shifted(w, spec, *args):
        msg = real(w, spec, *args)
        decoded = msg.decoded.copy()
        decoded[0] += 3.0 * spec.max_error
        return dataclasses.replace(msg, decoded=decoded)

    monkeypatch.setattr(engine, "quantize", shifted)


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


def _sequential_weighted_sum(arrays, rows, coefs):
    """The aggregate as a loop, adding ``coefs[j] * arrays[rows[j]]`` in row order."""
    out = coefs[0] * arrays[rows[0]]
    for j in range(1, len(rows)):
        out = out + coefs[j] * arrays[rows[j]]
    return out


@given(
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=1, max_value=64),
    st.sampled_from(PARTICIPATION_SCHEMES + ("uniform",)),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_weighted_sum_equals_sequential_loop(n, d, scheme, seed):
    # n > 8 and d = 1 are where numpy's sum would switch to pairwise order.
    rng = np.random.default_rng(seed)
    arrays = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-8, 9, size=(n, d))
    p = rng.random(n) + 0.05
    p /= p.sum()
    if scheme == "uniform":  # the frequent engines' coefficients
        rows, coefs = range(n), np.full(n, 1.0 / n)
    else:
        K = int(rng.integers(1, n + 1)) if scheme != "full" else None
        rows, coefs = _participants(scheme, K, p, (seed, 0, 1))
    assert isinstance(rows, range) == (scheme in ("full", "uniform"))
    got = _weighted_sum(arrays, rows, coefs)
    want = _sequential_weighted_sum(arrays, rows, coefs)
    assert got.shape == (d,) and got.tobytes() == want.tobytes()


@given(
    st.integers(min_value=1, max_value=64).flatmap(
        lambda d: st.lists(st.floats(allow_nan=False, width=64), min_size=d, max_size=d)
    )
)
@settings(max_examples=300, deadline=None)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_norm_equals_numpy_norm(coords):
    x = np.array(coords)
    got, want = _norm(x), np.linalg.norm(x)
    assert np.array(got).tobytes() == np.array(want).tobytes()


# -- the batched uplinks against the one-message-at-a-time exchange --


def _exchange_per_node(S, v, payloads, participants, coefs, stage, budget, labels, float_bits):
    """One run's ``_exchange`` with its uplinks sent one at a time: each
    participant's difference, message, accumulator update, bits and error
    fraction, on ``(N, d)`` accumulators and a ``(d,)`` broadcast."""
    seed, run_index, round_index = labels
    spec = QuantSpec(max_error=stage, dim=len(v))
    up_bits = max_bits = 0
    max_fraction = 0.0
    for i in participants:
        diff = payloads[i] - S[i]
        msg = quantize(diff, spec, stream(seed, run_index, round_index, i, UPLINK), float_bits)
        S[i] += msg.decoded
        up_bits += msg.bits
        max_bits = max(max_bits, msg.bits)
        if stage > 0.0:
            max_fraction = max(max_fraction, math.sqrt(diff.dot(diff)) / stage)
    down_diff = _sequential_weighted_sum(S, participants, coefs) - v
    umsg = quantize(down_diff, spec, stream(seed, run_index, round_index, 0, DOWNLINK), float_bits)
    v += umsg.decoded
    if stage > 0.0:
        max_fraction = max(max_fraction, math.sqrt(down_diff.dot(down_diff)) / stage)
    max_bits = max(max_bits, umsg.bits)
    err = v - _sequential_weighted_sum(payloads, participants, coefs)
    return up_bits, umsg.bits, max_fraction, max_bits, math.sqrt(err.dot(err))


def assert_exchange_matches_per_node(n, d, scheme, stage, seed, lanes=2):
    """One ``_exchange`` over ``lanes`` runs leaves the same accumulators
    and broadcasts, and books the same bits, fraction, largest message and
    error in each lane, as the per-node loop run by run, for ``range``
    (uniform, full) and list participants."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** int(rng.integers(-5, 6))
    payloads = scale * rng.standard_normal((lanes, n, d))
    S0 = payloads + scale * rng.standard_normal((lanes, n, d))
    v0 = scale * rng.standard_normal((lanes, d))
    runs = tuple(int(r) for r in rng.choice(50, size=lanes, replace=False))
    p = rng.random(n) + 0.05
    p /= p.sum()
    if scheme == "uniform":  # the frequent engines
        participants, coefs = range(n), np.full(n, 1.0 / n)
    else:
        K = int(rng.integers(1, n + 1)) if scheme != "full" else None
        participants, coefs = _participants(scheme, K, p, (seed, 0, 1))
    assert isinstance(participants, range) == (scheme in ("full", "uniform"))
    stage *= scale * math.sqrt(d)

    S, v = S0.copy(), v0.copy()
    out = _exchange(S, v, payloads, participants, coefs, stage, math.inf, (seed, runs, 3), 32)
    got = [(S[lane].tobytes(), v[lane].tobytes(), repr(tuple(np.asarray(x)[lane].item() for x in out)))
           for lane in range(lanes)]
    want = []
    for lane, run in enumerate(runs):
        S, v = S0[lane].copy(), v0[lane].copy()
        one = _exchange_per_node(S, v, payloads[lane], participants, coefs, stage, math.inf,
                                 (seed, run, 3), 32)
        want.append((S.tobytes(), v.tobytes(), repr(one)))
    assert got == want


@given(
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=1, max_value=100),
    st.sampled_from(PARTICIPATION_SCHEMES + ("uniform",)),
    st.sampled_from([0.0, 0.01, 1.0, 30.0]),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=150, deadline=None)
def test_exchange_equals_per_node_loop(n, d, scheme, stage, seed, lanes):
    assert_exchange_matches_per_node(n, d, scheme, stage, seed, lanes)


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


def assert_lanes_match_reference(mc_runs, participation):
    """``run_deed_sgd`` and ``run_deed_fed`` against the run-by-run loops
    of ``tests/engine_reference.py``."""
    import engine_reference as ref

    interp, fed = _lane_problems()
    rho = estimate_rho(interp)
    c = 1.0 - interp.mu / (rho * interp.L)
    sgd = dict(c_prime=1 - 0.5 * (1 - c), s=1.0, T=40, seed=4, mc_runs=mc_runs, rho=rho)
    assert_same_traces(run_deed_sgd(interp, **sgd), ref.run_deed_sgd(interp, **sgd))
    beta, gamma = _fed_params(fed)
    K = None if participation == "full" else 4
    args = (fed, 4, beta, gamma, 1.0, 10, participation, K)
    assert_same_traces(run_deed_fed(*args, seed=2, mc_runs=mc_runs),
                       ref.run_deed_fed(*args, seed=2, mc_runs=mc_runs))


@pytest.mark.parametrize("mc_runs", [1, 3])
@pytest.mark.parametrize("participation", PARTICIPATION_SCHEMES)
def test_lanes_equal_run_by_run_reference(participation, mc_runs):
    assert_lanes_match_reference(mc_runs, participation)


def _faulty_downlinks(monkeypatch, faults):
    """Shift the broadcast of each (run, round) in ``faults`` by three
    stage budgets, so that run's aggregate-error assert trips at that
    round; every other message is untouched."""
    real_stream, real_quantize = engine.stream, engine.quantize
    last = []

    def labelled(seed, *labels):
        last[:] = labels
        return real_stream(seed, *labels)

    def faulty(w, spec, *args):
        msg = real_quantize(w, spec, *args)
        run, rnd, _, purpose = last
        if (run, rnd) in faults and purpose == DOWNLINK:
            decoded = msg.decoded.copy()
            decoded[0] += 3.0 * spec.max_error
            msg = dataclasses.replace(msg, decoded=decoded)
        return msg

    monkeypatch.setattr(engine, "stream", labelled)
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
