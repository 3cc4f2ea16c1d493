"""Acceptance checks: every release-gating property as a named, timed check.

Each check re-derives its expectations from first principles (brute
force, closed forms, independent recomputation) and verifies a live run
against them.  ``run_suite`` executes a tagged subset and returns
machine-readable results; the pytest acceptance module asserts the same
checks one by one.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import engine
from .bitstream import decode_sparse, encode_sparse
from .errors import BoundViolationError
from .problems import estimate_rho, make_linreg, from_node_data
from .quantizer import (
    QuantSpec,
    bits_lower_bound,
    bits_upper_bound,
    grid_point,
    quantize,
    scale_stack,
)
from .theory import (
    RecursionSpec,
    accelerated_xi,
    deterministic_bound,
    recursion_bound,
    sgd_squared_bound,
    tightness_construction,
    xi_constant,
    zeta_bits,
    _loglinear_fit,
)

__all__ = [
    "CheckResult",
    "CRITERIA",
    "SUITES",
    "new_cache",
    "run_criterion",
    "run_suite",
]


@dataclass
class CheckResult:
    criterion: int
    name: str
    passed: bool
    detail: str
    seconds: float
    budget_seconds: float | None = None

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
            "seconds": round(self.seconds, 3),
            "budget_seconds": self.budget_seconds,
        }


@dataclass
class _Cache:
    """Shared expensive artifacts (benchmark problem and its runs)."""

    store: dict = field(default_factory=dict)

    def get(self, key, maker):
        if key not in self.store:
            self.store[key] = maker()
        return self.store[key]


def new_cache() -> _Cache:
    """A fresh artifact cache, shareable across checks in one session."""
    return _Cache()


# ---------------------------------------------------------------------------
# Shared fixtures

BENCH_SEED = 20250811


def _benchmark_problem(cache: _Cache):
    """d=100, N=10 least-squares with global Hessian condition 16.

    Node smoothness is spread (max L_i about 3.1x the global curvature)
    so the tracking runs at eta = min_i 1/L_i span the full horizon
    without hitting float-precision floors."""
    return cache.get(
        "bench",
        lambda: make_linreg(
            seed=BENCH_SEED, d=100, N=10, target_kappa=16.0, rows_per_node=100,
            interpolating=False, w_star_scale=300.0, noise_scale=10.0, l_spread=3.125,
        ),
    )


def _scalar_problem(cache: _Cache):
    return cache.get(
        "scalar",
        lambda: from_node_data([(np.array([[1.0]]), np.array([0.0]))]),
    )


def _bench_deed_theory(cache: _Cache):
    prob = _benchmark_problem(cache)
    return cache.get(
        "bench_deed_theory",
        lambda: engine.run_deed_gd(prob, None, 0.97, 50.0, 800, seed=1),
    )


def _bench_adeed_theory(cache: _Cache):
    prob = _benchmark_problem(cache)
    return cache.get(
        "bench_adeed_theory",
        lambda: engine.run_adeed_gd(prob, 0.94, 20.0, 400, seed=1),
    )


def _bench_gd_theory(cache: _Cache):
    prob = _benchmark_problem(cache)
    return cache.get(
        "bench_gd_theory", lambda: engine.run_exact_gd(prob, None, 800, seed=1)
    )


# ---------------------------------------------------------------------------
# Criteria


def _decoded_sum(w, spec, M: int, rng) -> np.ndarray:
    """The sum of the decoded vectors of ``M`` ``grid_point`` calls on
    ``w`` that share the generator ``rng``, added in call order from 0.0,
    as ``acc += grid_point(w, spec, rng) * spec.grid_step`` would: stage
    one on the ``(M, d)`` stack, then every row's draws in row-major order,
    the calls' order; reducing down the rows adds them one after another."""
    stack = np.broadcast_to(w, (M, len(w)))
    lo, frac, short = scale_stack(stack, spec)
    points = grid_point(stack, spec, rng, (lo, frac, short.all()))
    return np.add.reduce(points * spec.grid_step, axis=0, initial=0.0)


def _c1_codec(cache: _Cache) -> tuple[bool, str]:
    rng = np.random.default_rng(101)
    trials = 10_000
    violations = 0
    worst_ratio = 0.0
    for _ in range(trials):
        d = int(np.exp(rng.uniform(0.0, math.log(1000.0))))
        d = max(1, min(1000, d))
        w = rng.standard_normal(d) * 10.0 ** rng.uniform(-2, 2)
        eps = float(np.linalg.norm(w)) * 10.0 ** rng.uniform(-3, 0.5) + 1e-9
        msg = quantize(w, QuantSpec(eps, d), rng)
        err = float(np.linalg.norm(msg.decoded - w))
        worst_ratio = max(worst_ratio, err / eps)
        if err > eps:
            violations += 1
        grid = msg.grid
        if decode_sparse(encode_sparse(grid), d) != grid:
            return False, f"sparse roundtrip mismatch at dim {d}"
    if violations:
        return False, f"{violations} hard-bound violations in {trials} trials"

    # Unbiasedness of the decoded vectors under the dither: per-coordinate Hoeffding band.
    d, M = 10, 100_000
    w = np.random.default_rng(7).standard_normal(d)
    spec = QuantSpec(0.5, d)
    acc = _decoded_sum(w, spec, M, np.random.default_rng(8))
    dev = np.abs(acc / M - w)
    tol = 5.0 * (spec.grid_step / 2.0) / math.sqrt(M)
    if np.any(dev > tol):
        return False, f"unbiasedness deviation {dev.max():.3e} > tol {tol:.3e}"
    return True, (
        f"{trials} trials, zero hard-bound violations (worst err/eps "
        f"{worst_ratio:.4f}); mean dev {dev.max():.2e} <= {tol:.2e}"
    )


def _c2_bit_bounds(cache: _Cache) -> tuple[bool, str]:
    checks = [
        (bits_lower_bound(2, 0.25), 4),
        (bits_upper_bound(2, 0.25), 8),
        (bits_lower_bound(1, 1.0), 0),
        (bits_lower_bound(5, 2.0), 0),
        (bits_upper_bound(1, 1.0), 3),
        (bits_lower_bound(100, 0.5), 100),
    ]
    bad = [(got, want) for got, want in checks if got != want]
    if bad:
        return False, f"worked values mismatch: {bad}"
    rel = np.linspace(0.05, 3.0, 40)
    ub = [bits_upper_bound(32, r) for r in rel]
    if not all(a >= b for a, b in zip(ub, ub[1:])):
        return False, "upper bound not monotone in rel_err"
    return True, "worked values exact; upper bound monotone"


def _c3_tightness(cache: _Cache) -> tuple[bool, str]:
    rng = np.random.default_rng(33)
    worst = 0.0
    for trial in range(100):
        T = int(rng.integers(2, 201))
        spec = RecursionSpec(
            c_seq=rng.uniform(0.05, 0.995, T),
            alpha_seq=rng.uniform(0.0, 1.0, T) * rng.uniform(0.7, 1.0) ** np.arange(T),
            D0=float(rng.uniform(0.1, 5.0)),
        )
        w0 = np.zeros(3)
        w0[0] = spec.D0
        expect = recursion_bound(spec, T).bound[T]
        for seed in (2 * trial, 2 * trial + 1):  # both coin-sign streams
            got = tightness_construction(spec, w0, T, seed=seed).fgap[T]
            worst = max(worst, abs(got - expect) / expect)
    return worst <= 1e-10, f"max relative deviation {worst:.3e} over 100 specs x 2 seeds"


def _c4_gd_envelope(cache: _Cache) -> tuple[bool, str]:
    # Scalar oracle: f(w) = w^2/2, eta = 1 so c = 0.
    prob = _scalar_problem(cache)
    tr = engine.run_deed_gd(
        prob, 1.0, 0.5, 1.0, 60, seed=3, w0=np.array([1.0])
    )
    series = deterministic_bound(0.0, 0.5, 1.0, 1.0, 1.0, 60)
    try:
        engine.check_envelope([tr], series, "scalar envelope", squared=False)
    except BoundViolationError:
        return False, "scalar trace exceeds its envelope"
    msgs = []
    for trace, label in ((tr, "scalar"), (_bench_deed_theory(cache), "d=100")):
        T = len(trace.t) - 1
        budgets = trace.budget[:T]
        vg = trace.extras["vg_err"][:T]
        scale = 1e-12 * (1.0 + trace.dist[0])
        if not np.all(vg <= budgets * (1 + 1e-9) + scale):
            return False, f"{label}: aggregate error exceeded its budget"
        msgs.append(f"{label}: max |v-g|/budget {np.max(vg / budgets):.4f}")
    # d=100 theory-mode envelope, re-checked from the trace.
    big = _bench_deed_theory(cache)
    prob = _benchmark_problem(cache)
    eta = big.extras["eta"]
    c = big.extras["c"]
    D0 = float(np.linalg.norm(prob.w_star))
    series = deterministic_bound(c, 0.97, eta, 50.0, D0, len(big.t) - 1)
    try:
        engine.check_envelope([big], series, "d=100 envelope", squared=False)
    except BoundViolationError:
        return False, "d=100 trace exceeds its envelope"
    return True, "; ".join(msgs)


def _c5_degeneracy(cache: _Cache) -> tuple[bool, str]:
    prob = _benchmark_problem(cache)
    a = engine.run_deed_gd(prob, None, 0.97, 0.0, 200, seed=11)
    b = engine.run_exact_gd(prob, None, 200, seed=11)
    for col in ("dist", "fgap", "bits_up", "bits_down", "budget"):
        if not np.array_equal(getattr(a, col), getattr(b, col)):
            return False, f"gd degeneracy: column {col} differs"
    a = engine.run_adeed_gd(prob, 0.94, 0.0, 200, seed=11)
    b = engine.run_exact_agd(prob, 200, seed=11)
    for col in ("dist", "fgap", "bits_up", "bits_down", "budget"):
        if not np.array_equal(getattr(a, col), getattr(b, col)):
            return False, f"momentum degeneracy: column {col} differs"
    return True, "zero-budget runs coincide with exact baselines bit-for-bit"


def _c6_tracking(cache: _Cache) -> tuple[bool, str]:
    prob = _benchmark_problem(cache)
    eta_exp = float(np.min(1.0 / prob.L_i))
    gd = cache.get("bench_gd_exp", lambda: engine.run_exact_gd(prob, eta_exp, 800, seed=1))
    dg = cache.get(
        "bench_deed_exp",
        lambda: engine.run_deed_gd(prob, eta_exp, 0.95, 0.01, 800, seed=1),
    )
    dev_gd = float(np.max(np.abs(dg.fgap[10:] - gd.fgap[10:]) / gd.fgap[10:]))
    ag = cache.get("bench_agd_exp", lambda: engine.run_exact_agd(prob, 200, seed=1))
    da = cache.get(
        "bench_adeed_exp",
        lambda: engine.run_adeed_gd(prob, 0.82, 0.1, 200, seed=1),
    )
    dev_ag = float(np.max(np.abs(da.fgap[10:] - ag.fgap[10:]) / ag.fgap[10:]))
    ok = dev_gd <= 0.05 and dev_ag <= 0.05
    return ok, (
        f"max relative loss-gap deviation after iteration 10: "
        f"gd {dev_gd:.4f}, momentum {dev_ag:.4f} (limit 0.05)"
    )


def _c7_bits_ordering(cache: _Cache) -> tuple[bool, str]:
    prob = _benchmark_problem(cache)
    dg = _bench_deed_theory(cache)
    da = _bench_adeed_theory(cache)
    gd = _bench_gd_theory(cache)
    thr = 1e-6
    ba, bg, bgd = (t.bits_to_accuracy(thr) for t in (da, dg, gd))
    if None in (ba, bg, bgd):
        return False, f"a run failed to reach {thr:g}: {ba}, {bg}, {bgd}"
    if not ba < bg < bgd:
        return False, f"ordering violated: momentum {ba}, diff-coded {bg}, exact {bgd}"

    ce = cache.get(
        "bench_const",
        lambda: engine.run_const_error_gd(prob, None, 800, fixed_eps=1.0, seed=1),
    )
    if ce.bits_to_accuracy(thr) is not None:
        return False, "constant-budget baseline reached 1e-6 but must plateau"
    eta, c = ce.extras["eta"], ce.extras["c"]
    if not np.all(ce.dist[-100:] >= eta * 1.0 / 4.0):
        return False, "constant-budget plateau fell below eta*eps/4"
    D0 = float(np.linalg.norm(prob.w_star))
    T = len(ce.t) - 1
    env = recursion_bound(
        RecursionSpec(np.full(T, c), np.full(T, eta * 1.0), D0), T
    )
    if not np.all(ce.dist**2 <= env.bound * (1 + 1e-9)):
        return False, "constant-budget run exceeded its fixed-noise envelope"
    return True, (
        f"bits to 1e-6: momentum {ba} < diff-coded {bg} < exact {bgd}; "
        f"constant-budget plateau in [{ce.dist[-100:].min():.3f}, "
        f"{ce.dist[-100:].max():.3f}] above {eta / 4:.3f}, inside envelope"
    )


def _c8_rate_separation(cache: _Cache) -> tuple[bool, str]:
    kappas = (16.0, 64.0, 256.0)
    horizons_gd = {16.0: 500, 64.0: 1400, 256.0: 4500}
    horizons_agd = {16.0: 200, 64.0: 400, 256.0: 800}
    it_gd, it_agd = [], []
    for kap in kappas:
        prob = make_linreg(
            seed=777, d=50, N=4, target_kappa=kap, rows_per_node=50,
            interpolating=False, w_star_scale=10.0, noise_scale=1.0,
        )
        c = 1.0 - engine._default_eta(prob) * prob.mu
        tr = engine.run_deed_gd(prob, None, (1 + c) / 2, 1e-3, horizons_gd[kap], seed=2)
        hit = np.nonzero(tr.fgap <= 1e-8)[0]
        if not len(hit):
            return False, f"diff-coded run did not reach 1e-8 at kappa {kap}"
        it_gd.append(int(hit[0]))
        ca = math.sqrt(1.0 - math.sqrt(prob.mu / prob.L))
        tra = engine.run_adeed_gd(prob, (1 + ca) / 2, 1e-3, horizons_agd[kap], seed=2)
        hit = np.nonzero(tra.fgap <= 1e-8)[0]
        if not len(hit):
            return False, f"momentum run did not reach 1e-8 at kappa {kap}"
        it_agd.append(int(hit[0]))
    lk = np.log(kappas)
    slope_gd = float(np.polyfit(lk, np.log(it_gd), 1)[0])
    slope_agd = float(np.polyfit(lk, np.log(it_agd), 1)[0])
    ok = abs(slope_gd - 1.0) <= 0.2 and abs(slope_agd - 0.5) <= 0.2
    return ok, (
        f"iterations to 1e-8 {it_gd} / {it_agd}; fitted slopes "
        f"{slope_gd:.3f} (want 1.0+-0.2) and {slope_agd:.3f} (want 0.5+-0.2)"
    )


def _sgd_problem(cache: _Cache):
    return cache.get(
        "sgd_prob",
        lambda: make_linreg(
            seed=2024, d=20, N=5, target_kappa=8.0, rows_per_node=20,
            interpolating=True, w_star_scale=5.0,
        ),
    )


def _c9_sgd(cache: _Cache) -> tuple[bool, str]:
    prob = _sgd_problem(cache)
    rho = estimate_rho(prob)
    c = 1.0 - prob.mu / (rho * prob.L)
    c_prime = 1.0 - 0.6 * (1.0 - c)
    s, T, runs = 2.0, 500, 30
    traces = engine.run_deed_sgd(
        prob, c_prime, s, T, seed=5, mc_runs=runs, rho=rho
    )
    eta = 1.0 / (rho * prob.L)
    D0 = float(np.linalg.norm(prob.w_star))
    series = sgd_squared_bound(c, c_prime, eta, s, D0, T)
    try:
        slack = engine.check_envelope(traces, series, "stochastic envelope", squared=True)
    except BoundViolationError as exc:
        return False, f"mean squared distance broke the envelope at t={exc.t}"
    slope, r2 = _loglinear_fit(engine.mean_squared(traces)[0])
    if not (slope <= -1e-3 and r2 >= 0.9):
        return False, f"mean decay not linear: slope {slope:.5f}, R^2 {r2:.4f}"
    return True, (
        f"30-run mean under envelope at all t (min slack "
        f"{slack:.3e}); tail slope {slope:.4f}, R^2 {r2:.4f}"
    )


def _fed_problem(cache: _Cache):
    return cache.get(
        "fed_prob",
        lambda: make_linreg(
            seed=2025, d=10, N=8, target_kappa=4.0, rows_per_node=12,
            interpolating=False, noise_scale=2.0, w_star_scale=5.0,
        ),
    )


def _c10_fed(cache: _Cache) -> tuple[bool, str]:
    prob = _fed_problem(cache)
    beta = 2.0 / prob.mu
    gamma = max(4.0 * prob.L * beta, 8.0)
    common = dict(E=5, beta=beta, gamma=gamma, s=1.0, T_rounds=60, seed=6, mc_runs=30)
    margins = []
    for participation, K in (
        ("full", None),
        ("with-replacement", 4),
        ("without-replacement", 4),
    ):
        traces = engine.run_deed_fed(prob, participation=participation, K=K, **common)
        fed = traces[0].extras["fed_constants"]
        v = traces[0].extras["v"]
        mean, se = engine.mean_squared(traces)
        syncs = np.arange(5, len(mean), 5)
        bound = v / (gamma + syncs)
        gapmin = float(np.min(bound + 3 * se[syncs] - mean[syncs]))
        if gapmin < 0:
            return False, f"{participation}: envelope broken (margin {gapmin:.3e})"
        margins.append(f"{participation}: C={fed.C:.3e}, min margin {gapmin:.3e}")
        if participation == "full":
            if fed.C != 0.0:
                return False, "full participation must have C = 0"
            full = traces

    all_k = engine.run_deed_fed(
        prob, participation="without-replacement", K=prob.N, **common
    )
    fedk = all_k[0].extras["fed_constants"]
    if fedk.C != 0.0:
        return False, f"K=N without replacement must have C = 0, got {fedk.C!r}"
    for a, b in zip(full, all_k):
        for col in ("dist", "fgap", "bits_up", "bits_down"):
            if not np.array_equal(getattr(a, col), getattr(b, col)):
                return False, f"K=N trace differs from full participation in {col}"
    return True, "; ".join(margins) + "; K=N coincides with full participation"


def _c11_bits_bounded(cache: _Cache) -> tuple[bool, str]:
    prob = _benchmark_problem(cache)
    d = prob.d
    details = []
    for trace, xi in (
        (
            _bench_deed_theory(cache),
            xi_constant(
                _bench_deed_theory(cache).extras["c"], 0.97,
                _bench_deed_theory(cache).extras["eta"], 50.0,
                float(np.linalg.norm(prob.w_star)),
            ),
        ),
        (
            _bench_adeed_theory(cache),
            accelerated_xi(_bench_adeed_theory(cache).extras["accel_constants"], prob.mu),
        ),
    ):
        c = trace.extras["c"]
        cp = trace.extras["c_prime"]
        eta = trace.extras["eta"]
        s = trace.extras["s"]
        zeta = zeta_bits(c, cp, eta, s, prob.L, xi)
        T = len(trace.t) - 1
        fr = trace.extras["fractions"][1:T]  # rounds >= 1
        if not np.all(fr <= zeta):
            return False, f"{trace.algorithm}: error fraction exceeded zeta {zeta:.3e}"
        cap = 4 * bits_upper_bound(d, 1.0 / zeta)
        mb = trace.extras["max_msg_bits"][1:T]
        if not np.all(mb <= cap):
            return False, f"{trace.algorithm}: a message used {mb.max()} > {cap} bits"
        details.append(
            f"{trace.algorithm}: max fraction {fr.max():.1f} <= zeta {zeta:.3e}, "
            f"max message {int(mb.max())} <= {cap} bits"
        )
    return True, "; ".join(details)


def _c12_determinism(cache: _Cache) -> tuple[bool, str]:
    prob = _benchmark_problem(cache)
    a = engine.run_deed_gd(prob, None, 0.97, 50.0, 150, seed=1).to_csv_bytes()
    b = engine.run_deed_gd(prob, None, 0.97, 50.0, 150, seed=1).to_csv_bytes()
    if a != b:
        return False, "diff-coded gd rerun differs byte-for-byte"
    sp = _sgd_problem(cache)
    rho = estimate_rho(sp)
    t1 = engine.run_deed_sgd(sp, 0.995, 2.0, 120, seed=5, mc_runs=3, rho=rho)
    t2 = engine.run_deed_sgd(sp, 0.995, 2.0, 120, seed=5, mc_runs=3, rho=rho)
    if any(x.to_csv_bytes() != y.to_csv_bytes() for x, y in zip(t1, t2)):
        return False, "stochastic reruns differ byte-for-byte"
    spec = RecursionSpec(np.full(50, 0.7), 0.8 ** np.arange(50), 1.0)
    w0 = np.array([1.0, 0.0])
    x = tightness_construction(spec, w0, 50, seed=9).to_csv_bytes()
    y = tightness_construction(spec, w0, 50, seed=9).to_csv_bytes()
    if x != y:
        return False, "tightness rerun differs byte-for-byte"
    fp = _fed_problem(cache)
    beta = 2.0 / fp.mu
    gamma = max(4.0 * fp.L * beta, 8.0)
    f1 = engine.run_deed_fed(fp, 5, beta, gamma, 1.0, 10, "with-replacement", 4, seed=6)
    f2 = engine.run_deed_fed(fp, 5, beta, gamma, 1.0, 10, "with-replacement", 4, seed=6)
    if f1[0].to_csv_bytes() != f2[0].to_csv_bytes():
        return False, "federated rerun differs byte-for-byte"
    return True, "reruns of gd/sgd/fed/tightness traces are byte-identical"


CRITERIA = {
    1: ("codec contract", _c1_codec, 60.0),
    2: ("bit-bound calculators", _c2_bit_bounds, None),
    3: ("recursion tightness", _c3_tightness, 10.0),
    4: ("gd envelope and budget chain", _c4_gd_envelope, 30.0),
    5: ("zero-budget degeneracy", _c5_degeneracy, None),
    6: ("baseline tracking", _c6_tracking, 120.0),
    7: ("bits-to-accuracy ordering", _c7_bits_ordering, None),
    8: ("rate separation in kappa", _c8_rate_separation, 300.0),
    9: ("stochastic envelope", _c9_sgd, 120.0),
    10: ("federated envelope", _c10_fed, 180.0),
    11: ("bounded bits per round", _c11_bits_bounded, None),
    12: ("byte determinism", _c12_determinism, None),
}

SUITES = {
    "codec": (1, 2),
    "bounds": (2, 4, 11),
    "tightness": (3,),
    "gd": (4, 5, 6, 7, 8),
    "sgd": (9,),
    "fed": (10,),
    "accel": (5, 6, 8, 11),
    "all": tuple(range(1, 13)),
}


def run_criterion(number: int, cache: _Cache | None = None) -> CheckResult:
    if cache is None:
        cache = _Cache()
    name, fn, budget = CRITERIA[number]
    start = time.perf_counter()
    try:
        passed, detail = fn(cache)
        passed = bool(passed)
    except Exception as exc:  # a crash is a failure, not an error
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if passed and budget is not None and elapsed > budget:
        passed = False
        detail += f"; runtime {elapsed:.1f}s exceeded budget {budget:.0f}s"
    return CheckResult(
        criterion=number,
        name=name,
        passed=passed,
        detail=detail,
        seconds=elapsed,
        budget_seconds=budget,
    )


def run_suite(tag: str, cache: _Cache | None = None) -> list[CheckResult]:
    if tag not in SUITES:
        raise KeyError(f"unknown suite {tag!r}; choose from {', '.join(SUITES)}")
    if cache is None:
        cache = _Cache()
    return [run_criterion(n, cache) for n in SUITES[tag]]
