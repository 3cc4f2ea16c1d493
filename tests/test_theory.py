import math

import numpy as np
import pytest

from deedsim.errors import InvalidInputError
from deedsim.problems import FedConstants
from deedsim.theory import (
    AcceleratedConstants,
    RecursionSpec,
    accelerated_bound,
    accelerated_xi,
    deterministic_bound,
    fed_bound,
    linear_rate_iff_check,
    recursion_bound,
    sgd_squared_bound,
    tightness_construction,
    xi_constant,
    zeta_bits,
)


def brute_force_bound(spec: RecursionSpec, T: int) -> float:
    """Direct evaluation of the defining product/sum series."""
    D2 = 1.0
    for i in range(T):
        D2 *= spec.c_seq[i] ** 2
    C2 = 0.0
    for i in range(T):
        term = spec.alpha_seq[i] ** 2
        for j in range(i + 1, T):
            term *= spec.c_seq[j] ** 2
        C2 += term
    return D2 * spec.D0**2 + C2


def test_recursion_noiseless_contraction():
    spec = RecursionSpec(np.full(3, 0.5), np.zeros(3), 1.0)
    assert recursion_bound(spec, 3).bound[3] == pytest.approx(0.5**6)


def test_recursion_worked_example():
    spec = RecursionSpec(np.full(3, 0.5), 0.5 ** np.arange(1, 4), 1.0)
    series = recursion_bound(spec, 3)
    assert series.extras["D2"][3] == pytest.approx(0.015625)
    assert series.extras["C2"][3] == pytest.approx(0.046875)
    assert series.bound[3] == pytest.approx(0.0625)


def test_recursion_matches_brute_force():
    rng = np.random.default_rng(12)
    for _ in range(100):
        T = int(rng.integers(1, 201))
        spec = RecursionSpec(
            c_seq=rng.uniform(0.05, 0.99, T),
            alpha_seq=rng.uniform(0.0, 2.0, T),
            D0=float(rng.uniform(0.0, 3.0)),
        )
        series = recursion_bound(spec, T)
        assert series.bound[T] == pytest.approx(brute_force_bound(spec, T), rel=1e-12)


def test_recursion_spec_validation():
    with pytest.raises(InvalidInputError):
        RecursionSpec(np.array([1.0]), np.array([0.0]), 1.0)
    with pytest.raises(InvalidInputError):
        RecursionSpec(np.array([0.5]), np.array([-1.0]), 1.0)
    with pytest.raises(InvalidInputError):
        RecursionSpec(np.array([0.5, 0.5]), np.array([0.0]), 1.0)


def test_recursion_spec_accepts_zero_contraction():
    # c = 0 contracts in one step: the bound is the noise alone from t = 1.
    series = recursion_bound(RecursionSpec(np.zeros(3), np.full(3, 0.25), 2.0), 3)
    assert series.bound.tolist() == [4.0, 0.0625, 0.0625, 0.0625]
    for c in (-1e-300, -0.5):
        with pytest.raises(InvalidInputError, match=r"must lie in \[0, 1\)"):
            RecursionSpec(np.array([0.5, c]), np.zeros(2), 1.0)


def test_deterministic_bound_zero_noise():
    series = deterministic_bound(0.3, 0.5, 1.0, 0.0, 2.0, 10)
    assert series.extras["xi"] == 2.0
    t = np.arange(11)
    assert np.allclose(series.bound, 2.0 * 0.5**t)
    assert np.all(np.diff(series.bound) < 0)


def test_deterministic_bound_worked_example():
    series = deterministic_bound(0.0, 0.5, 1.0, 1.0, 1.0, 3)
    assert series.extras["xi"] == pytest.approx(2.0)
    assert series.bound[3] == pytest.approx(0.25)


def test_deterministic_bound_geometric_ratio():
    series = deterministic_bound(0.7, 0.9, 0.5, 2.0, 0.1, 30)
    # D0 below the drift level: the max term is active (clamped at 0),
    # so the bound is exactly geometric with factor c'.
    assert series.extras["xi"] == pytest.approx(0.9 * 0.5 * 2.0 / 0.2)
    ratios = series.bound[1:] / series.bound[:-1]
    assert np.allclose(ratios, 0.9)


def test_deterministic_bound_rejects_bad_margin():
    with pytest.raises(InvalidInputError):
        deterministic_bound(0.9, 0.9, 1.0, 1.0, 1.0, 5)


def test_sgd_squared_bound_mapping():
    # Same machinery, with eta^2 s noise scale on squared distances.
    a = sgd_squared_bound(0.2, 0.6, 0.5, 3.0, 2.0, 7)
    b = deterministic_bound(0.2, 0.6, 0.25, 3.0, 4.0, 7)
    assert np.array_equal(a.bound, b.bound)


def test_squared_recursion_consistent_with_norm_envelope():
    # With constant contraction and geometric noise, the squared-noise
    # recursion is the Pythagorean refinement of the norm envelope: its
    # bound never exceeds the squared norm bound (checked on the branch
    # where the clamp in the norm envelope is inactive).
    rng = np.random.default_rng(44)
    for _ in range(100):
        c = float(rng.uniform(0.1, 0.9))
        cp = float(rng.uniform(c + 0.01, 0.99))
        eta = float(rng.uniform(0.1, 2.0))
        s = float(rng.uniform(0.01, 1.0))
        drift = eta * s / (cp - c)
        D0 = c * drift * float(rng.uniform(1.0, 5.0))  # clamp inactive
        T = int(rng.integers(1, 80))
        det = deterministic_bound(c, cp, eta, s, D0, T)
        alphas = eta * s * cp ** (np.arange(T) + 1)
        sq = recursion_bound(RecursionSpec(np.full(T, c), alphas, D0), T)
        assert np.all(np.sqrt(sq.bound) <= det.bound * (1 + 1e-12))


def test_zeta_worked_example_and_monotonicity():
    assert zeta_bits(0.0, 0.5, 1.0, 1.0, 1.0, 2.0) == pytest.approx(26.0)
    with pytest.raises(InvalidInputError):
        zeta_bits(0.0, 0.5, 1.0, 0.0, 1.0, 2.0)
    # Strictly decreasing in s at fixed xi-generating configuration.
    prev = None
    for s in (0.1, 0.5, 1.0, 5.0, 25.0):
        xi = xi_constant(0.5, 0.8, 1.0, s, 10.0)
        z = zeta_bits(0.5, 0.8, 1.0, s, 1.0, xi)
        if prev is not None:
            assert z < prev
        prev = z


def test_accelerated_constants_and_bound():
    consts = AcceleratedConstants.from_run_params(
        L=1.0, mu=0.1, c=0.8, c_prime=0.9, s=0.5, Delta=2.0
    )
    gamma = 0.9 / 0.8
    assert consts.gamma == pytest.approx(gamma)
    assert consts.alpha_s == pytest.approx(0.25 / (gamma**2 - 1) + 2.0)
    beta_expect = (3 * math.sqrt(2) + 5 * math.sqrt(20)) / (0.8 * (gamma**2 - 1)) * 0.5 * gamma
    assert consts.beta_s == pytest.approx(beta_expect)
    assert consts.C >= 0.0
    series = accelerated_bound(consts, 0.1, 0.8, 0.9, 50)
    assert np.all(np.diff(series.bound) <= 0)
    assert accelerated_xi(consts, 0.1) == pytest.approx(
        math.sqrt(2 / 0.1 * (consts.Delta + consts.C))
    )


def test_accelerated_noiseless_reduction():
    consts = AcceleratedConstants.from_run_params(
        L=2.0, mu=0.5, c=0.7, c_prime=0.8, s=0.0, Delta=3.0
    )
    assert consts.C == pytest.approx(0.0, abs=1e-12)
    series = accelerated_bound(consts, 0.5, 0.7, 0.8, 10)
    t = np.arange(11)
    assert np.allclose(series.bound, math.sqrt(2 * 3.0 / 0.5) * 0.7**t)


def test_fed_bound_cases():
    zero = FedConstants(sigma_sq=np.zeros(2), G_sq=0.0, Gamma=0.0, B=0.0, C=0.0,
                        E=1, radius=1.0)
    series = fed_bound(zero, beta=3.0, gamma=5.0, mu=1.0, s=0.0, D0=2.0, T=10)
    t = np.arange(11)
    assert np.allclose(series.bound, 5.0 * 4.0 / (5.0 + t))

    one = FedConstants(sigma_sq=np.zeros(2), G_sq=0.0, Gamma=0.0, B=1.0, C=0.0,
                       E=1, radius=1.0)
    series = fed_bound(one, beta=2.0 / 0.25, gamma=3.0, mu=0.25, s=0.0, D0=0.0, T=4)
    # beta = 2/mu with B + C + s^2 = 1: first argument of the max is 4/mu^2.
    assert series.extras["v"] == pytest.approx(4.0 / 0.25**2)

    with pytest.raises(InvalidInputError):
        fed_bound(one, beta=1.0, gamma=3.0, mu=0.5, s=0.0, D0=1.0, T=3)
    with pytest.raises(InvalidInputError):
        fed_bound(one, beta=10.0, gamma=0.5, mu=0.5, s=0.0, D0=1.0, T=3)


def test_tightness_noiseless():
    spec = RecursionSpec(np.full(5, 0.5), np.zeros(5), 1.0)
    w0 = np.array([1.0, 0.0])
    trace = tightness_construction(spec, w0, 5, seed=1)
    assert trace.dist[5] == pytest.approx(0.5**5)


def test_tightness_worked_example():
    spec = RecursionSpec(np.full(3, 0.5), 0.5 ** np.arange(1, 4), 1.0)
    trace = tightness_construction(spec, np.array([1.0, 0.0]), 3, seed=0)
    assert trace.fgap[3] == pytest.approx(0.0625, rel=1e-12)


def test_tightness_achieves_bound_for_random_specs():
    rng = np.random.default_rng(8)
    for trial in range(100):
        T = int(rng.integers(1, 120))
        spec = RecursionSpec(
            c_seq=rng.uniform(0.1, 0.99, T),
            alpha_seq=rng.uniform(0.0, 1.0, T),
            D0=1.0,
        )
        target = recursion_bound(spec, T).bound[T]
        for seed in (0, 1):
            got = tightness_construction(
                spec, np.array([1.0, 0.0, 0.0]), T, seed=seed
            ).fgap[T]
            assert got == pytest.approx(target, rel=1e-10)


def test_tightness_requires_dim_two():
    spec = RecursionSpec(np.array([0.5]), np.array([0.1]), 1.0)
    with pytest.raises(InvalidInputError):
        tightness_construction(spec, np.array([1.0]), 1, seed=0)


def test_linear_rate_classification():
    T = 300
    t = np.arange(T)
    linear = linear_rate_iff_check(RecursionSpec(np.full(T, 0.9), 0.95**t, 1.0))
    assert linear.is_linear and linear.conditions_hold and linear.consistent

    poly_noise = linear_rate_iff_check(
        RecursionSpec(np.full(T, 0.9), 1.0 / (t + 1.0), 1.0)
    )
    assert not poly_noise.is_linear and not poly_noise.noise_linear
    assert poly_noise.consistent

    drifting_c = linear_rate_iff_check(
        RecursionSpec(1.0 - 1.0 / (t + 2.0), np.zeros(T), 1.0)
    )
    assert not drifting_c.is_linear and not drifting_c.contraction_bounded
    assert drifting_c.consistent


def test_linear_rate_warns_on_decreasing_contractions():
    c = np.array([0.9, 0.8, 0.7, 0.9, 0.9, 0.9, 0.9, 0.9])
    verdict = linear_rate_iff_check(RecursionSpec(c, np.zeros(8), 1.0))
    assert verdict.hypothesis_warning


def test_bound_series_csv():
    import io

    series = deterministic_bound(0.0, 0.5, 1.0, 1.0, 1.0, 2)
    buf = io.StringIO()
    series.to_csv(buf)
    assert buf.getvalue().splitlines()[0] == "t,bound"
    assert len(buf.getvalue().splitlines()) == 4
