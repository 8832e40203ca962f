import numpy as np
import pytest
from scipy import integrate, special

from foulim import chaos, fou
from foulim.chaos import ChaosFunction, Regime

K_07_2 = 0.13604952819057495  # frozen, cross-checked against the Beta closed form


def test_hermite_poly_base_cases():
    x = np.linspace(-3, 3, 7)
    np.testing.assert_array_equal(chaos.hermite_poly(0, x), np.ones_like(x))
    np.testing.assert_array_equal(chaos.hermite_poly(1, x), x)
    assert chaos.hermite_poly(2, 0.0) == -1.0


def test_hermite_poly_matches_numpy_basis():
    rng = np.random.default_rng(0)
    x = rng.normal(size=20)
    for m in range(11):
        coeffs = np.zeros(m + 1)
        coeffs[m] = 1.0
        np.testing.assert_allclose(
            chaos.hermite_poly(m, x),
            np.polynomial.hermite_e.hermeval(x, coeffs),
            rtol=1e-12,
        )


def test_hermite_orthogonality_under_quadrature():
    x, w = np.polynomial.hermite_e.hermegauss(80)
    w = w / np.sqrt(2 * np.pi)
    for j in range(11):
        for k in range(j, 11):
            inner = w @ (chaos.hermite_poly(j, x) * chaos.hermite_poly(k, x))
            target = special.factorial(k) if j == k else 0.0
            assert inner == pytest.approx(target, abs=1e-8 * special.factorial(k) + 1e-10)


def test_chaos_coefficients_cubic():
    c = chaos.chaos_coefficients(lambda x: x**3, K=5)
    np.testing.assert_allclose(c, [0, 3, 0, 1, 0, 0], atol=1e-10)


def test_chaos_coefficients_h2():
    c = chaos.chaos_coefficients(lambda x: x**2 - 1, K=4)
    np.testing.assert_allclose(c, [0, 0, 1, 0, 0], atol=1e-10)


def test_chaos_coefficients_sign_function():
    # c_1 = E|x| = sqrt(2/pi); even coefficients vanish by symmetry
    c = chaos.chaos_coefficients(np.sign, K=8, n_nodes=400)
    assert c[1] == pytest.approx(np.sqrt(2 / np.pi), abs=5e-3)
    np.testing.assert_allclose(c[::2], 0.0, atol=1e-10)


def test_chaos_coefficients_rejects_non_l2():
    with pytest.raises(ValueError, match="square-integrable"):
        chaos.chaos_coefficients(lambda x: np.exp(x**2), K=4)


def test_parseval_for_polynomials():
    G = ChaosFunction.from_coefficients([0.0, 2.0, -1.0, 0.5])
    x, w = np.polynomial.hermite_e.hermegauss(120)
    w = w / np.sqrt(2 * np.pi)
    norm_quad = w @ G(x) ** 2
    assert G.l2_norm_sq() == pytest.approx(norm_quad, rel=1e-10)


def test_coefficient_round_trip():
    rng = np.random.default_rng(3)
    c = np.concatenate([[0.0], rng.normal(size=10) * 0.5])
    G = ChaosFunction.from_coefficients(c)
    back = chaos.chaos_coefficients(G, K=10)
    np.testing.assert_allclose(back, c, atol=1e-10)


def test_hermite_rank_cases():
    assert chaos.hermite_rank([0, 0, 1.0]) == 2
    assert chaos.hermite_rank([0, 3.0, 0, 1.0]) == 1
    with pytest.raises(ValueError, match="not centred"):
        chaos.hermite_rank([0.5, 1.0])
    with pytest.raises(ValueError, match="zero function"):
        chaos.hermite_rank([0.0, 0.0])


def test_h_star_values_and_inverse():
    assert chaos.h_star(1, 0.37) == pytest.approx(0.37)
    assert chaos.h_star(2, 0.75) == pytest.approx(0.5)
    assert chaos.h_star(3, 0.9) == pytest.approx(0.7)
    for m in (1, 2, 5):
        for H in (0.3, 0.6, 0.9):
            assert chaos.h_star(m, chaos.h_star_inverse(m, H)) == pytest.approx(H)


def test_scaling_alpha_three_branches():
    regime, a = chaos.scaling_alpha(0.01, 4, 0.8)  # H*(4) = 0.2
    assert regime.kind is Regime.SHORT_RANGE
    assert a == pytest.approx(10.0)
    regime, a = chaos.scaling_alpha(np.exp(-1.0), 2, 0.75)  # boundary
    assert regime.kind is Regime.BOUNDARY
    assert a == pytest.approx(np.sqrt(np.e))
    regime, a = chaos.scaling_alpha(0.01, 3, 0.9)  # H* = 0.7
    assert regime.kind is Regime.LONG_RANGE
    assert a == pytest.approx(0.01 ** (-0.3), rel=1e-12)


def test_alpha_consistency_identities():
    for eps in (0.3, 0.05, 0.001):
        sr = chaos.classify_regime(2, 0.6)
        assert sr.alpha(eps) * np.sqrt(eps) == pytest.approx(1.0, rel=1e-14)
        lr = chaos.classify_regime(1, 0.8)
        assert lr.alpha(eps) * eps ** (1 - lr.h_star) == pytest.approx(1.0, rel=1e-14)


def test_scaling_alpha_domain():
    # eps lies in (0, 1]; at eps = 1 only the boundary scaling is undefined
    for eps in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError, match="eps must lie in"):
            chaos.classify_regime(2, 0.6).alpha(eps)
    assert chaos.classify_regime(2, 0.6).alpha(1.0) == 1.0
    assert chaos.classify_regime(1, 0.8).alpha(1.0) == 1.0
    with pytest.raises(ValueError, match=r"\|ln eps\| = 0"):
        chaos.classify_regime(2, 0.75).alpha(1.0)


def test_limit_covariance_examples():
    H1 = ChaosFunction.from_coefficients([0, 1.0])
    H2 = ChaosFunction.from_coefficients([0, 0, 1.0])
    H3 = ChaosFunction.from_coefficients([0, 0, 0, 1.0])
    # degenerate Brownian limit at H < 1/2, m = 1
    A, _ = chaos.limit_covariance_A(H1, H1, 0.4)
    assert abs(A) < 0.01
    # disjoint chaos orders: no common term
    A, _ = chaos.limit_covariance_A(H2, H3, 0.6)
    assert A == 0.0
    # pure H2 self-covariance: 2! * int rho^2
    A, _ = chaos.limit_covariance_A(H2, H2, 0.6)
    assert A == pytest.approx(2.0 * fou.rho_power_integral(2, 0.6), rel=1e-10)


def test_limit_covariance_divergent_regime_raises():
    H1 = ChaosFunction.from_coefficients([0, 1.0])
    with pytest.raises(ValueError, match="not a CLT component"):
        chaos.limit_covariance_A(H1, H1, 0.8)


def test_c_constant_long_range_m1_equals_sigma():
    # for G = He_1 the limit is sigma * fBM, so c must equal sigma(H)
    H1 = ChaosFunction.from_coefficients([0, 1.0])
    for H in (0.7, 0.8, 0.9):
        assert chaos.c_constant(H1, H) == pytest.approx(
            fou.stationary_sigma(H), rel=1e-9
        )


def test_c_constant_short_range_and_boundary():
    H2 = ChaosFunction.from_coefficients([0, 0, 1.0])
    c = chaos.c_constant(H2, 0.6)
    assert c**2 == pytest.approx(4.0 * fou.rho_power_integral(2, 0.6), rel=1e-10)
    c = chaos.c_constant(H2, 0.75)
    assert c**2 == pytest.approx(4.0, rel=1e-12)


def test_K_normalizer_m1_against_brute_quadrature():
    for Hz in (0.7, 0.8):
        b = Hz - 1.5

        def F(xi):
            top = (1 - xi) ** (b + 1)
            bot = (-xi) ** (b + 1) if xi < 0 else 0.0
            return ((top - bot) / (b + 1)) ** 2

        v1, _ = integrate.quad(F, 0, 1, limit=200)
        v2, _ = integrate.quad(F, -np.inf, 0, limit=400)
        assert chaos.K_normalizer(Hz, 1) == pytest.approx(
            1.0 / np.sqrt(v1 + v2), rel=1e-8
        )


def test_K_normalizer_closed_form_and_frozen_value():
    def closed(Hz, m):
        Hh = (Hz - 1) / m + 1
        return np.sqrt(special.factorial(m) * Hz * (2 * Hz - 1)) / special.beta(
            Hh - 0.5, 2 - 2 * Hh
        ) ** (m / 2)

    assert chaos.K_normalizer(0.7, 2) == pytest.approx(K_07_2, rel=1e-12)
    for (Hz, m) in ((0.7, 1), (0.7, 2), (0.85, 2), (0.7, 3)):
        assert chaos.K_normalizer(Hz, m) == pytest.approx(closed(Hz, m), rel=1e-9)


def test_K_normalizer_m2_against_grid_quadrature():
    # direct 2-d grid oracle (slowly convergent; generous tolerance)
    Hz = 0.7
    b = (Hz - 1) / 2 - 0.5
    n_s, n_xi, L = 500, 4000, 400.0
    s = (np.arange(n_s) + 0.5) / n_s
    ds = 1.0 / n_s
    edges = np.linspace(-L, 1.0, n_xi + 1)
    dxi = np.diff(edges)[0]
    p = b + 1.0
    A = (
        np.clip(s[:, None] - edges[None, :-1], 0, None) ** p
        - np.clip(s[:, None] - edges[None, 1:], 0, None) ** p
    ) / (p * dxi)
    M = (A.T * ds) @ A
    norm2 = np.sum(M * M) * dxi * dxi
    K_grid = np.sqrt(2.0 / norm2)
    assert chaos.K_normalizer(Hz, 2) == pytest.approx(K_grid, rel=0.15)


def test_K_normalizer_errors():
    with pytest.raises(ValueError, match="order not supported"):
        chaos.K_normalizer(0.7, 4)
    with pytest.raises(ValueError):
        chaos.K_normalizer(0.4, 1)


def test_chaos_function_validation():
    with pytest.raises(ValueError, match="not centred"):
        ChaosFunction.from_coefficients([0.5, 1.0])
    with pytest.raises(ValueError):
        ChaosFunction(np.array([0.0, 0.0, 1.0]), hermite_rank=1)
    G = ChaosFunction.from_coefficients([0, 0, 1.0], lp=4.0)
    assert G.hermite_rank == 2
    assert G.lp_integrability == 4.0
    with pytest.raises(ValueError):
        ChaosFunction.from_coefficients([0, 1.0], lp=2.0)


def test_chaos_function_evaluation_and_tail():
    G = ChaosFunction.from_coefficients([0, 0, 1.0])
    x = np.array([-1.0, 0.0, 2.0])
    np.testing.assert_allclose(G(x), x**2 - 1.0)
    assert G.tail_energy_ratio() == pytest.approx(1.0)  # single term


def test_limit_spec_kinds():
    H1 = ChaosFunction.from_coefficients([0, 1.0])
    H2 = ChaosFunction.from_coefficients([0, 0, 1.0])
    spec = chaos.limit_spec(H2, 0.6)
    assert spec.kind == "wiener"
    assert spec.self_similarity_exponent == 0.5
    spec = chaos.limit_spec(H1, 0.8)
    assert spec.kind == "hermite"
    assert spec.self_similarity_exponent == pytest.approx(0.8)
    assert spec.hermite_order == 1


def test_gaussian_expectation():
    assert chaos.gaussian_expectation(lambda x: x**2) == pytest.approx(1.0, rel=1e-10)
    assert chaos.gaussian_expectation(np.cos) == pytest.approx(
        np.exp(-0.5), rel=1e-10
    )
