import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from foulim import chaos, exact, fou
from foulim.chaos import ChaosFunction, Regime
from foulim.paths import FoulimError

K_07_2 = 0.13604952819057495  # frozen, cross-checked against the Beta closed form


@pytest.mark.parametrize("degree", range(1, 7))
def test_recurrence_evaluation_matches_hermeval(degree):
    y = np.linspace(-8.0, 8.0, 1601).reshape(1, -1)
    rng = np.random.default_rng(degree)
    for rank in range(1, degree + 1):
        c = np.zeros(degree + 1)
        c[rank:] = rng.standard_normal(degree + 1 - rank)
        for top in (c[degree], 1.0):  # the top term scaled in place, or not at all
            c[degree] = top
            G = ChaosFunction(c)
            ref = np.polynomial.hermite_e.hermeval(y, G.coefficients)
            np.testing.assert_allclose(G(y), ref, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(ref)))
    # a scalar stays a scalar; the input is never written
    G = ChaosFunction([0, 0.5, 1.0, 0, 0.25])
    assert G(1.5) == pytest.approx(np.polynomial.hermite_e.hermeval(1.5, G.coefficients),
                                   rel=1e-14)
    y0 = y.copy()
    G(y)
    np.testing.assert_array_equal(y, y0)


def test_hermite_orthogonality_under_quadrature():
    # <He_j, He_k> = k! delta_jk, the convention Parseval's sum c_k^2 k! relies on
    x, w = np.polynomial.hermite_e.hermegauss(80)
    w = w / np.sqrt(2 * np.pi)
    basis = np.eye(11)
    for j in range(11):
        for k in range(j, 11):
            he_j = np.polynomial.hermite_e.hermeval(x, basis[j])
            he_k = np.polynomial.hermite_e.hermeval(x, basis[k])
            inner = w @ (he_j * he_k)
            target = special.factorial(k) if j == k else 0.0
            assert inner == pytest.approx(target, abs=1e-8 * special.factorial(k) + 1e-10)


def test_parseval_for_polynomials():
    G = ChaosFunction([0.0, 2.0, -1.0, 0.5])
    x, w = np.polynomial.hermite_e.hermegauss(120)
    w = w / np.sqrt(2 * np.pi)
    norm_quad = w @ G(x) ** 2
    parseval = sum(c**2 * special.factorial(k) for k, c in enumerate(G.coefficients))
    assert parseval == pytest.approx(norm_quad, rel=1e-10)


def test_hermite_rank_cases():
    assert ChaosFunction([0, 0, 1.0]).hermite_rank == 2
    assert ChaosFunction([0, 3.0, 0, 1.0]).hermite_rank == 1
    with pytest.raises(ValueError, match="not centred"):
        ChaosFunction([0.5, 1.0])
    with pytest.raises(ValueError, match="zero function"):
        ChaosFunction([0.0, 0.0])
    with pytest.raises(ValueError, match="at least one"):
        ChaosFunction([])
    # a NaN is neither centred nor zero: it must not read as "zero function"
    for coeffs in ([0.0, np.nan], [np.nan, 1.0], [0.0, 1.0, np.inf]):
        with pytest.raises(ValueError, match="must be finite"):
            ChaosFunction(coeffs)


def test_h_star_values_and_inverse():
    assert chaos.h_star(1, 0.37) == pytest.approx(0.37)
    assert chaos.h_star(2, 0.75) == pytest.approx(0.5)
    assert chaos.h_star(3, 0.9) == pytest.approx(0.7)
    # Hhat = (H - 1)/m + 1 is the kernel exponent's Hurst index: H*(m) inverts it
    for m in (1, 2, 5):
        for H in (0.3, 0.6, 0.9):
            assert chaos.h_star(m, (H - 1.0) / m + 1.0) == pytest.approx(H)


def test_scaling_alpha_three_branches():
    regime = chaos.classify_regime(4, 0.8)  # H*(4) = 0.2
    assert regime.kind is Regime.SHORT_RANGE
    assert regime.alpha(0.01) == pytest.approx(10.0)
    regime = chaos.classify_regime(2, 0.75)  # boundary
    assert regime.kind is Regime.BOUNDARY
    assert regime.alpha(np.exp(-1.0)) == pytest.approx(np.sqrt(np.e))
    regime = chaos.classify_regime(3, 0.9)  # H* = 0.7
    assert regime.kind is Regime.LONG_RANGE
    assert regime.alpha(0.01) == pytest.approx(0.01 ** (-0.3), rel=1e-12)


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
    H1 = ChaosFunction([0, 1.0])
    H2 = ChaosFunction([0, 0, 1.0])
    H3 = ChaosFunction([0, 0, 0, 1.0])
    # degenerate Brownian limit at H < 1/2, m = 1: 2A = 2 int rho
    sigma, _ = chaos.limit_covariance(H1, H1, 0.4)
    assert abs(sigma) < 0.02
    # disjoint chaos orders: no common term
    assert chaos.limit_covariance(H2, H3, 0.6) == (0.0, 0.0)
    # pure H2 self-covariance: 2A = 2 * 2! * int rho^2, the tail its one term
    sigma, tail = chaos.limit_covariance(H2, H2, 0.6)
    assert sigma == pytest.approx(4.0 * fou.rho_power_integral([2], 0.6)[0], rel=1e-10)
    assert tail == sigma


def test_limit_covariance_takes_its_series_in_the_short_range_alone(monkeypatch):
    # every order q above a short-range rank m is short range too, H*(q) < H*(m),
    # so the series of int rho^q never meets a divergent order
    for H in np.linspace(0.01, 0.99, 99):
        for m in (1, 2, 3):
            if chaos.classify_regime(m, H).kind is Regime.SHORT_RANGE:
                assert all(chaos.classify_regime(q, H).kind is Regime.SHORT_RANGE
                           for q in range(m, 9))
    # outside the short range (He_1 at H 0.8, He_2 at 0.75) the constant reads D alone
    monkeypatch.setattr(fou, "rho_power_integral", lambda *a: pytest.fail("series taken"))
    D = fou.rho_asymptote_constant
    H1, H2 = ChaosFunction([0, 1.0]), ChaosFunction([0, 0, 1.0])
    assert chaos.limit_covariance(H1, H1, 0.8)[0] == pytest.approx(D(0.8) / (0.8 * 0.6),
                                                                   rel=1e-14)
    assert chaos.limit_covariance(H2, H2, 0.75)[0] == pytest.approx(4.0 * D(0.75) ** 2,
                                                                    rel=1e-14)


def test_every_order_is_short_range_at_half():
    # rho = e^{-s} at H = 1/2 has no power-law tail: H*(1) = 1/2 is not a boundary
    for m in (1, 2, 3):
        assert chaos.classify_regime(m, 0.5).kind is Regime.SHORT_RANGE
    assert chaos.classify_regime(1, 0.5).alpha(0.01) == pytest.approx(10.0)
    G = ChaosFunction([0, 1.0, 0.5])
    # 2A, A = int e^{-s} + 0.5^2 2! int e^{-2s}
    assert chaos.limit_covariance(G, G, 0.5)[0] == 2.5
    assert chaos.c_constant(G, 0.5) == np.sqrt(2.5)


def test_c_constant_long_range_m1_equals_sigma():
    # for G = He_1 the limit is sigma * fBM, so c must equal sigma(H)
    H1 = ChaosFunction([0, 1.0])
    for H in (0.7, 0.8, 0.9):
        assert chaos.c_constant(H1, H) == pytest.approx(
            fou.stationary_sigma(H), rel=1e-9
        )


def test_c_constant_short_range_and_boundary():
    H2 = ChaosFunction([0, 0, 1.0])
    c = chaos.c_constant(H2, 0.6)
    assert c**2 == pytest.approx(4.0 * fou.rho_power_integral([2], 0.6)[0], rel=1e-10)
    # at H*(m) = 1/2, rho^m ~ D^m / s: c^2 = 2 m! c_m^2 D^m, not 2 m! c_m^2
    for H, coeffs, m in ((0.75, [0, 0, 1.0], 2), (5.0 / 6.0, [0, 0, 0, -0.5, 1.0], 3)):
        D = fou.rho_asymptote_constant(H)
        c = chaos.c_constant(ChaosFunction(coeffs), H)
        assert c**2 == pytest.approx(2.0 * math.factorial(m) * coeffs[m] ** 2 * D**m, rel=1e-14)
    assert chaos.c_constant(H2, 0.75) ** 2 == pytest.approx(1.27324, abs=1e-5)


# the (H, m) plane of the three regimes, and its boundary points
PLANE_H = (0.1, 0.3, 0.45, 0.55, 0.6, 0.7, 0.8, 0.9, 0.95)


def test_limit_constants_over_the_h_m_plane():
    # alpha(eps)^2 Var int_0^1 He_m(y^eps) / c^2 -> 1, exactly computed at eps 1e-7; He_1
    # below H = 1/2 has c = 0 (the degenerate CLT) and is left out
    # ranks 4 and 5 at H 0.9 and 0.95 are long range, above the Hermite engine's orders
    for H, m in ([(H, m) for H in PLANE_H for m in (1, 2, 3) if m > 1 or H > 0.5]
                 + [(0.5, 1), (0.9, 4), (0.95, 4), (0.95, 5)]):
        G = ChaosFunction([0.0] * m + [1.0])
        alpha = chaos.classify_regime(m, H).alpha(1e-7)
        ratio = alpha**2 * exact.continuous_variance(G, H, 1.0, 1e-7) / chaos.c_constant(G, H) ** 2
        assert 0.965 <= ratio <= 1.0 + 1e-9, (H, m, ratio)
    # at H*(m) = 1/2 the approach is like 1/|ln eps|: fit a + b/|ln eps| + d/|ln eps|^2
    eps = np.array([1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-10, 1e-12])
    inv_log = 1.0 / np.abs(np.log(eps))
    for H, m in ((0.75, 2), (5.0 / 6.0, 3), (0.9, 5)):
        G = ChaosFunction([0.0] * m + [1.0])
        regime = chaos.classify_regime(m, H)
        assert regime.kind is Regime.BOUNDARY
        v = [regime.alpha(e) ** 2 * exact.continuous_variance(G, H, 1.0, e) for e in eps]
        a = np.linalg.lstsq(np.vander(inv_log, 3, increasing=True), v, rcond=None)[0][0]
        assert a == pytest.approx(chaos.c_constant(G, H) ** 2, rel=1e-3)


def _chaos_sum(ci, cj, sign):
    c = np.zeros(max(len(ci), len(cj)))
    c[: len(ci)] += ci
    c[: len(cj)] += sign * np.asarray(cj)
    return ChaosFunction(c)


@pytest.mark.parametrize("H, ci, cj, rel", [
    (0.6, [0, 0, 1.0], [0, 0, 0.5, 0, 0.3], 1e-6),   # short range: 2 A^{ij}
    (0.85, [0, 0, 1.0], [0, 0, 0.5, 0.3], 1e-4),     # long range, rank 2
    (0.9, [0, 1.0], [0, 0.7, 0.2], 1e-14),           # long range, rank 1
], ids=["short", "long-m2", "long-m1"])
def test_limit_covariance_of_a_cross_pair_by_polarization(H, ci, cj, rel):
    # alpha_i alpha_j Cov(int G_i, int G_j) = alpha_i alpha_j (V(G_i + G_j) - V(G_i - G_j)) / 4
    # at eps 1e-10, with V the exact variance of the integral over [0, 1]
    eps = 1e-10
    Gi, Gj = ChaosFunction(ci), ChaosFunction(cj)
    alphas = [chaos.classify_regime(G.hermite_rank, H).alpha(eps) for G in (Gi, Gj)]
    cov = (exact.continuous_variance(_chaos_sum(ci, cj, 1.0), H, 1.0, eps)
           - exact.continuous_variance(_chaos_sum(ci, cj, -1.0), H, 1.0, eps)) / 4.0
    sigma, _ = chaos.limit_covariance(Gi, Gj, H)
    assert alphas[0] * alphas[1] * cov == pytest.approx(sigma, rel=rel)
    # a pair of different ranks outside the short range has no limit covariance
    assert chaos.limit_covariance(Gi, ChaosFunction([0, 0, 0, 1.0]), 0.9) == (0.0, 0.0)


def test_c_constant_is_zero_for_a_rounding_size_negative_A(monkeypatch):
    # He_1 at H = 0.001: A = int rho = 0 exactly, computed as -4.8e-15; the
    # square root of 2A was NaN with a RuntimeWarning
    H1 = ChaosFunction([0, 1.0])
    assert chaos.limit_covariance(H1, H1, 0.001)[0] < 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert chaos.c_constant(H1, 0.001) == 0.0
    monkeypatch.setattr(fou, "rho_power_integral", lambda orders, H: [-1e-9])
    with pytest.raises(FoulimError, match="negative beyond rounding"):
        chaos.c_constant(H1, 0.3)


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
        ChaosFunction([0.5, 1.0])
    # the rank is read off the coefficients, never declared
    with pytest.raises(TypeError):
        ChaosFunction(np.array([0.0, 0.0, 1.0]), hermite_rank=1)
    # orders below the rank, within RANK_TOL of zero, are set to zero; the input is kept
    c = np.array([1e-14, 1e-14, 1.0])
    G = ChaosFunction(c)
    assert G.hermite_rank == 2
    np.testing.assert_array_equal(G.coefficients, [0.0, 0.0, 1.0])
    np.testing.assert_array_equal(c, [1e-14, 1e-14, 1.0])


def test_chaos_function_evaluation_and_tail():
    G = ChaosFunction([0, 0, 1.0])
    x = np.array([-1.0, 0.0, 2.0])
    np.testing.assert_allclose(G(x), x**2 - 1.0)
    # the tail of the coefficient vector: trailing zeros are kept
    assert G.truncation_order == 2
    assert ChaosFunction([0, 1.0, 0, 0]).truncation_order == 3


def test_gaussian_expectation():
    assert chaos.gaussian_expectation(lambda x: x**2) == pytest.approx(1.0, rel=1e-10)
    assert chaos.gaussian_expectation(np.cos) == pytest.approx(
        np.exp(-0.5), rel=1e-10
    )


def test_gauss_hermite_rule_is_built_once_and_read_only(monkeypatch):
    built, build = [], special.roots_hermitenorm

    def roots(n):
        built.append(n)
        return build(n)

    chaos._gauss_hermite_rule.cache_clear()
    monkeypatch.setattr(special, "roots_hermitenorm", roots)
    first = chaos.gaussian_expectation(np.cos)
    assert chaos.gaussian_expectation(np.cos) == first
    assert built == [chaos.GAUSS_HERMITE_NODES]
    x, w = chaos._gauss_hermite_rule()
    assert not x.flags.writeable and not w.flags.writeable
    chaos._gauss_hermite_rule.cache_clear()


# H over (0.001, 0.999), where the scalar swaps of math for scipy.special are checked
SWAP_H = np.linspace(0.001, 0.999, 999)


def test_factorials_match_scipy_and_overflow_to_inf():
    got, ref = chaos._factorials(200), special.factorial(np.arange(200))
    finite = np.isfinite(ref)
    assert np.array_equal(np.isfinite(got), finite) and finite.sum() == 171
    assert np.max(np.abs(got[finite] / ref[finite] - 1.0)) <= 4e-15
    # order 170 is the last whose k! a float holds; past it the list is refused
    assert ChaosFunction([0.0] * 170 + [1.0]).hermite_rank == 170
    with pytest.raises(ValueError, match="Hermite orders above 170 are refused"):
        ChaosFunction([0.0] * 171 + [1.0])


def _K_by_scipy(H, m):
    b = (H - 1.0) / m - 0.5
    e = m * (2.0 * b + 1.0)
    double_int = 2.0 * (1.0 / (e + 1.0) - 1.0 / (e + 2.0))
    return np.sqrt(special.factorial(m) / (special.beta(b + 1.0, -2.0 * b - 1.0) ** m * double_int))


def test_kernel_pair_integral_and_K_normalizer_match_scipy_beta():
    for m in (1, 2, 3):
        for H in SWAP_H[SWAP_H > 0.5]:
            b = (H - 1.0) / m - 0.5
            J = special.beta(b + 1.0, -2.0 * b - 1.0)
            assert abs(chaos._kernel_pair_integral(b) / J - 1.0) <= 4e-15
            assert abs(chaos.K_normalizer(H, m) / _K_by_scipy(H, m) - 1.0) <= 4e-15


def _c_by_mpmath(H, m):
    """m!/K(H*, m) C(H)^m, the Hermite engine's long-range c, at 40 digits."""
    with mpmath.workdps(40):
        h, half = mpmath.mpf(float(H)), mpmath.mpf(1) / 2
        hs = m * (h - 1) + 1
        sigma = mpmath.sqrt(2 / mpmath.gamma(2 * h + 1))
        c1 = mpmath.gamma(h + half) / mpmath.sqrt(mpmath.gamma(2 * h + 1) * mpmath.sinpi(h))
        J = mpmath.beta(h - half, 2 - 2 * h)  # J(b), b = (H* - 1)/m - 1/2 = H - 3/2
        K = mpmath.sqrt(mpmath.factorial(m) * hs * (2 * hs - 1) / J**m)
        return mpmath.factorial(m) / K * (sigma * (h - half) / c1) ** m


def test_long_range_c_constant_matches_mpmath():
    # the tail form sqrt(m! D^m / (H*(2H* - 1))) against the Beta form; the
    # K C^m product in floats was off by up to 4.1e-14 at H 0.998
    for m in (1, 2, 3, 4, 5):
        G = ChaosFunction([0.0] * m + [1.0])
        for H in SWAP_H[m * (SWAP_H - 1.0) + 1.0 > 0.5 + 1e-9]:
            assert abs(chaos.c_constant(G, H) / _c_by_mpmath(H, m) - 1.0) <= 2e-15, (m, H)
