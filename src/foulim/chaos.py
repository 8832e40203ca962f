"""Hermite chaos expansions, scaling regimes and limit constants.

Conventions: probabilists' Hermite polynomials throughout (leading
coefficient 1, He_0 = 1, He_1 = x, ||He_m||^2_{L2(mu)} = m!), with mu the
standard Gaussian measure.  A centred G in L2(mu) expands as
G = sum_k c_k He_k with c_k = <G, He_k>/k!; the smallest k >= 1 with
c_k != 0 is its Hermite rank m.

The exponent H*(m) = m(H-1) + 1 against 1/2 decides whether the scaled
time integral of G along the fast fOU has a Wiener or a Hermite-process
limit, and with which normalization alpha(eps).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import fou
from .paths import as_eps, as_hurst

__all__ = [
    "Regime",
    "ScalingRegime",
    "ChaosFunction",
    "LimitSpec",
    "hermite_poly",
    "chaos_coefficients",
    "hermite_rank",
    "h_star",
    "h_star_inverse",
    "scaling_alpha",
    "classify_regime",
    "limit_covariance_A",
    "c_constant",
    "K_normalizer",
    "limit_spec",
    "gaussian_expectation",
]

BOUNDARY_TIE_TOL = 1e-12
DEFAULT_TRUNCATION = 30
COEFF_SNAP_REL = 1e-12


def hermite_poly(m: int, x):
    """He_m(x) by the three-term recurrence He_{m+1} = x He_m - m He_{m-1}."""
    if m < 0:
        raise ValueError("Hermite order must be non-negative")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if m == 0:
        return float(prev) if prev.ndim == 0 else prev
    cur = x.copy()
    for k in range(1, m):
        prev, cur = cur, x * cur - k * prev
    return float(cur) if cur.ndim == 0 else cur


def _quad_nodes(n_nodes: int):
    # probabilists' Gauss-Hermite rule normalized to the Gaussian measure
    # (scipy's implementation stays stable at large node counts)
    x, w = special.roots_hermitenorm(n_nodes)
    return x, w / np.sqrt(2.0 * np.pi)


def gaussian_expectation(G, n_nodes: int = 200) -> float:
    """E[G(X)] for X ~ N(0,1) by Gauss-Hermite quadrature."""
    x, w = _quad_nodes(n_nodes)
    return float(w @ np.asarray(G(x), dtype=float))


def chaos_coefficients(G, K: int, n_nodes: int | None = None) -> np.ndarray:
    """Hermite coefficients c_0..c_K of an evaluable map G.

    c_k = <G, He_k>_{L2(mu)} / k!, by Gauss-Hermite quadrature with at
    least 2K + 32 nodes.  Coefficients below 1e-12 * ||G|| are snapped
    to zero.
    """
    if K < 0:
        raise ValueError("truncation order K must be non-negative")
    if n_nodes is None:
        n_nodes = 2 * K + 32
    n_nodes = max(n_nodes, 2 * K + 32)
    x, w = _quad_nodes(n_nodes)
    gx = np.asarray(G(x), dtype=float)
    if not np.all(np.isfinite(gx)):
        raise ValueError("not square-integrable: G is not finite on the quadrature nodes")
    norm_sq = float(w @ gx**2)
    # divergence probe: for G in L2(mu) the quadrature norm has converged at
    # this resolution; a growing norm means the tails are not integrable
    x2, w2 = _quad_nodes(n_nodes + 32)
    norm_sq_fine = float(w2 @ np.asarray(G(x2), dtype=float) ** 2)
    if not np.isfinite(norm_sq) or not np.isfinite(norm_sq_fine) \
            or norm_sq_fine > 2.0 * norm_sq + 1e-300:
        raise ValueError("not square-integrable: quadrature norm diverged")
    coeffs = np.empty(K + 1)
    he_prev = np.ones_like(x)
    he_cur = x.copy()
    for k in range(K + 1):
        if k == 0:
            he = he_prev
        elif k == 1:
            he = he_cur
        else:
            he_prev, he_cur = he_cur, x * he_cur - (k - 1) * he_prev
            he = he_cur
        coeffs[k] = (w @ (gx * he)) / special.factorial(k)
    snap = COEFF_SNAP_REL * np.sqrt(norm_sq)
    coeffs[np.abs(coeffs) < snap] = 0.0
    return coeffs


def hermite_rank(coeffs, tol: float = 1e-12) -> int:
    """Smallest k >= 1 with |c_k| sqrt(k!) above tol.

    Requires c_0 within tol of zero (centred function).
    """
    c = np.asarray(coeffs, dtype=float)
    if abs(c[0]) > tol:
        raise ValueError(f"not centred: c_0 = {c[0]:.3g} exceeds tol {tol:.3g}")
    k = np.arange(len(c))
    energy = np.abs(c) * np.sqrt(special.factorial(k))
    nz = np.nonzero(energy[1:] > tol)[0]
    if len(nz) == 0:
        raise ValueError("zero function: all Hermite coefficients below tol")
    return int(nz[0] + 1)


def h_star(m: int, H) -> float:
    """H*(m) = m(H - 1) + 1."""
    if m < 1:
        raise ValueError("Hermite rank m must be >= 1")
    return m * (as_hurst(H) - 1.0) + 1.0


def h_star_inverse(m: int, H) -> float:
    """Inverse map Hhat(m) = (H - 1)/m + 1, so h_star(m, Hhat(m)) = H."""
    if m < 1:
        raise ValueError("Hermite rank m must be >= 1")
    return (as_hurst(H) - 1.0) / m + 1.0


class Regime(enum.Enum):
    SHORT_RANGE = "short_range"
    BOUNDARY = "boundary"
    LONG_RANGE = "long_range"


@dataclass(frozen=True)
class ScalingRegime:
    """Classification of H*(m) against 1/2 with the matching scaling alpha."""

    kind: Regime
    h_star: float

    def alpha(self, eps: float) -> float:
        eps = as_eps(eps)
        if self.kind is Regime.SHORT_RANGE:
            return 1.0 / np.sqrt(eps)
        if self.kind is Regime.BOUNDARY:
            if eps == 1.0:
                raise ValueError(
                    "boundary scaling 1/sqrt(eps |ln eps|) is undefined at eps = 1, "
                    "where |ln eps| = 0"
                )
            return 1.0 / np.sqrt(eps * abs(np.log(eps)))
        return eps ** (self.h_star - 1.0)


def classify_regime(m: int, H) -> ScalingRegime:
    hs = h_star(m, H)
    if abs(hs - 0.5) <= BOUNDARY_TIE_TOL:
        kind = Regime.BOUNDARY
    elif hs < 0.5:
        kind = Regime.SHORT_RANGE
    else:
        kind = Regime.LONG_RANGE
    return ScalingRegime(kind, hs)


def scaling_alpha(eps: float, m: int, H) -> tuple[ScalingRegime, float]:
    """Regime of (m, H) and the scaling constant alpha(eps) for it."""
    regime = classify_regime(m, H)
    return regime, regime.alpha(eps)


@dataclass(frozen=True)
class ChaosFunction:
    """A centred L2(mu) function given by its Hermite coefficients.

    coefficients[k] is c_k in G = sum c_k He_k; c_0 must vanish.
    lp_integrability is the user-declared p > 2 for moment-bound checks.
    """

    coefficients: np.ndarray
    hermite_rank: int
    lp_integrability: float | None = None

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coefficients, dtype=float))
        object.__setattr__(self, "coefficients", c)
        m = self.hermite_rank
        if not 1 <= m <= len(c) - 1:
            raise ValueError("Hermite rank out of range of the coefficients")
        if c[0] != 0.0:
            raise ValueError("not centred: c_0 must be 0")
        if c[m] == 0.0 or np.any(c[1:m] != 0.0):
            raise ValueError("declared Hermite rank does not match coefficients")
        if self.lp_integrability is not None and self.lp_integrability <= 2:
            raise ValueError("lp_integrability must exceed 2")

    @classmethod
    def from_coefficients(cls, coeffs, lp: float | None = None, tol: float = 1e-12):
        c = np.atleast_1d(np.asarray(coeffs, dtype=float)).copy()
        rank = hermite_rank(c, tol)  # raises on non-centred / zero input
        c[:rank] = 0.0
        return cls(c, rank, lp)

    @classmethod
    def from_function(cls, G, K: int = DEFAULT_TRUNCATION, lp: float | None = None,
                      n_nodes: int | None = None):
        return cls.from_coefficients(chaos_coefficients(G, K, n_nodes), lp)

    def __call__(self, x):
        return np.polynomial.hermite_e.hermeval(x, self.coefficients)

    @property
    def truncation_order(self) -> int:
        return len(self.coefficients) - 1

    def l2_norm_sq(self) -> float:
        """||G||^2_{L2(mu)} = sum c_k^2 k! (Parseval)."""
        k = np.arange(len(self.coefficients))
        return float(np.sum(self.coefficients**2 * special.factorial(k)))

    def tail_energy_ratio(self) -> float:
        """Share of the last retained coefficient in the chaos energy."""
        K = self.truncation_order
        total = self.l2_norm_sq()
        if total == 0.0:
            return 0.0
        return float(self.coefficients[K] ** 2 * special.factorial(K) / total)


def limit_covariance_A(Gi: ChaosFunction, Gj: ChaosFunction, H, K: int | None = None,
                       s_max: float = 1000.0) -> tuple[float, float]:
    """Limit covariance constant A^{ij} of the Wiener components.

    A^{ij} = int_0^inf E(G_i(y_s) G_j(y_0)) ds
           = sum_q c_{i,q} c_{j,q} q! int_0^inf rho(r)^q dr,
    summed over q >= max(rank_i, rank_j) up to the truncation order.
    Returns (value, truncation_tail_bound).  Every contributing order
    must lie in the short-range regime; otherwise this is not a CLT
    component and the call raises.
    """
    h = as_hurst(H)
    q0 = max(Gi.hermite_rank, Gj.hermite_rank)
    if K is None:
        K = min(Gi.truncation_order, Gj.truncation_order)
    ci = Gi.coefficients
    cj = Gj.coefficients
    total = 0.0
    last_term = 0.0
    for q in range(q0, K + 1):
        a = ci[q] if q < len(ci) else 0.0
        b = cj[q] if q < len(cj) else 0.0
        if a == 0.0 or b == 0.0:
            continue
        if h_star(q, h) >= 0.5 - BOUNDARY_TIE_TOL:
            raise ValueError(
                f"not a CLT component: chaos order q={q} has H*(q) >= 1/2 at H={h}"
            )
        term = a * b * special.factorial(q) * fou.rho_power_integral(q, h, s_max)
        total += term
        last_term = abs(term)
    # crude geometric bound on the dropped orders, reported not asserted
    tail_bound = last_term
    return float(total), float(tail_bound)


MAX_HERMITE_ORDER = 3


def _kernel_pair_integral(b: float) -> float:
    """J(b) = int_0^inf u^b (1+u)^b du = Beta(b+1, -2b-1), for -1 < b < -1/2."""
    return float(special.beta(b + 1.0, -2.0 * b - 1.0))


def K_normalizer(H_target: float, m: int) -> float:
    """Normalizer K(H, m) making Var(Z^{H,m}_1) = 1.

    Var(Z_1) = (K/m!)^2 m! ||F||^2 with F(xi) = int_0^1 prod (s-xi_j)_+^b ds,
    b = (H-1)/m - 1/2, and
    ||F||^2 = J(b)^m * 2 int_0^1 (1-tau) tau^{m(2b+1)} dtau
    after integrating out the xi variables, J(b) the Beta integral of
    _kernel_pair_integral.  Supports m <= 3.
    """
    h = float(H_target)
    if not 0.5 < h < 1.0:
        raise ValueError("Hermite process exponent must lie in (1/2, 1)")
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > MAX_HERMITE_ORDER:
        raise ValueError(f"order not supported: m={m} exceeds cap {MAX_HERMITE_ORDER}")
    b = (h - 1.0) / m - 0.5
    J = _kernel_pair_integral(b)
    e = m * (2.0 * b + 1.0)  # = 2H - 2 > -1
    double_int = 2.0 * (1.0 / (e + 1.0) - 1.0 / (e + 2.0))
    norm_sq = J**m * double_int
    return float(np.sqrt(special.factorial(m) / norm_sq))


def c_constant(G: ChaosFunction, H) -> float:
    """Homogenization constant c >= 0 for the limit equation.

    short range:  c^2 = 2 sum_k c_k^2 k! int_0^inf rho^k
    boundary:     c^2 = 2 m! c_m^2
    long range:   c = |c_m| (m!/K(H*(m), m)) C(H)^m, the coefficient of
                  the unit-variance Hermite process in the limit.
    """
    h = as_hurst(H)
    m = G.hermite_rank
    regime = classify_regime(m, h)
    cm = G.coefficients[m]
    if regime.kind is Regime.LONG_RANGE:
        K = K_normalizer(regime.h_star, m)
        return float(
            abs(cm) * special.factorial(m) / K * fou.kernel_amplitude(h) ** m
        )
    if regime.kind is Regime.BOUNDARY:
        return float(np.sqrt(2.0 * special.factorial(m) * cm**2))
    A, _ = limit_covariance_A(G, G, h)
    return float(np.sqrt(2.0 * A))


@dataclass(frozen=True)
class LimitSpec:
    """What the scaled integral converges to: a Wiener or Hermite process."""

    kind: str  # "wiener" | "hermite"
    variance_constant: float
    self_similarity_exponent: float
    hermite_order: int | None = None


def limit_spec(G: ChaosFunction, H) -> LimitSpec:
    h = as_hurst(H)
    regime = classify_regime(G.hermite_rank, h)
    c = c_constant(G, h)
    if regime.kind is Regime.LONG_RANGE:
        return LimitSpec("hermite", c**2, regime.h_star, G.hermite_rank)
    return LimitSpec("wiener", c**2, 0.5, None)
