"""Hermite chaos expansions, scaling regimes and limit constants.

Conventions: probabilists' Hermite polynomials throughout (leading
coefficient 1, He_0 = 1, He_1 = x, ||He_m||^2_{L2(mu)} = m!), with mu the
standard Gaussian measure.  A centred G in L2(mu) expands as
G = sum_k c_k He_k with c_k = <G, He_k>/k!; the smallest k >= 1 with
c_k != 0 is its Hermite rank m.

The exponent H*(m) = m(H-1) + 1 against 1/2 decides whether the scaled
time integral of G along the fast fOU has a Wiener or a Hermite-process
limit, and with which normalization alpha(eps).  It is the exponent of
rho^m's tail, rho^m(s) ~ D^m s^{2H*(m)-2} with D = ``fou.rho_asymptote_constant``;
at H = 1/2, where rho = e^{-s} and D = 0, every order is short range.

Every limit covariance (``limit_covariance``) reads the fOU only through
int rho^q in the short range and D elsewhere (Taqqu, Z. Wahrsch. verw.
Geb. 50 (1979) 53-83); ``K_normalizer`` serves the Hermite engine alone.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import fou
from .paths import FoulimError, as_eps, as_hurst

__all__ = [
    "Regime",
    "ScalingRegime",
    "ChaosFunction",
    "h_star",
    "classify_regime",
    "limit_covariance",
    "c_constant",
    "K_normalizer",
    "gaussian_expectation",
]

BOUNDARY_TIE_TOL = 1e-12
# coefficient energies |c_k| sqrt(k!) at or below this count as zero
RANK_TOL = 1e-12
GAUSS_HERMITE_NODES = 200


@functools.cache
def _gauss_hermite_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and Gaussian-normalized weights of the rule, built once and read-only."""
    from scipy import special  # 0.3 s to import: only once an expectation is taken
    x, w = special.roots_hermitenorm(GAUSS_HERMITE_NODES)
    w = w / np.sqrt(2.0 * np.pi)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _factorials(n: int) -> np.ndarray:
    """0!, 1!, ..., (n-1)! in floats, inf from 171! on rather than an OverflowError."""
    with np.errstate(over="ignore"):
        return np.cumprod(np.maximum(np.arange(n), 1.0))


def gaussian_expectation(G) -> float:
    """E[G(X)] for X ~ N(0,1) by scipy's probabilists' Gauss-Hermite rule, stable at many nodes."""
    x, w = _gauss_hermite_rule()
    return float(w @ np.asarray(G(x), dtype=float))


def h_star(m: int, H) -> float:
    """H*(m) = m(H - 1) + 1."""
    if m < 1:
        raise ValueError("Hermite rank m must be >= 1")
    return m * (as_hurst(H) - 1.0) + 1.0


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
    """The regime of order m at H: by H*(m) against 1/2, all short range at H = 1/2."""
    hs = h_star(m, H)
    if as_hurst(H) == 0.5:  # rho = e^{-s} has no power-law tail
        kind = Regime.SHORT_RANGE
    elif abs(hs - 0.5) <= BOUNDARY_TIE_TOL:
        kind = Regime.BOUNDARY
    elif hs < 0.5:
        kind = Regime.SHORT_RANGE
    else:
        kind = Regime.LONG_RANGE
    return ScalingRegime(kind, hs)


@dataclass(frozen=True)
class ChaosFunction:
    """A centred L2(mu) function given by its Hermite coefficients.

    coefficients[k] is c_k in G = sum c_k He_k.  They must be finite and
    non-empty, with c_0 within RANK_TOL of zero (centred function) and no
    order above 170, whose weight k! overflows a float.  The Hermite rank
    is the smallest k >= 1 with |c_k| sqrt(k!) above RANK_TOL, and the
    orders below it are set to zero.
    """

    coefficients: np.ndarray
    hermite_rank: int = field(init=False)

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coefficients, dtype=float)).copy()
        if c.size == 0:
            raise ValueError("need at least one Hermite coefficient")
        if not np.all(np.isfinite(c)):
            raise ValueError(f"Hermite coefficients must be finite, got {c.tolist()}")
        if c.size > 171:  # 171! overflows a float
            raise ValueError(f"Hermite orders above 170 are refused, got order {c.size - 1}")
        if abs(c[0]) > RANK_TOL:
            raise ValueError(f"not centred: c_0 = {c[0]:.3g} exceeds tol {RANK_TOL:.3g}")
        energy = np.abs(c) * np.sqrt(_factorials(len(c)))
        nz = np.nonzero(energy[1:] > RANK_TOL)[0]
        if len(nz) == 0:
            raise ValueError("zero function: all Hermite coefficients below tol")
        rank = int(nz[0] + 1)
        c[:rank] = 0.0
        object.__setattr__(self, "coefficients", c)
        object.__setattr__(self, "hermite_rank", rank)

    def __call__(self, x):
        """G(x) by the recurrence He_1 = x, He_{k+1} = x He_k - k He_{k-1}.

        c_0 = 0 adds nothing and orders below the rank are skipped in the
        sum; the top order is scaled in its own buffer, so G = He_2 costs
        two passes over x.
        """
        y = np.asarray(x, dtype=float)
        c = self.coefficients
        top = len(c) - 1
        prev, cur = None, y  # He_{k-1} and He_k; He_0 = 1 stays implicit
        out = None
        for k in range(1, top + 1):
            if k > 1:
                nxt = y * cur
                nxt -= (k - 1) * prev if k > 2 else 1.0
                prev, cur = cur, nxt
            if c[k] == 0.0:
                continue
            if out is not None:
                out += c[k] * cur
            elif k == top and cur is not y:
                out = cur
                if c[k] != 1.0:
                    out *= c[k]
            else:
                out = c[k] * cur
        return out

    @property
    def truncation_order(self) -> int:
        return len(self.coefficients) - 1

def limit_covariance(Gi: ChaosFunction, Gj: ChaosFunction, H) -> tuple[float, float]:
    """Sigma^{ij} = lim alpha_i alpha_j Cov(int_0^1 G_i(y^eps), int_0^1 G_j(y^eps)) as eps -> 0.

    With m the lower rank and D = ``fou.rho_asymptote_constant(H)``, so that
    rho^m(s) ~ D^m s^{2H*(m)-2}:

    short range:  2 A^{ij}, A^{ij} = int_0^inf E(G_i(y_s) G_j(y_0)) ds
                  = sum_q c_{i,q} c_{j,q} q! int_0^inf rho(r)^q dr over the
                  orders q >= both ranks up to the lower truncation order,
                  every integral in one ``fou.rho_power_integral`` pass;
                  each such q > m is short range too, as H*(q) < H*(m)
    boundary:     2 m! c_{i,m} c_{j,m} D^m, the coefficient of eps |ln eps|
                  that rho^m ~ D^m / s gives the variance
    long range:   m! c_{i,m} c_{j,m} D^m / (H*(2H* - 1)), as
                  2 int_0^1 (1-u) u^{2H*-2} du = 1/(H*(2H* - 1))

    and 0 for a pair of different ranks outside the short range.  Returns
    (Sigma^{ij}, twice the short-range series' last term, a crude bound on
    its truncation tail reported not asserted, 0 elsewhere).  A self pair
    (Gi is Gj) is a variance, and one negative beyond rounding raises.
    """
    h = as_hurst(H)
    m = min(Gi.hermite_rank, Gj.hermite_rank)
    regime = classify_regime(m, h)
    if regime.kind is Regime.SHORT_RANGE:
        K = min(Gi.truncation_order, Gj.truncation_order)
        ci, cj = Gi.coefficients, Gj.coefficients
        orders = [q for q in range(max(Gi.hermite_rank, Gj.hermite_rank), K + 1)
                  if ci[q] != 0.0 and cj[q] != 0.0]
        fact = _factorials(K + 1)
        integrals = fou.rho_power_integral(orders, h) if orders else []  # disjoint: no pass
        A = last_term = 0.0
        for q, integral in zip(orders, integrals):
            term = ci[q] * cj[q] * fact[q] * integral
            A += term
            last_term = abs(term)
        if Gi is Gj and A < -1e-12:  # A = 0 exactly for He_1 at H < 1/2 can round below 0
            raise FoulimError(f"limit covariance A = {A:g} is negative beyond rounding at H={h}")
        return 2.0 * float(A), 2.0 * float(last_term)
    if Gi.hermite_rank != Gj.hermite_rank:
        return 0.0, 0.0
    sigma = float(_factorials(m + 1)[m] * Gi.coefficients[m] * Gj.coefficients[m]
                  * fou.rho_asymptote_constant(h) ** m)
    if regime.kind is Regime.BOUNDARY:
        return 2.0 * sigma, 0.0
    hs = regime.h_star
    return sigma / (hs * (2.0 * hs - 1.0)), 0.0


MAX_HERMITE_ORDER = 3


def _check_hermite_target(H: float, m: int) -> None:
    """Raise unless Z^{H,m} is supported: H in (1/2, 1) and 1 <= m <= MAX_HERMITE_ORDER."""
    if not 0.5 < H < 1.0:
        raise ValueError("Hermite process exponent H must lie in (1/2, 1)")
    if m < 1:
        raise ValueError("order m must be >= 1")
    if m > MAX_HERMITE_ORDER:
        raise ValueError(f"order not supported: m={m} exceeds cap {MAX_HERMITE_ORDER}")


def _kernel_pair_integral(b: float) -> float:
    """J(b) = int_0^inf u^b (1+u)^b du = Beta(b+1, -2b-1), for -1 < b < -1/2."""
    return math.gamma(b + 1.0) * math.gamma(-2.0 * b - 1.0) / math.gamma(-b)


def K_normalizer(H_target: float, m: int) -> float:
    """Normalizer K(H, m) making Var(Z^{H,m}_1) = 1.

    Var(Z_1) = (K/m!)^2 m! ||F||^2 with F(xi) = int_0^1 prod (s-xi_j)_+^b ds,
    b = (H-1)/m - 1/2, and
    ||F||^2 = J(b)^m * 2 int_0^1 (1-tau) tau^{m(2b+1)} dtau
    after integrating out the xi variables, J(b) the Beta integral of
    _kernel_pair_integral.  Supports m <= 3.
    """
    h = float(H_target)
    _check_hermite_target(h, m)
    b = (h - 1.0) / m - 0.5
    J = _kernel_pair_integral(b)
    e = m * (2.0 * b + 1.0)  # = 2H - 2 > -1
    double_int = 2.0 * (1.0 / (e + 1.0) - 1.0 / (e + 2.0))
    norm_sq = J**m * double_int
    return float(np.sqrt(math.factorial(m) / norm_sq))


def c_constant(G: ChaosFunction, H) -> float:
    """Homogenization constant c = sqrt(Sigma^{GG}) >= 0 of the limit equation.

    Sigma^{GG} is ``limit_covariance(G, G, H)``: alpha(eps)^2 Var int_0^1 G(y^eps)
    in the limit, and in the long range the squared coefficient of the
    unit-variance Hermite process.  A rounding-size negative Sigma gives 0.
    """
    return float(np.sqrt(max(limit_covariance(G, G, H)[0], 0.0)))
