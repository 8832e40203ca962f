"""foulim: sampling and Monte Carlo verification for scaling limits of
functionals of the fractional Ornstein-Uhlenbeck process.

Subpackages by responsibility:

- streams: named Philox streams, their keys in one vectorized pass
- fgn: the circulant-embedding engine for stationary Gaussian sequences,
  exact fractional Gaussian noise / fBM on it
- fou: the stationary rescaled fOU, its autocorrelation and scale integrals
- chaos: Hermite expansions, scaling regimes, limit constants
- hermite: Hermite processes (fBM, Rosenblatt, ...) and the Wiener
  kernel of the fOU
- exact: exact finite-eps variances of the time integral of G(y^eps)
  (loaded by ``clt-scan``, not here)
- harness: replica ensembles, variance scans, distributional diagnostics
- solvers: slow/fast systems, Young and Stratonovich limit equations,
  the kinetic (second-order) coupling
- cli: reproducible experiment runner (`foulim ...`)
- acceptance: the release-gating check suite (`foulim verify`)
"""

from . import chaos, fgn, fou, harness, hermite, solvers
from .chaos import ChaosFunction, Regime, ScalingRegime
from .fou import FouConfig
from .hermite import HermiteSpec
from .paths import FoulimError, TimeGrid
from .streams import stream

__version__ = "0.1.0"

__all__ = [
    "ChaosFunction",
    "FouConfig",
    "FoulimError",
    "HermiteSpec",
    "Regime",
    "ScalingRegime",
    "TimeGrid",
    "chaos",
    "fgn",
    "fou",
    "harness",
    "hermite",
    "solvers",
    "stream",
]
