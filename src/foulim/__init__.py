"""foulim: sampling and Monte Carlo verification for scaling limits of
functionals of the fractional Ornstein-Uhlenbeck process.

Subpackages by responsibility:

- streams: named Philox streams, their keys in one vectorized pass, and
  one stream per key array, read a run of normals per row
- fgn: the circulant-embedding engine for stationary Gaussian sequences,
  exact fractional Gaussian noise / fBM on it
- fou: the stationary rescaled fOU, its autocorrelation and scale integrals
- chaos: Hermite expansions, scaling regimes, limit constants
- hermite: Hermite processes (fBM, Rosenblatt, ...) and the Wiener
  kernel of the fOU
- exact: the exact finite-eps variance and law of the time integral of
  G(y^eps), and the one grid rule of its samplers (loaded by ``harness``)
- harness: replica ensembles, one stream per chunk of CHUNK_SIZE replicas,
  the only caller of ``streams.keys``; scans, slopes, diagnostics
- solvers: one Heun solver for the slow/fast system and its limit equation,
  the kinetic (second-order) coupling
- cli: reproducible experiment runner (`foulim ...`)
- acceptance: the release-gating check suite (`foulim verify`)
"""

from . import chaos, fgn, fou, harness, hermite, solvers
from .chaos import ChaosFunction, Regime, ScalingRegime
from .paths import FoulimError, TimeGrid

__version__ = "0.1.0"

__all__ = [
    "ChaosFunction",
    "FoulimError",
    "Regime",
    "ScalingRegime",
    "TimeGrid",
    "chaos",
    "fgn",
    "fou",
    "harness",
    "hermite",
    "solvers",
]
