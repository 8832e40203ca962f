"""Hermite processes: fBM (m=1), Rosenblatt (m=2) and beyond.

All share the fBM covariance 0.5*(t^2H + s^2H - |t-s|^2H) and
self-similarity, but only m = 1 is Gaussian: the Rosenblatt marginal
carries heavy positive excess kurtosis.
"""

import numpy as np

from foulim import fgn, harness, hermite
from foulim.hermite import HermiteEngine
from foulim.paths import TimeGrid

grid = TimeGrid(1.0, 200)
idx = np.array([50, 100, 200])
tt = grid.times()[idx]
thr = fgn.fbm_covariance(tt[:, None], tt[None, :], 0.7)

# the same noise cells for every order (they are fixed by the grid), and
# the sampler's exact covariance shows its own correlation-shape error
for m in (1, 2, 3):
    engine = HermiteEngine(grid, 0.7, m)
    Z = harness.run_replicated(4000, 0, f"demo-z{m}",
                               lambda k: hermite.hermite_ensemble(engine, k, idx))
    x = Z[:, -1]
    z = (x - x.mean()) / x.std()
    emp = Z.T @ Z / len(Z)
    exact = hermite.exact_covariance(engine, tt)
    print(f"m={m}: Var(Z_1)={x.var():.4f}, excess kurtosis {np.mean(z**4) - 3:+.3f}, "
          f"max cov rel err {np.max(np.abs(emp / thr - 1)):.3f} "
          f"(exact {np.max(np.abs(exact / thr - 1)):.4f})")

# self-similarity: lambda^H Z_{t/lambda} has the law of Z_t
engine = HermiteEngine(grid, 0.7, 2)
Z = harness.run_replicated(4000, 1, "demo-ss",
                           lambda k: hermite.hermite_ensemble(engine, k, idx))
print(f"\nself-similarity (m=2): Var(2^H Z_1/2)={4**0.7 * Z[:, 1].var():.4f} "
      f"vs Var(Z_1)={Z[:, -1].var():.4f}")
