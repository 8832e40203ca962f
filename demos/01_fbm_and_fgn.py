"""Exact fractional Brownian motion sampling and its covariance law.

Samples fBM paths by circulant embedding for three memory regimes and
checks the empirical covariance against 0.5*(t^2H + s^2H - |t-s|^2H).
"""

import numpy as np

from foulim import fgn
from foulim.paths import TimeGrid
from foulim.streams import stream

grid = TimeGrid(horizon=1.0, n_steps=256)

for H in (0.3, 0.5, 0.7):
    rngs = [stream(0, f"demo-fbm-{H}", i) for i in range(4000)]
    paths = np.cumsum(fgn.sample_fgn_batch(grid.n_steps, grid.dt, H, rngs), axis=1)
    t = grid.times()[1:]
    emp = paths.T @ paths / len(paths)
    theory = fgn.fbm_covariance(t[:, None], t[None, :], H)
    worst = np.max(np.abs(emp - theory))
    print(f"H={H}: Var(B_1)={paths[:, -1].var():.4f} (target 1), "
          f"max covariance gap {worst:.4f}")

# increments: positively correlated for H > 1/2, negatively below
for H, label in ((0.75, "long memory"), (0.25, "anti-persistent")):
    x = fgn.sample_fgn_batch(100_000, 1.0, H, [stream(0, "demo-fgn")])[0]
    r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
    expect = 0.5 * (2 ** (2 * H) - 2)
    print(f"H={H} ({label}): lag-1 autocorrelation {r1:+.4f} "
          f"(theory {expect:+.4f})")
