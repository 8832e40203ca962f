"""Slow/fast homogenization: the slow variable's effective dynamics.

dx^eps = alpha(eps) f(x^eps) G(y^eps) dt with f = sin + 2 and G = He_2.
As eps -> 0 the endpoint law approaches the limit equation's endpoint:
a Stratonovich SDE driven by c W in the short-range regime, a Young
equation driven by the (non-Gaussian) Rosenblatt process above the
boundary.  For scalar states with no drift the limit endpoint is the
flow of f evaluated at the driver endpoint, which this demo uses on
both sides: h = g = None solves the slow/fast system by the same flow,
at the Simpson integral of alpha G(y^eps).
"""

import numpy as np
from scipy import stats

from foulim import chaos, harness, hermite, solvers
from foulim.chaos import ChaosFunction
from foulim.paths import TimeGrid
from foulim.streams import stream

H2 = ChaosFunction.from_coefficients([0, 0, 1.0])
f = lambda x: np.sin(x) + 2.0
N = 800
eps = 0.02

for H, label in ((0.6, "short range -> Stratonovich/Wiener"),
                 (0.85, "long range -> Young/Rosenblatt")):
    cfg = solvers.MultiscaleConfig(f=f, h=None, G=H2, g=None, H=H, eps=eps,
                                   x0=0.0, grid=TimeGrid.with_step(1.0, eps / 50))
    x_eps = solvers.solve_slow_fast_endpoints(cfg, N, 0)
    c = chaos.c_constant(H2, H)
    regime = chaos.classify_regime(2, H)
    if regime.kind is chaos.Regime.LONG_RANGE:
        engine = hermite.HermiteEngine(TimeGrid(1.0, 200),
                                       hermite.HermiteSpec(regime.h_star, 2))
        u = c * harness.run_replicated(
            N, 1, "demo-h", lambda k: hermite.hermite_ensemble(engine, k)[:, 0])
    else:
        u = c * stream(1, "demo-w").standard_normal(N)
    x_lim = solvers.flow_map_1d(f, 0.0, u)
    ks = stats.ks_2samp(x_eps, x_lim)
    print(f"H={H} ({label}):")
    print(f"  c = {c:.4f}, Var(x^eps_1) = {x_eps.var():.3f}, "
          f"Var(limit) = {x_lim.var():.3f}")
    print(f"  two-sample KS p-value at eps={eps}: {ks.pvalue:.3f}")
