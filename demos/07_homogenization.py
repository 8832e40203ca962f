"""Slow/fast homogenization: the slow variable's effective dynamics.

dx^eps = alpha(eps) f(x^eps) G(y^eps) dt with f = sin + 2 and G = He_2.
As eps -> 0 the endpoint law approaches the limit equation's endpoint:
a Stratonovich SDE driven by c W in the short-range regime, a Young
equation driven by the (non-Gaussian) Rosenblatt process above the
boundary.  For scalar states with no drift (h = g = None) both sides
are the flow of f: the limit's at the driver endpoint, the slow/fast
system's at the trapezoid integral of alpha G(y^eps).  With a drift
h(x) g(y) both sides are solved by one Heun scheme, dx = f(x) dU + h(x) dV.
The fOU is sampled on the coarsest grid whose exact trapezoid bias fits
the run's replica count (``exact.resolve_dt_ratio``): dt = eps/10 here.
"""

import numpy as np
from scipy import stats

from foulim import chaos, solvers
from foulim.chaos import ChaosFunction

H2 = ChaosFunction([0, 0, 1.0])
f = lambda x: np.sin(x) + 2.0
N = 800
eps = 0.02

for H, label in ((0.6, "short range -> Stratonovich/Wiener"),
                 (0.85, "long range -> Young/Rosenblatt")):
    x_eps, x_lim = solvers.homogenize(H2, H, eps, f, None, None, N, 0)
    ks = stats.ks_2samp(x_eps, x_lim)
    print(f"H={H} ({label}):")
    print(f"  c = {chaos.c_constant(H2, H):.4f}, Var(x^eps_1) = {x_eps.var():.3f}, "
          f"Var(limit) = {x_lim.var():.3f}")
    print(f"  two-sample KS p-value at eps={eps}: {ks.pvalue:.3f}")
