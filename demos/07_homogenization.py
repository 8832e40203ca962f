"""Slow/fast homogenization: the slow variable's effective dynamics.

dx^eps = alpha(eps) f(x^eps) G(y^eps) dt with f = sin + 2 and G = He_2.
As eps -> 0 the endpoint law approaches the limit equation's endpoint:
a Stratonovich SDE driven by c W in the short-range regime, a Young
equation driven by the (non-Gaussian) Rosenblatt process above the
boundary.  For scalar states with no drift (h = g = None) both sides
are the closed-form flow of f (``solvers.FLOWS["sin2"]``): the limit's
at the driver endpoint, the slow/fast system's at the trapezoid integral
of alpha G(y^eps).  With a drift h(x) g(y) both sides of
dx = f(x) dU + h(x) dV are solved by one Heun scheme in f's flow coordinates.
``homogenize`` samples the fOU on the coarsest grid whose exact trapezoid
bias fits the run's replica count (``exact.resolve_dt_ratio``), and returns
that rung beside both sides' endpoints: dt = eps/5 at H 0.6 and eps/2 at
H 0.85 here.  A drift would step Heun on the same grid, and the limit on
100 steps.
"""

from scipy import stats

from foulim import solvers
from foulim.chaos import ChaosFunction

H2 = ChaosFunction([0, 0, 1.0])
f = solvers.FLOWS["sin2"]
N = 800
eps = 0.02

for H, label in ((0.6, "short range -> Stratonovich/Wiener"),
                 (0.85, "long range -> Young/Rosenblatt")):
    run = solvers.homogenize(H2, H, eps, f, None, None, N, 0)
    ks = stats.ks_2samp(run.x_eps, run.x_lim)
    print(f"H={H} ({label}):")
    print(f"  c = {run.c:.4f}, Var(x^eps_1) = {run.x_eps.var():.3f}, "
          f"Var(limit) = {run.x_lim.var():.3f}")
    print(f"  dt = eps/{run.resolution['dt_ratio']:g}, limit steps {run.steps['limit_steps']}; "
          f"two-sample KS p-value at eps={eps}: {ks.pvalue:.3f}")
