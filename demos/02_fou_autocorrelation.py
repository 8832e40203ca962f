"""The stationary fractional Ornstein-Uhlenbeck process and its memory.

The fOU forgets its initial condition exponentially fast, but its
autocorrelation decays only algebraically, rho(s) ~ sigma^2 H(2H-1) s^{2H-2}.
That slow decay is what separates the three scaling regimes downstream:
int rho^m converges only when H*(m) = m(H-1)+1 < 1/2.
"""

import numpy as np

from foulim import fou, harness
from foulim.paths import TimeGrid

# closed-form rho and its power-law tail
for H in (0.4, 0.6, 0.75, 0.9):
    s = np.geomspace(10.0, 100.0, 13)
    r = fou.rho(s, H)
    slope = np.polyfit(np.log(s), np.log(np.abs(r)), 1)[0]
    print(f"H={H}: rho(1)={fou.rho(1.0, H):+.4f}, tail slope {slope:+.3f} "
          f"(theory {2 * H - 2:+.3f})")

# the degenerate constant: int_0^inf rho vanishes for H < 1/2
print("\nint_0^inf rho(s) ds at H=0.4:", f"{fou.rho_power_integral([1], 0.4)[0]:.2e}")
print("int_0^inf rho(s)^2 ds at H=0.6:", f"{fou.rho_power_integral([2], 0.6)[0]:.6f}")

# sampled paths: stationarity of the marginal
grid = TimeGrid(0.1, 200)
sampler = fou.path_sampler(grid, 0.75, 0.05)
y = harness.run_replicated(4000, 0, "demo-fou", sampler.batch)
print(f"\nVar(y^eps_t) over replicas: {y[:, -1].var():.4f} (target 1)")
print(f"mean: {y[:, -1].mean():+.4f} (target 0)")
