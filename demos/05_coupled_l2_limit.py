"""Pathwise (L2) convergence to the Hermite limit on shared noise.

In the long-range regime the scaled integral converges to its Hermite
limit in L2, not just in law.  Building both the fast fOU (through its
moving-average kernel) and the limit process from the same white noise
makes that distance directly measurable replica by replica.
"""

from foulim import harness
from foulim.chaos import ChaosFunction

H1 = ChaosFunction([0, 1.0])

scan = harness.l2_convergence_hermite(
    H1, H=0.8, t=1.0, eps_list=[0.2, 0.1, 0.05], n_replicas=500, master_seed=0,
)
print("coupled L2 distance ||X^eps_1 - limit_1||:")
for eps, d, se in zip(scan.eps_values, scan.values, scan.stderrs):
    print(f"  eps={eps:5.2f}: {d:.4f} (+- {se:.4f})")
print("monotone decreasing:", scan.meta["monotone_decreasing"])
print(f"limit coefficient on the unit-variance Hermite process: "
      f"{scan.meta['limit_coefficient']:.4f}")
