"""Which limit does alpha(eps) * int_0^t G(y^eps) have?

The Hermite rank m of G and the exponent H*(m) = m(H-1)+1 sort the
functionals into three regimes with different scalings alpha(eps):
Wiener limits below H* = 1/2 (and on the log-corrected boundary), a
Hermite-process limit above.  The variance scan reads the regime off the
log-log slope of the unscaled variance against 1/eps.
"""

from foulim import chaos, harness
from foulim.chaos import ChaosFunction

H1 = ChaosFunction([0, 1.0])
H2 = ChaosFunction([0, 0, 1.0])

for G, H, label, expected in (
    (H2, 0.60, "short range (H*=0.2)", -1.0),
    (H2, 0.75, "boundary    (H*=0.5)", None),
    (H1, 0.80, "long range  (H*=0.8)", 2 * 0.8 - 2),
):
    regime = chaos.classify_regime(G.hermite_rank, H)
    print(f"G rank {G.hermite_rank}, H={H}: {label}, "
          f"regime={regime.kind.value}, alpha(0.01)={regime.alpha(0.01):.3f}")
    scan = harness.variance_scan(G, H, 1.0, [0.1, 0.05, 0.02], 2000, 1)
    if expected is not None:
        print(f"  unscaled Var slope vs log(1/eps): {scan.slope:+.3f} "
              f"(theory {expected:+.1f}), CI {scan.slope_ci}")
    note = ("stabilizes" if expected is not None
            else "drifts like 1 + 2/|ln eps| toward its constant")
    print(f"  alpha^2-scaled variance across eps: "
          f"{[round(v, 3) for v in scan.meta['scaled_variance']]} ({note})")
