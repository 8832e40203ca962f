"""The second-order (kinetic) problem: X^eps -> sigma B^H at rate eps^H.

X^eps_t = eps^{H-1} int_0^t y^eps ds, driven by the same fBM as y^eps.
On the grid the coupling identity
    X_{s,t} - sigma B_{s,t} = -eps (v_t - v_s),   v = eps^{H-1} y,
holds to floating point, and the L2 error at the worst pair of reporting
times, the pair the chain's exact covariance names, scales as eps^H.
By self-similarity each eps is read off its own unit-rate chain, drawn
from that covariance only on the lattice of points its readings touch.  The
Hoelder seminorm is sampled on the dyadic index lags 1, 2, 4, ... of the
reporting grid.
"""

from foulim import solvers
from foulim.paths import TimeGrid

for H in (0.3, 0.7):
    scan = solvers.kinetic_error_scan(
        H, [0.1, 0.05, 0.02], TimeGrid(1.0, 50), n_replicas=150, master_seed=0,
    )
    print(f"H={H}:")
    for eps, err in zip(scan.eps_values, scan.values):
        print(f"  eps={eps:5.2f}: worst-pair L2 error {err:.4f}")
    print(f"  log-log slope vs eps: {-scan.slope:.3f} (theory {H}, "
          f"exact on these grids {-scan.meta['exact_slope']:.3f})")
    print(f"  on-grid identity defect: {scan.meta['identity_defect_max']:.2e}")
    print(f"  Hoelder-seminorm slope at gamma={scan.meta['holder_gamma']:.2f}: "
          f"{-scan.meta['holder_slope']:.3f} (theory ~{H - scan.meta['holder_gamma']:.2f})")
