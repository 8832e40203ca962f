"""Seeded operation lists for the three benchmark workloads.

An operation is the argv of one ``foulim`` CLI call, without ``--out``
and ``--threads``, which the runner appends.  Each list is a pure
function of (workload, seed, seconds).  ``seconds`` fixes how many sets
of operations the list holds, from a set's nominal cost in reference
seconds (see ``speed.py``).

The seed draws each operation's ``--seed`` (so every run samples new
random streams) and the parameters whose value does not change the
work (the H of ``chaos``).  What does change the work is the same on
every seed: the composition of a set, the order of the operations, and
the H grids of ``constants`` and ``rho``.  On a 2-core machine, drawing
those from the seed made a run's total move by up to 18% between seeds:
the quadrature cost of ``constants`` is a step function of H (about
2.3 s where the rho integral converges, a few ms in the long-range
regime or where it fails early), and in one process the first operation
at a given H pays for caches the later ones reuse.
"""

from __future__ import annotations

import random

WORKLOADS = ("mc_scan", "constants", "limit_eqs")

# He2@0.6 short range, He2@0.75 boundary, He1@0.8 and He2@0.85 long range,
# He3@0.7 short range
MC_PAIRS = (("0,0,1", 0.6), ("0,0,1", 0.75), ("0,1", 0.8), ("0,0,1", 0.85),
            ("0,0,0,1", 0.7))
MC_EPS_LISTS = ("0.1,0.05,0.02", "0.05,0.02,0.01")
# 1200 replicas per scan, and 40 for the Heun-loop homogenize below, keep
# one set of mc_scan and of limit_eqs near 20 reference seconds
MC_REPLICAS = 1200

CONSTANT_COEFFS = ("0,1", "0,0,1", "0,0,0,1", "0,1,0,0.5")
RHO_S_MAX = (10, 50, 100)
RHO_PER_SET = 4
H_LO, H_HI = 0.05, 0.95

KINETIC_EPS_LISTS = (None, "0.1,0.05,0.02", "0.1,0.03,0.01")
HFUN_REPLICAS = 40

# nominal reference seconds (see speed.py) of one set (sizing only)
NOMINAL_SET_S = {"mc_scan": 20.5, "constants": 3.4, "limit_eqs": 20.0}


def n_sets(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_SET_S[workload]))


def _h(x: float) -> str:
    return f"{x:.6f}"


def _grid(n: int, offset: float) -> list[float]:
    """n points evenly spaced on (H_LO, H_HI), each at ``offset`` within its cell."""
    return [H_LO + (H_HI - H_LO) * (i + offset) / n for i in range(n)]


def _interleaved(ops: list[list[str]]) -> list[list[str]]:
    """A fixed shuffle, the same on every seed, so kinds of operation mix."""
    random.Random(0).shuffle(ops)
    return ops


def _mc_scan(rng: random.Random, sets: int) -> list[list[str]]:
    """The central claim: variance scans in all three regimes.

    Time goes to normal draws, Philox setup, circulant FFT, lfilter with
    burn-in (50% of draws at eps=0.1, 9% at 0.01) and reducing G; no
    quadrature, no solver.
    """
    block = [["clt-scan", "--H", str(H), "--coeffs", coeffs, "--eps-list", eps,
              "--replicas", str(MC_REPLICAS)]
             for coeffs, H in MC_PAIRS for eps in MC_EPS_LISTS]
    return _interleaved(block) * sets


def _constants(rng: random.Random, sets: int) -> list[list[str]]:
    """The rho/constants quadrature alone: nothing is sampled.

    The full H range is kept on purpose: below H ~ 0.36 ``constants``
    raises QuadratureError, which counts as a failed operation.
    """
    ops = []
    # one H grid per coefficient set, staggered by a quarter cell so no two
    # operations share an H (which would let the rho-integral cache answer)
    for k, coeffs in enumerate(CONSTANT_COEFFS):
        for H in _grid(sets, (k + 0.5) / len(CONSTANT_COEFFS)):
            ops.append(["constants", "--H", _h(H), "--coeffs", coeffs])
    n_rho = RHO_PER_SET * sets
    for i, H in enumerate(_grid(n_rho, 0.25)):
        ops.append(["rho", "--H", _h(H), "--s-max", str(RHO_S_MAX[i % len(RHO_S_MAX)])])
    # anchor: at H = 1/2 the fOU is Markov and rho(s) = exp(-s) exactly
    ops.append(["rho", "--H", "0.5", "--s-max", "10"])
    for i in range(sets):
        ops.append(["chaos", "--H", _h(rng.uniform(H_LO, H_HI)),
                    "--coeffs", CONSTANT_COEFFS[i % len(CONSTANT_COEFFS)]])
    return _interleaved(ops)


def _limit_eqs(rng: random.Random, sets: int) -> list[list[str]]:
    """All solver and Hermite work, and fgn as few replicas of long paths.

    The ``0.1,0.03,0.01`` kinetic list hits the known reshape crash,
    which counts as a failed operation.
    """
    block = [["homogenize", "--H", H, "--coeffs", "0,0,1", "--replicas", "600"]
             for H in ("0.6", "0.85")]
    block += [["homogenize", "--H", H, "--coeffs", "0,0,1", "--hfun", hfun,
               "--gfun", "cos", "--replicas", str(HFUN_REPLICAS)]
              for H in ("0.6", "0.85") for hfun in ("one", "sin2")]
    for H in ("0.3", "0.7"):
        for eps in KINETIC_EPS_LISTS:
            op = ["kinetic-scan", "--H", H, "--replicas", "200"]
            block.append(op + (["--eps-list", eps] if eps else []))
    block += [["l2-hermite", "--H", H, "--coeffs", "0,1", "--replicas", "500"]
              for H in ("0.75", "0.8")]
    return _interleaved(block) * sets


_OPERATION_LISTS = {"mc_scan": _mc_scan, "constants": _constants, "limit_eqs": _limit_eqs}


def operations(workload: str, seed: int, seconds: float) -> list[list[str]]:
    """The operation list of a run, each argv with its ``--seed`` appended."""
    if workload not in _OPERATION_LISTS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"foulim-bench/{workload}/{seed}")
    ops = _OPERATION_LISTS[workload](rng, n_sets(workload, seconds))
    return [op + ["--seed", str(rng.randrange(1, 2**31))] for op in ops]


def replicas(argv: list[str]) -> int:
    """Monte Carlo replicas an operation delivers (0 for deterministic ones)."""
    return int(argv[argv.index("--replicas") + 1]) if "--replicas" in argv else 0
