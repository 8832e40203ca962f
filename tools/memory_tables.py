"""Hermite engine scaling and per-operation memory growth, as JSON tables.

Usage (from the root of a checkout; SRC is the ``src`` directory of the
tree to measure, so two checkouts can be compared from one script):

    python3 tools/memory_tables.py engine --src SRC [--steps 400,1600,3200]
    python3 tools/memory_tables.py ops --src SRC --workload limit_eqs|mc_scan [--seed N]
    python3 tools/memory_tables.py sequence --src SRC --workload W [--seed N]

``engine`` builds ``HermiteEngine(TimeGrid(1, n), 0.7, 2)`` for each n in a
fresh interpreter, and reports the seconds of one build and the traced peak
of a second (tracemalloc, over the memory traced before that build).  ``ops`` runs each
distinct operation of one set of a benchmark workload (``bench/workloads.py``)
through ``foulim.cli.main`` in a fresh interpreter and reports its growth of
the process's maximum resident set (ru_maxrss) over the size after importing
``foulim.cli`` and the SciPy modules the operations import on first use, and
after one 300 x 900 GEMM: OpenBLAS's own buffers (4.3 MB here) are touched
once per process, by whichever operation multiplies matrices first.
``sequence`` runs the whole operation list of one set of a workload, in
the benchmark's order and with its ``--seed`` values, in one interpreter
after the same imports and GEMM, collecting the heap before each
operation as the benchmark's worker does.  It reports ru_maxrss after
each operation and names the one that sets the process's peak, the
last to raise it: what ``ops`` cannot show, since an operation's growth
there starts from a fresh process.  Every child runs with BLAS pinned to
one thread and ``--threads 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

_ENGINE_CHILD = """
import json, sys, time, tracemalloc
from foulim.hermite import HermiteEngine
from foulim.paths import TimeGrid
n = int(sys.argv[1])
HermiteEngine(TimeGrid(1.0, 20), 0.7, 2)  # imports and first-call costs only
t0 = time.perf_counter()
HermiteEngine(TimeGrid(1.0, n), 0.7, 2)
seconds = time.perf_counter() - t0
tracemalloc.start()  # a second build, traced: tracing slows the allocations
before = tracemalloc.get_traced_memory()[0]
HermiteEngine(TimeGrid(1.0, n), 0.7, 2)
peak = tracemalloc.get_traced_memory()[1] - before
print(json.dumps({"steps": n, "build_s": seconds, "traced_peak_mb": peak / 1e6}))
"""

# imports and one GEMM before the size every table is measured from
_WARM_UP = """
import gc, json, resource, sys
import numpy as np
import foulim.cli
import scipy.signal, scipy.special, scipy.stats  # imported by the operations on first use
a = np.ones((300, 900))
a @ a.T  # OpenBLAS touches its own buffers once per process, at the first GEMM
del a
gc.collect()
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
"""

_OP_CHILD = _WARM_UP + """
argv = json.loads(sys.argv[1])
rc = foulim.cli.main(argv)
grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base
print(json.dumps({"argv": argv, "rc": rc, "post_import_mb": base / 1024,
                  "maxrss_growth_mb": grown / 1024}))
"""

_SEQUENCE_CHILD = _WARM_UP + """
ops, out = json.loads(sys.argv[1]), sys.argv[2]
rows = []
for i, op in enumerate(ops):
    gc.collect()
    rc = foulim.cli.main(op + ["--threads", "1", "--out", f"{out}/op{i}"])
    rows.append({"op": " ".join(op), "rc": rc,
                 "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024})
peak = max(range(len(rows)), key=lambda i: (rows[i]["maxrss_mb"], -i))  # the last to raise it
print(json.dumps({"post_import_mb": base / 1024, "peak_mb": rows[peak]["maxrss_mb"],
                  "peak_index": peak, "peak_op": rows[peak]["op"], "ops": rows}))
"""


def _child(src: str, code: str, *args: str) -> dict:
    env = {**os.environ, **PINNED, "PYTHONPATH": str(Path(src).resolve()),
           "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def engine_table(src: str, steps: list[int]) -> list[dict]:
    return [_child(src, _ENGINE_CHILD, str(n)) for n in steps]


def _operations(workload: str, seed: int) -> list[list[str]]:
    """One set of a benchmark workload's operation list, in its order."""
    sys.dont_write_bytecode = True  # leave nothing behind under bench/
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    return workloads.operations(workload, seed, workloads.NOMINAL_SET_S[workload])


def ops_table(src: str, workload: str, seed: int) -> list[dict]:
    seen, rows = set(), []
    with tempfile.TemporaryDirectory() as tmp:
        for op in _operations(workload, seed):
            key = tuple(op[:-2])  # the argv without its --seed
            if key in seen:
                continue
            seen.add(key)
            argv = op + ["--threads", "1", "--out", str(Path(tmp) / "op")]
            rows.append(_child(src, _OP_CHILD, json.dumps(argv)))
    return rows


def sequence_table(src: str, workload: str, seed: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return _child(src, _SEQUENCE_CHILD, json.dumps(_operations(workload, seed)), tmp)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("table", choices=["engine", "ops", "sequence"])
    ap.add_argument("--src", required=True)
    ap.add_argument("--steps", default="400,1600,3200")
    ap.add_argument("--workload", default="limit_eqs")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if args.table == "engine":
        rows = engine_table(args.src, [int(s) for s in args.steps.split(",")])
    elif args.table == "ops":
        rows = ops_table(args.src, args.workload, args.seed)
    else:
        rows = sequence_table(args.src, args.workload, args.seed)
    print(json.dumps(rows, indent=1))


if __name__ == "__main__":
    main()
