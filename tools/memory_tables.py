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
set up as ``bench/worker.py`` sets up its own: it imports bench's
``checks`` and ``speed`` (mpmath and SciPy with them) and ``foulim.cli``,
collects and freezes the heap, runs ``speed.warm_up()``, times the
reference kernel after it and again once ``speed.EVERY_S`` seconds have
passed, and runs each operation on a collected heap, its output silenced,
then checks its outputs with ``checks.check_outputs`` and deletes them.
The import state moves the high-water mark by several MB; with this
setup the peak reads within 0.5 MB of the benchmark's ``peak_rss_mb``
(limit_eqs 112.7-112.9 MB here against the benchmark's 113.1).  It
reports ru_maxrss after the setup and after each operation, each
operation's rise over the mark before it (``checks_ok`` for those that
exit 0), and names the operation that sets the process's peak, the
last to raise it: what ``ops`` cannot show, since an operation's growth
there starts from a fresh process.  Nothing under ``bench/`` is written.
Every child runs with BLAS pinned to one thread and ``--threads 1``.
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

# bench/worker.py's setup and per-operation loop, its outputs checked and deleted
_SEQUENCE_CHILD = """
import contextlib, gc, io, json, resource, sys, time
from pathlib import Path
sys.dont_write_bytecode = True  # leave nothing behind under bench/
sys.path.append(sys.argv[3])  # after SRC, which holds foulim
import checks, speed
from foulim import cli


def maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


gc.collect()
gc.freeze()
speed.warm_up()
speed.reference_seconds()
ref_at, base = time.perf_counter(), maxrss_mb()
ops, out = json.loads(sys.argv[1]), Path(sys.argv[2])
rows, mark = [], base
for i, op in enumerate(ops):
    if time.perf_counter() - ref_at >= speed.EVERY_S:
        speed.reference_seconds()
        ref_at = time.perf_counter()
    prefix = out / f"op{i}"
    gc.collect()
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(op + ["--threads", "1", "--out", str(prefix)])
    ok = rc == 0 and checks.check_outputs(op, prefix).ok
    for f in out.glob(prefix.name + ".*"):
        f.unlink()
    rows.append({"op": " ".join(op), "rc": rc, "checks_ok": ok, "maxrss_mb": maxrss_mb(),
                 "rise_mb": maxrss_mb() - mark})
    mark = rows[-1]["maxrss_mb"]
peak = max(range(len(rows)), key=lambda i: (rows[i]["maxrss_mb"], -i))  # the last to raise it
print(json.dumps({"post_setup_mb": base, "peak_mb": rows[peak]["maxrss_mb"],
                  "peak_index": peak, "peak_op": rows[peak]["op"],
                  "rises": [(i, row["op"], row["rise_mb"]) for i, row in enumerate(rows)
                            if row["rise_mb"] > 0], "ops": rows}))
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
        return _child(src, _SEQUENCE_CHILD, json.dumps(_operations(workload, seed)), tmp,
                      str(ROOT / "bench"))


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
