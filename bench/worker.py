"""Run one workload's operation list in this (fresh) interpreter.

Usage: python3 bench/worker.py --workload W --seed N --seconds T
                               [--trace] [--speedup] [--spans FILE]

Operations are ``foulim.cli.main(argv)`` calls made back to back by one
client (a closed loop), each with an explicit ``--seed``, ``--threads 1``
and ``--out`` under the checkout's ``.bench_work`` directory.  Only the
``cli.main`` call is timed; outputs are checked between operations and
deleted.  Each operation starts from a collected heap, as a fresh CLI
process would, so a collection another operation's garbage triggers
does not land in its time.  The reference kernel of ``speed.py`` is
timed before the first operation, after the last, and between
operations once ``speed.EVERY_S`` seconds have passed; an operation's
``ref_seconds`` is its latency rescaled by the kernel times around it.
The last line of stdout is a JSON report for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

# set for every process the benchmark starts, before numpy is imported
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "FOULIM_THREADS": "1",
}


def environment() -> dict:
    """What the timings depend on besides the code."""
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            **{k: os.environ.get(k, "") for k in PINNED_ENV}}


def run_op(cli, argv: list[str], out: Path, threads: int = 1) -> dict:
    """One timed CLI call, classified and checked."""
    full = argv + ["--threads", str(threads), "--out", str(out)]
    err = io.StringIO()
    rc, raised = None, None
    gc.collect()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        try:
            rc = cli.main(full)
        except Exception as exc:  # an escaped exception is a failed operation
            raised = exc
        seconds = time.perf_counter() - t0
    outcome = checks.classify(rc, raised, err.getvalue())
    rec = {"argv": argv, "seconds": seconds, "rc": rc, "outcome": outcome,
           "detail": repr(raised) if raised else err.getvalue().strip()[-300:],
           "invariant_breaks": [], "verdicts_false": 0}
    if not checks.is_failure(outcome):
        res = checks.check_outputs(argv, out)
        rec["invariant_breaks"] = res.invariant_breaks
        rec["verdicts_false"] = res.verdicts_false
        if not res.ok:
            rec["outcome"] = checks.CHECK
            rec["detail"] = "; ".join(res.invariant_breaks + res.accuracy_misses)[:300]
    for f in out.parent.glob(out.name + ".*"):
        f.unlink()
    return rec


def speedup_2t(cli, argv: list[str], work: Path) -> float:
    """Reference seconds of one operation at --threads 1 over the same at --threads 2."""
    ref, took = speed.reference_seconds(), []
    for n in (1, 2):
        seconds = run_op(cli, argv, work / f"speedup{n}", n)["seconds"]
        after = speed.reference_seconds()
        took.append(speed.rescale(seconds, ref, after))
        ref = after
    return took[0] / took[1]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--speedup", action="store_true")
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args()

    from foulim import cli

    ops = workloads.operations(args.workload, args.seed, args.seconds)
    work = ROOT / ".bench_work" / f"w{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    gc.collect()
    gc.freeze()  # the imported modules are not garbage; keep collections short
    try:
        speed.warm_up()
        refs, ref_at = [speed.reference_seconds()], time.perf_counter()
        records, ref_index = [], []
        for i, argv in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            if time.perf_counter() - ref_at >= speed.EVERY_S:
                refs.append(speed.reference_seconds())
                ref_at = time.perf_counter()
            ref_index.append(len(refs) - 1)
            records.append(run_op(cli, argv, work / f"op{i}"))
        refs.append(speed.reference_seconds())
        for rec, k in zip(records, ref_index):
            # the kernel timed last before the operation and first after it
            rec["ref_s"] = [refs[k], refs[k + 1]]
            rec["ref_seconds"] = speed.rescale(rec["seconds"], refs[k], refs[k + 1])
        report = {"ops": records, "env": environment(),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        if tracer is not None:
            tracer.restore()
            report["layers"] = tracing.layer_metrics(tracer.spans)
            if args.spans is not None:
                args.spans.write_text(json.dumps(tracer.to_records()))
        if args.speedup:
            report["speedup_2t"] = speedup_2t(cli, ops[0], work)
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
