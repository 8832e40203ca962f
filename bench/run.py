"""foulim benchmark: seeded CLI operation lists, end to end and per layer.

Usage (from the root of a checkout):

    python3 bench/run.py --workload mc_scan|constants|limit_eqs \\
        --seed N --seconds 20 --trace 0|1

One run builds nothing: it runs the package from ``src/``.  It

1. times ``import foulim.cli`` in fresh interpreters (``setup_s``, the
   median of SETUP_REPS);
2. runs the workload's operation list (see ``workloads.py``) in one
   fresh worker process: one client, operations back to back,
   ``--threads 1``, BLAS pinned to one thread;
3. checks every output (see ``checks.py``) and classifies failures.

``wall_s`` is the sum of the operations' latencies (the checks between
them are not timed); ``replicas_per_s`` counts the ``--replicas`` of
every operation that did not fail.  Every latency, and ``setup_s``, is
in reference seconds: raw seconds rescaled by a fixed kernel timed
around them (see ``speed.py``), so that the drift of a shared machine's
speed between runs cancels.  The raw figures are printed beside them
(``wall_raw_s``, ``setup_raw_s``), with ``machine_speed``, the
kernel's nominal over its measured time.

With ``--trace 1`` it also runs the same list in a second worker whose
calls into each layer are wrapped (see ``tracing.py``), reports the
per-layer metrics and the tracing overhead (traced over untraced
``wall_s``), times each module's import with ``-X importtime`` and, on
``mc_scan``, the ``--threads 2`` speed-up of one ``clt-scan``.

Every metric is printed by name with its unit; the environment and the
per-operation records go to ``.bench_work/result-*.json``.  The last
line of stdout is a JSON summary: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics of BENCHMARK.json, or with
``--trace 1`` its per-layer ones).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from worker import PINNED_ENV  # noqa: E402

os.environ.update(PINNED_ENV)  # the reference kernel runs here too, single-threaded

SETUP_REPS = 3
DEADLINE_S = 175.0
IMPORT_MODULES = ("foulim", "foulim.paths", "foulim.streams", "foulim.fgn", "foulim.fou",
                  "foulim.chaos", "foulim.hermite", "foulim.harness", "foulim.solvers",
                  "foulim.output", "foulim.cli", "scipy.signal")


def _env() -> dict:
    env = dict(os.environ)  # holds PINNED_ENV, set above
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _remaining(t_start: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - t_start)
    if left <= 0:
        raise TimeoutError("benchmark deadline reached")
    return left


def setup_times(t_start: float) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to foulim.cli imported: raw and rescaled."""
    speed.warm_up()
    raw, rescaled = [], []
    ref = speed.reference_seconds()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import foulim.cli"], env=_env(), check=True,
                       cwd=ROOT, timeout=_remaining(t_start), capture_output=True)
        raw.append(time.perf_counter() - t0)
        after = speed.reference_seconds()
        rescaled.append(speed.rescale(raw[-1], ref, after))
        ref = after
    return raw, rescaled


def import_breakdown(t_start: float) -> dict[str, float]:
    """Cumulative import seconds of each module, from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import foulim.cli"],
                          env=_env(), check=True, cwd=ROOT, capture_output=True, text=True,
                          timeout=_remaining(t_start))
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
        if len(parts) == 3 and parts[1].isdigit():
            cumulative[parts[2]] = int(parts[1]) * 1e-6
    return {f"{name.removeprefix('foulim.')}.import_s": cumulative.get(name, 0.0)
            for name in IMPORT_MODULES}


def run_worker(args, t_start: float, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=_remaining(t_start))
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def op_tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 operations beyond it.

    When that percentile falls below the median (fewer than 21
    operations) it is no tail, and the maximum is reported as p100.
    """
    xs = sorted(latencies)
    n = len(xs)
    rank = n - 10  # 1-based rank with exactly 10 operations beyond it
    if rank < (n + 1) / 2:
        return xs[-1], 100.0
    return xs[rank - 1], 100.0 * rank / n


def end_to_end(report: dict, setup: tuple[list[float], list[float]]) -> dict:
    """Latencies in reference seconds (see speed.py), raw seconds beside them."""
    ops = report["ops"]
    lat = [o["ref_seconds"] for o in ops]
    wall = sum(lat)
    refs = [r for o in ops for r in o["ref_s"]]
    failed = sum(checks.is_failure(o["outcome"]) for o in ops)
    delivered = sum(workloads.replicas(o["argv"]) for o in ops
                    if not checks.is_failure(o["outcome"]))
    tail, pct = op_tail(lat)
    return {
        "wall_s": wall,
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail,
        "op_tail_pct": pct,
        "replicas_per_s": delivered / wall,
        "setup_s": statistics.median(setup[1]),
        "wall_raw_s": sum(o["seconds"] for o in ops),
        "setup_raw_s": statistics.median(setup[0]),
        "machine_speed": speed.NOMINAL_S / statistics.median(refs),
        "peak_rss_mb": report["peak_rss_mb"],
        "fail_ratio": failed / len(ops),
        "attempted": len(ops),
        "failed": failed,
        "verdicts_false": sum(o["verdicts_false"] for o in ops),
    }


# units of the figures printed besides those BENCHMARK.json lists
EXTRA_UNITS = {"op_tail_pct": "%", "attempted": "count", "failed": "count",
               "verdicts_false": "count", "machine_speed": "ratio"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t_start = time.perf_counter()
    if not (ROOT / "src" / "foulim" / "cli.py").is_file():
        print(f"error: no foulim package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        setup = setup_times(t_start)
        speedup = ["--speedup"] if args.trace and args.workload == "mc_scan" else []
        plain = run_worker(args, t_start, *speedup)
        e2e = end_to_end(plain, setup)
        broken = [o for o in plain["ops"] if o["invariant_breaks"]]
        layers = {}
        if args.trace:
            traced = run_worker(args, t_start, "--trace",
                                "--spans", str(WORK / f"spans-{tag}.json"))
            broken += [o for o in traced["ops"] if o["invariant_breaks"]]
            traced_wall = sum(o["ref_seconds"] for o in traced["ops"])
            layers = traced["layers"]
            layers["trace.overhead"] = traced_wall / e2e["wall_s"]
            layers["harness.speedup_2t"] = plain.get("speedup_2t", 0.0)
            layers.update(import_breakdown(t_start))
    except (RuntimeError, TimeoutError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units.update(EXTRA_UNITS)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {m["name"]: {"value": {**e2e, **layers}[m["name"]], "unit": m["unit"]}
               for m in wanted}

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for key, val in plain["env"].items():
        print(f"# env {key} = {val}")
    for o in plain["ops"]:
        if o["outcome"] != checks.OK:
            print(f"# {o['outcome']}: {' '.join(o['argv'])} :: {o['detail'][:160]}")
    for name, val in e2e.items():
        print(f"{name} = {val:.6g} {units[name]}")
    for m in bench["per_layer"] if args.trace else ():
        if m["name"] not in e2e:
            print(f"{m['name']} = {metrics[m['name']]['value']:.6g} {m['unit']}")
    (WORK / f"result-{tag}.json").write_text(json.dumps(
        {"args": vars(args), "env": plain["env"], "end_to_end": e2e, "per_layer": layers,
         "ops": plain["ops"]}, indent=1))
    print(json.dumps({"correct": not broken, "attempted": e2e["attempted"],
                      "failed": e2e["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
