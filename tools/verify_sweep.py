"""Seed sweeps of ``foulim verify`` criteria, as JSON.

Usage (from the root of a checkout; SRC is the ``src`` directory of the
tree to measure, so two checkouts can be swept from one script):

    python3 tools/verify_sweep.py --src SRC --suite quick|full --seeds 1-40 \\
        [--criteria 1,10,11] [--out FILE]

It runs each chosen criterion of ``foulim.acceptance`` (all twelve by
default) at every master seed of the range, in one process, and writes
one JSON document (to stdout without ``--out``): for each criterion the
seeds it ran at, the seeds where it failed and their count, and for
every z-score in its details (a key with a ``z`` or ``zmax`` word, such
as ``short_range_mean_z_eps0.01`` or ``m2_cov_zmax``; an array detail
gives one entry per index, ``exact_z[1]``) the mean, the sd (ddof 1)
and the largest |z| over the seeds, with the seed where it lies.  The
details at each seed are kept under ``runs``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def _z_scores(details: dict) -> dict[str, float]:
    """The z-score details of one run, arrays flattened to one entry per index."""
    out = {}
    for key, value in details.items():
        if not {"z", "zmax"} & set(key.split("_")):
            continue
        values = value if isinstance(value, (list, tuple)) else [value]
        for i, v in enumerate(values):
            out[f"{key}[{i}]" if len(values) > 1 else key] = float(v)
    return out


def _summary(runs: list[dict]) -> dict:
    z = {}
    for run in runs:
        for key, value in _z_scores(run["details"]).items():
            z.setdefault(key, []).append((value, run["seed"]))
    stats = {}
    for key, pairs in z.items():
        vals = [v for v, _ in pairs]
        mean = math.fsum(vals) / len(vals)
        sd = (math.sqrt(math.fsum((v - mean) ** 2 for v in vals) / (len(vals) - 1))
              if len(vals) > 1 else 0.0)
        worst, at = max(pairs, key=lambda p: abs(p[0]))
        stats[key] = {"mean": mean, "sd": sd, "max_abs": abs(worst), "max_abs_seed": at}
    failed = [run["seed"] for run in runs if not run["passed"]]
    return {"seeds": [run["seed"] for run in runs], "failures": len(failed),
            "failed_seeds": failed, "z": stats}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", default=str(ROOT / "src"))
    p.add_argument("--suite", choices=["quick", "full"], default="quick")
    p.add_argument("--seeds", type=_seed_range, default=_seed_range("1-40"))
    p.add_argument("--criteria", default="")
    p.add_argument("--out", default="")
    args = p.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from foulim import acceptance
    from foulim.output import _numpy_to_json

    chosen = {int(c) for c in args.criteria.split(",") if c}
    funcs = [f for f in acceptance.CRITERIA
             if not chosen or int(f.__name__.split("_")[1]) in chosen]
    doc = {"suite": args.suite, "src": str(Path(args.src).resolve()),
           "seeds": [args.seeds.start, args.seeds.stop - 1], "criteria": {}}
    t0 = time.perf_counter()
    for func in funcs:
        runs = []
        for seed in args.seeds:
            res = func(seed, args.suite)
            details = json.loads(json.dumps(res.details, default=_numpy_to_json))
            runs.append({"seed": seed, "passed": bool(res.passed), "details": details})
        doc["criteria"][func.__name__] = {**_summary(runs), "runs": runs}
        print(f"{func.__name__}: {doc['criteria'][func.__name__]['failures']} of "
              f"{len(runs)} failed", file=sys.stderr)
    doc["seconds"] = time.perf_counter() - t0
    text = json.dumps(doc, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
