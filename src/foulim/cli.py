"""Command-line surface for reproducible experiments.

Every run is fully determined by (subcommand, parameters, --seed) and
emits a config echo, an argparse args file: ``foulim @PREFIX.config``
reproduces the run bit-exactly, and a flag after the file overrides the
file's value.  Exit codes: 0 success, 1 usage error, 2 numerical or
acceptance failure (with a machine-readable report where applicable).
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import chaos, fgn, fou, harness, hermite, output, solvers
from .chaos import ChaosFunction, Regime
from .paths import MASTER_SEED, FoulimError, TimeGrid, as_eps

__all__ = ["main"]

# --gfun zero is no drift at all (g = None), so it has no field here
_G_PRESETS = {
    "one": lambda y: np.ones_like(np.asarray(y, dtype=float)),
    "cos": np.cos,
}


class UsageError(Exception):
    pass


# domain and numerical failures exit 2 with an "error:" line (FoulimError is
# the base of the package's own, such as the slow/fast blow-up guard), as
# does a request larger than memory; anything else, such as a TypeError, is
# a programming error and stays a traceback
_NUMERICAL_ERRORS = (
    ValueError,
    OSError,
    FloatingPointError,
    MemoryError,
    FoulimError,
)


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"could not parse float list {text!r}") from exc


def _chaos_from_args(args) -> ChaosFunction:
    return ChaosFunction(_parse_floats(args.coeffs))


# what the config echo leaves out of the parsed namespace: the subcommand,
# which is the echo's first line, and the options that say only where the
# output goes or how many workers make it, never what it holds
_NOT_ECHOED = {"command", "func", "out", "threads"}


def _emit(args, header, rows, summary=None) -> None:
    """Write a run's config echo, table and summary, all through ``output``.

    The echo lists the parsed options but those in _NOT_ECHOED, and so
    does a summary left as None.  A JSON run carries its table in the summary.
    With --out they go to <out>.config, <out>.csv and <out>.json;
    without it the echo goes to stderr and the table (CSV) or the
    summary (JSON) to stdout.
    """
    params = {k: v for k, v in vars(args).items() if k not in _NOT_ECHOED}
    summary = {"command": args.command, **(params if summary is None else summary)}

    def target(ext, stream):
        return f"{args.out}.{ext}" if args.out else stream

    output.write_config(target("config", sys.stderr), args.command, params)
    if args.format == "csv":
        output.write_csv(target("csv", sys.stdout), header, rows)
        if args.out:
            output.write_json(f"{args.out}.json", summary)
    else:
        summary["table"] = {"header": header, "rows": [[output.fmt(v) for v in r] for r in rows]}
        output.write_json(target("json", sys.stdout), summary)


def _path_rows(times, matrix):
    """(replica, t, value) rows of a path matrix, yielded as they are written."""
    for r, row in enumerate(matrix):
        for t, v in zip(times, row):
            yield r, t, v


def _scan_table(scan):
    """Header and (eps, statistic, stderr, n) rows of a scan's result."""
    rows = [(e, v, se, scan.n_replicas)
            for e, v, se in zip(scan.eps_values, scan.values, scan.stderrs)]
    return ["eps", "statistic", "stderr", "n"], rows


# ------------------------------------------------------------------ commands


def _cmd_fbm_paths(args) -> int:
    grid = TimeGrid(args.horizon, args.n_steps)
    incs = harness.run_replicated(
        args.replicas, args.seed, "cli-fbm",
        lambda k: fgn.sample_fgn_batch(grid.n_steps, grid.dt, args.H, k), args.threads)
    mat = np.concatenate([np.zeros((len(incs), 1)), np.cumsum(incs, axis=1)], axis=1)
    _emit(args, ["replica", "t", "value"], _path_rows(grid.times(), mat))
    return 0


def _cmd_sample_fou(args) -> int:
    grid = (TimeGrid(args.horizon, args.n_steps) if args.n_steps is not None
            else TimeGrid.with_step(args.horizon, as_eps(args.eps) / 50.0))
    args.n_steps = grid.n_steps  # the echo records the step count the run took
    sampler = fou.path_sampler(grid, args.H, args.eps)
    mat = harness.run_replicated(args.replicas, args.seed, "cli-fou", sampler.batch,
                                 args.threads)
    _emit(args, ["replica", "t", "value"], _path_rows(grid.times(), mat))
    return 0


def _cmd_rho(args) -> int:
    if not 0.0 <= args.s_max < np.inf:
        raise ValueError(f"--s-max must be finite and >= 0, got {args.s_max}")
    s = np.linspace(0.0, args.s_max, args.n_points)
    _emit(args, ["s", "rho"], zip(s, fou.rho(s, args.H)))
    return 0


def _cmd_chaos(args) -> int:
    G = _chaos_from_args(args)
    regime = chaos.classify_regime(G.hermite_rank, args.H)
    formulas = {
        Regime.SHORT_RANGE: "1/sqrt(eps)",
        Regime.BOUNDARY: "1/sqrt(eps*|ln(eps)|)",
        Regime.LONG_RANGE: f"eps^({regime.h_star - 1.0:.17g})",
    }
    summary = {
        "H": args.H,
        "coefficients": list(G.coefficients),
        "hermite_rank": G.hermite_rank,
        "h_star": regime.h_star,
        "regime": regime.kind.value,
        "alpha_formula": formulas[regime.kind],
    }
    if args.eps is not None:
        summary["alpha"] = regime.alpha(args.eps)
    _emit(args, ["order", "coefficient"], enumerate(G.coefficients), summary)
    return 0


def _cmd_constants(args) -> int:
    G = _chaos_from_args(args)
    m = G.hermite_rank
    regime = chaos.classify_regime(m, args.H)
    sigma, tail = chaos.limit_covariance(G, G, args.H)  # c and A from one rho pass
    extra = {}
    if regime.kind is Regime.SHORT_RANGE:
        extra = {"A_self": sigma / 2.0, "A_truncation_tail": tail / 2.0}
    elif regime.kind is Regime.LONG_RANGE and m <= chaos.MAX_HERMITE_ORDER:
        extra = {"K_normalizer": chaos.K_normalizer(regime.h_star, m),  # the engine's orders
                 "kernel_amplitude": fou.kernel_amplitude(args.H)}
    summary = {
        "H": args.H,
        "hermite_rank": G.hermite_rank,
        "h_star": regime.h_star,
        "regime": regime.kind.value,
        "sigma": fou.stationary_sigma(args.H),
        "c": float(np.sqrt(max(sigma, 0.0))),
        **extra,
    }
    rows = [(k, v) for k, v in summary.items() if isinstance(v, (int, float))]
    _emit(args, ["constant", "value"], rows, summary)
    return 0


def _cmd_hermite_sample(args) -> int:
    grid = TimeGrid(args.horizon, args.n_steps)
    engine = hermite.HermiteEngine(grid, args.H, args.m)
    every_step = np.arange(grid.n_steps + 1)
    mat = harness.run_replicated(
        args.replicas, args.seed, "cli-hermite",
        lambda k: hermite.hermite_ensemble(engine, k, every_step), args.threads)
    _emit(args, ["replica", "t", "value"], _path_rows(grid.times(), mat))
    return 0


def _cmd_clt_scan(args) -> int:
    G = _chaos_from_args(args)
    scan = harness.variance_scan(G, args.H, args.t, _parse_floats(args.eps_list), args.replicas,
                                 args.seed, threads=args.threads)
    if args.replicas >= 1000:
        # the scan's own raw integrals at the finest eps, scaled by alpha there
        alpha = chaos.classify_regime(G.hermite_rank, args.H).alpha(scan.eps_values[-1])
        diag = harness.clt_diagnostics(alpha * scan.meta["finest_samples"])
    else:
        diag = {"note": "replicas < 1000: distributional diagnostics skipped"}
    regime = scan.meta["regime"]
    expected = {"short_range": -1.0, "boundary": -1.0,
                "long_range": 2.0 * scan.meta["h_star"] - 2.0}[regime]
    summary = {
        "regime": regime,
        "h_star": scan.meta["h_star"],
        **scan.meta["resolution"],
        "slope_vs_log_inv_eps": scan.slope,
        "slope_ci": list(scan.slope_ci),
        "expected_slope": expected,
        # the slope of the exact variances, which the scan estimates (not -1 at the boundary)
        "exact_slope": scan.meta["exact_slope"],
        "slope_z": scan.meta["slope_z"],
        "slope_pass": abs(scan.meta["slope_z"]) <= 3.0,
        "scaled_flatness": scan.meta["scaled_flatness"],
        "diagnostics_at_finest_eps": diag,
    }
    _emit(args, *_scan_table(scan), summary)
    return 0


def _cmd_l2_hermite(args) -> int:
    G = _chaos_from_args(args)
    eps_list = _parse_floats(args.eps_list)
    scan = harness.l2_convergence_hermite(
        G, args.H, args.t, eps_list, args.replicas, args.seed, threads=args.threads,
    )
    summary = {
        "monotone_decreasing": scan.meta["monotone_decreasing"],
        "limit_coefficient": scan.meta["limit_coefficient"],
        "h_star": scan.meta["h_star"],
        # rank of the far field's noise and the part of its Gram's trace dropped
        "far_rank": scan.meta["far_rank"],
        "far_gram_dropped": scan.meta["far_gram_dropped"],
        # for linear G: the exact distances and each sampled one's z (not gated)
        "exact_values": scan.meta.get("exact_values"),
        "exact_z": scan.meta.get("exact_z"),
        "pass": bool(scan.meta["monotone_decreasing"]
                     and scan.values[-1] < 0.5 * scan.values[0]),
    }
    _emit(args, *_scan_table(scan), summary)
    return 0


def _cmd_kinetic_scan(args) -> int:
    eps_list = _parse_floats(args.eps_list)
    grid = TimeGrid(args.t, args.n_report)
    scan = solvers.kinetic_error_scan(
        args.H, eps_list, grid, args.replicas, args.seed, threads=args.threads,
    )
    lo, hi = scan.slope_ci
    summary = {
        "H": args.H,
        "slope_vs_log_eps": -scan.slope,
        "slope_ci_vs_log_eps": [-hi, -lo],
        "expected_slope": args.H,
        # the slope the exact chain covariance gives on these grids, and the z against it
        "exact_slope_vs_log_eps": -scan.meta["exact_slope"],
        "slope_z": -scan.meta["slope_z"],
        "slope_pass": abs(scan.meta["slope_z"]) <= 3.0,
        "identity_defect_max": scan.meta["identity_defect_max"],
        "holder_slope_vs_log_eps": -scan.meta["holder_slope"],
        "holder_gamma": scan.meta["holder_gamma"],
        # the seminorm is sampled on the index lags 1, 2, 4, ... <= n_report only
        "holder_lags": "dyadic",
    }
    _emit(args, *_scan_table(scan), summary)
    return 0


def _cmd_homogenize(args) -> int:
    from scipy import stats as _stats

    G = _chaos_from_args(args)
    # a zero factor passes None, and homogenize then drops the drift h(x) g(y)
    h = None if args.hfun == "zero" else solvers.FLOWS[args.hfun].f
    g = None if args.gfun == "zero" else _G_PRESETS[args.gfun]
    if not np.isfinite(args.x0):
        raise ValueError(f"--x0 must be finite, got {args.x0}")
    run = solvers.homogenize(G, args.H, args.eps, solvers.FLOWS[args.f], h, g, args.replicas,
                             args.seed, args.t, args.x0, args.threads)
    ks = _stats.ks_2samp(run.x_eps, run.x_lim)
    summary = {
        "regime": chaos.classify_regime(G.hermite_rank, args.H).kind.value,
        "c": run.c,
        # the limit's drift is g_bar h(x) dt: 0 without a drift
        "g_bar": run.g_bar,
        **run.resolution,
        **run.steps,
        "ks_statistic": float(ks.statistic),
        "ks_pvalue": float(ks.pvalue),
        "pass": bool(ks.pvalue > 0.01),
        "endpoint_mean": harness.fsum_mean(run.x_eps),
        "endpoint_variance": harness.fsum_variance(run.x_eps),
    }
    _emit(args, ["replica", "endpoint"], enumerate(run.x_eps), summary)
    return 0 if summary["pass"] else 2


def _cmd_verify(args) -> int:
    from . import acceptance

    report = acceptance.run_all(suite=args.suite, seed=args.seed,
                                threads=args.threads)
    # a JSON report without --out takes stdout, so the status lines go to stderr
    to_stdout = args.format == "json" and not args.out
    lines = sys.stderr if to_stdout else sys.stdout
    for res in report["criteria"]:
        status = "PASS" if res["passed"] else "FAIL"
        print(f"[{status}] criterion {res['number']:2d} {res['name']}"
              f" ({res['seconds']:.1f}s)", file=lines)
    print(f"suite={args.suite} passed={report['passed']}"
          f" total={report['seconds']:.1f}s", file=lines)
    if args.out or to_stdout:
        rows = [(r["number"], r["name"], r["passed"], r["seconds"]) for r in report["criteria"]]
        _emit(args, ["criterion", "name", "passed", "seconds"], rows, report)
    return 0 if report["passed"] else 2


# ------------------------------------------------------------------ parser


def _at_least(minimum: int):
    """The argparse type of an integer option whose least value is ``minimum``."""
    def count(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return count


_positive_int = _at_least(1)


def _add_parser(sub, command: str, func, replicas: tuple[int, int] | None = None,
                seed_default: int = 0, hurst: bool = True) -> argparse.ArgumentParser:
    """A subcommand parser carrying its own copy of the common options.

    argparse parent parsers share their Action objects between children,
    so a per-subcommand default set through a parent would leak into
    every other subcommand; each subcommand builds its own instead.  Only
    the subcommands that draw samples take --replicas, as replicas =
    (least count, default): a subcommand that reports a sample variance
    needs 2, and one that reports the SE of one 3; all but verify take --H.
    """
    sp = sub.add_parser(command)
    sp.set_defaults(func=func)
    sp.add_argument("--seed", type=int, default=seed_default, help="master seed")
    if replicas is not None:
        minimum, default = replicas
        sp.add_argument("--replicas", type=_at_least(minimum), default=default,
                        help=f"Monte Carlo replicas (at least {minimum})")
    sp.add_argument("--out", type=str, default=None,
                    help="output path prefix (writes <out>.csv/.json/.config)")
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.add_argument("--threads", type=_positive_int, default=1, help="worker threads")
    if hurst:
        sp.add_argument("--H", type=float, required=True)
    return sp


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first ``main`` call and reused by later ones.

    Each parse fills a new namespace from the actions' defaults, and no
    action or default is changed after the build, so one call's options
    never reach the next.
    """
    p = argparse.ArgumentParser(
        prog="foulim",
        description="Sampling and Monte Carlo verification for fractional "
                    "Ornstein-Uhlenbeck scaling limits",
        # @PREFIX.config reads a run's echo back as arguments
        fromfile_prefix_chars="@",
    )
    sub = p.add_subparsers(dest="command")

    sp = _add_parser(sub, "sample-fbm", _cmd_fbm_paths, replicas=(1, 1))
    sp.add_argument("--horizon", type=float, default=1.0)
    sp.add_argument("--n-steps", type=_positive_int, default=256)

    sp = _add_parser(sub, "sample-fou", _cmd_sample_fou, replicas=(1, 1))
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--horizon", type=float, default=1.0)
    sp.add_argument("--n-steps", type=_positive_int, default=None)

    sp = _add_parser(sub, "rho", _cmd_rho)
    sp.add_argument("--s-max", type=float, default=50.0)
    sp.add_argument("--n-points", type=_positive_int, default=101)

    sp = _add_parser(sub, "chaos", _cmd_chaos)
    sp.add_argument("--coeffs", type=str, required=True,
                    help="comma-separated Hermite coefficients c_0,c_1,...")
    sp.add_argument("--eps", type=float, default=None)

    sp = _add_parser(sub, "constants", _cmd_constants)
    sp.add_argument("--coeffs", type=str, required=True)

    sp = _add_parser(sub, "hermite-sample", _cmd_hermite_sample, replicas=(1, 1))
    sp.add_argument("--m", type=_positive_int, default=2)
    sp.add_argument("--horizon", type=float, default=1.0)
    sp.add_argument("--n-steps", type=_positive_int, default=200)

    sp = _add_parser(sub, "clt-scan", _cmd_clt_scan, replicas=(3, 2000))
    sp.add_argument("--coeffs", type=str, required=True)
    sp.add_argument("--t", type=float, default=1.0)
    sp.add_argument("--eps-list", type=str, default="0.1,0.05,0.02")

    sp = _add_parser(sub, "l2-hermite", _cmd_l2_hermite, replicas=(2, 500))
    sp.add_argument("--coeffs", type=str, required=True)
    sp.add_argument("--t", type=float, default=1.0)
    sp.add_argument("--eps-list", type=str, default="0.2,0.1,0.05")

    sp = _add_parser(sub, "kinetic-scan", _cmd_kinetic_scan, replicas=(2, 200))
    sp.add_argument("--t", type=float, default=1.0)
    sp.add_argument("--eps-list", type=str, default="0.1,0.05,0.02,0.01")
    sp.add_argument("--n-report", type=_positive_int, default=50)

    sp = _add_parser(sub, "homogenize", _cmd_homogenize, replicas=(2, 1000))
    sp.add_argument("--coeffs", type=str, required=True)
    sp.add_argument("--eps", type=float, default=0.02)
    sp.add_argument("--t", type=float, default=1.0)
    sp.add_argument("--x0", type=float, default=0.0)
    sp.add_argument("--f", choices=sorted(solvers.FLOWS), default="sin2")
    sp.add_argument("--hfun", choices=sorted(solvers.FLOWS), default="zero")
    sp.add_argument("--gfun", choices=sorted([*_G_PRESETS, "zero"]), default="zero")

    # the gate runs from the pinned suite seed unless explicitly overridden
    sp = _add_parser(sub, "verify", _cmd_verify, seed_default=MASTER_SEED, hurst=False)
    sp.add_argument("--suite", choices=["quick", "full"], default="quick")

    return p


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)  # None: sys.argv[1:]
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    if args.command is None:
        parser.print_help()
        return 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
