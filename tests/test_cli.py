import argparse
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fbm_paths, slope_se, tilt_exact_slopes
from foulim import acceptance, chaos, cli, exact, fgn, fou, harness, hermite, output, solvers
from foulim.chaos import ChaosFunction
from foulim.paths import TimeGrid
from foulim.streams import keys


def run(args):
    return cli.main(args)


def test_chaos_subcommand_boundary_classification(tmp_path):
    out = tmp_path / "chaos"
    rc = run(["chaos", "--H", "0.75", "--coeffs", "0,0,1", "--format", "json",
              "--out", str(out)])
    assert rc == 0
    doc = json.loads((tmp_path / "chaos.json").read_text())
    assert doc["hermite_rank"] == 2
    assert doc["h_star"] == pytest.approx(0.5)
    assert doc["regime"] == "boundary"
    assert "ln" in doc["alpha_formula"]
    assert doc["schema_version"] == 1


def test_sample_fbm_bytes_match_per_replica_paths(tmp_path):
    # one batched fGN call over the per-replica streams writes the same
    # bytes as sampling each replica's fBM path on its own
    H, n_steps, seed = 0.35, 100, 123
    rc = run(["sample-fbm", "--H", str(H), "--n-steps", str(n_steps),
              "--replicas", "4", "--seed", str(seed), "--out", str(tmp_path / "b")])
    assert rc == 0
    grid = TimeGrid(1.0, n_steps)
    rows = [(r, t, v) for r in range(4)
            for t, v in zip(grid.times(),
                            fbm_paths(grid, H, keys(seed, "cli-fbm", r))[0])]
    output.write_csv(str(tmp_path / "ref.csv"), ["replica", "t", "value"], rows)
    assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_sample_fbm_deterministic_and_config_round_trip(tmp_path):
    a = tmp_path / "runa"
    b = tmp_path / "runb"
    args = ["sample-fbm", "--H", "0.7", "--n-steps", "64", "--replicas", "3",
            "--seed", "9"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert (tmp_path / "runa.csv").read_bytes() == (tmp_path / "runb.csv").read_bytes()
    # re-running from the config echo reproduces the run bit-exactly
    c = tmp_path / "runc"
    assert run(["@" + str(tmp_path / "runa.config"), "--out", str(c)]) == 0
    assert (tmp_path / "runc.csv").read_bytes() == (tmp_path / "runa.csv").read_bytes()


def test_csv_schema_and_float_format(tmp_path):
    out = tmp_path / "rho"
    assert run(["rho", "--H", "0.6", "--s-max", "2.0", "--n-points", "5",
                "--out", str(out)]) == 0
    lines = (tmp_path / "rho.csv").read_text().splitlines()
    assert lines[0] == "s,rho"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0
    # 17-significant-digit round trip
    val = float(lines[3].split(",")[1])
    assert f"{val:.17g}" == lines[3].split(",")[1]


def _csv_writer_bytes(header, rows) -> str:
    """What csv.writer, QUOTE_MINIMAL with "\n" line ends, writes for the ``fmt`` of each cell."""
    import csv
    import io

    buf = io.StringIO()
    w = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    w.writerow(header)
    w.writerows([output.fmt(v) for v in row] for row in rows)
    return buf.getvalue()


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_CELLS = st.one_of(
    _FLOATS, _FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**70, 2**70), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans(), st.booleans().map(np.bool_),
    st.text(st.sampled_from(["a", "b", " ", ",", '"', "\n", "\r", "'", "é"]), max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(header=st.lists(st.text(st.sampled_from(["x", ",", '"', "\n"]), max_size=3),
                       min_size=1, max_size=3),
       rows=st.lists(st.one_of(st.lists(_CELLS, max_size=4),
                               st.lists(_FLOATS, min_size=1, max_size=3).map(tuple)),
                     max_size=6))
def test_write_csv_writes_the_bytes_of_csv_writer(header, rows):
    # numeric rows by their printf template and text cells by hand, as csv.writer
    # writes the fmt of every cell: floats, numpy scalars, ints, bools, nan/inf,
    # text with commas, quotes and newlines, and a lone empty cell
    import io

    buf = io.StringIO()
    output.write_csv(buf, header, rows)
    assert buf.getvalue() == _csv_writer_bytes(header, rows)


def test_constants_command_m1_limit_is_sigma(tmp_path):
    out = tmp_path / "const"
    assert run(["constants", "--H", "0.8", "--coeffs", "0,1", "--format", "json",
                "--out", str(out)]) == 0
    doc = json.loads((tmp_path / "const.json").read_text())
    assert doc["regime"] == "long_range"
    assert doc["c"] == pytest.approx(fou.stationary_sigma(0.8), rel=1e-9)
    assert doc["sigma"] == pytest.approx(fou.stationary_sigma(0.8), rel=1e-12)


def test_sample_fou_csv(tmp_path):
    out = tmp_path / "fou"
    assert run(["sample-fou", "--H", "0.7", "--eps", "0.1", "--horizon", "0.5",
                "--n-steps", "100", "--replicas", "2", "--seed", "3",
                "--out", str(out)]) == 0
    lines = (tmp_path / "fou.csv").read_text().splitlines()
    assert lines[0] == "replica,t,value"
    assert len(lines) == 1 + 2 * 101


@pytest.mark.filterwarnings("error::UserWarning")
def test_hermite_sample_runs(tmp_path, capsys):
    out = tmp_path / "herm"
    assert run(["hermite-sample", "--H", "0.7", "--m", "2", "--n-steps", "50",
                "--replicas", "2", "--seed", "4", "--out", str(out)]) == 0
    lines = (tmp_path / "herm.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 51
    # the noise cells are fixed by the grid: a config echo that still sets
    # a noise window is a usage error
    echo = (tmp_path / "herm.config").read_text()
    assert "xi" not in echo
    old = tmp_path / "old.config"
    old.write_text(echo + "--xi-window=40.0\n--n-xi=2000\n")
    assert run(["@" + str(old), "--out", str(tmp_path / "old")]) == 1
    assert ("unrecognized arguments: --xi-window=40.0 --n-xi=2000"
            in capsys.readouterr().err)
    assert not (tmp_path / "old.csv").exists()


def test_hermite_sample_bytes_independent_of_threads(tmp_path):
    # 300 replicas span two fixed-size chunks, so two threads really split them
    args = ["hermite-sample", "--H", "0.7", "--m", "2", "--n-steps", "20",
            "--replicas", "300", "--seed", "5"]
    for threads in ("1", "2"):
        assert run(args + ["--threads", threads, "--out", str(tmp_path / threads)]) == 0
    for ext in ("csv", "json"):
        assert (tmp_path / f"1.{ext}").read_bytes() == (tmp_path / f"2.{ext}").read_bytes()


@pytest.mark.parametrize("command", ["sample-fbm", "sample-fou"])
def test_sample_bytes_independent_of_threads(command, tmp_path, monkeypatch):
    # 300 replicas span two fixed-size chunks, handed to the requested workers
    workers = []
    run_replicated = harness.run_replicated

    def spy(n, seed, name, make_chunk, threads=1):
        workers.append(threads)
        return run_replicated(n, seed, name, make_chunk, threads)

    monkeypatch.setattr(harness, "run_replicated", spy)
    args = [command, *REQUIRED_ARGS[command], "--n-steps", "100", "--replicas", "300",
            "--seed", "5"]
    for threads in ("1", "2"):
        assert run(args + ["--threads", threads, "--out", str(tmp_path / threads)]) == 0
    assert workers == [1, 2]
    for ext in ("csv", "json"):
        assert (tmp_path / f"1.{ext}").read_bytes() == (tmp_path / f"2.{ext}").read_bytes()


def test_usage_errors_exit_1(tmp_path, capsys):
    assert run(["no-such-command"]) == 1
    assert run(["sample-fbm"]) == 1  # missing required --H
    assert run([]) == 1


def test_domain_errors_exit_2(tmp_path, capsys):
    # Hurst parameter out of range -> numerical/domain failure
    assert run(["sample-fbm", "--H", "1.7", "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert any(line.startswith("error:") and "Hurst parameter must lie in (0, 1)" in line
               for line in err.splitlines()), err


@pytest.mark.parametrize("argv, message", [
    (["l2-hermite", "--eps-list", "0,0.1,0.2"], "eps must lie in (0, 1]"),
    (["l2-hermite", "--eps-list", "0.2,0.1,-0.05"], "eps must lie in (0, 1]"),
    (["l2-hermite", "--eps-list", "2,1,0.5"], "eps must lie in (0, 1]"),
    (["l2-hermite", "--t", "0"], "horizon must be positive"),
    (["kinetic-scan", "--eps-list", "2,1,0.5"], "eps must lie in (0, 1]"),
    (["kinetic-scan", "--eps-list", "0,0.1,0.2"], "eps must lie in (0, 1]"),
    (["homogenize", "--eps", "0"], "eps must lie in (0, 1]"),
    (["homogenize", "--eps", "nan"], "eps must lie in (0, 1]"),
    (["sample-fou", "--eps", "0"], "eps must lie in (0, 1]"),
    # a non-finite horizon is rejected before it becomes a step count
    (["clt-scan", "--t", "inf"], "horizon must be positive and finite, got inf"),
    (["homogenize", "--t", "nan"], "horizon must be positive and finite, got nan"),
    (["sample-fou", "--horizon", "nan"], "horizon must be positive and finite, got nan"),
    (["kinetic-scan", "--t", "nan"], "horizon must be positive and finite, got nan"),
    (["hermite-sample", "--horizon", "nan"], "horizon must be positive and finite, got nan"),
    (["l2-hermite", "--t", "inf"], "horizon must be positive and finite, got inf"),
    (["rho", "--s-max", "nan"], "--s-max must be finite and >= 0, got nan"),
    (["rho", "--s-max", "-1"], "--s-max must be finite and >= 0, got -1.0"),
    # a non-finite initial state is rejected before the slow/fast solve
    (["homogenize", "--x0", "nan"], "--x0 must be finite, got nan"),
    (["homogenize", "--x0", "inf"], "--x0 must be finite, got inf"),
    # a step whose square underflows cannot carry the Hermite engine's covariance
    (["hermite-sample", "--m", "2", "--horizon", "1e-300"], "too small for the Hermite engine"),
    (["l2-hermite", "--t", "1e-300"], "too small for the Hermite engine"),
    (["homogenize", "--H", "0.85", "--t", "1e-300"], "too small for the Hermite engine"),
    # a horizon past the noise cells' far edge, and fine grids beyond the
    # engine's step cap (a count beyond int64, and 291 TiB of cells), refused
    # before any array is built or any stride searched
    (["hermite-sample", "--horizon", "1e31"],
     "horizon 1e+31 reaches the Hermite far edge 1e+30"),
    (["l2-hermite", "--t", "1e31"],
     "horizon 1e+31 reaches the Hermite far edge 1e+30"),
    (["l2-hermite", "--t", "1e29"],
     "39999999999999994039985552490496 steps exceed the Hermite engine's cap of 10000"),
    (["l2-hermite", "--eps-list", "0.2,0.1,1e-12"],
     "20000000000000 steps exceed the Hermite engine's cap of 10000"),
    # a step count that is not finite, refused before the exact variances'
    # quadrature, or beyond the circulant embedding cap
    (["clt-scan", "--t", "1e308"], "gives no finite step count"),
    (["homogenize", "--t", "1e308"], "gives no finite step count"),
    (["sample-fou", "--eps", "1e-300"], "exceed the circulant embedding cap"),
    # a window of 1 / eps steps that overflows a float, refused before it is counted
    (["kinetic-scan", "--eps-list", "0.1,1e-320"], "~inf lags exceed the circulant embedding cap"),
], ids=["l2-zero", "l2-negative", "l2-above-one", "l2-zero-horizon",
        "kinetic-above-one", "kinetic-zero", "homogenize-eps-zero", "homogenize-eps-nan",
        "sample-fou-eps-zero", "clt-horizon-inf",
        "homogenize-horizon-nan", "sample-fou-horizon-nan", "kinetic-horizon-nan",
        "hermite-horizon-nan", "l2-horizon-inf", "rho-s-max-nan", "rho-s-max-negative",
        "homogenize-x0-nan", "homogenize-x0-inf", "hermite-tiny-horizon", "l2-tiny-horizon",
        "homogenize-tiny-horizon", "hermite-horizon-past-far-edge", "l2-horizon-past-far-edge",
        "l2-fine-grid-beyond-int64", "l2-fine-grid-291-tib", "clt-horizon-huge",
        "homogenize-horizon-huge", "sample-fou-eps-tiny", "kinetic-eps-subnormal"])
def test_scan_domain_errors_exit_2(argv, message, tmp_path, capsys):
    command = argv[0]
    args = [command, *REQUIRED_ARGS[command], *argv[1:], *_few_replicas(command),
            "--out", str(tmp_path / "x")]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert any(line.startswith("error:") and message in line
               for line in err.splitlines()), err
    assert not list(tmp_path.iterdir())


def test_clt_scan_grid_beyond_the_embedding_cap_exits_2(monkeypatch, tmp_path, capsys):
    # a cap of 1000 lags stands in for the real one, so eps 0.001 (2,000 steps
    # on the coarsest grid, eps/2) is refused as eps 1e-6 is at the real cap,
    # before any quadrature or sampling
    monkeypatch.setattr(fgn, "MAX_EMBEDDING_LAGS", 1000)
    assert run(["clt-scan", "--H", "0.6", "--coeffs", "0,0,1", "--replicas", "4",
                "--eps-list", "0.1,0.01,0.001", "--out", str(tmp_path / "x")]) == 2
    assert ("2000 steps exceed the circulant embedding cap of 1000 lags"
            in capsys.readouterr().err)
    assert not list(tmp_path.iterdir())


def test_kinetic_scan_window_beyond_the_embedding_cap_exits_2(monkeypatch, tmp_path, capsys):
    # a cap of 1000 lags stands in for the real one, so eps 0.005 (a window of
    # 2,000 steps of 0.1) is refused, before the chain's covariance is built
    monkeypatch.setattr(fgn, "MAX_EMBEDDING_LAGS", 1000)
    monkeypatch.setattr(exact, "kinetic_chain_autocovariance", None)
    assert run(["kinetic-scan", "--H", "0.7", "--replicas", "4",
                "--eps-list", "0.1,0.005", "--out", str(tmp_path / "x")]) == 2
    assert ("2000 lags exceed the circulant embedding cap of 1000 lags"
            in capsys.readouterr().err)
    assert not list(tmp_path.iterdir())


def _unable_to_allocate(*args, **kwargs):
    raise MemoryError("Unable to allocate 74.5 GiB for an array")


@pytest.mark.parametrize("argv, patch", [
    (["kinetic-scan", "--H", "0.7", "--n-report", "100000", "--replicas", "2"],
     (solvers, "kinetic_error_scan")),
    (["rho", "--H", "0.5", "--n-points", "1000000000"], (cli.np, "linspace")),
], ids=["kinetic-scan", "rho"])
def test_a_request_larger_than_memory_exits_2(argv, patch, monkeypatch, tmp_path, capsys):
    # the allocation fails in a stand-in, so nothing of that size is asked for
    monkeypatch.setattr(*patch, _unable_to_allocate)
    assert run([*argv, "--out", str(tmp_path / "x")]) == 2
    assert "error: Unable to allocate 74.5 GiB" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("eps_list", ["0.1", "0.1,0.1"])
def test_kinetic_scan_refuses_a_single_eps_before_drawing(eps_list, monkeypatch,
                                                          tmp_path, capsys):
    # one distinct eps has no slope: the kinetic scan wrote NaN slopes and a NaN
    # CI, and l2-hermite called one distance "monotone_decreasing", both with exit 0
    monkeypatch.setattr(fgn, "StationarySampler", None)
    monkeypatch.setattr(hermite, "_kernel", None)
    for argv, scan in [(["kinetic-scan", "--H", "0.7"], "kinetic scan"),
                       (["l2-hermite", "--H", "0.8", "--coeffs", "0,1"], "L2 Hermite scan")]:
        assert run([*argv, "--eps-list", eps_list, "--replicas", "2",
                    "--out", str(tmp_path / "x")]) == 2
        assert (f"error: {scan} needs at least 2 distinct eps values"
                in capsys.readouterr().err)
        assert not list(tmp_path.iterdir())


# the required arguments of every subcommand but verify
REQUIRED_ARGS = {
    "sample-fbm": ["--H", "0.5"], "sample-fou": ["--H", "0.5", "--eps", "0.1"],
    "rho": ["--H", "0.5"], "chaos": ["--H", "0.5", "--coeffs", "0,1"],
    "constants": ["--H", "0.5", "--coeffs", "0,1"], "hermite-sample": ["--H", "0.7"],
    "clt-scan": ["--H", "0.6", "--coeffs", "0,0,1"],
    "l2-hermite": ["--H", "0.8", "--coeffs", "0,1"], "kinetic-scan": ["--H", "0.7"],
    "homogenize": ["--H", "0.6", "--coeffs", "0,0,1"],
}
# the subcommands that draw samples, the only ones that take --replicas
SAMPLING = {"sample-fbm", "sample-fou", "hermite-sample", "clt-scan", "l2-hermite",
            "kinetic-scan", "homogenize"}


def _few_replicas(command):
    """A small --replicas each sampling subcommand takes: 3 for clt-scan's variance SE, else 2."""
    if command not in SAMPLING:
        return []
    return ["--replicas", "3" if command == "clt-scan" else "2"]


def test_seed_defaults_per_subcommand():
    # argparse parents share Action objects: a default set for one
    # subcommand must not leak into the others
    parser = cli._build_parser()
    subactions = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert set(subactions.choices) == set(REQUIRED_ARGS) | {"verify"}
    for command, argv in REQUIRED_ARGS.items():
        assert parser.parse_args([command, *argv]).seed == 0, command
    assert parser.parse_args(["verify"]).seed == acceptance.MASTER_SEED
    assert parser.parse_args(["verify", "--seed", "5"]).seed == 5


def test_successive_calls_share_one_parser_and_leak_no_options(tmp_path):
    # the parser is built once per process; each call still starts from the defaults
    first, second, third = (tmp_path / name for name in ("first", "second", "third"))
    assert run(["kinetic-scan", "--H", "0.3", "--n-report", "4", "--eps-list", "0.1,0.05",
                "--replicas", "3", "--seed", "5", "--format", "json", "--out", str(first)]) == 0
    assert run(["rho", "--H", "0.5", "--s-max", "2", "--n-points", "3",
                "--out", str(second)]) == 0
    assert run(["kinetic-scan", "--H", "0.3", "--replicas", "3",
                "--eps-list", "0.1,0.05", "--out", str(third)]) == 0
    assert cli._build_parser.cache_info().currsize == 1
    echoes = [p.with_suffix(".config").read_text().splitlines() for p in (first, second, third)]
    assert echoes[1] == ["rho", "--H=0.5", "--format=csv", "--n-points=3", "--s-max=2",
                         "--seed=0"]
    first_opts, third_opts = (dict(line.split("=", 1) for line in e[1:]) for e in echoes[::2])
    assert echoes[2][0] == "kinetic-scan"
    assert third_opts == {**first_opts, "--format": "csv", "--n-report": "50", "--seed": "0"}


@pytest.mark.parametrize("command", sorted(SAMPLING))
def test_non_positive_replicas_is_a_usage_error(command, tmp_path, capsys):
    for replicas in ("0", "-3"):
        argv = [command, *REQUIRED_ARGS[command], "--replicas", replicas,
                "--out", str(tmp_path / "x")]
        assert run(argv) == 1
        assert "--replicas: must be a positive integer" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["chaos", "constants", "rho", "verify"])
def test_replicas_on_a_command_that_draws_nothing_is_a_usage_error(command, tmp_path,
                                                                   capsys):
    # these never read --replicas, so they do not take it
    argv = [command, *REQUIRED_ARGS.get(command, []), "--replicas", "5",
            "--out", str(tmp_path / "x")]
    assert run(argv) == 1
    assert "unrecognized arguments: --replicas 5" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("n_points", ["0", "-2"])
def test_non_positive_rho_points_is_a_usage_error(n_points, tmp_path, capsys):
    argv = ["rho", "--H", "0.6", "--n-points", n_points, "--out", str(tmp_path / "x")]
    assert run(argv) == 1
    assert "--n-points: must be a positive integer" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, option", [
    ("sample-fbm", "--n-steps"), ("sample-fou", "--n-steps"), ("hermite-sample", "--n-steps"),
    ("hermite-sample", "--m"), ("kinetic-scan", "--n-report"),
])
def test_non_positive_counts_are_usage_errors(command, option, tmp_path, capsys):
    for value in ("0", "-2"):
        argv = [command, *REQUIRED_ARGS[command], option, value, "--out", str(tmp_path / "x")]
        assert run(argv) == 1
        assert f"{option}: must be a positive integer" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_hermite_order_above_the_cap_is_a_domain_error(tmp_path, capsys):
    argv = ["hermite-sample", *REQUIRED_ARGS["hermite-sample"], "--m", "4",
            "--out", str(tmp_path / "x")]
    assert run(argv) == 2
    assert "exceeds cap 3" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_non_positive_threads_is_a_usage_error(threads, tmp_path, capsys):
    argv = ["rho", "--H", "0.6", "--threads", threads, "--out", str(tmp_path / "x")]
    assert run(argv) == 1
    assert "--threads: must be a positive integer" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["constants", "chaos", "clt-scan", "l2-hermite",
                                     "homogenize"])
@pytest.mark.parametrize("coeffs, message", [
    ("", "need at least one Hermite coefficient"),
    ("0,nan", "Hermite coefficients must be finite"),
    ("0,inf,1", "Hermite coefficients must be finite"),
    (",".join(["0", "1"] + ["0"] * 169 + ["1e-300"]), "Hermite orders above 170 are refused"),
], ids=["empty", "nan", "inf", "order-171"])
def test_bad_coefficients_exit_2(command, coeffs, message, tmp_path, capsys):
    argv = [command, *REQUIRED_ARGS[command], "--coeffs", coeffs, *_few_replicas(command),
            "--out", str(tmp_path / "x")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert any(line.startswith("error:") and message in line
               for line in err.splitlines()), err
    assert not list(tmp_path.iterdir())


def test_constants_refuse_order_171_and_take_order_170(tmp_path, capsys):
    # 171! overflows a float: an order-171 term made the constants NaN
    # (not JSON) with exit 0; order 170 is the last that k! holds
    head = ["constants", "--H", "0.3", "--format", "json", "--coeffs"]
    order_171 = ",".join(["0", "1"] + ["0"] * 169 + ["1e-300"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([*head, order_171, "--out", str(tmp_path / "x")]) == 2
        assert "error: Hermite orders above 170" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        assert run([*head, order_171.rsplit(",", 2)[0] + ",1e-300",
                    "--out", str(tmp_path / "y")]) == 0
    summary = json.loads((tmp_path / "y.json").read_text(), parse_constant=pytest.fail)
    assert np.isfinite(summary["A_self"]) and np.isfinite(summary["c"])


def test_numerical_failures_exit_2(monkeypatch, capsys):
    def fail(exc):
        def raiser(*args, **kwargs):
            raise exc
        return raiser

    for exc in (fgn.SamplerInfeasibleError("embedding failed"),
                FloatingPointError("slow variable exceeded 1e+08")):
        monkeypatch.setattr(fou, "rho", fail(exc))
        assert run(["rho", "--H", "0.6", "--n-points", "3"]) == 2
        assert f"error: {exc}" in capsys.readouterr().err
    # a programming error is not a numerical failure: it stays a traceback
    monkeypatch.setattr(fou, "rho", fail(TypeError("bad operand")))
    with pytest.raises(TypeError):
        run(["rho", "--H", "0.6", "--n-points", "3"])


@pytest.mark.parametrize("H", [0.001, 0.05, 0.1, 0.2, 0.3])
def test_constants_degenerate_wiener_constant(tmp_path, H):
    # G = He_1 at H < 1/2: int rho = 0, so A_self vanishes; at H = 0.001 it
    # comes out as -4.8e-15, whose c was NaN
    out = tmp_path / "const"
    assert run(["constants", "--H", str(H), "--coeffs", "0,1", "--format", "json",
                "--out", str(out)]) == 0
    doc = json.loads((tmp_path / "const.json").read_text())
    assert doc["regime"] == "short_range"
    assert abs(doc["A_self"]) <= 1e-4
    assert doc["c"] == np.sqrt(2.0 * max(doc["A_self"], 0.0))


@pytest.mark.parametrize("H, coeffs", [(0.75, "0,0,1"), (5.0 / 6.0, "0,0,0,1,0.5")],
                         ids=["m2", "m3"])
def test_constants_at_the_boundary_report_c_without_A(tmp_path, H, coeffs):
    # H*(rank) = 1/2: the A series diverges, and c = sqrt(2 m! D^m) |c_m| with
    # rho ~ D s^{2H-2} (1.128 for He_2 at H 0.75, where sqrt(2 m!) |c_m| = 2 was
    # reported); this exited 2 ("not a CLT component") when A was computed in
    # every regime but the long-range one
    out = tmp_path / "const"
    assert run(["constants", "--H", str(H), "--coeffs", coeffs, "--format", "json",
                "--out", str(out)]) == 0
    doc = json.loads((tmp_path / "const.json").read_text())
    assert doc["regime"] == "boundary"
    m, D = doc["hermite_rank"], fou.rho_asymptote_constant(H)
    assert doc["c"] == pytest.approx(np.sqrt(2.0 * math.factorial(m) * D**m), rel=1e-14)
    assert "A_self" not in doc


def test_constants_at_half_are_short_range(tmp_path):
    # rho = e^{-s} at H = 1/2: He_1 is short range, not a boundary, and
    # A = int e^{-s} + 0.5^2 2! int e^{-2s} = 1.25 (c was sqrt(2), the boundary's)
    out = tmp_path / "const"
    assert run(["constants", "--H", "0.5", "--coeffs", "0,1,0.5", "--format", "json",
                "--out", str(out)]) == 0
    doc = json.loads((tmp_path / "const.json").read_text())
    assert doc["regime"] == "short_range"
    assert doc["A_self"] == 1.25 and doc["c"] == np.sqrt(2.5)


def test_constants_take_long_range_ranks_above_the_hermite_engine(tmp_path, capsys):
    # c^2 = m! c_m^2 D^m / (H*(2H* - 1)) from rho's tail has no cap on m: rank 4
    # exited 2 ("order not supported: m=4 exceeds cap 3"), the Hermite engine's
    # cap, through K(H*, m); K and C(H) are reported for the engine's orders only
    docs = {}
    for coeffs in ("0,0,0,1", "0,0,0,0,1"):
        out = tmp_path / f"const{len(coeffs)}"
        assert run(["constants", "--H", "0.9", "--coeffs", coeffs, "--format", "json",
                    "--out", str(out)]) == 0
        docs[coeffs.count(",")] = json.loads(out.with_suffix(".json").read_text())
    assert docs[3]["regime"] == docs[4]["regime"] == "long_range"
    assert {"K_normalizer", "kernel_amplitude"} <= set(docs[3])
    assert not {"K_normalizer", "kernel_amplitude"} & set(docs[4])
    assert docs[4]["c"] == pytest.approx(10.43368303944916, rel=1e-14)
    # the samplers of Z^{H*,4} still refuse it
    assert run(["homogenize", "--H", "0.9", "--coeffs", "0,0,0,0,1", "--replicas", "50",
                "--out", str(tmp_path / "hom")]) == 2
    assert "order not supported: m=4" in capsys.readouterr().err


def test_constants_evaluate_rho_on_the_panel_nodes_once(tmp_path, monkeypatch):
    # orders 1 and 3 of a short-range G, for A and for the c derived from it:
    # one rho pass over the quadrature nodes, where c and A each took one per order
    lags = []
    rho = fou.rho
    monkeypatch.setattr(fou, "rho", lambda s, H: lags.append(np.size(s)) or rho(s, H))
    assert run(["constants", "--H", "0.4", "--coeffs", "0,1,0,0.5", "--format", "json",
                "--out", str(tmp_path / "const")]) == 0
    assert lags == [fou._panel_rule(1000.0)[0].size]
    doc = json.loads((tmp_path / "const.json").read_text())
    assert doc["regime"] == "short_range"
    assert doc["c"] == np.sqrt(2.0 * max(doc["A_self"], 0.0))


@pytest.mark.parametrize("H", [0.3, 0.7])
def test_kinetic_scan_non_commensurate_block_lengths(tmp_path, H):
    # eps 0.03 reads its window between the unit-rate chain's grid points
    out = tmp_path / "kin"
    assert run(["kinetic-scan", "--H", str(H), "--eps-list", "0.1,0.03,0.01",
                "--replicas", "50", "--format", "json", "--out", str(out)]) == 0
    doc = json.loads((tmp_path / "kin.json").read_text())
    assert doc["identity_defect_max"] < 1e-6
    assert len(doc["table"]["rows"]) == 3


def test_kinetic_scan_coprime_block_lengths(tmp_path, monkeypatch):
    # six eps with no common grid: each draws its own unit-rate chain, with
    # no common multiple of their steps
    made = []

    class Spy(fgn.StationarySampler):
        def __init__(self, acov, n, length=None):
            super().__init__(acov, n, length)
            made.append((n, self.length, self.m))

    monkeypatch.setattr(fgn, "StationarySampler", Spy)
    out = tmp_path / "kin"
    assert run(["kinetic-scan", "--H", "0.3", "--eps-list",
                "0.19,0.17,0.13,0.11,0.07,0.01", "--replicas", "20",
                "--format", "json", "--out", str(out)]) == 0
    # a window of T / eps units per eps, at step 0.1, each exact in law: the
    # five off-grid eps read every point of theirs, eps 0.01 every 20th of its
    # 1000 steps; 968 normals per replica (2,000 for one chain holding them all)
    assert made == [(53, 54, 54), (59, 60, 60), (77, 78, 80), (91, 92, 96),
                    (143, 144, 144), (50, 51, 50)]
    assert sum(2 * m for *_, m in made) == 968
    doc = json.loads((tmp_path / "kin.json").read_text())
    assert doc["identity_defect_max"] < 1e-6
    assert len(doc["table"]["rows"]) == 6


@pytest.mark.parametrize("coeffs, H, rc", [("0,0,1", 0.6, 0), ("0,1", 0.8, 0),
                                           ("0,0,1", 0.75, 2)])
def test_chaos_alpha_at_eps_one(tmp_path, capsys, coeffs, H, rc):
    # eps = 1 is in the domain; only the boundary scaling, with |ln eps| = 0, fails
    out = tmp_path / "chaos"
    assert run(["chaos", "--H", str(H), "--coeffs", coeffs, "--eps", "1",
                "--format", "json", "--out", str(out)]) == rc
    if rc == 0:
        assert json.loads((tmp_path / "chaos.json").read_text())["alpha"] == 1.0
    else:
        assert "error:" in capsys.readouterr().err


def test_clt_scan_json_summary(tmp_path):
    out = tmp_path / "scan"
    rc = run(["clt-scan", "--H", "0.6", "--coeffs", "0,0,1",
              "--eps-list", "0.2,0.1,0.05", "--replicas", "400",
              "--seed", "12", "--out", str(out)])
    assert rc == 0
    doc = json.loads((tmp_path / "scan.json").read_text())
    assert doc["regime"] == "short_range"
    assert doc["expected_slope"] == -1.0
    assert "slope_ci" in doc and len(doc["slope_ci"]) == 2
    # the coarsest rung whose exact bias is within budget
    assert doc["dt_ratio"] == 4.0 and doc["bias_budget_met"] is True
    assert doc["bias_budget"] == pytest.approx(0.1 * np.sqrt(2 / 399))
    assert len(doc["trapezoid_bias"]) == 3
    assert max(map(abs, doc["trapezoid_bias"])) <= doc["bias_budget"]
    _check_slope_verdict(doc)
    lines = (tmp_path / "scan.csv").read_text().splitlines()
    assert lines[0] == "eps,statistic,stderr,n"
    assert len(lines) == 4
    # the library scan resolves the same grid from the same inputs
    scan = harness.variance_scan(ChaosFunction([0, 0, 1]), 0.6, 1.0, [0.2, 0.1, 0.05], 400, 12)
    assert [r.split(",")[1] for r in lines[1:]] == [output.fmt(v) for v in scan.values]


def test_clt_scan_judges_the_boundary_slope_against_the_exact_one(tmp_path):
    # He_2 at H 0.75: Var ~ eps log(1/eps), whose slope over these scales is
    # -0.818, not the asymptotic -1
    out = tmp_path / "scan"
    assert run(["clt-scan", "--H", "0.75", "--coeffs", "0,0,1", "--eps-list",
                "0.05,0.02,0.01", "--replicas", "300", "--seed", "4", "--format", "json",
                "--out", str(out)]) == 0
    doc = json.loads((tmp_path / "scan.json").read_text())
    assert doc["regime"] == "boundary" and doc["expected_slope"] == -1.0
    assert doc["exact_slope"] == pytest.approx(-0.8177, abs=5e-4)
    _check_slope_verdict(doc)


# a variance scan and a kinetic scan, and the function that gives each its exact values
SLOPE_SCANS = {
    "clt-scan": (["clt-scan", "--H", "0.6", "--coeffs", "0,0,1", "--eps-list", "0.2,0.1,0.05",
                  "--replicas", "400", "--seed", "12"], "resolve_dt_ratio"),
    "kinetic-scan": (["kinetic-scan", "--H", "0.7", "--eps-list", "0.1,0.05,0.02",
                      "--replicas", "100", "--seed", "3"], "kinetic_sup_errors"),
}


def _slopes(doc):
    """A scan summary's fitted and exact slopes against log(1/eps), the SE and the z."""
    if "slope_vs_log_eps" in doc:  # kinetic-scan reports against log eps
        lo, hi = doc["slope_ci_vs_log_eps"]
        return (-doc["slope_vs_log_eps"], -doc["exact_slope_vs_log_eps"], slope_se((lo, hi)),
                -doc["slope_z"])
    return (doc["slope_vs_log_inv_eps"], doc["exact_slope"], slope_se(doc["slope_ci"]),
            doc["slope_z"])


def _check_slope_verdict(doc):
    """slope_z is (slope - exact slope) / SE, and slope_pass is |slope_z| <= 3."""
    slope, exact_slope, se, z = _slopes(doc)
    assert z == pytest.approx((slope - exact_slope) / se, rel=1e-12)
    assert doc["slope_pass"] == (abs(z) <= 3.0)


@pytest.mark.parametrize("command", sorted(SLOPE_SCANS))
@pytest.mark.parametrize("z, passed", [(2.99, True), (-2.99, True), (3.01, False),
                                       (-3.01, False), (5.0, False), (-5.0, False)])
def test_slope_pass_is_a_slope_within_3_se_of_the_exact_one(command, z, passed,
                                                           monkeypatch, tmp_path):
    argv, name = SLOPE_SCANS[command]
    assert run([*argv, "--format", "json", "--out", str(tmp_path / "a")]) == 0
    doc = json.loads((tmp_path / "a.json").read_text())
    _check_slope_verdict(doc)
    assert doc["slope_pass"]
    slope, exact_slope, se, _ = _slopes(doc)
    # the same draws, judged against an exact slope z SE below the fitted one
    tilt_exact_slopes(monkeypatch, name, {float(argv[2]): slope - z * se - exact_slope})
    assert run([*argv, "--format", "json", "--out", str(tmp_path / "b")]) == 0
    moved = json.loads((tmp_path / "b.json").read_text())
    assert _slopes(moved)[0] == slope and _slopes(moved)[2] == se
    assert _slopes(moved)[3] == pytest.approx(z, abs=1e-9)
    assert moved["slope_pass"] is passed


@pytest.mark.parametrize("argv", [["clt-scan", "--H", "0.6", "--coeffs", "0,0,1"],
                                  ["clt-scan", "--H", "0.8", "--coeffs", "0,1"],
                                  ["kinetic-scan", "--H", "0.7"]], ids=["sr", "lr", "kinetic"])
def test_a_two_replica_scan_writes_a_finite_slope_z(argv, tmp_path, capsys):
    # two replicas give two equal squared deviations, so a variance SE of 0: a
    # variance scan refuses them when it parses them (it wrote a CI 5e-16 wide and
    # a z of 1.8e16), and from 3 on its z is finite, as JSON requires; the kinetic
    # scan's is at 2
    replicas = "2"
    if argv[0] == "clt-scan":
        assert run([*argv, "--replicas", "2", "--out", str(tmp_path / "x")]) == 1
        assert "--replicas: must be at least 3, got 2" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        replicas = "3"
    assert run([*argv, "--replicas", replicas, "--format", "json",
                "--out", str(tmp_path / "x")]) == 0
    doc = json.loads((tmp_path / "x.json").read_text(), parse_constant=pytest.fail)
    assert np.isfinite(doc["slope_z"])
    assert doc["slope_pass"] == (abs(doc["slope_z"]) <= 3.0)


def test_clt_scan_reports_an_unmet_bias_budget_without_failing(tmp_path):
    # at H 0.05 even dt = eps/400 leaves a +9% bias: the run takes 400 and says so
    out = tmp_path / "scan"
    assert run(["clt-scan", "--H", "0.05", "--coeffs", "0,0,1", "--t", "0.1",
                "--replicas", "200", "--format", "json", "--out", str(out)]) == 0
    doc = json.loads((tmp_path / "scan.json").read_text())
    assert doc["dt_ratio"] == 400.0 and doc["bias_budget_met"] is False
    assert min(doc["trapezoid_bias"]) > doc["bias_budget"]


def test_homogenize_auto_dt_ratio_takes_the_coarsest_rung(tmp_path):
    out = tmp_path / "hom"
    assert run(["homogenize", "--H", "0.6", "--coeffs", "0,0,1", "--replicas", "600",
                "--seed", "3", "--format", "json", "--out", str(out)]) in (0, 2)
    doc = json.loads((tmp_path / "hom.json").read_text())
    assert doc["dt_ratio"] == 5.0 and doc["bias_budget_met"] is True
    assert doc["bias_budget"] == pytest.approx(0.1 * np.sqrt(2 / 599))
    assert len(doc["trapezoid_bias"]) == 1
    assert 0.0 < doc["trapezoid_bias"][0] <= doc["bias_budget"]
    assert not any(line.startswith("--dt-ratio")
                   for line in (tmp_path / "hom.config").read_text().splitlines())
    # solvers.homogenize resolves the same grid from the same inputs
    x, *_ = solvers.homogenize(ChaosFunction([0, 0, 1]), 0.6, 0.02, solvers.FLOWS["sin2"],
                               None, None, 600, 3)
    assert [r[1] for r in doc["table"]["rows"]] == [output.fmt(v) for v in x]


@pytest.mark.parametrize("hfun", ["zero", "one"])
def test_homogenize_linear_flow_overflow_exits_2(tmp_path, capsys, hfun):
    # x0 e^u at a driver of 1000 He_2 (|u| in the thousands) overflows to inf
    # without a warning, and the guard refuses it, with or without a drift
    argv = ["homogenize", "--H", "0.6", "--coeffs", "0,0,1000", "--f", "linear", "--x0", "1",
            "--hfun", hfun, "--gfun", "cos", "--replicas", "20", "--out", str(tmp_path / "x")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 2
    assert "or became NaN at step 1; the system blew up" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_config_echo_contents(tmp_path):
    out = tmp_path / "echo"
    assert run(["rho", "--H", "0.6", "--s-max", "1.0", "--n-points", "3",
                "--out", str(out)]) == 0
    # an argparse args file: the subcommand, then the options, sorted and
    # joined to their values; neither --out nor --threads is echoed
    assert (tmp_path / "echo.config").read_text().splitlines() == [
        "rho", "--H=0.59999999999999998", "--format=csv", "--n-points=3", "--s-max=1",
        "--seed=0"]


@pytest.mark.parametrize("H", ["0.6", "0.85"])
def test_homogenize_with_drift_runs_the_limit_solver(tmp_path, H):
    out = tmp_path / "hom"
    rc = run(["homogenize", "--H", H, "--coeffs", "0,0,1", "--hfun", "sin2",
              "--gfun", "cos", "--replicas", "30", "--seed", "5",
              "--format", "json", "--out", str(out)])
    assert rc in (0, 2)  # 2 is a rejected KS test, not an error
    doc = json.loads((tmp_path / "hom.json").read_text())
    assert doc["regime"] == ("short_range" if H == "0.6" else "long_range")
    assert doc["g_bar"] == pytest.approx(np.exp(-0.5))
    assert 0.0 <= doc["ks_pvalue"] <= 1.0
    assert np.isfinite(doc["endpoint_mean"]) and np.isfinite(doc["endpoint_variance"])
    assert rc == (0 if doc["pass"] else 2)


@pytest.mark.parametrize("H, hfun, steps", [
    ("0.6", "zero", {"limit_steps": 1}), ("0.6", "one", {"limit_steps": 100}),
    ("0.85", "sin2", {"limit_steps": 1, "hermite_steps": 400}),
    ("0.85", "one", {"limit_steps": 100, "hermite_steps": 400})])
def test_homogenize_reports_its_one_grid_and_its_limit_steps(tmp_path, monkeypatch, H, hfun,
                                                             steps):
    # one resolution per run; the limit steps only with a drift h that is not
    # f (sin + 2), and reads the 400-step Hermite path in the long range
    calls = []
    resolve = solvers.exact.resolve_dt_ratio

    def spy(*args):
        calls.append(args)
        return resolve(*args)

    monkeypatch.setattr(solvers.exact, "resolve_dt_ratio", spy)
    assert run(["homogenize", "--H", H, "--coeffs", "0,0,1", "--hfun", hfun, "--gfun", "cos",
                "--replicas", "20", "--format", "json", "--out", str(tmp_path / "hom")]) in (0, 2)
    doc = json.loads((tmp_path / "hom.json").read_text())
    assert len(calls) == 1 and doc["dt_ratio"] == resolve(*calls[0])[0]["dt_ratio"]
    assert {k: doc[k] for k in ("limit_steps", "hermite_steps") if k in doc} == steps


def test_homogenize_without_h_reports_the_g_bar_its_limit_used(tmp_path):
    # with --hfun zero there is no drift h(x) g(y), whatever --gfun: the run, and
    # its g_bar of 0, are those of --gfun zero (--gfun cos reported e^{-1/2})
    docs = []
    for gfun in ("zero", "cos"):
        assert run(["homogenize", "--H", "0.6", "--coeffs", "0,0,1", "--gfun", gfun,
                    "--replicas", "40", "--seed", "5", "--format", "json",
                    "--out", str(tmp_path / gfun)]) in (0, 2)
        docs.append(json.loads((tmp_path / f"{gfun}.json").read_text()))
    assert docs[0]["g_bar"] == docs[1]["g_bar"] == 0.0
    assert docs[0]["table"] == docs[1]["table"]


def test_homogenize_gfun_zero_is_no_drift_whatever_hfun(tmp_path):
    # --gfun zero has no field behind it: with --hfun sin2 the drift h(x) g(y)
    # is still absent, so the limit takes no steps and g_bar is 0
    assert run(["homogenize", "--H", "0.6", "--coeffs", "0,0,1", "--hfun", "sin2",
                "--gfun", "zero", "--replicas", "20", "--seed", "5", "--format", "json",
                "--out", str(tmp_path / "hom")]) in (0, 2)
    doc = json.loads((tmp_path / "hom.json").read_text())
    assert (doc["g_bar"], doc["limit_steps"]) == (0.0, 1)
    assert "zero" not in cli._G_PRESETS


@pytest.mark.parametrize("hfun, gfun", [pytest.param("zero", "zero", id="zero"),
                                        pytest.param("one", "cos", id="one")])
def test_long_range_homogenize_is_thread_invariant(tmp_path, hfun, gfun):
    # 300 replicas: the Hermite limit is drawn in a full chunk and a partial
    # one, on one or two workers; without drift both sides take the flow,
    # with it the Heun solver on both sides
    files = []
    for threads in ("1", "2"):
        out = tmp_path / f"hom{threads}"
        assert run(["homogenize", "--H", "0.85", "--coeffs", "0,0,1", "--hfun", hfun,
                    "--gfun", gfun, "--replicas", "300", "--seed", "9", "--threads", threads,
                    "--out", str(out)]) in (0, 2)
        files.append([(tmp_path / f"hom{threads}.{ext}").read_bytes()
                      for ext in ("csv", "json")])
    assert files[0] == files[1]


@pytest.mark.parametrize("command", ["clt-scan", "homogenize", "kinetic-scan", "l2-hermite"])
@pytest.mark.parametrize("replicas", [None, "1"])
def test_statistics_commands_need_two_replicas(command, replicas, tmp_path, capsys):
    # one replica leaves no sample variance to report: it is refused when parsed
    # (exit 1), below each subcommand's own least count (3 for clt-scan's variance
    # SE), and each default reaches that count; it was 1, refused by all four
    argv = [command, *REQUIRED_ARGS[command], "--out", str(tmp_path / "x")]
    least = 3 if command == "clt-scan" else 2
    if replicas is None:
        assert cli._build_parser().parse_args(argv).replicas >= least
        return
    assert run([*argv, "--replicas", replicas]) == 1
    assert f"--replicas: must be at least {least}, got 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_clt_scan_diagnostics_reuse_the_finest_scan_samples(tmp_path, monkeypatch):
    rows = []
    make_sampler = fou.path_sampler

    def spy(grid, H, eps):
        sampler = make_sampler(grid, H, eps)
        blocks = sampler.blocks

        def counted(keys):
            for block in blocks(keys):
                rows.append(len(block))
                yield block

        sampler.blocks = counted
        return sampler

    monkeypatch.setattr(fou, "path_sampler", spy)
    out = tmp_path / "scan"
    assert run(["clt-scan", "--H", "0.6", "--coeffs", "0,0,1", "--eps-list", "0.2,0.1,0.05",
                "--replicas", "1000", "--seed", "8", "--format", "json",
                "--out", str(out)]) == 0
    # the three eps share one spacing, so each replica draws one path, on
    # the finest grid: no extra pass at the finest eps
    assert sum(rows) == 1000
    monkeypatch.setattr(fou, "path_sampler", make_sampler)
    G = ChaosFunction([0, 0, 1])
    alpha = chaos.classify_regime(2, 0.6).alpha(0.05)
    doc = json.loads((tmp_path / "scan.json").read_text())
    oracle = harness.clt_diagnostics(harness._fou_endpoint_samples(
        G, 0.6, 1.0, 0.05, 1000, 8, "vscan-eps2", doc["dt_ratio"], alpha))
    diag = doc["diagnostics_at_finest_eps"]
    assert diag == pytest.approx(oracle, rel=1e-12, abs=0)


# a tiny run of every subcommand but verify (whose report carries timings)
CONFIG_RUNS = {
    "sample-fbm": ["--n-steps", "16", "--replicas", "2"],
    "sample-fou": ["--eps", "0.2", "--horizon", "0.2", "--n-steps", "20", "--replicas", "2"],
    "rho": ["--s-max", "2", "--n-points", "5"],
    "chaos": ["--eps", "0.1"],
    "constants": ["--coeffs", "0,0,1"],
    "hermite-sample": ["--n-steps", "20", "--replicas", "2"],
    "clt-scan": ["--eps-list", "0.2,0.1,0.05", "--replicas", "10"],
    "l2-hermite": ["--eps-list", "0.2,0.1", "--replicas", "4"],
    # blocks of 10, 3 and 1 master steps: the padded circulant length
    "kinetic-scan": ["--eps-list", "0.1,0.03,0.01", "--n-report", "10", "--replicas", "4"],
    "homogenize": ["--eps", "0.1", "--replicas", "4"],
}


@pytest.mark.parametrize("command", sorted(CONFIG_RUNS))
def test_config_round_trip_writes_the_same_bytes(command, tmp_path):
    # re-running from the emitted .config reproduces CSV and JSON byte for byte
    assert set(CONFIG_RUNS) == set(REQUIRED_ARGS)
    first = tmp_path / "first"
    rc = run([command, *REQUIRED_ARGS[command], *CONFIG_RUNS[command], "--seed", "7",
              "--out", str(first)])
    assert (tmp_path / "first.config").exists()
    again = tmp_path / "again"
    assert run([f"@{first}.config", "--out", str(again)]) == rc
    for ext in ("csv", "json"):
        assert (tmp_path / f"again.{ext}").read_bytes() == (tmp_path / f"first.{ext}").read_bytes()


def test_a_flag_after_the_config_file_overrides_it(tmp_path):
    first, again, reseeded = (tmp_path / name for name in ("first", "again", "reseeded"))
    argv = ["sample-fbm", "--H", "0.4", "--n-steps", "8", "--replicas", "2", "--seed", "7"]
    assert run([*argv, "--out", str(first)]) == 0
    assert run([f"@{first}.config", "--out", str(again)]) == 0
    assert run([f"@{first}.config", "--seed", "8", "--out", str(reseeded)]) == 0
    assert again.with_suffix(".csv").read_bytes() == first.with_suffix(".csv").read_bytes()
    assert reseeded.with_suffix(".csv").read_bytes() != first.with_suffix(".csv").read_bytes()
    echo = reseeded.with_suffix(".config").read_text().splitlines()
    assert "--seed=8" in echo and "--seed=7" not in echo
    assert run([*argv[:-1], "8", "--out", str(tmp_path / "direct")]) == 0
    assert (tmp_path / "direct.csv").read_bytes() == reseeded.with_suffix(".csv").read_bytes()


_FBM = ["sample-fbm", "--H", "0.3", "--n-steps", "8"]


@pytest.mark.parametrize("argv, option", [
    (_FBM, ["--config", "{}"]), (_FBM, ["--config={}"]), (_FBM, ["--conf", "{}"]),
    (["clt-scan", *REQUIRED_ARGS["clt-scan"], "--replicas", "3"], ["--dt-ratio", "5"]),
    (["homogenize", *REQUIRED_ARGS["homogenize"], "--replicas", "2"], ["--dt-ratio", "5"]),
], ids=["config", "config-joined", "conf", "clt-dt-ratio", "homogenize-dt-ratio"])
def test_the_removed_config_option_fails_loudly(argv, option, tmp_path, capsys):
    # an echo is read back as @PREFIX.config; --config, and its abbreviation,
    # ran on the defaults when not a separate token, and are now unknown; so
    # is --dt-ratio, as every grid is the one exact.resolve_dt_ratio picks
    assert run([*argv, "--out", str(tmp_path / "first")]) == 0
    echo = str(tmp_path / "first.config")
    out = tmp_path / "out"
    out.mkdir()
    assert run([*argv, *(o.format(echo) for o in option), "--out", str(out / "x")]) == 1
    assert f"unrecognized arguments: {option[0][:6]}" in capsys.readouterr().err
    assert not list(out.iterdir())


def test_an_ini_echo_is_not_an_args_file(tmp_path, capsys):
    # the INI echo written before the args file is refused, not run on defaults
    old = tmp_path / "old.config"
    old.write_text("[run]\ncommand = rho\n\n[rho]\nH = 0.6\nn_points = 3\n")
    assert run([f"@{old}", "--out", str(tmp_path / "x")]) == 1
    assert "invalid choice: '[run]'" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_verify_reruns_from_its_config(tmp_path, monkeypatch):
    # a stub report stands in for the suite, whose report carries timings
    calls = []

    def run_all(**kw):
        calls.append(kw)
        return {"suite": kw["suite"], "seed": kw["seed"], "passed": True, "seconds": 0.5,
                "criteria": [{"number": 1, "name": "stub", "passed": True, "seconds": 0.5}]}

    monkeypatch.setattr(acceptance, "run_all", run_all)
    first, again = tmp_path / "first", tmp_path / "again"
    assert run(["verify", "--suite", "full", "--seed", "3", "--format", "json",
                "--out", str(first)]) == 0
    assert first.with_suffix(".config").read_text().splitlines() == [
        "verify", "--format=json", "--seed=3", "--suite=full"]
    assert run([f"@{first}.config", "--out", str(again)]) == 0
    assert calls[0] == calls[1] == {"suite": "full", "seed": 3, "threads": 1}
    for ext in ("json", "config"):
        assert (tmp_path / f"again.{ext}").read_bytes() == (tmp_path / f"first.{ext}").read_bytes()


def _float(lo, hi):
    return st.floats(lo, hi, exclude_min=True, exclude_max=True)


def _text(values):
    """A comma-separated list of floats, each written so it parses back exactly."""
    return ",".join(repr(v) for v in values)


def _eps_list(lo, hi, size):
    return st.lists(_float(lo, hi), min_size=size, max_size=size, unique=True).map(
        lambda v: _text(sorted(v, reverse=True)))


# centred: c_0 = 0
_COEFF = st.one_of(st.just(0.0), _float(0.1, 2.0), _float(-2.0, -0.1))
_COEFFS = st.lists(_COEFF, min_size=1, max_size=3).filter(any).map(lambda c: _text([0.0] + c))
_H = st.floats(0.05, 0.95)
_H_LONG = st.floats(0.55, 0.95)
_COMMON = {"--seed": st.integers(0, 2**31 - 1), "--format": st.sampled_from(["csv", "json"])}
_SAMPLING_COMMON = {**_COMMON, "--replicas": st.integers(2, 3)}
# tiny valid configurations over the benchmark's H range, l2-hermite and
# hermite-sample long range
CONFIG_SPACES = {
    "sample-fbm": {"--H": _H, "--horizon": _float(0.1, 2), "--n-steps": st.integers(1, 16)},
    "sample-fou": {"--H": _H, "--eps": _float(0.05, 1), "--horizon": _float(0.05, 0.3)},
    "rho": {"--H": _H, "--s-max": _float(0, 5), "--n-points": st.integers(1, 6)},
    "chaos": {"--H": _H, "--coeffs": _COEFFS, "--eps": _float(0, 1)},
    "constants": {"--H": _H, "--coeffs": _COEFFS},
    "hermite-sample": {"--H": _H_LONG, "--m": st.integers(1, 3),
                       "--horizon": _float(0.1, 2), "--n-steps": st.integers(1, 20)},
    # a variance scan's SE needs 3 replicas
    "clt-scan": {"--replicas": st.integers(3, 4), "--H": _H, "--coeffs": _COEFFS,
                 "--t": _float(0.1, 0.3), "--eps-list": _eps_list(0.1, 1, 3)},
    "l2-hermite": {"--H": _H_LONG, "--coeffs": _COEFF.filter(bool).map(
                       lambda c: _text([0.0, c])),
                   "--t": _float(0.1, 0.5), "--eps-list": _eps_list(0.1, 0.5, 2)},
    "kinetic-scan": {"--H": _H, "--t": _float(0.1, 0.5),
                     "--eps-list": _eps_list(0.02, 0.2, 3),
                     "--n-report": st.integers(2, 8)},
    "homogenize": {"--H": _H, "--coeffs": _COEFFS, "--eps": _float(0.05, 0.2),
                   "--t": _float(0.1, 0.3), "--x0": _float(-1, 1),
                   "--f": st.sampled_from(sorted(solvers.FLOWS)),
                   "--hfun": st.sampled_from(sorted(solvers.FLOWS)),
                   "--gfun": st.sampled_from(sorted([*cli._G_PRESETS, "zero"]))},
}


@pytest.mark.parametrize("command", sorted(CONFIG_SPACES))
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_config_round_trip_over_random_configurations(command, data):
    # any valid configuration, re-run from its .config echo alone, writes
    # the same CSV, JSON and .config bytes, floats and --format included
    assert set(CONFIG_SPACES) == set(CONFIG_RUNS)
    common = _SAMPLING_COMMON if command in SAMPLING else _COMMON
    opts = data.draw(st.fixed_dictionaries({**common, **CONFIG_SPACES[command]}))
    argv = [command] + [f"{opt}={val}" for opt, val in opts.items()]
    with tempfile.TemporaryDirectory() as tmp:
        first, again = f"{tmp}/first", f"{tmp}/again"
        rc = run(argv + ["--out", first])
        assert rc in (0, 2) and os.path.exists(f"{first}.json"), argv
        assert run([f"@{first}.config", "--out", again]) == rc
        for ext in ("csv", "json", "config"):
            assert os.path.exists(f"{first}.{ext}") == os.path.exists(f"{again}.{ext}")
            if os.path.exists(f"{first}.{ext}"):
                with open(f"{first}.{ext}", "rb") as a, open(f"{again}.{ext}", "rb") as b:
                    assert a.read() == b.read(), (argv, ext)


def test_json_to_stdout_is_the_json_file(tmp_path, capsys):
    # one writer serves --out and stdout: both carry schema_version and the table
    argv = ["rho", "--H", "0.6", "--s-max", "2", "--n-points", "3", "--format", "json"]
    assert run(argv) == 0
    printed = capsys.readouterr()
    assert json.loads(printed.out)["schema_version"] == output.SCHEMA_VERSION
    assert "--format=json" in printed.err.splitlines()
    assert run(argv + ["--out", str(tmp_path / "rho")]) == 0
    assert printed.out == (tmp_path / "rho.json").read_text()


def test_json_writes_numpy_values_as_their_python_equivalents(tmp_path):
    payload = {"f64": np.float64(0.1), "f32": np.float32(0.1), "i64": np.int64(-3),
               "flag": np.bool_(True), "bad": [np.nan, -np.inf], "arr": np.array([[1.5, np.inf]]),
               "ints": np.arange(3), "nested": {"t": (np.float64(2.0), 1), "s": "x"}}
    plain = {"f64": 0.1, "f32": float(np.float32(0.1)), "i64": -3, "flag": True,
             "bad": [float("nan"), -float("inf")], "arr": [[1.5, float("inf")]],
             "ints": [0, 1, 2], "nested": {"t": [2.0, 1], "s": "x"}}
    output.write_json(tmp_path / "np.json", payload)
    expected = json.dumps({"schema_version": output.SCHEMA_VERSION, **plain},
                          indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "np.json").read_text() == expected


def test_verify_json_without_out_prints_only_the_report(tmp_path, monkeypatch, capsys):
    # a stub report stands in for the suite; stdout must be exactly the JSON
    # report that --out writes, and the status lines go to stderr
    report = {"suite": "quick", "seed": 3, "passed": True, "seconds": 0.5,
              "criteria": [{"number": 1, "name": "stub", "passed": True,
                            "details": {"z": 0.25}, "seconds": 0.5}]}
    monkeypatch.setattr(acceptance, "run_all", lambda **kw: dict(report))
    argv = ["verify", "--suite", "quick", "--seed", "3", "--format", "json"]
    assert run(argv) == 0
    printed = capsys.readouterr()
    doc = json.loads(printed.out)
    assert doc["command"] == "verify" and doc["criteria"] == report["criteria"]
    assert "[PASS] criterion  1 stub" in printed.err
    assert "suite=quick passed=True" in printed.err
    assert run(argv + ["--out", str(tmp_path / "rep")]) == 0
    assert printed.out == (tmp_path / "rep.json").read_text()
    assert "[PASS] criterion  1 stub" in capsys.readouterr().out


def test_csv_to_stdout_is_the_csv_file(tmp_path, capsys):
    argv = ["chaos", "--H", "0.7", "--coeffs", "0,1,0.5"]
    assert run(argv) == 0
    printed = capsys.readouterr().out
    assert run(argv + ["--out", str(tmp_path / "chaos")]) == 0
    assert printed == (tmp_path / "chaos.csv").read_text()


def test_json_run_rerun_from_its_config_alone_writes_json(tmp_path):
    # the echo records --format, so the re-run writes the JSON table again, not a CSV
    first, again = tmp_path / "first", tmp_path / "again"
    assert run(["rho", "--H", "0.6", "--n-points", "4", "--format", "json",
                "--out", str(first)]) == 0
    assert "--format=json" in (tmp_path / "first.config").read_text().splitlines()
    assert run([f"@{first}.config", "--out", str(again)]) == 0
    assert not (tmp_path / "again.csv").exists()
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "first.json").read_bytes()


def test_kinetic_scan_at_a_tiny_hurst_parameter_runs(tmp_path, capsys):
    # sigma = sqrt(2 / Gamma(2H + 1)) tends to sqrt(2) as H -> 0; taken as
    # 1 / sqrt(H Gamma(2H)) it was H * inf = 0 at H = 5e-324, and so was
    # the kinetic error
    argv = ["kinetic-scan", "--H", "5e-324", "--replicas", "4", "--format", "json",
            "--out", str(tmp_path / "x")]
    assert run(argv) == 0
    assert "RuntimeWarning" not in capsys.readouterr().err
    doc = json.loads((tmp_path / "x.json").read_text(), parse_constant=pytest.fail)
    rows = np.array(doc["table"]["rows"], dtype=float)
    assert np.all(np.isfinite(rows)) and np.all(rows[:, 1] > 0.0)


def test_kinetic_scan_exits_2_when_the_kinetic_error_vanishes(tmp_path, capsys, monkeypatch):
    # dividing by a zero error warned "invalid value encountered in scalar
    # divide" before the fit failed
    monkeypatch.setattr(fou, "stationary_sigma", lambda H: 0.0)
    argv = ["kinetic-scan", "--H", "0.7", "--replicas", "4", "--out", str(tmp_path / "x")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "error: kinetic error vanishes at H=0.7, eps=0.1" in err
    assert "RuntimeWarning" not in err
    assert not list(tmp_path.iterdir())


def test_config_echo_of_a_negative_exponent_value_is_read_back(tmp_path):
    # the echo joins x0 to its value, -1.0000000000000001e-05, which argparse
    # takes for an option when it is a separate token
    first, again = tmp_path / "first", tmp_path / "again"
    assert run(["homogenize", *REQUIRED_ARGS["homogenize"], "--x0=-1e-05", "--eps", "0.1",
                "--replicas", "2", "--out", str(first)]) in (0, 2)
    assert "--x0=-1.0000000000000001e-05" in (tmp_path / "first.config").read_text().splitlines()
    assert run([f"@{first}.config", "--out", str(again)]) in (0, 2)
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "first.csv").read_bytes()
