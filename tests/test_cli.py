import argparse
import json

import numpy as np
import pytest

from conftest import fbm_paths
from foulim import acceptance, chaos, cli, fgn, fou, harness, output
from foulim.chaos import ChaosFunction
from foulim.paths import TimeGrid
from foulim.streams import stream


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
                            fbm_paths(grid, H, [stream(seed, "cli-fbm", r)])[0])]
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
    # config echo re-ingestion reproduces the run bit-exactly
    c = tmp_path / "runc"
    assert run(["--config", str(tmp_path / "runa.config"), "--out", str(c)]) == 0
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
def test_hermite_sample_runs(tmp_path):
    # xi_window 40 truncates an estimated 23.8% of the kernel mass, below
    # the sampler's 25% warning threshold
    out = tmp_path / "herm"
    assert run(["hermite-sample", "--H", "0.7", "--m", "2", "--xi-window", "40",
                "--n-xi", "2000", "--n-steps", "50", "--replicas", "2",
                "--seed", "4", "--out", str(out)]) == 0
    lines = (tmp_path / "herm.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 51


def test_hermite_sample_bytes_independent_of_threads(tmp_path):
    # 300 replicas span two fixed-size chunks, so two threads really split them
    args = ["hermite-sample", "--H", "0.7", "--m", "2", "--xi-window", "40",
            "--n-xi", "600", "--n-steps", "20", "--replicas", "300", "--seed", "5"]
    for threads in ("1", "2"):
        assert run(args + ["--threads", threads, "--out", str(tmp_path / threads)]) == 0
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
], ids=["l2-zero", "l2-negative", "l2-above-one", "l2-zero-horizon",
        "kinetic-above-one", "kinetic-zero"])
def test_scan_domain_errors_exit_2(argv, message, tmp_path, capsys):
    command = argv[0]
    args = [command, *REQUIRED_ARGS[command], *argv[1:], "--replicas", "2",
            "--out", str(tmp_path / "x")]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert any(line.startswith("error:") and message in line
               for line in err.splitlines()), err
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


@pytest.mark.parametrize("command", sorted(REQUIRED_ARGS) + ["verify"])
def test_non_positive_replicas_is_a_usage_error(command, tmp_path, capsys):
    for replicas in ("0", "-3"):
        argv = [command, *REQUIRED_ARGS.get(command, []), "--replicas", replicas,
                "--out", str(tmp_path / "x")]
        assert run(argv) == 1
        assert "--replicas: must be a positive integer" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


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


@pytest.mark.parametrize("H", [0.05, 0.1, 0.2, 0.3])
def test_constants_degenerate_wiener_constant(tmp_path, H):
    # G = He_1 at H < 1/2: int rho = 0, so A_self vanishes
    out = tmp_path / "const"
    assert run(["constants", "--H", str(H), "--coeffs", "0,1", "--format", "json",
                "--out", str(out)]) == 0
    doc = json.loads((tmp_path / "const.json").read_text())
    assert doc["regime"] == "short_range"
    assert abs(doc["A_self"]) <= 1e-4


@pytest.mark.parametrize("H", [0.3, 0.7])
def test_kinetic_scan_non_commensurate_block_lengths(tmp_path, H):
    # eps grids of 10, 3 and 1 master steps: lengths must split into whole blocks
    out = tmp_path / "kin"
    assert run(["kinetic-scan", "--H", str(H), "--eps-list", "0.1,0.03,0.01",
                "--replicas", "50", "--format", "json", "--out", str(out)]) == 0
    doc = json.loads((tmp_path / "kin.json").read_text())
    assert doc["identity_defect_max"] < 1e-6
    assert len(doc["table"]["rows"]) == 3


def test_kinetic_scan_coprime_block_lengths(tmp_path, monkeypatch):
    # blocks of 19, 17, 13, 11, 7 and 1 master steps: the lengths stay near
    # T / dt_master instead of growing to a common multiple of the blocks
    lengths = []

    class Spy(fgn.StationarySampler):
        def __init__(self, acov, n):
            lengths.append(n)
            super().__init__(acov, n)

    monkeypatch.setattr(fgn, "StationarySampler", Spy)
    out = tmp_path / "kin"
    assert run(["kinetic-scan", "--H", "0.3", "--eps-list",
                "0.19,0.17,0.13,0.11,0.07,0.01", "--replicas", "20",
                "--format", "json", "--out", str(out)]) == 0
    # 10 * 0.19 of burn-in plus T rounded up to whole 19-step blocks, dt = 1e-4
    assert set(lengths) == {19000 + 10013}
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
    lines = (tmp_path / "scan.csv").read_text().splitlines()
    assert lines[0] == "eps,statistic,stderr,n"
    assert len(lines) == 4


def test_config_echo_contents(tmp_path):
    out = tmp_path / "echo"
    assert run(["rho", "--H", "0.6", "--s-max", "1.0", "--n-points", "3",
                "--out", str(out)]) == 0
    text = (tmp_path / "echo.config").read_text()
    assert "[run]" in text and "command = rho" in text
    assert "s_max" in text


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


@pytest.mark.parametrize("hfun", ["zero", "one"])
def test_long_range_homogenize_is_thread_invariant(tmp_path, hfun):
    # 300 replicas: the Hermite limit is drawn in a full chunk and a partial
    # one, on one or two workers
    files = []
    for threads in ("1", "2"):
        out = tmp_path / f"hom{threads}"
        assert run(["homogenize", "--H", "0.85", "--coeffs", "0,0,1", "--hfun", hfun,
                    "--replicas", "300", "--seed", "9", "--threads", threads,
                    "--out", str(out)]) in (0, 2)
        files.append([(tmp_path / f"hom{threads}.{ext}").read_bytes()
                      for ext in ("csv", "json")])
    assert files[0] == files[1]


@pytest.mark.parametrize("command", ["clt-scan", "homogenize", "kinetic-scan", "l2-hermite"])
@pytest.mark.parametrize("replicas", [None, "1"])
def test_statistics_commands_need_two_replicas(command, replicas, tmp_path, capsys):
    # --replicas defaults to 1, which leaves no sample variance to report
    argv = [command, *REQUIRED_ARGS[command], "--out", str(tmp_path / "x")]
    if replicas is not None:
        argv += ["--replicas", replicas]
    assert run(argv) == 1
    assert f"--replicas: {command} needs at least 2" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_clt_scan_diagnostics_reuse_the_finest_scan_samples(tmp_path, monkeypatch):
    rows = []
    make_sampler = fou.path_sampler

    def spy(grid, cfg):
        sampler = make_sampler(grid, cfg)
        blocks = sampler.blocks

        def counted(rngs):
            for block in blocks(rngs):
                rows.append(len(block))
                yield block

        sampler.blocks = counted
        return sampler

    monkeypatch.setattr(fou, "path_sampler", spy)
    out = tmp_path / "scan"
    assert run(["clt-scan", "--H", "0.6", "--coeffs", "0,0,1", "--eps-list", "0.2,0.1,0.05",
                "--replicas", "1000", "--seed", "8", "--format", "json",
                "--out", str(out)]) == 0
    # every (eps, replica) stream is drawn once: no extra pass at the finest eps
    assert sum(rows) == 1000 * 3
    monkeypatch.setattr(fou, "path_sampler", make_sampler)
    G = ChaosFunction.from_coefficients([0, 0, 1])
    alpha = chaos.classify_regime(2, 0.6).alpha(0.05)
    oracle = harness.clt_diagnostics(harness._fou_endpoint_samples(
        G, 0.6, 1.0, 0.05, 1000, 8, "vscan-eps2", 50.0, alpha))
    diag = json.loads((tmp_path / "scan.json").read_text())["diagnostics_at_finest_eps"]
    assert diag == pytest.approx(oracle, rel=1e-12, abs=0)
