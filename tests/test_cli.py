import contextlib
import dataclasses
import io
import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from poismc import (
    BoundConstants, FeasibleRegion, SolverConfig, SynthesisSpec, init_matrix,
    lower_bound, nuclear_norm, upper_bound, verify_lemmas,
)
from poismc import cli as cli_mod, solvers as solvers_mod
from poismc.cli import build_parser, default_demo_image, main
from poismc.errors import NonPositiveEntryAtObservation
from poismc.likelihood import _sampled_gradient
from poismc.fileio import (
    read_json, read_matrix_csv, read_observations_csv, write_observations_csv,
)
from poismc.imaging import patchify, read_image, recover_image, to_display

from test_solvers import (binding_instance, contract_cases, contract_run,
                          fail_on_call, same_bits)


def run(*argv):
    return main(list(argv))


def simulate_args(out, d1=10, d2=8, m=40, seed=7):
    return [
        "simulate", "--d1", str(d1), "--d2", str(d2), "--rank", "2",
        "--alpha", "9", "--beta", "1", "--m", str(m), "--seed", str(seed),
        "--out", str(out),
    ]


# --- simulate ----------------------------------------------------------------


def test_simulate_writes_parseable_artifacts(tmp_path):
    out = tmp_path / "run"
    assert run(*simulate_args(out)) == 0
    truth = read_matrix_csv(out / "truth.csv")
    assert truth.shape == (10, 8)
    obs = read_observations_csv(out / "observations.csv", 10, 8)
    assert len(obs) > 0
    manifest = read_json(out / "manifest.json")
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 7
    assert sorted(manifest["outputs"]) == ["observations.csv", "truth.csv"]


def test_simulate_rejects_oversized_m(tmp_path, capsys):
    rc = run(*simulate_args(tmp_path / "x", m=81))
    assert rc == 2
    assert "--m" in capsys.readouterr().err


def simulate_4x4(m="8", beta="1"):
    return ["simulate", "--d1", "4", "--d2", "4", "--rank", "2", "--alpha", "9",
            "--beta", beta, "--m", m]


@pytest.mark.parametrize("argv, message", [
    # SynthesisSpec checks mask_m, the field --m stores to.
    (simulate_4x4(m="0"), "--m must be in (0, 16], got 0.0"),
    (simulate_4x4(m="17"), "--m must be in (0, 16], got 17.0"),
    (["complete", "--obs", "obs.csv", "--d1", "4", "--d2", "4", "--rank", "9",
      "--alpha", "9", "--beta", "1"], "--rank must be in [1, min(d1, d2)=4], got 9"),
    (simulate_4x4(beta="0"), "--beta must be > 0, got 0.0"),
    (["verify", "--alpha", "0.5"], "--alpha must be >= beta=1.0, got 0.5"),
], ids=["m-0", "m-17", "rank", "beta", "alpha"])
def test_bad_region_or_sample_count_is_named_and_exits_2_before_the_out_directory(
        argv, message, tmp_path, capsys):
    out = tmp_path / "o"
    assert run(*argv, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, limit", [
    (["simulate", "--d1", "4", "--d2", "4", "--rank", "2", "--alpha", "1e20",
      "--beta", "1", "--m", "16"], "4503599627370496.0"),
    (["verify", "--samples", "5", "--alpha", "1e20"], "9.223372006484771e+18"),
    (["demo-solar", "--scale", "1e300", "--iters", "1"], "4503599627370496.0"),
    # numpy draws at 1e17, but a count of 2**53 or more fits no
    # ObservationSet, whose message named no flag.
    (["simulate", "--d1", "4", "--d2", "4", "--rank", "2", "--alpha", "1e17",
      "--beta", "1", "--m", "16"], "4503599627370496.0"),
], ids=["simulate", "verify", "demo-solar", "simulate-count"])
def test_rates_numpy_cannot_draw_name_alpha_and_exit_2_before_the_out_directory(
        argv, limit, tmp_path, capsys):
    # numpy's Poisson sampler refuses rates above 9.223372006484771e18 with
    # "lam value too large", which names no flag (and starts with the dest
    # of --lambda). Observed counts stop at a rate of 2**52.
    out = tmp_path / "o"
    assert run(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --alpha must be <= {limit} ")
    assert err.count("\n") == 1 and "lam" not in err
    assert not out.exists()


def test_build_makes_the_objects_the_hand_written_calls_made(tmp_path, monkeypatch):
    # Every flag that sets a field stores to that field, so _build makes on
    # each subcommand what the commands once spelled out field by field.
    build, built = cli_mod._build, []

    def record(cls, args, **given):
        built.append(build(cls, args, **given))
        return built[-1]
    monkeypatch.setattr(cli_mod, "_build", record)
    region = ["--d1", "4", "--d2", "3", "--rank", "2", "--alpha", "9", "--beta", "1"]
    reg = FeasibleRegion(d1=4, d2=3, alpha=9.0, beta=1.0, r=2)
    solver = ["--iters", "3", "--lambda", "0.5", "--l0", "0.01", "--eta", "1.5"]
    cases = [
        (["simulate", *region, "--m", "10", "--seed", "3", "--out", str(tmp_path / "s")],
         [reg, SynthesisSpec(region=reg, mask_m=10.0, seed=3)]),
        (["complete", "--obs", str(tmp_path / "s" / "observations.csv"), *region,
          "--algo", "apg", *solver, "--proj-tol", "1e-5", "--proj-max-iter", "50",
          "--out", str(tmp_path / "c")],
         [reg, SolverConfig(algorithm="apg", max_iter=3, lam=0.5, l0=0.01, eta=1.5,
                            proj_tol=1e-5, proj_max_iter=50)]),
        (["bounds", *region, "--m", "10", "--c-prime", "2", "--c0", "3", "--c1", "0.5",
          "--c2", "0.25"],
         [reg, BoundConstants(c_prime=2.0, c1=0.5, c2=0.25, c0=3.0)]),
        (["verify", "--samples", "5", "--alpha", "7", "--beta", "2",
          "--out", str(tmp_path / "v")],
         [FeasibleRegion(d1=16, d2=16, alpha=7.0, beta=2.0, r=4)]),
        (["demo-solar", *solver, "--out", str(tmp_path / "d")],
         [SolverConfig(max_iter=3, lam=0.5, l0=0.01, eta=1.5)]),
    ]
    for argv, want in cases:
        built.clear()
        assert run(*argv) == 0, argv[0]
        assert built == want, argv[0]


def test_simulate_identical_invocations_identical_files(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(*simulate_args(out1)) == 0
    assert run(*simulate_args(out2)) == 0
    for name in ("truth.csv", "observations.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# --- complete -----------------------------------------------------------------


def complete_args(obs, out, algo="pg", extra=()):
    return [
        "complete", "--obs", str(obs), "--d1", "10", "--d2", "8",
        "--rank", "2", "--alpha", "9", "--beta", "1", "--algo", algo,
        "--iters", "150", "--out", str(out), *extra,
    ]


def test_pipeline_simulate_then_complete_beats_baseline(tmp_path):
    sim = tmp_path / "sim"
    assert run(*simulate_args(sim, m=64)) == 0
    out = tmp_path / "rec"
    rc = run(*complete_args(
        sim / "observations.csv", out,
        extra=("--truth", str(sim / "truth.csv"), "--baseline"),
    ))
    assert rc == 0
    report = read_json(out / "report.json")
    assert report["mse"] < report["baseline_mse"]
    est = read_matrix_csv(out / "estimate.csv")
    assert est.shape == (10, 8)
    assert est.min() >= 1.0 and est.max() <= 9.0


def test_complete_missing_obs_flag_exits_2(tmp_path):
    rc = run("complete", "--d1", "4", "--d2", "4", "--rank", "1",
             "--alpha", "3", "--beta", "1")
    assert rc == 2


def test_complete_missing_obs_file_exits_1(tmp_path):
    rc = run(*complete_args(tmp_path / "none.csv", tmp_path / "o"))
    assert rc == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("truth, code, message", [
    ("absent.csv", 1, "No such file or directory"),
    ("small.csv", 2, "expected shape (10, 8), got (2, 2)"),
    ("empty.csv", 1, "empty.csv: no data"),
], ids=["missing", "wrong-shape", "empty"])
def test_complete_reads_truth_before_the_solve(truth, code, message, tmp_path,
                                              capsys):
    sim = tmp_path / "sim"
    assert run(*simulate_args(sim)) == 0
    (tmp_path / "small.csv").write_text("1,2\n3,4\n")
    (tmp_path / "empty.csv").write_text("")
    out = tmp_path / "rec"
    capsys.readouterr()
    rc = run(*complete_args(sim / "observations.csv", out,
                            extra=("--truth", str(tmp_path / truth))))
    assert rc == code
    err = capsys.readouterr().err
    assert message in err and err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_complete_nan_lambda_exits_2_before_the_out_directory(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert run(*simulate_args(sim)) == 0
    out = tmp_path / "rec"
    rc = run(*complete_args(sim / "observations.csv", out, algo="pmlsv",
                            extra=("--iters", "20", "--lambda", "nan")))
    assert rc == 2
    assert "--lambda must be >= 0, got nan" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--iters", "0", "--iters must be an integer >= 1, got 0"),
    ("--lambda", "-1", "--lambda must be >= 0, got -1.0"),
    ("--l0", "0", "--l0 must be > 0, got 0.0"),
    # At inf the solve would never move, and report.json would hold
    # Infinity, which is not JSON.
    ("--l0", "inf", "--l0 must be <= 1e+15, got inf"),
    ("--eta", "1", "--eta must be > 1, got 1.0"),
    # Past the step search's ceiling the search could not climb one rung
    # from l0, and the solve failed after 0 iterations.
    ("--eta", "inf", "--eta must be <= 1e+15, got inf"),
    ("--eta", "1e308", "--eta must be <= 1e+15, got 1e+308"),
    ("--proj-tol", "0", "--proj-tol must be > 0, got 0.0"),
    ("--proj-max-iter", "0", "--proj-max-iter must be an integer >= 1, got 0"),
])
def test_bad_solver_flag_is_named_and_exits_2_before_the_out_directory(
        tmp_path, capsys, flag, value, message):
    # SolverConfig names its fields; the CLI names the flag the user typed.
    sim = tmp_path / "sim"
    assert run(*simulate_args(sim)) == 0
    capsys.readouterr()
    out = tmp_path / "rec"
    assert run(*complete_args(sim / "observations.csv", out, extra=(flag, value))) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_complete_baseline_without_truth_exits_2_before_the_out_directory(
        tmp_path, capsys):
    sim = tmp_path / "sim"
    assert run(*simulate_args(sim)) == 0
    out = tmp_path / "rec"
    assert run(*complete_args(sim / "observations.csv", out,
                              extra=("--baseline",))) == 2
    assert "--baseline requires --truth" in capsys.readouterr().err
    assert not out.exists()


def test_complete_header_only_obs_exits_2_before_the_out_directory(tmp_path,
                                                                   capsys):
    # A header-only CSV is an empty sample set: the solve rejects it.
    obs = tmp_path / "obs.csv"
    obs.write_text("i,j,y\n")
    out = tmp_path / "rec"
    assert run(*complete_args(obs, out)) == 2
    assert capsys.readouterr().err == "error: need at least one observation\n"
    assert not out.exists()


def test_complete_pmlsv_defaults_terminate(tmp_path):
    sim = tmp_path / "sim"
    assert run(*simulate_args(sim, m=60)) == 0
    out = tmp_path / "rec"
    rc = run("complete", "--obs", str(sim / "observations.csv"),
             "--d1", "10", "--d2", "8", "--rank", "2", "--alpha", "9",
             "--beta", "1", "--algo", "pmlsv", "--out", str(out))
    assert rc == 0
    report = read_json(out / "report.json")
    assert report["solver"]["iterations_run"] <= 2000
    assert report["solver"]["termination"] in ("QGapSmall", "MaxIter")


def test_complete_solver_failure_exit_3(tmp_path, capsys):
    # A +/- count pattern whose clamped initializer lies far outside the
    # nuclear ball: one ball-then-box sweep leaves the clipped point outside
    # the ball, so a one-sweep projection budget cannot close the gap.
    obs, reg = binding_instance(0)
    assert nuclear_norm(init_matrix(obs, reg)) > reg.nuclear_radius
    write_observations_csv(obs, tmp_path / "obs.csv")
    out = tmp_path / "o"
    rc = run("complete", "--obs", str(tmp_path / "obs.csv"),
             "--d1", str(reg.d1), "--d2", str(reg.d2), "--rank", str(reg.r),
             "--alpha", str(reg.alpha), "--beta", str(reg.beta),
             "--algo", "pg", "--proj-max-iter", "1", "--out", str(out))
    assert rc == 3
    assert "after 1 iterations" in capsys.readouterr().err
    assert not (out / "estimate.csv").exists()
    report = read_json(out / "report.json")
    assert report["solver"]["termination"] == "ProjectionFailure"
    assert report["solver"]["iterations_run"] == 0


def test_complete_solver_failure_with_an_uncreatable_out_exits_1(tmp_path, capsys):
    # The failed solve's report cannot be written: the write error wins,
    # as one line, and the solver's own message is not printed.
    obs, reg = binding_instance(0)
    write_observations_csv(obs, tmp_path / "obs.csv")
    afile = tmp_path / "afile"
    afile.write_text("x")
    out = afile / "sub"
    rc = run("complete", "--obs", str(tmp_path / "obs.csv"),
             "--d1", str(reg.d1), "--d2", str(reg.d2), "--rank", str(reg.r),
             "--alpha", str(reg.alpha), "--beta", str(reg.beta),
             "--algo", "pg", "--proj-max-iter", "1", "--out", str(out))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}") and err.count("\n") == 1
    assert "Traceback" not in err


def test_complete_mid_solve_failure_writes_its_report_and_exits_3(tmp_path,
                                                                  monkeypatch):
    # apg's 4th gradient evaluation fails: the error carries the report of
    # iterate 3, which complete writes before it exits 3.
    sim = tmp_path / "sim"
    assert run(*simulate_args(sim, m=64)) == 0
    monkeypatch.setattr(solvers_mod, "_sampled_gradient",
                        fail_on_call(4, _sampled_gradient,
                                     NonPositiveEntryAtObservation))
    out = tmp_path / "rec"
    assert run(*complete_args(sim / "observations.csv", out, algo="apg")) == 3
    assert not (out / "estimate.csv").exists()
    report = read_json(out / "report.json")
    assert report["command"] == "complete"
    assert report["solver"]["termination"] == "NonPositiveEntryAtObservation"
    assert report["solver"]["iterations_run"] == 3
    assert read_json(out / "manifest.json")["outputs"] == ["report.json"]


@pytest.mark.parametrize("algorithm", solvers_mod.ALGORITHMS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_complete_run_exits_0_with_a_box_estimate_or_3_with_its_report(
        algorithm, data):
    # The solve contract's draws, counts above alpha included, through the
    # CSV reader and the flags: the run exits 0 with the in-process
    # estimate, or 3 with a report that names the error the solve raised.
    obs, reg, cfg = data.draw(contract_cases(algorithm))
    rep, error = contract_run(obs, reg, cfg)
    with tempfile.TemporaryDirectory() as tmp:
        write_observations_csv(obs, os.path.join(tmp, "obs.csv"))
        out = os.path.join(tmp, "out")
        argv = ["complete", "--obs", os.path.join(tmp, "obs.csv"),
                "--d1", str(reg.d1), "--d2", str(reg.d2), "--rank", str(reg.r),
                "--alpha", repr(float(reg.alpha)), "--beta", repr(float(reg.beta)),
                "--algo", algorithm, "--iters", str(cfg.max_iter),
                "--lambda", repr(float(cfg.lam)),
                "--proj-max-iter", str(cfg.proj_max_iter), "--out", out]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = run(*argv)
        event(f"exit {rc}")
        report = read_json(os.path.join(out, "report.json"))["solver"]
        estimate = os.path.join(out, "estimate.csv")
        if error is None:
            assert rc == 0
            est = read_matrix_csv(estimate)
            assert reg.beta <= est.min() and est.max() <= reg.alpha
            assert same_bits(est, rep.estimate)
            assert report["termination"] == rep.termination
        else:
            assert rc == 3
            assert not os.path.exists(estimate)
            assert report["termination"] == error.__name__
        assert report["iterations_run"] == rep.iterations_run


def test_solver_flag_defaults_come_from_solver_config():
    # Parser dest -> SolverConfig field, for every solver flag a command has.
    pmlsv_flags = {"max_iter": "max_iter", "lam": "lam", "l0": "l0", "eta": "eta"}
    proj_flags = {"proj_tol": "proj_tol", "proj_max_iter": "proj_max_iter"}
    region = ["--d1", "2", "--d2", "2", "--rank", "1", "--alpha", "3", "--beta", "1"]
    cases = ((["complete", "--obs", "obs.csv", *region], pmlsv_flags | proj_flags),
             (["demo-solar"], pmlsv_flags))
    defaults = SolverConfig()
    for argv, flags in cases:
        args = vars(build_parser().parse_args(argv))
        assert set(args) & set(pmlsv_flags | proj_flags) == set(flags), argv[0]
        for dest, field in flags.items():
            assert args[dest] == getattr(defaults, field), (argv[0], dest)
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    algo = next(a for a in commands.choices["complete"]._actions
                if a.dest == "algorithm")
    assert algo.choices == solvers_mod.ALGORITHMS


def test_bound_constant_flag_defaults_come_from_bound_constants():
    region = ["--d1", "2", "--d2", "2", "--rank", "1", "--alpha", "3", "--beta", "1"]
    args = vars(build_parser().parse_args(["bounds", *region, "--m", "10"]))
    defaults = BoundConstants()
    for field in dataclasses.fields(BoundConstants):
        assert args[field.name] == getattr(defaults, field.name), field.name


# --- bounds --------------------------------------------------------------------


def test_bounds_json_matches_module(tmp_path, capsys):
    rc = run("bounds", "--d1", "64", "--d2", "64", "--rank", "4",
             "--alpha", "9", "--beta", "1", "--m", "5000", "--json")
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    reg = FeasibleRegion(d1=64, d2=64, alpha=9.0, beta=1.0, r=4)
    assert payload["upper"] == upper_bound(reg, 5000.0).to_json_dict()
    assert payload["lower"] == lower_bound(reg, 5000.0).to_json_dict()


def test_bounds_lower_invalid_reason_for_small_rank(capsys):
    rc = run("bounds", "--d1", "64", "--d2", "64", "--rank", "3",
             "--alpha", "9", "--beta", "1", "--m", "5000", "--json")
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lower"]["valid"] is False
    assert "r >= 4" in payload["lower"]["reason"]


def test_bounds_table_mode(capsys):
    rc = run("bounds", "--d1", "64", "--d2", "64", "--rank", "4",
             "--alpha", "9", "--beta", "1", "--m", "5000")
    assert rc == 0
    out = capsys.readouterr().out
    assert "upper" in out and "lower" in out and "gap" in out


# Golden stdout of ``poismc bounds``: a point where both bounds hold, and
# one where the lower bound's rank and floor hypotheses fail and m exceeds
# the 4096 cells, which fails both bounds.
VALID_POINT = ["--d1", "2048", "--d2", "2048", "--rank", "4",
               "--alpha", "1", "--beta", "0.5", "--m", "100"]
INVALID_POINT = ["--d1", "64", "--d2", "64", "--rank", "3",
                 "--alpha", "9", "--beta", "1", "--m", "5000"]
INVALID_REASON = ("requires r >= 4, got r=3; bound 0.00129172 does not exceed "
                  "r*alpha**2/min(d1,d2)=3.79688")
M_REASON = "requires m <= d1*d2=4096, got m=5000.0"
GOLDEN_TABLES = {
    "valid": [
        "quantity    value           regime      valid  reason",
        "upper       3.24321e+08     general     True   ",
        "lower       0.00220971      scaled      True   ",
        "gap         1.46771e+11                        ",
    ],
    "invalid": [
        "quantity    value           regime      valid  reason",
        "upper       1.79178e+08     simplified  False  " + M_REASON,
        "lower       0.00129172      scaled      False  " + INVALID_REASON + "; " + M_REASON,
        "gap         n/a                                " + M_REASON + "; " + INVALID_REASON,
    ],
}
GOLDEN_CONSTANTS = """{
      "c0": 33.0,
      "c1": 0.00390625,
      "c2": 0.000244140625,
      "c_prime": 1200.2157165137123
    }"""
GOLDEN_JSON = {
    "valid": """{
  "gap": 146770904232.15747,
  "gap_reason": "",
  "lower": {
    "constants": %(k)s,
    "reason": "",
    "regime": "scaled",
    "valid": true,
    "value": 0.002209708691207961
  },
  "schema_version": 1,
  "upper": {
    "constants": %(k)s,
    "reason": "",
    "regime": "general",
    "valid": true,
    "value": 324320942.6982497
  }
}
""",
    "invalid": """{
  "gap": null,
  "gap_reason": "%(m)s; %(reason)s",
  "lower": {
    "constants": %(k)s,
    "reason": "%(reason)s; %(m)s",
    "regime": "scaled",
    "valid": false,
    "value": 0.0012917231065458165
  },
  "schema_version": 1,
  "upper": {
    "constants": %(k)s,
    "reason": "%(m)s",
    "regime": "simplified",
    "valid": false,
    "value": 179178470.39623305
  }
}
""",
}


@pytest.mark.parametrize("point", ["valid", "invalid"])
def test_bounds_output_is_pinned(point, capsys):
    argv = {"valid": VALID_POINT, "invalid": INVALID_POINT}[point]
    assert run("bounds", *argv) == 0
    assert capsys.readouterr().out == "\n".join(GOLDEN_TABLES[point]) + "\n"
    assert run("bounds", *argv, "--json") == 0
    golden = GOLDEN_JSON[point] % {"k": GOLDEN_CONSTANTS, "reason": INVALID_REASON,
                                   "m": M_REASON}
    assert capsys.readouterr().out == golden


@pytest.mark.parametrize("m, value", [("1e9", "89465.5"), ("inf", "0")])
def test_bounds_for_more_samples_than_cells_are_invalid(m, value, capsys):
    # Bernoulli sampling draws each of the 16 cells at most once.
    argv = ["--d1", "4", "--d2", "4", "--rank", "4", "--alpha", "9", "--beta", "1"]
    assert run("bounds", *argv, "--m", m) == 0
    lines = capsys.readouterr().out.splitlines()
    reason = f"requires m <= d1*d2=16, got m={float(m)}"
    assert lines[1].split()[:4] == ["upper", value, "simplified", "False"]
    assert lines[1].endswith(reason)
    assert lines[2].endswith(reason) and "False" in lines[2]
    assert lines[3].startswith("gap         n/a") and lines[3].count(reason) == 1
    assert run("bounds", *argv, "--m", m, "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["upper"]["valid"] is False and payload["lower"]["valid"] is False
    assert payload["upper"]["reason"] == reason
    assert payload["lower"]["reason"].endswith("; " + reason)
    assert payload["gap"] is None


def test_bounds_validation_exit_2(capsys):
    rc = run("bounds", "--d1", "64", "--d2", "64", "--rank", "4",
             "--alpha", "1", "--beta", "9", "--m", "100")
    assert rc == 2


def test_bounds_nonpositive_m_exits_2(capsys):
    rc = run("bounds", "--d1", "64", "--d2", "64", "--rank", "4",
             "--alpha", "9", "--beta", "1", "--m", "0")
    assert rc == 2
    assert "--m must be > 0" in capsys.readouterr().err


# --- verify ---------------------------------------------------------------------


def test_verify_defaults_pass(tmp_path):
    rc = run("verify", "--samples", "2000", "--seed", "0",
             "--alpha", "9", "--beta", "1", "--out", str(tmp_path / "v"))
    assert rc == 0
    report = read_json(tmp_path / "v" / "verify.json")
    assert report["kl_quadratic"]["violations"] == 0
    assert report["hellinger_mse_floor"]["violations"] == 0


def test_verify_tiny_sample_budget(tmp_path):
    rc = run("verify", "--samples", "1", "--out", str(tmp_path / "v"))
    assert rc == 0


def test_verify_zero_samples_exits_2_before_the_out_directory(tmp_path, capsys):
    out = tmp_path / "v"
    assert run("verify", "--samples", "0", "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: --samples must be >= 1, got 0\n"
    assert not out.exists()


def strict_json(text):
    """``json.loads`` that refuses ``Infinity``, ``-Infinity`` and ``NaN``."""
    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("alpha", ["1e200", "1e300"])
def test_bounds_for_a_box_too_large_to_square_read_inf(alpha, capsys):
    # FeasibleRegion accepts the box, and (alpha - beta)**2 overflows. The
    # table prints the upper bound as inf; JSON has no inf, so it is null.
    argv = ("bounds", "--d1", "4", "--d2", "4", "--rank", "4", "--alpha", alpha,
            "--beta", "1", "--m", "5")
    assert run(*argv, "--json") == 0
    stdout, err = capsys.readouterr()
    payload = strict_json(stdout)
    assert err == ""
    assert payload["upper"]["value"] is None and payload["upper"]["valid"]
    assert payload["gap"] is None
    assert payload["lower"]["reason"].endswith("r*alpha**2/min(d1,d2)=inf")
    assert run(*argv) == 0
    assert capsys.readouterr().out.splitlines()[1].split()[:2] == ["upper", "inf"]


@pytest.mark.parametrize("flag", ["--c-prime", "--c0"])
def test_an_infinite_bound_constant_is_named_and_exits_2(flag, capsys):
    # --c-prime inf once failed on writing the JSON, naming no flag, and
    # --c0 inf printed a hypothesis against c0=inf and exited 0.
    argv = ("bounds", "--d1", "4", "--d2", "4", "--rank", "4", "--alpha", "9",
            "--beta", "1", "--m", "5", flag, "inf")
    for extra in ((), ("--json",)):
        assert run(*argv, *extra) == 2
        assert capsys.readouterr() == ("", f"error: {flag} must be finite, got inf\n")


@pytest.mark.parametrize("argv", [
    # alpha**1.5 underflows and the lower bound's root overflows.
    ("--d1", "4514", "--d2", "312506", "--rank", "3081", "--alpha", "7.06e-284",
     "--beta", "1e-300", "--m", "1e-300"),
    # The upper bound's prefactor underflows and its root overflows.
    ("--d1", "1", "--d2", "1", "--rank", "1", "--alpha", "1e-300",
     "--beta", "1e-300", "--m", "5e-324"),
], ids=["lower", "upper"])
def test_bounds_where_an_underflow_meets_an_overflow_print_no_nan(argv, capsys):
    assert run("bounds", *argv) == 0
    assert "nan" not in capsys.readouterr().out
    assert run("bounds", *argv, "--json") == 0
    payload = strict_json(capsys.readouterr().out)
    for bound in ("upper", "lower"):
        assert payload[bound]["value"] is not None, bound


def test_verify_on_a_box_too_large_to_square_is_no_crash(tmp_path, capsys):
    out = tmp_path / "v"
    rc = run("verify", "--samples", "5", "--alpha", "1e308", "--out", str(out))
    err = capsys.readouterr().err
    assert rc in (0, 2) and "Traceback" not in err
    if rc == 2:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


def test_verify_violation_exits_4_and_keeps_its_outputs(tmp_path, monkeypatch,
                                                       capsys):
    def violated(region, samples, seed):
        report = verify_lemmas(region, samples, seed)
        report["kl_quadratic"]["violations"] = 1
        return report

    monkeypatch.setattr(cli_mod, "verify_lemmas", violated)
    out = tmp_path / "v"
    assert run("verify", "--samples", "20", "--out", str(out)) == 4
    assert "deterministic inequality violated" in capsys.readouterr().err
    assert read_json(out / "verify.json")["kl_quadratic"]["violations"] == 1
    manifest = read_json(out / "manifest.json")
    assert manifest["command"] == "verify" and manifest["outputs"] == ["verify.json"]


def test_verify_report_schema_stable(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run("verify", "--samples", "500", "--seed", "3",
                   "--out", str(out)) == 0
    assert (out1 / "verify.json").read_bytes() == (out2 / "verify.json").read_bytes()


# --- demo ----------------------------------------------------------------------


def test_demo_runs_on_packaged_image(tmp_path):
    out = tmp_path / "demo"
    rc = run("demo-solar", "--p", "0.8", "--iters", "120", "--seed", "3",
             "--out", str(out))
    assert rc == 0
    for name in ("truth.pgm", "observed.pgm", "recovered.pgm", "report.json"):
        assert (out / name).exists()
    report = read_json(out / "report.json")
    assert report["mse"] < report["baseline_mse"]
    assert os.path.exists(default_demo_image())


def test_demo_mid_solve_failure_writes_its_report_and_exits_3(tmp_path,
                                                              monkeypatch):
    # pmlsv's 4th gradient evaluation fails: demo-solar writes the report
    # of iterate 3 and the manifest, and no image.
    monkeypatch.setattr(solvers_mod, "_sampled_gradient",
                        fail_on_call(4, _sampled_gradient,
                                     NonPositiveEntryAtObservation))
    out = tmp_path / "demo"
    assert run("demo-solar", "--iters", "50", "--out", str(out)) == 3
    report = read_json(out / "report.json")
    assert report["command"] == "demo-solar"
    assert report["solver"]["termination"] == "NonPositiveEntryAtObservation"
    assert report["solver"]["iterations_run"] == 3
    assert read_json(out / "manifest.json")["outputs"] == ["report.json"]
    assert not list(out.glob("*.pgm"))


def test_demo_nan_lambda_exits_2_before_the_out_directory(tmp_path, capsys):
    out = tmp_path / "demo"
    assert run("demo-solar", "--lambda", "nan", "--out", str(out)) == 2
    assert "--lambda must be >= 0, got nan" in capsys.readouterr().err
    assert not out.exists()


def test_demo_absent_image_exits_1(tmp_path):
    rc = run("demo-solar", "--image", str(tmp_path / "nope.pgm"),
             "--out", str(tmp_path / "d"))
    assert rc == 1


@pytest.mark.parametrize("action", ["error", "ignore"])  # see test_fileio
@pytest.mark.parametrize("command, name, content", [
    ("complete", "obs.csv", b"i,j,y\n0,0,99999999999999999999\n"),
    ("complete", "obs.csv", b"i,j,y\n0,0,1.5\n"),
    ("demo-solar", "img.pgm", b"P2\n1 1\n255\n99999999999999999999\n"),
    ("demo-solar", "img.csv", b""),
], ids=["count-overflow", "fractional-count", "p2-sample-overflow",
        "empty-csv-image"])
def test_malformed_input_exits_1_with_one_error_line(command, name, content,
                                                     action, tmp_path, capsys):
    path = tmp_path / name
    path.write_bytes(content)
    out = tmp_path / "out"
    argv = {
        "complete": complete_args(path, out),
        "demo-solar": ["demo-solar", "--image", str(path), "--out", str(out)],
    }[command]
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_demo_rejects_bad_fraction(tmp_path, capsys):
    out = tmp_path / "d"
    assert run("demo-solar", "--p", "1.5", "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: --p must be in (0, 1], got 1.5\n"
    assert not out.exists()


def test_demo_message_that_only_starts_with_a_dest_is_not_renamed(tmp_path, capsys,
                                                                   monkeypatch):
    # numpy's "lam value too large" starts with the dest of --lambda but is
    # no "<field> must ..." message, so it is printed as numpy words it.
    def refuse(*args, **kwargs):
        raise ValueError("lam value too large")
    monkeypatch.setattr(cli_mod, "recover_image", refuse)
    out = tmp_path / "d"
    assert run("demo-solar", "--iters", "1", "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: lam value too large\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (("--patch", "5"), "5x5 patches do not tile a 48x48 image"),
    (("--alpha", "0.5"), "error: --alpha must be >= beta=1.0, got 0.5\n"),
], ids=["patch", "alpha"])
def test_demo_bad_layout_or_box_exits_2_before_the_out_directory(
        flags, message, tmp_path, capsys):
    out = tmp_path / "d"
    assert run("demo-solar", *flags, "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_demo_observed_view_is_dark_exactly_where_unobserved(tmp_path):
    # observed.pgm holds the displayed count at every sampled cell and 0 at
    # every other, whatever the count displays as.
    out = tmp_path / "demo"
    assert run("demo-solar", "--p", "0.5", "--iters", "5", "--seed", "5",
               "--out", str(out)) == 0
    rec = recover_image(read_image(default_demo_image()), 0.5,
                        SolverConfig(max_iter=5), seed=5)
    obs = rec.trial.observations
    mask = obs.mask()
    counts = np.zeros(rec.truth.shape)
    counts[obs.rows, obs.cols] = obs.counts
    observed = patchify(read_image(out / "observed.pgm"), rec.layout)
    assert 0 < mask.sum() < mask.size
    assert np.all(observed[~mask] == 0)
    assert np.array_equal(observed[mask], to_display(counts, rec.region)[mask])


# --- output directory ----------------------------------------------------------------


@pytest.mark.parametrize("bad", ["file", "under-file"])
@pytest.mark.parametrize("command", ["simulate", "complete", "verify", "demo-solar"])
def test_uncreatable_out_exits_1_without_traceback(command, bad, tmp_path, capsys):
    sim = tmp_path / "sim"
    assert run(*simulate_args(sim)) == 0
    afile = tmp_path / "afile"
    afile.write_text("x")
    out = afile if bad == "file" else afile / "sub"
    argv = {
        "simulate": simulate_args(out),
        "complete": complete_args(sim / "observations.csv", out),
        "verify": ["verify", "--samples", "20", "--out", str(out)],
        "demo-solar": ["demo-solar", "--iters", "1", "--out", str(out)],
    }[command]
    capsys.readouterr()
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"cannot write {out}" in err
    assert "Traceback" not in err


# --- rerun / determinism ----------------------------------------------------------


def masked_report_bytes(path):
    """report.json with the volatile wall-time fields zeroed."""
    data = json.loads(path.read_text())
    data.pop("wall_time_sec", None)
    if "solver" in data:
        data["solver"].pop("wall_time_sec", None)
    return json.dumps(data, sort_keys=True).encode()


def test_rerun_reproduces_simulate(tmp_path):
    out1 = tmp_path / "one"
    assert run(*simulate_args(out1, seed=9)) == 0
    out2 = tmp_path / "two"
    assert run("rerun", str(out1 / "manifest.json"), "--out", str(out2)) == 0
    for name in ("truth.csv", "observations.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_rerun_out_fills_a_trailing_out(tmp_path):
    path = tmp_path / "manifest.json"
    argv = simulate_args(tmp_path / "unused")[:-1]  # ends with "--out"
    path.write_text(json.dumps({"argv": argv}))
    assert run("rerun", str(path), "--out", str(tmp_path / "o")) == 0
    assert (tmp_path / "o" / "observations.csv").exists()


@pytest.mark.parametrize("manifest", [
    lambda path: {"argv": []},
    lambda path: ["simulate"],
    lambda path: {"argv": [1, 2]},
    lambda path: {"argv": ["rerun", str(path)]},
    lambda path: {"argv": "bounds"},
], ids=["empty", "list", "not-strings", "reruns-itself", "string"])
def test_rerun_rejects_a_malformed_manifest(manifest, tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest(path)))
    assert run("rerun", str(path), "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: argv must be") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("case", ["obs", "truth", "manifest"])
def test_a_file_not_utf8_or_nested_too_deep_exits_1_naming_it(case, tmp_path, capsys):
    # The decode failure once exited 2 naming no file, and the deep
    # manifest printed a RecursionError traceback.
    sim, out = tmp_path / "sim", tmp_path / "o"
    assert run(*simulate_args(sim)) == 0
    bad = tmp_path / ("deep.json" if case == "manifest" else "bad.csv")
    if case == "manifest":
        bad.write_text("[" * 200_000)
        argv = ["rerun", str(bad), "--out", str(out)]
    else:
        bad.write_bytes(b"i,j,y\n\xff,0,1\n")
        obs = bad if case == "obs" else sim / "observations.csv"
        argv = complete_args(obs, out, extra=("--truth", str(bad)) if case == "truth" else ())
    capsys.readouterr()
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
    assert not out.exists()


def test_rerun_reproduces_demo(tmp_path):
    out1 = tmp_path / "one"
    assert run("demo-solar", "--p", "0.5", "--iters", "60", "--seed", "5",
               "--out", str(out1)) == 0
    out2 = tmp_path / "two"
    assert run("rerun", str(out1 / "manifest.json"), "--out", str(out2)) == 0
    for name in ("truth.pgm", "observed.pgm", "recovered.pgm"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert masked_report_bytes(out1 / "report.json") == masked_report_bytes(
        out2 / "report.json"
    )
