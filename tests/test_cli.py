import dataclasses
import json
import os
import warnings

import numpy as np
import pytest

from poismc import (
    BoundConstants, FeasibleRegion, SolverConfig, init_matrix, lower_bound,
    nuclear_norm, upper_bound,
)
from poismc import solvers as solvers_mod
from poismc.cli import build_parser, default_demo_image, main
from poismc.errors import NonPositiveEntryAtObservation
from poismc.likelihood import _sampled_gradient
from poismc.fileio import (
    read_json, read_matrix_csv, read_observations_csv, write_observations_csv,
)

from test_solvers import binding_instance, fail_on_call


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
    assert "lam must be >= 0" in capsys.readouterr().err
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


def test_demo_rejects_bad_fraction(tmp_path):
    rc = run("demo-solar", "--p", "1.5", "--out", str(tmp_path / "d"))
    assert rc == 2


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
    assert err.startswith("error: ") and str(out) in err
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
