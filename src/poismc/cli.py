"""Command-line interface.

Subcommands: ``simulate`` (synthesize truth + observations),
``complete`` (recover from an observation CSV), ``bounds`` (evaluate the
theoretical error bounds), ``verify`` (Monte-Carlo inequality checks),
``demo-solar`` (image recovery demo), and ``rerun`` (re-execute a
command from its manifest).

Every file-writing command drops a ``manifest.json`` next to its
outputs; re-running through the manifest reproduces the artifacts.
All randomness flows from ``--seed``.

Exit codes: 0 ok, 1 I/O failure, 2 validation, 3 solver failure,
4 verification violation.
"""

import argparse
import importlib.resources
import json
import os
import sys

import numpy as np

from . import __version__
from .bounds import BoundConstants, lower_bound, upper_bound
from .core import FeasibleRegion
from .errors import (
    BacktrackOverflow,
    CorruptFile,
    IoFailure,
    NoConvergence,
    PoismcError,
    ProjectionFailure,
    SvdFailure,
    UnsupportedFormat,
)
from .fileio import (
    read_json,
    read_matrix_csv,
    read_observations_csv,
    write_json,
    write_matrix_csv,
    write_observations_csv,
)
from .imaging import read_image, recover_image, to_display, write_image
from .solvers import SolverConfig, solve
from .synth import SynthesisSpec, make_low_rank, sample_mask, sample_poisson, verify_lemmas
from .core import mse_per_entry

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_VIOLATION = 4

_IO_ERRORS = (IoFailure, CorruptFile, UnsupportedFormat)
_SOLVER_ERRORS = (ProjectionFailure, BacktrackOverflow, SvdFailure, NoConvergence)


def default_demo_image():
    """Path of the packaged synthetic 48x48 demo image."""
    return str(importlib.resources.files("poismc").joinpath("data/solar48.pgm"))


def _fail(message, code):
    print(f"error: {message}", file=sys.stderr)
    return code


def _ensure_out(path):
    os.makedirs(path, exist_ok=True)
    return path


def _write_manifest(out_dir, command, argv, seed, outputs):
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "tool": "poismc",
        "version": __version__,
        "command": command,
        "argv": list(argv),
        "seed": seed,
        "outputs": sorted(outputs),
    }
    write_json(manifest, os.path.join(out_dir, "manifest.json"))


def _region_from_args(args):
    return FeasibleRegion(
        d1=args.d1, d2=args.d2, alpha=args.alpha, beta=args.beta, r=args.rank
    )


# --- subcommands -----------------------------------------------------------


def cmd_simulate(args, argv):
    region = _region_from_args(args)
    if not 0 < args.m <= args.d1 * args.d2:
        return _fail(f"--m must be in (0, d1*d2]={args.d1 * args.d2}, got {args.m}",
                     EXIT_VALIDATION)
    out = _ensure_out(args.out)
    spec = SynthesisSpec(region=region, mask_m=args.m, seed=args.seed)
    truth = make_low_rank(spec)
    mask = sample_mask(args.d1, args.d2, args.m, args.seed)
    obs = sample_poisson(truth, mask, args.seed, m_expected=args.m)
    write_matrix_csv(truth, os.path.join(out, "truth.csv"))
    write_observations_csv(obs, os.path.join(out, "observations.csv"))
    _write_manifest(out, "simulate", argv, args.seed,
                    ["truth.csv", "observations.csv"])
    print(f"simulate: wrote {len(obs)} observations to {out}")
    return EXIT_OK


def cmd_complete(args, argv):
    region = _region_from_args(args)
    obs = read_observations_csv(args.obs, args.d1, args.d2)
    cfg = SolverConfig(
        algorithm=args.algo,
        max_iter=args.iters,
        lam=args.lam,
        l0=args.l0,
        eta=args.eta,
        proj_tol=args.proj_tol,
        proj_max_iter=args.proj_max_iter,
    )
    if args.baseline and args.truth is None:
        return _fail("--baseline requires --truth", EXIT_VALIDATION)
    out = _ensure_out(args.out)
    report = solve(obs, region, cfg)
    write_matrix_csv(report.estimate, os.path.join(out, "estimate.csv"))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "complete",
        "solver": report.to_json_dict(),
    }
    if args.truth is not None:
        truth = read_matrix_csv(args.truth)
        payload["mse"] = mse_per_entry(truth, report.estimate)
        if args.baseline:
            baseline = np.full(region.shape, (args.alpha + args.beta) / 2.0)
            payload["baseline_mse"] = mse_per_entry(truth, baseline)
    write_json(payload, os.path.join(out, "report.json"))
    _write_manifest(out, "complete", argv, args.seed,
                    ["estimate.csv", "report.json"])
    print(
        f"complete: {report.algorithm} ran {report.iterations_run} iterations "
        f"({report.termination}) in {report.wall_time:.3f}s"
    )
    return EXIT_OK


def cmd_bounds(args, argv):
    region = _region_from_args(args)
    if not args.m > 0:
        return _fail(f"--m must be > 0, got {args.m}", EXIT_VALIDATION)
    constants = BoundConstants(
        c_prime=args.c_prime, c0=args.c0, c1=args.c1, c2=args.c2
    )
    ub = upper_bound(region, args.m, constants)
    lb = lower_bound(region, args.m, constants)
    if ub.valid and lb.valid:
        gap, gap_reason = ub.value / lb.value, ""
    else:
        gap = None
        gap_reason = "; ".join(
            r for r in (ub.reason, lb.reason) if r
        ) or "a bound is invalid"
    payload = {
        "schema_version": SCHEMA_VERSION,
        "upper": ub.to_json_dict(),
        "lower": lb.to_json_dict(),
        "gap": gap,
        "gap_reason": gap_reason,
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"{'quantity':<12}{'value':<16}{'regime':<12}valid  reason")
        for name, rep in (("upper", ub), ("lower", lb)):
            print(
                f"{name:<12}{rep.value:<16.6g}{rep.regime:<12}"
                f"{str(rep.valid):<7}{rep.reason}"
            )
        gap_str = f"{gap:.6g}" if gap is not None else "n/a"
        print(f"{'gap':<12}{gap_str:<16}{'':<12}{'':<7}{gap_reason}")
    return EXIT_OK


def cmd_verify(args, argv):
    if not args.samples >= 1:
        return _fail(f"--samples must be >= 1, got {args.samples}", EXIT_VALIDATION)
    # Only the box matters for these checks; shape and rank are fixed.
    region = FeasibleRegion(d1=16, d2=16, alpha=args.alpha, beta=args.beta, r=4)
    out = _ensure_out(args.out)
    report = verify_lemmas(region, args.samples, args.seed)
    write_json(report, os.path.join(out, "verify.json"))
    _write_manifest(out, "verify", argv, args.seed, ["verify.json"])
    deterministic_violations = (
        report["kl_quadratic"]["violations"]
        + report["hellinger_mse_floor"]["violations"]
    )
    tail_note = "ok" if report["poisson_tail"]["ok"] else "above tolerance"
    print(
        f"verify: {deterministic_violations} deterministic violations, "
        f"tail check {tail_note}"
    )
    if deterministic_violations:
        return _fail("deterministic inequality violated", EXIT_VIOLATION)
    return EXIT_OK


def cmd_demo_solar(args, argv):
    image = read_image(args.image if args.image else default_demo_image())
    cfg = SolverConfig(
        algorithm="pmlsv",
        max_iter=args.iters,
        lam=args.lam,
        l0=args.l0,
        eta=args.eta,
    )
    out = _ensure_out(args.out)
    rec = recover_image(
        image,
        args.p,
        cfg,
        seed=args.seed,
        patch=args.patch,
        scale=args.scale,
        alpha=args.alpha,
        beta=args.beta,
    )
    region, layout = rec.region, rec.layout
    from .imaging import unpatchify

    truth_img = unpatchify(to_display(rec.truth, region), layout)
    # Observed view: counts where sampled, dark where missing.
    counts = np.zeros(rec.truth.shape)
    obs = rec.observations
    counts[obs.rows, obs.cols] = obs.counts
    observed = np.where(rec.mask, to_display(counts, region), 0)
    observed_img = unpatchify(observed, layout)
    recovered_img = unpatchify(to_display(rec.estimate, region), layout)
    write_image(truth_img, os.path.join(out, "truth.pgm"))
    write_image(observed_img.astype(np.int64), os.path.join(out, "observed.pgm"))
    write_image(recovered_img, os.path.join(out, "recovered.pgm"))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "demo-solar",
        "p": args.p,
        "mse": rec.mse,
        "baseline_mse": rec.baseline_mse,
        "wall_time_sec": rec.wall_time,
        "solver": rec.report.to_json_dict(),
    }
    write_json(payload, os.path.join(out, "report.json"))
    _write_manifest(out, "demo-solar", argv, args.seed,
                    ["truth.pgm", "observed.pgm", "recovered.pgm", "report.json"])
    print(
        f"demo-solar: p={args.p} mse={rec.mse:.4f} "
        f"baseline={rec.baseline_mse:.4f} wall={rec.wall_time:.3f}s"
    )
    return EXIT_OK


def cmd_rerun(args, argv):
    manifest = read_json(args.manifest)
    stored = manifest.get("argv")
    if not stored:
        return _fail(f"{args.manifest} carries no argv", EXIT_VALIDATION)
    new_argv = list(stored)
    if args.out is not None:
        if "--out" in new_argv:
            i = new_argv.index("--out")
            new_argv[i + 1] = args.out
        else:
            new_argv += ["--out", args.out]
    return main(new_argv)


# --- parser -----------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="poismc",
        description="Recover low-rank intensity matrices from Poisson counts.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_region(p):
        p.add_argument("--d1", type=int, required=True, help="row count")
        p.add_argument("--d2", type=int, required=True, help="column count")
        p.add_argument("--rank", type=int, required=True, help="rank budget")
        p.add_argument("--alpha", type=float, required=True, help="entry upper bound")
        p.add_argument("--beta", type=float, required=True, help="entry lower bound")

    p = sub.add_parser("simulate", help="synthesize truth and observations")
    add_region(p)
    p.add_argument("--m", type=float, required=True, help="expected sample count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="./run", help="output directory")

    p = sub.add_parser("complete", help="recover a matrix from observations")
    p.add_argument("--obs", required=True, help="observation CSV (header i,j,y)")
    add_region(p)
    p.add_argument("--algo", choices=("pg", "apg", "pmlsv"), default="pmlsv")
    p.add_argument("--iters", type=int, default=2000, help="iteration cap")
    p.add_argument("--lambda", dest="lam", type=float, default=0.1,
                   help="nuclear-norm weight (pmlsv)")
    p.add_argument("--l0", type=float, default=1e-4,
                   help="initial reciprocal step size (pmlsv)")
    p.add_argument("--eta", type=float, default=1.1,
                   help="backtracking factor (pmlsv)")
    p.add_argument("--proj-tol", type=float, default=1e-6,
                   help="feasibility projection tolerance (pg/apg); gaps at or "
                        "below the float64 noise floor 4*sqrt(d1*d2)*eps*||M||_F "
                        "also close, so a smaller value changes nothing, and a box "
                        "point already inside the nuclear ball closes with gap 0")
    p.add_argument("--proj-max-iter", type=int, default=500,
                   help="feasibility projection iteration cap (pg/apg)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--truth", default=None, help="truth CSV for scoring")
    p.add_argument("--baseline", action="store_true",
                   help="also score the constant midpoint guess")
    p.add_argument("--out", default="./run")

    p = sub.add_parser("bounds", help="evaluate the theoretical error bounds")
    add_region(p)
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--c-prime", dest="c_prime", type=float,
                   default=BoundConstants().c_prime)
    p.add_argument("--c0", type=float, default=BoundConstants().c0)
    p.add_argument("--c1", type=float, default=BoundConstants().c1)
    p.add_argument("--c2", type=float, default=BoundConstants().c2)
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("verify", help="Monte-Carlo inequality checks")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=9.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--out", default="./run")

    p = sub.add_parser("demo-solar", help="image recovery demo")
    p.add_argument("--image", default=None,
                   help="grayscale PGM (default: packaged demo image)")
    p.add_argument("--p", type=float, default=0.8,
                   help="expected observed fraction in (0, 1]")
    p.add_argument("--lambda", dest="lam", type=float, default=0.1)
    p.add_argument("--iters", type=int, default=2000)
    p.add_argument("--l0", type=float, default=1e-4)
    p.add_argument("--eta", type=float, default=1.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--patch", type=int, default=8, help="square patch size")
    p.add_argument("--scale", type=float, default=1.0,
                   help="pixel-to-rate scale factor")
    p.add_argument("--alpha", type=float, default=None,
                   help="rate cap (default: scaled image max)")
    p.add_argument("--beta", type=float, default=1.0, help="rate floor")
    p.add_argument("--out", default="./run")

    p = sub.add_parser("rerun", help="re-execute a command from its manifest")
    p.add_argument("manifest", help="manifest.json written by a previous run")
    p.add_argument("--out", default=None, help="redirect outputs")
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "complete": cmd_complete,
    "bounds": cmd_bounds,
    "verify": cmd_verify,
    "demo-solar": cmd_demo_solar,
    "rerun": cmd_rerun,
}


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args, argv)
    except _SOLVER_ERRORS as exc:
        return _fail(str(exc), EXIT_SOLVER)
    except _IO_ERRORS as exc:
        return _fail(str(exc), EXIT_IO)
    except FileNotFoundError as exc:
        return _fail(str(exc), EXIT_IO)
    except (PoismcError, ValueError) as exc:
        return _fail(str(exc), EXIT_VALIDATION)


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
