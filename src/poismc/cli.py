"""Command-line interface.

Subcommands: ``simulate`` (synthesize truth + observations),
``complete`` (recover from an observation CSV), ``bounds`` (evaluate the
theoretical error bounds), ``verify`` (Monte-Carlo inequality checks),
``demo-solar`` (image recovery demo), and ``rerun`` (re-execute a
command from its manifest).

Every file-writing command drops a ``manifest.json`` next to its
outputs; re-running through the manifest reproduces the artifacts.
All randomness flows from ``--seed``.

A flag that sets a field of one of the package's types stores to that
field (``--rank`` to ``FeasibleRegion.r``, ``--iters`` to
``SolverConfig.max_iter``, ``simulate --m`` to ``SynthesisSpec.mask_m``),
and ``_build`` makes the type from the flags a command has. The types
check their own fields, so the commands do not check them again.

``--out`` is made in one place, ``_write_outputs``, just before the
first file is written: after every input file is read (so ``complete
--truth`` is read and checked against ``(d1, d2)`` before the solve),
every value is checked and the solve has run. So every validation
error exits 2, and every unreadable input exits 1, before ``--out``
exists.

Exit codes: 0 ok, 1 I/O failure (a file that cannot be read or written,
is not UTF-8 text where text is expected, does not parse (JSON nested too
deep included), or holds no data; a ``rerun`` manifest whose ``argv`` is
not a non-empty list of strings or starts with ``rerun``; an ``--out``
directory that cannot be created), 2 validation,
3 the error carries a report (a solve failed after its first iterate),
4 verification violation.

Every error a command raises becomes an exit in ``main``, and only
there. An error that carries a report has that report, the last good
iterate's, written to ``report.json`` under ``--out`` with its manifest,
and exits 3; if that write fails, the run exits 1 instead. Every other
error prints one ``error:`` line. A message of the form ``<field> must
...``, where the field is the ``dest`` of one of the command's flags, is
printed with the flag in place of the field (``--iters must ...`` for
``SolverConfig``'s ``max_iter``, ``--alpha must ...`` for
``FeasibleRegion``'s ``alpha``); any other message passes unchanged.
"""

import argparse
import dataclasses
import importlib.resources
import json
import os
import sys

import numpy as np

from . import __version__
from .bounds import BoundConstants, _finite_or_none, lower_bound, upper_bound
from .core import FeasibleRegion, as_matrix, mse_per_entry
from .errors import CorruptFile, IoFailure, PoismcError, UnsupportedFormat
from .fileio import (
    SCHEMA_VERSION,
    make_dir,
    read_json,
    read_matrix_csv,
    read_observations_csv,
    write_json,
    write_matrix_csv,
    write_observations_csv,
)
from .imaging import read_image, recover_image, to_display, unpatchify, write_image
from .solvers import ALGORITHMS, SolverConfig, solve
from .synth import SynthesisSpec, make_low_rank, observe, verify_lemmas

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_VIOLATION = 4

_IO_ERRORS = (IoFailure, CorruptFile, UnsupportedFormat)


def default_demo_image():
    """Path of the packaged synthetic 48x48 demo image."""
    return str(importlib.resources.files("poismc").joinpath("data/solar48.pgm"))


def _fail(message, code):
    print(f"error: {message}", file=sys.stderr)
    return code


def _write_outputs(args, argv, files, report=None):
    """Make ``--out`` and write ``files``, ``report.json`` if given, and the manifest.

    ``files`` maps a file name to ``(writer, value)``, written as
    ``writer(value, path)``. The run's identity, its ``--out``, command
    and ``--seed``, comes from ``args``. ``report`` is the body of
    ``report.json``; ``schema_version`` and ``command`` are filled in
    here. ``manifest.json`` lists every file but itself.
    """
    if report is not None:
        report = {"schema_version": SCHEMA_VERSION, "command": args.command, **report}
        files = {**files, "report.json": (write_json, report)}
    out = make_dir(args.out)
    for name, (write, value) in files.items():
        write(value, os.path.join(out, name))
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "tool": "poismc",
        "version": __version__,
        "command": args.command,
        "argv": list(argv),
        "seed": args.seed,
        "outputs": sorted(files),
    }
    write_json(manifest, os.path.join(out, "manifest.json"))


def _build(cls, args, **given):
    """``cls(**given)`` plus every field of ``cls`` a flag of ``args`` stores."""
    fields = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in vars(args).items() if k in fields}, **given)


# --- subcommands -----------------------------------------------------------


def cmd_simulate(args, argv):
    spec = _build(SynthesisSpec, args, region=_build(FeasibleRegion, args))
    truth = make_low_rank(spec)
    obs = observe(truth, spec.mask_m, spec.seed)
    _write_outputs(args, argv, {"truth.csv": (write_matrix_csv, truth),
                                "observations.csv": (write_observations_csv, obs)})
    print(f"simulate: wrote {len(obs)} observations to {args.out}")
    return EXIT_OK


def cmd_complete(args, argv):
    region = _build(FeasibleRegion, args)
    obs = read_observations_csv(args.obs, args.d1, args.d2)
    cfg = _build(SolverConfig, args)
    if args.baseline and args.truth is None:
        return _fail("--baseline requires --truth", EXIT_VALIDATION)
    if args.truth is not None:
        truth = as_matrix(read_matrix_csv(args.truth), shape=region.shape)
    report = solve(obs, region, cfg)
    payload = {"solver": report.to_json_dict()}
    if args.truth is not None:
        payload["mse"] = mse_per_entry(truth, report.estimate)
        if args.baseline:
            payload["baseline_mse"] = mse_per_entry(truth, region.midpoint())
    _write_outputs(args, argv, {"estimate.csv": (write_matrix_csv, report.estimate)},
                   payload)
    print(
        f"complete: {report.algorithm} ran {report.iterations_run} iterations "
        f"({report.termination}) in {report.wall_time:.3f}s"
    )
    return EXIT_OK


def cmd_bounds(args, argv):
    region = _build(FeasibleRegion, args)
    if not args.m > 0:
        return _fail(f"--m must be > 0, got {args.m}", EXIT_VALIDATION)
    constants = _build(BoundConstants, args)
    ub = upper_bound(region, args.m, constants)
    lb = lower_bound(region, args.m, constants)
    if ub.valid and lb.valid:
        gap, gap_reason = ub.value / lb.value, ""
    else:
        gap = None
        # A hypothesis both bounds share (m <= d1*d2) is named once.
        reasons = (r for rep in (ub, lb) for r in rep.reason.split("; ") if r)
        gap_reason = "; ".join(dict.fromkeys(reasons))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "upper": ub.to_json_dict(),
        "lower": lb.to_json_dict(),
        "gap": _finite_or_none(gap),
        "gap_reason": gap_reason,
    }
    if args.json:
        # JSON has no inf or NaN: one that reaches here raises, not prints.
        print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))
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
    # Only the box matters for these checks; shape and rank are fixed.
    region = _build(FeasibleRegion, args, d1=16, d2=16, r=4)
    report = verify_lemmas(region, args.samples, args.seed)
    _write_outputs(args, argv, {"verify.json": (write_json, report)})
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
    rec = recover_image(
        image,
        args.p,
        _build(SolverConfig, args),
        seed=args.seed,
        patch=args.patch,
        scale=args.scale,
        alpha=args.alpha,
        beta=args.beta,
    )
    obs = rec.trial.observations
    counts = np.zeros(rec.truth.shape)
    counts[obs.rows, obs.cols] = obs.counts
    views = {
        "truth.pgm": to_display(rec.truth, rec.region),
        # Observed view: counts where sampled, dark where missing.
        "observed.pgm": np.where(obs.mask(), to_display(counts, rec.region), 0),
        "recovered.pgm": to_display(rec.trial.report.estimate, rec.region),
    }
    payload = {
        "p": args.p,
        "mse": rec.trial.mse,
        "baseline_mse": rec.trial.baseline_mse,
        "wall_time_sec": rec.trial.report.wall_time,
        "solver": rec.trial.report.to_json_dict(),
    }
    images = {name: (write_image, unpatchify(view, rec.layout))
              for name, view in views.items()}
    _write_outputs(args, argv, images, payload)
    print(
        f"demo-solar: p={args.p} mse={rec.trial.mse:.4f} "
        f"baseline={rec.trial.baseline_mse:.4f} wall={rec.trial.report.wall_time:.3f}s"
    )
    return EXIT_OK


def cmd_rerun(args, argv):
    manifest = read_json(args.manifest)
    new_argv = manifest.get("argv") if isinstance(manifest, dict) else None
    if not (isinstance(new_argv, list) and new_argv
            and all(isinstance(a, str) for a in new_argv)
            and new_argv[0] != "rerun"):
        raise CorruptFile(f"{args.manifest}: argv must be a non-empty list of "
                          "strings that does not start with rerun")
    if args.out is not None:
        i = new_argv.index("--out") if "--out" in new_argv else len(new_argv)
        new_argv[i : i + 2] = ["--out", args.out]
    return main(new_argv)


# --- parser -----------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="poismc",
        description="Recover low-rank intensity matrices from Poisson counts.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = SolverConfig()
    constants = BoundConstants()

    def add_region(p):
        p.add_argument("--d1", type=int, required=True, help="row count")
        p.add_argument("--d2", type=int, required=True, help="column count")
        p.add_argument("--rank", dest="r", metavar="RANK", type=int, required=True,
                       help="rank budget")
        p.add_argument("--alpha", type=float, required=True, help="entry upper bound")
        p.add_argument("--beta", type=float, required=True, help="entry lower bound")

    def add_solver(p):
        p.add_argument("--iters", dest="max_iter", metavar="ITERS", type=int,
                       default=defaults.max_iter, help="iteration cap")
        p.add_argument("--lambda", dest="lam", type=float, default=defaults.lam,
                       help="nuclear-norm weight (pmlsv)")
        p.add_argument("--l0", type=float, default=defaults.l0,
                       help="initial reciprocal step size (pmlsv)")
        p.add_argument("--eta", type=float, default=defaults.eta,
                       help="backtracking factor")

    p = sub.add_parser("simulate", help="synthesize truth and observations")
    add_region(p)
    p.add_argument("--m", dest="mask_m", metavar="M", type=float, required=True,
                   help="expected sample count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="./run", help="output directory")

    p = sub.add_parser("complete", help="recover a matrix from observations")
    p.add_argument("--obs", required=True, help="observation CSV (header i,j,y)")
    add_region(p)
    p.add_argument("--algo", dest="algorithm", choices=ALGORITHMS,
                   default="pmlsv")
    add_solver(p)
    p.add_argument("--proj-tol", type=float, default=defaults.proj_tol,
                   help="feasibility projection tolerance (pg/apg); gaps at or "
                        "below the float64 noise floor 4*sqrt(d1*d2)*eps*||M||_F "
                        "also close, so a smaller value changes nothing, and a box "
                        "point already inside the nuclear ball closes with gap 0")
    p.add_argument("--proj-max-iter", type=int, default=defaults.proj_max_iter,
                   help="feasibility projection iteration cap (pg/apg)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--truth", default=None, help="truth CSV for scoring")
    p.add_argument("--baseline", action="store_true",
                   help="also score the constant midpoint guess")
    p.add_argument("--out", default="./run")

    p = sub.add_parser("bounds", help="evaluate the theoretical error bounds")
    add_region(p)
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--c-prime", dest="c_prime", type=float, default=constants.c_prime)
    p.add_argument("--c0", type=float, default=constants.c0)
    p.add_argument("--c1", type=float, default=constants.c1)
    p.add_argument("--c2", type=float, default=constants.c2)
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
    add_solver(p)
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
    for command in sub.choices.values():
        command.set_defaults(flags={a.dest: a.option_strings[0]
                                    for a in command._actions if a.option_strings})
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
        try:
            return _COMMANDS[args.command](args, argv)
        except PoismcError as exc:
            if exc.report is None:
                raise
            _write_outputs(args, argv, {}, {"solver": exc.report.to_json_dict()})
            return _fail(str(exc), EXIT_SOLVER)
    except (*_IO_ERRORS, PoismcError, ValueError) as exc:
        # "<field> must ..." names the flag whose dest is the field.
        field, _, rest = str(exc).partition(" ")
        named = rest.startswith("must ") and field in args.flags
        return _fail(f"{args.flags[field]} {rest}" if named else exc,
                     EXIT_IO if isinstance(exc, _IO_ERRORS) else EXIT_VALIDATION)


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
