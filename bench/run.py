"""poismc benchmark: time to solution per solve, cost per layer, answer gate.

Run from the repository root:

    python3 bench/run.py --workload pmlsv-d200 --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from a run that alternates untraced and traced ops. The last line
of stdout is the result JSON; the line before it records the
environment and the details behind each metric. README.md describes the
workloads, metrics and answer gate.
"""

import os

# Pin BLAS to one thread before numpy is imported, here or in a child.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracing import BALL, SVD_NOVEC, SVD_UV, Tracer, summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
ANSWERS = BENCH / "answers.json"
WORKLOAD_NAMES = ("pmlsv-d200", "ball-d200", "solar-cli")
SETUP_SAMPLES = 7
MIN_TRACED_OPS = 2
# No op starts after this many seconds, so a run ends well inside 180 s.
HARD_STOP_S = 120.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="store this workload's seed-0 answers in answers.json")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if args.record and args.seed != 0:
        p.error("--record stores the seed-0 answers")
    return args


def import_package():
    """Import poismc from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import poismc
    except ImportError as exc:
        sys.exit(f"error: cannot import poismc from {SRC}: {exc}")
    if not Path(poismc.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: poismc imported from {poismc.__file__}, not {SRC}")


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "seed": seed,
    }


def median(xs):
    return statistics.median(xs) if xs else 0.0


# --- set-up ---------------------------------------------------------------------


def time_setups(args):
    """Wall time from process start until the first op is ready.

    Each sample is a fresh interpreter running ``--setup-only``, which
    prints its input fingerprint once set-up is done.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    times, prints = [], set()
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if code != 0:
            sys.exit(f"error: set-up process exited with code {code}")
        prints.add(line.strip())
    return times, prints


# --- ops and the answer gate -------------------------------------------------------


def gate(records, stored, exact):
    """Failures and notes from comparing one op's answers with stored ones.

    Termination and iterations must match; objective and MSE may drift by
    the stored relative tolerance. A hash mismatch is only noted: the
    target is bit-identical output, but a drift within tolerance passes.
    """
    if stored is None:
        return ["no stored answers; run with --record"], []
    tol = stored["tolerance"]
    failures, notes = [], []
    for name, want in stored["solves"].items():
        got = records.get(name)
        if got is None:
            failures.append(f"{name}: missing")
            continue
        for key in ("termination", "iterations"):
            if got[key] != want[key]:
                failures.append(f"{name}: {key} {got[key]!r} != stored {want[key]!r}")
        for key in ("objective", "mse"):
            drift = abs(got[key] - want[key]) / abs(want[key])
            if not drift <= tol[f"{key}_rel"]:
                failures.append(f"{name}: {key} drifted by {drift:.3e} (rel)")
        if exact and got["sha256"] != want["sha256"]:
            notes.append(f"{name}: estimate hash differs from stored")
    return failures, notes


def run_op(workload, state, tracer=None):
    if tracer is not None:
        tracer.install()
    error = None
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        raw = workload.op(state)
    except Exception as exc:  # a PoismcError or a bug: the op fails, the run goes on
        error = f"{type(exc).__name__}: {exc}"
    finally:
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if tracer is not None:
            tracer.uninstall()
    op = {"wall": wall, "cpu": cpu, "traced": tracer is not None,
          "records": {}, "failures": [], "notes": []}
    if error is not None:
        op["failures"].append(error)
        return op
    op["records"], op["failures"] = workload.answers(state, raw)
    return op


def check_ops(ops, stored, exact):
    """Apply the gate to every op, and require one answer across the run."""
    first = next((op["records"] for op in ops if op["records"]), None)
    for op in ops:
        if not op["records"]:
            continue
        failures, notes = gate(op["records"], stored, exact)
        op["failures"] += failures
        op["notes"] += notes
        hashes = {n: r["sha256"] for n, r in op["records"].items()}
        if hashes != {n: r["sha256"] for n, r in first.items()}:
            kind = "traced" if op["traced"] else "untraced"
            op["failures"].append(f"{kind} op answer differs from the run's first op")
    return first or {}


def clock(fn):
    t0, c0 = time.perf_counter(), time.process_time()
    fn()
    return time.perf_counter() - t0, time.process_time() - c0


def measure(workload, state, seconds, tracer=None, yardstick=None):
    """Ops back to back for ``seconds``; with a tracer, every second op is traced.

    With a yardstick, it runs before the first op and after every op, and
    each op keeps the mean wall and CPU time of the two runs around it.
    """
    ops, spans = [], []
    start = time.perf_counter()
    before = yardstick and clock(yardstick.run)
    while True:
        traced = tracer is not None and len(ops) % 2 == 1
        op = run_op(workload, state, tracer if traced else None)
        ops.append(op)
        if traced:
            spans.append(tracer.take())
        if yardstick:
            after = clock(yardstick.run)
            op["yard_wall"], op["yard_cpu"] = ((b + a) / 2 for b, a in zip(before, after))
            before = after
        elapsed = time.perf_counter() - start
        enough = elapsed >= seconds and (
            tracer is None or len(spans) >= MIN_TRACED_OPS)
        if enough or elapsed >= HARD_STOP_S:
            return ops, spans


# --- metrics ---------------------------------------------------------------------


def tail_percentile(walls):
    """The highest whole percentile with at least ten ops beyond it, if above p50."""
    nn = 100 * (len(walls) - 10) // len(walls)
    if nn <= 50:
        return {}
    return {f"op_s.p{nn}": statistics.quantiles(walls, n=100)[nn - 1], "ops": len(walls)}


def end_to_end(ops, first, setups):
    good = [op for op in ops if not op["failures"]]
    walls = [op["wall"] for op in ops]
    mses = [r["mse"] for r in first.values()]
    metrics = {
        "setup_s": (median(setups), "s"),
        "op_rel.p50": (median([op["wall"] / op["yard_wall"] for op in ops]), "ratio"),
        "cpu_rel.p50": (median([op["cpu"] / op["yard_cpu"] for op in ops]), "ratio"),
        "iterations": (sum(r["iterations"] for r in first.values()), "count"),
        "mse": (max(mses) if mses else 0.0, "sq_rate"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_rate": (len(good) / len(ops), "ratio"),
    }
    seconds = {
        "op_s.p50": median(walls),
        "cpu_s.p50": median([op["cpu"] for op in ops]),
        "yardstick_s.p50": median([op["yard_wall"] for op in ops]),
        **tail_percentile(walls),
    }
    return metrics, seconds


def op_counts(summary, records):
    """Every count a traced op yields; two traced ops must agree exactly."""
    counts = {f"{name}.calls": n for name, n in sorted(summary["calls"].items())}
    counts.update(
        iterations=sum(r["iterations"] for r in records.values()),
        pmlsv_iterations=sum(r["iterations"] for r in records.values()
                             if r["algorithm"] == "pmlsv"),
        svt_trials=summary["svt_trials"],
        ball_binds=summary["ball_binds"],
        svd_flops=summary["svd_flops"],
    )
    counts["backtracks"] = counts["svt_trials"] - counts["pmlsv_iterations"]
    return counts


def per_layer(setup_summary, summaries, counts, overhead):
    def calls(name):
        return counts.get(f"{name}.calls", 0)

    def self_s(name):
        return median([s["self_s"].get(name, 0.0) for s in summaries])

    m = {}

    def timed(name, with_calls=True):
        if with_calls:
            m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")

    ap, ball = "projections.alternating_projection", BALL
    iters, backtracks = counts["iterations"], counts["backtracks"]
    svds = calls(SVD_UV) + calls(SVD_NOVEC)
    for name in (SVD_UV, SVD_NOVEC):
        timed(name)
    m["linalg.svd.flops_computed"] = (counts["svd_flops"], "flop")
    timed(ap)
    m[f"{ap}.sweeps_per_call"] = (calls(ball) / calls(ap) if calls(ap) else 0.0, "sweeps/call")
    timed(ball)
    m[f"{ball}.bind_ratio"] = (counts["ball_binds"] / calls(ball) if calls(ball) else 0.0, "ratio")
    for name in ("projections.project_box", "core.validate_region",
                 "likelihood.neg_log_likelihood", "likelihood.gradient"):
        timed(name)
    timed("solvers.solve", with_calls=False)
    m["solvers.svd_per_iter"] = (svds / iters if iters else 0.0, "svd/iter")
    m["solvers.backtracks"] = (backtracks, "count")
    m["solvers.step_accept_ratio"] = (iters / (iters + backtracks) if iters else 0.0, "ratio")
    # Synthesis is set-up work on the d=200 workloads and op work on
    # solar-cli, so these add the traced set-up to one op.
    for name in ("synth.make_low_rank", "synth.sample_mask", "synth.sample_poisson"):
        m[f"{name}.self_s"] = (setup_summary["self_s"].get(name, 0.0) + self_s(name), "s")
    for name in ("imaging.read_image", "imaging.patchify", "imaging.write_image",
                 "fileio.write_json", "cli.main"):
        timed(name, with_calls=False)
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


def write_spans(path, phases):
    with open(path, "w") as fh:
        for phase, spans in phases:
            for i, (name, parent, t0, t1, _) in enumerate(spans):
                fh.write(json.dumps([phase, i, parent, name, t0, t1]) + "\n")


# --- entry points ------------------------------------------------------------------


def run(args, workload, workdir):
    from workloads import Yardstick

    answers = json.loads(ANSWERS.read_text())
    stored = answers["workloads"].get(args.workload)
    if stored is not None:
        stored = dict(stored, tolerance=answers["tolerance"])
    exact = args.seed == 0 or not workload.relabelled
    problems, detail = [], {}

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            state = workload.setup(args.seed, workdir)
        finally:
            tracer.uninstall()
        setup_spans = tracer.take()
        ops, spans = measure(workload, state, args.seconds, tracer)
    else:
        setups, prints = time_setups(args)
        state = workload.setup(args.seed, workdir)
        if prints != {workload.fingerprint(state)}:
            problems.append("set-up gave different inputs in different processes")
        ops, spans = measure(workload, state, args.seconds,
                             yardstick=Yardstick(*workload.yardstick))
        detail["setup_s"] = setups

    first = check_ops(ops, stored, exact)
    if args.trace:
        summaries = [summarize(s) for s in spans]
        traced = [op for op in ops if op["traced"]]
        counts = [op_counts(s, op["records"]) for s, op in zip(summaries, traced)]
        if any(c != counts[0] for c in counts):
            problems.append("traced ops disagree on their counts")
        untraced = [op["wall"] for op in ops if not op["traced"]]
        overhead = median([op["wall"] for op in traced]) / median(untraced) - 1.0
        metrics = per_layer(summarize(setup_spans), summaries, counts[0], overhead)
        detail["counts"] = counts[0]
        if stored is not None:
            detail["counts_vs_stored"] = {
                k: [counts[0].get(k), v] for k, v in stored["counts"].items()
                if counts[0].get(k) != v}
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        write_spans(spans_path, [("setup", setup_spans), ("op", spans[0])])
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics, detail["seconds"] = end_to_end(ops, first, detail["setup_s"])

    failed = sum(bool(op["failures"]) for op in ops)
    detail.update(
        answers=first,
        gate="hash" if exact else "tolerance (relabelled instance)",
        op_s=[op["wall"] for op in ops],
        traced=[op["traced"] for op in ops],
        failures=sorted({f for op in ops for f in op["failures"]}),
        notes=sorted({n for op in ops for n in op["notes"]}),
        problems=problems,
    )
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail


def record(args, workload, workdir):
    """Store the seed-0 answers and counts of one traced op in answers.json."""
    state = workload.setup(0, workdir)
    tracer = Tracer()
    op = run_op(workload, state, tracer)
    if op["failures"]:
        sys.exit(f"error: op failed: {op['failures']}")
    counts = op_counts(summarize(tracer.take()), op["records"])
    answers = json.loads(ANSWERS.read_text())
    answers["workloads"][args.workload] = {"solves": op["records"], "counts": counts}
    ANSWERS.write_text(json.dumps(answers, indent=2, sort_keys=True) + "\n")
    print(json.dumps(answers["workloads"][args.workload], indent=2, sort_keys=True))


def main(argv=None):
    args = parse_args(argv)
    import_package()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            print(workload.fingerprint(workload.setup(args.seed, workdir)), flush=True)
            return 0
        if args.record:
            record(args, workload, workdir)
            return 0
        result, detail = run(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment(args.seed)
    report = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "env": env, "detail": detail, "result": result}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    print(json.dumps({"env": env, "detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
