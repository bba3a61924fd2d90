"""The benchmark's three workloads: set-up, one op, and each solve's answer.

Each workload builds its inputs from the benchmark seed in ``setup``,
runs one op through poismc's public entry points in ``op`` (the only
timed part), and turns the op's output into one answer record per solve
in ``answers``. See README.md for why these three.
"""

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

import poismc
from poismc import cli
from poismc.synth import SynthesisSpec

D = 200
REGION = poismc.FeasibleRegion(d1=D, d2=D, alpha=9.0, beta=1.0, r=4)
SYNTH_SEED = 0
BALL_ITERS = 100


def sha256(data):
    return hashlib.sha256(data).hexdigest()


# --- d=200 synthetic instance -------------------------------------------------


@dataclass
class Instance:
    truth: np.ndarray
    obs: poismc.ObservationSet


def synth_instance(seed, workdir=None):
    """The synthesis-seed-0 instance, relabelled by the benchmark seed.

    Seed 0 keeps the instance as synthesized. Any other seed permutes its
    rows, columns and sample order. The relabelled problem is the same
    problem, so iterations and answers match seed 0 up to rounding;
    fresh synthesis seeds would move the pmlsv iteration count between
    257 and 577 and swamp every timing.
    """
    spec = SynthesisSpec(region=REGION, mask_m=0.5 * D * D, seed=SYNTH_SEED)
    truth = poismc.make_low_rank(spec)
    mask = poismc.sample_mask(D, D, spec.mask_m, SYNTH_SEED)
    obs = poismc.sample_poisson(truth, mask, SYNTH_SEED, m_expected=spec.mask_m)
    if seed == 0:
        return Instance(truth, obs)
    rng = np.random.default_rng(seed)
    rows, cols = rng.permutation(D), rng.permutation(D)
    order = rng.permutation(len(obs))
    relabelled = np.empty_like(truth)
    relabelled[np.ix_(rows, cols)] = truth
    obs = poismc.ObservationSet(
        d1=D, d2=D,
        rows=rows[obs.rows][order],
        cols=cols[obs.cols][order],
        counts=obs.counts[order],
        m_expected=obs.m_expected,
    )
    return Instance(relabelled, obs)


def instance_fingerprint(inst):
    parts = (inst.truth, inst.obs.rows, inst.obs.cols, inst.obs.counts)
    return sha256(b"".join(np.ascontiguousarray(p).tobytes() for p in parts))


def solve_pmlsv(inst):
    return {"pmlsv": poismc.solve(inst.obs, REGION, poismc.SolverConfig())}


def solve_ball(inst):
    return {
        algo: poismc.solve(
            inst.obs, REGION, poismc.SolverConfig(algorithm=algo, max_iter=BALL_ITERS)
        )
        for algo in ("pg", "apg")
    }


def report_answers(inst, reports):
    """Answer records plus the violated invariants (box, NaN)."""
    records, violations = {}, []
    for name, rep in reports.items():
        est = rep.estimate
        records[name] = {
            "algorithm": rep.algorithm,
            "termination": rep.termination,
            "iterations": int(rep.iterations_run),
            "objective": float(rep.objective_trace[-1]),
            "mse": poismc.mse_per_entry(inst.truth, est),
            "sha256": sha256(np.ascontiguousarray(est).tobytes()),
        }
        if not np.isfinite(est).all():
            violations.append(f"{name}: estimate has NaN or inf")
        elif not ((est >= REGION.beta) & (est <= REGION.alpha)).all():
            violations.append(f"{name}: estimate leaves the box")
    return records, violations


# --- demo-solar through the CLI --------------------------------------------------


@dataclass
class Solar:
    image: str
    out: str
    pgm: bytes


def write_solar_image(seed, workdir):
    """The packaged demo image, re-encoded as P2 with a seed-chosen layout.

    The pixel grid, and so every answer, is the same for every seed;
    only the bytes the CLI parses change (line width and a comment).
    """
    grid = poismc.read_image(cli.default_demo_image())
    rng = np.random.default_rng(seed)
    per_line = int(rng.integers(4, 65))
    vals = [str(v) for v in grid.ravel()]
    body = "\n".join(" ".join(vals[i:i + per_line]) for i in range(0, len(vals), per_line))
    h, w = grid.shape
    pgm = f"P2\n# benchmark seed {seed}\n{w} {h}\n255\n{body}\n".encode()
    image = workdir / f"solar-{seed}.pgm"
    image.write_bytes(pgm)
    return Solar(str(image), str(workdir / "solar-out"), pgm)


def run_demo_solar(solar):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["demo-solar", "--image", solar.image, "--out", solar.out])
    if code != 0:
        raise RuntimeError(f"demo-solar exited with code {code}")


def solar_answers(solar, _):
    """The answer as the CLI writes it: report.json and recovered.pgm.

    The PGM holds only 256 grey levels, so the hash also covers the exact
    MSE and objective trace, which change with any bit of the estimate.
    """
    with open(f"{solar.out}/report.json") as fh:
        report = json.load(fh)
    with open(f"{solar.out}/recovered.pgm", "rb") as fh:
        recovered = fh.read()
    solver = report["solver"]
    exact = json.dumps([report["mse"], solver["objective_trace"]]).encode()
    record = {
        "algorithm": solver["algorithm"],
        "termination": solver["termination"],
        "iterations": int(solver["iterations_run"]),
        "objective": float(solver["objective_trace"][-1]),
        "mse": float(report["mse"]),
        "sha256": sha256(recovered + exact),
    }
    violations = []
    if not (np.isfinite(record["objective"]) and np.isfinite(record["mse"])):
        violations.append("demo-solar: objective or MSE is not finite")
    return {"demo-solar": record}, violations


class Yardstick:
    """A fixed shrinkage loop written here, not in poismc: the speed reference.

    Each iteration does what a pmlsv iteration does (gather, gradient,
    likelihood, SVD, shrink, clip) on a fixed random instance of the
    workload's shape. Timing it next to every op gives a measure of the
    machine's current speed that no change to poismc can move.
    """

    def __init__(self, shape, iters):
        rng = np.random.default_rng(0)
        truth = rng.uniform(1.0, 9.0, shape)
        self.rows, self.cols = np.nonzero(rng.random(shape) < 0.5)
        self.counts = rng.poisson(truth[self.rows, self.cols])
        self.shape, self.iters = shape, iters

    def run(self):
        m = np.full(self.shape, 5.0)
        for _ in range(self.iters):
            vals = m[self.rows, self.cols]
            g = np.zeros(self.shape)
            g[self.rows, self.cols] = 1.0 - self.counts / vals
            f = -np.sum(self.counts * np.log(vals) - vals)
            u, s, vt = np.linalg.svd(m - g, full_matrices=False)
            m = np.clip((u * np.maximum(s - 1.0, 0.0)) @ vt, 1.0, 9.0)
        return f


@dataclass(frozen=True)
class Workload:
    setup: Callable       # (seed, workdir) -> state
    fingerprint: Callable  # state -> str, equal for equal inputs
    op: Callable           # state -> raw output; the timed part
    answers: Callable      # (state, raw) -> (records by solve, violations)
    relabelled: bool       # seeds != 0 change the input bits of the solver
    yardstick: tuple       # (shape, iterations): about a tenth of one op


WORKLOADS = {
    "pmlsv-d200": Workload(synth_instance, instance_fingerprint, solve_pmlsv,
                           report_answers, relabelled=True, yardstick=((D, D), 40)),
    "ball-d200": Workload(synth_instance, instance_fingerprint, solve_ball,
                          report_answers, relabelled=True, yardstick=((D, D), 40)),
    "solar-cli": Workload(write_solar_image, lambda s: sha256(s.pgm), run_demo_solar,
                          solar_answers, relabelled=False, yardstick=((64, 36), 300)),
}
