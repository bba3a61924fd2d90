"""Ground-truth synthesis, sampling, and Monte-Carlo experiment harness.

Every randomized operation is a deterministic function of (inputs, seed).
Logical streams (ground truth, sample mask, counts, trial scheduling,
verification draws) are derived from the seed through distinct labeled
substreams, so enlarging one part of an experiment never perturbs the
draws of another.
"""

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    FeasibleRegion,
    ObservationSet,
    membership,
    mse_per_entry,
)
from .bounds import poisson_tail_threshold, tail_bound
from .errors import (
    BadM,
    DegenerateRange,
    NonPositiveIntensity,
    RankInfeasible,
    ShapeMismatch,
)
from .likelihood import hellinger_mse_floor, hellinger_sq_matrix, kl
from .solvers import SolverConfig, SolverReport, solve

# Substream labels; fixed forever for reproducibility.
STREAM_TRUTH = 0
STREAM_MASK = 1
STREAM_COUNTS = 2
STREAM_TRIAL = 3
STREAM_SCALARS = 4
STREAM_MATRICES = 5
STREAM_TAIL = 6

_SEED_MASK = (1 << 64) - 1


def substream(seed, *path):
    """Generator for the labeled substream ``path`` of ``seed``."""
    entropy = [int(seed) & _SEED_MASK] + [int(p) for p in path]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derive_seed(seed, *path):
    """Stable 64-bit child seed for the labeled substream ``path``."""
    ss = np.random.SeedSequence([int(seed) & _SEED_MASK] + [int(p) for p in path])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class SynthesisSpec:
    """One synthetic problem instance: geometry, sample budget, seed.

    Construction raises ``BadM`` unless ``0 < mask_m <= d1 * d2``.
    """

    region: FeasibleRegion
    mask_m: float
    seed: int

    def __post_init__(self):
        if not 0 < self.mask_m <= self.d1 * self.d2:
            raise BadM(
                f"mask_m must be in (0, {self.d1 * self.d2}], got {self.mask_m}"
            )

    @property
    def d1(self):
        return self.region.d1

    @property
    def d2(self):
        return self.region.d2

    @property
    def r(self):
        return self.region.r


@dataclass(frozen=True)
class TrialResult:
    mse: float
    m_realized: int
    solver_report: SolverReport
    seed: int


def make_low_rank(spec):
    """Random rank-<= r matrix with entries exactly inside the region box.

    Built as a rank-(r-1) product of uniform factors plus the rank-one
    affine shift that rescales the product into [beta, alpha]. The
    nuclear-ball membership is asserted and, should floating point ever
    nudge it out, the spread is shrunk and the rescale repeated.
    """
    region = spec.region
    d1, d2, r = region.d1, region.d2, region.r
    alpha, beta = region.alpha, region.beta
    if beta == alpha:
        return np.full((d1, d2), alpha)
    if r < 2:
        raise RankInfeasible("need r >= 2 for a non-constant truth")
    rng = substream(spec.seed, STREAM_TRUTH)
    a = rng.random((d1, r - 1))
    b = rng.random((d2, r - 1))
    p = a @ b.T
    lo, hi = p.min(), p.max()
    if hi == lo:
        raise DegenerateRange("factor product is constant")
    unit = (p - lo) / (hi - lo)
    spread = alpha - beta
    while True:
        m = beta + spread * unit
        if membership(m, region).in_nuclear_ball:
            return m
        spread *= 0.9


def sample_mask(d1, d2, m, seed):
    """Bernoulli cell mask with inclusion probability ``m / (d1*d2)``."""
    if not 0 < m <= d1 * d2:
        raise BadM(f"m must be in (0, {d1 * d2}], got {m}")
    rng = substream(seed, STREAM_MASK)
    return rng.random((d1, d2)) < m / (d1 * d2)


def sample_poisson(truth, mask, seed, m_expected=None):
    """Draw one Poisson count per masked cell of ``truth``."""
    truth = np.asarray(truth, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if truth.shape != mask.shape:
        raise ShapeMismatch(f"truth {truth.shape} and mask {mask.shape} disagree")
    rows, cols = np.nonzero(mask)
    lam = truth[rows, cols]
    if np.any(lam <= 0.0):
        raise NonPositiveIntensity("rates must be > 0 on the mask")
    rng = substream(seed, STREAM_COUNTS)
    counts = rng.poisson(lam)
    return ObservationSet(
        d1=truth.shape[0],
        d2=truth.shape[1],
        rows=rows,
        cols=cols,
        counts=counts,
        m_expected=m_expected,
    )


def run_trial(spec, cfg):
    """Synthesize, sample, solve, and score one problem instance."""
    truth = make_low_rank(spec)
    mask = sample_mask(spec.d1, spec.d2, spec.mask_m, spec.seed)
    obs = sample_poisson(truth, mask, spec.seed, m_expected=spec.mask_m)
    report = solve(obs, spec.region, cfg)
    return TrialResult(
        mse=mse_per_entry(truth, report.estimate),
        m_realized=int(mask.sum()),
        solver_report=report,
        seed=spec.seed,
    )


SWEEP_CSV_HEADER = "m,trials,mean_mse,std_mse,mean_iters,mean_wall_time"


def sweep_m(spec, m_list, trials, cfg, csv_path=None):
    """Mean/std recovery error against the expected sample count.

    Runs ``trials`` independent instances per entry of the increasing
    ``m_list``; trial seeds derive from ``spec.seed`` and the (m, trial)
    position so extending the grid or the trial count never reruns
    differently. Returns one row dict per m and optionally writes the
    table as CSV.
    """
    if any(b <= a for a, b in zip(m_list, m_list[1:])):
        raise BadM("m_list must be strictly increasing")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rows = []
    for mi, m in enumerate(m_list):
        results = []
        for t in range(trials):
            child = derive_seed(spec.seed, STREAM_TRIAL, mi, t)
            results.append(run_trial(replace(spec, mask_m=m, seed=child), cfg))
        mses = np.array([tr.mse for tr in results])
        rows.append(
            {
                "m": float(m),
                "trials": trials,
                "mean_mse": float(mses.mean()),
                "std_mse": float(mses.std()),
                "mean_iters": float(
                    np.mean([tr.solver_report.iterations_run for tr in results])
                ),
                "mean_wall_time": float(
                    np.mean([tr.solver_report.wall_time for tr in results])
                ),
            }
        )
    if csv_path is not None:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=SWEEP_CSV_HEADER.split(","))
            writer.writeheader()
            for row in rows:
                writer.writerow(row)
    return rows


def poisson_tail_check(lam, t, draws, seed, stream=STREAM_TAIL):
    """Monte-Carlo check of the exponential upper tail at rate ``lam``.

    Counts draws with ``Y - lam >= t`` and compares the empirical
    frequency against ``exp(-t)`` plus three binomial standard errors.
    """
    if not lam > 0:
        raise NonPositiveIntensity(f"lam must be > 0, got {lam}")
    if draws < 1:
        raise ValueError("draws must be >= 1")
    rng = substream(seed, stream)
    y = rng.poisson(lam, size=int(draws))
    events = int(np.sum(y - lam >= t))
    bound = tail_bound(t)
    se = math.sqrt(bound * (1.0 - bound) / draws)
    return {
        "lam": float(lam),
        "t": float(t),
        "draws": int(draws),
        "events": events,
        "empirical": events / draws,
        "bound": bound,
        "ok": events / draws <= bound + 3.0 * se,
    }


def verify_lemmas(region, samples, seed, matrix_samples=None, tail_draws=None):
    """Spot-check the package's three supporting inequalities by sampling.

    * KL between rates is at most the relative quadratic gap
      ``(y - x)**2 / y``  (deterministic; zero violations expected);
    * the average squared Hellinger distance of box matrices dominates
      the per-entry MSE times :func:`hellinger_mse_floor`  (deterministic);
    * the Poisson upper tail at the box cap obeys the exponential bound
      (Monte-Carlo; holds within three standard errors).

    ``samples`` scalar pairs are drawn from the box; matrix pairs default
    to ``samples // 10`` and tail draws to ``100 * samples`` capped at 1e6.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if matrix_samples is None:
        matrix_samples = max(1, samples // 10)
    if tail_draws is None:
        tail_draws = min(1_000_000, 100 * samples)
    alpha, beta = region.alpha, region.beta

    rng = substream(seed, STREAM_SCALARS)
    x = rng.uniform(beta, alpha, size=samples)
    y = rng.uniform(beta, alpha, size=samples)
    kl_violations = int(np.sum(kl(x, y) > (y - x) ** 2 / y + 1e-15))

    rng = substream(seed, STREAM_MATRICES)
    floor = hellinger_mse_floor(region)
    shape = (region.d1, region.d2)
    floor_violations = 0
    for _ in range(matrix_samples):
        p = rng.uniform(beta, alpha, size=shape)
        q = rng.uniform(beta, alpha, size=shape)
        if hellinger_sq_matrix(p, q) < floor * mse_per_entry(p, q) - 1e-15:
            floor_violations += 1

    tail = poisson_tail_check(
        alpha, poisson_tail_threshold(alpha), tail_draws, seed
    )
    return {
        "schema_version": 1,
        "kl_quadratic": {"samples": int(samples), "violations": kl_violations},
        "hellinger_mse_floor": {
            "samples": int(matrix_samples),
            "violations": floor_violations,
        },
        "poisson_tail": tail,
    }
