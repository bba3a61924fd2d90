"""Ground-truth synthesis, sampling, and Monte-Carlo experiment harness.

Both experiments, the synthetic error sweep (:func:`sweep_m`) and the
image recovery (``imaging.recover_image``), take one step per instance,
:func:`run_trial`: observe the truth through :func:`observe` (a
Bernoulli cell set of expected size m from :func:`sample_mask`, then one
Poisson count per sampled cell from :func:`sample_poisson`), solve over
a region given apart from the truth, and score the estimate and the box
midpoint by their per-entry MSE.

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

from .core import FeasibleRegion, ObservationSet, _check_positive_int, mse_per_entry
from .bounds import poisson_tail_threshold, tail_bound
from .errors import (
    BadBounds,
    BadM,
    DegenerateRange,
    NonPositiveIntensity,
    RankInfeasible,
    ShapeMismatch,
)
from .fileio import SCHEMA_VERSION, _opened
from .likelihood import hellinger_mse_floor, hellinger_sq_matrix, kl
from .solvers import SolverReport, solve

# Substream labels; fixed forever for reproducibility.
STREAM_TRUTH = 0
STREAM_MASK = 1
STREAM_COUNTS = 2
STREAM_TRIAL = 3
STREAM_SCALARS = 4
STREAM_MATRICES = 5
STREAM_TAIL = 6

_SEED_MASK = (1 << 64) - 1

# The largest rate numpy's ``Generator.poisson`` draws from; it refuses
# the next double up with "lam value too large".
POISSON_RATE_MAX = 9.223372006484771e18

# The largest rate ``sample_poisson`` draws an observed count from.
# ``ObservationSet`` holds counts below 2**53; at a rate of 2**52 that is
# 2**52 above the mean, about 6.7e7 standard deviations, so no draw gets
# there.
COUNT_RATE_MAX = 2.0**52


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
        _check_m("mask_m", self.mask_m, self.region.d1 * self.region.d2)


def _check_m(name, m, cells):
    """Raise ``BadM`` unless the expected sample count ``0 < m <= cells``."""
    if not 0 < m <= cells:
        raise BadM(f"{name} must be in (0, {cells}], got {m}")


def _check_rates(lam, limit):
    """Raise ``BadBounds`` unless every rate in ``lam`` is at most ``limit``.

    The message names ``alpha``, the rate cap of the box every caller in
    the package draws from, so the CLI names the flag that sets it.
    """
    top = float(np.max(lam, initial=0.0))
    if not top <= limit:
        raise BadBounds(f"alpha must be <= {limit!r} for Poisson draws, "
                        f"got a rate of {top!r}")


@dataclass(frozen=True)
class TrialResult:
    """What :func:`run_trial` observed, the solver's report, and two scores.

    ``mse`` scores ``report.estimate`` and ``baseline_mse`` the constant
    box-midpoint guess, both per entry against the truth.
    """

    observations: ObservationSet
    report: SolverReport
    mse: float
    baseline_mse: float


def make_low_rank(spec):
    """Random rank-<= r matrix with entries exactly inside the region box.

    Built as a rank-(r-1) product of uniform factors plus the rank-one
    affine shift that rescales the product into [beta, alpha].

    The result lies in the nuclear ball with a margin, so nothing is
    checked. Let M have rank <= r and entries in [0, alpha], S be the
    sum of its entries and N = sqrt(d1*d2). Then ||M||_F**2 <= alpha*S,
    and sigma_1 >= 1^T M 1 / N = S / N, so ||M||_F**2 <= alpha*N*sigma_1;
    Cauchy-Schwarz over sigma_2..sigma_r gives
    ``||M||_* <= sigma_1 + sqrt((r-1) * (||M||_F**2 - sigma_1**2))
    <= sigma_1 + sqrt((r-1) * sigma_1 * (alpha*N - sigma_1))``.
    With sigma_1 = alpha*N*t, t in [0, 1], the right side is
    ``alpha*N * (t + sqrt((r-1) * t * (1-t)))``, at most
    ``alpha*N * (1 + sqrt(r)) / 2``. The radius is ``alpha*N*sqrt(r)``,
    so ``||M||_*`` is at most ``(1 + 1/sqrt(r)) / 2`` of it: 0.854 at
    r = 2 and less for larger r, a margin that rounding cannot close.
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
    return beta + (alpha - beta) * ((p - lo) / (hi - lo))


def sample_mask(d1, d2, m, seed):
    """Bernoulli cell mask with inclusion probability ``m / (d1*d2)``."""
    _check_m("m", m, d1 * d2)
    rng = substream(seed, STREAM_MASK)
    return rng.random((d1, d2)) < m / (d1 * d2)


def sample_poisson(truth, mask, seed, m_expected=None):
    """Draw one Poisson count per masked cell of ``truth``.

    Raises ``NonPositiveIntensity`` for a rate <= 0 on the mask and
    ``BadBounds`` for one above ``COUNT_RATE_MAX``, so that every count
    fits an ``ObservationSet``.
    """
    truth = np.asarray(truth, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if truth.shape != mask.shape:
        raise ShapeMismatch(f"truth {truth.shape} and mask {mask.shape} disagree")
    rows, cols = np.nonzero(mask)
    lam = truth[rows, cols]
    if np.any(lam <= 0.0):
        raise NonPositiveIntensity("rates must be > 0 on the mask")
    _check_rates(lam, COUNT_RATE_MAX)
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


def observe(truth, m, seed):
    """One Poisson count per cell of a Bernoulli sample of ``truth``'s cells.

    The sample has expected size ``m``. Equal to ``sample_poisson(truth,
    sample_mask(d1, d2, m, seed), seed, m_expected=m)``.
    """
    d1, d2 = np.shape(truth)
    return sample_poisson(truth, sample_mask(d1, d2, m, seed), seed, m_expected=m)


def run_trial(truth, region, m, seed, cfg):
    """Observe, solve and score one instance: the package's one trial step.

    Draws ``observe(truth, m, seed)``, solves it over ``region`` with the
    solver that ``cfg.algorithm`` names, and scores the estimate and
    ``region.midpoint()`` against ``truth``. The solving region is an
    argument of its own, so a truth may be solved over another rank or
    radius than it was made with. :func:`sweep_m` calls it once per
    synthetic instance and ``imaging.recover_image`` once per image.
    """
    obs = observe(truth, m, seed)
    report = solve(obs, region, cfg)
    return TrialResult(
        observations=obs,
        report=report,
        mse=mse_per_entry(truth, report.estimate),
        baseline_mse=mse_per_entry(truth, region.midpoint()),
    )


SWEEP_CSV_HEADER = "m,trials,mean_mse,std_mse,mean_iters,mean_wall_time"


def sweep_m(spec, m_list, trials, cfg, csv_path=None):
    """Mean/std recovery error against the expected sample count.

    Runs ``trials`` independent instances per entry of the increasing
    ``m_list``; trial seeds derive from ``spec.seed`` and the (m, trial)
    position so extending the grid or the trial count never reruns
    differently. Each instance is a :func:`make_low_rank` truth put
    through :func:`run_trial` over ``spec.region``. Returns one row dict
    per m and optionally writes the table as CSV. The CSV is opened
    before the first trial, so a path that cannot be written raises
    ``IoFailure`` before any trial runs.
    """
    if any(b <= a for a, b in zip(m_list, m_list[1:])):
        raise BadM("m_list must be strictly increasing")
    _check_positive_int("trials", trials)
    if csv_path is None:
        return _sweep_rows(spec, m_list, trials, cfg)
    with _opened(csv_path, "w", newline="") as fh:
        rows = _sweep_rows(spec, m_list, trials, cfg)
        writer = csv.DictWriter(fh, fieldnames=SWEEP_CSV_HEADER.split(","))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return rows


def _sweep_rows(spec, m_list, trials, cfg):
    """The rows of ``sweep_m``, one per entry of ``m_list``."""
    rows = []
    for mi, m in enumerate(m_list):
        results = []
        for t in range(trials):
            child = derive_seed(spec.seed, STREAM_TRIAL, mi, t)
            truth = make_low_rank(replace(spec, mask_m=m, seed=child))
            results.append(run_trial(truth, spec.region, m, child, cfg))
        mses = np.array([tr.mse for tr in results])
        reports = [tr.report for tr in results]
        rows.append(
            {
                "m": float(m),
                "trials": trials,
                "mean_mse": float(mses.mean()),
                "std_mse": float(mses.std()),
                "mean_iters": float(np.mean([rep.iterations_run for rep in reports])),
                "mean_wall_time": float(np.mean([rep.wall_time for rep in reports])),
            }
        )
    return rows


def poisson_tail_check(lam, t, draws, seed):
    """Monte-Carlo check of the exponential upper tail at rate ``lam``.

    Counts draws with ``Y - lam >= t`` and compares the empirical
    frequency against ``exp(-t)`` plus three binomial standard errors.
    ``lam`` above ``POISSON_RATE_MAX`` raises ``BadBounds``.
    """
    if not lam > 0:
        raise NonPositiveIntensity(f"lam must be > 0, got {lam}")
    if draws < 1:
        raise ValueError("draws must be >= 1")
    _check_rates(lam, POISSON_RATE_MAX)
    rng = substream(seed, STREAM_TAIL)
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


def verify_lemmas(region, samples, seed):
    """Spot-check the package's three supporting inequalities by sampling.

    * KL between rates is at most the relative quadratic gap
      ``(y - x)**2 / y``  (deterministic; zero violations expected);
    * the average squared Hellinger distance of box matrices dominates
      the per-entry MSE times :func:`hellinger_mse_floor`  (deterministic);
    * the Poisson upper tail at the box cap obeys the exponential bound
      (Monte-Carlo; holds within three standard errors).

    ``samples`` scalar pairs are drawn from the box, ``samples // 10`` (at
    least 1) matrix pairs, and ``100 * samples`` tail draws capped at 1e6.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    matrix_samples = max(1, samples // 10)
    tail_draws = min(1_000_000, 100 * samples)
    alpha, beta = region.alpha, region.beta
    # First, so a rate too large to draw from fails before any other work.
    tail = poisson_tail_check(
        alpha, poisson_tail_threshold(alpha), tail_draws, seed
    )

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

    return {
        "schema_version": SCHEMA_VERSION,
        "kl_quadratic": {"samples": int(samples), "violations": kl_violations},
        "hellinger_mse_floor": {
            "samples": int(matrix_samples),
            "violations": floor_violations,
        },
        "poisson_tail": tail,
    }
