"""Iterative completion solvers.

Three schemes, all starting from the count-seeded initializer:

* ``pg``     projected gradient at fixed step 1/L, L = alpha/beta**2,
  feasibility via alternating projection onto box-and-ball;
* ``apg``    the same step with Nesterov momentum (k-1)/(k+2);
* ``pmlsv``  nuclear-norm regularized singular-value shrinkage with
  box projection and backtracking on the reciprocal step size L over
  the ladder ``L, L*eta, L*eta**2, ...``. The accepted rung is found by
  galloping (rungs 1, 2, 4, ...) and bisection, clamped at the first
  rung at or above alpha/beta**2; from there the rungs are stepped one
  at a time.

pg and apg share one loop in which pg is apg with zero momentum. pmlsv
keeps its own: its backtracking, carried objective, majorization gaps and
``QGapSmall`` exit share only the gradient call with the other two.
alpha/beta**2 bounds the curvature of the objective on the box only when
every count is at most alpha (see ``lipschitz_constant``).

Objective values are recorded after the projection of each iteration,
so the trace length equals the number of iterations run.
"""

import time
from dataclasses import dataclass

import numpy as np

from .core import _svd, as_matrix
from .errors import BacktrackOverflow, NoConvergence, ProjectionFailure, ShapeMismatch
from .likelihood import gradient, lipschitz_constant, neg_log_likelihood
from .projections import alternating_projection, project_box

ALGORITHMS = ("pg", "apg", "pmlsv")

# Backtracking gives up once the reciprocal step size passes this. The
# gallop over the ladder of rungs never probes past the last rung at or
# below the cap; only the one-rung-at-a-time scan above the top rung can
# step past it, and that raises BacktrackOverflow. Rejections in that
# scan are rounding noise only when every count is at most alpha.
BACKTRACK_L_CAP = 1e15


@dataclass(frozen=True)
class SolverConfig:
    """Algorithm selection plus hyperparameters.

    ``lam``, ``l0`` and ``eta`` only drive ``pmlsv``; ``pg``/``apg`` use
    the fixed reciprocal step ``alpha/beta**2``. ``proj_tol`` bounds the
    feasibility gap of the alternating projection; gaps at or below the
    float64 noise floor ``4*sqrt(d1*d2)*eps*||M||_F`` close whatever it is.
    Construction raises ``ValueError`` on an unknown algorithm or a value
    out of range.
    """

    algorithm: str = "pmlsv"
    max_iter: int = 2000
    lam: float = 0.1
    l0: float = 1e-4
    eta: float = 1.1
    proj_tol: float = 1e-6
    proj_max_iter: int = 500

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not self.eta > 1.0:
            raise ValueError("eta must be > 1")
        if self.lam < 0.0:
            raise ValueError("lam must be >= 0")
        if not self.l0 > 0.0:
            raise ValueError("l0 must be > 0")
        if not self.proj_tol > 0.0:
            raise ValueError("proj_tol must be > 0")
        if self.proj_max_iter < 1:
            raise ValueError("proj_max_iter must be >= 1")


@dataclass
class SolverReport:
    """Estimate plus run diagnostics.

    ``objective_trace[k-1]`` is the objective at iterate k;
    ``final_l`` is the last reciprocal step size (fixed for pg/apg);
    ``box_active_fraction`` reports how much of the final estimate sits
    on a box bound; ``majorization_gaps`` (pmlsv only) holds
    ``f(M_k) - Q(M_k, M_{k-1})`` for every accepted step.
    """

    algorithm: str
    estimate: np.ndarray
    objective_trace: np.ndarray
    iterations_run: int
    termination: str
    wall_time: float
    final_l: float
    box_active_fraction: float = 0.0
    majorization_gaps: np.ndarray | None = None

    def to_json_dict(self):
        return {
            "algorithm": self.algorithm,
            "iterations_run": self.iterations_run,
            "termination": self.termination,
            "wall_time_sec": self.wall_time,
            "objective_trace": [float(v) for v in self.objective_trace],
            "final_l": self.final_l,
            "box_active_fraction": self.box_active_fraction,
        }


def init_matrix(obs, region):
    """Count-seeded starting point.

    Sampled cells take their observed counts, everything else the box
    midpoint ``(alpha + beta) / 2``; the result is clamped into the box
    so the objective and its gradient are defined at it.
    """
    if obs.shape != region.shape:
        raise ShapeMismatch(
            f"observations are {obs.shape}, region is {region.shape}"
        )
    m0 = np.full(region.shape, (region.alpha + region.beta) / 2.0)
    m0[obs.rows, obs.cols] = obs.counts
    return np.clip(m0, region.beta, region.alpha)


def quadratic_model(m, m_prev, t, obs):
    """Quadratic expansion of the objective around ``m_prev``.

    ``f(m_prev) + <m - m_prev, grad f(m_prev)> + (t/2) * ||m - m_prev||_F**2``.
    For ``t`` at or above the gradient's Lipschitz constant on the box,
    ``max(y) / beta**2``, this majorizes the objective there.
    ``lipschitz_constant`` gives ``alpha / beta**2``, which is that large
    only when every count ``y`` is at most alpha.
    """
    if not t > 0.0:
        raise ValueError(f"t must be > 0, got {t}")
    m = as_matrix(m)
    m_prev = as_matrix(m_prev, shape=m.shape)
    return _model_value(
        neg_log_likelihood(m_prev, obs), gradient(m_prev, obs), m - m_prev, t
    )


def _model_value(f_prev, g, diff, t):
    return f_prev + float(np.vdot(diff, g)) + 0.5 * t * float(np.vdot(diff, diff))


def _box_active_fraction(x, region):
    return float(np.mean((x <= region.beta) | (x >= region.alpha)))


def _finish(algorithm, est, trace, termination, t_start, final_l, region,
            gaps=None):
    return SolverReport(
        algorithm=algorithm,
        estimate=est,
        objective_trace=np.asarray(trace),
        iterations_run=len(trace),
        termination=termination,
        wall_time=time.perf_counter() - t_start,
        final_l=final_l,
        box_active_fraction=_box_active_fraction(est, region),
        majorization_gaps=None if gaps is None else np.asarray(gaps),
    )


def _start(obs, region):
    """Reject empty ``obs``; return the start time, alpha/beta**2 and M_0."""
    if len(obs) == 0:
        raise ValueError("need at least one observation")
    return time.perf_counter(), lipschitz_constant(region), init_matrix(obs, region)


def _projected_gradient(algorithm, obs, region, cfg):
    """Gradient step from ``z`` at 1/L, then ``alternating_projection``.

    apg sets ``z = M_k + (k-1)/(k+2) * (M_k - M_{k-1})``, pg ``z = M_k``.
    A projection that does not close raises ``ProjectionFailure`` with
    the report of the last good iterate.
    """
    accelerate = algorithm == "apg"
    t_start, lip, m_prev = _start(obs, region)
    z = m_prev
    trace = []
    for k in range(1, cfg.max_iter + 1):
        w = z - gradient(z, obs) / lip
        try:
            m = alternating_projection(
                w, region, tol=cfg.proj_tol, max_iter=cfg.proj_max_iter
            ).result
        except NoConvergence as exc:
            report = _finish(algorithm, m_prev, trace, "ProjectionFailure",
                             t_start, lip, region)
            raise ProjectionFailure(str(exc), report) from exc
        z = m + ((k - 1.0) / (k + 2.0)) * (m - m_prev) if accelerate else m
        m_prev = m
        trace.append(neg_log_likelihood(m, obs))
    return _finish(algorithm, m_prev, trace, "MaxIter", t_start, lip, region)


def solve_pg(obs, region, cfg):
    """Projected gradient descent at fixed step 1/L."""
    return _projected_gradient("pg", obs, region, cfg)


def solve_apg(obs, region, cfg):
    """Accelerated projected gradient with (k-1)/(k+2) momentum."""
    return _projected_gradient("apg", obs, region, cfg)


def _shrink_trial(l, m, g, f_prev, lam, region, obs):
    """One pmlsv trial at reciprocal step size ``l``: ``(m_next, f_next, q)``.

    The step is rejected when ``f_next > q``, the quadratic model's value.
    """
    u, s, vt = _svd(m - g / l)
    m_next = project_box((u * np.maximum(s - lam / l, 0.0)) @ vt, region)
    q = _model_value(f_prev, g, m_next - m, l)
    return m_next, neg_log_likelihood(m_next, obs), q


def _climb(l, steps, eta, lip):
    """Go up to ``steps`` rungs above ``l``, stopping at the top rung.

    Rungs are made by repeated ``*= eta``, as the one-at-a-time scan
    makes them, so each equals the scan's value bit for bit. The top rung
    is the first at or above ``lip``, or the last at or below
    ``BACKTRACK_L_CAP`` if that comes first. Returns the number of rungs
    climbed and the rung reached.
    """
    n = 0
    while n < steps and l < lip and l * eta <= BACKTRACK_L_CAP:
        l *= eta
        n += 1
    return n, l


def _backtrack(l, ctx, eta, lip):
    """First accepted rung of ``l, l*eta, l*eta**2, ...``: ``(l, trial)``.

    ``ctx`` holds the arguments of ``_shrink_trial`` after ``l``. Probes
    rung 0, then gallops through rungs 1, 2, 4, ... up to the top rung
    (see ``_climb``) and bisects between the last rejected and the first
    accepted probe, so no trial runs twice. That is the rung the
    one-at-a-time scan finds whenever acceptance is monotone below the
    top rung. At or above ``lip`` every step is majorized in exact
    arithmetic only when every count is at most alpha (see
    ``lipschitz_constant``); a rejection there is then rounding noise.
    Either way acceptance need not be monotone above the top rung: once
    it rejects, the rungs above it are probed one at a time, and past
    ``BACKTRACK_L_CAP`` that raises ``BacktrackOverflow``.
    """
    trial = _shrink_trial(l, *ctx)
    if not trial[1] > trial[2]:
        return l, trial
    lo, l_lo, hi = 0, l, None
    while hi is None or hi - lo > 1:
        steps = max(lo, 1) if hi is None else (hi - lo) // 2
        n, l_try = _climb(l_lo, steps, eta, lip)
        if n == 0:  # rung lo is at or above the top rung and rejected
            n, l_try = 1, l_lo * eta
            if l_try > BACKTRACK_L_CAP:
                raise BacktrackOverflow(
                    f"reciprocal step size exceeded {BACKTRACK_L_CAP:.0e}"
                )
        probe = _shrink_trial(l_try, *ctx)
        if probe[1] > probe[2]:
            lo, l_lo = lo + n, l_try
        else:
            hi, l, trial = lo + n, l_try, probe
    return l, trial


def solve_pmlsv(obs, region, cfg):
    """Regularized singular-value shrinkage with backtracking.

    Each iteration takes a gradient step at reciprocal step size L,
    shrinks singular values by ``lam / L``, projects onto the box, and
    accepts the first rung of ``L, L*eta, L*eta**2, ...`` whose step is
    majorized by the quadratic model (``_backtrack``: gallop and
    bisection below the Lipschitz rung, one rung at a time above it).
    The accepted L carries over to the next iteration. Terminates early
    once ``|f - Q| < 0.5 / max_iter``.
    """
    t_start, lip, m = _start(obs, region)
    l = cfg.l0
    f_prev = neg_log_likelihood(m, obs)
    q_exit = 0.5 / cfg.max_iter
    trace = []
    gaps = []
    termination = "MaxIter"
    for _ in range(cfg.max_iter):
        g = gradient(m, obs)
        ctx = (m, g, f_prev, cfg.lam, region, obs)
        l, (m, f_prev, q) = _backtrack(l, ctx, cfg.eta, lip)
        trace.append(f_prev)
        gaps.append(f_prev - q)
        if abs(f_prev - q) < q_exit:
            termination = "QGapSmall"
            break
    return _finish("pmlsv", m, trace, termination, t_start, l, region, gaps=gaps)


def solve(obs, region, cfg):
    """Dispatch on ``cfg.algorithm``."""
    fn = {"pg": solve_pg, "apg": solve_apg, "pmlsv": solve_pmlsv}[cfg.algorithm]
    return fn(obs, region, cfg)
