"""Iterative completion solvers.

Three schemes, all starting from the count-seeded initializer:

* ``pg``     projected gradient at fixed step 1/L, L = alpha/beta**2,
  feasibility via alternating projection onto box-and-ball;
* ``apg``    the same step with Nesterov momentum (k-1)/(k+2);
* ``pmlsv``  nuclear-norm regularized singular-value shrinkage with
  box projection and multiplicative backtracking on the reciprocal
  step size.

Objective values are recorded after the projection of each iteration,
so the trace length equals the number of iterations run.
"""

import time
from dataclasses import dataclass

import numpy as np

from .core import _svd, as_matrix, validate_region
from .errors import BacktrackOverflow, NoConvergence, ProjectionFailure, ShapeMismatch
from .likelihood import gradient, lipschitz_constant, neg_log_likelihood
from .projections import alternating_projection, project_box

ALGORITHMS = ("pg", "apg", "pmlsv")

# Backtracking gives up once the reciprocal step size passes this.
BACKTRACK_L_CAP = 1e15


@dataclass(frozen=True)
class SolverConfig:
    """Algorithm selection plus hyperparameters.

    ``lam``, ``l0`` and ``eta`` only drive ``pmlsv``; ``pg``/``apg`` use
    the fixed reciprocal step ``alpha/beta**2``. ``proj_tol`` bounds the
    feasibility gap of the alternating projection; gaps at or below the
    float64 noise floor ``4*sqrt(d1*d2)*eps*||M||_F`` close whatever it is.
    ``seed`` is carried as reproducibility metadata.
    """

    algorithm: str = "pmlsv"
    max_iter: int = 2000
    lam: float = 0.1
    l0: float = 1e-4
    eta: float = 1.1
    proj_tol: float = 1e-6
    proj_max_iter: int = 500
    seed: int = 0

    def validate(self):
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
        }


def init_matrix(obs, region):
    """Count-seeded starting point.

    Sampled cells take their observed counts, everything else the box
    midpoint ``(alpha + beta) / 2``; the result is clamped into the box
    so the objective and its gradient are defined at it.
    """
    validate_region(region)
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
    For ``t`` at or above the Lipschitz constant this majorizes the
    objective on the box.
    """
    if not t > 0.0:
        raise ValueError(f"t must be > 0, got {t}")
    m = as_matrix(m)
    m_prev = as_matrix(m_prev, shape=m.shape)
    diff = m - m_prev
    return (
        neg_log_likelihood(m_prev, obs)
        + float(np.vdot(diff, gradient(m_prev, obs)))
        + 0.5 * t * float(np.vdot(diff, diff))
    )


def _box_active_fraction(x, region):
    return float(np.mean((x <= region.beta) | (x >= region.alpha)))


def _finish(algorithm, est, trace, k, termination, t_start, final_l,
            region, gaps=None):
    return SolverReport(
        algorithm=algorithm,
        estimate=est,
        objective_trace=np.asarray(trace),
        iterations_run=k,
        termination=termination,
        wall_time=time.perf_counter() - t_start,
        final_l=final_l,
        box_active_fraction=_box_active_fraction(est, region),
        majorization_gaps=None if gaps is None else np.asarray(gaps),
    )


def _project_feasible(w, region, cfg, algorithm, prev, trace, k, t_start, l):
    """Alternating projection; on failure raise with the last good iterate."""
    try:
        return alternating_projection(
            w, region, tol=cfg.proj_tol, max_iter=cfg.proj_max_iter
        ).result
    except NoConvergence as exc:
        report = _finish(
            algorithm, prev, trace, k - 1, "ProjectionFailure", t_start, l, region
        )
        raise ProjectionFailure(str(exc), report) from exc


def solve_pg(obs, region, cfg):
    """Projected gradient descent at fixed step 1/L."""
    cfg.validate()
    validate_region(region)
    if len(obs) == 0:
        raise ValueError("need at least one observation")
    t_start = time.perf_counter()
    lip = lipschitz_constant(region)
    m = init_matrix(obs, region)
    trace = []
    for k in range(1, cfg.max_iter + 1):
        w = m - gradient(m, obs) / lip
        m = _project_feasible(w, region, cfg, "pg", m, trace, k, t_start, lip)
        trace.append(neg_log_likelihood(m, obs))
    return _finish("pg", m, trace, cfg.max_iter, "MaxIter", t_start, lip, region)


def solve_apg(obs, region, cfg):
    """Accelerated projected gradient with (k-1)/(k+2) momentum."""
    cfg.validate()
    validate_region(region)
    if len(obs) == 0:
        raise ValueError("need at least one observation")
    t_start = time.perf_counter()
    lip = lipschitz_constant(region)
    m_prev = init_matrix(obs, region)
    z = m_prev
    trace = []
    for k in range(1, cfg.max_iter + 1):
        w = z - gradient(z, obs) / lip
        m = _project_feasible(w, region, cfg, "apg", m_prev, trace, k, t_start, lip)
        z = m + ((k - 1.0) / (k + 2.0)) * (m - m_prev)
        m_prev = m
        trace.append(neg_log_likelihood(m, obs))
    return _finish("apg", m_prev, trace, cfg.max_iter, "MaxIter", t_start, lip, region)


def solve_pmlsv(obs, region, cfg):
    """Regularized singular-value shrinkage with backtracking.

    Each iteration takes a gradient step at reciprocal step size L,
    shrinks singular values by ``lam / L``, projects onto the box, and
    raises L by ``eta`` until the step is majorized by the quadratic
    model. Terminates early once ``|f - Q| < 0.5 / max_iter``.
    """
    cfg.validate()
    validate_region(region)
    if len(obs) == 0:
        raise ValueError("need at least one observation")
    t_start = time.perf_counter()
    l = cfg.l0
    m = init_matrix(obs, region)
    f_prev = neg_log_likelihood(m, obs)
    q_exit = 0.5 / cfg.max_iter
    trace = []
    gaps = []
    termination = "MaxIter"
    k_run = 0
    for k in range(1, cfg.max_iter + 1):
        g = gradient(m, obs)
        while True:
            c = m - g / l
            u, s, vt = _svd(c)
            m_next = project_box((u * np.maximum(s - cfg.lam / l, 0.0)) @ vt, region)
            diff = m_next - m
            q = f_prev + float(np.vdot(diff, g)) + 0.5 * l * float(np.vdot(diff, diff))
            f_next = neg_log_likelihood(m_next, obs)
            if f_next > q:
                l *= cfg.eta
                if l > BACKTRACK_L_CAP:
                    raise BacktrackOverflow(
                        f"reciprocal step size exceeded {BACKTRACK_L_CAP:.0e}"
                    )
                continue
            break
        m, f_prev = m_next, f_next
        trace.append(f_next)
        gaps.append(f_next - q)
        k_run = k
        if abs(f_next - q) < q_exit:
            termination = "QGapSmall"
            break
    return _finish(
        "pmlsv", m, trace, k_run, termination, t_start, l, region, gaps=gaps
    )


def solve(obs, region, cfg):
    """Dispatch on ``cfg.algorithm``."""
    cfg.validate()
    fn = {"pg": solve_pg, "apg": solve_apg, "pmlsv": solve_pmlsv}[cfg.algorithm]
    return fn(obs, region, cfg)
