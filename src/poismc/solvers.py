"""Iterative completion solvers.

Three schemes, all starting from the count-seeded initializer:

* ``pg``     projected gradient, feasibility via alternating projection
  onto box-and-ball; the ``projections`` module docstring says which
  decomposition each ball step takes. Each projection is handed how the
  first sweep of the one before ended (``_prox``), a memo that lives
  for one solve only;
* ``apg``    the same step with Nesterov momentum (k-1)/(k+2);
* ``pmlsv``  nuclear-norm regularized singular-value shrinkage with box
  projection. The shrinkage (``projections._svt``) takes one symmetric
  eigendecomposition of the Gram matrix per trial, not an SVD, where
  that is accurate (see ``projections``).

All three run one proximal-gradient loop (``_proximal_gradient``), and
every step of every scheme backtracks on the reciprocal step size L
over the ladder ``L, L*eta, L*eta**2, ...`` (``_backtrack``). The
accepted rung is found by galloping (rungs 1, 2, 4, ...) and bisection.
A step is accepted when ``f - Q <= 0``, computed without subtracting
two values of f (the stable test of TFOCS, Becker, Candes & Grant
2011), so rounding noise near the optimum does not reject steps and
push L up. The accepted L carries over, so L never decreases (as in
FISTA with backtracking, Beck & Teboulle 2009). The schemes differ in
the momentum (apg's, or none), the prox step (``_prox``: alternating
projection, or shrinkage and clipping), the first rung and pmlsv's
``QGapSmall`` exit; pg is apg with zero momentum. pg and apg's first
rung is alpha/beta**2, which bounds the curvature of the objective on
the box only when every count is at most alpha (see
``lipschitz_constant``); above that, the search climbs.

The loop steps on the sample set omega only. The gradient is zero
off omega, and there ``z - 0.0 / L`` is ``z`` itself, so writing
``z_ij - (1 - y_ij / z_ij) / L`` into the sampled cells of a copy of ``z``
(``_gradient_step``) gives the bits of ``z - gradient(z, obs) / L``
without building the dense gradient. ``ObservationSet`` rejects
duplicate cells, so no cell is written twice. Counts are cast to float
once per solve; ``ObservationSet`` holds them below 2**53, where the
cast is exact, so every product and quotient with them keeps its
bits. Inputs are checked where they enter (``SolverConfig``,
``FeasibleRegion``, ``ObservationSet``, ``_start``); inside the loop the
solvers call the unchecked kernels ``_svt`` and
``_alternating_projection`` and clip with ``FeasibleRegion.clip`` in
place. The per-trial arithmetic (the gap, the
likelihood, the shrink) works in place on as few temporaries as it can,
with the operations of the plain expressions in their order, so it
keeps their bits.

Objective values are recorded after the prox step of each iteration,
so the trace length equals the number of iterations run. A run either
returns its report or raises a ``PoismcError`` that carries the report
of the last good iterate (see ``solve``). The error is the one that was
raised inside the loop, a projection's ``ProjectionFailure`` too, with
that report attached: nothing is translated or chained.
"""

import time
from dataclasses import dataclass

import numpy as np

from .core import _check_positive_int
from .errors import BacktrackOverflow, PoismcError, ShapeMismatch
from .likelihood import _sampled_gradient, _sampled_nll, lipschitz_constant
from .projections import _alternating_projection, _svt

ALGORITHMS = ("pg", "apg", "pmlsv")

# Backtracking never climbs past this reciprocal step size; it raises
# BacktrackOverflow once the last rung at or below it rejects.
BACKTRACK_L_CAP = 1e15


@dataclass(frozen=True)
class SolverConfig:
    """Algorithm selection plus hyperparameters.

    ``eta`` is the backtracking factor of all three algorithms. ``lam``
    and ``l0`` only drive ``pmlsv``; ``pg``/``apg`` start the step search
    at ``alpha/beta**2``. ``proj_tol`` and ``proj_max_iter`` drive the
    alternating projection of ``pg``/``apg``; ``proj_tol`` bounds its
    feasibility gap, and gaps at or below the float64 noise floor
    ``4*sqrt(d1*d2)*eps*||M||_F`` close whatever it is. ``l0`` and
    ``eta`` are at most ``BACKTRACK_L_CAP``, the ceiling the step search
    keeps; so ``eta`` is finite, and from any ``l0 <= 1`` the search can
    climb at least one rung.
    Construction raises ``ValueError`` on an unknown algorithm, a value
    out of range, or an iteration cap that is not an integer.
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
        _check_positive_int("max_iter", self.max_iter)
        for name, ok, rule in (("eta", self.eta > 1.0, "> 1"),
                               ("lam", self.lam >= 0.0, ">= 0"),
                               ("l0", self.l0 > 0.0, "> 0"),
                               ("l0", self.l0 <= BACKTRACK_L_CAP,
                                f"<= {BACKTRACK_L_CAP:.0e}"),
                               ("eta", self.eta <= BACKTRACK_L_CAP,
                                f"<= {BACKTRACK_L_CAP:.0e}"),
                               ("proj_tol", self.proj_tol > 0.0, "> 0")):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")
        _check_positive_int("proj_max_iter", self.proj_max_iter)


@dataclass
class SolverReport:
    """Estimate plus run diagnostics.

    ``objective_trace[k-1]`` is the objective at iterate k;
    ``final_l`` is the last accepted reciprocal step size;
    ``box_active_fraction`` reports how much of the final estimate sits
    on a box bound; ``majorization_gaps`` holds the gap
    ``f(M_k) - Q(M_k, Z_{k-1})`` of every accepted step, where ``Z`` is
    the point the gradient was taken at (``M_{k-1}`` but for apg), so it
    has one entry per iteration, each ``<= 0``. Both fields mean the
    same for every algorithm.
    """

    algorithm: str
    estimate: np.ndarray
    objective_trace: np.ndarray
    iterations_run: int
    termination: str
    wall_time: float
    final_l: float
    box_active_fraction: float
    majorization_gaps: np.ndarray

    def to_json_dict(self):
        return {
            "algorithm": self.algorithm,
            "iterations_run": self.iterations_run,
            "termination": self.termination,
            "wall_time_sec": self.wall_time,
            "objective_trace": [float(v) for v in self.objective_trace],
            "final_l": self.final_l,
            "box_active_fraction": self.box_active_fraction,
            # The largest gap of the run, <= 0 when every step was
            # majorized; None when no step was accepted.
            "max_majorization_gap": (float(self.majorization_gaps.max())
                                     if self.majorization_gaps.size else None),
        }


def init_matrix(obs, region):
    """Count-seeded starting point.

    Sampled cells take their observed counts, everything else the box
    midpoint ``region.midpoint()``; the result is clamped into the box
    so the objective and its gradient are defined at it.
    """
    if obs.shape != region.shape:
        raise ShapeMismatch(
            f"observations are {obs.shape}, region is {region.shape}"
        )
    m0 = region.midpoint()
    m0[obs.rows, obs.cols] = obs.counts
    return region.clip(m0, out=m0)


def _finish(algorithm, m, trace, termination, t_start, final_l, region, gaps):
    return SolverReport(
        algorithm=algorithm,
        estimate=m,
        objective_trace=np.asarray(trace),
        iterations_run=len(trace),
        termination=termination,
        wall_time=time.perf_counter() - t_start,
        final_l=final_l,
        box_active_fraction=float(np.mean((m <= region.beta) | (m >= region.alpha))),
        majorization_gaps=np.asarray(gaps),
    )


def _start(obs, region):
    """Per-solve setup: ``(t_start, M_0, flat, y)``.

    Rejects an empty ``obs``. ``flat`` indexes the sampled cells of a
    raveled matrix and ``y`` holds the counts as floats, both in the
    stored sample order.
    """
    if len(obs) == 0:
        raise ValueError("need at least one observation")
    t_start = time.perf_counter()
    m0 = init_matrix(obs, region)
    return t_start, m0, obs.rows * obs.d2 + obs.cols, obs.counts.astype(float)


def _gradient_step(z, zs, gs, l, flat):
    """The gradient step ``z - gradient(z, obs) / l``, on the sampled cells.

    ``zs`` is ``z`` at the sampled cells ``flat`` and ``gs`` the gradient
    there. The result is a new C-ordered matrix with the bits of the
    dense step (see the module docstring).
    """
    w = z.copy()
    w.ravel()[flat] = zs - gs / l
    return w


def _trial(l, z, zs, gs, prox, flat, y):
    """One trial at reciprocal step size ``l``: ``(m_next, x_next, gap)``.

    ``m_next = prox(z - gradient(z, obs) / l, l)`` bit for bit, from
    ``z``'s sampled entries ``zs`` and the gradient ``gs`` there;
    ``x_next`` is ``m_next`` at the sampled cells ``flat``.
    ``gap = f(m_next) - Q(m_next, z)`` is computed as the likelihood's
    Bregman term ``sum(y * (r - log1p(r)))``, ``r = (x_next - zs) / zs``,
    minus ``(l/2) * ||m_next - z||_F**2``, so no two values of f cancel.
    ``m_next - z`` goes into the gradient step's matrix, C-ordered as
    ``np.vdot`` reads it, so the sum keeps its order. The step is
    rejected when ``gap > 0``.
    """
    w = _gradient_step(z, zs, gs, l, flat)
    m_next = prox(w, l)
    x_next = m_next.take(flat)
    r = x_next - zs
    r /= zs
    t = np.log1p(r)
    np.subtract(r, t, out=t)
    t *= y
    diff = np.subtract(m_next, z, out=w)
    return m_next, x_next, float(t.sum()) - 0.5 * l * float(np.vdot(diff, diff))


def _prox(algorithm, cfg, region):
    """The prox step of ``algorithm`` as ``prox(w, l)``.

    pmlsv shrinks singular values by ``lam / l`` and clips to the box;
    pg and apg take the alternating projection onto box and ball, which
    gives a feasible point, not the metric projection onto their
    intersection. So an accepted step certifies the quadratic upper
    bound, not the textbook rate of FISTA. Both return a new matrix, so
    ``_trial`` may overwrite ``w`` once the prox has run.

    The projection's closure keeps the memo of the last call's first
    sweep and passes it to the next call, whatever trial or iteration
    that is, so that an iterate inside the ball, or just outside it, is
    projected without the decomposition the memo shows it would throw
    away. Each solve builds its own closure, so no memo outlives the
    solve. The memo only orders the proofs, so every result keeps the
    bits of the memo-free projection (up to the one case the
    ``projections`` module docstring names).
    """
    if algorithm == "pmlsv":
        def shrink(w, l):
            # Clipped in place: a second matrix per trial made the allocator
            # return pages and fault them in again (+12% on pmlsv-d200).
            m_next = _svt(w, cfg.lam / l)
            return region.clip(m_next, out=m_next)
        return shrink
    memo = None

    def project(w, l):
        nonlocal memo
        report, memo = _alternating_projection(w, region, cfg.proj_tol,
                                               cfg.proj_max_iter, memo)
        return report.result
    return project


def _climb(l, steps, eta):
    """Go up to ``steps`` rungs above ``l``, stopping at ``BACKTRACK_L_CAP``.

    Rungs are made by repeated ``*= eta``, as the one-at-a-time scan
    makes them, so each equals the scan's value bit for bit. Returns the
    number of rungs climbed and the rung reached.
    """
    n = 0
    while n < steps and l * eta <= BACKTRACK_L_CAP:
        l *= eta
        n += 1
    return n, l


def _backtrack(l, ctx, eta):
    """An accepted rung of ``l, l*eta, l*eta**2, ...``: ``(l, trial)``.

    ``ctx`` holds the arguments of ``_trial`` after ``l``. Probes
    rung 0, then gallops through rungs 1, 2, 4, ... and bisects between
    the last rejected and the first accepted probe, so no trial runs
    twice. The returned rung is accepted, and it is rung 0 or the rung
    below it was probed and rejected. Where acceptance is monotone up to
    it, that is the first accepted rung, the one the one-at-a-time scan
    finds. Raises ``BacktrackOverflow`` once the last rung at or below
    ``BACKTRACK_L_CAP`` rejects.
    """
    trial = _trial(l, *ctx)
    if not trial[2] > 0.0:
        return l, trial
    lo, l_lo, hi = 0, l, None
    while hi is None or hi - lo > 1:
        steps = max(lo, 1) if hi is None else (hi - lo) // 2
        n, l_try = _climb(l_lo, steps, eta)
        if n == 0:
            raise BacktrackOverflow(
                f"reciprocal step size exceeded {BACKTRACK_L_CAP:.0e}"
            )
        probe = _trial(l_try, *ctx)
        if probe[2] > 0.0:
            lo, l_lo = lo + n, l_try
        else:
            hi, l, trial = lo + n, l_try, probe
    return l, trial


def _proximal_gradient(algorithm, obs, region, cfg):
    """The loop of all three schemes, from ``z = M_0``.

    Each iteration gathers ``z`` on the sampled cells once, evaluates the
    gradient there and runs ``_backtrack`` with the scheme's prox
    (``_prox``). pg and apg start the ladder at ``lipschitz_constant``,
    pmlsv at ``l0``; the accepted L carries over. apg then sets
    ``z = M_k + (k-1)/(k+2) * (M_k - M_{k-1})``, which can leave the box
    (the gradient's positivity check catches that), the others
    ``z = M_k``. A ``PoismcError`` raised in the loop, the projection's
    ``ProjectionFailure`` among them, is re-raised as it is, with its
    ``report`` replaced by the ``SolverReport`` of the last good
    iterate.
    """
    t_start, m, flat, y = _start(obs, region)
    pmlsv, accelerate = algorithm == "pmlsv", algorithm == "apg"
    l = cfg.l0 if pmlsv else lipschitz_constant(region)
    prox = _prox(algorithm, cfg, region)
    z = m_prev = m
    x = m.ravel().take(flat)
    trace, gaps = [], []
    termination = "MaxIter"
    try:
        for k in range(1, cfg.max_iter + 1):
            # Where z is the iterate, the last step gathered it already.
            zs = x if z is m else z.ravel().take(flat)
            gs = _sampled_gradient(zs, y)
            # m, x and l change only once a step succeeds, so a failing
            # step leaves the last good iterate in m.
            l, (m, x, gap) = _backtrack(l, (z, zs, gs, prox, flat, y), cfg.eta)
            gaps.append(gap)
            z = m + ((k - 1.0) / (k + 2.0)) * (m - m_prev) if accelerate else m
            m_prev = m
            trace.append(_sampled_nll(x, y))
            if pmlsv and abs(gap) < 0.5 / cfg.max_iter:
                termination = "QGapSmall"
                break
    except PoismcError as exc:
        exc.report = _finish(algorithm, m, trace, type(exc).__name__, t_start,
                             l, region, gaps)
        raise
    return _finish(algorithm, m, trace, termination, t_start, l, region, gaps)


def solve_pg(obs, region, cfg):
    """Projected gradient descent with backtracking.

    Each iteration takes a gradient step at reciprocal step size L and
    projects onto box and ball, and accepts a rung of ``L, L*eta, ...``
    whose step is majorized by the quadratic model (``_backtrack``). The
    search starts at ``lipschitz_constant(region)``; the accepted L
    carries over to the next iteration.
    """
    return _proximal_gradient("pg", obs, region, cfg)


def solve_apg(obs, region, cfg):
    """Accelerated projected gradient with (k-1)/(k+2) momentum.

    The step is pg's, with its step search, taken from the extrapolated
    point (see ``solve_pg``).
    """
    return _proximal_gradient("apg", obs, region, cfg)


def solve_pmlsv(obs, region, cfg):
    """Regularized singular-value shrinkage with backtracking.

    Each iteration takes a gradient step at reciprocal step size L,
    shrinks singular values by ``lam / L``, projects onto the box, and
    accepts a rung of ``L, L*eta, L*eta**2, ...`` whose step is majorized
    by the quadratic model (``_backtrack``). The accepted L carries over
    to the next iteration. Terminates early once ``|f - Q| < 0.5 / max_iter``.
    """
    return _proximal_gradient("pmlsv", obs, region, cfg)


def solve(obs, region, cfg):
    """Dispatch on ``cfg.algorithm``.

    A run ends in one of two ways. It returns a ``SolverReport`` whose
    estimate lies in the box, with ``termination`` ``"MaxIter"`` or
    (pmlsv) ``"QGapSmall"``. Or it raises a ``PoismcError`` whose
    ``report`` is the ``SolverReport`` of the last good iterate, also in
    the box, with ``termination`` the error's class name
    (``ProjectionFailure``, ``BacktrackOverflow``, ``SvdFailure`` or
    ``NonPositiveEntryAtObservation``). Bad inputs are rejected before
    the first iterate exists, with no report: ``ShapeMismatch``, or a
    ``ValueError`` for an empty sample set.
    """
    fn = {"pg": solve_pg, "apg": solve_apg, "pmlsv": solve_pmlsv}[cfg.algorithm]
    return fn(obs, region, cfg)
