import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poismc.core as core_mod
import poismc.likelihood as likelihood_mod
import poismc.projections as projections_mod
import poismc.solvers as solvers_mod
from poismc import (
    FeasibleRegion,
    ObservationSet,
    SolverConfig,
    SynthesisSpec,
    alternating_projection,
    gradient,
    init_matrix,
    lipschitz_constant,
    make_low_rank,
    membership,
    mse_per_entry,
    neg_log_likelihood,
    nuclear_norm,
    project_box,
    sample_mask,
    sample_poisson,
    solve,
    solve_apg,
    solve_pg,
    solve_pmlsv,
    svt,
)
from poismc.errors import (
    BacktrackOverflow,
    NoConvergence,
    NonPositiveEntryAtObservation,
    ProjectionFailure,
    ShapeMismatch,
    SvdFailure,
)
from poismc.core import as_matrix
from poismc.likelihood import _sampled_gradient


def one_by_one(y, alpha=3.0, beta=1.0):
    reg = FeasibleRegion(d1=1, d2=1, alpha=alpha, beta=beta, r=1)
    obs = ObservationSet(d1=1, d2=1, rows=[0], cols=[0], counts=[y])
    return obs, reg


def full_obs(counts):
    counts = np.asarray(counts)
    d1, d2 = counts.shape
    rows, cols = np.nonzero(np.ones((d1, d2), dtype=bool))
    return ObservationSet(d1=d1, d2=d2, rows=rows, cols=cols, counts=counts.ravel())


def hadamard(n):
    h = np.array([[1.0]])
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h[:n, :n]


def binding_instance(seed, d1=15, d2=12, rate=8.0):
    """Counts in a +/- pattern so the clamped initializer leaves the ball."""
    rng = np.random.default_rng(seed)
    pat = hadamard(max(d1, d2) * 2)[:d1, :d2]
    pat = pat * np.where(rng.random((d1, d2)) < 0.9, 1, -1)
    y = np.where(pat > 0, rng.poisson(rate, (d1, d2)), 0)
    reg = FeasibleRegion(d1=d1, d2=d2, alpha=3.0, beta=0.5, r=1)
    return full_obs(y), reg


# --- init_matrix ----------------------------------------------------------------


def test_init_empty_sample_set_is_midpoint():
    reg = FeasibleRegion(d1=2, d2=3, alpha=3.0, beta=1.0, r=1)
    obs = ObservationSet(d1=2, d2=3, rows=[], cols=[], counts=[])
    assert np.array_equal(init_matrix(obs, reg), np.full((2, 3), 2.0))


def test_init_clamps_large_count():
    obs, reg = one_by_one(5)
    obs = ObservationSet(d1=2, d2=2, rows=[0], cols=[0], counts=[5])
    reg = FeasibleRegion(d1=2, d2=2, alpha=3.0, beta=1.0, r=1)
    m0 = init_matrix(obs, reg)
    assert m0[0, 0] == 3.0
    assert m0[0, 1] == m0[1, 0] == m0[1, 1] == 2.0


def test_init_keeps_in_box_count():
    obs = ObservationSet(d1=2, d2=2, rows=[0], cols=[0], counts=[2])
    reg = FeasibleRegion(d1=2, d2=2, alpha=3.0, beta=1.0, r=1)
    assert init_matrix(obs, reg)[0, 0] == 2.0


def test_init_shape_mismatch():
    obs = ObservationSet(d1=2, d2=2, rows=[0], cols=[0], counts=[2])
    reg = FeasibleRegion(d1=3, d2=3, alpha=3.0, beta=1.0, r=1)
    with pytest.raises(ShapeMismatch):
        init_matrix(obs, reg)


# --- quadratic model ---------------------------------------------------------------


def quadratic_model(m, m_prev, t, obs):
    """Quadratic expansion of the objective around ``m_prev``.

    ``f(m_prev) + <m - m_prev, grad f(m_prev)> + (t/2) * ||m - m_prev||_F**2``.
    For ``t`` at or above the gradient's Lipschitz constant on the box,
    ``max(y) / beta**2``, this majorizes the objective there. pmlsv does
    not evaluate it: its trials compute ``f - Q`` directly, and the tests
    check them against it.
    """
    m = as_matrix(m)
    m_prev = as_matrix(m_prev, shape=m.shape)
    diff = m - m_prev
    f_prev, g = neg_log_likelihood(m_prev, obs), gradient(m_prev, obs)
    return f_prev + float(np.vdot(diff, g)) + 0.5 * t * float(np.vdot(diff, diff))


def test_qmodel_zero_displacement():
    obs = full_obs(np.array([[2, 3], [1, 4]]))
    x = np.array([[2.0, 2.5], [1.5, 3.0]])
    assert quadratic_model(x, x, 5.0, obs) == pytest.approx(
        neg_log_likelihood(x, obs), rel=1e-14
    )


def test_qmodel_hand_expansion_1x1():
    obs = ObservationSet(d1=1, d2=1, rows=[0], cols=[0], counts=[3])
    x0, x, t = 2.0, 2.7, 4.0
    f0 = x0 - 3 * np.log(x0)
    g0 = 1 - 3 / x0
    by_hand = f0 + (x - x0) * g0 + 0.5 * t * (x - x0) ** 2
    got = quadratic_model(np.array([[x]]), np.array([[x0]]), t, obs)
    assert got == pytest.approx(by_hand, abs=1e-12)


def test_qmodel_majorizes_at_lipschitz_step():
    rng = np.random.default_rng(21)
    reg = FeasibleRegion(d1=4, d2=5, alpha=9.0, beta=1.0, r=2)
    lip = lipschitz_constant(reg)
    mask = rng.random((4, 5)) < 0.8
    rows, cols = np.nonzero(mask)
    obs = ObservationSet(
        d1=4, d2=5, rows=rows, cols=cols,
        counts=rng.poisson(4.0, rows.size).clip(max=9),
    )
    for _ in range(40):
        m = rng.uniform(1.0, 9.0, (4, 5))
        m_prev = rng.uniform(1.0, 9.0, (4, 5))
        q = quadratic_model(m, m_prev, lip, obs)
        assert q >= neg_log_likelihood(m, obs) - 1e-10


def test_qmodel_need_not_majorize_when_a_count_exceeds_alpha():
    # alpha/beta**2 bounds the curvature y/x**2 on the box only when every
    # count y <= alpha; with y = 20 > alpha = 9 the model at L = 9 lies
    # below the objective.
    obs, reg = one_by_one(20, alpha=9.0, beta=1.0)
    assert lipschitz_constant(reg) == 9.0
    q = quadratic_model([[2.0]], [[1.0]], 9.0, obs)
    f = neg_log_likelihood([[2.0]], obs)
    assert q == pytest.approx(-13.5, abs=1e-12)
    assert f == pytest.approx(2.0 - 20.0 * math.log(2.0), abs=1e-12)
    assert q < f


# --- projected gradient -----------------------------------------------------------


def test_pg_one_by_one_converges_to_interior_mle():
    obs, reg = one_by_one(2)
    rep = solve_pg(obs, reg, SolverConfig(algorithm="pg", max_iter=200))
    assert abs(rep.estimate[0, 0] - 2.0) < 1e-3
    assert rep.iterations_run == 200
    assert rep.termination == "MaxIter"
    assert len(rep.objective_trace) == 200


def test_pg_trace_nonincreasing_fully_observed():
    obs = full_obs(np.array([[2, 3], [1, 2]]))
    reg = FeasibleRegion(d1=2, d2=2, alpha=3.0, beta=1.0, r=2)
    rep = solve_pg(obs, reg, SolverConfig(algorithm="pg", max_iter=50))
    tr = rep.objective_trace
    assert np.all(tr[1:] <= tr[:-1] + 1e-10)


def test_pg_beats_constant_baseline_on_rank_one_truth():
    rng = np.random.default_rng(5)
    u = rng.uniform(1.0, 10.0, 10)
    v = rng.uniform(1.0, 10.0, 8)
    truth = np.outer(u, v)
    reg = FeasibleRegion(d1=10, d2=8, alpha=100.0, beta=1.0, r=1)
    assert membership(truth, reg).in_box
    mask = sample_mask(10, 8, 0.8 * 80, seed=5)
    obs = sample_poisson(truth, mask, seed=5)
    rep = solve_pg(obs, reg, SolverConfig(algorithm="pg", max_iter=150))
    baseline = np.full((10, 8), (100.0 + 1.0) / 2.0)
    assert mse_per_entry(truth, rep.estimate) < mse_per_entry(truth, baseline)


def test_pg_estimate_exactly_in_box():
    obs, reg = binding_instance(3)
    rep = solve_pg(obs, reg, SolverConfig(algorithm="pg", max_iter=40))
    assert rep.estimate.min() >= reg.beta
    assert rep.estimate.max() <= reg.alpha
    assert membership(rep.estimate, reg, tol=1e-6).in_nuclear_ball


def test_pg_rate_bound_on_binding_instances():
    # The classical 1/k certificate, checked with the composed projection.
    for seed in range(3):
        obs, reg = binding_instance(seed)
        lip = lipschitz_constant(reg)
        m0 = init_matrix(obs, reg)
        long_run = solve_pg(obs, reg, SolverConfig(algorithm="pg", max_iter=4000))
        pg = solve_pg(obs, reg, SolverConfig(algorithm="pg", max_iter=200))
        fstar = min(long_run.objective_trace.min(), pg.objective_trace.min())
        r2 = float(np.sum((m0 - long_run.estimate) ** 2))
        for k in range(1, 201):
            lhs = pg.objective_trace[k - 1] - fstar
            assert lhs <= 1.05 * lip * r2 / (2 * k) + 1e-9


# --- accelerated variant -------------------------------------------------------------


def test_apg_one_by_one_converges():
    obs, reg = one_by_one(2)
    rep = solve_apg(obs, reg, SolverConfig(algorithm="apg", max_iter=100))
    assert abs(rep.estimate[0, 0] - 2.0) < 1e-3


def test_apg_first_iterate_equals_pg():
    # momentum (k-1)/(k+2) vanishes at k=1
    obs, reg = binding_instance(7)
    cfg = SolverConfig(algorithm="pg", max_iter=1)
    rep_pg = solve_pg(obs, reg, cfg)
    rep_apg = solve_apg(obs, reg, SolverConfig(algorithm="apg", max_iter=1))
    assert np.array_equal(rep_pg.estimate, rep_apg.estimate)
    assert rep_pg.objective_trace[0] == rep_apg.objective_trace[0]


def test_apg_reaches_own_plateau_faster_than_pg():
    wins = 0
    for seed in range(10):
        obs, reg = binding_instance(100 + seed, d1=20, d2=15)
        pg = solve_pg(obs, reg, SolverConfig(algorithm="pg", max_iter=250))
        apg = solve_apg(obs, reg, SolverConfig(algorithm="apg", max_iter=250))

        def first_k(trace):
            hits = np.nonzero(trace - trace.min() <= 1e-4)[0]
            return int(hits[0]) + 1

        if first_k(apg.objective_trace) <= first_k(pg.objective_trace):
            wins += 1
    assert wins >= 8


# --- singular-value shrinkage solver ---------------------------------------------------


def test_pmlsv_zero_lambda_matches_pg_on_1x1():
    obs, reg = one_by_one(2)
    lip = lipschitz_constant(reg)
    pg = solve_pg(obs, reg, SolverConfig(algorithm="pg", max_iter=25))
    pm = solve_pmlsv(
        obs, reg,
        SolverConfig(algorithm="pmlsv", max_iter=25, lam=0.0, l0=lip, eta=1.5),
    )
    n = pm.iterations_run
    assert n >= 1
    assert np.allclose(pm.objective_trace, pg.objective_trace[:n], atol=0, rtol=0)


def backtracking_instance():
    rng = np.random.default_rng(9)
    truth = rng.uniform(1.0, 9.0, (12, 10))
    reg = FeasibleRegion(d1=12, d2=10, alpha=9.0, beta=1.0, r=3)
    mask = sample_mask(12, 10, 0.7 * 120, seed=9)
    obs = sample_poisson(truth, mask, seed=9)
    cfg = SolverConfig(algorithm="pmlsv", max_iter=50, lam=0.1, l0=1e-6, eta=1.2)
    return obs, reg, cfg


def scan_trial(l, m, g, obs, reg, lam):
    """Reference pmlsv trial: ``(m_next, f(m_next) - Q(m_next, m))``.

    The gap is the likelihood's Bregman term on the sampled cells minus
    ``(l/2) * ||m_next - m||_F**2``, the formula the solver uses. The
    shrinkage is the package's ``svt``, the solver's kernel, so the scan
    checks the search bit for bit.
    """
    m_next = project_box(svt(m - g / l, lam / l), reg)
    x = m[obs.rows, obs.cols]
    r = (m_next[obs.rows, obs.cols] - x) / x
    diff = m_next - m
    bregman = float(np.sum(obs.counts * (r - np.log1p(r))))
    return m_next, bregman - 0.5 * l * float(np.vdot(diff, diff))


def scan_step(l, m, g, obs, reg, cfg):
    """First accepted rung from ``l``, one rung at a time.

    Returns ``(l, m_next, gap, trials)``.
    """
    trials = 0
    while True:
        trials += 1
        m_next, gap = scan_trial(l, m, g, obs, reg, cfg.lam)
        if not gap > 0.0:
            return l, m_next, gap, trials
        l *= cfg.eta
        if l > solvers_mod.BACKTRACK_L_CAP:
            raise BacktrackOverflow("reference scan overflowed")


def linear_scan_pmlsv(obs, reg, cfg):
    """Plain pmlsv that raises L by one factor eta per rejected trial.

    Returns the report fields ``solve_pmlsv`` must reproduce wherever its
    search accepts the scan's rung, plus the number of trials of each
    iteration.
    """
    l = cfg.l0
    m = init_matrix(obs, reg)
    trace, gaps, trials = [], [], []
    termination = "MaxIter"
    for _ in range(cfg.max_iter):
        l, m, gap, n = scan_step(l, m, gradient(m, obs), obs, reg, cfg)
        trials.append(n)
        trace.append(neg_log_likelihood(m, obs))
        gaps.append(gap)
        if abs(gap) < 0.5 / cfg.max_iter:
            termination = "QGapSmall"
            break
    return dict(estimate=m, objective_trace=np.asarray(trace),
                majorization_gaps=np.asarray(gaps), final_l=l,
                iterations_run=len(trace), termination=termination, trials=trials)


def recorded_pmlsv(obs, reg, cfg):
    """Run ``solve_pmlsv`` and record every step search it makes.

    Returns the report and, per iteration, a dict with the search's
    starting rung ``l_in``, its iterate ``m``, the dense gradient ``g``
    there, the returned rung ``l_out`` and ``probes``, the gap of every
    probed rung. ``g`` is rebuilt with ``gradient``, so the reference scan
    never sees the solver's sampled one.
    """
    steps = []
    real_trial, real_backtrack = solvers_mod._shrink_trial, solvers_mod._backtrack

    def trial(l, *ctx):
        out = real_trial(l, *ctx)
        steps[-1]["probes"][l] = out[2]
        return out

    def backtrack(l, ctx, eta):
        m = ctx[0]
        steps.append(dict(l_in=l, m=m, g=gradient(m, obs), probes={}))
        steps[-1]["l_out"], out = real_backtrack(l, ctx, eta)
        return steps[-1]["l_out"], out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers_mod, "_shrink_trial", trial)
        mp.setattr(solvers_mod, "_backtrack", backtrack)
        rep = solve_pmlsv(obs, reg, cfg)
    return rep, steps


def test_pmlsv_backtracking_raises_l_and_keeps_majorization():
    # At the instance's lam = 0.1 the run stops with QGapSmall after one
    # step; at lam = 1 it accepts ten, and every one must be majorized.
    obs, reg, cfg = backtracking_instance()
    rep = solve_pmlsv(obs, reg, dataclasses.replace(cfg, lam=1.0))
    assert rep.iterations_run > 1
    assert rep.final_l > cfg.l0
    assert rep.majorization_gaps is not None
    assert np.all(rep.majorization_gaps <= 0.0)
    assert len(rep.objective_trace) == rep.iterations_run


def test_pmlsv_early_exit_on_small_model_gap():
    obs, reg = one_by_one(2)
    rep = solve_pmlsv(
        obs, reg, SolverConfig(algorithm="pmlsv", max_iter=2000, lam=0.0, l0=3.0)
    )
    assert rep.termination == "QGapSmall"
    assert rep.iterations_run < 2000


@st.composite
def pmlsv_cases(draw):
    d1, d2 = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    beta = draw(st.floats(0.1, 3.0))
    alpha = beta * draw(st.floats(1.1, 10.0))
    reg = FeasibleRegion(d1=d1, d2=d2, alpha=alpha, beta=beta,
                         r=draw(st.integers(1, min(d1, d2))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((d1, d2)) < draw(st.floats(0.2, 1.0))
    mask.flat[rng.integers(d1 * d2)] = True
    rows, cols = np.nonzero(mask)
    counts = rng.poisson(rng.uniform(beta, alpha, rows.size))
    obs = ObservationSet(d1=d1, d2=d2, rows=rows, cols=cols, counts=counts)
    cfg = SolverConfig(
        algorithm="pmlsv",
        max_iter=draw(st.integers(1, 40)),
        lam=10.0 ** draw(st.floats(-3.0, 2.0)),
        l0=10.0 ** draw(st.floats(-8.0, 1.0)),
        eta=draw(st.floats(1.01, 3.0)),
    )
    return obs, reg, cfg


@settings(max_examples=150, deadline=None)
@given(pmlsv_cases())
def test_pmlsv_matches_linear_scan(case):
    # The search's contract, checked in every iteration from the solver's
    # own state: the returned rung is accepted and is rung 0 or sits just
    # above a probed, rejected rung. It is the scan's rung unless
    # acceptance is not monotone up to it.
    obs, reg, cfg = case
    rep, steps = recorded_pmlsv(obs, reg, cfg)
    agree = True
    for step in steps:
        ladder = [step["l_in"]]
        while ladder[-1] < step["l_out"]:
            ladder.append(ladder[-1] * cfg.eta)
        i = len(ladder) - 1
        assert ladder[i] == step["l_out"]
        assert not step["probes"][ladder[i]] > 0.0
        assert i == 0 or step["probes"].get(ladder[i - 1], 0.0) > 0.0
        l_scan = scan_step(step["l_in"], step["m"], step["g"], obs, reg, cfg)[0]
        assert l_scan <= step["l_out"]
        agree = agree and l_scan == step["l_out"]
    if agree:
        want = linear_scan_pmlsv(obs, reg, cfg)
        for key in ("estimate", "objective_trace", "majorization_gaps"):
            assert np.array_equal(getattr(rep, key), want[key]), key
        assert rep.final_l == want["final_l"]
        assert rep.iterations_run == want["iterations_run"]
        assert rep.termination == want["termination"]


def test_pmlsv_search_may_skip_an_isolated_accepted_rung():
    # Acceptance is not monotone here: rung 0.08 accepts between rejected
    # rungs. The scan takes it; the gallop (0.01, 0.02, 0.04, 0.16, 2.56)
    # skips it, and bisection ends at 2.56 because 1.28 rejects. The
    # count 2 exceeds alpha, so that rejection is not rounding noise.
    obs = full_obs([[0, 2], [0, 1]])
    reg = FeasibleRegion(d1=2, d2=2, alpha=1.265625, beta=1.125, r=1)
    cfg = SolverConfig(algorithm="pmlsv", max_iter=1, lam=1.0, l0=0.01, eta=2.0)
    assert linear_scan_pmlsv(obs, reg, cfg)["final_l"] == 0.08
    rep, steps = recorded_pmlsv(obs, reg, cfg)
    assert rep.final_l == 2.56
    assert steps[0]["probes"][1.28] > 0.0
    assert not steps[0]["probes"][2.56] > 0.0


def trial_ctx(m, lam, obs, reg):
    """``_shrink_trial``'s arguments after ``l`` at ``m``, built from the
    dense gradient rather than by the solver."""
    flat = obs.rows * obs.d2 + obs.cols
    gs = gradient(m, obs)[obs.rows, obs.cols]
    return (m, m[obs.rows, obs.cols], gs, lam, reg, flat,
            obs.counts.astype(float))


def test_shrink_trial_gap_is_f_minus_q():
    obs, reg, cfg = backtracking_instance()
    m = init_matrix(obs, reg)
    ctx = trial_ctx(m, cfg.lam, obs, reg)
    for l in (1e-3, 0.1, 1.0, 9.0, 100.0):
        m_next, x_next, gap = solvers_mod._shrink_trial(l, *ctx)
        assert np.array_equal(x_next, m_next[obs.rows, obs.cols])
        f = neg_log_likelihood(m_next, obs)
        q = quadratic_model(m_next, m, l, obs)
        assert gap == pytest.approx(f - q, abs=1e-9 * abs(f))


def test_pmlsv_backtracking_keeps_l_bounded_at_a_converged_iterate():
    # Near the optimum f(M_next) and Q are equal to many digits; comparing
    # them rejected steps on rounding noise alone and raised L by eta each
    # time, to about 1.3e5 over these 1000 rounds. The Bregman form of
    # the gap has no such cancellation.
    obs, reg, _ = backtracking_instance()
    m = init_matrix(obs, reg)
    l = 1e-4
    for _ in range(1000):
        l, (m, _, _) = solvers_mod._backtrack(l, trial_ctx(m, 10.0, obs, reg), 1.1)
    assert obs.counts.max() / reg.beta**2 == 14.0
    assert l <= 14.0


def test_pmlsv_first_iteration_gallops_and_bisects(monkeypatch):
    obs, reg, cfg = backtracking_instance()
    cfg = dataclasses.replace(cfg, max_iter=1)
    k = linear_scan_pmlsv(obs, reg, cfg)["trials"][0] - 1
    assert k >= 16
    svt_calls = []
    real_svt = solvers_mod._svt
    monkeypatch.setattr(
        solvers_mod, "_svt", lambda x, tau: svt_calls.append(1) or real_svt(x, tau)
    )
    solve_pmlsv(obs, reg, cfg)
    assert 1 <= len(svt_calls) <= 2 * math.ceil(math.log2(k + 1)) + 1


def test_pmlsv_probes_gallop_to_the_cap_then_overflow(monkeypatch):
    obs, reg, cfg = backtracking_instance()
    probes = []
    real_trial = solvers_mod._shrink_trial

    def rejecting_trial(l, *ctx):
        probes.append(l)
        m_next, x_next, _ = real_trial(l, *ctx)
        return m_next, x_next, 1.0

    monkeypatch.setattr(solvers_mod, "_shrink_trial", rejecting_trial)
    with pytest.raises(BacktrackOverflow):
        solve_pmlsv(obs, reg, cfg)
    ladder = [cfg.l0]
    while ladder[-1] * cfg.eta <= solvers_mod.BACKTRACK_L_CAP:
        ladder.append(ladder[-1] * cfg.eta)
    top = len(ladder) - 1
    gallop = [2**j for j in range(top.bit_length()) if 2**j < top]
    assert probes == [ladder[i] for i in [0] + gallop + [top]]


def test_pmlsv_backtrack_overflow(monkeypatch):
    obs, reg = binding_instance(1)
    monkeypatch.setattr(solvers_mod, "BACKTRACK_L_CAP", 1e-9)
    with pytest.raises(BacktrackOverflow):
        solve_pmlsv(
            obs, reg,
            SolverConfig(algorithm="pmlsv", max_iter=5, lam=0.1, l0=1e-8, eta=2.0),
        )


# --- sampled-cell steps --------------------------------------------------------------


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def sampled_instances(draw):
    """A region, observations on 1..d1*d2 cells in a random stored order,
    and a box point ``m``."""
    d1, d2 = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    beta = draw(st.floats(0.1, 3.0))
    alpha = beta * draw(st.floats(1.0, 10.0))
    reg = FeasibleRegion(d1=d1, d2=d2, alpha=alpha, beta=beta,
                         r=draw(st.integers(1, min(d1, d2))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = rng.permutation(d1 * d2)[:draw(st.integers(1, d1 * d2))]
    counts = rng.poisson(rng.uniform(beta, alpha, cells.size))
    obs = ObservationSet(d1=d1, d2=d2, rows=cells // d2, cols=cells % d2,
                         counts=counts)
    return obs, reg, rng.uniform(beta, alpha, (d1, d2))


@settings(max_examples=200, deadline=None)
@given(sampled_instances(), st.floats(-8.0, 8.0))
def test_gradient_step_is_the_dense_step_bit_for_bit(case, log_l):
    # Off the sample set z may leave the box, as apg's extrapolated point may.
    obs, reg, m = case
    l = 10.0 ** log_l
    z = np.where(obs.mask(), m, -m)
    _, _, flat, y = solvers_mod._start(obs, reg)
    zs = z.ravel().take(flat)
    w = solvers_mod._gradient_step(z, zs, _sampled_gradient(zs, y), l, flat)
    assert same_bits(w, z - gradient(z, obs) / l)


@settings(max_examples=200, deadline=None)
@given(sampled_instances(), st.floats(-8.0, 8.0),
       st.one_of(st.just(0.0), st.floats(-3.0, 2.0).map(lambda e: 10.0 ** e)))
def test_shrink_trial_is_the_dense_trial_bit_for_bit(case, log_l, lam):
    obs, reg, m = case
    l = 10.0 ** log_l
    _, _, flat, y = solvers_mod._start(obs, reg)
    x = m.ravel().take(flat)
    ctx = (m, x, _sampled_gradient(x, y), lam, reg, flat, y)
    m_next, x_next, _ = solvers_mod._shrink_trial(l, *ctx)
    want = project_box(svt(m - gradient(m, obs) / l, lam / l), reg)
    assert same_bits(m_next, want)
    assert same_bits(x_next, want[obs.rows, obs.cols])


def dense_projected_gradient(obs, reg, cfg, accelerate):
    """The pg/apg loop with the dense gradient and the public operators.

    Returns ``(estimate, trace, error)``: the last good iterate, the
    objective trace and the type of the error that stopped the loop.
    """
    lip = lipschitz_constant(reg)
    m_prev = init_matrix(obs, reg)
    z, trace = m_prev, []
    for k in range(1, cfg.max_iter + 1):
        try:
            w = z - gradient(z, obs) / lip
            m = alternating_projection(w, reg, tol=cfg.proj_tol,
                                       max_iter=cfg.proj_max_iter).result
        except NoConvergence:
            return m_prev, np.asarray(trace), ProjectionFailure
        except NonPositiveEntryAtObservation:
            return None, None, NonPositiveEntryAtObservation
        z = m + ((k - 1.0) / (k + 2.0)) * (m - m_prev) if accelerate else m
        m_prev = m
        trace.append(neg_log_likelihood(m, obs))
    return m_prev, np.asarray(trace), None


@settings(max_examples=60, deadline=None)
@given(sampled_instances(), st.sampled_from(["pg", "apg"]))
def test_pg_and_apg_match_the_dense_loop_bit_for_bit(case, algorithm):
    obs, reg, _ = case
    cfg = SolverConfig(algorithm=algorithm, max_iter=30)
    want = dense_projected_gradient(obs, reg, cfg, algorithm == "apg")
    try:
        rep = solve(obs, reg, cfg)
        got = rep.estimate, rep.objective_trace, None
    except ProjectionFailure as exc:
        got = exc.report.estimate, exc.report.objective_trace, ProjectionFailure
    except NonPositiveEntryAtObservation:
        got = None, None, NonPositiveEntryAtObservation
    assert got[2] is want[2]
    if want[0] is not None:
        assert same_bits(got[0], want[0])
        assert same_bits(got[1], want[1])


def count_as_matrix(monkeypatch):
    calls = []
    real = core_mod.as_matrix

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    # solvers.py imports no as_matrix today; patch it there too if it does.
    for mod in (solvers_mod, projections_mod, likelihood_mod):
        if hasattr(mod, "as_matrix"):
            monkeypatch.setattr(mod, "as_matrix", counted)
    return calls


def test_solvers_validate_once_per_solve_not_per_iteration(monkeypatch):
    # At lam = 0.1 the pmlsv run stops with QGapSmall after one iteration
    # whatever max_iter is; lam = 1 gives it five.
    calls = count_as_matrix(monkeypatch)
    pm_obs, pm_reg, pm_cfg = backtracking_instance()
    pg_obs, pg_reg = binding_instance(0)
    cases = ((pm_obs, pm_reg, dataclasses.replace(pm_cfg, lam=1.0), 5),
             (pg_obs, pg_reg, SolverConfig(algorithm="pg"), 20))
    for obs, reg, cfg, iterations in cases:
        made = []
        for n in (1, 20):
            calls.clear()
            rep = solve(obs, reg, dataclasses.replace(cfg, max_iter=n))
            assert rep.iterations_run == min(n, iterations)
            made.append(len(calls))
        assert made[0] == made[1], cfg.algorithm


# --- failure propagation -----------------------------------------------------------


def test_projection_failure_carries_partial_report():
    obs = ObservationSet(d1=2, d2=2, rows=[0], cols=[0], counts=[0])
    reg = FeasibleRegion(d1=2, d2=2, alpha=3.0, beta=1.0, r=1)
    cfg = SolverConfig(
        algorithm="pg", max_iter=10, proj_tol=1e-12, proj_max_iter=1
    )
    with pytest.raises(ProjectionFailure) as excinfo:
        solve_pg(obs, reg, cfg)
    rep = excinfo.value.report
    assert rep.termination == "ProjectionFailure"
    assert rep.iterations_run == 0


def fail_on_call(n, real, error):
    """``real``, except that its n-th call raises ``error``."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(1)
        if len(calls) == n:
            raise error(f"forced on call {n}")
        return real(*args, **kwargs)

    return wrapped


def fail_eigh_and_its_fallback(monkeypatch, n):
    """Make the n-th ``eigh`` raise, and every ``_svd`` from then on.

    That is a matrix neither decomposition can handle: ``_svt`` falls
    back to the SVD when ``eigh`` raises, and the SVD fails too.
    """
    eigh_calls = []
    real_eigh, real_svd = np.linalg.eigh, projections_mod._svd

    def eigh(a):
        eigh_calls.append(1)
        if len(eigh_calls) == n:
            raise np.linalg.LinAlgError(f"forced on call {n}")
        return real_eigh(a)

    def svd(x, compute_uv=True):
        if len(eigh_calls) >= n:
            raise SvdFailure(f"forced after eigh call {n}")
        return real_svd(x, compute_uv)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    monkeypatch.setattr(projections_mod, "_svd", svd)


FORCED_FAILURES = [
    ("pg", ProjectionFailure), ("apg", ProjectionFailure),
    ("pmlsv", BacktrackOverflow),
    *[(algorithm, error) for error in (SvdFailure, NonPositiveEntryAtObservation)
      for algorithm in ("pg", "apg", "pmlsv")],
]


@pytest.mark.parametrize("algorithm, error", FORCED_FAILURES)
def test_failures_carry_the_last_good_iterate(monkeypatch, algorithm, error):
    # Each error is forced part way through a run; its report must be the
    # uninterrupted run's state after the last completed iteration.
    if algorithm == "pmlsv":
        obs, reg, cfg = backtracking_instance()
        cfg = dataclasses.replace(cfg, lam=1.0)
    else:
        obs, reg = binding_instance(1)
        cfg = SolverConfig(algorithm=algorithm, max_iter=20)
    full = solve(obs, reg, cfg)
    if error is ProjectionFailure:
        # The first two projections close in 4 sweeps, the third needs 5.
        cfg = dataclasses.replace(cfg, proj_max_iter=4)
    elif error is BacktrackOverflow:
        monkeypatch.setattr(solvers_mod, "BACKTRACK_L_CAP", full.final_l / 1.01)
    elif error is SvdFailure and algorithm == "pmlsv":
        fail_eigh_and_its_fallback(monkeypatch, 20)
    elif error is SvdFailure:
        monkeypatch.setattr(projections_mod, "_svd",
                            fail_on_call(20, projections_mod._svd, error))
    else:
        monkeypatch.setattr(solvers_mod, "_sampled_gradient",
                            fail_on_call(4, _sampled_gradient, error))
    with pytest.raises(error) as excinfo:
        solve(obs, reg, cfg)
    if error is ProjectionFailure:
        assert isinstance(excinfo.value.__cause__, NoConvergence)
    rep = excinfo.value.report
    k = rep.iterations_run
    assert rep.termination == error.__name__
    assert 1 <= k < full.iterations_run
    assert len(rep.objective_trace) == k
    assert same_bits(rep.objective_trace, full.objective_trace[:k])
    assert not np.isnan(rep.estimate).any()
    assert reg.beta <= rep.estimate.min() and rep.estimate.max() <= reg.alpha
    assert neg_log_likelihood(rep.estimate, obs) == rep.objective_trace[-1]


def test_tiny_proj_tol_closes_on_rounding_noise():
    # With no noise floor one projection call spins all 500 sweeps on a
    # gap of about 7e-14 (call 15 on seed 2, call 56 on seed 4).
    for seed in (2, 4):
        obs, reg = binding_instance(seed)
        cfg = SolverConfig(algorithm="pg", max_iter=60, proj_tol=1e-300)
        rep = solve(obs, reg, cfg)
        assert rep.termination == "MaxIter"
        assert rep.iterations_run == 60


# --- report and dispatch --------------------------------------------------------------


def test_report_json_schema():
    obs, reg = one_by_one(2)
    rep = solve(obs, reg, SolverConfig(algorithm="pg", max_iter=3))
    d = rep.to_json_dict()
    assert sorted(d) == [
        "algorithm",
        "box_active_fraction",
        "final_l",
        "iterations_run",
        "objective_trace",
        "termination",
        "wall_time_sec",
    ]
    assert d["algorithm"] == "pg"
    assert len(d["objective_trace"]) == d["iterations_run"] == 3


def test_dispatch_rejects_unknown_algorithm():
    obs, reg = one_by_one(2)
    with pytest.raises(ValueError):
        solve(obs, reg, SolverConfig(algorithm="sgd"))


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(eta=1.0)
    with pytest.raises(ValueError):
        SolverConfig(lam=-0.1)
    with pytest.raises(ValueError):
        SolverConfig(lam=float("nan"))
    with pytest.raises(ValueError):
        SolverConfig(l0=0.0)
    with pytest.raises(ValueError):
        SolverConfig(proj_tol=0.0)


def test_solver_runs_are_deterministic():
    obs, reg = binding_instance(2)
    cfg = SolverConfig(algorithm="apg", max_iter=30)
    r1 = solve(obs, reg, cfg)
    r2 = solve(obs, reg, cfg)
    assert np.array_equal(r1.estimate, r2.estimate)
    assert np.array_equal(r1.objective_trace, r2.objective_trace)
