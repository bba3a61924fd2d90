import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poismc.solvers as solvers_mod
from poismc import (
    FeasibleRegion,
    ObservationSet,
    SolverConfig,
    SynthesisSpec,
    gradient,
    init_matrix,
    lipschitz_constant,
    make_low_rank,
    membership,
    mse_per_entry,
    neg_log_likelihood,
    nuclear_norm,
    project_box,
    quadratic_model,
    sample_mask,
    sample_poisson,
    solve,
    solve_apg,
    solve_pg,
    solve_pmlsv,
)
from poismc.errors import BacktrackOverflow, ProjectionFailure, ShapeMismatch


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


def linear_scan_pmlsv(obs, reg, cfg):
    """Plain pmlsv that raises L by one factor eta per rejected trial.

    Returns the report fields ``solve_pmlsv`` must reproduce, plus the
    number of trials of each iteration.
    """
    l = cfg.l0
    m = init_matrix(obs, reg)
    f_prev = neg_log_likelihood(m, obs)
    trace, gaps, trials = [], [], []
    termination, k_run = "MaxIter", 0
    for k in range(1, cfg.max_iter + 1):
        g = gradient(m, obs)
        trials.append(0)
        while True:
            trials[-1] += 1
            u, s, vt = np.linalg.svd(m - g / l, full_matrices=False)
            m_next = project_box((u * np.maximum(s - cfg.lam / l, 0.0)) @ vt, reg)
            diff = m_next - m
            q = f_prev + float(np.vdot(diff, g)) + 0.5 * l * float(np.vdot(diff, diff))
            f_next = neg_log_likelihood(m_next, obs)
            if f_next > q:
                l *= cfg.eta
                if l > solvers_mod.BACKTRACK_L_CAP:
                    raise BacktrackOverflow("reference scan overflowed")
                continue
            break
        m, f_prev = m_next, f_next
        trace.append(f_next)
        gaps.append(f_next - q)
        k_run = k
        if abs(f_next - q) < 0.5 / cfg.max_iter:
            termination = "QGapSmall"
            break
    return dict(estimate=m, objective_trace=np.asarray(trace),
                majorization_gaps=np.asarray(gaps), final_l=l,
                iterations_run=k_run, termination=termination, trials=trials)


def test_pmlsv_backtracking_raises_l_and_keeps_majorization():
    obs, reg, cfg = backtracking_instance()
    rep = solve_pmlsv(obs, reg, cfg)
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
    obs, reg, cfg = case
    want = linear_scan_pmlsv(obs, reg, cfg)
    rep = solve_pmlsv(obs, reg, cfg)
    for key in ("estimate", "objective_trace", "majorization_gaps"):
        assert np.array_equal(getattr(rep, key), want[key]), key
    assert rep.final_l == want["final_l"]
    assert rep.iterations_run == want["iterations_run"]
    assert rep.termination == want["termination"]


def test_pmlsv_first_iteration_gallops_and_bisects(monkeypatch):
    obs, reg, cfg = backtracking_instance()
    cfg = dataclasses.replace(cfg, max_iter=1)
    k = linear_scan_pmlsv(obs, reg, cfg)["trials"][0] - 1
    assert k >= 16
    svd_calls = []
    real_svd = solvers_mod._svd
    monkeypatch.setattr(
        solvers_mod, "_svd", lambda x: svd_calls.append(1) or real_svd(x)
    )
    solve_pmlsv(obs, reg, cfg)
    assert len(svd_calls) <= 2 * math.ceil(math.log2(k + 1)) + 1


def test_pmlsv_steps_one_rung_at_a_time_above_the_top_rung(monkeypatch):
    obs, reg, cfg = backtracking_instance()
    lip = lipschitz_constant(reg)
    real_nll = solvers_mod.neg_log_likelihood
    nll_calls = []

    def rejecting_nll(x, obs):  # the first call is the starting point's f
        nll_calls.append(1)
        return real_nll(x, obs) + (0.0 if len(nll_calls) == 1 else 1e30)

    probes = []
    real_trial = solvers_mod._shrink_trial

    def recording_trial(l, *ctx):
        probes.append(l)
        return real_trial(l, *ctx)

    monkeypatch.setattr(solvers_mod, "neg_log_likelihood", rejecting_nll)
    monkeypatch.setattr(solvers_mod, "_shrink_trial", recording_trial)
    with pytest.raises(BacktrackOverflow):
        solve_pmlsv(obs, reg, cfg)
    ladder = [cfg.l0]
    while ladder[-1] * cfg.eta <= solvers_mod.BACKTRACK_L_CAP:
        ladder.append(ladder[-1] * cfg.eta)
    top = next(i for i, l in enumerate(ladder) if l >= lip)
    gallop = [ladder[2**j] for j in range(top.bit_length()) if 2**j < top]
    assert probes == [ladder[0]] + gallop + ladder[top:]


def test_pmlsv_backtrack_overflow(monkeypatch):
    obs, reg = binding_instance(1)
    monkeypatch.setattr(solvers_mod, "BACKTRACK_L_CAP", 1e-9)
    with pytest.raises(BacktrackOverflow):
        solve_pmlsv(
            obs, reg,
            SolverConfig(algorithm="pmlsv", max_iter=5, lam=0.1, l0=1e-8, eta=2.0),
        )


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
