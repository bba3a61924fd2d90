import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poismc import (
    FeasibleRegion,
    alternating_projection,
    init_matrix,
    membership,
    nuclear_norm,
    project_box,
    project_nuclear_ball,
    svt,
)
from poismc.errors import BadRadius, BadTau, NoConvergence

from test_solvers import binding_instance, hadamard


def region(d1=3, d2=3, alpha=3.0, beta=1.0, r=2):
    return FeasibleRegion(d1=d1, d2=d2, alpha=alpha, beta=beta, r=r)


# --- box ---------------------------------------------------------------------


def test_box_identity_inside():
    reg = region()
    x = np.full((3, 3), 2.0)
    assert np.array_equal(project_box(x, reg), x)


def test_box_clamps():
    reg = region(d1=2, d2=2, alpha=3.0, beta=1.0, r=1)
    x = np.array([[0.0, 5.0], [2.0, 2.0]])
    assert np.array_equal(project_box(x, reg), np.array([[1.0, 3.0], [2.0, 2.0]]))


def test_box_minimizes_distance_over_grid():
    rng = np.random.default_rng(1)
    reg = region(d1=2, d2=2, alpha=3.0, beta=1.0, r=1)
    axis = np.linspace(1.0, 3.0, 21)
    grid = np.stack(np.meshgrid(axis, axis, axis, axis), axis=-1).reshape(-1, 4)
    for _ in range(10):
        x = rng.uniform(-2.0, 6.0, (2, 2))
        proj = project_box(x, reg)
        dists = np.sum((grid - x.ravel()) ** 2, axis=1)
        assert np.sum((proj - x) ** 2) <= dists.min() + 1e-12


def test_box_idempotent_and_nonexpansive():
    rng = np.random.default_rng(2)
    reg = region()
    for _ in range(50):
        x = rng.normal(scale=4.0, size=(3, 3))
        y = rng.normal(scale=4.0, size=(3, 3))
        px, py = project_box(x, reg), project_box(y, reg)
        assert np.array_equal(project_box(px, reg), px)
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12


# --- nuclear ball ------------------------------------------------------------


def bisect_theta(s, radius, iters=200):
    lo, hi = 0.0, float(s.max())
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.maximum(s - mid, 0.0).sum() > radius:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ball_oracle(x, radius):
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    if s.sum() <= radius:
        return x.copy()
    theta = bisect_theta(s, radius)
    return (u * np.maximum(s - theta, 0.0)) @ vt


def test_ball_interior_unchanged():
    x = np.diag([1.0, 0.5])
    out = project_nuclear_ball(x, 2.0)
    assert np.array_equal(out, x)


def test_ball_diag_example():
    out = project_nuclear_ball(np.diag([3.0, 1.0]), 2.0)
    assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-12)


def test_ball_matches_bisection_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.normal(scale=3.0, size=(4, 3))
        radius = 0.5 * nuclear_norm(x)
        got = project_nuclear_ball(x, radius)
        want = ball_oracle(x, radius)
        assert np.linalg.norm(got - want) < 1e-8
        assert nuclear_norm(got) <= radius * (1 + 1e-8)


def test_ball_matches_convex_solver():
    cp = pytest.importorskip("cvxpy")
    rng = np.random.default_rng(4)
    x = rng.normal(scale=2.0, size=(4, 3))
    radius = 0.5 * nuclear_norm(x)
    y = cp.Variable((4, 3))
    prob = cp.Problem(
        cp.Minimize(cp.sum_squares(y - x)), [cp.normNuc(y) <= radius]
    )
    prob.solve(solver=cp.SCS, eps=1e-9, max_iters=200000)
    assert np.linalg.norm(project_nuclear_ball(x, radius) - y.value) < 1e-5


def test_ball_idempotent_and_hits_radius():
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = rng.normal(scale=5.0, size=(3, 4))
        radius = 0.3 * nuclear_norm(x)
        p1 = project_nuclear_ball(x, radius)
        assert abs(nuclear_norm(p1) - radius) <= 1e-8 * radius
        p2 = project_nuclear_ball(p1, radius)
        assert np.linalg.norm(p1 - p2) < 1e-9


def test_ball_rejects_bad_radius():
    with pytest.raises(BadRadius):
        project_nuclear_ball(np.eye(2), 0.0)


# --- singular value shrinkage ---------------------------------------------------


def prox_objective(y, x, tau):
    return 0.5 * np.sum((y - x) ** 2) + tau * nuclear_norm(y)


def test_svt_zero_tau_reproduces_input():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(4, 4))
    assert np.linalg.norm(svt(x, 0.0) - x) < 1e-10


def test_svt_diagonal_example():
    out = svt(np.diag([3.0, 2.0, 0.5]), 1.0)
    assert np.allclose(out, np.diag([2.0, 1.0, 0.0]), atol=1e-12)


def test_svt_shrinks_singular_values_exactly():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.normal(scale=2.0, size=(5, 3))
        tau = rng.uniform(0.0, 3.0)
        s_in = np.linalg.svd(x, compute_uv=False)
        s_out = np.linalg.svd(svt(x, tau), compute_uv=False)
        assert np.allclose(s_out, np.maximum(s_in - tau, 0.0), atol=1e-8)


def test_svt_beats_random_probes():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(3, 3))
    tau = 0.7
    out = svt(x, tau)
    base = prox_objective(out, x, tau)
    for scale in (1e-3, 1e-2, 0.1, 1.0):
        for _ in range(250):
            probe = out + rng.normal(scale=scale, size=out.shape)
            assert base <= prox_objective(probe, x, tau) + 1e-12


def test_svt_matches_grid_minimum_2x2():
    # Exhaustive grid over symmetric 2x2 neighbourhood of the answer.
    x = np.array([[1.5, 0.3], [-0.2, 0.8]])
    tau = 0.4
    out = svt(x, tau)
    span = 1.2
    axis = np.linspace(-span, span, 13)
    best = None
    best_val = np.inf
    for a in axis:
        for b in axis:
            for c in axis:
                for d in axis:
                    y = out + np.array([[a, b], [c, d]]) * 0.1
                    val = prox_objective(y, x, tau)
                    if val < best_val:
                        best_val = val
                        best = y
    assert prox_objective(out, x, tau) <= best_val + 1e-12
    assert np.linalg.norm(out - best) <= 0.1 * np.sqrt(4) / 2 + 1e-9


def test_svt_rejects_negative_tau():
    with pytest.raises(BadTau):
        svt(np.eye(2), -0.1)


# --- alternating projection ------------------------------------------------------


def test_altproj_fixed_point():
    reg = region(d1=3, d2=3, alpha=3.0, beta=1.0, r=3)
    u0 = np.full((3, 3), 2.0)
    rep = alternating_projection(u0, reg)
    assert rep.iterations == 1
    assert rep.final_gap == 0.0
    assert np.array_equal(rep.result, u0)


def test_altproj_box_binds_ball_slack():
    reg = region(d1=3, d2=3, alpha=3.0, beta=1.0, r=3)
    u0 = np.full((3, 3), 2 * reg.alpha)
    rep = alternating_projection(u0, reg)
    assert np.allclose(rep.result, reg.alpha)


def test_altproj_result_feasible_from_random_start():
    rng = np.random.default_rng(9)
    reg = region(d1=4, d2=5, alpha=3.0, beta=1.0, r=1)
    for _ in range(20):
        u0 = rng.normal(scale=10.0, size=(4, 5))
        rep = alternating_projection(u0, reg, tol=1e-8)
        check = membership(rep.result, reg, tol=1e-8)
        assert check.in_box and check.in_nuclear_ball
        assert rep.final_gap <= 1e-8


def test_altproj_gap_nonincreasing():
    reg = region(d1=4, d2=4, alpha=2.0, beta=1.0, r=1)
    rng = np.random.default_rng(10)
    # Hadamard-patterned start makes the ball constraint bite.
    u0 = 10.0 * np.where(rng.random((4, 4)) < 0.5, 1.0, -1.0)
    radius = reg.nuclear_radius
    gaps = []
    u = u0
    for _ in range(40):
        v = project_nuclear_ball(u, radius)
        u = project_box(v, reg)
        gaps.append(np.linalg.norm(v - u))
    for g0, g1 in zip(gaps, gaps[1:]):
        assert g1 <= g0 + 1e-12


def test_altproj_no_convergence_carries_report():
    reg = region(d1=4, d2=4, alpha=2.0, beta=1.0, r=1)
    u0 = 50.0 * np.array(
        [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float
    )
    with pytest.raises(NoConvergence) as excinfo:
        alternating_projection(u0, reg, tol=1e-15, max_iter=1)
    rep = excinfo.value.report
    assert rep.iterations == 1
    assert rep.final_gap > 1e-15
    assert membership(rep.result, reg).in_box


def altproj_reference(u0, reg, tol, max_iter):
    """Plain ball-then-box loop: a full SVD on every sweep, same closing rule."""
    u = np.asarray(u0, dtype=float)
    noise = 4.0 * np.sqrt(u.size) * np.finfo(float).eps
    gap = np.inf
    for j in range(1, max_iter + 1):
        v = project_nuclear_ball(u, reg.nuclear_radius)
        u = project_box(v, reg)
        gap = float(np.linalg.norm(v - u))
        if gap <= max(tol, noise * np.linalg.norm(u)):
            return u, j, gap, True
    return u, max_iter, gap, False


@st.composite
def altproj_cases(draw):
    d1, d2 = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    beta = draw(st.floats(0.05, 2.0))
    alpha = beta + draw(st.floats(0.0, 5.0))
    r = draw(st.integers(1, min(d1, d2, 3)))
    reg = FeasibleRegion(d1=d1, d2=d2, alpha=alpha, beta=beta, r=r)
    n = d1 * d2
    kind = draw(st.sampled_from(["corners", "scaled", "uniform"]))
    if kind == "uniform":
        u0 = np.array(draw(st.lists(st.floats(-20.0, 20.0), min_size=n,
                                    max_size=n))).reshape(d1, d2)
    else:
        # Hadamard rows with some signs flipped. On the box corners the
        # pattern has high rank, so the ball binds sweep after sweep; scaled
        # far outside the box, the ball binds once and the clip lands inside.
        flips = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                       min_size=n, max_size=n)))
        pattern = hadamard(2 * max(d1, d2))[:d1, :d2] * flips.reshape(d1, d2)
        if kind == "corners":
            u0 = np.where(pattern > 0, alpha, beta)
        else:
            u0 = (alpha + beta) / 2 + draw(st.floats(0.5, 50.0)) * pattern
    tol = draw(st.sampled_from([1e-300, 1e-12, 1e-6, 1e-2]))
    max_iter = draw(st.sampled_from([1, 2, 5, 50]))
    return u0, reg, tol, max_iter


@settings(max_examples=300, deadline=None)
@given(altproj_cases())
def test_altproj_bit_equal_to_full_svd_loop(case):
    u0, reg, tol, max_iter = case
    want, iters, gap, closed = altproj_reference(u0, reg, tol, max_iter)
    if closed:
        rep = alternating_projection(u0, reg, tol=tol, max_iter=max_iter)
    else:
        with pytest.raises(NoConvergence) as excinfo:
            alternating_projection(u0, reg, tol=tol, max_iter=max_iter)
        rep = excinfo.value.report
    assert np.array_equal(rep.result, want)
    assert rep.iterations == iters
    assert rep.final_gap == gap


def count_svds(monkeypatch):
    counts = {"full": 0, "values": 0}
    svd = np.linalg.svd

    def counted(x, full_matrices=True, compute_uv=True, **kw):
        counts["full" if compute_uv else "values"] += 1
        return svd(x, full_matrices=full_matrices, compute_uv=compute_uv, **kw)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return counts


def test_altproj_clip_inside_ball_skips_full_svd(monkeypatch):
    # The ball binds on the start; its clip, all 3.0, lies well inside it.
    reg = region(d1=3, d2=3, alpha=3.0, beta=1.0, r=3)
    counts = count_svds(monkeypatch)
    rep = alternating_projection(np.full((3, 3), 6.0), reg)
    assert counts == {"full": 1, "values": 1}
    assert rep.iterations == 2
    assert rep.final_gap == 0.0
    assert np.array_equal(rep.result, np.full((3, 3), 3.0))


def test_altproj_tests_values_only_once_while_ball_binds(monkeypatch):
    # The ball binds on every sweep, so after the second sweep's test
    # fails no further values-only SVD is spent.
    obs, reg = binding_instance(0)
    u0 = init_matrix(obs, reg)
    counts = count_svds(monkeypatch)
    rep = alternating_projection(u0, reg, tol=1e-6)
    assert rep.iterations > 3
    assert counts == {"full": rep.iterations, "values": 1}
