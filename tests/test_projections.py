import warnings

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from poismc import (
    FeasibleRegion,
    ProjectionReport,
    alternating_projection,
    init_matrix,
    membership,
    nuclear_norm,
    project_box,
    project_nuclear_ball,
    svt,
)
from poismc import projections
from poismc.errors import BadRadius, BadTau, ProjectionFailure, SvdFailure
from poismc.projections import (BALL_TEST_GUARD, GRAM, GRAM_SVT_GUARD, INSIDE,
                                SVD, TINY_NORMAL, _alternating_projection,
                                _ball_step, _basis_bound, _eigh, _fro_norm,
                                _gram_bracket, _gram_eigh, _gram_shrink,
                                _gram_theta)

from test_solvers import binding_instance, hadamard, same_bits


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


def test_ball_radius_below_the_rounding_of_the_top_singular_value():
    # s_1 - (s_1 - radius) / 1 rounds to 0 here, so the breakpoint scan
    # finds no active index; index 1 is active in exact arithmetic.
    for x, radius in ((np.diag([1.0, 0.0]), 1e-17),
                      (np.diag([3.0, 2.0, 1.0]), 1e-300),
                      (np.ones((2, 3)), 1e-16)):
        got = project_nuclear_ball(x, radius)
        assert got.shape == x.shape
        assert np.all(np.isfinite(got))
        assert nuclear_norm(got) <= radius + 4 * np.finfo(float).eps * nuclear_norm(x)


def test_ball_rejects_bad_radius():
    with pytest.raises(BadRadius):
        project_nuclear_ball(np.eye(2), 0.0)


def ball_svd_formula(x, radius):
    """The ball step's SVD formula: the breakpoint scan over LAPACK's values."""
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    if s.sum() <= radius:
        return x.copy()
    css = np.cumsum(s)
    active = np.nonzero(s - (css - radius) / np.arange(1, s.size + 1) > 0.0)[0]
    k = int(active[-1]) + 1 if active.size else 1
    return (u * np.maximum(s - (css[k - 1] - radius) / k, 0.0)) @ vt


# radius / ||x||_*: binding, near the radius on either side, a tiny theta,
# and inside
BALL_RADII = st.one_of(
    st.floats(0.01, 0.99),
    st.sampled_from([-1e-9, -1e-12, -1e-15, 0.0, 1e-15, 1e-12, 1e-9])
    .map(lambda e: 1.0 + e),
    st.floats(-14.0, -4.0).map(lambda e: 1.0 - 10.0**e),
    st.floats(1.01, 3.0),
)


@st.composite
def ball_cases(draw):
    """A tall, wide or square rank-r matrix at scale 1e-150, 1 or 1e150."""
    d1, d2 = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    r = draw(st.integers(1, min(d1, d2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    unit = rng.normal(size=(d1, r)) @ rng.normal(size=(r, d2))
    scale = draw(st.sampled_from([1e-150, 1.0, 1e150]))
    radius = draw(BALL_RADII) * scale * np.linalg.svd(unit, compute_uv=False).sum()
    return scale * unit, radius


@settings(max_examples=400, deadline=None)
@given(ball_cases())
def test_ball_is_the_svd_formula_within_the_gram_bound(case):
    # Shrunk through the Gram matrix at theta, the result errs by about
    # n * eps * sigma_1 / theta relative, as in svt. Its theta is the mean
    # of k active values sqrt(lam_i) less radius / k, each off by about
    # eps * sigma_1**2 / sigma_i < eps * sigma_1**2 / theta, which moves
    # the result by sqrt(k) times that. The SVD formula, and an input the
    # bracket proves inside, err by about n * eps. The bound takes
    # ||x||_F for sigma_1 and n = d1 + d2, as the svt bound does.
    x, radius = case
    assert ball_error(project_nuclear_ball(x, radius), x, radius) <= 1.0


def ball_error(got, x, radius):
    """||got - ball(x)||_F over the ball step's documented tolerance."""
    s = np.linalg.svd(x, compute_uv=False)
    theta = bisect_theta(s, radius) if s.sum() > radius else 0.0
    fro = np.linalg.norm(x)
    ratio = fro / theta if theta > 0.0 else 0.0
    bound = sum(x.shape) * np.finfo(float).eps * fro * (1.0 + ratio)
    return np.linalg.norm(got - ball_oracle(x, radius)) / bound


def gram_decision(x, radius, vectors):
    """What the Gram path decides: "svd", "inside" or "shrink"."""
    spec = _gram_eigh(x, vectors)
    theta = None if spec is None else _gram_theta(*spec[:3], radius)
    return "svd" if theta is None else "inside" if theta == 0.0 else "shrink"


def bracket_end_case(seed, d1, d2):
    """A radius at the lower of the two Gram brackets' upper ends.

    The eigenvalues from ``eigh`` and from ``eigvalsh`` often differ in
    their last bits, and so do the brackets built on them. At this radius
    one bracket proves the input inside and the other straddles it.
    """
    x = np.random.default_rng(seed).normal(size=(d1, d2))
    highs = [_gram_bracket(*_gram_eigh(x, vectors)[:3])[1] for vectors in (False, True)]
    return x, min(highs)


@settings(max_examples=400, deadline=None)
@given(ball_cases())
@example(bracket_end_case(4, 9, 11))
@example(bracket_end_case(7, 11, 8))
def test_ball_step_from_values_only_is_the_step_with_vectors(case):
    # The second sweep's step reads eigvalsh, and eigh only to shrink. Where
    # its bracket decides as the eigh bracket does, the result keeps its
    # bits; where the two differ (their values may differ in the last
    # bits), both results still lie within the ball step's tolerance.
    x, radius = case
    got, q, _ = _ball_step(x, radius, vectors=False)
    want, _, _ = _ball_step(x, radius)
    if gram_decision(x, radius, False) == gram_decision(x, radius, True):
        assert np.array_equal(got, want)
    else:
        assert ball_error(got, x, radius) <= 1.0
        assert ball_error(want, x, radius) <= 1.0
    if q is None:
        assert gram_decision(x, radius, False) == "inside"


def unit_3x5():
    x = wide_3x5(1.0)
    return x, np.linalg.svd(x, compute_uv=False).sum()


# name: (scale of the matrix, radius / ||x||_*)
BALL_FALLBACKS = {
    "bracket straddles": (1.0, 1.0),
    "sigma_1 over guard": (1.0, 1.0 - 1e-7),
    "gram overflows": (1e160, 0.5),
    "gram underflows": (1e-160, 0.5),
    "eigh raises": (1.0, 0.5),
}


def check_ball_fallback(monkeypatch, name, tall, vectors):
    """One failed Gram try, then the SVD formula's result, bit for bit."""
    scale, frac = BALL_FALLBACKS[name]
    x, nuclear = unit_3x5()
    x, radius = scale * (x.T.copy() if tall else x), frac * scale * nuclear
    want = ball_svd_formula(x, radius)
    if name == "eigh raises":
        raise_in_eigh(monkeypatch)
    counts = count_decompositions(monkeypatch)
    got, q, path = _ball_step(x, radius, vectors=vectors)
    assert counts == {"eigh": int(vectors), "eigvalsh": int(not vectors),
                      "full": 1, "values": 0}
    assert path == (INSIDE if np.array_equal(got, x) else SVD)
    assert np.array_equal(got, want)
    assert q.shape == (3, 3)


@pytest.mark.parametrize("tall", [False, True])
@pytest.mark.parametrize("name", BALL_FALLBACKS)
def test_ball_falls_back_to_the_svd_formula(monkeypatch, name, tall):
    check_ball_fallback(monkeypatch, name, tall, vectors=True)


@pytest.mark.parametrize("tall", [False, True])
@pytest.mark.parametrize("name", BALL_FALLBACKS)
def test_ball_falls_back_from_values_only(monkeypatch, name, tall):
    # The second sweep's fallback: the failed try is one eigvalsh, no eigh.
    check_ball_fallback(monkeypatch, name, tall, vectors=False)


def test_ball_step_without_the_gram_path_runs_only_the_svd(monkeypatch):
    x, nuclear = unit_3x5()
    counts = count_decompositions(monkeypatch)
    got, _, _ = _ball_step(x, 0.5 * nuclear, gram=False)
    assert counts == {"eigh": 0, "eigvalsh": 0, "full": 1, "values": 0}
    assert np.array_equal(got, ball_svd_formula(x, 0.5 * nuclear))


@pytest.mark.parametrize("frac", [0.5, 1.0 + 1e-6])
@pytest.mark.parametrize("tall", [False, True])
def test_ball_step_on_the_gram_path_skips_the_svd(monkeypatch, frac, tall):
    # Binding at theta well above sigma_1 / GRAM_SVT_GUARD, or proved
    # inside by the bracket: one eigh of the 3x3 Gram matrix, no SVD.
    x, nuclear = unit_3x5()
    x = x.T.copy() if tall else x
    want = ball_svd_formula(x, frac * nuclear)
    counts = count_decompositions(monkeypatch)
    got, q, path = _ball_step(x, frac * nuclear)
    assert counts == {"eigh": 1, "eigvalsh": 0, "full": 0, "values": 0}
    assert q.shape == (3, 3)
    assert path == (INSIDE if frac > 1.0 else GRAM)
    if frac > 1.0:
        assert np.array_equal(got, x)
    else:
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("tall", [False, True])
def test_ball_step_from_values_only_proves_inside_without_eigh(monkeypatch, tall):
    # The second sweep's inside case: the eigenvalues prove it, and no
    # vectors are computed.
    x, nuclear = unit_3x5()
    x = x.T.copy() if tall else x
    counts = count_decompositions(monkeypatch)
    got, q, _ = _ball_step(x, (1.0 + 1e-6) * nuclear, vectors=False)
    assert counts == {"eigh": 0, "eigvalsh": 1, "full": 0, "values": 0}
    assert q is None
    assert np.array_equal(got, x)


@pytest.mark.parametrize("tall", [False, True])
def test_ball_step_from_values_only_shrinks_through_one_eigh(monkeypatch, tall):
    # The second sweep's Gram-path shrink: eigvalsh proves the point
    # outside, then one eigh of the same Gram matrix gives the vectors, and
    # the result is the step with vectors, bit for bit.
    x, nuclear = unit_3x5()
    x = x.T.copy() if tall else x
    want, want_q, _ = _ball_step(x, 0.5 * nuclear)
    grams, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: grams.append(a) or eigh(a))
    counts = count_decompositions(monkeypatch)
    got, q, _ = _ball_step(x, 0.5 * nuclear, vectors=False)
    assert counts == {"eigh": 1, "eigvalsh": 1, "full": 0, "values": 0}
    assert np.array_equal(got, want)
    assert np.array_equal(q, want_q)
    a = x if tall else x.T
    assert len(grams) == 1 and np.array_equal(grams[0], a.T @ a)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_ball_and_svt_of_an_empty_matrix(shape):
    x = np.zeros(shape)
    assert project_nuclear_ball(x, 1.0).shape == shape
    assert svt(x, 1.0).shape == shape


def test_ball_of_nan_raises_svd_failure():
    with pytest.raises(SvdFailure):
        project_nuclear_ball(np.full((4, 3), np.nan), 1.0)


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
    with pytest.raises(BadTau):
        svt(np.eye(3), float("nan"))


def svd_formula(x, tau):
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    return (u * np.maximum(s - tau, 0.0)) @ vt


@st.composite
def svt_cases(draw):
    """A rank-r matrix at scale 1e-150, 1 or 1e150, and tau in [0, 1.6 sigma_1]."""
    d1, d2 = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    r = draw(st.integers(1, min(d1, d2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    unit = rng.normal(size=(d1, r)) @ rng.normal(size=(r, d2))
    scale = draw(st.sampled_from([1e-150, 1.0, 1e150]))
    frac = draw(st.one_of(st.just(0.0), st.floats(-7.0, 0.2).map(lambda e: 10.0**e)))
    return scale * unit, frac * scale * np.linalg.norm(unit, 2)


@settings(max_examples=300, deadline=None)
@given(svt_cases())
def test_svt_is_the_svd_formula_within_the_gram_bound(case):
    # The Gram path errs by about n * eps * sigma_1 / tau relative, the SVD
    # formula by about n * eps. The bound takes ||x||_F for sigma_1 and
    # n = d1 + d2, for the d1-term sums of the Gram matrix and the
    # eigendecomposition's backward error on d2 x d2.
    x, tau = case
    got, want = svt(x, tau), svd_formula(x, tau)
    fro = np.linalg.norm(x)
    ratio = fro / tau if tau > 0.0 else 0.0
    n = sum(x.shape)
    assert np.linalg.norm(got - want) <= n * np.finfo(float).eps * fro * (1.0 + ratio)


def test_svt_of_a_pmlsv_sized_step_takes_the_gram_path(monkeypatch):
    # A 200x200 gradient step like pmlsv's: rank 4 with entries in [1, 9],
    # noise on half the cells, shrunk by lam / L = 0.1.
    rng = np.random.default_rng(0)
    x = rng.uniform(1.0, 3.0, (200, 4)) @ rng.uniform(0.25, 0.75, (4, 200))
    x += rng.normal(size=x.shape) * (rng.random(x.shape) < 0.5)
    want = svd_formula(x, 0.1)
    counts = count_decompositions(monkeypatch)
    got = svt(x, 0.1)
    assert counts == {"eigh": 1, "eigvalsh": 0, "full": 0, "values": 0}
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def wide_3x5(scale):
    return scale * np.random.default_rng(11).normal(size=(3, 5))


# name: (scale of the matrix, tau / sigma_1, eigh calls)
SVT_FALLBACKS = {
    "tau 0": (1.0, 0.0, 0),
    "sigma_1 over guard": (1.0, 0.5 / GRAM_SVT_GUARD, 1),
    "gram overflows": (1e160, 0.1, 1),
    "gram underflows": (1e-160, 0.1, 1),
    "eigh raises": (1.0, 0.1, 1),
}


def raise_in_eigh(monkeypatch):
    def eigh(a):
        raise np.linalg.LinAlgError("forced")
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigh)


@pytest.mark.parametrize("name", SVT_FALLBACKS)
def test_svt_falls_back_to_the_svd_formula(monkeypatch, name):
    scale, tau_ratio, eighs = SVT_FALLBACKS[name]
    x = wide_3x5(scale)
    tau = tau_ratio * np.linalg.norm(x, 2)
    want = svd_formula(x, tau)
    if name == "eigh raises":
        raise_in_eigh(monkeypatch)
    counts = count_decompositions(monkeypatch)
    got = svt(x, tau)
    assert counts == {"eigh": eighs, "eigvalsh": 0, "full": 1, "values": 0}
    assert np.array_equal(got, want)


def test_svt_on_the_gram_side_of_the_guard_skips_the_svd(monkeypatch):
    # A wide matrix is shrunk through the Gram matrix of its shorter side.
    x = wide_3x5(1.0)
    tau = 2.0 * np.linalg.norm(x, 2) / GRAM_SVT_GUARD
    grams, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: grams.append(a.shape) or eigh(a))
    counts = count_decompositions(monkeypatch)
    svt(x, tau)
    assert counts == {"eigh": 1, "eigvalsh": 0, "full": 0, "values": 0}
    assert grams == [(3, 3)]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.sampled_from(["tall", "wide"]),
       st.integers(0, 2**32 - 1), st.floats(0.01, 1.5))
def test_gram_shrink_is_the_plain_formula_bit_for_bit(n, k, side, seed, frac):
    # _gram_shrink scales a @ v in place; the result keeps the bits of the
    # plain expression, transposed back when x is wide.
    n, k = max(n, k), min(n, k)
    x = np.random.default_rng(seed).normal(size=(n, k) if side == "tall" else (k, n))
    a, _, s, v = _gram_eigh(x)
    tau = frac * s[-1]
    keep = s > tau
    want = ((a @ v[:, keep]) * (1.0 - tau / s[keep])) @ v[:, keep].T
    assert same_bits(_gram_shrink(x, a, s, v, tau), want if a is x else want.T)


# name: a Gram matrix that holds inf or NaN
NON_FINITE_GRAMS = {
    "nan entry": (np.nan, 1.0),
    "inf entry": (np.inf, 1.0),
    "overflow": (1.0, 1e200),
}


@pytest.mark.parametrize("vectors", [True, False])
@pytest.mark.parametrize("name", NON_FINITE_GRAMS)
def test_eigh_of_a_non_finite_gram_matrix_is_none_without_a_warning(name, vectors):
    # _eigh sets no errstate of its own: numpy's eigh and eigvalsh set one
    # that ignores overflow and turns an invalid operation into LinAlgError.
    # Here every floating-point condition warns, and a warning fails.
    entry, scale = NON_FINITE_GRAMS[name]
    a = scale * np.random.default_rng(5).normal(size=(6, 4))
    a[2, 1] = entry
    with np.errstate(over="ignore", invalid="ignore"):
        g = a.T @ a
    assert not np.isfinite(g).all()
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        assert _eigh(g, vectors) is None


def test_svt_of_nan_raises_svd_failure():
    with pytest.raises(SvdFailure):
        svt(np.full((4, 3), np.nan), 1.0)


# --- alternating projection ------------------------------------------------------


FRO_LAYOUTS = {
    "C": lambda x: np.ascontiguousarray(x),
    "F": lambda x: np.asfortranarray(x),
    "transposed": lambda x: np.ascontiguousarray(x).T,
}


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1),
       st.sampled_from(sorted(FRO_LAYOUTS)), st.sampled_from([1.0, 1e-100, 1e150]))
def test_fro_norm_keeps_the_bits_of_numpy_norm(d1, d2, seed, layout, scale):
    # The gap and the noise floor of every sweep: the same dot product as
    # np.linalg.norm, in memory order, so F-ordered and transposed inputs
    # (a wide ball step returns one) keep their bits.
    x = FRO_LAYOUTS[layout](scale * np.random.default_rng(seed).normal(size=(d1, d2)))
    assert _fro_norm(x) == np.linalg.norm(x)


@pytest.mark.parametrize("layout", sorted(FRO_LAYOUTS))
def test_fro_norm_rescues_underflowing_squares(layout):
    # Entries near 1e-170 square below the smallest subnormal, so a plain
    # norm reads 0; the rescue scales them to a largest entry of 1.
    unit = np.random.default_rng(3).normal(size=(7, 4))
    x = FRO_LAYOUTS[layout](1e-170 * unit)
    assert np.linalg.norm(x) == 0.0
    assert _fro_norm(x) == pytest.approx(1e-170 * np.linalg.norm(unit), rel=1e-14)


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
    with pytest.raises(ProjectionFailure) as excinfo:
        alternating_projection(u0, reg, tol=1e-15, max_iter=1)
    rep = excinfo.value.report
    assert isinstance(rep, ProjectionReport)
    assert rep.iterations == 1
    assert rep.final_gap > 1e-15
    assert membership(rep.result, reg).in_box


def test_altproj_gap_does_not_underflow_at_tiny_scales():
    # Scaled by 2**-540 the entries of V - U square to 0, so a plain
    # Frobenius norm read the gap as 0 and closed after one sweep with
    # the result 0.7% outside the ball. The unscaled call takes 10 sweeps.
    obs, reg = binding_instance(0)
    u0 = init_matrix(obs, reg)
    want = alternating_projection(u0, reg, tol=1e-300)
    s = 2.0**-540
    tiny = region(reg.d1, reg.d2, alpha=reg.alpha * s, beta=reg.beta * s, r=reg.r)
    rep = alternating_projection(u0 * s, tiny, tol=1e-300)
    assert rep.iterations == want.iterations == 10
    assert 0.0 < rep.final_gap / s < 1e-12
    assert nuclear_norm(rep.result) <= tiny.nuclear_radius * (1.0 + 1e-12)


def altproj_reference(u0, reg, tol, max_iter):
    """Plain ball-then-box loop: one ball step on every sweep, same closing rule.

    The ball step is the kernel's, and takes the Gram path on the first
    two sweeps only, the second from eigenvalues only, as the kernel's
    loop does. Only the second sweep's basis-bound test is left out.
    """
    u = np.asarray(u0, dtype=float)
    noise = 4.0 * np.sqrt(u.size) * np.finfo(float).eps
    gap = np.inf
    for j in range(1, max_iter + 1):
        v = _ball_step(u, reg.nuclear_radius, gram=j <= 2, vectors=j == 1)[0]
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


def wide_equal_bounds_case(transpose=False):
    # alpha == beta: the clip is constant and its nuclear norm equals the
    # radius, and on a 3x9 box the 3 right vectors of the thin SVD bound
    # only part of it.
    u0 = np.zeros((3, 9))
    u0[2, 7], u0[2, 8] = 1.0, -1.0
    if transpose:
        u0 = u0.T.copy()
    reg = region(*u0.shape, alpha=0.09375, beta=0.09375, r=1)
    return u0, reg, 1e-300, 2


@settings(max_examples=300, deadline=None)
@given(altproj_cases())
@example(wide_equal_bounds_case())
@example(wide_equal_bounds_case(transpose=True))
def test_altproj_bit_equal_to_full_svd_loop(case):
    u0, reg, tol, max_iter = case
    want, iters, gap, closed = altproj_reference(u0, reg, tol, max_iter)
    if closed:
        rep = alternating_projection(u0, reg, tol=tol, max_iter=max_iter)
    else:
        with pytest.raises(ProjectionFailure) as excinfo:
            alternating_projection(u0, reg, tol=tol, max_iter=max_iter)
        rep = excinfo.value.report
    assert np.array_equal(rep.result, want)
    assert rep.iterations == iters
    assert rep.final_gap == gap


def count_decompositions(monkeypatch):
    """Count ``eigh`` and ``eigvalsh`` calls, and SVDs with (full) and
    without (values) vectors."""
    counts = {"eigh": 0, "eigvalsh": 0, "full": 0, "values": 0}
    svd, eigh, eigvalsh = np.linalg.svd, np.linalg.eigh, np.linalg.eigvalsh

    def counted_svd(x, full_matrices=True, compute_uv=True, **kw):
        counts["full" if compute_uv else "values"] += 1
        return svd(x, full_matrices=full_matrices, compute_uv=compute_uv, **kw)

    def counted_eigh(a):
        counts["eigh"] += 1
        return eigh(a)

    def counted_eigvalsh(a):
        counts["eigvalsh"] += 1
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    return counts


def test_altproj_clip_inside_ball_skips_full_svd(monkeypatch):
    # The ball binds on the start; its clip, all 3.0, lies well inside it,
    # and the first sweep's eigenvectors prove so without another
    # decomposition.
    reg = region(d1=3, d2=3, alpha=3.0, beta=1.0, r=3)
    counts = count_decompositions(monkeypatch)
    rep = alternating_projection(np.full((3, 3), 6.0), reg)
    assert counts == {"eigh": 1, "eigvalsh": 0, "full": 0, "values": 0}
    assert rep.iterations == 2
    assert rep.final_gap == 0.0
    assert np.array_equal(rep.result, np.full((3, 3), 3.0))


def test_altproj_values_only_sum_proves_what_the_basis_bound_cannot(monkeypatch):
    # The start lies in the ball (radius 2), so the first sweep's basis is
    # the standard one. The clip [[1, .9], [.9, .9]] has nuclear norm 1.9,
    # but its column norms sum to 2.62: only the bracket on the sum of its
    # singular values, from the second sweep's eigvalsh, proves it.
    reg = region(d1=2, d2=2, alpha=1.0, beta=0.9, r=1)
    u0 = np.diag([1.0, -0.5])
    clip = np.array([[1.0, 0.9], [0.9, 0.9]])
    basis = _ball_step(u0, reg.nuclear_radius)[1]
    assert _basis_bound(clip, basis) > reg.nuclear_radius
    counts = count_decompositions(monkeypatch)
    rep = alternating_projection(u0, reg)
    assert counts == {"eigh": 1, "eigvalsh": 1, "full": 0, "values": 0}
    assert rep.iterations == 2
    assert rep.final_gap == 0.0
    assert np.array_equal(rep.result, clip)


@st.composite
def bound_cases(draw):
    d1, d2 = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    k = draw(st.integers(1, min(d1, d2)))  # rank k < min(d1, d2) is deficient
    entries = st.floats(-10.0, 10.0)
    a = np.array(draw(st.lists(entries, min_size=d1 * k, max_size=d1 * k)))
    b = np.array(draw(st.lists(entries, min_size=k * d2, max_size=k * d2)))
    e = np.array(draw(st.lists(entries, min_size=d1 * d2, max_size=d1 * d2)))
    scale = draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-2, 1.0]))
    # At 2**-540 the squares of the entries underflow, so the bound must
    # rescale to stay above ||x||_*.
    tiny = draw(st.sampled_from([1.0, 2.0**-540]))
    x = a.reshape(d1, k) @ b.reshape(k, d2)
    return x * tiny, (x + scale * e.reshape(d1, d2)) * tiny


@settings(max_examples=300, deadline=None)
@given(bound_cases())
def test_basis_bound_never_undercuts_the_nuclear_norm(case):
    # The bound over a nearby matrix's complete basis, as the second sweep
    # uses it, stays above ||x||_* within the guard: the eigenvectors of
    # its Gram matrix, and the complete factor of its SVD.
    x, nearby = case
    tall = nearby.shape[0] >= nearby.shape[1]
    u, _, vt = np.linalg.svd(nearby, full_matrices=False)
    a = nearby if tall else nearby.T
    for q in (np.linalg.eigh(a.T @ a)[1], vt.T if tall else u):
        assert _basis_bound(x, q) >= nuclear_norm(x) * (1.0 - BALL_TEST_GUARD)


@settings(max_examples=300, deadline=None)
@given(bound_cases())
def test_values_only_bracket_holds_the_nuclear_norm(case):
    # The bracket the second sweep reads from eigvalsh alone holds the
    # SVD's sum of singular values. At 2**-540 the Gram matrix underflows,
    # and the step leaves the decision to the SVD.
    for x in case:
        spec = _gram_eigh(x, vectors=False)
        s = np.linalg.svd(x, compute_uv=False)
        if spec is None:
            assert s[0] < np.sqrt(TINY_NORMAL)
            continue
        assert spec[3] is None
        low, high = _gram_bracket(*spec[:3])
        assert low <= s.sum() <= high


def test_altproj_tests_values_only_once_while_ball_binds(monkeypatch):
    # The ball binds on every sweep, so after the second sweep's basis
    # bound fails no decomposition is spent on a test: the first sweep
    # makes an eigh, the second an eigvalsh and the eigh its Gram-path
    # shrink reads, and every later one a full SVD.
    obs, reg = binding_instance(0)
    u0 = init_matrix(obs, reg)
    counts = count_decompositions(monkeypatch)
    rep = alternating_projection(u0, reg, tol=1e-6)
    assert rep.iterations > 3
    assert counts == {"eigh": 2, "eigvalsh": 1, "full": rep.iterations - 2,
                      "values": 0}


@pytest.mark.parametrize("shape", [(15, 12), (12, 15)])
def test_altproj_makes_no_eigh_after_the_second_sweep(monkeypatch, shape):
    # The ball binds on every sweep of this call, and on the third
    # sweep sigma_1 / theta still passes the guard; even so, from the
    # third sweep on each ball step runs the SVD formula alone. The second
    # sweep reads eigvalsh first, then the eigh its shrink needs.
    obs, reg = binding_instance(0, *shape)
    u0 = init_matrix(obs, reg)
    counts = count_decompositions(monkeypatch)
    sweeps, step = [], projections._ball_step

    def recorded_step(u, radius, *args, **kwargs):
        before = counts["eigh"], counts["eigvalsh"]
        out = step(u, radius, *args, **kwargs)
        sweeps.append((counts["eigh"] - before[0], counts["eigvalsh"] - before[1],
                       not np.array_equal(out[0], u)))
        return out

    monkeypatch.setattr(projections, "_ball_step", recorded_step)
    rep = alternating_projection(u0, reg, tol=1e-6)
    assert len(sweeps) == rep.iterations > 3
    assert sweeps == ([(1, 0, True), (1, 1, True)]
                      + [(0, 0, True)] * (rep.iterations - 2))


# --- the first-sweep memo ---------------------------------------------------------


def altproj_run(u0, reg, tol, max_iter, memo=None):
    """``(report, memo)`` of the kernel; the memo is None where it raised."""
    try:
        return _alternating_projection(u0, reg, tol, max_iter, memo)
    except ProjectionFailure as exc:
        return exc.report, None


@settings(max_examples=300, deadline=None)
@given(altproj_cases(), st.integers(0, 2**32 - 1),
       st.sampled_from(["other basis", "svd mark", "inside, no basis", "gram",
                        "none"]))
@example(wide_equal_bounds_case(), 0, "other basis")
def test_altproj_memo_keeps_the_bits_of_the_memo_free_run(case, seed, incoming):
    # The memo only picks which proof the first sweep tries first. A basis
    # from another matrix of the same shape still bounds ||u||_*, and a
    # failed bound falls through to the plain step. After the SVD mark the
    # first sweep reads eigvalsh first; it decides as eigh would wherever
    # the two brackets agree, which the eigenvalues of eigh and eigvalsh
    # fail to do only where the radius sits within their last bits of a
    # bracket end or of the guard.
    u0, reg, tol, max_iter = case
    radius = reg.nuclear_radius
    other = np.random.default_rng(seed).normal(size=u0.shape)
    other_basis = _ball_step(other, radius)[1]
    memo = {"other basis": (INSIDE, other_basis), "svd mark": (SVD, other_basis),
            "inside, no basis": (INSIDE, None), "gram": (GRAM, other_basis),
            "none": None}[incoming]
    want, want_memo = altproj_run(u0, reg, tol, max_iter)
    got, got_memo = altproj_run(u0, reg, tol, max_iter, memo)
    if incoming == "svd mark" and (gram_decision(u0, radius, False)
                                   != gram_decision(u0, radius, True)):
        event("eigh and eigvalsh decide apart")
        return
    assert same_bits(got.result, want.result)
    assert got.iterations == want.iterations
    assert same_bits(np.float64(got.final_gap), np.float64(want.final_gap))
    assert (got_memo is None) == (want_memo is None)
    if got_memo is not None:
        path, basis = got_memo
        assert path in (INSIDE, GRAM, SVD)
        assert basis is not None or path == INSIDE
        event(f"outgoing {path}")


def test_altproj_proves_an_inside_start_from_the_carried_basis(monkeypatch):
    # A box point inside the ball: the previous call's basis proves it, so
    # no decomposition runs, and the basis is carried on.
    reg = region(d1=3, d2=4, alpha=3.0, beta=1.0, r=1)
    u0 = np.full((3, 4), 2.0)
    u0[0, 0] = 2.5
    basis = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))[0]
    want, _ = _alternating_projection(u0, reg, 1e-6, 50)
    counts = count_decompositions(monkeypatch)
    rep, memo = _alternating_projection(u0, reg, 1e-6, 50, (INSIDE, basis))
    assert counts == {"eigh": 0, "eigvalsh": 0, "full": 0, "values": 0}
    assert rep.iterations == 1 and rep.final_gap == 0.0
    assert same_bits(rep.result, want.result) and np.array_equal(rep.result, u0)
    assert memo[0] == INSIDE and memo[1] is basis


def sigma_over_guard_case():
    """A 3x5 start just outside a rank-1 region's ball: the bracket proves
    it outside, but sigma_1 / theta is past the guard, so the SVD formula
    shrinks it."""
    x, nuclear = unit_3x5()
    reg = region(d1=3, d2=5, alpha=1.0, beta=0.5, r=1)
    return x * (reg.nuclear_radius / ((1.0 - 1e-7) * nuclear)), reg


@pytest.mark.parametrize("tall", [False, True])
def test_altproj_after_an_svd_fallback_reads_eigvalsh_first(monkeypatch, tall):
    # The plain first sweep pays an eigh, throws it away and runs the SVD;
    # after the SVD mark it reads eigvalsh, then the SVD, with the same bits.
    u0, reg = sigma_over_guard_case()
    if tall:
        u0, reg = u0.T.copy(), region(d1=5, d2=3, alpha=1.0, beta=0.5, r=1)
    counts = count_decompositions(monkeypatch)
    want, want_memo = _alternating_projection(u0, reg, 1e300, 1)
    assert counts == {"eigh": 1, "eigvalsh": 0, "full": 1, "values": 0}
    assert want_memo[0] == SVD
    counts.update(eigh=0, full=0)
    got, memo = _alternating_projection(u0, reg, 1e300, 1, want_memo)
    assert counts == {"eigh": 0, "eigvalsh": 1, "full": 1, "values": 0}
    assert same_bits(got.result, want.result)
    assert got.final_gap == want.final_gap
    assert memo[0] == SVD


def test_altproj_second_sweep_without_a_basis_runs_its_ball_step(monkeypatch):
    # After the SVD mark an inside start is proved from eigvalsh alone, so
    # the second sweep has no basis to bound with: it goes straight to its
    # own eigenvalues-only ball step.
    reg = region(d1=2, d2=2, alpha=1.0, beta=0.9, r=1)
    u0 = np.diag([1.0, -0.5])
    want = alternating_projection(u0, reg)
    counts = count_decompositions(monkeypatch)
    rep, memo = _alternating_projection(u0, reg, 1e-6, 500, (SVD, None))
    assert counts == {"eigh": 0, "eigvalsh": 2, "full": 0, "values": 0}
    assert memo == (INSIDE, None)
    assert rep.iterations == want.iterations == 2
    assert same_bits(rep.result, want.result) and rep.final_gap == want.final_gap
