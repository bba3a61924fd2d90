import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poismc import (
    FeasibleRegion,
    ObservationSet,
    gradient,
    hellinger_mse_floor,
    hellinger_sq,
    hellinger_sq_matrix,
    kl,
    lipschitz_constant,
    mse_per_entry,
    neg_log_likelihood,
)
from poismc.errors import (
    NonPositiveEntryAtObservation,
    NonPositiveParameter,
    ShapeMismatch,
)
from poismc.likelihood import _sampled_nll


def single_obs(y, d1=1, d2=1):
    return ObservationSet(d1=d1, d2=d2, rows=[0], cols=[0], counts=[y])


# --- objective ----------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60), st.integers(0, 2**32 - 1), st.sampled_from([1e-3, 1.0, 1e3]))
def test_sampled_nll_is_the_plain_formula_bit_for_bit(n, seed, scale):
    # The kernel works in place on one temporary; it must keep the bits of
    # the plain expression and leave its inputs alone, for the integer
    # counts neg_log_likelihood passes and the float ones of the solvers.
    rng = np.random.default_rng(seed)
    vals = scale * rng.uniform(0.01, 10.0, n)
    for counts in (rng.poisson(5.0 * scale, n), rng.poisson(5.0 * scale, n) * 1.0):
        before = vals.copy(), counts.copy()
        got = _sampled_nll(vals, counts)
        want = float(-np.sum(counts * np.log(vals) - vals))
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert np.array_equal(vals, before[0]) and np.array_equal(counts, before[1])


def test_nll_log_one():
    assert neg_log_likelihood(np.array([[1.0]]), single_obs(1)) == pytest.approx(1.0)


def test_nll_at_e():
    val = neg_log_likelihood(np.array([[math.e]]), single_obs(2))
    assert val == pytest.approx(math.e - 2.0, abs=1e-12)
    assert val == pytest.approx(0.71828, abs=1e-5)


def test_nll_empty_sample_set_is_zero():
    obs = ObservationSet(d1=2, d2=2, rows=[], cols=[], counts=[])
    assert neg_log_likelihood(np.ones((2, 2)), obs) == 0.0


def test_nll_depends_only_on_sampled_entries():
    obs = single_obs(3, d1=2, d2=2)
    x = np.array([[2.0, -5.0], [0.0, 100.0]])  # junk off the sample set
    assert neg_log_likelihood(x, obs) == pytest.approx(-(3 * math.log(2.0) - 2.0))


def test_nll_rejects_nonpositive_at_observation():
    with pytest.raises(NonPositiveEntryAtObservation):
        neg_log_likelihood(np.array([[0.0]]), single_obs(1))
    with pytest.raises(ShapeMismatch):
        neg_log_likelihood(np.ones((2, 2)), single_obs(1))


# --- gradient -------------------------------------------------------------------


def test_gradient_single_entry():
    g = gradient(np.array([[1.0, 1.0], [1.0, 1.0]]), single_obs(2, d1=2, d2=2))
    assert g[0, 0] == pytest.approx(-1.0)
    assert np.count_nonzero(g) == 1


@pytest.mark.parametrize("value", [0.0, -1.0])
def test_gradient_rejects_nonpositive_at_observation(value):
    with pytest.raises(NonPositiveEntryAtObservation):
        gradient(np.array([[value]]), single_obs(1))


def test_gradient_zero_at_matched_counts():
    obs = ObservationSet(d1=2, d2=2, rows=[0, 1], cols=[0, 1], counts=[3, 5])
    x = np.array([[3.0, 1.0], [1.0, 5.0]])
    assert np.allclose(gradient(x, obs), 0.0)


def finite_difference(x, obs, h=1e-5):
    g = np.zeros_like(x)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            xp = x.copy()
            xm = x.copy()
            xp[i, j] += h
            xm[i, j] -= h
            g[i, j] = (
                neg_log_likelihood(xp, obs) - neg_log_likelihood(xm, obs)
            ) / (2 * h)
    return g


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(42)
    x = rng.uniform(0.5, 9.0, (4, 4))
    mask = rng.random((4, 4)) < 0.7
    rows, cols = np.nonzero(mask)
    obs = ObservationSet(
        d1=4, d2=4, rows=rows, cols=cols, counts=rng.poisson(x[rows, cols])
    )
    g = gradient(x, obs)
    fd = finite_difference(x, obs)
    assert np.max(np.abs(g - fd)) < 1e-6


def test_gradient_lipschitz_on_random_box_pairs():
    rng = np.random.default_rng(3)
    reg = FeasibleRegion(d1=6, d2=5, alpha=9.0, beta=1.0, r=2)
    lip = lipschitz_constant(reg)
    mask = rng.random((6, 5)) < 0.6
    rows, cols = np.nonzero(mask)
    counts = rng.poisson(5.0, size=rows.size)
    obs = ObservationSet(d1=6, d2=5, rows=rows, cols=cols, counts=counts)
    for _ in range(50):
        x = rng.uniform(1.0, 9.0, (6, 5))
        z = rng.uniform(1.0, 9.0, (6, 5))
        lhs = np.linalg.norm(gradient(x, obs) - gradient(z, obs))
        assert lhs <= lip * np.linalg.norm(x - z) + 1e-12


# --- Lipschitz constant ----------------------------------------------------------


@pytest.mark.parametrize(
    "alpha,beta,expected", [(4.0, 2.0, 1.0), (1.0, 1.0, 1.0), (10.0, 0.5, 40.0)]
)
def test_lipschitz_values(alpha, beta, expected):
    reg = FeasibleRegion(d1=3, d2=3, alpha=alpha, beta=beta, r=1)
    assert lipschitz_constant(reg) == pytest.approx(expected)


# --- scalar divergences ------------------------------------------------------------


def test_kl_identity_and_value():
    assert kl(1.0, 1.0) == 0.0
    assert kl(2.0, 1.0) == pytest.approx(2 * math.log(2) - 1, abs=1e-12)
    assert kl(2.0, 1.0) == pytest.approx(0.386294, abs=1e-6)


def test_kl_rejects_nonpositive():
    with pytest.raises(NonPositiveParameter):
        kl(0.0, 1.0)
    with pytest.raises(NonPositiveParameter):
        hellinger_sq(1.0, -2.0)


def test_kl_quadratic_cap_on_grid():
    # D(x||y) <= (y-x)^2 / y over a wide positive grid.
    xs = np.linspace(0.5, 10.0, 20)
    for x in xs:
        for y in xs:
            assert kl(x, y) <= (y - x) ** 2 / y + 1e-12


def test_hellinger_values_and_symmetry():
    assert hellinger_sq(3.0, 3.0) == 0.0
    assert hellinger_sq(1.0, 4.0) == pytest.approx(2 - 2 * math.exp(-0.5), abs=1e-12)
    assert hellinger_sq(1.0, 4.0) == pytest.approx(0.786939, abs=1e-6)
    rng = np.random.default_rng(5)
    for _ in range(30):
        p, q = rng.uniform(0.1, 50.0, 2)
        assert hellinger_sq(p, q) == pytest.approx(hellinger_sq(q, p), rel=1e-13)
        assert 0.0 <= hellinger_sq(p, q) < 2.0


def test_kl_dominates_hellinger_on_grid():
    xs = np.linspace(0.1, 50.0, 40)
    for x in xs:
        for y in xs:
            assert kl(x, y) >= hellinger_sq(x, y) - 1e-12


# --- matrix divergences --------------------------------------------------------------


def test_matrix_divergences_identity_and_scalar_reduction():
    p = np.array([[2.0]])
    q = np.array([[3.0]])
    assert hellinger_sq_matrix(q, q) == 0.0
    assert hellinger_sq_matrix(p, q) == pytest.approx(hellinger_sq(2.0, 3.0))


def test_matrix_divergences_match_scalar_sum_oracle():
    rng = np.random.default_rng(11)
    p = rng.uniform(0.5, 9.0, (3, 3))
    q = rng.uniform(0.5, 9.0, (3, 3))
    acc_h = sum(hellinger_sq(p[i, j], q[i, j]) for i in range(3) for j in range(3))
    assert hellinger_sq_matrix(p, q) == pytest.approx(acc_h / 9.0, rel=1e-13)


# --- Hellinger/MSE floor ----------------------------------------------------------------


def test_floor_limit_alpha_equals_beta():
    reg = FeasibleRegion(d1=2, d2=2, alpha=1.0, beta=1.0, r=1)
    assert hellinger_mse_floor(reg) == pytest.approx(0.25)


def test_floor_value_frozen():
    reg = FeasibleRegion(d1=2, d2=2, alpha=9.0, beta=1.0, r=1)
    # (1 - e^-8) / 288, cross-checked at 50-digit precision
    assert hellinger_mse_floor(reg) == pytest.approx(
        0.0034710574214308940561, rel=1e-12
    )


def test_floor_of_a_box_too_large_to_square_is_zero():
    # (alpha - beta)**2 overflows: T reads inf, and the floor its limit 0.
    reg = FeasibleRegion(d1=2, d2=2, alpha=1e300, beta=1.0, r=1)
    assert hellinger_mse_floor(reg) == 0.0


def test_floor_inequality_monte_carlo():
    rng = np.random.default_rng(13)
    reg = FeasibleRegion(d1=6, d2=4, alpha=9.0, beta=1.0, r=2)
    c = hellinger_mse_floor(reg)
    for _ in range(200):
        m = rng.uniform(1.0, 9.0, (6, 4))
        mh = rng.uniform(1.0, 9.0, (6, 4))
        assert hellinger_sq_matrix(m, mh) >= c * mse_per_entry(m, mh) - 1e-14
