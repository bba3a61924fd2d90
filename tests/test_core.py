import numpy as np
import pytest

from poismc import (
    FeasibleRegion,
    ObservationSet,
    membership,
    mse_per_entry,
    nuclear_norm,
    validate_region,
)
from poismc.errors import (
    BadBounds,
    BadObservations,
    BadRank,
    BadShape,
    ShapeMismatch,
    SvdFailure,
)


def region(d1=4, d2=4, alpha=9.0, beta=1.0, r=2):
    return FeasibleRegion(d1=d1, d2=d2, alpha=alpha, beta=beta, r=r)


# --- validate_region ---------------------------------------------------------


def test_validate_accepts_boundary_beta_equals_alpha():
    validate_region(region(d1=2, d2=2, alpha=1.0, beta=1.0, r=1))


def test_validate_rejects_beta_above_alpha():
    with pytest.raises(BadBounds):
        validate_region(region(alpha=1.0, beta=2.0))


def test_validate_rejects_rank_above_min_dim():
    with pytest.raises(BadRank):
        validate_region(region(d1=3, d2=5, r=4))


def test_validate_rejects_bad_shapes_and_ranks():
    with pytest.raises(BadShape):
        validate_region(region(d1=0))
    with pytest.raises(BadShape):
        validate_region(FeasibleRegion(d1=2.5, d2=2, alpha=1, beta=1, r=1))
    with pytest.raises(BadRank):
        validate_region(region(r=0))
    with pytest.raises(BadBounds):
        validate_region(region(beta=0.0))
    with pytest.raises(BadBounds):
        validate_region(region(beta=-1.0))


def test_validate_matches_invariants_on_parameter_grid():
    # A region can be built from exactly the parameter sets satisfying the
    # documented invariants; construction runs validate_region.
    for d1 in (1, 2, 3):
        for d2 in (1, 3):
            for r in (0, 1, 2, 3, 4):
                for alpha, beta in ((1.0, 0.5), (1.0, 1.0), (0.5, 1.0), (1.0, 0.0)):
                    ok = (0 < beta <= alpha) and (1 <= r <= min(d1, d2))
                    if ok:
                        validate_region(
                            region(d1=d1, d2=d2, alpha=alpha, beta=beta, r=r)
                        )
                    else:
                        with pytest.raises((BadBounds, BadRank, BadShape)):
                            region(d1=d1, d2=d2, alpha=alpha, beta=beta, r=r)


def test_nuclear_radius():
    reg = region(d1=4, d2=3, alpha=9.0, beta=1.0, r=2)
    assert reg.nuclear_radius == pytest.approx(9.0 * np.sqrt(2 * 4 * 3))


# --- mse_per_entry -----------------------------------------------------------


def test_mse_identity_is_zero():
    a = np.arange(6.0).reshape(2, 3) + 1
    assert mse_per_entry(a, a) == 0.0


def test_mse_single_unit_deviation():
    a = np.ones((2, 2))
    b = np.array([[2.0, 1.0], [1.0, 1.0]])
    assert mse_per_entry(a, b) == pytest.approx(0.25)


def test_mse_matches_double_loop_oracle():
    rng = np.random.default_rng(7)
    a = rng.uniform(0, 5, (5, 5))
    b = rng.uniform(0, 5, (5, 5))
    acc = 0.0
    for i in range(5):
        for j in range(5):
            acc += (a[i, j] - b[i, j]) ** 2
    assert mse_per_entry(a, b) == pytest.approx(acc / 25.0, rel=1e-14)


def test_mse_symmetry_and_nonnegativity():
    rng = np.random.default_rng(8)
    for _ in range(20):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4))
        assert mse_per_entry(a, b) == mse_per_entry(b, a)
        assert mse_per_entry(a, b) >= 0.0
    assert mse_per_entry(a, a) == 0.0


def test_mse_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        mse_per_entry(np.ones((2, 2)), np.ones((2, 3)))


# --- membership --------------------------------------------------------------


def test_membership_interior_point():
    reg = region(d1=3, d2=3, alpha=9.0, beta=1.0, r=3)
    x = np.full((3, 3), (9.0 + 1.0) / 2.0)
    rep = membership(x, reg)
    assert rep.in_box and rep.in_nuclear_ball


def test_membership_entry_below_beta():
    reg = region(d1=2, d2=2, alpha=9.0, beta=1.0, r=2)
    x = np.full((2, 2), 2.0)
    x[0, 0] = reg.beta / 2.0
    assert not membership(x, reg).in_box


def test_membership_rank_one_just_above_radius():
    reg = region(d1=4, d2=4, alpha=2.0, beta=0.5, r=1)
    u = np.ones((4, 1)) / 2.0
    v = np.ones((4, 1)) / 2.0
    sigma = reg.nuclear_radius * 1.001
    x = sigma * (u @ v.T)  # nuclear norm of a rank-1 matrix is its sigma
    assert nuclear_norm(x) == pytest.approx(sigma, rel=1e-12)
    assert not membership(x, reg).in_nuclear_ball
    assert membership(sigma * 0.99 * (u @ v.T), reg).in_nuclear_ball


def test_nan_matrix_raises_svd_failure():
    reg = region(d1=3, d2=3)
    x = np.full((3, 3), np.nan)
    with pytest.raises(SvdFailure):
        nuclear_norm(x)
    with pytest.raises(SvdFailure):
        membership(x, reg)


def test_membership_monotone_in_tol():
    rng = np.random.default_rng(9)
    reg = region(d1=3, d2=3, alpha=2.0, beta=1.0, r=1)
    for _ in range(25):
        x = rng.uniform(0.5, 2.5, (3, 3))
        for t1, t2 in ((0.0, 0.1), (0.1, 1.0), (1.0, 10.0)):
            r1 = membership(x, reg, tol=t1)
            r2 = membership(x, reg, tol=t2)
            if r1.in_box:
                assert r2.in_box
            if r1.in_nuclear_ball:
                assert r2.in_nuclear_ball


# --- ObservationSet ----------------------------------------------------------


def test_observations_validate():
    ObservationSet(d1=2, d2=2, rows=[0, 1], cols=[1, 0], counts=[0, 3])
    with pytest.raises(BadObservations):
        ObservationSet(d1=2, d2=2, rows=[0, 0], cols=[1, 1], counts=[1, 2])
    with pytest.raises(BadObservations):
        ObservationSet(d1=2, d2=2, rows=[2], cols=[0], counts=[1])
    with pytest.raises(BadObservations):
        ObservationSet(d1=2, d2=2, rows=[0], cols=[0], counts=[-1])
    with pytest.raises(BadObservations):
        ObservationSet(d1=2, d2=2, rows=[0], cols=[0], counts=[1.5])
    # Past 2**63 a count would wrap negative as int64; from 2**53 on the
    # solvers' float cast of it is no longer exact (2**53 + 1 rounds down).
    for counts in ([np.inf, 2.0**63], [2.0**53 + 2, 1], [2**53, 0], [2**53 + 1, 0],
                   np.array([2**53 + 1, 0], dtype=np.int64)):
        with pytest.raises(BadObservations):
            ObservationSet(d1=1, d2=2, rows=[0, 0], cols=[0, 1], counts=counts)
    obs = ObservationSet(d1=1, d2=2, rows=[0, 0], cols=[0, 1],
                         counts=np.array([2**53 - 1, 0], dtype=np.int64))
    assert obs.counts.tolist() == [2**53 - 1, 0]


def test_observations_mask():
    obs = ObservationSet(d1=2, d2=3, rows=[0, 1], cols=[2, 0], counts=[5, 1])
    mask = obs.mask()
    assert mask.sum() == 2
    assert mask[0, 2] and mask[1, 0]
    assert len(obs) == 2
