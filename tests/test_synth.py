import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poismc import (
    FeasibleRegion,
    SolverConfig,
    SynthesisSpec,
    make_low_rank,
    membership,
    mse_per_entry,
    nuclear_norm,
    poisson_tail_check,
    run_trial,
    sample_mask,
    sample_poisson,
    sweep_m,
    verify_lemmas,
)
from poismc.errors import BadBounds, BadM, NonPositiveIntensity, RankInfeasible
from poismc.synth import (
    COUNT_RATE_MAX,
    POISSON_RATE_MAX,
    SWEEP_CSV_HEADER,
    derive_seed,
)


def spec(d1=10, d2=8, r=3, alpha=9.0, beta=1.0, m=40.0, seed=7):
    reg = FeasibleRegion(d1=d1, d2=d2, alpha=alpha, beta=beta, r=r)
    return SynthesisSpec(region=reg, mask_m=m, seed=seed)


# --- ground truth -----------------------------------------------------------------


def test_constant_truth_when_bounds_coincide():
    s = spec(alpha=2.0, beta=2.0, r=1)
    truth = make_low_rank(s)
    assert np.all(truth == 2.0)
    assert np.linalg.matrix_rank(truth) == 1


def test_truth_numerical_rank_within_budget():
    s = spec(r=3)
    truth = make_low_rank(s)
    svals = np.linalg.svd(truth, compute_uv=False)
    assert np.all(svals[3:] < 1e-10 * svals[0])


def test_truth_entries_exactly_in_box():
    s = spec()
    truth = make_low_rank(s)
    assert truth.min() >= 1.0
    assert truth.max() <= 9.0
    # the rescale touches both box faces
    assert truth.min() == pytest.approx(1.0)
    assert truth.max() == pytest.approx(9.0)


def test_truth_membership_in_both_sets():
    for seed in range(5):
        s = spec(seed=seed)
        rep = membership(make_low_rank(s), s.region, tol=1e-9)
        assert rep.in_box and rep.in_nuclear_ball


@st.composite
def truth_specs(draw):
    """A spec with r in [2, min(d1, d2)] and alpha / beta from 1 to 1e6."""
    d1, d2 = draw(st.integers(2, 40)), draw(st.integers(2, 40))
    r = draw(st.integers(2, min(d1, d2)))
    beta = draw(st.floats(1e-3, 1e3))
    alpha = beta * draw(st.floats(1.0, 1e6))
    return spec(d1=d1, d2=d2, r=r, alpha=alpha, beta=beta, m=1.0,
                seed=draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=200, deadline=None)
@given(truth_specs())
def test_truth_nuclear_norm_within_the_derived_bound(s):
    # make_low_rank derives ||M||_* <= alpha * sqrt(d1*d2) * (1 + sqrt(r)) / 2,
    # at most 0.854 of the radius, for rank <= r and entries in [0, alpha].
    truth = make_low_rank(s)
    reg = s.region
    bound = reg.alpha * math.sqrt(reg.d1 * reg.d2) * (1.0 + math.sqrt(reg.r)) / 2.0
    assert bound <= 0.854 * reg.nuclear_radius
    assert np.linalg.svd(truth, compute_uv=False).sum() <= bound * (1.0 + 1e-12)


def test_truth_rank_infeasible():
    with pytest.raises(RankInfeasible):
        make_low_rank(spec(r=1))


def test_truth_deterministic_per_seed():
    assert np.array_equal(make_low_rank(spec(seed=3)), make_low_rank(spec(seed=3)))
    assert not np.array_equal(make_low_rank(spec(seed=3)), make_low_rank(spec(seed=4)))


# --- mask -------------------------------------------------------------------------


def test_mask_full_when_m_equals_cells():
    mask = sample_mask(6, 5, 30, seed=0)
    assert mask.all()


def test_spec_rejects_bad_m_at_construction():
    with pytest.raises(BadM):
        spec(m=0)
    with pytest.raises(BadM, match=r"^mask_m must be in \(0, 80\], got 81$"):
        spec(d1=10, d2=8, m=81)


def test_mask_rejects_bad_m():
    with pytest.raises(BadM):
        sample_mask(6, 5, 0, seed=0)
    with pytest.raises(BadM, match=r"^m must be in \(0, 30\], got 31$"):
        sample_mask(6, 5, 31, seed=0)


def test_mask_binomial_statistics():
    d = 100
    m = 5000.0
    one = int(sample_mask(d, d, m, seed=1).sum())
    assert abs(one - 5000) <= 4 * math.sqrt(2500)
    counts = [int(sample_mask(d, d, m, seed=s).sum()) for s in range(200)]
    assert abs(np.mean(counts) - 5000) < 0.01 * 5000


def test_mask_deterministic():
    assert np.array_equal(sample_mask(9, 9, 30, seed=5), sample_mask(9, 9, 30, seed=5))


# --- counts ------------------------------------------------------------------------


def test_counts_tiny_intensity_mostly_zero():
    truth = np.full((50, 50), 1e-12)
    mask = np.ones((50, 50), dtype=bool)
    obs = sample_poisson(truth, mask, seed=2)
    assert obs.counts.sum() == 0


def test_counts_moment_matching():
    truth = np.full((500, 200), 4.0)
    mask = np.ones_like(truth, dtype=bool)
    obs = sample_poisson(truth, mask, seed=3)
    assert abs(obs.counts.mean() - 4.0) < 0.03
    assert abs(obs.counts.var() - 4.0) < 0.1


def test_counts_deterministic_and_positive_rates_required():
    truth = np.full((4, 4), 2.0)
    mask = np.ones((4, 4), dtype=bool)
    a = sample_poisson(truth, mask, seed=4)
    b = sample_poisson(truth, mask, seed=4)
    assert np.array_equal(a.counts, b.counts)
    with pytest.raises(NonPositiveIntensity):
        sample_poisson(np.zeros((2, 2)), np.ones((2, 2), bool), seed=0)


def test_streams_are_independent():
    # same seed, different purposes: mask and counts must not be coupled
    truth = np.full((20, 20), 3.0)
    m1 = sample_mask(20, 20, 200, seed=11)
    obs = sample_poisson(truth, np.ones((20, 20), bool), seed=11)
    # deterministic pair, but jointly reproducible
    assert np.array_equal(m1, sample_mask(20, 20, 200, seed=11))
    assert np.array_equal(obs.counts, sample_poisson(truth, np.ones((20, 20), bool), seed=11).counts)


# --- trials ------------------------------------------------------------------------


def test_trial_full_observation_constant_truth_recovers():
    reg = FeasibleRegion(d1=2, d2=2, alpha=2.0, beta=2.0, r=1)
    s = SynthesisSpec(region=reg, mask_m=4.0, seed=1)
    cfg = SolverConfig(algorithm="pg", max_iter=200)
    res = run_trial(make_low_rank(s), reg, 4.0, 1, cfg)
    assert res.mse < 1e-2
    assert len(res.observations) == 4


def test_trial_deterministic():
    cfg = SolverConfig(algorithm="pg", max_iter=30)
    s = spec()
    a = run_trial(make_low_rank(s), s.region, s.mask_m, s.seed, cfg)
    b = run_trial(make_low_rank(s), s.region, s.mask_m, s.seed, cfg)
    assert a.mse == b.mse
    assert len(a.observations) == len(b.observations)
    assert np.array_equal(a.report.estimate, b.report.estimate)


def test_trial_beats_baseline_on_suite():
    cfg = SolverConfig(algorithm="pg", max_iter=120)
    wins = 0
    for seed in range(10):
        s = spec(d1=10, d2=8, r=2, alpha=20.0, beta=1.0, m=0.8 * 80, seed=seed)
        truth = make_low_rank(s)
        res = run_trial(truth, s.region, s.mask_m, s.seed, cfg)
        baseline = np.full((10, 8), (20.0 + 1.0) / 2.0)
        assert res.baseline_mse == mse_per_entry(truth, baseline)
        if res.mse <= res.baseline_mse:
            wins += 1
    assert wins >= 8


def test_trial_solves_over_its_own_region_not_the_truths():
    # A rank-2 truth solved by pg over the r=1 ball, 1/sqrt(2) of the
    # radius of the truth's r=2 ball: the draws are the same, and only the
    # solve over the smaller ball ends inside it (pmlsv does not use the ball).
    made = FeasibleRegion(d1=20, d2=16, alpha=3.0, beta=0.5, r=2)
    small = FeasibleRegion(d1=20, d2=16, alpha=3.0, beta=0.5, r=1)
    truth = make_low_rank(SynthesisSpec(region=made, mask_m=320.0, seed=0))
    cfg = SolverConfig(algorithm="pg", max_iter=50)
    inside = run_trial(truth, small, 320.0, 0, cfg)
    outside = run_trial(truth, made, 320.0, 0, cfg)
    assert np.array_equal(inside.observations.counts, outside.observations.counts)
    assert nuclear_norm(outside.report.estimate) > small.nuclear_radius
    # The projection leaves its point within proj_tol (Frobenius) of the
    # ball, so within sqrt(min(d1, d2)) * proj_tol of it in nuclear norm.
    tol = math.sqrt(16) * cfg.proj_tol
    assert membership(inside.report.estimate, small, tol=tol).in_nuclear_ball
    assert inside.mse < outside.mse


# --- sweep ---------------------------------------------------------------------------


def test_sweep_monotone_and_csv(tmp_path):
    s = spec(d1=12, d2=10, r=2, alpha=20.0, beta=1.0, seed=0)
    cfg = SolverConfig(algorithm="pg", max_iter=100)
    cells = 120
    path = tmp_path / "sweep.csv"
    rows = sweep_m(s, [0.3 * cells, 0.5 * cells, 0.8 * cells], 10, cfg, csv_path=path)
    means = [r["mean_mse"] for r in rows]
    assert means[0] > means[1] > means[2]
    with open(path) as fh:
        content = list(csv.reader(fh))
    assert ",".join(content[0]) == SWEEP_CSV_HEADER
    assert len(content) == 4
    # log-log regression slope of mse against m is negative
    slope = np.polyfit(np.log([r["m"] for r in rows]), np.log(means), 1)[0]
    assert slope < 0


def test_sweep_single_m_std_nonnegative():
    s = spec(d1=6, d2=6, r=2, m=18.0)
    rows = sweep_m(s, [18.0], 3, SolverConfig(algorithm="pg", max_iter=20))
    assert rows[0]["std_mse"] >= 0.0


def test_sweep_rejects_nonincreasing_m():
    s = spec()
    with pytest.raises(BadM):
        sweep_m(s, [30.0, 30.0], 2, SolverConfig(algorithm="pg", max_iter=5))


def test_sweep_trial_seeds_stable_under_extension():
    assert derive_seed(7, 3, 0, 1) == derive_seed(7, 3, 0, 1)
    seeds_small = [derive_seed(7, 3, 0, t) for t in range(3)]
    seeds_large = [derive_seed(7, 3, 0, t) for t in range(6)]
    assert seeds_small == seeds_large[:3]


# --- inequality spot-checks -------------------------------------------------------------


def test_verify_lemmas_zero_deterministic_violations():
    reg = FeasibleRegion(d1=8, d2=8, alpha=9.0, beta=1.0, r=2)
    report = verify_lemmas(reg, samples=10**4, seed=0)
    assert report["kl_quadratic"]["violations"] == 0
    assert report["kl_quadratic"]["samples"] == 10**4
    assert report["hellinger_mse_floor"]["violations"] == 0
    assert report["hellinger_mse_floor"]["samples"] == 10**3
    assert report["poisson_tail"]["ok"]
    assert report["poisson_tail"]["draws"] == 10**6


def test_verify_lemmas_tiny_budget():
    reg = FeasibleRegion(d1=4, d2=4, alpha=3.0, beta=1.0, r=2)
    report = verify_lemmas(reg, samples=1, seed=1)
    assert report["kl_quadratic"]["violations"] == 0
    assert report["hellinger_mse_floor"]["violations"] == 0


def test_poisson_tail_check_fields():
    out = poisson_tail_check(3.0, 13.2, draws=10**5, seed=5)
    assert set(out) == {"lam", "t", "draws", "events", "empirical", "bound", "ok"}
    assert out["ok"]


def test_rates_numpy_cannot_draw_raise_bad_bounds_before_any_draw():
    # numpy's Generator.poisson draws at POISSON_RATE_MAX and refuses the
    # next double up, and inf, with "lam value too large".
    rng = np.random.default_rng(0)
    rng.poisson(POISSON_RATE_MAX)
    with pytest.raises(ValueError, match="lam value too large"):
        rng.poisson(np.nextafter(POISSON_RATE_MAX, np.inf))
    assert poisson_tail_check(POISSON_RATE_MAX, 1.0, draws=1, seed=0)["draws"] == 1
    mask = np.ones((1, 2), dtype=bool)
    for rate in (np.nextafter(POISSON_RATE_MAX, np.inf), np.inf):
        with pytest.raises(BadBounds, match=r"^alpha must be <= 9\.223372006484771e\+18 "):
            poisson_tail_check(rate, 1.0, draws=1, seed=0)
    # sample_poisson stops lower, at COUNT_RATE_MAX, so every count fits.
    for rate in (np.nextafter(COUNT_RATE_MAX, np.inf), POISSON_RATE_MAX, np.inf):
        with pytest.raises(BadBounds, match=r"^alpha must be <= 4503599627370496\.0 "):
            sample_poisson(np.array([[1.0, rate]]), mask, seed=0)
    # A rate off the mask is never drawn, so it is not checked.
    obs = sample_poisson(np.array([[1.0, np.inf]]), np.array([[True, False]]), seed=0)
    assert len(obs) == 1


def test_counts_drawn_at_the_count_rate_cap_fit_an_observation_set():
    # 2**53 is about 6.7e7 standard deviations above a rate of 2**52.
    assert COUNT_RATE_MAX == 2.0**52
    obs = sample_poisson(np.full((4, 8), COUNT_RATE_MAX), np.ones((4, 8), bool), seed=3)
    assert len(obs) == 32 and obs.counts.max() < 2**53
