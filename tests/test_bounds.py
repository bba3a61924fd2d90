import math

import numpy as np
import pytest

from poismc import (
    BoundConstants,
    FeasibleRegion,
    bound_gap,
    lower_bound,
    poisson_tail_threshold,
    tail_bound,
    upper_bound,
)
from poismc.errors import InvalidRegime, NonPositiveParameter


def region(d1=64, d2=64, alpha=9.0, beta=1.0, r=4):
    return FeasibleRegion(d1=d1, d2=d2, alpha=alpha, beta=beta, r=r)


# Independent scalar re-implementations, written term by term.


def upper_oracle(d1, d2, alpha, beta, r, m, c_prime):
    t = (alpha - beta) * (alpha - beta) / (8.0 * beta)
    if t == 0.0:
        curv = 8.0 * alpha
    else:
        curv = (8.0 * alpha * t) / (1.0 - math.exp(-t))
    log_term = alpha * (math.exp(2.0) - 2.0) + 3.0 * math.log(d1) + 3.0 * math.log(d2)
    head = c_prime * curv * alpha * math.sqrt(r) / beta * log_term
    ratio = (d1 + d2) / m
    if m >= (d1 + d2) * (math.log(d1) + math.log(d2)):
        return math.sqrt(2.0) * head * math.sqrt(ratio)
    return head * math.sqrt(ratio) * math.sqrt(
        1.0 + (d1 + d2) * (math.log(d1) + math.log(d2)) / m
    )


def lower_oracle(alpha, r, d1, d2, m, c1, c2):
    scaled = c2 * math.sqrt(alpha) * alpha * math.sqrt(r * max(d1, d2)) / math.sqrt(m)
    return min(c1, scaled)


# --- upper bound -----------------------------------------------------------------


def test_upper_decreases_in_m():
    reg = region()
    prev = math.inf
    for m in (100.0, 300.0, 1000.0, 3000.0, 10000.0):
        val = upper_bound(reg, m).value
        assert val < prev
        prev = val


def test_upper_increases_in_r():
    prev = 0.0
    for r in (1, 2, 4, 8, 16):
        val = upper_bound(region(r=r), 2000.0).value
        assert val > prev
        prev = val


def test_upper_increases_in_alpha():
    prev = 0.0
    for alpha in (2.0, 4.0, 9.0, 20.0):
        val = upper_bound(region(alpha=alpha), 2000.0).value
        assert val > prev
        prev = val


def test_upper_frozen_value_at_regime_boundary():
    # d1=d2=64, r=4, alpha=9, beta=1, m=(d1+d2)*log(d1*d2): both regimes
    # agree; value cross-checked at 50-digit precision.
    reg = region()
    m = 128 * math.log(64 * 64)
    rep = upper_bound(reg, m)
    assert rep.valid
    assert rep.regime == "simplified"
    assert rep.value == pytest.approx(448365158.26040652, rel=1e-9)
    general = upper_bound(reg, m * (1 - 1e-12))
    assert general.regime == "general"
    assert general.value == pytest.approx(rep.value, rel=1e-9)


def test_upper_matches_oracle_on_grid():
    k = BoundConstants()
    worst = 0.0
    for d1, d2 in ((16, 16), (64, 32), (128, 256)):
        for r in (1, 3, 8):
            for alpha, beta in ((9.0, 1.0), (4.0, 4.0), (2.0, 0.5)):
                if r > min(d1, d2):
                    continue
                for m in (50.0, (d1 + d2) * math.log(d1 * d2), 1e6):
                    reg = FeasibleRegion(d1=d1, d2=d2, alpha=alpha, beta=beta, r=r)
                    got = upper_bound(reg, m).value
                    want = upper_oracle(d1, d2, alpha, beta, r, m, k.c_prime)
                    worst = max(worst, abs(got - want) / want)
    assert worst < 1e-9


def test_constants_must_be_positive_at_construction():
    for name in ("c_prime", "c1", "c2", "c0"):
        with pytest.raises(ValueError):
            BoundConstants(**{name: 0.0})


def test_upper_invalid_inputs_flagged():
    rep = upper_bound(region(), -5.0)
    assert not rep.valid
    assert "m must be" in rep.reason
    assert math.isnan(rep.value)


def test_simplified_regime_formula():
    # In the large-m regime the value equals sqrt(2) * prefactor * sqrt((d1+d2)/m).
    reg = region()
    m = 5e5
    rep = upper_bound(reg, m)
    assert rep.regime == "simplified"
    boundary = upper_bound(reg, 128 * math.log(4096))
    scale = math.sqrt((128 / m) / (128 / (128 * math.log(4096))))
    assert rep.value == pytest.approx(boundary.value * scale, rel=1e-12)


# --- lower bound ------------------------------------------------------------------


def test_lower_frozen_value():
    reg = FeasibleRegion(d1=256, d2=256, alpha=4.0, beta=1.0, r=4)
    rep = lower_bound(reg, 5000.0)
    assert rep.value == pytest.approx(8.838834764831844e-4, rel=1e-12)
    assert rep.regime == "scaled"
    # the scaled branch loses to the applicability floor here
    assert not rep.valid
    assert "does not exceed" in rep.reason


def test_lower_rank_gate():
    rep = lower_bound(region(r=3), 5000.0)
    assert not rep.valid
    assert "r >= 4" in rep.reason


def test_lower_alpha_beta_gate():
    rep = lower_bound(region(alpha=9.0, beta=5.0), 5000.0)
    assert not rep.valid
    assert "2*beta" in rep.reason


def test_lower_alpha_floor_gate():
    rep = lower_bound(region(d1=8, d2=8, alpha=0.5, beta=0.25, r=4), 50.0)
    assert not rep.valid
    assert "alpha >= 1" in rep.reason


def test_lower_c0_gate():
    reg = FeasibleRegion(d1=4, d2=4, alpha=1.0, beta=0.5, r=4)
    rep = lower_bound(reg, 10.0)
    assert not rep.valid
    assert "c0" in rep.reason


def test_lower_applicability_gate_fires_for_huge_m():
    reg = FeasibleRegion(d1=2048, d2=2048, alpha=1.0, beta=0.5, r=4)
    assert lower_bound(reg, 100.0).valid
    big = lower_bound(reg, 1e9)
    assert not big.valid
    assert "does not exceed" in big.reason


def test_lower_value_independent_of_beta():
    m = 777.0
    vals = {
        lower_bound(region(alpha=8.0, beta=b), m).value for b in (0.5, 1.0, 3.0)
    }
    assert len(vals) == 1


def test_lower_matches_oracle_on_grid():
    k = BoundConstants()
    for d1, d2 in ((64, 256), (512, 512), (2048, 128)):
        for r in (4, 8):
            for alpha in (1.0, 4.0, 16.0):
                for m in (10.0, 1e4, 1e7):
                    reg = FeasibleRegion(
                        d1=d1, d2=d2, alpha=alpha, beta=alpha / 2.0, r=r
                    )
                    got = lower_bound(reg, m).value
                    want = lower_oracle(alpha, r, d1, d2, m, k.c1, k.c2)
                    assert got == pytest.approx(want, rel=1e-12)


# --- gap -----------------------------------------------------------------------------


def valid_gap_region():
    return FeasibleRegion(d1=2048, d2=2048, alpha=1.0, beta=0.5, r=4)


def test_gap_at_least_one_on_valid_configuration():
    assert bound_gap(valid_gap_region(), 100.0) >= 1.0


def test_gap_doubles_with_c_prime():
    reg = valid_gap_region()
    k = BoundConstants()
    k2 = BoundConstants(c_prime=2 * k.c_prime, c1=k.c1, c2=k.c2, c0=k.c0)
    assert bound_gap(reg, 100.0, k2) == pytest.approx(
        2 * bound_gap(reg, 100.0, k), rel=1e-12
    )


def test_gap_requires_validity_by_default():
    reg = FeasibleRegion(d1=64, d2=64, alpha=9.0, beta=1.0, r=3)
    with pytest.raises(InvalidRegime):
        bound_gap(reg, 5000.0)


def test_gap_scaling_probe_grows_like_log():
    # At m = r*(d1+d2)*log^2(d1*d2) the ratio tracks log(d1*d2); compare
    # d=2048 against d=256 (validity gates skipped for the diagnostic).
    def gap_at(d):
        reg = FeasibleRegion(d1=d, d2=d, alpha=1.0, beta=0.5, r=4)
        m = 4 * (2 * d) * math.log(d * d) ** 2
        return bound_gap(reg, m, require_valid=False)

    ratio = gap_at(2048) / gap_at(256)
    log_ratio = math.log(2048 * 2048) / math.log(256 * 256)
    assert 0.5 * log_ratio <= ratio <= 2.0 * log_ratio


# --- tail bound -----------------------------------------------------------------------


def test_tail_threshold_values():
    assert poisson_tail_threshold(1.0) == pytest.approx(4.389056098930650, rel=1e-12)
    assert poisson_tail_threshold(2.0) == pytest.approx(8.778112197861300, rel=1e-12)
    with pytest.raises(NonPositiveParameter):
        poisson_tail_threshold(0.0)


def test_tail_bound_is_exponential():
    assert tail_bound(0.0) == 1.0
    assert tail_bound(4.0) == pytest.approx(math.exp(-4.0), rel=1e-15)


def test_tail_bound_monte_carlo_at_threshold():
    rng = np.random.default_rng(123)
    lam = 3.0
    t0 = poisson_tail_threshold(lam)
    draws = rng.poisson(lam, size=10**6)
    emp = np.mean(draws - lam >= t0)
    bound = tail_bound(t0)
    se = math.sqrt(bound * (1 - bound) / 10**6)
    assert emp <= bound + 3 * se
