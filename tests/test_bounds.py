import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poismc import (
    BoundConstants,
    FeasibleRegion,
    lower_bound,
    poisson_tail_threshold,
    tail_bound,
    upper_bound,
)
from poismc.errors import NonPositiveParameter


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


def test_more_samples_than_cells_fail_both_bounds_and_keep_the_value():
    reg = region()
    assert upper_bound(reg, 4096.0).valid
    assert "m <= d1*d2" not in lower_bound(reg, 4096.0).reason
    reason = "requires m <= d1*d2=4096, got m=4097.0"
    up, low = upper_bound(reg, 4097.0), lower_bound(reg, 4097.0)
    assert not up.valid and up.reason == reason
    assert up.value == pytest.approx(upper_oracle(64, 64, 9.0, 1.0, 4, 4097.0,
                                                  BoundConstants().c_prime), rel=1e-12)
    assert not low.valid and low.reason.endswith("; " + reason)
    assert low.value == pytest.approx(
        lower_oracle(9.0, 4, 64, 64, 4097.0, 1 / 256, 1 / 4096), rel=1e-12)


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


def gap(reg, m, constants=BoundConstants()):
    """The ratio ``poismc bounds`` reports, taken whether or not both bounds hold."""
    return upper_bound(reg, m, constants).value / lower_bound(reg, m, constants).value


def test_gap_at_least_one_on_valid_configuration():
    reg = valid_gap_region()
    assert upper_bound(reg, 100.0).valid and lower_bound(reg, 100.0).valid
    assert gap(reg, 100.0) >= 1.0


def test_gap_doubles_with_c_prime():
    reg = valid_gap_region()
    k = BoundConstants()
    k2 = BoundConstants(c_prime=2 * k.c_prime, c1=k.c1, c2=k.c2, c0=k.c0)
    assert gap(reg, 100.0, k2) == pytest.approx(2 * gap(reg, 100.0, k), rel=1e-12)


def test_gap_scaling_probe_grows_like_log():
    # At m = r*(d1+d2)*log^2(d1*d2) the ratio tracks log(d1*d2); compare
    # d=2048 against d=256 (a diagnostic: the lower bound's floor fails).
    def gap_at(d):
        reg = FeasibleRegion(d1=d, d2=d, alpha=1.0, beta=0.5, r=4)
        return gap(reg, 4 * (2 * d) * math.log(d * d) ** 2)

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


# --- no NaN for a finite m > 0 ------------------------------------------------------

POSITIVE = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)


@st.composite
def bound_cases(draw):
    d1, d2 = draw(st.integers(1, 2**62)), draw(st.integers(1, 2**62))
    alpha = draw(POSITIVE)
    beta = draw(st.floats(min_value=5e-324, max_value=alpha))
    r = draw(st.integers(1, min(d1, d2)))
    constants = BoundConstants(*(draw(POSITIVE) for _ in range(4)))
    return FeasibleRegion(d1=d1, d2=d2, alpha=alpha, beta=beta, r=r), draw(POSITIVE), constants


@settings(max_examples=500, deadline=None)
@given(bound_cases())
def test_bounds_are_finite_or_inf_for_every_region_and_finite_m(case):
    reg, m, constants = case
    for bound in (upper_bound, lower_bound):
        for k in (BoundConstants(), constants):
            value = bound(reg, m, k).value
            assert value >= 0.0 and not math.isnan(value), (bound.__name__, value)


E_SQ = Decimal(math.e) ** 2


@pytest.mark.parametrize("bound, reg, m, k, want", [
    # alpha**1.5 underflows to 0 and sqrt(r * max(d1, d2) / m) overflows.
    (lower_bound, region(d1=4514, d2=312506, alpha=7.06e-284, beta=1e-300, r=3081),
     1e-300, BoundConstants(),
     lambda: Decimal(1) / 4096 * Decimal(7.06e-284) ** Decimal(1.5)
     * (Decimal(3081 * 312506) / Decimal(1e-300)).sqrt()),
    # The prefactor underflows to 0 and both roots of the general form
    # overflow. At alpha == beta the curvature is 8*alpha.
    (upper_bound, region(d1=2, d2=2, alpha=5e-324, beta=5e-324, r=1),
     5e-324, BoundConstants(c_prime=1e-10),
     lambda: Decimal(1e-10) * 8 * Decimal(5e-324)
     * (Decimal(5e-324) * (E_SQ - 2) + 3 * Decimal(4).ln())
     * (4 / Decimal(5e-324)).sqrt() * (1 + 4 * Decimal(4).ln() / Decimal(5e-324)).sqrt()),
], ids=["lower", "upper-general"])
def test_a_product_of_an_underflow_and_an_overflow_is_taken_from_logs(
        bound, reg, m, k, want):
    with localcontext() as ctx:
        ctx.prec = 50
        expected = float(want())
    rep = bound(reg, m, k)
    assert rep.value == pytest.approx(expected, rel=1e-12)


def test_an_underflowed_upper_bound_is_zero_not_nan():
    # The prefactor underflows to 0 and sqrt((d1 + d2) / m) overflows; the
    # true value, about 4.6e-434, rounds to 0. The bound is valid.
    rep = upper_bound(region(d1=1, d2=1, alpha=1e-300, beta=1e-300, r=1), 5e-324)
    assert rep.valid and rep.value == 0.0 and rep.to_json_dict()["value"] == 0.0


def test_an_upper_bound_past_the_float_range_is_inf_not_nan():
    # (alpha - beta)**2 and 8*beta both overflow, so their ratio was NaN.
    rep = upper_bound(region(d1=4, d2=4, alpha=1.7e308, beta=1e308, r=4), 5.0)
    assert rep.valid and rep.value == math.inf


def test_constants_must_be_finite_at_construction():
    for name in ("c_prime", "c1", "c2", "c0"):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got inf$"):
            BoundConstants(**{name: math.inf})
        with pytest.raises(ValueError, match=f"^{name} must be > 0$"):
            BoundConstants(**{name: -math.inf})
