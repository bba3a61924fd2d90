"""Evaluators for the theoretical recovery-error bounds.

These turn the error guarantees into numbers for a given geometry and
expected sample count. The guarantees leave their absolute constants
abstract; the defaults below are the values the underlying arguments
actually support, and every one can be overridden.

The reported values bound the mean squared error per entry; the
probability qualifiers attached to each guarantee are carried as
metadata strings, not computed.
"""

import math
from dataclasses import dataclass, field

from .errors import InvalidRegime, NonPositiveParameter

E_SQ_MINUS_2 = math.e**2 - 2.0
E_SQ_MINUS_3 = math.e**2 - 3.0


def _default_c_prime():
    return 128.0 * (1.0 + math.sqrt(6.0)) * math.e


@dataclass(frozen=True)
class BoundConstants:
    """Absolute constants, each > 0; defaults are the proof-supported values."""

    c_prime: float = field(default_factory=_default_c_prime)
    c1: float = 1.0 / 256.0
    c2: float = 1.0 / 4096.0
    c0: float = 33.0

    def __post_init__(self):
        for name in ("c_prime", "c1", "c2", "c0"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0")

    def to_json_dict(self):
        return {
            "c_prime": self.c_prime,
            "c1": self.c1,
            "c2": self.c2,
            "c0": self.c0,
        }


@dataclass(frozen=True)
class BoundReport:
    """Evaluated bound with its regime and validity status.

    ``regime`` names which formula fired; when ``valid`` is False,
    ``reason`` lists every failed hypothesis and ``value`` is still the
    raw formula value when it is computable (NaN otherwise).
    ``probability`` records the guarantee's confidence qualifier.
    """

    value: float
    regime: str
    valid: bool
    reason: str
    constants: BoundConstants
    probability: str

    def to_json_dict(self):
        return {
            "value": self.value,
            "regime": self.regime,
            "valid": self.valid,
            "reason": self.reason,
            "constants": self.constants.to_json_dict(),
        }


def upper_bound(region, m, constants=None):
    """High-probability upper bound on the per-entry MSE of the estimator.

    The general form applies for any m > 0; once
    ``m >= (d1 + d2) * log(d1 * d2)`` it simplifies to a sqrt(2) variant
    without the second square-root factor (both agree at the boundary).
    Natural logarithms throughout.
    """
    k = constants if constants is not None else BoundConstants()
    if not m > 0:
        return BoundReport(
            value=float("nan"),
            regime="none",
            valid=False,
            reason=f"m must be > 0, got {m}",
            constants=k,
            probability="exceeds 1 - C/(d1*d2)",
        )
    d1, d2, alpha, beta, r = region.d1, region.d2, region.alpha, region.beta, region.r
    t = (alpha - beta) ** 2 / (8.0 * beta)
    # 8*alpha*T / (1 - exp(-T)), with the T -> 0 limit equal to 8*alpha.
    if t == 0.0:
        curvature = 8.0 * alpha
    else:
        curvature = 8.0 * alpha * t / -math.expm1(-t)
    logdd = math.log(d1 * d2)
    prefactor = (
        k.c_prime
        * curvature
        * (alpha * math.sqrt(r) / beta)
        * (alpha * E_SQ_MINUS_2 + 3.0 * logdd)
    )
    dsum = d1 + d2
    if m >= dsum * logdd:
        value = math.sqrt(2.0) * prefactor * math.sqrt(dsum / m)
        regime = "simplified"
    else:
        value = (
            prefactor
            * math.sqrt(dsum / m)
            * math.sqrt(1.0 + dsum * logdd / m)
        )
        regime = "general"
    return BoundReport(
        value=value,
        regime=regime,
        valid=True,
        reason="",
        constants=k,
        probability="exceeds 1 - C/(d1*d2)",
    )


def lower_bound(region, m, constants=None):
    """Minimax lower bound on the per-entry MSE of any estimator.

    ``min(c1, c2 * alpha**1.5 * sqrt(r * max(d1, d2) / m))``, valid only
    under the hypotheses ``alpha >= 1``, ``r >= 4``, ``alpha >= 2*beta``,
    ``alpha**2 * r * max(d1, d2) >= c0``, and the value itself exceeding
    ``r * alpha**2 / min(d1, d2)``. The value is independent of beta;
    beta enters only through the hypotheses.
    """
    k = constants if constants is not None else BoundConstants()
    if not m > 0:
        return BoundReport(
            value=float("nan"),
            regime="none",
            valid=False,
            reason=f"m must be > 0, got {m}",
            constants=k,
            probability="at least 3/4",
        )
    d1, d2, alpha, beta, r = region.d1, region.d2, region.alpha, region.beta, region.r
    dmax = max(d1, d2)
    scaled = k.c2 * alpha**1.5 * math.sqrt(r * dmax / m)
    if k.c1 <= scaled:
        value, regime = k.c1, "constant"
    else:
        value, regime = scaled, "scaled"
    reasons = []
    if r < 4:
        reasons.append(f"requires r >= 4, got r={r}")
    if alpha < 1.0:
        reasons.append(f"requires alpha >= 1, got alpha={alpha}")
    if alpha < 2.0 * beta:
        reasons.append(f"requires alpha >= 2*beta, got alpha={alpha}, beta={beta}")
    if alpha**2 * r * dmax < k.c0:
        reasons.append(
            f"requires alpha**2 * r * max(d1,d2) >= c0={k.c0}, "
            f"got {alpha**2 * r * dmax}"
        )
    floor = r * alpha**2 / min(d1, d2)
    if not value > floor:
        reasons.append(
            f"bound {value:.6g} does not exceed r*alpha**2/min(d1,d2)={floor:.6g}"
        )
    return BoundReport(
        value=value,
        regime=regime,
        valid=not reasons,
        reason="; ".join(reasons),
        constants=k,
        probability="at least 3/4",
    )


def bound_gap(region, m, constants=None, require_valid=True):
    """Ratio of the upper bound to the lower bound.

    With ``require_valid`` (the default) both bounds must be valid,
    otherwise :class:`InvalidRegime` is raised. Pass
    ``require_valid=False`` for diagnostic scaling probes at parameter
    points where the lower bound's applicability gate fails.
    """
    ub = upper_bound(region, m, constants)
    lb = lower_bound(region, m, constants)
    if require_valid:
        if not ub.valid:
            raise InvalidRegime(f"upper bound invalid: {ub.reason}")
        if not lb.valid:
            raise InvalidRegime(f"lower bound invalid: {lb.reason}")
    if not (math.isfinite(ub.value) and math.isfinite(lb.value)) or lb.value <= 0:
        raise InvalidRegime("bound values are not computable here")
    return ub.value / lb.value


def poisson_tail_threshold(alpha):
    """Smallest deviation t from which the exponential tail bound holds.

    ``alpha * (e**2 - 3)`` for Poisson rates capped by ``alpha``.
    """
    if not alpha > 0.0:
        raise NonPositiveParameter(f"alpha must be > 0, got {alpha}")
    return alpha * E_SQ_MINUS_3


def tail_bound(t):
    """Bound ``exp(-t)`` on ``P(Y - lambda >= t)`` for t above the threshold."""
    return math.exp(-t)
