"""Evaluators for the theoretical recovery-error bounds.

These turn the error guarantees, adapted from Davenport et al., *1-bit
matrix completion* (2012), into numbers for a given geometry and
expected sample count. The guarantees leave their absolute constants
abstract; the defaults below are the values the underlying arguments
actually support, and every one can be overridden.

The reported values bound the mean squared error per entry. Each
guarantee also holds only with some probability, which is not computed:
the upper bound with probability exceeding ``1 - C/(d1*d2)`` for an
absolute constant C, the lower bound with probability at least 3/4.

Each guarantee is one formula plus the list of its hypotheses that fail;
a :class:`BoundReport` is valid exactly when that list is empty.
"""

import math
from dataclasses import asdict, dataclass

from .core import _power
from .errors import NonPositiveParameter

E_SQ_MINUS_2 = math.e**2 - 2.0
E_SQ_MINUS_3 = math.e**2 - 3.0


@dataclass(frozen=True)
class BoundConstants:
    """Absolute constants, each > 0; defaults are the proof-supported values."""

    c_prime: float = 128.0 * (1.0 + math.sqrt(6.0)) * math.e
    c1: float = 1.0 / 256.0
    c2: float = 1.0 / 4096.0
    c0: float = 33.0

    def __post_init__(self):
        for name in ("c_prime", "c1", "c2", "c0"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0")


@dataclass(frozen=True)
class BoundReport:
    """Evaluated bound with its regime and validity status.

    ``regime`` names which formula fired; when ``valid`` is False,
    ``reason`` lists every failed hypothesis and ``value`` is still the
    raw formula value when it is computable (NaN otherwise).
    ``to_json_dict`` writes a non-finite ``value`` as None, since JSON
    has no infinity or NaN.
    """

    value: float
    regime: str
    valid: bool
    reason: str
    constants: BoundConstants

    def to_json_dict(self):
        return {**asdict(self), "value": _finite_or_none(self.value)}


def _finite_or_none(x):
    """``x``, or None where it is None, infinite or NaN."""
    return x if x is not None and math.isfinite(x) else None


def _report(formula, region, m, constants):
    """Evaluate ``formula(region, m, constants) -> (value, regime, reasons)``.

    ``m <= 0`` (or NaN) reaches no formula, and the value is NaN.
    ``m <= d1*d2`` is the other hypothesis both guarantees share: the
    sampling model draws each cell at most once, so it cannot expect more
    samples than cells. Past it the raw formula value is kept, and the
    failed hypothesis follows the formula's own.
    """
    if not m > 0:
        value, regime, reasons = float("nan"), "none", [f"m must be > 0, got {m}"]
    else:
        value, regime, reasons = formula(region, m, constants)
        cells = region.d1 * region.d2
        if m > cells:
            reasons.append(f"requires m <= d1*d2={cells}, got m={m}")
    return BoundReport(value, regime, not reasons, "; ".join(reasons), constants)


def upper_bound(region, m, constants=BoundConstants()):
    """High-probability upper bound on the per-entry MSE of the estimator.

    The general form applies for any ``0 < m <= d1 * d2``; once
    ``m >= (d1 + d2) * log(d1 * d2)`` it simplifies to a sqrt(2) variant
    without the second square-root factor (both agree at the boundary).
    Natural logarithms throughout.
    """
    return _report(_upper, region, m, constants)


def _upper(region, m, k):
    d1, d2, alpha, beta, r = region.d1, region.d2, region.alpha, region.beta, region.r
    t = _power(alpha - beta, 2) / (8.0 * beta)
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
        return math.sqrt(2.0) * prefactor * math.sqrt(dsum / m), "simplified", []
    value = (
        prefactor
        * math.sqrt(dsum / m)
        * math.sqrt(1.0 + dsum * logdd / m)
    )
    return value, "general", []


def lower_bound(region, m, constants=BoundConstants()):
    """Minimax lower bound on the per-entry MSE of any estimator.

    ``min(c1, c2 * alpha**1.5 * sqrt(r * max(d1, d2) / m))``, valid only
    under the hypotheses ``0 < m <= d1 * d2``, ``alpha >= 1``, ``r >= 4``,
    ``alpha >= 2*beta``, ``alpha**2 * r * max(d1, d2) >= c0``, and the
    value itself exceeding ``r * alpha**2 / min(d1, d2)``. The value is
    independent of beta; beta enters only through the hypotheses.
    """
    return _report(_lower, region, m, constants)


def _lower(region, m, k):
    d1, d2, alpha, beta, r = region.d1, region.d2, region.alpha, region.beta, region.r
    dmax = max(d1, d2)
    scaled = k.c2 * _power(alpha, 1.5) * math.sqrt(r * dmax / m)
    if k.c1 <= scaled:
        value, regime = k.c1, "constant"
    else:
        value, regime = scaled, "scaled"
    alpha_sq = _power(alpha, 2)
    floor = r * alpha_sq / min(d1, d2)
    failed = [
        (r < 4, f"requires r >= 4, got r={r}"),
        (alpha < 1.0, f"requires alpha >= 1, got alpha={alpha}"),
        (alpha < 2.0 * beta, f"requires alpha >= 2*beta, got alpha={alpha}, beta={beta}"),
        (alpha_sq * r * dmax < k.c0,
         f"requires alpha**2 * r * max(d1,d2) >= c0={k.c0}, "
         f"got {alpha_sq * r * dmax}"),
        (not value > floor,
         f"bound {value:.6g} does not exceed r*alpha**2/min(d1,d2)={floor:.6g}"),
    ]
    return value, regime, [reason for fails, reason in failed if fails]


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
