"""Domain types, validation, and elementary matrix metrics.

Intensity matrices are plain 2-D float ndarrays throughout the package;
the dataclasses here carry the problem geometry (entry bounds, rank
budget) and the sampled counts.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadBounds,
    BadObservations,
    BadRank,
    BadShape,
    ShapeMismatch,
    SvdFailure,
)

# Absolute slack for set-membership checks; double-precision SVD accuracy.
DEFAULT_MEMBERSHIP_TOL = 1e-9

# Largest count accepted: every integer up to it is exact as a float64,
# and every larger one rounds to a float above it.
COUNT_LIMIT = 2.0**53 - 1


@dataclass(frozen=True)
class FeasibleRegion:
    """Search-space geometry: shape, entry bounds, and rank budget.

    The candidate set is the intersection of the box
    ``beta <= X_ij <= alpha`` with the nuclear-norm ball of radius
    ``alpha * sqrt(r * d1 * d2)``. Construction runs
    :func:`validate_region`, so functions that take a region do not
    check it again.
    """

    d1: int
    d2: int
    alpha: float
    beta: float
    r: int

    def __post_init__(self):
        validate_region(self)

    @property
    def nuclear_radius(self):
        return self.alpha * math.sqrt(self.r * self.d1 * self.d2)

    @property
    def shape(self):
        return (self.d1, self.d2)

    def midpoint(self):
        """The constant guess at the box midpoint ``(alpha + beta) / 2``."""
        return np.full(self.shape, (self.alpha + self.beta) / 2)

    def clip(self, x, out=None):
        """``x`` clamped into the box ``[beta, alpha]``, into ``out`` if given.

        The Frobenius-nearest box point; a NaN entry stays NaN. ``x`` is an
        array: its ``clip`` method is ``np.clip`` without the dispatch,
        which costs about a microsecond a call.
        """
        return x.clip(self.beta, self.alpha, out=out)


def validate_region(region):
    """Raise unless ``region`` satisfies every invariant.

    Raises
    ------
    BadShape
        d1 or d2 missing, non-integer, or < 1.
    BadBounds
        not 0 < beta <= alpha, or a bound is non-finite.
    BadRank
        r non-integer or outside 1..min(d1, d2).

    The range errors start with the field's name (``alpha must ...``), so
    the CLI can name the flag that sets it. The nuclear radius needs no
    check: with 0 < beta <= alpha finite and r, d1, d2 >= 1 it is at
    least alpha.
    """
    d1, d2 = region.d1, region.d2
    _check_shape(d1, d2)
    alpha, beta = float(region.alpha), float(region.beta)
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise BadBounds(f"bounds must be finite, got alpha={alpha}, beta={beta}")
    if not beta > 0.0:
        raise BadBounds(f"beta must be > 0, got {beta}")
    if not alpha >= beta:
        raise BadBounds(f"alpha must be >= beta={beta}, got {alpha}")
    if not isinstance(region.r, (int, np.integer)):
        raise BadRank(f"r must be an integer, got {region.r!r}")
    if not 1 <= region.r <= min(d1, d2):
        raise BadRank(f"r must be in [1, min(d1, d2)={min(d1, d2)}], got {region.r}")


def _check_shape(d1, d2):
    """Raise ``BadShape`` unless d1 and d2 are integers >= 1."""
    if not (isinstance(d1, (int, np.integer)) and isinstance(d2, (int, np.integer))):
        raise BadShape(f"d1, d2 must be integers, got ({d1!r}, {d2!r})")
    if d1 < 1 or d2 < 1:
        raise BadShape(f"d1, d2 must be >= 1, got ({d1}, {d2})")


def _indices(values, name):
    """``values`` as an array of finite integers, not yet cast to ``intp``.

    Integer and boolean arrays pass as they are. Anything else is read as
    floats, and ``BadObservations`` is raised unless every value is a
    finite integer, so a fractional index is never truncated into another
    cell. The caller checks the range before the cast, so no value is
    cast from outside ``intp``.
    """
    a = np.asarray(values)
    if a.dtype.kind in "biu":
        return a
    try:
        a = a.astype(float)
    except (TypeError, ValueError):
        raise BadObservations(f"{name} indices must be integers") from None
    if not np.all(np.isfinite(a) & (a == np.floor(a))):
        raise BadObservations(f"{name} indices must be finite integers")
    return a


@dataclass(frozen=True)
class ObservationSet:
    """Sampled index set with one Poisson count per sampled cell.

    ``rows``, ``cols``, ``counts`` are parallel int arrays; indices are
    zero-based and unique (Bernoulli sampling admits no duplicates).
    Indices may be given as floats only where each is a finite integer;
    d1 and d2 must be integers (``BadShape`` otherwise).
    Counts are integers in ``[0, COUNT_LIMIT]``, so casting one to float
    is exact.
    ``m_expected`` records the design-time expected sample count when known.
    """

    d1: int
    d2: int
    rows: np.ndarray
    cols: np.ndarray
    counts: np.ndarray
    m_expected: float | None = None

    def __post_init__(self):
        rows = _indices(self.rows, "row")
        cols = _indices(self.cols, "column")
        counts_f = np.asarray(self.counts, dtype=float)
        if not (rows.ndim == cols.ndim == counts_f.ndim == 1):
            raise BadObservations("rows, cols, counts must be 1-D")
        if not (rows.size == cols.size == counts_f.size):
            raise BadObservations("rows, cols, counts must have equal length")
        _check_shape(self.d1, self.d2)
        if np.any((rows < 0) | (rows >= self.d1)):
            raise BadObservations("row index out of range")
        if np.any((cols < 0) | (cols >= self.d2)):
            raise BadObservations("column index out of range")
        rows, cols = rows.astype(np.intp), cols.astype(np.intp)
        if rows.size:
            flat = rows * self.d2 + cols
            if np.unique(flat).size != flat.size:
                raise BadObservations("duplicate (i, j) sample")
            in_range = (counts_f >= 0) & (counts_f <= COUNT_LIMIT)
            if not np.all(in_range & (counts_f == np.floor(counts_f))):
                raise BadObservations("counts must be integers in [0, 2**53)")
        counts = counts_f.astype(np.int64)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "counts", counts)

    def __len__(self):
        return int(self.rows.size)

    @property
    def shape(self):
        return (self.d1, self.d2)

    def mask(self):
        """Boolean (d1, d2) matrix, True at sampled cells."""
        m = np.zeros((self.d1, self.d2), dtype=bool)
        m[self.rows, self.cols] = True
        return m


@dataclass(frozen=True)
class MembershipReport:
    in_box: bool
    in_nuclear_ball: bool


def _check_positive_int(name, value):
    """Raise ``ValueError`` unless ``value`` is an ``int`` or ``np.integer`` >= 1."""
    if not (isinstance(value, (int, np.integer)) and value >= 1):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _power(x, p):
    """The float ``x ** p``, or ``inf`` where it overflows.

    Python raises ``OverflowError`` there; numpy would read ``inf``.
    Every finite result keeps the bits of ``**``.
    """
    try:
        return x**p
    except OverflowError:
        return math.inf


def as_matrix(x, shape=None):
    """Coerce ``x`` to a 2-D float array, optionally checking its shape."""
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        raise ShapeMismatch(f"expected a 2-D matrix, got ndim={a.ndim}")
    if shape is not None and a.shape != tuple(shape):
        raise ShapeMismatch(f"expected shape {tuple(shape)}, got {a.shape}")
    return a


def _svd(x, compute_uv=True):
    """Thin SVD that raises ``SvdFailure`` where LAPACK does not converge."""
    try:
        return np.linalg.svd(x, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise SvdFailure(f"SVD did not converge: {exc}") from exc


def nuclear_norm(x):
    """Sum of singular values, from an SVD without singular vectors."""
    return float(_svd(as_matrix(x), compute_uv=False).sum())


def mse_per_entry(a, b):
    """Mean squared difference per entry, ``sum((a-b)**2) / (d1*d2)``."""
    a = as_matrix(a)
    b = as_matrix(b, shape=a.shape)
    diff = a - b
    return float(np.mean(diff * diff))


def membership(x, region, tol=DEFAULT_MEMBERSHIP_TOL):
    """Check ``x`` against both constraint sets of ``region`` within ``tol``.

    Returns a :class:`MembershipReport`; ``in_box`` requires
    ``beta - tol <= x_ij <= alpha + tol`` everywhere, ``in_nuclear_ball``
    requires the nuclear norm to be at most the region radius plus ``tol``.
    """
    if tol < 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    x = as_matrix(x, shape=region.shape)
    in_box = bool(
        np.all(x >= region.beta - tol) and np.all(x <= region.alpha + tol)
    )
    in_ball = nuclear_norm(x) <= region.nuclear_radius + tol
    return MembershipReport(in_box=in_box, in_nuclear_ball=in_ball)
