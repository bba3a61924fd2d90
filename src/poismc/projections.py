"""Projection operators for the box, the nuclear ball, and their intersection.

``project_box`` and ``project_nuclear_ball`` are exact Euclidean
projections onto the individual sets. ``alternating_projection`` composes
them to land in the intersection (a feasible point, not the metric
projection onto the intersection). ``svt`` soft-thresholds singular
values, which is the exact proximal operator of the nuclear norm.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import _svd, as_matrix, nuclear_norm
from .errors import BadRadius, BadTau, NoConvergence

# Relative margin below the radius under which a values-only nuclear norm
# proves a box point lies in the ball. On a 200x200 instance the values-only
# and full-SVD sums differed by at most 5e-16 relative.
BALL_TEST_GUARD = 1e-12

# Rounding noise of the alternating-projection gap, in units of
# sqrt(d1*d2) * eps * ||U||_F; gaps at or below it count as closed.
GAP_NOISE_FACTOR = 4.0


@dataclass(frozen=True)
class ProjectionReport:
    """Outcome of an alternating-projection run.

    ``final_gap`` is the Frobenius distance between the last two
    half-steps; the result always lies exactly in the box.
    """

    result: np.ndarray
    iterations: int
    final_gap: float


def project_box(x, region):
    """Clamp entries into [beta, alpha]; the Frobenius-nearest box point."""
    x = as_matrix(x, shape=region.shape)
    return np.clip(x, region.beta, region.alpha)


def project_nuclear_ball(x, radius):
    """Euclidean projection onto ``{Y : ||Y||_* <= radius}``.

    Inside the ball the input is returned unchanged. Otherwise the
    singular values are soft-thresholded by the unique theta >= 0 with
    ``sum(max(s_i - theta, 0)) == radius``; theta is found exactly by a
    breakpoint scan over the sorted singular values.
    """
    if not radius > 0.0:
        raise BadRadius(f"radius must be > 0, got {radius}")
    x = as_matrix(x)
    u, s, vt = _svd(x)
    total = float(s.sum())
    if total <= radius:
        return np.array(x)
    # s is sorted descending; find the largest active set k with
    # s_k > (cumsum_k - radius) / k, then theta makes the sum hit radius.
    css = np.cumsum(s)
    ks = np.arange(1, s.size + 1)
    active = s - (css - radius) / ks > 0.0
    k = int(np.nonzero(active)[0].max()) + 1
    theta = (css[k - 1] - radius) / k
    shrunk = np.maximum(s - theta, 0.0)
    return (u * shrunk) @ vt


def svt(x, tau):
    """Shrink every singular value by ``tau`` and clip at zero.

    Exact minimizer of ``0.5*||Y - x||_F**2 + tau*||Y||_*``.
    """
    if tau < 0.0:
        raise BadTau(f"tau must be >= 0, got {tau}")
    x = as_matrix(x)
    u, s, vt = _svd(x)
    return (u * np.maximum(s - tau, 0.0)) @ vt


def alternating_projection(u0, region, tol=1e-6, max_iter=500):
    """Alternate nuclear-ball and box projections until the gap closes.

    Iterates ``V_j = ball(U_{j-1})``, ``U_j = box(V_j)`` and stops once
    ``||V_j - U_j||_F <= max(tol, 4 * sqrt(d1*d2) * eps * ||U_j||_F)``.
    The second term is the float64 rounding noise of the gap, so a
    ``tol`` below it cannot make the loop spin on noise. The returned
    point lies exactly in the box and within that distance (Frobenius)
    of the nuclear ball.

    The second sweep starts from a box point, ``U_1``. If it already lies
    in the ball, the sweep would return it unchanged with gap 0 whatever
    ``tol`` is. So that sweep first sums the singular values alone,
    which costs about 0.4 of a full SVD, and returns ``U_1`` with
    ``final_gap=0.0`` when the sum is below
    ``radius * (1 - BALL_TEST_GUARD)``. The guard is far wider than the
    difference between that sum and the full SVD's, so only a point the
    ball step would leave alone skips it, and the result, iteration count
    and gap equal those of the plain loop. The other sweeps have no such
    test. The first starts from an arbitrary point, in the solvers a
    gradient step, which usually lies outside the ball. Past the second,
    the ball bound on the previous box point; it then tends to keep
    binding until the gap closes, so a test there would mostly be a
    wasted SVD.

    Raises
    ------
    NoConvergence
        ``max_iter`` reached with gap above ``tol``; the exception's
        ``report`` attribute carries the last iterate anyway.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    radius = region.nuclear_radius
    u = as_matrix(u0, shape=region.shape)
    noise = GAP_NOISE_FACTOR * math.sqrt(u.size) * np.finfo(float).eps
    gap = np.inf
    for j in range(1, max_iter + 1):
        if j == 2 and nuclear_norm(u) <= radius * (1.0 - BALL_TEST_GUARD):
            return ProjectionReport(result=u, iterations=j, final_gap=0.0)
        v = project_nuclear_ball(u, radius)
        u = project_box(v, region)
        gap = float(np.linalg.norm(v - u))
        if gap <= tol or gap <= noise * float(np.linalg.norm(u)):
            return ProjectionReport(result=u, iterations=j, final_gap=gap)
    report = ProjectionReport(result=u, iterations=max_iter, final_gap=gap)
    raise NoConvergence(
        f"gap {gap:.3e} > tol {tol:.3e} after {max_iter} iterations", report
    )
