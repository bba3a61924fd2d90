"""Projection operators for the box, the nuclear ball, and their intersection.

``project_box`` and ``project_nuclear_ball`` are exact Euclidean
projections onto the individual sets. ``alternating_projection`` composes
them to land in the intersection (a feasible point, not the metric
projection onto the intersection); it proves a clipped point already lies
in the ball from the singular vectors of the previous ball step where it
can, before paying for another SVD. ``svt`` soft-thresholds singular
values, the proximal operator of the nuclear norm. It shrinks through
one eigendecomposition of the Gram matrix of the shorter side, not an
SVD, and so differs from the SVD formula by about ``n * eps * sigma_1 /
tau`` relative, n the longer side; where that could exceed
``n * 1e-3 * sqrt(eps)`` (``GRAM_SVT_GUARD``), at ``tau == 0``, or where
the Gram matrix leaves the float range, it runs the SVD formula instead.

The public functions check their arguments, then run an unchecked
kernel (``_ball_step``, ``_svt``, ``_alternating_projection``). The
solvers call the kernels directly on matrices they built themselves, so
nothing is checked again inside their loops.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import _svd, as_matrix
from .errors import BadRadius, BadTau, NoConvergence

# Relative margin below the radius under which a computed upper bound on
# ||X||_* proves a box point lies in the ball; both tests of
# ``alternating_projection`` use it. For the basis bound B = sum ||X v_i||
# over LAPACK's computed V, ||X||_* <= ||X V^T||_* * ||V^-T||_2
# <= B / sigma_min(V). The computed V is orthonormal to about 4e-15 per
# entry and ||V V^T - I||_2 <= 7e-15 at n = 10..500, so the 1/sigma_min
# factor costs under 1e-14. Rounding the n-term dot products of X V^T
# moves B by at most n * gamma_n ~ n**2 * eps / 2 relative (4.4e-12 at
# n = 200, 1e-9 at n = 3000; typically about sqrt(n) * eps), and the
# values-only and full-SVD sums of singular values differed by at most
# 5e-16 on a 200x200 instance. A wider guard only sends points in the
# band to the full ball step, which returns them unchanged with gap 0; on
# a 200x200 instance no clipped point lay within 1e-6 of the radius.
BALL_TEST_GUARD = 1e-9

# Largest sigma_1 / tau at which ``_svt`` shrinks through the Gram matrix.
# Forming G = X^T X (X tall, n rows) and its eigendecomposition move G by
# dG with ||dG|| ~ n * eps * sigma_1**2. The result is X h(G), with
# h(lam) = max(1 - tau / sqrt(lam), 0); to first order its error in the
# eigenbasis is sigma_i * D_ij * dG_ij, where D_ij is the divided
# difference of h at (lam_i, lam_j), and every sigma_i * |D_ij| <= 1/tau.
# So the error is about n * eps * sigma_1**2 / tau, that is
# n * eps * sigma_1 / tau relative to ||X||_2, against about n * eps for
# the SVD formula. The cap keeps it under n * 1e-3 * sqrt(eps)
# (n * 1.5e-11; 3e-9 at n = 200), and keeps the neglected second-order
# term, ||dG|| / tau**2 <= n * 1e-6 relative to the first, small. Small
# singular values come out of sqrt(lam) with absolute errors of about
# sqrt(n * eps) * sigma_1, which the cap keeps under tau / 1000, so the
# Gram path serves the SVT only: the ball step sums every singular value.
# Subnormal rounding adds at most n * eps * 2**-1023 to an entry of G, so
# lam_max must be at least the smallest normal number for it to stay
# within n * eps * lam_max; below that, or past overflow, the SVD formula
# runs, as LAPACK scales the SVD internally.
# Measured per call, relative Frobenius error against the SVD formula:
# median 3.7e-14, max 2.8e-13 over pmlsv's 343 trials on a 200x200
# instance; max 4.6e-15 over 2032 trials on the 64x36 demo image.
GRAM_SVT_GUARD = 1e-3 / math.sqrt(np.finfo(float).eps)

# Rounding noise of the alternating-projection gap, in units of
# sqrt(d1*d2) * eps * ||U||_F; gaps at or below it count as closed.
GAP_NOISE_FACTOR = 4.0

# Squares of entries under about 1.5e-154 may have lost bits or
# underflowed to 0. So below this value ``_no_underflow`` recomputes a
# norm, or a sum of norms, from the matrix scaled to a largest entry of 1.
# Above it such entries move a Frobenius norm of n entries by under
# n * 2.3e-48 relative, and a sum of n column norms of d entries (the
# basis bound) by under n * sqrt(d) * 1.5e-24, far below BALL_TEST_GUARD.
TINY_NORM = 1e-130


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
    return _ball_step(as_matrix(x), radius)[0]


def _ball_step(x, radius):
    """``project_nuclear_ball`` on a checked matrix, with ``x``'s ``(u, vt)``."""
    u, s, vt = _svd(x)
    total = float(s.sum())
    if total <= radius:
        return np.array(x), u, vt
    # s is sorted descending; find the largest active set k with
    # s_k > (cumsum_k - radius) / k, then theta makes the sum hit radius.
    # In exact arithmetic index 1 is always active; for a radius below the
    # rounding of s_1 the scan can lose it, and then k = 1 is the answer.
    css = np.cumsum(s)
    ks = np.arange(1, s.size + 1)
    active = np.nonzero(s - (css - radius) / ks > 0.0)[0]
    k = int(active[-1]) + 1 if active.size else 1
    theta = (css[k - 1] - radius) / k
    shrunk = np.maximum(s - theta, 0.0)
    return (u * shrunk) @ vt, u, vt


def _basis_bound(x, u, vt):
    """Upper bound on ``||x||_*`` from the thin SVD factors of any matrix.

    For any complete orthonormal basis ``q_i``, ``||x||_* <= sum ||x q_i||``
    (the nuclear norm is dual to the operator norm). The complete factor is
    ``vt`` (d2 x d2) when d1 >= d2 and ``u`` (d1 x d1) when d1 < d2; the
    thin SVD of a wide matrix has only d1 right vectors, and a sum over
    those is not a bound. In exact arithmetic equality holds when the
    factors are ``x``'s own.
    """
    if x.shape[0] >= x.shape[1]:
        return _no_underflow(lambda a: np.linalg.norm(a @ vt.T, axis=0).sum(), x)
    return _no_underflow(lambda a: np.linalg.norm(u.T @ a, axis=1).sum(), x)


def _fro_norm(x):
    """``np.linalg.norm(x)``, also where squares of the entries underflow."""
    return _no_underflow(np.linalg.norm, x)


def _no_underflow(norm, x):
    """``norm(x)`` for a positively homogeneous ``norm``, safe from underflow.

    Computed as is, and recomputed as ``s * norm(x / s)`` with
    ``s = max|x|`` only when it falls below ``TINY_NORM``, so normal
    scales pay no extra pass over ``x``.
    """
    value = float(norm(x))
    if value < TINY_NORM:
        scale = float(np.abs(x).max()) or 1.0
        value = scale * float(norm(x / scale))
    return value


def svt(x, tau):
    """Shrink every singular value by ``tau`` and clip at zero.

    The minimizer of ``0.5*||Y - x||_F**2 + tau*||Y||_*``, computed from
    the eigendecomposition of the Gram matrix of ``x``'s shorter side,
    n its longer one: within about ``n * eps * sigma_1 / tau`` relative of
    the SVD formula ``(u * max(s - tau, 0)) @ vt``, which runs instead
    where that bound exceeds ``n * 1e-3 * sqrt(eps)``
    (``GRAM_SVT_GUARD``), at ``tau == 0``, or where the Gram matrix
    leaves the float range (see ``_svt``).
    """
    if tau < 0.0:
        raise BadTau(f"tau must be >= 0, got {tau}")
    return _svt(as_matrix(x), tau)


def _svt(x, tau):
    """``svt`` on a checked matrix and ``tau >= 0``.

    Computed through the Gram matrix of the shorter side
    (``_gram_svt``) where that is accurate, else by the SVD formula
    ``(u * max(s - tau, 0)) @ vt``: when ``tau == 0``, when
    ``sigma_1 > GRAM_SVT_GUARD * tau``, when the largest Gram eigenvalue
    is not a finite normal number (the Gram matrix overflowed, underflowed
    or holds NaN), or when the eigendecomposition raises. An SVD that
    fails raises ``SvdFailure``.
    """
    wide = x.shape[0] < x.shape[1]
    shrunk = _gram_svt(x.T if wide else x, tau) if tau > 0.0 and x.size else None
    if shrunk is None:
        u, s, vt = _svd(x)
        return (u * np.maximum(s - tau, 0.0)) @ vt
    return shrunk.T if wide else shrunk


def _gram_svt(x, tau):
    """``_svt`` of a tall ``x`` from ``eigh(x.T @ x)``, or None to fall back.

    With ``x.T @ x = V diag(lam) V.T`` and ``x = U diag(sigma) V.T``,
    ``x @ V = U diag(sigma)``, so the shrunk matrix is
    ``(x @ V) diag(f) V.T`` with ``f_i = max(1 - tau / sqrt(lam_i), 0)``.
    Only the columns of ``V`` with ``sqrt(lam_i) > tau`` enter; the
    others have ``f_i = 0``. Returns None where ``GRAM_SVT_GUARD`` or the
    range of the eigenvalues rules the result out (see ``_svt``).
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            lam, v = np.linalg.eigh(x.T @ x)
    except np.linalg.LinAlgError:
        return None
    if not (np.finfo(float).tiny <= lam[-1] < np.inf
            and math.sqrt(lam[-1]) <= GRAM_SVT_GUARD * tau):
        return None
    s = np.sqrt(np.maximum(lam, 0.0))
    keep = s > tau
    v = v[:, keep]
    return ((x @ v) * (1.0 - tau / s[keep])) @ v.T


def alternating_projection(u0, region, tol=1e-6, max_iter=500):
    """Alternate nuclear-ball and box projections until the gap closes.

    Iterates ``V_j = ball(U_{j-1})``, ``U_j = box(V_j)`` and stops once
    ``||V_j - U_j||_F <= max(tol, 4 * sqrt(d1*d2) * eps * ||U_j||_F)``.
    The second term is the float64 rounding noise of the gap, so a
    ``tol`` below it cannot make the loop spin on noise. Both norms are
    taken so that tiny entries do not underflow (``_no_underflow``). The
    returned point lies exactly in the box and within that distance
    (Frobenius) of the nuclear ball.

    The second sweep starts from a box point, ``U_1``. If it already lies
    in the ball, the sweep would return it unchanged with gap 0 whatever
    ``tol`` is. So that sweep first tries to prove ``||U_1||_*`` is below
    ``radius * (1 - BALL_TEST_GUARD)``, cheapest test first, and returns
    ``U_1`` with ``final_gap=0.0`` if either succeeds:

    1. the basis bound ``sum ||U_1 q_i||`` over the complete singular
       basis of the first sweep's SVD (``_basis_bound``), one matrix
       product. The basis must be complete: for a wide matrix that is
       ``u``, since the thin SVD gives it only d1 right vectors;
    2. the sum of ``U_1``'s singular values from an SVD without vectors,
       about 0.4 of a full SVD.

    Otherwise the sweep runs the full ball step. The guard exceeds the
    rounding of both sums (see ``BALL_TEST_GUARD``), so only a point the
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
    return _alternating_projection(as_matrix(u0, shape=region.shape), region,
                                   tol, max_iter)


def _alternating_projection(u, region, tol, max_iter):
    """``alternating_projection`` on a checked matrix, ``tol`` and ``max_iter``."""
    radius = region.nuclear_radius
    noise = GAP_NOISE_FACTOR * math.sqrt(u.size) * np.finfo(float).eps
    gap = np.inf
    inside = radius * (1.0 - BALL_TEST_GUARD)
    for j in range(1, max_iter + 1):
        if j == 2 and (_basis_bound(u, *factors) <= inside
                       or float(_svd(u, compute_uv=False).sum()) <= inside):
            return ProjectionReport(result=u, iterations=j, final_gap=0.0)
        v, *factors = _ball_step(u, radius)
        u = np.clip(v, region.beta, region.alpha)
        gap = _fro_norm(v - u)
        if gap <= tol or gap <= noise * _fro_norm(u):
            return ProjectionReport(result=u, iterations=j, final_gap=gap)
    report = ProjectionReport(result=u, iterations=max_iter, final_gap=gap)
    raise NoConvergence(
        f"gap {gap:.3e} > tol {tol:.3e} after {max_iter} iterations", report
    )
