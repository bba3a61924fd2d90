"""Projection operators for the box, the nuclear ball, and their intersection.

``project_box`` and ``project_nuclear_ball`` are exact Euclidean
projections onto the individual sets. ``alternating_projection`` composes
them to land in the intersection (a feasible point, not the metric
projection onto the intersection); it proves a clipped point already lies
in the ball from the basis of the previous ball step where it can,
before paying for another decomposition. ``svt`` soft-thresholds singular
values, the proximal operator of the nuclear norm.

Decomposition policy. Both spectral operators read the singular values
from one eigendecomposition of the Gram matrix of the shorter side
(``_gram_eigh``), not an SVD, and shrink through it (``_gram_shrink``):

* ``svt`` shrinks at ``tau`` and so differs from the SVD formula by
  about ``n * eps * sigma_1 / tau`` relative, n the longer side; where
  that could exceed ``n * 1e-3 * sqrt(eps)`` (``GRAM_SVT_GUARD``), at
  ``tau == 0``, or where the Gram matrix leaves the float range, it runs
  the SVD formula instead.
* The ball step brackets the sum of the singular values with a
  certified error bound (``GRAM_BALL_DELTA``): it returns an input the
  bracket proves inside unchanged, and shrinks one it proves outside at
  the theta of the eigenvalues under the same guard; where the bracket
  straddles the radius, the guard fails or the Gram matrix leaves the
  float range, it runs the SVD formula.
* ``alternating_projection`` picks each sweep's decomposition by its
  sweep number, and the first sweep's also by how the previous call's
  first sweep ended, where the caller passes that on (the memo of
  ``_alternating_projection``; the solvers keep one per solve):

  - sweep 1 runs ``eigh``, whose vectors the second sweep's basis bound
    reads. Where the previous first sweep left its input unchanged and
    has a basis, it first tries that basis in the basis bound, with no
    decomposition at all; a gradient step that stays inside the ball,
    as late iterates do, is proved there. Where the previous first
    sweep shrank by the SVD formula, it reads the eigenvalues only, as
    sweep 2 does: a step just outside the ball shrinks at a tiny theta,
    past the guard, so the vectors of an ``eigh`` would be thrown away;
  - sweep 2 reads the eigenvalues only (``eigvalsh``), which is all the
    bracket needs, and runs ``eigh`` on the same Gram matrix only where
    the bracket proves the point outside and the guard holds, since the
    shrink reads the vectors. It tries the basis bound first where the
    first sweep left it a basis, and goes straight to its ball step
    where the first sweep proved its input inside from eigenvalues
    alone;
  - sweep 3 onward runs the SVD formula: a third sweep runs only where
    the ball bound on the second, and it tends to keep binding with a
    theta that shrinks as the gap closes, so sigma_1 / theta grows and
    the guard would most likely fail after the ``eigh`` had been paid
    for.

  The memo only picks which proof the first sweep tries first, and a
  failed proof falls through to the step without it. The basis bound
  proves only points the ball step returns unchanged (see
  ``BALL_TEST_GUARD``), and an eigenvalues-only step that shrinks on
  the Gram path decides again from the ``eigh`` it then runs. So the
  result, iteration count and gap are those of the call without a
  memo, but for one case: ``eigh`` and ``eigvalsh`` may differ in
  their last bits, and where the radius lies within those bits of a
  bracket end or of the guard, the two reads can decide differently
  (one proves, the other leaves it to the SVD); both results then lie
  within the ball step's tolerance.

The public functions check their arguments, then run an unchecked
kernel (``_ball_step``, ``_svt``, ``_alternating_projection``). The
solvers call the kernels directly on matrices they built themselves, so
nothing is checked again inside their loops.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import _check_positive_int, _svd, as_matrix
from .errors import BadRadius, BadTau, ProjectionFailure

EPS = float(np.finfo(float).eps)
TINY_NORMAL = float(np.finfo(float).tiny)
SUBNORMAL = float(np.finfo(float).smallest_subnormal)

# Relative margin below the radius under which the basis bound on ||X||_*
# proves a box point lies in the ball (see ``alternating_projection``).
# For B = sum ||X q_i|| over a computed basis Q (eigenvectors from
# ``eigh`` or LAPACK's singular vectors), ||X||_* <= ||X Q||_* *
# ||Q^-1||_2 <= B / sigma_min(Q). A computed Q is orthonormal to about
# 4e-15 per entry and ||Q Q^T - I||_2 <= 7e-15 at n = 10..500, so the
# 1/sigma_min factor costs under 1e-14. Rounding the n-term dot products
# of X Q moves B by at most n * gamma_n ~ n**2 * eps / 2 relative
# (4.4e-12 at n = 200, 1e-9 at n = 3000; typically about sqrt(n) * eps).
# A wider guard only sends points in the band to the ball step, which
# returns them unchanged with gap 0; on a 200x200 instance no clipped
# point lay within 1e-6 of the radius. The ball step's own inside test
# needs no guard: its bracket is certified (``GRAM_BALL_DELTA``).
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
# sqrt(n * eps) * sigma_1, which the cap keeps under tau / 1000; the ball
# step, which sums every singular value, brackets them (GRAM_BALL_DELTA)
# and shrinks at its theta under the same cap. Subnormal rounding adds at
# most n * eps * 2**-1023 to an entry of G, so lam_max must be at least
# the smallest normal number for it to stay within n * eps * lam_max;
# below that, or past overflow, the SVD formula runs, as LAPACK scales
# the SVD internally.
# Measured per call, relative Frobenius error against the SVD formula:
# median 3.7e-14, max 2.8e-13 over pmlsv's 343 trials on a 200x200
# instance; max 4.6e-15 over 2032 trials on the 64x36 demo image.
GRAM_SVT_GUARD = 1e-3 / math.sqrt(EPS)

# Half-width delta, in units of (m + 1) * tr(G), of the bracket that
# ``_ball_step`` puts on every squared singular value it reads from the
# Gram matrix G = fl(A^T A), A m x n with m >= n. Each entry of G is an
# m-term dot product, so |G - A^T A| <= gamma_m |A|^T |A| entrywise
# (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002, 3.5)
# and ||G - A^T A||_2 <= gamma_m * ||A||_F**2 <= (m + 1) * eps * tr(G).
# ``eigh`` returns the exact eigenvalues of G + E with
# ||E||_2 <= p(n) * eps * ||G||_2 (LAPACK Users' Guide, 4.7), p(n) a
# modest function of n; with p(n) = m + 1 >= n + 1 and ||G||_2 <= tr(G)
# that is at most (m + 1) * eps * tr(G) too. The same bound covers
# ``eigvalsh``, the symmetric driver run without vectors, so the bracket
# holds on its values as well. By Weyl's inequality each
# computed eigenvalue lam_i then lies within
# delta = 2 * (m + 1) * eps * tr(G) of sigma_i**2, up to terms of order
# eps**2. A product that underflows adds at most 2**-1075 to an entry of
# G, m per entry, so at most n * m * 2**-1075 in 2-norm; the
# ``n * m * SUBNORMAL`` term of delta covers that and delta's own
# rounding. From |lam_i - sigma_i**2| <= delta,
# s_i = sqrt(max(lam_i, 0)) lies within
# min(sqrt(delta), delta / s_i) = delta / max(s_i, sqrt(delta)) of
# sigma_i, and the sum of those bounds brackets ||A||_* around sum s_i.
# Rounding the square roots and the two n-term sums moves the bracket's
# ends by at most 2 * (n + 1) * eps of their size; the bracket is widened
# by that much. Measured over the 243 ball steps of pg and apg (100
# iterations each) on a 200x200 instance, sum s_i differed from the SVD's
# sum of singular values by at most 0.0044 of the bracket's half-width
# (median 8e-6).
GRAM_BALL_DELTA = 2.0 * EPS

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

# How a ball step ended (``_ball_step``): input returned unchanged, shrunk
# through the Gram matrix, or shrunk by the SVD formula.
INSIDE, GRAM, SVD = "inside", "gram", "svd"


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
    return region.clip(as_matrix(x, shape=region.shape))


def project_nuclear_ball(x, radius):
    """Euclidean projection onto ``{Y : ||Y||_* <= radius}``.

    Inside the ball the input is returned unchanged. Otherwise the
    singular values are soft-thresholded by the unique theta >= 0 with
    ``sum(max(s_i - theta, 0)) == radius``; theta is found exactly by a
    breakpoint scan over the sorted singular values. The result is
    within about ``n * eps * (1 + sigma_1 / theta)`` relative of the SVD
    formula, n the longer side; the module docstring says when it comes
    from the Gram matrix and when from the SVD.
    """
    if not radius > 0.0:
        raise BadRadius(f"radius must be > 0, got {radius}")
    return _ball_step(as_matrix(x), radius)[0]


def _ball_step(x, radius, gram=True, vectors=True):
    """``project_nuclear_ball`` on a checked matrix, with a basis for ``x``.

    Returns ``(result, q, path)``. ``q`` is a complete orthonormal basis
    of the shorter side for ``_basis_bound``: the eigenvectors of the
    Gram matrix, or the matching singular vectors where the SVD ran.
    ``path`` says how the step ended: ``INSIDE`` where it returned ``x``
    unchanged, ``GRAM`` where it shrank through the Gram matrix and
    ``SVD`` where it shrank by the SVD formula. With ``gram=False`` the
    step runs the SVD formula directly. With ``vectors=False`` the Gram
    path reads the eigenvalues only, and runs ``eigh`` on the same Gram
    matrix only to shrink; ``q`` is None where no vectors were computed,
    that is where the bracket proves ``x`` inside.
    """
    spec = _gram_eigh(x, vectors) if gram else None
    if spec is not None:
        a, g, s, v = spec
        theta = _gram_theta(a, g, s, radius)
        if theta and v is None:
            # Proved outside from the values alone. The shrink reads the
            # vectors: take them from eigh of the Gram matrix at hand and
            # decide again from that call's values, as vectors=True does.
            spec = _eigh(g, vectors=True)
            if spec is None:
                theta = None
            else:
                s, v = spec
                theta = _gram_theta(a, g, s, radius)
        if theta == 0.0:
            return np.array(x), v, INSIDE
        if theta is not None:
            return _gram_shrink(x, a, s, v, theta), v, GRAM
    u, s, vt = _svd(x)
    q = vt.T if x.shape[0] >= x.shape[1] else u
    if float(s.sum()) <= radius:
        return np.array(x), q, INSIDE
    return (u * np.maximum(s - _ball_theta(s, radius), 0.0)) @ vt, q, SVD


def _gram_theta(a, g, s, radius):
    """The ball step's theta from the Gram values ``s`` of ``a``, or None.

    Returns 0.0 where the bracket (``_gram_bracket``) proves ``a`` inside
    the ball, the theta to shrink at where it proves ``a`` outside and
    ``sigma_1 <= GRAM_SVT_GUARD * theta``, and None where the SVD formula
    must decide.
    """
    bracket = _gram_bracket(a, g, s)
    if bracket is None:
        return None
    low, high = bracket
    if high <= radius:
        return 0.0
    if low > radius:
        theta = _ball_theta(s[::-1], radius)
        if s[-1] <= GRAM_SVT_GUARD * theta:
            return theta
    return None


def _gram_bracket(a, g, s):
    """``(low, high)`` around ``||a||_*`` from the Gram values ``s``, or None.

    ``g`` is the computed ``a.T @ a`` and ``s`` the square roots of its
    eigenvalues, from ``eigh`` or ``eigvalsh`` (see ``GRAM_BALL_DELTA``).
    None where the bound itself overflows.
    """
    m, n = a.shape
    total = float(s.sum())
    # |s_i - sigma_i| <= delta / max(s_i, sqrt(delta)); see
    # GRAM_BALL_DELTA. tr(G) can overflow where lam_max does not.
    delta = GRAM_BALL_DELTA * (m + 1) * float(g.trace()) + n * m * SUBNORMAL
    if not delta < math.inf:
        return None
    width = float((delta / np.maximum(s, math.sqrt(delta))).sum())
    width += 2 * (n + 1) * EPS * (total + width)
    return total - width, total + width


def _ball_theta(s, radius):
    """The theta of ``project_nuclear_ball`` for singular values ``s``.

    ``s`` is sorted descending and sums to more than ``radius``.
    """
    # Find the largest active set k with s_k > (cumsum_k - radius) / k,
    # then theta makes the sum hit radius. In exact arithmetic index 1 is
    # always active; for a radius below the rounding of s_1 the scan can
    # lose it, and then k = 1 is the answer.
    css = s.cumsum()
    active = (s - (css - radius) / np.arange(1, s.size + 1) > 0.0).nonzero()[0]
    k = int(active[-1]) + 1 if active.size else 1
    return (css[k - 1] - radius) / k


def _basis_bound(x, q):
    """Upper bound on ``||x||_*`` from a complete orthonormal basis ``q``.

    For any complete orthonormal basis ``q_i``, ``||x||_* <= sum ||x q_i||``
    (the nuclear norm is dual to the operator norm). ``q`` spans the
    shorter side: it multiplies ``x`` from the right when ``x`` is tall or
    square and ``x.T`` when ``x`` is wide, as ``_ball_step`` returns it;
    the thin SVD of a wide matrix has only d1 right vectors, and a sum over
    those is not a bound. In exact arithmetic equality holds when ``q`` is
    ``x``'s own right singular basis (of ``x.T`` when wide).
    """
    a = x.T if x.shape[0] < x.shape[1] else x
    return _no_underflow(lambda b: np.linalg.norm(b @ q, axis=0).sum(), a)


def _fro_norm(x):
    """``np.linalg.norm(x)``, also where squares of the entries underflow."""
    return _no_underflow(_frobenius, x)


def _frobenius(x):
    """``np.linalg.norm(x)`` without its wrapper: the same dot product.

    The entries are raveled in memory order (``order="K"``), as
    ``np.linalg.norm`` does, so the sum runs in the same order and keeps
    its bits for F-ordered and transposed inputs too.
    """
    flat = x.ravel(order="K")
    return math.sqrt(flat.dot(flat))


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

    The minimizer of ``0.5*||Y - x||_F**2 + tau*||Y||_*``, within about
    ``n * eps * (1 + sigma_1 / tau)`` relative of the SVD formula
    ``(u * max(s - tau, 0)) @ vt``, n the longer side; the module
    docstring says when it comes from the Gram matrix and when from the
    SVD.
    """
    if not tau >= 0.0:
        raise BadTau(f"tau must be >= 0, got {tau}")
    return _svt(as_matrix(x), tau)


def _svt(x, tau):
    """``svt`` on a checked matrix and ``tau >= 0``.

    Computed through the Gram matrix of the shorter side
    (``_gram_shrink``) where that is accurate, else by the SVD formula
    ``(u * max(s - tau, 0)) @ vt``: when ``tau == 0``, when
    ``sigma_1 > GRAM_SVT_GUARD * tau``, or where ``_gram_eigh`` returns
    None. An SVD that fails raises ``SvdFailure``.
    """
    spec = _gram_eigh(x) if tau > 0.0 else None
    if spec is not None:
        a, _, s, v = spec
        if s[-1] <= GRAM_SVT_GUARD * tau:
            return _gram_shrink(x, a, s, v, tau)
    u, s, vt = _svd(x)
    return (u * np.maximum(s - tau, 0.0)) @ vt


def _gram_eigh(x, vectors=True):
    """``eigh`` of the Gram matrix of ``x``'s shorter side, or None.

    Returns ``(a, g, s, v)``: ``a`` is ``x``, or ``x.T`` when ``x`` is
    wide, so ``a`` is tall; ``g = a.T @ a = v diag(lam) v.T`` as computed,
    with ``lam`` ascending, and ``s = sqrt(max(lam, 0))`` estimates the
    singular values of ``x``. With ``vectors=False`` ``lam`` comes from
    ``eigvalsh`` and ``v`` is None. Returns None for an empty ``x`` and
    where ``_eigh`` does; the callers then run the SVD.
    """
    a = x.T if x.shape[0] < x.shape[1] else x
    if not a.size:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        g = a.T @ a
    spec = _eigh(g, vectors)
    return None if spec is None else (a, g, *spec)


def _eigh(g, vectors):
    """``(sqrt(max(lam, 0)), v)`` from ``eigh(g)``, or None.

    ``v`` is None with ``vectors=False``, where ``lam`` comes from
    ``eigvalsh``. Returns None when the eigendecomposition raises, or
    when the largest eigenvalue is not a finite normal number (the Gram
    matrix overflowed, underflowed or holds NaN). It sets no errstate:
    numpy's ``eigh`` and ``eigvalsh`` set their own, which ignores
    overflow and turns an invalid operation into ``LinAlgError``.
    """
    try:
        if vectors:
            lam, v = np.linalg.eigh(g)
        else:
            lam, v = np.linalg.eigvalsh(g), None
    except np.linalg.LinAlgError:
        return None
    if not TINY_NORMAL <= lam[-1] < math.inf:
        return None
    np.maximum(lam, 0.0, out=lam)
    return np.sqrt(lam, out=lam), v


def _gram_shrink(x, a, s, v, tau):
    """``x``'s singular values shrunk by ``tau``, from ``_gram_eigh(x)``.

    With ``a.T @ a = V diag(lam) V.T`` and ``a = U diag(sigma) V.T``,
    ``a @ V = U diag(sigma)``, so the shrunk matrix is
    ``(a @ V) diag(f) V.T`` with ``f_i = max(1 - tau / s_i, 0)``,
    ``s_i = sqrt(lam_i)``. Only the columns of ``V`` with ``s_i > tau``
    enter; the others have ``f_i = 0``. Transposed back when ``a`` is
    ``x.T``.
    """
    keep = s > tau
    v = v[:, keep]
    av = a @ v
    av *= 1.0 - tau / s[keep]
    shrunk = av @ v.T
    return shrunk if a is x else shrunk.T


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
    ``tol`` is. So that sweep first tries the basis bound
    ``sum ||U_1 q_i||`` over the complete basis ``q`` of the first
    sweep's ball step (``_basis_bound``), one matrix product, and returns
    ``U_1`` with ``final_gap=0.0`` if it is below
    ``radius * (1 - BALL_TEST_GUARD)``. The basis is the eigenvectors of
    the Gram matrix of the shorter side, or the matching complete
    singular factor where the ball step ran the SVD: for a wide matrix
    ``u``, since the thin SVD gives it only d1 right vectors. Otherwise
    the sweep runs the ball step, whose bracket on the sum of the
    singular values proves most of the remaining inside points from the
    eigenvalues alone. The guard exceeds the rounding of the basis bound
    (see ``BALL_TEST_GUARD``), so only a point the ball step would leave
    alone skips it, and the result, iteration count and gap equal those
    of the plain loop. This function carries nothing from one call to
    the next, so its first sweep has no such test: it starts from an
    arbitrary point. The solvers call the kernel with the previous
    call's first-sweep outcome instead, and there the first sweep tries
    the same test on its own input (see the module docstring).

    The first sweep takes the ball step's Gram path with eigenvectors,
    the second with eigenvalues only; from the third on, the ball step
    runs the SVD formula directly, as the module docstring explains.

    Raises
    ------
    ProjectionFailure
        ``max_iter`` reached with gap above ``tol``; the exception's
        ``report`` is the ``ProjectionReport`` of the last sweep, whose
        result lies in the box. The solvers let the kernel's error pass
        through as it is, with their own report in its place.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    _check_positive_int("max_iter", max_iter)
    return _alternating_projection(as_matrix(u0, shape=region.shape), region,
                                   tol, max_iter)[0]


def _alternating_projection(u, region, tol, max_iter, memo=None):
    """``alternating_projection`` on a checked matrix, ``tol`` and ``max_iter``.

    Returns ``(report, memo)``, where ``memo`` says how this call's first
    sweep ended: the ``(path, q)`` of its ball step, or ``(INSIDE, q)``
    with the incoming basis where that basis proved the input inside.
    Passed to the next call (None for no previous call), it picks which
    proof that call's first sweep tries first: the basis bound over
    ``q`` after ``INSIDE`` with a basis, the eigenvalues-only ball step
    after ``SVD``, and the plain step otherwise (see the module
    docstring). A ``q`` from any matrix of the same shape gives a valid
    bound.
    """
    radius = region.nuclear_radius
    noise = GAP_NOISE_FACTOR * math.sqrt(u.size) * EPS
    gap = np.inf
    inside = radius * (1.0 - BALL_TEST_GUARD)
    path, basis = memo or (None, None)
    for j in range(1, max_iter + 1):
        if (j == 1 and path == INSIDE and basis is not None
                and _basis_bound(u, basis) <= inside):
            v = u
        elif j == 2 and basis is not None and _basis_bound(u, basis) <= inside:
            return ProjectionReport(result=u, iterations=j, final_gap=0.0), memo
        else:
            v, basis, path = _ball_step(u, radius, gram=j <= 2,
                                        vectors=j == 1 and path != SVD)
        if j == 1:
            memo = (path, basis)
        u = region.clip(v)
        gap = _fro_norm(v - u)
        if gap <= tol or gap <= noise * _fro_norm(u):
            return ProjectionReport(result=u, iterations=j, final_gap=gap), memo
    report = ProjectionReport(result=u, iterations=max_iter, final_gap=gap)
    raise ProjectionFailure(
        f"gap {gap:.3e} > tol {tol:.3e} after {max_iter} iterations", report
    )
