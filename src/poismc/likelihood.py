"""Poisson negative log-likelihood, its gradient, and divergence functions.

The objective over a sample set omega is

    f(X) = -sum_{(i,j) in omega} (y_ij * log(x_ij) - x_ij),

smooth and convex on matrices positive at the sampled cells. Its gradient
is supported on omega with entries ``1 - y_ij / x_ij``, and its Hessian is
diagonal with entries ``y_ij / x_ij**2``. On the box [beta, alpha] the
gradient is therefore Lipschitz with constant ``max(y) / beta**2``, which
is at most ``alpha / beta**2`` only when every count is at most alpha.
"""

import math

import numpy as np

from .core import as_matrix
from .errors import NonPositiveEntryAtObservation, NonPositiveParameter


def neg_log_likelihood(x, obs):
    """Negative Poisson log-likelihood of ``x`` on the sampled cells.

    Depends only on entries of ``x`` at the sample set; an empty sample
    set gives 0. Summation order is the stored sample order, so the
    result is bit-reproducible for a fixed observation set.
    """
    x = as_matrix(x, shape=obs.shape)
    vals = x[obs.rows, obs.cols]
    if np.any(vals <= 0.0):
        raise NonPositiveEntryAtObservation(
            "objective needs x > 0 at every sampled cell"
        )
    if vals.size == 0:
        return 0.0
    return float(-np.sum(obs.counts * np.log(vals) - vals))


def gradient(x, obs):
    """Gradient of :func:`neg_log_likelihood` at ``x``.

    Zero off the sample set; ``1 - y_ij / x_ij`` on it.
    """
    x = as_matrix(x, shape=obs.shape)
    vals = x[obs.rows, obs.cols]
    if np.any(vals <= 0.0):
        raise NonPositiveEntryAtObservation(
            "gradient needs x > 0 at every sampled cell"
        )
    g = np.zeros(obs.shape)
    g[obs.rows, obs.cols] = 1.0 - obs.counts / vals
    return g


def lipschitz_constant(region):
    """Fixed reciprocal step ``alpha / beta**2`` of the pg and apg solvers.

    The curvature at a sampled cell is ``y / x**2``, so on the region's box
    this is a Lipschitz constant of :func:`gradient` only when every count
    ``y`` is at most alpha.
    """
    return region.alpha / region.beta**2


def _check_positive(*vals):
    for v in vals:
        if np.any(np.asarray(v) <= 0.0):
            raise NonPositiveParameter("rates must be strictly positive")


def kl(p, q):
    """KL divergence between Poisson rates, ``p*log(p/q) - (p - q)``.

    Accepts scalars or same-shape arrays (elementwise).
    """
    _check_positive(p, q)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    out = p * np.log(p / q) - (p - q)
    return float(out) if out.ndim == 0 else out

def hellinger_sq(p, q):
    """Squared Hellinger distance between Poisson rates.

    ``2 - 2*exp(-(sqrt(p) - sqrt(q))**2 / 2)``; symmetric, in [0, 2).
    """
    _check_positive(p, q)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    z = 0.5 * (np.sqrt(p) - np.sqrt(q)) ** 2
    out = -2.0 * np.expm1(-z)
    return float(out) if out.ndim == 0 else out


def kl_matrix(p, q):
    """Entrywise-average KL divergence between two positive matrices."""
    p = as_matrix(p)
    q = as_matrix(q, shape=p.shape)
    return float(np.mean(kl(p, q)))


def hellinger_sq_matrix(p, q):
    """Entrywise-average squared Hellinger distance."""
    p = as_matrix(p)
    q = as_matrix(q, shape=p.shape)
    return float(np.mean(hellinger_sq(p, q)))


def hellinger_mse_floor(region):
    """Constant c with ``hellinger_sq_matrix(M, N) >= c * mse_per_entry(M, N)``
    for all M, N inside the region's box.

    c = (1 - exp(-T)) / (4*alpha*T) with T = (alpha - beta)**2 / (8*beta);
    the T -> 0 limit (alpha == beta) is 1 / (4*alpha).
    """
    alpha, beta = region.alpha, region.beta
    t = (alpha - beta) ** 2 / (8.0 * beta)
    if t == 0.0:
        return 1.0 / (4.0 * alpha)
    return -math.expm1(-t) / (4.0 * alpha * t)
