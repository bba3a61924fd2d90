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

from .core import _power, as_matrix
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
    return _sampled_nll(vals, obs.counts)


def _sampled_nll(vals, counts):
    """``neg_log_likelihood`` from the sampled entries ``vals`` alone.

    No checks: ``vals`` must be positive and in the stored sample order.
    Computed in place on one temporary, in the order of
    ``-sum(counts * log(vals) - vals)``, so it keeps that expression's bits.
    """
    t = np.log(vals)
    t *= counts
    t -= vals
    return float(-t.sum())


def gradient(x, obs):
    """Gradient of :func:`neg_log_likelihood` at ``x``.

    Zero off the sample set; ``1 - y_ij / x_ij`` on it, from
    :func:`_sampled_gradient`. The solvers never build this matrix: they
    apply ``_sampled_gradient`` to the sampled entries and write the step
    into those cells only. Off the sample set the step subtracts
    ``0.0 / L``, which leaves every entry unchanged, so both ways give
    the same bits.
    """
    x = as_matrix(x, shape=obs.shape)
    g = np.zeros(obs.shape)
    g[obs.rows, obs.cols] = _sampled_gradient(x[obs.rows, obs.cols], obs.counts)
    return g


def _sampled_gradient(vals, counts):
    """``gradient`` at the sampled entries ``vals`` alone: ``1 - counts / vals``.

    ``vals`` and ``counts`` are in the stored sample order. Raises
    ``NonPositiveEntryAtObservation`` unless every entry of ``vals`` is
    positive.
    """
    if (vals <= 0.0).any():
        raise NonPositiveEntryAtObservation(
            "gradient needs x > 0 at every sampled cell"
        )
    return 1.0 - counts / vals


def lipschitz_constant(region):
    """``alpha / beta**2``, the first rung of the pg and apg step search.

    The curvature at a sampled cell is ``y / x**2``, so on the region's box
    this is a Lipschitz constant of :func:`gradient` only when every count
    ``y`` is at most alpha. Above that the search climbs from it (see
    ``solvers``).
    """
    return region.alpha / region.beta**2


def _positive_rates(p, q):
    """``p`` and ``q`` as float arrays; raises unless every rate is positive."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.any(p <= 0.0) or np.any(q <= 0.0):
        raise NonPositiveParameter("rates must be strictly positive")
    return p, q


def _scalar_or_array(out):
    return float(out) if out.ndim == 0 else out


def kl(p, q):
    """KL divergence between Poisson rates, ``p*log(p/q) - (p - q)``.

    Accepts scalars or same-shape arrays (elementwise).
    """
    p, q = _positive_rates(p, q)
    return _scalar_or_array(p * np.log(p / q) - (p - q))


def hellinger_sq(p, q):
    """Squared Hellinger distance between Poisson rates.

    ``2 - 2*exp(-(sqrt(p) - sqrt(q))**2 / 2)``; symmetric, in [0, 2).
    """
    p, q = _positive_rates(p, q)
    z = 0.5 * (np.sqrt(p) - np.sqrt(q)) ** 2
    return _scalar_or_array(-2.0 * np.expm1(-z))


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
    t = _power(alpha - beta, 2) / (8.0 * beta)
    if t == 0.0:
        return 1.0 / (4.0 * alpha)
    return -math.expm1(-t) / (4.0 * alpha * t)
