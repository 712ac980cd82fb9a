"""Shared numeric primitives: stable nonlinearities, seeded sampling,
k-means and a finite-difference gradient checker.

All floating point work is float64. Randomness always flows through an
explicit ``numpy.random.Generator`` backed by PCG64 so that fixed seeds give
bit-identical streams on every platform.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from functools import partial

import numpy as np

__all__ = [
    "NumericFailure",
    "make_rng",
    "substream_rng",
    "softmax",
    "sigmoid",
    "softplus",
    "log_sigmoid",
    "DiscreteSampler",
    "kmeans",
    "fd_gradcheck",
]


class NumericFailure(Exception):
    """Raised when a pipeline produces non-finite values."""


# Points per block of exact k-means distances, taken only for the rows the BLAS
# form cannot certify: 64 x 100 centroids x 50 dims is 2.5 MB.
KMEANS_BLOCK = 64


def make_rng(seed):
    """Return a PCG64-backed Generator for the given 64-bit seed."""
    return np.random.Generator(np.random.PCG64(seed))


def substream_rng(seed, name):
    """Derive an independent, reproducible stream for a named component.

    Mixing the component name through SHA-256 means adding a new randomized
    stage never perturbs the streams of existing stages.
    """
    digest = hashlib.sha256(f"{seed}:{name}".encode("utf-8")).digest()
    return make_rng(int.from_bytes(digest[:8], "little"))


def softmax(v):
    """Numerically stable softmax of a 1-D vector."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ValueError("softmax of empty vector")
    shifted = v - v.max()
    e = np.exp(shifted)
    return e / e.sum()


def sigmoid(x):
    """Logistic function, stable for arguments of any magnitude."""
    x = np.asarray(x, dtype=np.float64)
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, so exp never overflows
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def softplus(x):
    """ln(1 + e^x) with the usual max(x, 0) + log1p(exp(-|x|)) guard."""
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def log_sigmoid(x):
    """log σ(x) = -softplus(-x), avoids the σ→0 underflow."""
    return -softplus(-np.asarray(x, dtype=np.float64))


def _cdf(w, total):
    """The cumulative sum of ``w / total`` with its last entry set to 1.0, so
    that every ``u`` in [0, 1) lies below it."""
    cdf = np.cumsum(w / total)
    cdf[-1] = 1.0
    return cdf


class DiscreteSampler:
    """Sample indices proportionally to a fixed non-negative weight vector.

    A draw is a function of one double ``u`` in [0, 1): ``index(u)`` is the
    index of the first CDF entry above ``u``, and ``sample(rng)`` is
    ``index(rng.random())``, consuming exactly one double at every size.
    Seeded training relies on this: it may read a generator's doubles ahead,
    map each one with ``index`` and get the draws that ``sample`` calls
    would give.
    """

    def __init__(self, weights):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-D array")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite and non-negative")
        total = w.sum()
        if total <= 0:
            raise ValueError("at least one weight must be positive")
        self.weights = w
        self._multi_support = np.count_nonzero(w) > 1
        # index(u): a search of a Python list with no Python frame per call,
        # since per-draw numpy calls on scalars, or a method call, cost more
        # than the search itself
        self.index = partial(bisect_right, _cdf(w, total).tolist())

    def can_reject(self, observed):
        """Whether some draw other than ``observed`` has positive weight, so
        that rejection sampling of ``observed`` terminates."""
        return self._multi_support or self.weights[observed] == 0

    def sample(self, rng):
        """Draw one index with probability weights[i] / sum(weights)."""
        return self.index(rng.random())


def _kmeans_pp_init(points, k, rng):
    """k-means++ seeding: first centroid uniform, the rest D^2-weighted.

    Each weighted draw takes one double ``u`` and returns the first index
    whose ``_cdf(d2)`` entry is above it, as ``DiscreteSampler(d2).sample``
    would; a zero total (every point on a centroid) draws uniformly instead.
    """
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    idx = int(rng.integers(n))
    centroids[0] = points[idx]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    diff = np.empty_like(points)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(np.searchsorted(_cdf(d2, total), rng.random(), side="right"))
        centroids[j] = points[idx]
        np.subtract(points, centroids[j], out=diff)
        np.minimum(d2, np.sum(np.square(diff, out=diff), axis=1), out=d2)
    return centroids


def _sq_distances(points, centroids):
    """n x k squared distances, one block of ``KMEANS_BLOCK`` points at a
    time so the n x k x d difference tensor is never built whole."""
    d2 = np.empty((points.shape[0], centroids.shape[0]))
    for lo in range(0, points.shape[0], KMEANS_BLOCK):
        block = points[lo:lo + KMEANS_BLOCK]
        d2[lo:lo + KMEANS_BLOCK] = ((block[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return d2


def _nearest(points, sq_norms, centroids):
    """Each point's nearest centroid (first index on ties) and its squared
    distance, exactly as ``_sq_distances(...).argmin(axis=1)`` gives them.

    Distances come from one BLAS product, ||x||^2 - 2 x.c + ||c||^2. Each
    form is within about (d + 2) eps (||x||^2 + ||c||^2) of the true
    distance, so ``tol``, 8 times that, bounds their difference per entry: a
    row whose best two differ by more than 2 tol has the same unique minimum
    in both, and only the other rows are redone with ``_sq_distances``.
    """
    cc = (centroids ** 2).sum(axis=1)
    d2 = sq_norms[:, None] - 2.0 * (points @ centroids.T) + cc
    assign = d2.argmin(axis=1)
    if centroids.shape[0] > 1:
        best_two = np.partition(d2, 1, axis=1)
        tol = 8 * (points.shape[1] + 2) * np.finfo(np.float64).eps * (sq_norms + cc.max())
        unsure = np.flatnonzero(best_two[:, 1] - best_two[:, 0] <= 2.0 * tol)
        if unsure.size:
            assign[unsure] = _sq_distances(points[unsure], centroids).argmin(axis=1)
    # the same length-d reduction as _sq_distances, so the same bits
    closest = ((points - centroids[assign]) ** 2).sum(axis=1)
    return assign, closest


def kmeans(points, k, max_iters, rng):
    """Lloyd's algorithm with k-means++ seeding.

    Returns the final assignment. Empty clusters are reseeded with the
    point farthest from its centroid.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if k <= 0:
        raise ValueError("k must be positive")
    if k > n:
        raise ValueError(f"k={k} exceeds number of points {n}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if not np.isfinite(points).all():
        raise ValueError("points must be finite")
    centroids = _kmeans_pp_init(points, k, rng)
    sq_norms = (points ** 2).sum(axis=1)
    assign = None
    for _ in range(max_iters):
        new_assign, closest = _nearest(points, sq_norms, centroids)
        # a stable sort keeps each cluster's members in index order, so each
        # mean sums the same rows in the same order as a boolean mask would
        order = np.argsort(new_assign, kind="stable")
        sorted_points = points[order]
        bounds = np.searchsorted(new_assign[order], np.arange(k + 1))
        for j in range(k):
            lo, hi = bounds[j], bounds[j + 1]
            if lo == hi:
                centroids[j] = points[int(closest.argmax())]
            else:
                centroids[j] = sorted_points[lo:hi].mean(axis=0)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
    # Final assignment against the final centroids.
    assign, _ = _nearest(points, sq_norms, centroids)
    return assign


def fd_gradcheck(loss_fn, params, analytic_grads, eps=1e-5):
    """Max relative error between central differences and analytic gradients.

    ``loss_fn`` takes the parameter list and returns a scalar; params and
    analytic_grads are matching lists of arrays. Relative error is
    |fd - analytic| / max(|analytic|, 1e-8) taken entrywise.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ValueError("eps out of the supported [1e-7, 1e-3] range")
    params = [np.asarray(p, dtype=np.float64) for p in params]
    worst = 0.0
    for p, g in zip(params, analytic_grads):
        g = np.asarray(g, dtype=np.float64)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            ix = it.multi_index
            orig = p[ix]
            p[ix] = orig + eps
            hi = loss_fn(params)
            p[ix] = orig - eps
            lo = loss_fn(params)
            p[ix] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise ValueError("loss is not finite near the given point")
            fd = (hi - lo) / (2.0 * eps)
            err = abs(fd - g[ix]) / max(abs(g[ix]), 1e-8)
            worst = max(worst, err)
            it.iternext()
    return worst
