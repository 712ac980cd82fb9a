"""Shared numeric primitives: stable nonlinearities, seeded sampling,
k-means and a finite-difference gradient checker.

All floating point work is float64. Randomness always flows through an
explicit ``numpy.random.Generator`` backed by PCG64 so that fixed seeds give
bit-identical streams on every platform.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right

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


# Above this many outcomes the alias method beats a binary search on the CDF.
ALIAS_THRESHOLD = 1024
# Points per block of k-means distances: 64 x 100 centroids x 50 dims is 2.5 MB.
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
    out = np.where(x >= 0, 1.0, e) / (1.0 + e)
    if out.ndim == 0:
        return float(out)
    return out


def softplus(x):
    """ln(1 + e^x) with the usual max(x, 0) + log1p(exp(-|x|)) guard."""
    x = np.asarray(x, dtype=np.float64)
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    if out.ndim == 0:
        return float(out)
    return out


def log_sigmoid(x):
    """log σ(x) = -softplus(-x), avoids the σ→0 underflow."""
    return -softplus(-np.asarray(x, dtype=np.float64))


class DiscreteSampler:
    """Sample indices proportionally to a fixed non-negative weight vector.

    Uses an alias table above ``ALIAS_THRESHOLD`` outcomes and inverse-CDF
    binary search below; the behavioral contract is identical either way.

    The draw order is part of the contract, since seeded training replays
    it: each ``sample`` call consumes exactly one ``rng.random()`` (inverse
    CDF, index = first CDF entry above it) or one ``rng.integers(n)``
    followed by one ``rng.random()`` (alias), so the same generator state
    gives the same draws.
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
        self.n = w.size
        self._multi_support = np.count_nonzero(w) > 1
        self._use_alias = self.n > ALIAS_THRESHOLD
        # The draw path indexes Python lists: per-draw numpy calls on
        # scalars cost more than the draw itself.
        if self._use_alias:
            self._build_alias(w / total)
        else:
            cdf = np.cumsum(w / total)
            cdf[-1] = 1.0
            self._cdf = cdf.tolist()

    def can_reject(self, observed):
        """Whether some draw other than ``observed`` has positive weight, so
        that rejection sampling of ``observed`` terminates."""
        return self._multi_support or self.weights[observed] == 0

    def _build_alias(self, p):
        n = self.n
        prob = np.empty(n)
        alias = np.zeros(n, dtype=np.int64)
        scaled = p * n
        small = [i for i in range(n) if scaled[i] < 1.0]
        large = [i for i in range(n) if scaled[i] >= 1.0]
        while small and large:
            s = small.pop()
            l = large.pop()
            prob[s] = scaled[s]
            alias[s] = l
            scaled[l] = scaled[l] - (1.0 - scaled[s])
            if scaled[l] < 1.0:
                small.append(l)
            else:
                large.append(l)
        for i in large:
            prob[i] = 1.0
        for i in small:
            prob[i] = 1.0
        self._prob = prob.tolist()
        self._alias = alias.tolist()

    def sample(self, rng):
        """Draw one index with probability weights[i] / sum(weights)."""
        if self._use_alias:
            i = int(rng.integers(self.n))
            if rng.random() < self._prob[i]:
                return i
            return self._alias[i]
        return bisect_right(self._cdf, rng.random())


def _kmeans_pp_init(points, k, rng):
    """k-means++ seeding: first centroid uniform, the rest D^2-weighted."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    idx = int(rng.integers(n))
    centroids[0] = points[idx]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = DiscreteSampler(d2).sample(rng)
        centroids[j] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centroids[j]) ** 2, axis=1))
    return centroids


def _sq_distances(points, centroids):
    """n x k squared distances, one block of ``KMEANS_BLOCK`` points at a
    time so the n x k x d difference tensor is never built whole."""
    d2 = np.empty((points.shape[0], centroids.shape[0]))
    for lo in range(0, points.shape[0], KMEANS_BLOCK):
        block = points[lo:lo + KMEANS_BLOCK]
        d2[lo:lo + KMEANS_BLOCK] = ((block[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return d2


def kmeans(points, k, max_iters, rng, return_objective=False):
    """Lloyd's algorithm with k-means++ seeding.

    Returns the final assignment (and per-iteration objectives if asked).
    Empty clusters are reseeded with the point farthest from its centroid.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if k <= 0:
        raise ValueError("k must be positive")
    if k > n:
        raise ValueError(f"k={k} exceeds number of points {n}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    centroids = _kmeans_pp_init(points, k, rng)
    objectives = []
    assign = None
    for _ in range(max_iters):
        d2 = _sq_distances(points, centroids)
        new_assign = d2.argmin(axis=1)
        closest = d2[np.arange(n), new_assign]
        objectives.append(float(closest.sum()))
        for j in range(k):
            members = points[new_assign == j]
            if len(members) == 0:
                centroids[j] = points[int(closest.argmax())]
            else:
                centroids[j] = members.mean(axis=0)
        if assign is not None and np.array_equal(new_assign, assign):
            assign = new_assign
            break
        assign = new_assign
    # Final assignment against the final centroids.
    d2 = _sq_distances(points, centroids)
    assign = d2.argmin(axis=1)
    objectives.append(float(d2[np.arange(n), assign].sum()))
    if return_objective:
        return assign, objectives
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
