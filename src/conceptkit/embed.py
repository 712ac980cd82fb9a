"""Multi-task skip-gram training over grouped feature events, plus the
embedding-derived discrete features (binarization, k-means clusters).

With only the word-context group enabled this is exactly skip-gram with
negative sampling; the extra groups add POS, taxonomic and self-trained
prediction tasks sharing the center-word vectors.

Seeded training is bit-reproducible, and two orders are part of that
contract. Draws: events are visited in one ``rng.permutation`` per epoch,
and each event's negatives are drawn one ``DiscreteSampler.sample`` call at
a time, a draw equal to the observed feature being rejected and redrawn.
Accumulation: all gradients are taken at the pre-update point; the word
gradient is summed sequentially from ``0.0``, the positive term first and
then the negatives in draw order; a negative row's gradient starts as
``0.0 + g * v_w`` and sums its repeated draws in order before the row is
updated once.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import corpus as corpus_mod
from .artifact import atomic_write
from .numerics import (
    DiscreteSampler,
    NumericFailure,
    kmeans,
    log_sigmoid,
    sigmoid,
    softmax,
    softplus,
    substream_rng,
)

log = logging.getLogger(__name__)

__all__ = [
    "EmbeddingSet",
    "SkipNerConfig",
    "group_prob",
    "ns_loss",
    "sgd_step",
    "build_group_samplers",
    "train_skipner",
    "nearest_neighbors",
    "binarize",
    "cluster_words",
    "save_embeddings",
    "load_embeddings",
]


@dataclass
class EmbeddingSet:
    """Center-word vectors (V x d) and per-group feature vectors."""

    tokens: list
    word_vectors: np.ndarray
    feature_vectors: dict = field(default_factory=dict)  # group key -> (G x d)

    @property
    def dims(self):
        return self.word_vectors.shape[1]

    def id_of(self, token):
        if not hasattr(self, "_index"):
            self._index = {t: i for i, t in enumerate(self.tokens)}
        return self._index.get(token)

    def vector(self, token):
        idx = self.id_of(token)
        if idx is None:
            raise KeyError(f"token {token!r} not in embedding vocabulary")
        return self.word_vectors[idx]


@dataclass
class SkipNerConfig:
    dims: int = 50
    window: int = 2
    negatives: int = 5
    lr_initial: float = 0.025
    lr_final: float = 1e-4
    epochs: int = 1
    groups: tuple = (corpus_mod.WORD,)
    unigram_exponent: float = 1.0
    seed: int = 1
    min_count: int = 1  # rarer words are dropped from the vocabulary
    clusters: tuple = (100,)  # k-means cluster counts for the CRF features

    def __post_init__(self):
        if self.dims < 1:
            raise ValueError("dims must be >= 1")
        if self.negatives < 1:
            raise ValueError("negatives must be >= 1")


def group_prob(emb, group_key, wid, fid):
    """Exact grouped softmax p(f | w) = exp(v_f.v_w) / sum over the group."""
    feats = emb.feature_vectors.get(group_key)
    if feats is None or not (0 <= fid < feats.shape[0]):
        raise KeyError(f"unknown feature {fid} in group {group_key}")
    if not (0 <= wid < emb.word_vectors.shape[0]):
        raise KeyError(f"unknown word id {wid}")
    scores = feats @ emb.word_vectors[wid]
    return softmax(scores)[fid]


def ns_loss(emb, wid, fid, group_key, negatives):
    """Negated negative-sampling objective for one event with fixed draws;
    the finite-difference reference for the update's gradient."""
    vw = emb.word_vectors[wid]
    feats = emb.feature_vectors[group_key]
    loss = -log_sigmoid(feats[fid] @ vw)
    for nid in negatives:
        loss -= log_sigmoid(-(feats[nid] @ vw))
    return float(loss)


def _apply_ns_gradient(emb, wid, fid, group_key, negatives, lr):
    """Apply one negative-sampling update, in the accumulation order the
    module docstring gives, and return the pre-update loss.

    The positive and negative rows are gathered once and each is scored
    with its own 1-D dot product; one ``sigmoid`` call covers all scores.
    """
    vw = emb.word_vectors[wid]
    feats = emb.feature_vectors[group_key]
    ids = [fid, *negatives]
    rows = feats[ids]
    scores = np.array([row.dot(vw) for row in rows])
    # d/ds of -log σ(s) is σ(s) - 1 for the positive, σ(s) for a negative
    g = sigmoid(scores)
    g[0] -= 1.0
    # loss = -log σ(s_pos) - Σ log σ(-s_neg) = softplus(-s_pos) + Σ softplus(s_neg)
    scores[0] = -scores[0]
    loss = float(softplus(scores).sum())
    # accumulate is sequential: ((0.0 + g_0 f_0) + g_1 f_1) + ...
    terms_w = g[:, None] * rows
    terms_w[0] += 0.0
    grad_w = np.add.accumulate(terms_w)[-1]
    grad_f = np.multiply.outer(g, vw)
    grad_f[1:] += 0.0
    if len(set(ids)) < len(ids):
        # sum each repeated negative into the row of its first draw
        first = {}
        for k, i in enumerate(ids):
            j = first.setdefault(i, k)
            if j != k:
                grad_f[j] += grad_f[k]
        keep = list(first.values())
        ids, rows, grad_f = list(first), rows[keep], grad_f[keep]
    grad_f *= lr
    rows -= grad_f
    feats[ids] = rows
    grad_w *= lr
    vw -= grad_w
    return loss


def sgd_step(emb, event, sampler, lr, n, rng):
    """One negative-sampling update; returns the negated objective term.

    Negatives are drawn from the event's group sampler before the update so
    the returned loss is the pre-update value. A draw equal to the observed
    feature is rejected and redrawn, unless no other feature can be drawn,
    in which case the event has no negatives.
    """
    fid = event.feature_id
    negatives = []
    if sampler.can_reject(fid):
        while len(negatives) < n:
            draw = sampler.sample(rng)
            if draw != fid:  # never use the observed feature as its own negative
                negatives.append(draw)
    return _apply_ns_gradient(
        emb, event.center_word_id, fid, event.group_key, negatives, lr
    )


def build_group_samplers(events, table, exponent=1.0):
    """Unigram sampler per group from event frequencies, with optional
    exponent smoothing (1.0 reproduces the plain unigram distribution)."""
    counts = {}
    for ev in events:
        arr = counts.setdefault(ev.group_key, {})
        arr[ev.feature_id] = arr.get(ev.feature_id, 0) + 1
    samplers = {}
    for key, per_feat in counts.items():
        size = table.group_size(key)
        w = np.zeros(size)
        for fid, c in per_feat.items():
            w[fid] = c
        samplers[key] = DiscreteSampler(np.power(w, exponent))
    return samplers


def init_embeddings(vocab_size, dims, table, groups_present, rng):
    """Word vectors uniform in [-0.5/d, 0.5/d]; feature vectors zero."""
    wv = (rng.random((vocab_size, dims)) - 0.5) / dims
    feats = {
        key: np.zeros((table.group_size(key), dims))
        for key in table.group_keys()
        if key.split(":")[0] in groups_present
    }
    return wv, feats


def train_skipner(corpus, vocab, config, taxonomy=None):
    """Train the multi-task embedding over all enabled feature groups.

    Deterministic for a fixed seed (single-worker). Returns the EmbeddingSet
    and the FeatureGroupTable used to intern features. The first event whose
    loss is not finite raises NumericFailure naming its epoch and step.
    """
    if not config.groups:
        raise ValueError("at least one feature group must be enabled")
    table = corpus_mod.FeatureGroupTable()
    events = list(
        corpus_mod.extract_feature_events(
            corpus,
            vocab,
            table,
            window=config.window,
            groups=config.groups,
            taxonomy=taxonomy,
        )
    )
    if not events:
        raise ValueError("no feature events extracted")
    samplers = build_group_samplers(events, table, config.unigram_exponent)
    rng = substream_rng(config.seed, "embed.train")
    wv, feats = init_embeddings(
        len(vocab), config.dims, table, set(config.groups), rng
    )
    emb = EmbeddingSet(
        tokens=list(vocab.id_to_token), word_vectors=wv, feature_vectors=feats
    )
    total = config.epochs * len(events)
    step = 0
    for epoch in range(config.epochs):
        for idx in rng.permutation(len(events)):
            ev = events[idx]
            frac = step / max(1, total)
            lr = config.lr_initial + (config.lr_final - config.lr_initial) * frac
            loss = sgd_step(emb, ev, samplers[ev.group_key], lr, config.negatives, rng)
            step += 1
            if not math.isfinite(loss):
                raise NumericFailure(
                    f"embedding training loss is not finite at epoch {epoch}, step {step}"
                )
    return emb, table


def nearest_neighbors(emb, query, k):
    """Top-k neighbors of the query word by cosine, query excluded."""
    qid = emb.id_of(query)
    if qid is None:
        raise KeyError(f"query {query!r} not in vocabulary")
    wv = emb.word_vectors
    norms = np.linalg.norm(wv, axis=1)
    q = wv[qid]
    qn = np.linalg.norm(q)
    denom = norms * (qn if qn > 0 else 1.0)
    denom[denom == 0] = 1.0
    cos = (wv @ q) / denom
    order = [i for i in np.argsort(-cos, kind="stable") if i != qid]
    return [(emb.tokens[i], float(cos[i])) for i in order[:k]]


def binarize(emb):
    """Map each embedding entry to {-1, 0, 1} against its dimension's
    positive/negative means. Returns a (dims x V) integer matrix.

    Dimensions with no positive (resp. negative) entries use a +inf (-inf)
    sentinel mean so no entry qualifies on that side.
    """
    W = emb.word_vectors.T  # rows are dimensions
    d, v = W.shape
    out = np.zeros((d, v), dtype=np.int8)
    for m in range(d):
        row = W[m]
        pos = row[row > 0]
        neg = row[row < 0]
        pos_mean = pos.mean() if pos.size else np.inf
        neg_mean = neg.mean() if neg.size else -np.inf
        out[m, row >= pos_mean] = 1
        out[m, row <= neg_mean] = -1
    return out


def cluster_words(emb, ks, seed, max_iters=50):
    """One k-means clustering of the word vectors per requested K."""
    result = {}
    for k in ks:
        if k > emb.word_vectors.shape[0]:
            raise ValueError(f"K={k} exceeds vocabulary size")
        rng = substream_rng(seed, f"embed.cluster.{k}")
        result[k] = kmeans(emb.word_vectors, k, max_iters, rng)
    return result


def save_embeddings(emb, path):
    """Text format: header ``<vocab_count> <dims>`` then one
    ``token v1 ... vd`` line per word, 17 significant digits."""
    with atomic_write(path) as f:
        v, d = emb.word_vectors.shape
        f.write(f"{v} {d}\n")
        for token, vec in zip(emb.tokens, emb.word_vectors):
            f.write(token + " " + " ".join(f"{x:.17g}" for x in vec) + "\n")


def load_embeddings(path):
    with open(path, encoding="utf-8") as f:
        header = f.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: malformed header")
        v, d = int(header[0]), int(header[1])
        tokens = []
        rows = []
        for line in f:
            parts = line.rstrip("\n").split(" ")
            if len(parts) != d + 1:
                raise ValueError(f"{path}: line has {len(parts)-1} values, expected {d}")
            tokens.append(parts[0])
            rows.append([float(x) for x in parts[1:]])
        if len(tokens) != v:
            raise ValueError(f"{path}: header declares {v} rows, found {len(tokens)}")
    return EmbeddingSet(tokens=tokens, word_vectors=np.array(rows, dtype=np.float64))
