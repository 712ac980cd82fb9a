"""Multi-task skip-gram training over grouped feature events, plus the
embedding-derived discrete features (binarization, k-means clusters).

With only the word-context group enabled this is exactly skip-gram with
negative sampling; the extra groups add POS, taxonomic and self-trained
prediction tasks sharing the center-word vectors.

Seeded training is bit-reproducible: the trained vectors are those of
applying the events' updates one at a time, in order. Three orders are
part of that contract.

- Draws: events are visited in one ``rng.permutation`` per epoch. Each
  event's negatives are drawn in order, each one a function of the next
  double of the generator's ``rng.random()`` stream, ``sampler.index(u)``;
  a draw equal to the observed feature is rejected and redrawn. After a
  pass the generator is where one ``rng.random()`` call per draw leaves it.
- Accumulation: all of an update's gradients are taken at the pre-update
  point; the word gradient is summed sequentially from ``0.0``, the
  positive term first and then the negatives in draw order; a negative
  row's gradient starts as ``0.0 + g * v_w`` and sums its repeated draws
  in order before the row is updated once.
- Updates: an event's update reads and writes exactly its word row, its
  observed feature row and its negative rows. Two updates that share no
  row commute exactly, since neither reads what the other writes, so only
  updates that share a row must keep their event order.

Training uses this to batch. It takes each epoch's events in windows of
``_WINDOW`` and draws every event's negatives in event order; draws never
read the vectors, so the stream is unchanged. A window reads its doubles
ahead in blocks of ``negatives`` times its length (``_read_ahead``): for
PCG64, ``rng.random(k)`` gives the doubles of ``k`` scalar calls. It gives
each event a level one above the highest level of any earlier event in the
window that shares a row with it, and applies the levels in order, each
as one batched update (``_ns_update``). An event's rows are then written,
before it reads them, by exactly the earlier events that share them, and
by no later one: it reads what it would read one event at a time. The
batched update keeps each event's arithmetic: ``np.vecdot`` scores with
the bits of 1-D ``ndarray.dot``, and the same elementwise steps and sums
along the slot axis.
"""

from __future__ import annotations

import itertools
import logging
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import corpus as corpus_mod
from .artifact import write_records
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

# Events drawn, levelled and applied together (not SkipNerConfig's context
# window). It bounds the plan's memory; its levels are nearly as few as a
# whole epoch's.
_WINDOW = 2048

__all__ = [
    "EmbeddingSet",
    "SkipNerConfig",
    "group_prob",
    "ns_loss",
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


def _ns_update(W, F, wids, reads, lr, pads=None, dups=None, out=None):
    """Apply the negative-sampling updates of B events that share no row, in
    the accumulation order the module docstring gives, and return their
    (k, B) scores, the observed feature's first.

    Event i updates word row ``W[wids[i]]`` with learning rate ``lr[i]``,
    and the rows ``F[reads[:, i]]``: its observed feature, then its
    negatives in draw order, and the updated rows are stored back there.
    ``pads`` marks padding slots, which read a zero row: their scores are
    pinned to -inf, and σ(-inf) is exactly +0.0, so a pad adds +0.0 to the
    word gradient and writes the zero row back unchanged. ``dups``
    holds flat slot positions ``(dst, src)`` over (k, B): each repeated
    draw ``src`` is summed, in order, into the slot of its first draw
    ``dst``, and both slots then hold the one updated row.
    """
    vw = W.take(wids, axis=0)
    rows = F.take(reads, axis=0)
    scores = np.vecdot(rows, vw, out=out)  # the bits of 1-D ndarray.dot
    if pads is not None:
        np.copyto(scores, -np.inf, where=pads)
    # d/ds of -log σ(s) is σ(s) - 1 for the positive, σ(s) for a negative
    g = sigmoid(scores)
    g[0] -= 1.0
    # summed in slot order from 0.0: ((0.0 + g_0 f_0) + g_1 f_1) + ...
    terms_w = g[..., None] * rows
    grad_w = terms_w[0]
    grad_w += 0.0
    for term in terms_w[1:]:
        grad_w += term
    grad_f = g[..., None] * vw
    grad_f[1:] += 0.0
    if dups is not None:
        dst, src = dups
        flat = grad_f.reshape(-1, grad_f.shape[-1])
        np.add.at(flat, dst, flat[src])  # pair by pair, in order
    lr = lr[:, None]
    grad_f *= lr
    rows -= grad_f
    if dups is not None:
        flat = rows.reshape(-1, rows.shape[-1])
        flat[src] = flat[dst]
    F[reads] = rows
    grad_w *= lr
    vw -= grad_w
    W[wids] = vw
    return scores


def _repeats(R, counts, pad=-1):
    """The ``dups`` argument of each level's ``_ns_update`` call.

    ``R`` (m, k) holds m events' rows of F, level by level, ``counts[l]``
    events in level l. Within each event, every id equal to an earlier one
    (other than ``pad``) is paired with the slot of its first occurrence,
    in draw order. Returns one ``(dst, src)`` per level, None where no id
    repeats.
    """
    m, k = R.shape
    srt = np.argsort(R, axis=1, kind="stable")
    ids = np.take_along_axis(R, srt, axis=1)
    new = np.ones((m, k), dtype=bool)
    new[:, 1:] = (ids[:, 1:] != ids[:, :-1]) | (ids[:, 1:] == pad)
    first = np.maximum.accumulate(np.where(new, np.arange(k), 0), axis=1)
    e, j = np.nonzero(~new)
    # slot s of the event of rank r in a level of b events is s * b + r
    level = np.repeat(np.arange(len(counts)), counts)[e]
    b = counts[level]
    r = e - (np.cumsum(counts) - counts)[level]
    dst = srt[e, first[e, j]] * b + r
    src = srt[e, j] * b + r
    cut = np.searchsorted(level, np.arange(len(counts) + 1)).tolist()
    return [(dst[lo:hi], src[lo:hi]) if hi > lo else None for lo, hi in zip(cut, cut[1:])]


def _losses(scores):
    """Each event's negated objective from its (k, B) scores, whose first
    row is negated in place: softplus(-s_pos) + Σ softplus(s_neg)."""
    scores[0] = -scores[0]
    return softplus(scores).sum(axis=0)


def _apply_ns_gradient(emb, wid, fid, group_key, negatives, lr):
    """Apply one negative-sampling update, in the accumulation order the
    module docstring gives, and return the pre-update loss: the batch of
    one of ``_ns_update``."""
    R = np.array([[fid, *negatives]])
    scores = _ns_update(
        emb.word_vectors,
        emb.feature_vectors[group_key],
        np.array([wid]),
        R.T,
        np.array([lr]),
        dups=_repeats(R, np.array([1]))[0],
    )
    return float(_losses(scores)[0])


def _draw_negatives(sampler, fid, n, doubles):
    """``n`` negatives for observed feature ``fid``, in draw order: each
    draw is ``sampler.index`` of the next double taken from the iterator
    ``doubles``. A draw equal to ``fid`` is rejected and redrawn, unless no
    other feature can be drawn, in which case there are no negatives and no
    double is taken."""
    negatives = []
    if n > 0 and sampler.can_reject(fid):
        index = sampler.index
        for u in doubles:
            draw = index(u)
            if draw != fid:  # never use the observed feature as its own negative
                negatives.append(draw)
                if len(negatives) == n:
                    break
    return negatives


@contextmanager
def _read_ahead(rng, k):
    """Yield an iterator over ``rng``'s doubles, read ``k`` at a time with
    ``rng.random(k)``. On exit ``rng`` is where one ``rng.random()`` call
    per double taken would leave it: its state is restored and exactly the
    doubles taken are drawn again. ``PCG64.advance`` would not do: it drops
    the buffered 32-bit half that ``rng.permutation`` leaves."""
    state = rng.bit_generator.state
    read, block = 0, iter(())

    def doubles():
        nonlocal read, block
        while True:
            block = iter(rng.random(k).tolist())
            read += k
            yield from block

    yield doubles()
    taken = read - len(list(block))  # the rest of the last block was not taken
    rng.bit_generator.state = state
    rng.random(taken)


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


def init_embeddings(vocab_size, dims, table, rng):
    """Word vectors uniform in [-0.5/d, 0.5/d]; feature vectors zero.

    Every group's feature vectors are a view of one matrix ``F``, from row
    ``offsets[key]``; ``F`` has one row more, the zero row that padding
    reads and writes. Returns ``(wv, F, feats, offsets)``.
    """
    wv = (rng.random((vocab_size, dims)) - 0.5) / dims
    keys = table.group_keys()
    sizes = [table.group_size(k) for k in keys]
    F = np.zeros((sum(sizes) + 1, dims))
    offsets = dict(zip(keys, np.cumsum([0] + sizes[:-1]).tolist()))
    feats = {k: F[offsets[k]:offsets[k] + size] for k, size in zip(keys, sizes)}
    return wv, F, feats, offsets


def _train_window(wv, F, events, window, lr, rng, n, groups):
    """Train one window of events: draw every event's negatives in event
    order, give each event a level, and apply the levels in order.

    ``groups`` maps a group key to its first row of ``F`` and its sampler.
    Returns the window position of the first event whose loss is not
    finite, or None.
    """
    zero = F.shape[0] - 1
    padding = [zero] * n  # so that every level is one kernel call
    # the highest level so far that touched each word row and row of F
    last_w, last_f = [-1] * wv.shape[0], [-1] * F.shape[0]
    levels, reads, wids = [], [], []
    with _read_ahead(rng, n * len(window)) as doubles:
        for idx in window:
            ev = events[idx]
            wid, fid = ev.center_word_id, ev.feature_id
            offset, sampler = groups[ev.group_key]
            negatives = _draw_negatives(sampler, fid, n, doubles)
            ids = [offset + fid, *[offset + draw for draw in negatives]]
            # one above every earlier event of the window that shares a row
            lvl = max(last_w[wid], *[last_f[r] for r in ids]) + 1
            last_w[wid] = lvl
            for r in ids:
                last_f[r] = lvl
            levels.append(lvl)
            reads.append(ids if negatives else ids + padding)
            wids.append(wid)
    order = np.argsort(levels, kind="stable")
    counts = np.bincount(levels)
    R = np.array(reads)[order]
    reads = np.ascontiguousarray(R.T)  # (k, m): slot-major, as _ns_update takes it
    pads = reads == zero
    wids = np.array(wids)[order]
    lr = lr[order]
    scores = np.empty(reads.shape)
    hi = 0
    for count, dups in zip(counts.tolist(), _repeats(R, counts, zero)):
        lo, hi = hi, hi + count
        _ns_update(
            wv, F, wids[lo:hi], reads[:, lo:hi], lr[lo:hi], pads[:, lo:hi], dups,
            out=scores[:, lo:hi],
        )
    # a padding slot adds softplus(-inf) = 0.0 to its event's loss
    bad = order[~np.isfinite(_losses(scores))]
    return int(bad.min()) if bad.size else None


def train_skipner(corpus, vocab, config, taxonomy=None):
    """Train the multi-task embedding over all enabled feature groups.

    Deterministic for a fixed seed (single-worker), with the bits of
    applying the events one at a time in ``rng.permutation`` order, each
    event's negatives drawn from the next doubles of ``rng.random()``: each
    window of ``_WINDOW`` events is drawn in that order, from doubles read
    ahead in blocks, and applied in levels of events that share no row (see
    the module docstring). Returns the EmbeddingSet and the
    FeatureGroupTable used to intern features. The first event whose loss
    is not finite raises NumericFailure naming its epoch and step, once its
    window has been applied.
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
    wv, F, feats, offsets = init_embeddings(len(vocab), config.dims, table, rng)
    emb = EmbeddingSet(
        tokens=list(vocab.id_to_token), word_vectors=wv, feature_vectors=feats
    )
    groups = {key: (offsets[key], sampler) for key, sampler in samplers.items()}
    total = config.epochs * len(events)
    step = 0
    for epoch in range(config.epochs):
        perm = rng.permutation(len(events))
        for lo in range(0, len(perm), _WINDOW):
            window = perm[lo:lo + _WINDOW].tolist()
            frac = np.arange(step, step + len(window)) / max(1, total)
            lr = config.lr_initial + (config.lr_final - config.lr_initial) * frac
            bad = _train_window(wv, F, events, window, lr, rng, config.negatives, groups)
            if bad is not None:
                raise NumericFailure(
                    "embedding training loss is not finite at "
                    f"epoch {epoch}, step {step + bad + 1}"
                )
            step += len(window)
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


def cluster_words(emb, ks, seed):
    """One k-means clustering of the word vectors per requested K."""
    result = {}
    for k in ks:
        if k > emb.word_vectors.shape[0]:
            raise ValueError(f"K={k} exceeds vocabulary size")
        rng = substream_rng(seed, f"embed.cluster.{k}")
        result[k] = kmeans(emb.word_vectors, k, max_iters=50, rng=rng)
    return result


def save_embeddings(emb, path):
    """Text format: header ``<vocab_count> <dims>`` then one
    ``token v1 ... vd`` line per word, 17 significant digits."""
    v, d = emb.word_vectors.shape
    rows = (
        token + " " + " ".join(f"{x:.17g}" for x in vec)
        for token, vec in zip(emb.tokens, emb.word_vectors)
    )
    write_records(path, itertools.chain([f"{v} {d}"], rows))


def load_embeddings(path):
    """The ``save_embeddings`` format; spaces that end a row are ignored, as
    the original word2vec tool ends every row with one.

    Each row's spaces are counted against ``d`` and its token split off; the
    values of all rows are then parsed by one ``np.loadtxt`` call, whose C
    parser gives the doubles ``float()`` gives. A value that parser rejects,
    an empty one included, is a ValueError naming ``path:lineno``.
    """
    with open(path, encoding="utf-8") as f:
        header = f.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: malformed header")
        v, d = int(header[0]), int(header[1])
        if v < 1 or d < 1:
            raise ValueError(f"{path}: malformed header")
        tokens = []
        rows = []
        for lineno, line in enumerate(f, start=2):
            line = line.rstrip("\n ")
            if line.count(" ") != d:
                raise ValueError(
                    f"{path}:{lineno}: line has {line.count(' ')} values, expected {d}"
                )
            token, _, values = line.partition(" ")
            tokens.append(token)
            rows.append(values)
        if len(tokens) != v:
            raise ValueError(f"{path}: header declares {v} rows, found {len(tokens)}")
    try:
        vectors = np.loadtxt(rows, delimiter=" ", comments=None, ndmin=2)
    except ValueError:
        # the first value the same parser rejects ("" reads as no data, not an error)
        for lineno, values in enumerate(rows, start=2):
            for value in values.split(" "):
                try:
                    np.loadtxt([value or "?"], comments=None)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: value {value!r} is not a number") from None
        raise
    return EmbeddingSet(tokens=tokens, word_vectors=vectors)
