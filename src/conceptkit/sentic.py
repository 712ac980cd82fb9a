"""Targeted aspect-based sentiment analysis with a knowledge-augmented LSTM.

A bi-directional recurrent encoder whose gates also read a per-token concept
vector, an extra knowledge output gate that injects the concept signal into
the hidden state, two attention stages (over target positions, then over the
whole sentence conditioned on an aspect embedding), and one softmax
classifier per aspect. Gradients come from one hand-written backward pass
(backpropagation through time for the recurrence); training is Adam.
"""

from __future__ import annotations

import copy
import json
import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .artifact import load_arrays, read_records, save_arrays, write_records
from .metrics import LabelSetPrediction, set_metrics
from .numerics import NumericFailure, sigmoid, softmax, substream_rng

log = logging.getLogger(__name__)

__all__ = [
    "TsaInstance",
    "SenticConfig",
    "SenticParams",
    "lstm_step",
    "sentic_step",
    "encode_bilstm",
    "target_attention",
    "sentence_attention",
    "forward",
    "loss_and_grads",
    "train",
    "predict_and_evaluate",
    "load_tsa",
    "save_tsa",
    "save_checkpoint",
    "load_checkpoint",
]

NONE_CLASS = "none"
THREE_CLASSES = (NONE_CLASS, "negative", "positive")
FOUR_CLASSES = (NONE_CLASS, "negative", "positive", "neutral")


@dataclass
class TsaInstance:
    """A sentence with target token positions, gold aspect polarities and
    the concept ids of each token, whose vectors the encoder averages."""

    tokens: list
    target_positions: list
    aspects: dict  # aspect -> polarity string (absent means none)
    concepts: list  # per token: list of concept id strings

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("empty sentence")
        self.target_positions = sorted(self.target_positions)
        for p in self.target_positions:
            if not (0 <= p < len(self.tokens)):
                raise ValueError(f"target position {p} outside the sentence")
        if not self.target_positions:
            raise ValueError("instance needs at least one target position")
        if len(self.concepts) != len(self.tokens):
            raise ValueError("concepts must align with tokens")


@dataclass
class SenticConfig:
    d_w: int = 150
    d_h: int = 50
    d_m: int = 50  # attention hidden size; unstated upstream, chosen default
    d_c: int = 100
    max_concepts: int = 4
    aspects: tuple = ("general",)
    four_class: bool = False
    lr: float = 1e-3
    epochs: int = 10
    dropout: float = 0.5
    seed: int = 1
    target_averaging: bool = False  # uniform target attention ablation

    def __post_init__(self):
        self.aspects = tuple(self.aspects)  # a checkpoint manifest stores a list

    @property
    def classes(self):
        return FOUR_CLASSES if self.four_class else THREE_CLASSES


class SenticParams:
    """All trainable arrays keyed by name, plus the vocabularies needed to
    map tokens and concept ids to rows of their embedding tables."""

    def __init__(self, config, tokens, concept_ids, arrays):
        self.config = config
        self.tokens = list(tokens)
        self.concept_ids = list(concept_ids)
        self.token_index = {t: i for i, t in enumerate(self.tokens)}
        self.concept_index = {c: i for i, c in enumerate(self.concept_ids)}
        self.arrays = arrays

    @classmethod
    def init(cls, config, tokens, concept_ids, rng):
        d_w, d_h, d_c, d_m = config.d_w, config.d_h, config.d_c, config.d_m
        n_cls = len(config.classes)
        gate_in = d_w + d_h + d_c

        def glorot(rows, cols):
            scale = math.sqrt(6.0 / (rows + cols))
            return rng.uniform(-scale, scale, size=(rows, cols))

        arrays = {
            "E": rng.uniform(-0.1, 0.1, size=(len(tokens), d_w)),
            "Ec": rng.uniform(-0.1, 0.1, size=(max(1, len(concept_ids)), d_c)),
            "Wa1": glorot(d_m, 2 * d_h),
            "Wa2": rng.uniform(-0.1, 0.1, size=d_m),
            "Wm": glorot(d_m, 4 * d_h),
            "Wp": glorot(n_cls, 2 * d_h),
        }
        for a in config.aspects:
            arrays[f"va:{a}"] = rng.uniform(-0.1, 0.1, size=d_m)
            arrays[f"bp:{a}"] = np.zeros(n_cls)
        for dirn in ("f", "b"):
            for gate in ("Wf", "Wi", "WC", "Wo", "Wco"):
                arrays[f"{gate}:{dirn}"] = glorot(d_h, gate_in)
            for gate in ("bf", "bi", "bC", "bo", "bco"):
                arrays[f"{gate}:{dirn}"] = np.zeros(d_h)
            arrays[f"Wc:{dirn}"] = glorot(d_h, d_c)
        return cls(config, tokens, concept_ids, arrays)

    def row_block(self, rows, block):
        """These parameters with the word table cut down to ``block``, the
        rows ``rows`` (sorted, unique) of ``E``; every other array is
        shared. ``loss_and_grads`` reads a sentence whose known tokens all
        have rows in ``rows`` the same way through it as through ``self``."""
        view = copy.copy(self)
        view.tokens = [self.tokens[r] for r in rows]
        view.token_index = {t: i for i, t in enumerate(view.tokens)}
        view.arrays = {**self.arrays, "E": block}
        return view

    def copy(self):
        return SenticParams(
            self.config,
            self.tokens,
            self.concept_ids,
            {k: v.copy() for k, v in self.arrays.items()},
        )


# One direction's gate blocks in the order they are stacked into a single
# (5 d_h x (d_w + d_h + d_c)) matrix: four sigmoid gates, then the candidate.
_GATES = (("Wf", "bf"), ("Wi", "bi"), ("Wo", "bo"), ("Wco", "bco"), ("WC", "bC"))


def _recur(X, MU, p, dirn, h0, c0):
    """One direction over a stack of n same-length sentences, each from the
    state (h0, c0): X (n, L, d_w) holds their word rows and MU (n, L, d_c)
    their averaged concepts. Returns hidden and cell states (n, L + 1, d)
    with the initial one first, and the trace ``_recur_back`` reads.
    Stacking changes no bits: ``np.matmul`` loops over the stack axis and
    makes for each sentence the BLAS call that a stack of one makes (a gemv
    per step for the recurrent product, a gemm for each input product), and
    the gate arithmetic is elementwise."""
    W = np.concatenate([p[f"{w}:{dirn}"] for w, _ in _GATES])
    b = np.concatenate([p[f"{b}:{dirn}"] for _, b in _GATES])
    n, L, d_w = X.shape
    d = h0.size
    Wh = W[:, d_w : d_w + d]
    Z = np.matmul(X, W[:, :d_w].T) + np.matmul(MU, W[:, d_w + d :].T) + b
    K = np.tanh(np.matmul(MU, p[f"Wc:{dirn}"].T))  # the knowledge term tanh(Wc mu)
    H, C = np.empty((n, L + 1, d)), np.empty((n, L + 1, d))
    H[:, 0], C[:, 0] = h0, c0
    S, CT, TC = np.empty((n, L, 4 * d)), np.empty((n, L, d)), np.empty((n, L, d))
    h_in, zh = H[..., None], np.empty((n, 5 * d))
    zh_out = zh[..., None]  # Wh h for each sentence, from one gemv each
    # out= and += write in place, with the operations and order of
    # c = f*c + i*c~ and h = o*tanh(c) + o_c*k but fewer calls a step
    for t in range(L):
        np.matmul(Wh, h_in[:, t], out=zh_out)
        z = np.add(Z[:, t], zh, out=zh)
        s = S[:, t] = sigmoid(z[:, : 4 * d])  # f, i, o, o_c
        c_tilde = np.tanh(z[:, 4 * d :], out=CT[:, t])
        c = np.multiply(s[:, :d], C[:, t], out=C[:, t + 1])
        c += s[:, d : 2 * d] * c_tilde
        tanh_c = np.tanh(c, out=TC[:, t])
        h = np.multiply(s[:, 2 * d : 3 * d], tanh_c, out=H[:, t + 1])
        h += s[:, 3 * d :] * K[:, t]
    return H, C, (W, K, S, CT, TC)


def _recur_back(dH, X, MU, p, dirn, H, C, trace, g):
    """Backpropagation through time for one direction of a stack of one
    sentence, as ``_recur`` took and returned it: writes its arrays'
    gradients into ``g`` and returns the gradients (L, .) of X and MU."""
    W, K, S, CT, TC = trace
    X, MU, H, C, K, S, CT, TC = (a[0] for a in (X, MU, H, C, K, S, CT, TC))
    L, d = dH.shape
    d_w = X.shape[1]
    Wh = W[:, d_w : d_w + d]
    DZ, DH = np.empty((L, 5 * d)), np.empty((L, d))
    dh_next, dc = np.zeros(d), np.zeros(d)
    for t in reversed(range(L)):
        s = S[t]
        dh = DH[t] = dH[t] + dh_next
        dc = dc + dh * s[2 * d : 3 * d] * (1.0 - TC[t] * TC[t])
        ds = np.concatenate([dc * C[t], dc * CT[t], dh * TC[t], dh * K[t]])
        DZ[t, : 4 * d] = ds * s * (1.0 - s)
        DZ[t, 4 * d :] = dc * s[d : 2 * d] * (1.0 - CT[t] * CT[t])
        dc = dc * s[:d]
        dh_next = DZ[t] @ Wh
    DK = DH * S[:, 3 * d :] * (1.0 - K * K)
    dW = DZ.T @ np.hstack([X, H[:-1], MU])
    db = DZ.sum(axis=0)
    for n, (w, b) in enumerate(_GATES):
        g[f"{w}:{dirn}"][...] = dW[n * d : (n + 1) * d]
        g[f"{b}:{dirn}"][...] = db[n * d : (n + 1) * d]
    g[f"Wc:{dirn}"][...] = DK.T @ MU
    dJ = DZ @ W
    return dJ[:, :d_w], dJ[:, d_w + d :] + DK @ p[f"Wc:{dirn}"]


def sentic_step(x, h_prev, c_prev, mu, p, dirn):
    """One recurrence of Eq.-style gates reading [x, h_prev, mu].

    h = o * tanh(C) + o_c * tanh(Wc mu); with mu = 0 the knowledge term
    vanishes and the step is a standard LSTM over the shared blocks.
    """
    H, C, _ = _recur(x[None, None], mu[None, None], p, dirn, h_prev, c_prev)
    return H[0, 1], C[0, 1]


def lstm_step(x, h_prev, c_prev, p, dirn, d_c):
    """Standard LSTM step: the sentic recurrence with a zero concept input."""
    return sentic_step(x, h_prev, c_prev, np.zeros(d_c), p, dirn)


def _encode(group, params, dropout_mask):
    """Columns (n, L, 2 d_h) of a group of n sentences of one length L, both
    directions run as one stack each, and what ``loss_and_grads`` reads on
    the way back; token and concept indices count positions across the
    group, sentence after sentence."""
    cfg, p = params.config, params.arrays
    tids = [params.token_index.get(t) for inst in group for t in inst.tokens]
    known = [i for i, t in enumerate(tids) if t is not None]
    X = np.zeros((len(tids), cfg.d_w))
    X[known] = p["E"][[tids[i] for i in known]]
    X = X.reshape(len(group), -1, cfg.d_w)
    if dropout_mask is not None:
        X *= dropout_mask
    # each token's concept input averages its known ids, at most max_concepts
    # of them; none gives the zero input that stands for 'no concept found'
    index = params.concept_index
    rows = [[index[c] for c in ids if c in index][: cfg.max_concepts]
            for inst in group for ids in inst.concepts]
    at = [i for i, r in enumerate(rows) for _ in r]
    cid = [j for r in rows for j in r]
    share = np.array([1.0 / len(r) for r in rows for _ in r])[:, None]
    MU = np.zeros((len(tids), cfg.d_c))
    np.add.at(MU, at, p["Ec"][cid] * share)
    MU = MU.reshape(len(group), -1, cfg.d_c)
    zero = np.zeros(cfg.d_h)
    fwd = _recur(X, MU, p, "f", zero, zero)
    bwd = _recur(X[:, ::-1], MU[:, ::-1], p, "b", zero, zero)
    columns = np.concatenate([fwd[0][:, 1:], bwd[0][:, 1:][:, ::-1]], axis=2)
    return columns, (tids, known, at, cid, share, X, MU, fwd, bwd)


def encode_bilstm(inst, params):
    """Columns [h_fwd_i ; h_bwd_i] (one row per position), both directions
    running the sentic recurrence over [word row; averaged concept rows];
    unknown tokens read a zero word row."""
    return _encode([inst], params, None)[0][0]


def _attend(pre, w, values):
    """weights = softmax(w . tanh(pre_j)); returns (weights @ values,
    weights, tanh(pre))."""
    act = np.tanh(pre)
    weights = softmax(act @ w)
    return weights @ values, weights, act


def _attend_back(d_out, values, weights, act, w):
    """Gradients of ``_attend`` w.r.t. values, pre and w."""
    d_weights = values @ d_out
    d_e = weights * (d_weights - d_weights @ weights)
    return np.outer(weights, d_out), np.outer(d_e, w) * (1.0 - act * act), act.T @ d_e


def target_attention(columns, positions, p, uniform=False):
    """Attention over the target positions' hidden columns.

    alpha = softmax(Wa2 . tanh(Wa1 h_t)); the ablation flag forces a uniform
    alpha, reproducing plain target averaging. Returns ``(v_t, alpha,
    act)``, ``act`` being tanh(Wa1 h_t), or None under averaging.
    """
    if not positions:
        raise ValueError("empty target")
    cols = np.asarray(columns)[positions]
    if uniform:
        alpha = np.full(len(cols), 1.0 / len(cols))
        return alpha @ cols, alpha, None
    return _attend(cols @ p["Wa1"].T, p["Wa2"], cols)


def sentence_attention(columns, v_t, aspect, p):
    """beta = softmax(v_a . tanh(Wm [h_i ; v_t])) over the whole sentence.
    Returns ``(v_s, beta, act)``, ``act`` being tanh(Wm [h_i ; v_t])."""
    key = f"va:{aspect}"
    if key not in p:
        raise ValueError(f"unknown aspect {aspect!r}")
    columns = np.asarray(columns)
    d2 = columns.shape[1]
    return _attend(columns @ p["Wm"][:, :d2].T + p["Wm"][:, d2:] @ v_t, p[key], columns)


def _heads(columns, inst, params):
    """Target attention, sentence attention and the softmax heads of one
    sentence, keeping what ``loss_and_grads`` reads on the way back."""
    cfg, p = params.config, params.arrays
    target = target_attention(columns, inst.target_positions, p, cfg.target_averaging)
    heads = {a: sentence_attention(columns, target[0], a, p) for a in cfg.aspects}
    probs = {a: softmax(p["Wp"] @ v_s + p[f"bp:{a}"]) for a, (v_s, _, _) in heads.items()}
    return target, heads, probs


def _probs(group, params):
    """Per-aspect probabilities of each sentence of a same-length group."""
    columns, _ = _encode(group, params, None)
    return [_heads(cols, inst, params)[2] for cols, inst in zip(columns, group)]


def forward(inst, params):
    """Per-aspect class probability vectors (softmax, summing to one)."""
    return _probs([inst], params)[0]


def loss_and_grads(inst, params, dropout_mask=None, grads=None):
    """Summed per-aspect cross-entropy and its gradient for every array.

    One backward pass through the softmax heads, sentence attention, target
    attention and both directions of the recurrence; the word and concept
    tables get their rows added in once. Arrays the instance does not reach
    (rows of other tokens, the target-attention query under averaging) get
    zero gradients. ``grads``, if given, maps every array name to a zeroed
    buffer of that array's shape; the gradient is written into it and it is
    returned, with the same bits as the fresh dict made without it. Through
    ``params.row_block(rows, block)`` the word table ``E`` is the block of
    the sentence's rows, and its gradient (in ``grads`` too) is a block of
    the same shape, with the bits of those rows of the full-table gradient.
    """
    cfg, p = params.config, params.arrays
    classes = list(cfg.classes)
    (columns,), enc = _encode([inst], params, dropout_mask)
    (v_t, alpha, alpha_act), heads, probs = _heads(columns, inst, params)
    g = {k: np.zeros_like(v) for k, v in p.items()} if grads is None else grads
    d2 = columns.shape[1]
    d_cols, d_v_t = np.zeros_like(columns), np.zeros(d2)
    loss = 0.0
    for a in cfg.aspects:
        v_s, beta, act = heads[a]
        gold = inst.aspects.get(a, NONE_CLASS).lower()
        if gold not in classes:
            raise ValueError(f"unknown polarity {gold!r} for aspect {a!r}")
        gold = classes.index(gold)
        loss -= float(np.log(probs[a][gold]))
        d_logits = probs[a] - np.eye(len(classes))[gold]
        g["Wp"] += np.outer(d_logits, v_s)
        g[f"bp:{a}"][...] = d_logits
        d_values, d_pre, g[f"va:{a}"][...] = _attend_back(
            p["Wp"].T @ d_logits, columns, beta, act, p[f"va:{a}"]
        )
        d_cols += d_values + d_pre @ p["Wm"][:, :d2]
        g["Wm"][:, :d2] += d_pre.T @ columns
        d_pre_sum = d_pre.sum(axis=0)
        g["Wm"][:, d2:] += np.outer(d_pre_sum, v_t)
        d_v_t += d_pre_sum @ p["Wm"][:, d2:]
    if alpha_act is None:  # uniform target averaging
        d_targets = np.outer(alpha, d_v_t)
    else:
        cols = columns[inst.target_positions]
        d_targets, d_pre, g["Wa2"][...] = _attend_back(d_v_t, cols, alpha, alpha_act, p["Wa2"])
        d_targets += d_pre @ p["Wa1"]
        g["Wa1"][...] = d_pre.T @ cols
    np.add.at(d_cols, inst.target_positions, d_targets)
    tids, known, at, cid, share, X, MU, fwd, bwd = enc
    d_h = cfg.d_h
    dX, dMU = _recur_back(d_cols[:, :d_h], X, MU, p, "f", *fwd, g)
    dX_b, dMU_b = _recur_back(d_cols[::-1, d_h:], X[:, ::-1], MU[:, ::-1], p, "b", *bwd, g)
    dX += dX_b[::-1]
    dMU += dMU_b[::-1]
    if dropout_mask is not None:
        dX *= dropout_mask
    np.add.at(g["E"], [tids[i] for i in known], dX[known])
    np.add.at(g["Ec"], cid, dMU[at] * share)
    return loss, g


def _views(flat, shapes):
    """Arrays of the given shapes laid end to end in ``flat``, as views."""
    out, at = {}, 0
    for k, shape in shapes.items():
        n = math.prod(shape)
        out[k] = flat[at : at + n].reshape(shape)
        at += n
    return out


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


def _adam_rows(p, m, v, s1, s2, rows, g_rows, step, lr):
    """Adam step ``step`` in place on ``p`` and its moments ``m`` and ``v``,
    whose gradient is ``g_rows`` at ``rows`` and zero elsewhere: the moments
    decay everywhere, only ``rows`` get the gradient term, and then
    ``p -= (lr*mhat) / (sqrt(vhat) + eps)``. ``rows=slice(None)`` with a
    gradient of ``p``'s shape is the dense step. ``s1`` and ``s2`` are
    scratch of ``p``'s shape."""
    m *= _BETA1
    m[rows] += (1 - _BETA1) * g_rows
    v *= _BETA2
    v[rows] += ((1 - _BETA2) * g_rows) * g_rows
    np.divide(m, 1 - _BETA1**step, out=s1)
    s1 *= lr
    np.divide(v, 1 - _BETA2**step, out=s2)
    np.sqrt(s2, out=s2)
    s2 += _EPS
    s1 /= s2
    p -= s1


def train(train_set, dev_set, config):
    """Adam over per-instance gradients; keeps the epoch whose dev sentiment
    accuracy (ties: strict aspect accuracy, then the earlier epoch) is best.

    Buffer layout: every trainable array is a view into one flat float64
    vector ``theta``, ``E`` first and the other arrays after it in
    ``SenticParams.init`` order; both Adam moments and two scratch vectors
    are flat vectors of the same layout. The gradient of the non-``E``
    arrays is one flat vector of the rest of that layout; ``E``'s gradient
    is a block of the rows of the instance's tokens only, because the
    forward/backward pass reads ``E`` through ``SenticParams.row_block``.

    Two threads share every step. After step t's ``loss_and_grads`` the
    main thread waits for the worker's step t-1, works out the ``E`` rows
    step t+1 will read as they will be after step t (gathered copies of
    those rows of ``theta`` and both moments, put through the same element
    operations), hands step t's ``E`` update to the worker and updates the
    non-``E`` slice itself; step t+1's forward/backward then runs while the
    worker sweeps ``E``. The worker alone touches the ``E`` slices of
    ``theta``, the moments and the scratch while it runs; the main thread
    alone touches the rest and the next gradient block. The main thread
    waits for the worker at the end of every epoch (before the dev
    evaluation and the copy of the best parameters) and the pool is closed
    before ``train`` returns or raises, so no thread outlives the call. The
    overlap hides the ``E`` sweep only while it is shorter than the main
    thread's share of a step: the step still scales with the vocabulary
    size, and at tens of thousands of words the sweep sets the pace again.
    With a few hundred words the worker costs no time: acceptance criterion
    5's training run took a median 4.59 s with it and 4.77 s with the sweep
    in-line, both threads on one CPU.

    Bit identity: every array comes out with the same bits as per-array
    dense Adam, ``m = beta1*m + (1-beta1)*g``, ``v = beta2*v +
    ((1-beta2)*g)*g`` and ``p -= (lr*mhat) / (sqrt(vhat) + eps)``, because
    each element goes through the same operations in the same order, on
    whichever thread and in whichever copy, and an untouched row of ``E``
    would only add a +0.0 gradient term. (The row-sparse form leaves one
    trace: a first moment that underflows to -0.0 stays -0.0 where dense
    Adam makes it +0.0, and the step it gives, p - (-0.0), differs from
    p - (+0.0) only for p = -0.0.)
    """
    if not config.aspects:
        raise ValueError("aspect set must be non-empty")
    if not train_set or not dev_set:
        raise ValueError("train and dev sets must be non-empty")
    if config.epochs < 1:
        raise ValueError(f"tsa.epochs must be at least 1, not {config.epochs}")
    tokens = sorted({t for inst in train_set for t in inst.tokens})
    concept_ids = sorted(
        {c for inst in train_set for per_tok in inst.concepts for c in per_tok}
    )
    rng = substream_rng(config.seed, "sentic.train")
    params = SenticParams.init(config, tokens, concept_ids, rng)
    shapes = {k: params.arrays[k].shape for k in ["E", *params.arrays]}  # E first
    theta = np.concatenate([params.arrays[k].ravel() for k in shapes])
    params.arrays = _views(theta, shapes)
    m, v, s1, s2 = (np.zeros_like(theta) for _ in range(4))
    n_E = math.prod(shapes["E"])
    E, m_E, v_E, s1_E, s2_E = (buf[:n_E].reshape(shapes["E"]) for buf in (theta, m, v, s1, s2))
    theta_r, m_r, v_r, s1_r, s2_r = (buf[n_E:] for buf in (theta, m, v, s1, s2))
    g_r = np.zeros_like(theta_r)
    grads = _views(g_r, {k: s for k, s in shapes.items() if k != "E"})
    rows_of = [np.unique([params.token_index[t] for t in inst.tokens]) for inst in train_set]
    lr = config.lr
    step = 0
    best = None
    drop = config.dropout
    with ThreadPoolExecutor(max_workers=1) as worker:
        for epoch in range(config.epochs):
            started = time.perf_counter()
            total_loss, n_loss = 0.0, 0
            order = rng.permutation(len(train_set))
            block = None  # the E rows this step reads, as of the last step
            e_update = None  # the worker's E update of the last step
            for n, idx in enumerate(order):
                inst = train_set[idx]
                rows = rows_of[idx]
                if block is None:  # no update of E is pending
                    block = E[rows]
                mask = None
                if drop > 0.0:
                    # inverted dropout on the word-embedding inputs
                    mask = (
                        rng.random((len(inst.tokens), config.d_w)) >= drop
                    ).astype(np.float64) / (1.0 - drop)
                grads["E"] = g_rows = np.zeros_like(block)
                loss, _ = loss_and_grads(
                    inst, params.row_block(rows, block), dropout_mask=mask, grads=grads
                )
                step += 1
                if not math.isfinite(loss):
                    raise NumericFailure(
                        f"sentiment training loss is {loss} at epoch {epoch}, step {step}"
                    )
                total_loss += loss
                n_loss += 1
                if e_update is not None:
                    e_update.result()
                block = None
                if n + 1 < len(order):
                    # the next step's rows of E after this step, on copies
                    after = rows_of[order[n + 1]]
                    _, here, there = np.intersect1d(
                        rows, after, assume_unique=True, return_indices=True
                    )
                    block = E[after]
                    _adam_rows(block, m_E[after], v_E[after], np.empty_like(block),
                               np.empty_like(block), there, g_rows[here], step, lr)
                e_update = worker.submit(
                    _adam_rows, E, m_E, v_E, s1_E, s2_E, rows, g_rows, step, lr
                )
                _adam_rows(theta_r, m_r, v_r, s1_r, s2_r, slice(None), g_r, step, lr)
                g_r[:] = 0.0
            if e_update is not None:
                e_update.result()
            elapsed = time.perf_counter() - started
            report = predict_and_evaluate(dev_set, params)
            key = (report["sentiment_acc"], report["strict_acc"], -epoch)
            if best is None or key > best[0]:
                best = (key, params.copy(), epoch)
            log.info(
                "epoch %d train loss %.4f (%.1f instances/s) dev sentiment %.4f strict %.4f",
                epoch,
                total_loss / n_loss if n_loss else math.nan,
                len(order) / elapsed if elapsed > 0 else math.inf,
                report["sentiment_acc"],
                report["strict_acc"],
            )
    chosen = best[1]
    chosen.best_epoch = best[2]
    return chosen


# Sentences per stack in ``predict_and_evaluate``: at paper dims a block of
# 64 peaks near 11 MB, one stack of 300 near 45 MB for 10% less time.
_BLOCK = 64


def predict_and_evaluate(dataset, params):
    """``metrics.set_metrics`` of the detected aspect sets, plus
    ``sentiment_acc`` over the gold (aspect, polarity) pairs with none
    excluded.

    An aspect is detected when its argmax class is not the none class, and
    its polarity is the argmax over the other classes. The encoder runs on
    sentences grouped by length, in stacks of at most ``_BLOCK`` = 64 (see
    ``_recur``), so each sentence's probabilities have the bits of
    ``forward``; the metrics read the sentences in dataset order."""
    classes = list(params.config.classes)
    non_none = [i for i, c in enumerate(classes) if c != NONE_CLASS]
    by_length = {}
    for i, inst in enumerate(dataset):
        by_length.setdefault(len(inst.tokens), []).append(i)
    probs = [None] * len(dataset)
    for ids in by_length.values():
        for at in range(0, len(ids), _BLOCK):
            block = ids[at : at + _BLOCK]
            for i, pv in zip(block, _probs([dataset[i] for i in block], params)):
                probs[i] = pv
    preds, correct, total = [], 0, 0
    for inst, inst_probs in zip(dataset, probs):
        gold_set = frozenset(
            a for a, pol in inst.aspects.items() if pol.lower() != NONE_CLASS
        )
        aspect_set = frozenset(
            a for a, pv in inst_probs.items() if classes[int(np.argmax(pv))] != NONE_CLASS
        )
        preds.append(LabelSetPrediction(gold=gold_set, predicted=aspect_set))
        for a, pol in inst.aspects.items():
            if pol.lower() == NONE_CLASS:
                continue
            total += 1
            pv = inst_probs.get(a)
            if pv is not None and classes[non_none[int(np.argmax(pv[non_none]))]] == pol.lower():
                correct += 1
    sentiment_acc = correct / total if total else 0.0
    return {**set_metrics(preds), "sentiment_acc": sentiment_acc}


# ---------------------------------------------------------------------------
# Persistence


def load_tsa(path):
    """JSON lines with tokens, target_positions, aspects, concepts."""
    def parse(line):
        rec = json.loads(line)
        return TsaInstance(tokens=rec["tokens"], target_positions=rec["target_positions"],
                           aspects=rec["aspects"], concepts=rec["concepts"])

    return read_records(path, parse)


def save_tsa(dataset, path):
    write_records(path, (
        json.dumps({"tokens": inst.tokens, "target_positions": inst.target_positions,
                    "aspects": inst.aspects, "concepts": inst.concepts})
        for inst in dataset
    ))


def save_checkpoint(params, path):
    """Model artifact of kind ``sentic``: the config, best epoch and
    vocabularies in the manifest, then every array in name order."""
    meta = {
        "config": asdict(params.config),
        "best_epoch": getattr(params, "best_epoch", None),
        "tokens": params.tokens,
        "concept_ids": params.concept_ids,
    }
    save_arrays(path, "sentic", meta, {k: params.arrays[k] for k in sorted(params.arrays)})


def load_checkpoint(path):
    meta, arrays = load_arrays(path, "sentic")
    try:
        config = SenticConfig(**meta["config"])
        params = SenticParams(config, meta["tokens"], meta["concept_ids"], arrays)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed checkpoint manifest ({exc})") from exc
    params.best_epoch = meta.get("best_epoch")
    return params
