"""Targeted aspect-based sentiment analysis with a knowledge-augmented LSTM.

A bi-directional recurrent encoder whose gates also read a per-token concept
vector, an extra knowledge output gate that injects the concept signal into
the hidden state, two attention stages (over target positions, then over the
whole sentence conditioned on an aspect embedding), and one softmax
classifier per aspect. Training is reverse-mode autodiff with Adam.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .artifact import load_arrays, save_arrays
from .metrics import LabelSetPrediction, macro_f1, micro_f1, strict_accuracy
from .numerics import substream_rng

log = logging.getLogger(__name__)

__all__ = [
    "TsaInstance",
    "SenticConfig",
    "SenticParams",
    "average_concepts",
    "lstm_step",
    "sentic_step",
    "encode_bilstm",
    "target_attention",
    "sentence_attention",
    "forward",
    "loss_and_grads",
    "train",
    "predict",
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
    up-to-K concept vectors per token (stored pre-averaged as one vector)."""

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

    def copy(self):
        return SenticParams(
            self.config,
            self.tokens,
            self.concept_ids,
            {k: v.copy() for k, v in self.arrays.items()},
        )


def average_concepts(vectors, max_concepts=4, dim=None):
    """Mean of up to ``max_concepts`` concept vectors; empty input gives the
    zero vector that stands for 'no concept found' (``dim`` required then)."""
    vectors = list(vectors)
    if len(vectors) > max_concepts:
        raise ValueError(f"at most {max_concepts} concept vectors per token")
    if not vectors:
        if dim is None:
            raise ValueError("dim is required for an empty concept list")
        return np.zeros(dim)
    return np.mean(np.asarray(vectors, dtype=np.float64), axis=0)


def _concept_mu(inst_concepts, params):
    """Per-token averaged concept vector (numpy, constant w.r.t. the tape
    except through the concept embedding table)."""
    cfg = params.config
    out = []
    for ids in inst_concepts:
        ids = [c for c in ids if c in params.concept_index][: cfg.max_concepts]
        if not ids:
            out.append(None)  # zero concept input
        else:
            out.append([params.concept_index[c] for c in ids])
    return out


def _gate(W, b, joint):
    return ad.sigmoid(ad.add(ad.matvec(W, joint), b))


def sentic_step(x, h_prev, c_prev, mu, p, dirn):
    """One recurrence of Eq.-style gates reading [x, h_prev, mu].

    h = o * tanh(C) + o_c * tanh(Wc mu); with mu = 0 the knowledge term
    vanishes and the step is a standard LSTM over the shared blocks.
    """
    joint = ad.concat([x, h_prev, mu])
    f = _gate(p[f"Wf:{dirn}"], p[f"bf:{dirn}"], joint)
    i = _gate(p[f"Wi:{dirn}"], p[f"bi:{dirn}"], joint)
    o = _gate(p[f"Wo:{dirn}"], p[f"bo:{dirn}"], joint)
    oc = _gate(p[f"Wco:{dirn}"], p[f"bco:{dirn}"], joint)
    c_tilde = ad.tanh(ad.add(ad.matvec(p[f"WC:{dirn}"], joint), p[f"bC:{dirn}"]))
    c = ad.add(ad.mul(f, c_prev), ad.mul(i, c_tilde))
    knowledge = ad.tanh(ad.matvec(p[f"Wc:{dirn}"], mu))
    h = ad.add(ad.mul(o, ad.tanh(c)), ad.mul(oc, knowledge))
    return h, c


def lstm_step(x, h_prev, c_prev, p, dirn, d_c):
    """Standard LSTM step: the sentic recurrence with a zero concept input."""
    mu = ad.Var(np.zeros(d_c))
    return sentic_step(x, h_prev, c_prev, mu, p, dirn)


def encode_bilstm(inst, p, params, dropout_mask=None):
    """Columns [h_fwd_i ; h_bwd_i] for every position, both directions
    running the sentic recurrence."""
    cfg = params.config
    length = len(inst.tokens)
    mu_ids = _concept_mu(inst.concepts, params)

    def mu_at(i):
        if mu_ids[i] is None:
            return ad.Var(np.zeros(cfg.d_c))
        rows = [ad.index(p["Ec"], j) for j in mu_ids[i]]
        acc = rows[0]
        for r in rows[1:]:
            acc = ad.add(acc, r)
        return ad.mul(acc, ad.Var(1.0 / len(rows)))

    xs = []
    for i in range(length):
        tid = params.token_index.get(inst.tokens[i])
        if tid is None:
            xs.append(ad.Var(np.zeros(cfg.d_w)))
        else:
            x = ad.index(p["E"], tid)
            if dropout_mask is not None:
                x = ad.mul(x, ad.Var(dropout_mask[i]))
            xs.append(x)
    mus = [mu_at(i) for i in range(length)]
    zeros = ad.Var(np.zeros(cfg.d_h))
    fwd = []
    h, c = zeros, zeros
    for i in range(length):
        h, c = sentic_step(xs[i], h, c, mus[i], p, "f")
        fwd.append(h)
    bwd = [None] * length
    h, c = zeros, zeros
    for i in reversed(range(length)):
        h, c = sentic_step(xs[i], h, c, mus[i], p, "b")
        bwd[i] = h
    return [ad.concat([fwd[i], bwd[i]]) for i in range(length)]


def target_attention(columns, positions, p, uniform=False):
    """Attention over the target positions' hidden columns.

    alpha = softmax(Wa2 . tanh(Wa1 h_t)); the ablation flag forces a uniform
    alpha, reproducing plain target averaging.
    """
    if not positions:
        raise ValueError("empty target")
    cols = [columns[t] for t in positions]
    if uniform:
        alpha = ad.Var(np.full(len(cols), 1.0 / len(cols)))
    else:
        energies = [ad.dot(p["Wa2"], ad.tanh(ad.matvec(p["Wa1"], h))) for h in cols]
        alpha = ad.softmax(ad.stack(energies))
    v_t = ad.mul(ad.index(alpha, 0), cols[0])
    for j in range(1, len(cols)):
        v_t = ad.add(v_t, ad.mul(ad.index(alpha, j), cols[j]))
    return v_t, alpha


def sentence_attention(columns, v_t, aspect, p):
    """beta = softmax(v_a . tanh(Wm [h_i ; v_t])) over the whole sentence."""
    key = f"va:{aspect}"
    if key not in p:
        raise ValueError(f"unknown aspect {aspect!r}")
    energies = [
        ad.dot(p[key], ad.tanh(ad.matvec(p["Wm"], ad.concat([h, v_t]))))
        for h in columns
    ]
    beta = ad.softmax(ad.stack(energies))
    v_s = ad.mul(ad.index(beta, 0), columns[0])
    for i in range(1, len(columns)):
        v_s = ad.add(v_s, ad.mul(ad.index(beta, i), columns[i]))
    return v_s, beta


def forward(inst, params, dropout_mask=None, as_vars=False):
    """Per-aspect class probability vectors (softmax, summing to one)."""
    cfg = params.config
    p = {k: ad.Var(v) for k, v in params.arrays.items()}
    columns = encode_bilstm(inst, p, params, dropout_mask=dropout_mask)
    v_t, _ = target_attention(
        columns, inst.target_positions, p, uniform=cfg.target_averaging
    )
    out = {}
    for a in cfg.aspects:
        v_s, _ = sentence_attention(columns, v_t, a, p)
        logits = ad.add(ad.matvec(p["Wp"], v_s), p[f"bp:{a}"])
        out[a] = ad.softmax(logits)
    if as_vars:
        return out, p
    return {a: v.value.copy() for a, v in out.items()}


def loss_and_grads(inst, params, dropout_mask=None):
    """Summed per-aspect cross-entropy and its gradient for every array."""
    cfg = params.config
    classes = list(cfg.classes)
    p = {k: ad.Var(v) for k, v in params.arrays.items()}
    columns = encode_bilstm(inst, p, params, dropout_mask=dropout_mask)
    v_t, _ = target_attention(
        columns, inst.target_positions, p, uniform=cfg.target_averaging
    )
    loss = None
    for a in cfg.aspects:
        gold = inst.aspects.get(a, NONE_CLASS).lower()
        if gold not in classes:
            raise ValueError(f"unknown polarity {gold!r} for aspect {a!r}")
        v_s, _ = sentence_attention(columns, v_t, a, p)
        logits = ad.add(ad.matvec(p["Wp"], v_s), p[f"bp:{a}"])
        probs = ad.softmax(logits)
        nll = ad.mul(ad.log(ad.index(probs, classes.index(gold))), ad.Var(-1.0))
        loss = nll if loss is None else ad.add(loss, nll)
    ad.backward(loss)
    # arrays outside the graph (e.g. an unused concept table) get zero grads
    grads = {
        k: (p[k].grad if p[k].grad is not None else np.zeros_like(params.arrays[k]))
        for k in params.arrays
    }
    return float(loss.value), grads


def train(train_set, dev_set, config, rng=None):
    """Adam over per-instance gradients; keeps the epoch whose dev sentiment
    accuracy (ties: strict aspect accuracy, then the earlier epoch) is best.
    """
    if not config.aspects:
        raise ValueError("aspect set must be non-empty")
    if not train_set or not dev_set:
        raise ValueError("train and dev sets must be non-empty")
    tokens = sorted({t for inst in train_set for t in inst.tokens})
    concept_ids = sorted(
        {c for inst in train_set for per_tok in inst.concepts for c in per_tok}
    )
    rng = rng or substream_rng(config.seed, "sentic.train")
    params = SenticParams.init(config, tokens, concept_ids, rng)
    m = {k: np.zeros_like(v) for k, v in params.arrays.items()}
    v = {k: np.zeros_like(a) for k, a in params.arrays.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    best = None
    drop = config.dropout
    for epoch in range(config.epochs):
        order = rng.permutation(len(train_set))
        for idx in order:
            inst = train_set[idx]
            mask = None
            if drop > 0.0:
                # inverted dropout on the word-embedding inputs
                mask = (
                    rng.random((len(inst.tokens), config.d_w)) >= drop
                ).astype(np.float64) / (1.0 - drop)
            if config.lr == 0.0:
                continue
            _, grads = loss_and_grads(inst, params, dropout_mask=mask)
            step += 1
            for k, g in grads.items():
                m[k] = beta1 * m[k] + (1 - beta1) * g
                v[k] = beta2 * v[k] + (1 - beta2) * g * g
                mhat = m[k] / (1 - beta1**step)
                vhat = v[k] / (1 - beta2**step)
                params.arrays[k] -= config.lr * mhat / (np.sqrt(vhat) + eps)
        report = predict_and_evaluate(dev_set, params)
        key = (report["sentiment_accuracy"], report["strict_accuracy"], -epoch)
        if best is None or key > best[0]:
            best = (key, params.copy(), epoch)
        log.info(
            "epoch %d dev sentiment %.4f strict %.4f",
            epoch,
            report["sentiment_accuracy"],
            report["strict_accuracy"],
        )
    chosen = best[1]
    chosen.best_epoch = best[2]
    return chosen


def predict(inst, params):
    """(aspect set, polarity map): aspects whose argmax class is not the
    none class, and the argmax-excluding-none polarity for every aspect."""
    cfg = params.config
    classes = list(cfg.classes)
    probs = forward(inst, params)
    aspect_set = set()
    polarity = {}
    for a, pv in probs.items():
        if classes[int(np.argmax(pv))] != NONE_CLASS:
            aspect_set.add(a)
        non_none = [i for i, c in enumerate(classes) if c != NONE_CLASS]
        polarity[a] = classes[non_none[int(np.argmax(pv[non_none]))]]
    return aspect_set, polarity


def predict_and_evaluate(dataset, params):
    """Strict/macro/micro over the detected aspect sets plus sentiment
    accuracy over gold (aspect, polarity) pairs with none excluded."""
    preds = []
    correct = 0
    total = 0
    for inst in dataset:
        gold_set = frozenset(
            a for a, pol in inst.aspects.items() if pol.lower() != NONE_CLASS
        )
        aspect_set, polarity = predict(inst, params)
        preds.append(
            LabelSetPrediction(gold=gold_set, predicted=frozenset(aspect_set))
        )
        for a, pol in inst.aspects.items():
            if pol.lower() == NONE_CLASS:
                continue
            total += 1
            if polarity.get(a) == pol.lower():
                correct += 1
    return {
        "strict_accuracy": strict_accuracy(preds),
        "macro_f1": macro_f1(preds),
        "micro_f1": micro_f1(preds),
        "sentiment_accuracy": correct / total if total else 0.0,
        "pairs": total,
    }


# ---------------------------------------------------------------------------
# Persistence


def load_tsa(path):
    """JSON lines with tokens, target_positions, aspects, concepts."""
    out = []
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            if not raw.strip():
                continue
            try:
                rec = json.loads(raw)
                out.append(
                    TsaInstance(
                        tokens=rec["tokens"],
                        target_positions=rec["target_positions"],
                        aspects=rec["aspects"],
                        concepts=rec["concepts"],
                    )
                )
            except (KeyError, ValueError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return out


def save_tsa(dataset, path):
    with open(path, "w", encoding="utf-8") as f:
        for inst in dataset:
            f.write(
                json.dumps(
                    {
                        "tokens": inst.tokens,
                        "target_positions": inst.target_positions,
                        "aspects": inst.aspects,
                        "concepts": inst.concepts,
                    }
                )
                + "\n"
            )


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
