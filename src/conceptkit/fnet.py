"""Fine-grained entity typing: prototype selection by NPMI, label-embedding
constructions (ProtoLE / HLE / Proto-HLE), a WARP-trained bilinear classifier
with few-shot and zero-shot modes, and hierarchical type inference.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .artifact import load_arrays, read_records, save_arrays, write_records
from .numerics import NumericFailure, substream_rng

log = logging.getLogger(__name__)

__all__ = [
    "LabelHierarchy",
    "MentionInstance",
    "JointEmbeddingModel",
    "LabelEmbeddingMatrix",
    "PrototypeTable",
    "CooccurrenceCounts",
    "npmi",
    "select_prototypes",
    "proto_le",
    "hle",
    "proto_hle",
    "score",
    "score_all",
    "warp_loss_weight",
    "WarpConfig",
    "warp_train",
    "type_infer",
    "extract_mention_features",
    "coarse_only",
    "load_hierarchy",
    "load_mentions",
    "save_mentions",
    "load_prototypes",
    "save_prototypes",
    "save_model",
    "load_model",
]


class LabelHierarchy:
    """Tree of path-style labels such as ``/PERSON/ARTIST``."""

    def __init__(self, labels):
        labels = list(dict.fromkeys(labels))
        for lab in labels:
            if not lab.startswith("/") or lab.endswith("/"):
                raise ValueError(f"bad label path {lab!r}")
        known = set(labels)
        self.labels = sorted(labels)
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        self.parent = {}
        self.level = {}
        for lab in self.labels:
            parts = lab.strip("/").split("/")
            self.level[lab] = len(parts)
            if len(parts) == 1:
                self.parent[lab] = None
            else:
                par = "/" + "/".join(parts[:-1])
                if par not in known:
                    raise ValueError(f"label {lab!r} has no parent {par!r}")
                self.parent[lab] = par

    def __len__(self):
        return len(self.labels)

    def __contains__(self, lab):
        return lab in self.index

    def path(self, lab):
        """Root-to-label list of ancestors ending at the label itself."""
        out = []
        cur = lab
        while cur is not None:
            out.append(cur)
            cur = self.parent[cur]
        return out[::-1]

    def at_level(self, level):
        return [lab for lab in self.labels if self.level[lab] == level]


def load_hierarchy(path):
    return LabelHierarchy(read_records(path, str.strip))


@dataclass
class MentionInstance:
    tokens: list
    start: int
    end: int
    labels: frozenset
    features: tuple = None  # (ids, counts) from extract_mention_features

    def __post_init__(self):
        if not (0 <= self.start < self.end <= len(self.tokens)):
            raise ValueError(
                f"invalid span [{self.start},{self.end}) for {len(self.tokens)} tokens"
            )
        self.labels = frozenset(self.labels)

    @property
    def mention_tokens(self):
        return self.tokens[self.start : self.end]

    @property
    def head_word(self):
        # last token of the mention stands in for the syntactic head
        return self.tokens[self.end - 1].lower()


def load_mentions(path):
    """JSON lines: {"tokens": [...], "start": i, "end": j, "labels": [...]}"""
    def parse(line):
        rec = json.loads(line)
        return MentionInstance(tokens=rec["tokens"], start=rec["start"], end=rec["end"],
                               labels=frozenset(rec["labels"]))

    return read_records(path, parse)


def save_mentions(instances, path):
    write_records(path, (
        json.dumps({"tokens": inst.tokens, "start": inst.start, "end": inst.end,
                    "labels": sorted(inst.labels)})
        for inst in instances
    ))


# ---------------------------------------------------------------------------
# Prototypes


class CooccurrenceCounts:
    """Joint label/mention-head counts for NPMI scoring."""

    def __init__(self):
        self.joint = {}
        self.label = {}
        self.mention = {}
        self.total = 0

    def add(self, label, mention):
        self.joint[(label, mention)] = self.joint.get((label, mention), 0) + 1
        self.label[label] = self.label.get(label, 0) + 1
        self.mention[mention] = self.mention.get(mention, 0) + 1
        self.total += 1

    @classmethod
    def from_dataset(cls, dataset):
        counts = cls()
        for inst in dataset:
            for lab in inst.labels:
                counts.add(lab, inst.head_word)
        return counts


def npmi(counts, label, mention):
    """PMI / (-ln p(y, m)); -1 for never co-occurring pairs, 1 at perfect
    association."""
    joint = counts.joint.get((label, mention), 0)
    if joint == 0:
        return -1.0
    p_joint = joint / counts.total
    p_y = counts.label[label] / counts.total
    p_m = counts.mention[mention] / counts.total
    pmi = math.log(p_joint / (p_y * p_m))
    if p_joint == 1.0:
        return 1.0
    return pmi / (-math.log(p_joint))


@dataclass
class PrototypeTable:
    """label -> descending (head word, NPMI score) list, K entries at most."""

    prototypes: dict
    k: int

    def words(self, label):
        return [w for w, _ in self.prototypes[label]]


def select_prototypes(dataset, hierarchy, k, manual=None):
    """Top-k mention head words per label by NPMI, ties lexicographic.

    ``manual`` maps labels (typically unseen ones) to hand-picked word lists
    that bypass NPMI; such words get a score of 1.0.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    manual = manual or {}
    for inst in dataset:
        unknown = inst.labels - set(hierarchy.labels)
        if unknown:
            raise ValueError(f"labels {sorted(unknown)} not in hierarchy")
    counts = CooccurrenceCounts.from_dataset(dataset)
    by_label = {}
    for (lab, m) in counts.joint:
        by_label.setdefault(lab, set()).add(m)
    prototypes = {}
    for lab in hierarchy.labels:
        if lab in manual:
            words = list(dict.fromkeys(manual[lab]))[:k]
            prototypes[lab] = [(w, 1.0) for w in words]
            continue
        mentions = by_label.get(lab)
        if not mentions:
            raise ValueError(f"label {lab!r} has no mentions and no manual list")
        scored = sorted(
            ((m, npmi(counts, lab, m)) for m in mentions),
            key=lambda t: (-t[1], t[0]),
        )
        prototypes[lab] = scored[:k]
    return PrototypeTable(prototypes=prototypes, k=k)


def load_prototypes(path, k):
    def parse(line):
        # the word list may be empty: a label saved with no prototypes
        parts = [part.strip() for part in line.split("\t")]
        if len(parts) != 2 or not parts[0]:
            raise ValueError("expected 'label<TAB>w1,w2,...'")
        words = [w for w in parts[1].split(",") if w]
        return parts[0], [(w, 1.0) for w in words[:k]]

    return PrototypeTable(prototypes=dict(read_records(path, parse)), k=k)


def save_prototypes(table, path):
    write_records(
        path, (lab + "\t" + ",".join(table.words(lab)) for lab in sorted(table.prototypes))
    )


# ---------------------------------------------------------------------------
# Label embeddings


@dataclass
class LabelEmbeddingMatrix:
    """kind in {proto, hle, proto-hle}; matrix has one column per label
    (N x N binary for HLE)."""

    kind: str
    labels: list
    matrix: np.ndarray


def proto_le(prototypes, hierarchy, emb):
    """Column per label: mean embedding of its (deduplicated) prototype
    words; prototypes missing from the vocabulary are skipped with a
    warning, and a fully-OOV label is an error."""
    d = emb.dims
    mat = np.zeros((d, len(hierarchy)))
    for lab in hierarchy.labels:
        vecs = []
        seen = set()
        for w in prototypes.words(lab):
            if w in seen:
                continue
            seen.add(w)
            idx = emb.id_of(w)
            if idx is None:
                log.warning("prototype %r of %s not in embedding vocab", w, lab)
                continue
            vecs.append(emb.word_vectors[idx])
        if not vecs:
            raise ValueError(f"all prototypes of {lab!r} are out of vocabulary")
        mat[:, hierarchy.index[lab]] = np.mean(vecs, axis=0)
    return LabelEmbeddingMatrix(kind="proto", labels=list(hierarchy.labels), matrix=mat)


def hle(hierarchy, transitive=False):
    """Binary N x N matrix: entry (i, j) is 1 iff j == i or label j is the
    (immediate, or any ancestor when ``transitive``) parent of label i."""
    n = len(hierarchy)
    mat = np.zeros((n, n))
    for lab in hierarchy.labels:
        i = hierarchy.index[lab]
        mat[i, i] = 1.0
        if transitive:
            for anc in hierarchy.path(lab)[:-1]:
                mat[i, hierarchy.index[anc]] = 1.0
        else:
            par = hierarchy.parent[lab]
            if par is not None:
                mat[i, hierarchy.index[par]] = 1.0
    return LabelEmbeddingMatrix(kind="hle", labels=list(hierarchy.labels), matrix=mat)


def proto_hle(b_proto, b_hier):
    """Proto-HLE = B_P @ B_H^T: each column adds the parent's ProtoLE column."""
    if b_proto.matrix.shape[1] != b_hier.matrix.shape[0]:
        raise ValueError(
            f"shape mismatch: ProtoLE {b_proto.matrix.shape} vs HLE {b_hier.matrix.shape}"
        )
    mat = b_proto.matrix @ b_hier.matrix.T
    return LabelEmbeddingMatrix(kind="proto-hle", labels=list(b_proto.labels), matrix=mat)


# ---------------------------------------------------------------------------
# Bilinear WARP model


@dataclass
class JointEmbeddingModel:
    """f(x, y) = (A x) . B[:, y] with A (D x M) and B (D x N)."""

    A: np.ndarray
    B: np.ndarray
    labels: list


def score(features, label_id, model):
    """f(x, y) for the mention features (ids, counts) and one label id."""
    if not (0 <= label_id < model.B.shape[1]):
        raise ValueError(f"label id {label_id} out of range")
    ids, counts = features
    return float(model.A[:, ids] @ counts @ model.B[:, label_id])


def score_all(features, model):
    ids, counts = features
    return model.A[:, ids] @ counts @ model.B


def warp_loss_weight(rank):
    """L(k) = sum_{i=1..k} 1/i."""
    return sum(1.0 / i for i in range(1, rank + 1))


@dataclass
class WarpConfig:
    dims: int = 300
    epochs: int = 5
    lr: float = 0.1
    lam: float = 0.01
    margin: float = 1.0
    seed: int = 1
    prototypes: int = 60  # head words kept per label
    threshold: float = 1.0  # type_infer's score window below the 1-best
    top_k: int = 3  # type_infer's candidate count


def warp_train(dataset, hierarchy, mode, config, b_init=None):
    """WARP-trained bilinear classifier.

    mode 'joint' learns B freely (the WSABIE baseline), 'fixed' keeps B at
    the supplied label embedding, 'adaptive' learns B with the penalty
    lam * ||B - B_init||_F^2 pulling toward the prior. Ranks are computed
    exactly (label sets here are far below the sampling cut-over). AdaGrad
    per-parameter steps; deterministic for a fixed seed. The first
    non-finite score raises NumericFailure naming its epoch and step.
    """
    if mode not in ("joint", "fixed", "adaptive"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode in ("fixed", "adaptive") and b_init is None:
        raise ValueError(f"mode {mode!r} requires a label embedding")
    n_labels = len(hierarchy)
    m_feats = 1 + max((int(i) for inst in dataset for i in inst.features[0]), default=0)
    rng = substream_rng(config.seed, "fnet.warp")
    if b_init is not None:
        B = b_init.matrix.copy()
        dims = B.shape[0]
    else:
        dims = config.dims
        B = rng.normal(scale=0.1, size=(dims, n_labels))
    A = rng.normal(scale=0.1, size=(dims, m_feats))
    B_prior = b_init.matrix if b_init is not None else None
    ga = np.zeros_like(A)
    gb = np.zeros_like(B)

    def adagrad_update(param, grad, accum, sub=None):
        if sub is None:
            accum += grad * grad
            param -= config.lr * grad / (np.sqrt(accum) + 1e-8)
        else:
            accum[:, sub] += grad * grad
            param[:, sub] -= config.lr * grad / (np.sqrt(accum[:, sub]) + 1e-8)

    def finite_scores(ax):
        scores = ax @ B
        if not np.all(np.isfinite(scores)):
            raise NumericFailure(
                f"typing training scores are not finite at epoch {epoch}, step {step}"
            )
        return scores

    all_ids = np.arange(n_labels)
    step = 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(dataset))
        for idx in order:
            step += 1
            inst = dataset[idx]
            pos_ids = [hierarchy.index[lab] for lab in sorted(inst.labels)]
            if len(pos_ids) == n_labels:
                log.warning("instance has every label; skipping (empty negative set)")
                continue
            neg_mask = np.ones(n_labels, dtype=bool)
            neg_mask[pos_ids] = False
            ids, counts = inst.features
            ax = A[:, ids] @ counts
            scores = finite_scores(ax)
            for y in pos_ids:
                violators = all_ids[neg_mask & (config.margin + scores > scores[y])]
                rank = len(violators)
                if rank == 0:
                    continue
                y_neg = int(violators[rng.integers(rank)])
                w = warp_loss_weight(rank)
                # hinge term w * (margin - f(y) + f(y')); only A's columns
                # at the mention's feature ids have a gradient
                grad_a = np.outer(w * (B[:, y_neg] - B[:, y]), counts)
                adagrad_update(A, grad_a, ga, sub=ids)
                if mode != "fixed":
                    grad_b_cols = np.stack([-w * ax, w * ax], axis=1)
                    adagrad_update(B, grad_b_cols, gb, sub=[y, y_neg])
                ax = A[:, ids] @ counts
                scores = finite_scores(ax)
            if mode == "adaptive":
                adagrad_update(B, 2.0 * config.lam * (B - B_prior), gb)
    return JointEmbeddingModel(A=A, B=B, labels=list(hierarchy.labels))


def type_infer(ranked, hierarchy, threshold, top_k):
    """Greedy hierarchical inference over descending (label, score) pairs.

    A candidate within ``threshold`` of the 1-best score contributes its
    root-to-leaf path level by level; a level conflicting with an already
    admitted label stops that candidate's path. The result is path-closed.
    """
    if not ranked:
        return frozenset()
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    best = ranked[0][1]
    admitted = {}  # level -> set of labels
    for label, sc in ranked[:top_k]:
        if best - sc > threshold:
            continue
        for level, anc in enumerate(hierarchy.path(label), start=1):
            current = admitted.setdefault(level, set())
            if not current or anc in current:
                current.add(anc)
            else:
                break
    out = set()
    for labs in admitted.values():
        out.update(labs)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Mention features


def word_shape(word):
    out = []
    for ch in word:
        if ch.isupper():
            out.append("A")
        elif ch.islower():
            out.append("a")
        elif ch.isdigit():
            out.append("0")
        else:
            out.append("-")
    return "".join(out)


def char_trigrams(word):
    w = word.lower()
    return [w[i : i + 3] for i in range(len(w) - 2)]


def _mention_feature_strings(inst):
    """Mention unigrams, head word, lower-cased head character trigrams, the
    word shapes of the mention's tokens, and context unigrams and bigrams."""
    head = inst.head_word
    feats = [f"tok={tok.lower()}" for tok in inst.mention_tokens]
    feats.append(f"head={head}")
    feats.extend(f"tri={tri}" for tri in char_trigrams(head))
    feats.append("shape=" + " ".join(word_shape(t) for t in inst.mention_tokens))
    left = inst.tokens[max(0, inst.start - 2) : inst.start]
    right = inst.tokens[inst.end : inst.end + 2]
    feats.extend(f"ctx={tok.lower()}" for tok in left + right)
    for side in (left, right):
        feats.extend(f"ctx2={a.lower()}_{b.lower()}" for a, b in zip(side, side[1:]))
    return feats


def extract_mention_features(mentions, vocab=None):
    """Set each mention's ``features`` and return the feature vocabulary.

    ``features`` is (ids, counts): ascending unique int64 feature ids and
    their float64 counts, none of them zero. The vocabulary is the list of
    feature strings in id order. Without ``vocab`` it is built here, ids
    assigned in order of first appearance over the mentions; a given
    ``vocab`` stays fixed, and features outside it are dropped.
    """
    fixed = vocab is not None
    index = {f: i for i, f in enumerate(vocab)} if fixed else {}
    for inst in mentions:
        counts = {}
        for f in _mention_feature_strings(inst):
            fid = index.get(f)
            if fid is None:
                if fixed:
                    continue
                fid = index[f] = len(index)
            counts[fid] = counts.get(fid, 0) + 1
        ids = sorted(counts)
        values = np.array([counts[i] for i in ids], dtype=np.float64)
        inst.features = (np.array(ids, dtype=np.int64), values)
    return vocab if fixed else list(index)


def coarse_only(mentions, hierarchy):
    """Copies of the mentions with every level-2 label held out, for
    zero-shot training; a mention left with no label is dropped."""
    kept = []
    for inst in mentions:
        labels = {lab for lab in inst.labels if hierarchy.level[lab] < 2}
        if labels:
            kept.append(
                MentionInstance(tokens=inst.tokens, start=inst.start, end=inst.end, labels=labels)
            )
    if not kept:
        raise ValueError("zero-shot filter removed every training mention")
    return kept


# ---------------------------------------------------------------------------
# Persistence


def save_model(model, kind, path):
    """Model artifact of kind ``fnet``: the label embedding kind and label
    names in the manifest, then A and B."""
    meta = {"label_emb": kind, "labels": model.labels}
    save_arrays(path, "fnet", meta, {"A": model.A, "B": model.B})


def load_model(path):
    meta, arrays = load_arrays(path, "fnet")
    model = JointEmbeddingModel(A=arrays["A"], B=arrays["B"], labels=list(meta["labels"]))
    if model.A.ndim != 2 or model.B.shape != (model.A.shape[0], len(model.labels)):
        raise ValueError(f"{path}: matrix shape mismatch")
    return model, meta["label_emb"]
