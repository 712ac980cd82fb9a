"""Subcommand front door for the training and evaluation pipelines.

Exit codes: 0 success, 2 input error (missing/malformed files, a sidecar
whose length disagrees with its model, bad flags, unknown config keys),
3 numeric failure (non-finite values produced).
Every output file is written through ``artifact.atomic_write``, so a failing
invocation leaves no partial file behind; a model and its sidecar are
replaced one after the other, not together.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import corpus as corpus_mod
from . import embed as embed_mod
from . import fnet as fnet_mod
from . import metrics as metrics_mod
from . import rerank as rerank_mod
from . import sentic as sentic_mod
from .artifact import atomic_write, read_records, write_records
from .config import load_config
from .numerics import NumericFailure

__all__ = ["main"]


def _check_finite(name, *arrays):
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise NumericFailure(f"{name} produced non-finite values")


def _write_report(values, path):
    text = metrics_mod.format_report(values, as_json=True) + "\n"
    if path:
        with atomic_write(path) as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _load_sidecar(model_path, suffix, size):
    """Lines of the ``<model><suffix>`` sidecar; there must be ``size`` of them."""
    path = f"{model_path}{suffix}"
    lines = read_records(path, str)
    if len(lines) != size:
        raise ValueError(f"{path}: {len(lines)} entries for a model of size {size}")
    return lines


def _load_drbm(path):
    """A DRBM model and the vocabulary in its ``.vocab`` sidecar."""
    params = rerank_mod.load_drbm(path)
    tokens = _load_sidecar(path, ".vocab", params.W.shape[0])
    return params, corpus_mod.Vocabulary.from_tokens(tokens, f"{path}.vocab")


# ---------------------------------------------------------------------------
# embed


def cmd_embed_train(args):
    cfg = load_config(args.config, args.seed)
    corpus = corpus_mod.load_corpus(args.corpus)
    taxonomy = corpus_mod.load_taxonomy(args.taxonomy) if args.taxonomy else None
    vocab = corpus_mod.build_vocab(corpus, min_count=cfg.embed.min_count)
    emb, _ = embed_mod.train_skipner(corpus, vocab, cfg.embed, taxonomy=taxonomy)
    _check_finite("embedding training", emb.word_vectors)
    embed_mod.save_embeddings(emb, args.output)
    print(f"wrote {emb.word_vectors.shape[0]} vectors to {args.output}", file=sys.stderr)
    return 0


def cmd_embed_query(args):
    emb = embed_mod.load_embeddings(args.embeddings)
    neighbors = embed_mod.nearest_neighbors(emb, args.word, args.k)
    width = max((len(w) for w, _ in neighbors), default=4)
    for word, cos in neighbors:
        print(f"{word.ljust(width)}  {cos:.6f}")
    return 0


def cmd_embed_crf_feats(args):
    cfg = load_config(args.config, args.seed)
    corpus = corpus_mod.load_corpus(args.corpus)
    emb = embed_mod.load_embeddings(args.embeddings)
    vocab = corpus_mod.Vocabulary.from_tokens(emb.tokens, args.embeddings)
    binarized = embed_mod.binarize(emb)
    ks = [k for k in cfg.embed.clusters if k <= len(emb.tokens)]
    clusterings = embed_mod.cluster_words(emb, ks, seed=cfg.embed.seed)
    text = corpus_mod.emit_crf_features(
        corpus, vocab, binarized, clusterings, window=cfg.embed.window
    )
    with atomic_write(args.output) as f:
        f.write(text)
    return 0


# ---------------------------------------------------------------------------
# fnet


def cmd_fnet_proto(args):
    cfg = load_config(args.config, args.seed)
    mentions = fnet_mod.load_mentions(args.mentions)
    hierarchy = fnet_mod.load_hierarchy(args.hierarchy)
    table = fnet_mod.select_prototypes(mentions, hierarchy, k=cfg.fnet.prototypes)
    fnet_mod.save_prototypes(table, args.output)
    return 0


def _build_label_embedding(kind, hierarchy, args, cfg):
    if kind in ("proto", "proto-hle"):
        if not args.prototypes or not args.embeddings:
            raise ValueError(f"label embedding {kind!r} needs --prototypes and --embeddings")
        protos = fnet_mod.load_prototypes(args.prototypes, k=cfg.fnet.prototypes)
        emb = embed_mod.load_embeddings(args.embeddings)
        b_proto = fnet_mod.proto_le(protos, hierarchy, emb)
        if kind == "proto":
            return b_proto
        return fnet_mod.proto_hle(b_proto, fnet_mod.hle(hierarchy))
    if kind == "hle":
        return fnet_mod.hle(hierarchy)
    raise ValueError(f"unknown label embedding kind {kind!r}")


def cmd_fnet_train(args):
    cfg = load_config(args.config, args.seed)
    mentions = fnet_mod.load_mentions(args.mentions)
    hierarchy = fnet_mod.load_hierarchy(args.hierarchy)
    if args.zero_shot:
        mentions = fnet_mod.coarse_only(mentions, hierarchy)
    b_init = None
    if args.mode in ("fixed", "adaptive") or args.label_emb:
        kind = args.label_emb or "proto"
        b_init = _build_label_embedding(kind, hierarchy, args, cfg)
    feats = fnet_mod.extract_mention_features(mentions)
    model = fnet_mod.warp_train(mentions, hierarchy, args.mode, cfg.fnet, b_init=b_init)
    _check_finite("typing model", model.A, model.B)
    fnet_mod.save_model(model, args.label_emb or "joint", args.output)
    write_records(f"{args.output}.feats", feats)
    return 0


def cmd_fnet_eval(args):
    cfg = load_config(args.config, args.seed)
    mentions = fnet_mod.load_mentions(args.mentions)
    hierarchy = fnet_mod.load_hierarchy(args.hierarchy)
    if args.oracle:
        preds = [
            metrics_mod.LabelSetPrediction(gold=m.labels, predicted=m.labels)
            for m in mentions
        ]
        _write_report(_set_metrics(preds), args.report)
        return 0
    if not args.model:
        raise ValueError("either --model or --oracle is required")
    model, _kind = fnet_mod.load_model(args.model)
    feats = _load_sidecar(args.model, ".feats", model.A.shape[1])
    fnet_mod.extract_mention_features(mentions, feats)
    ranked = [
        sorted(zip(model.labels, fnet_mod.score_all(m.features, model).tolist()),
               key=lambda t: (-t[1], t[0]))
        for m in mentions
    ]
    if args.threshold_sweep:
        thresholds = [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0]
    else:
        thresholds = [cfg.fnet.threshold]
    report = {}
    for t in thresholds:
        preds = [
            metrics_mod.LabelSetPrediction(
                gold=m.labels,
                predicted=fnet_mod.type_infer(r, hierarchy, t, cfg.fnet.top_k),
            )
            for m, r in zip(mentions, ranked)
        ]
        prefix = f"t={t}:" if args.threshold_sweep else ""
        report.update((prefix + key, val) for key, val in _set_metrics(preds).items())
    _write_report(report, args.report)
    return 0


def _set_metrics(preds):
    return {
        "strict_acc": metrics_mod.strict_accuracy(preds),
        "macro_f1": metrics_mod.macro_f1(preds),
        "micro_f1": metrics_mod.micro_f1(preds),
    }


# ---------------------------------------------------------------------------
# rerank


def cmd_rerank_pretrain(args):
    cfg = load_config(args.config, args.seed)
    data = rerank_mod.load_nbest(args.nbest)
    vocab = rerank_mod.build_nbest_vocab(data)
    W, b, c = rerank_mod.pretrain_generative([nb.reference for nb in data], vocab, cfg.rerank)
    params = rerank_mod.DrbmParams(W=W, b=b, c=c, w0=cfg.rerank.w0)
    rerank_mod.save_drbm(params, args.output)
    write_records(f"{args.output}.vocab", vocab.id_to_token)
    return 0


def cmd_rerank_train(args):
    cfg = load_config(args.config, args.seed)
    data = rerank_mod.load_nbest(args.nbest)
    if args.init:
        params, vocab = _load_drbm(args.init)
    else:
        vocab = rerank_mod.build_nbest_vocab(data)
        params = rerank_mod.DrbmParams.zeros(len(vocab), cfg.rerank.hidden, w0=cfg.rerank.w0)
    prior = None
    if args.gazetteer:
        gaz = corpus_mod.load_gazetteer(args.gazetteer)
        try:
            prior = rerank_mod.EntityPrior.from_gazetteer(gaz, vocab, cfg.rerank.lam)
        except ValueError as exc:
            raise ValueError(f"{args.gazetteer}: {exc}") from None
    trained = rerank_mod.train_drbm(data, params, vocab, cfg.rerank, prior=prior)
    _check_finite("reranker training", trained.W, trained.b, trained.c)
    rerank_mod.save_drbm(trained, args.output)
    write_records(f"{args.output}.vocab", vocab.id_to_token)
    return 0


def cmd_rerank_eval(args):
    cfg = load_config(args.config, args.seed)
    data = rerank_mod.load_nbest(args.nbest)
    keywords = rerank_mod.load_keywords(args.keywords) if args.keywords else None
    if args.zero_model:
        scorer = rerank_mod.asr_scores
    else:
        if not args.model:
            raise ValueError("either --model or --zero-model is required")
        params, vocab = _load_drbm(args.model)
        slp = None
        if args.fuse_slp is not None:
            slp_data = rerank_mod.load_nbest(args.slp_train) if args.slp_train else data
            slp = rerank_mod.train_slp(slp_data, vocab, cfg.rerank)
        scorer = rerank_mod.fused_scorer(params, slp, vocab, args.fuse_slp, cfg.rerank.presence)
    # the plain WERs sum each list's cached errors: one edit distance per hypothesis
    picks = [rerank_mod.rerank_index(nb, scorer) for nb in data]
    report = {
        "wer": rerank_mod.picked_wer(data, picks),
        "asr_wer": rerank_mod.corpus_wer(data, rerank_mod.asr_scores),
        "oracle_wer": rerank_mod.picked_wer(data, [nb.oracle_index() for nb in data]),
    }
    if keywords is not None:
        chosen = [(nb.reference, nb.hyps[k].words) for nb, k in zip(data, picks)]
        report["weighted_wer"] = metrics_mod.weighted_wer(chosen, keywords)
    _write_report(report, args.report)
    return 0


# ---------------------------------------------------------------------------
# tsa


def cmd_tsa_train(args):
    cfg = load_config(args.config, args.seed)
    train_set = sentic_mod.load_tsa(args.train)
    dev_set = sentic_mod.load_tsa(args.dev)
    model_cfg = dataclasses.replace(
        cfg.tsa, four_class=args.classes == 4, target_averaging=args.target_averaging
    )
    params = sentic_mod.train(train_set, dev_set, model_cfg)
    _check_finite("sentiment training", *params.arrays.values())
    sentic_mod.save_checkpoint(params, args.output)
    print(f"best epoch {params.best_epoch}", file=sys.stderr)
    return 0


def cmd_tsa_eval(args):
    params = sentic_mod.load_checkpoint(args.checkpoint)
    data = sentic_mod.load_tsa(args.data)
    report = sentic_mod.predict_and_evaluate(data, params)
    _write_report(
        {
            "strict_acc": report["strict_accuracy"],
            "macro_f1": report["macro_f1"],
            "micro_f1": report["micro_f1"],
            "sentiment_acc": report["sentiment_accuracy"],
        },
        args.report,
    )
    return 0


# ---------------------------------------------------------------------------
# dispatch


def _add_common(p):
    p.add_argument("--config", help="key=value run configuration file")
    p.add_argument("--seed", type=int, help="global random seed")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="conceptkit",
        description="Concept-embedding pipelines: tagging embeddings, "
        "fine-grained typing, hypothesis reranking, targeted sentiment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed-train", help="train multi-task word embeddings")
    p.add_argument("corpus")
    p.add_argument("--taxonomy")
    p.add_argument("--output", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_embed_train)

    p = sub.add_parser("embed-query", help="nearest neighbors of a word")
    p.add_argument("embeddings")
    p.add_argument("word")
    p.add_argument("-k", type=int, default=10)
    _add_common(p)
    p.set_defaults(func=cmd_embed_query)

    p = sub.add_parser("embed-crf-feats", help="emit tagging feature file")
    p.add_argument("corpus")
    p.add_argument("embeddings")
    p.add_argument("--output", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_embed_crf_feats)

    p = sub.add_parser("fnet-proto", help="select label prototypes")
    p.add_argument("mentions")
    p.add_argument("hierarchy")
    p.add_argument("--output", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_fnet_proto)

    p = sub.add_parser("fnet-train", help="train the mention-typing model")
    p.add_argument("mentions")
    p.add_argument("hierarchy")
    p.add_argument("--mode", choices=["joint", "fixed", "adaptive"], default="joint")
    p.add_argument("--label-emb", choices=["proto", "hle", "proto-hle"])
    p.add_argument("--prototypes")
    p.add_argument("--embeddings")
    p.add_argument("--zero-shot", action="store_true")
    p.add_argument("--output", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_fnet_train)

    p = sub.add_parser("fnet-eval", help="evaluate mention typing")
    p.add_argument("mentions")
    p.add_argument("hierarchy")
    p.add_argument("--model")
    p.add_argument("--oracle", action="store_true", help="score gold against itself")
    p.add_argument("--threshold-sweep", action="store_true")
    p.add_argument("--report")
    _add_common(p)
    p.set_defaults(func=cmd_fnet_eval)

    p = sub.add_parser("rerank-pretrain", help="generative initialization")
    p.add_argument("nbest")
    p.add_argument("--output", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_rerank_pretrain)

    p = sub.add_parser("rerank-train", help="train the discriminative reranker")
    p.add_argument("nbest")
    p.add_argument("--init")
    p.add_argument("--gazetteer")
    p.add_argument("--output", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_rerank_train)

    p = sub.add_parser("rerank-eval", help="rerank and score an N-best file")
    p.add_argument("nbest")
    p.add_argument("--model")
    p.add_argument("--zero-model", action="store_true")
    p.add_argument("--keywords")
    p.add_argument("--fuse-slp", type=float, metavar="ALPHA")
    p.add_argument("--slp-train")
    p.add_argument("--report")
    _add_common(p)
    p.set_defaults(func=cmd_rerank_eval)

    p = sub.add_parser("tsa-train", help="train the targeted sentiment model")
    p.add_argument("train")
    p.add_argument("dev")
    p.add_argument("--classes", type=int, choices=[3, 4], default=3)
    p.add_argument("--target-averaging", action="store_true")
    p.add_argument("--output", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_tsa_train)

    p = sub.add_parser("tsa-eval", help="evaluate targeted sentiment")
    p.add_argument("checkpoint")
    p.add_argument("data")
    p.add_argument("--report")
    _add_common(p)
    p.set_defaults(func=cmd_tsa_eval)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
