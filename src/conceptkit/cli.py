"""Subcommand front door for the training and evaluation pipelines.

Exit codes: 0 success, 2 input error (missing/malformed files, a sidecar
whose length disagrees with its model, bad flags, unknown config keys),
3 numeric failure (non-finite values produced).
``main`` loads ``--config`` once, before any subcommand runs, so every
subcommand checks it, including those that read no key.
Every output file is written through ``artifact.atomic_write``, so a failing
invocation leaves no partial file behind; a model and its sidecar are
replaced one after the other, not together.
``rerank-eval`` reads its test file once, one N-best list at a time, through
``rerank.evaluate_wers``, so its memory follows one list rather than the
file; a flag it would not read (``--zero-model``
with ``--model``, ``--fuse-slp`` or ``--slp-train``; ``--slp-train`` without
``--fuse-slp``) exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import corpus as corpus_mod
from . import embed as embed_mod
from . import fnet as fnet_mod
from . import metrics as metrics_mod
from . import rerank as rerank_mod
from . import sentic as sentic_mod
from .artifact import read_records, write_records
from .config import load_config
from .numerics import NumericFailure

__all__ = ["main"]


def _check_finite(name, *arrays):
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise NumericFailure(f"{name} produced non-finite values")


def _write_report(values, path):
    text = json.dumps(values, indent=2, sort_keys=True)
    if path:
        write_records(path, [text])
    else:
        print(text)


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
    cfg = args.cfg.embed
    corpus = corpus_mod.load_corpus(args.corpus)
    try:
        corpus_mod.check_columns(corpus, cfg.groups)
    except ValueError as exc:
        raise ValueError(f"{args.corpus}: {exc}") from None
    taxonomy = corpus_mod.load_taxonomy(args.taxonomy) if args.taxonomy else None
    vocab = corpus_mod.build_vocab(corpus, min_count=cfg.min_count)
    emb, _ = embed_mod.train_skipner(corpus, vocab, cfg, taxonomy=taxonomy)
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
    cfg = args.cfg.embed
    corpus = corpus_mod.load_corpus(args.corpus)
    emb = embed_mod.load_embeddings(args.embeddings)
    vocab = corpus_mod.Vocabulary.from_tokens(emb.tokens, args.embeddings)
    binarized = embed_mod.binarize(emb)
    ks = [k for k in cfg.clusters if k <= len(emb.tokens)]
    clusterings = embed_mod.cluster_words(emb, ks, seed=cfg.seed)
    corpus_mod.emit_crf_features(
        corpus, vocab, binarized, clusterings, args.output, window=cfg.window
    )
    return 0


# ---------------------------------------------------------------------------
# fnet


def cmd_fnet_proto(args):
    mentions = fnet_mod.load_mentions(args.mentions)
    hierarchy = fnet_mod.load_hierarchy(args.hierarchy)
    prototypes = fnet_mod.select_prototypes(mentions, hierarchy, k=args.cfg.fnet.prototypes)
    fnet_mod.save_prototypes(prototypes, args.output)
    return 0


def _build_label_embedding(kind, hierarchy, args):
    """The label embedding ``kind`` (proto, hle or proto-hle, the
    ``--label-emb`` choices) over ``hierarchy``."""
    if kind == "hle":
        return fnet_mod.hle(hierarchy)
    if not args.prototypes or not args.embeddings:
        raise ValueError(f"label embedding {kind!r} needs --prototypes and --embeddings")
    protos = fnet_mod.load_prototypes(args.prototypes, k=args.cfg.fnet.prototypes)
    emb = embed_mod.load_embeddings(args.embeddings)
    b_proto = fnet_mod.proto_le(protos, hierarchy, emb)
    if kind == "proto":
        return b_proto
    return fnet_mod.proto_hle(b_proto, fnet_mod.hle(hierarchy))


def cmd_fnet_train(args):
    mentions = fnet_mod.load_mentions(args.mentions)
    hierarchy = fnet_mod.load_hierarchy(args.hierarchy)
    if args.zero_shot:
        mentions = fnet_mod.coarse_only(mentions, hierarchy)
    kind = args.label_emb or ("joint" if args.mode == "joint" else "proto")
    b_init = None if kind == "joint" else _build_label_embedding(kind, hierarchy, args)
    feats = fnet_mod.extract_mention_features(mentions)
    model = fnet_mod.warp_train(mentions, hierarchy, args.mode, args.cfg.fnet, b_init=b_init)
    _check_finite("typing model", model.A, model.B)
    fnet_mod.save_model(model, kind, args.output)
    write_records(f"{args.output}.feats", feats)
    return 0


def cmd_fnet_eval(args):
    cfg = args.cfg.fnet
    mentions = fnet_mod.load_mentions(args.mentions)
    hierarchy = fnet_mod.load_hierarchy(args.hierarchy)
    fnet_mod.check_labels(mentions, hierarchy)
    model, _kind = fnet_mod.load_model(args.model)
    missing = [lab for lab in model.labels if lab not in hierarchy]
    if missing:
        raise ValueError(f"{args.model}: labels {missing} not in {args.hierarchy}")
    # the model can never predict these, so every score would count them as misses
    unscored = sorted({lab for m in mentions for lab in m.labels} - set(model.labels))
    if unscored:
        raise ValueError(
            f"{args.mentions}: gold labels {unscored} are not among {args.model}'s labels"
        )
    feats = _load_sidecar(args.model, ".feats", model.A.shape[1])
    fnet_mod.extract_mention_features(mentions, feats)
    ranked = [fnet_mod.rank_labels(m.features, model) for m in mentions]
    if args.threshold_sweep:
        thresholds = [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0]
    else:
        thresholds = [cfg.threshold]
    report = {}
    for t in thresholds:
        preds = [
            metrics_mod.LabelSetPrediction(
                gold=m.labels,
                predicted=fnet_mod.type_infer(r, hierarchy, t, cfg.top_k),
            )
            for m, r in zip(mentions, ranked)
        ]
        prefix = f"t={t}:" if args.threshold_sweep else ""
        report.update((prefix + key, val) for key, val in metrics_mod.set_metrics(preds).items())
    _write_report(report, args.report)
    return 0


# ---------------------------------------------------------------------------
# rerank


def cmd_rerank_pretrain(args):
    cfg = args.cfg.rerank
    data = rerank_mod.load_nbest(args.nbest)
    vocab = rerank_mod.build_nbest_vocab(data)
    W, b, c = rerank_mod.pretrain_generative([nb.reference for nb in data], vocab, cfg)
    params = rerank_mod.DrbmParams(W=W, b=b, c=c, w0=cfg.w0)
    rerank_mod.save_drbm(params, args.output)
    write_records(f"{args.output}.vocab", vocab.id_to_token)
    return 0


def cmd_rerank_train(args):
    cfg = args.cfg.rerank
    data = rerank_mod.load_nbest(args.nbest)
    if args.init:
        params, vocab = _load_drbm(args.init)
    else:
        vocab = rerank_mod.build_nbest_vocab(data)
        params = rerank_mod.DrbmParams.zeros(len(vocab), cfg.hidden, w0=cfg.w0)
    prior = None
    if args.gazetteer:
        gaz = corpus_mod.load_gazetteer(args.gazetteer)
        try:
            prior = rerank_mod.EntityPrior.from_gazetteer(gaz, vocab, cfg.lam)
        except ValueError as exc:
            raise ValueError(f"{args.gazetteer}: {exc}") from None
    trained = rerank_mod.train_drbm(data, params, vocab, cfg, prior=prior)
    _check_finite("reranker training", trained.W, trained.b, trained.c)
    rerank_mod.save_drbm(trained, args.output)
    write_records(f"{args.output}.vocab", vocab.id_to_token)
    return 0


def _check_rerank_eval_flags(args):
    """Reject a ``rerank-eval`` flag combination that would leave a flag unread."""
    if args.zero_model:
        unread = [flag for flag, value in (("--model", args.model), ("--fuse-slp", args.fuse_slp),
                                           ("--slp-train", args.slp_train)) if value is not None]
        if unread:
            raise ValueError(f"--zero-model scores by the ASR posterior alone; "
                             f"it cannot take {', '.join(unread)}")
    elif not args.model:
        raise ValueError("either --model or --zero-model is required")
    if args.fuse_slp is not None and not args.slp_train:
        raise ValueError("--fuse-slp needs --slp-train, the N-best lists to fit "
                         "its perceptron on")
    if args.slp_train is not None and args.fuse_slp is None:
        raise ValueError("--slp-train is read only with --fuse-slp")


def cmd_rerank_eval(args):
    _check_rerank_eval_flags(args)
    keywords = rerank_mod.load_keywords(args.keywords) if args.keywords else None
    if args.zero_model:
        scorer = rerank_mod.asr_scores
    else:
        params, vocab = _load_drbm(args.model)
        slp = None
        if args.fuse_slp is not None:
            # the perceptron's lists are dropped before the test file is read
            slp = rerank_mod.train_slp(rerank_mod.load_nbest(args.slp_train), vocab,
                                       args.cfg.rerank)
        scorer = rerank_mod.fused_scorer(params, slp, vocab, args.fuse_slp)
    lists = rerank_mod.iter_nbest(args.nbest)  # read while it is scored
    _write_report(rerank_mod.evaluate_wers(lists, scorer, keywords), args.report)
    return 0


# ---------------------------------------------------------------------------
# tsa


def cmd_tsa_train(args):
    train_set = sentic_mod.load_tsa(args.train)
    dev_set = sentic_mod.load_tsa(args.dev)
    model_cfg = dataclasses.replace(
        args.cfg.tsa, four_class=args.classes == 4, target_averaging=args.target_averaging
    )
    params = sentic_mod.train(train_set, dev_set, model_cfg)
    _check_finite("sentiment training", *params.arrays.values())
    sentic_mod.save_checkpoint(params, args.output)
    print(f"best epoch {params.best_epoch}", file=sys.stderr)
    return 0


def cmd_tsa_eval(args):
    params = sentic_mod.load_checkpoint(args.checkpoint)
    data = sentic_mod.load_tsa(args.data)
    _write_report(sentic_mod.predict_and_evaluate(data, params), args.report)
    return 0


# ---------------------------------------------------------------------------
# dispatch


def build_parser():
    parser = argparse.ArgumentParser(
        prog="conceptkit",
        description="Concept-embedding pipelines: tagging embeddings, "
        "fine-grained typing, hypothesis reranking, targeted sentiment.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value run configuration file")
    common.add_argument("--seed", type=int, help="global random seed")
    sub = parser.add_subparsers(dest="command", required=True)
    add = functools.partial(sub.add_parser, parents=[common])

    p = add("embed-train", help="train multi-task word embeddings")
    p.add_argument("corpus")
    p.add_argument("--taxonomy")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_embed_train)

    p = add("embed-query", help="nearest neighbors of a word")
    p.add_argument("embeddings")
    p.add_argument("word")
    p.add_argument("-k", type=int, default=10)
    p.set_defaults(func=cmd_embed_query)

    p = add("embed-crf-feats", help="emit tagging feature file")
    p.add_argument("corpus")
    p.add_argument("embeddings")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_embed_crf_feats)

    p = add("fnet-proto", help="select label prototypes")
    p.add_argument("mentions")
    p.add_argument("hierarchy")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_fnet_proto)

    p = add("fnet-train", help="train the mention-typing model")
    p.add_argument("mentions")
    p.add_argument("hierarchy")
    p.add_argument("--mode", choices=["joint", "fixed", "adaptive"], default="joint")
    p.add_argument("--label-emb", choices=["proto", "hle", "proto-hle"])
    p.add_argument("--prototypes")
    p.add_argument("--embeddings")
    p.add_argument("--zero-shot", action="store_true")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_fnet_train)

    p = add("fnet-eval", help="evaluate mention typing")
    p.add_argument("mentions")
    p.add_argument("hierarchy")
    p.add_argument("--model", required=True)
    p.add_argument("--threshold-sweep", action="store_true")
    p.add_argument("--report")
    p.set_defaults(func=cmd_fnet_eval)

    p = add("rerank-pretrain", help="generative initialization")
    p.add_argument("nbest")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_rerank_pretrain)

    p = add("rerank-train", help="train the discriminative reranker")
    p.add_argument("nbest")
    p.add_argument("--init")
    p.add_argument("--gazetteer")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_rerank_train)

    p = add("rerank-eval", help="rerank and score an N-best file")
    p.add_argument("nbest")
    p.add_argument("--model")
    p.add_argument("--zero-model", action="store_true")
    p.add_argument("--keywords")
    p.add_argument("--fuse-slp", type=float, metavar="ALPHA")
    p.add_argument("--slp-train", help="N-best lists to fit the --fuse-slp perceptron on "
                   "(required with --fuse-slp)")
    p.add_argument("--report")
    p.set_defaults(func=cmd_rerank_eval)

    p = add("tsa-train", help="train the targeted sentiment model")
    p.add_argument("train")
    p.add_argument("dev")
    p.add_argument("--classes", type=int, choices=[3, 4], default=3)
    p.add_argument("--target-averaging", action="store_true")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_tsa_train)

    p = add("tsa-eval", help="evaluate targeted sentiment")
    p.add_argument("checkpoint")
    p.add_argument("data")
    p.add_argument("--report")
    p.set_defaults(func=cmd_tsa_eval)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.cfg = load_config(args.config, args.seed)
        return args.func(args)
    except NumericFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
