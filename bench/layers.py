"""Per-layer metrics computed from one traced pass.

Each metric names the end-to-end metric and workload it should move, so a
change to one layer can be checked against the number it claims to change.
Every ratio is printed with its numerator and denominator.
"""

from __future__ import annotations

import numpy as np

SUBCOMMANDS = {
    "sentiment": ["tsa-train", "tsa-eval"],
    "rerank": ["rerank-pretrain", "rerank-train", "rerank-eval"],
    "typing": ["embed-train", "embed-crf-feats", "fnet-proto", "fnet-train", "fnet-eval"],
}

AUTODIFF_OPS = ("add", "sub", "mul", "matvec", "dot", "tanh", "sigmoid",
                "concat", "stack", "softmax", "log", "index")


def tail_percentile(n):
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return None


class PassView:
    """Aggregates over the spans and counters of one traced pass."""

    def __init__(self, tracer):
        self.tracer = tracer
        a = tracer.arrays()
        self.name, self.dur, self.self_ = a["name"], a["dur"], a["self"]
        self.ids = {n: i for i, n in enumerate(tracer.names)}

    def _mask(self, name):
        return self.name == self.ids.get(name, -2)

    def total(self, name):
        return float(self.dur[self._mask(name)].sum())

    def self_time(self, name):
        return float(self.self_[self._mask(name)].sum())

    def durations(self, name):
        return self.dur[self._mask(name)]

    def spans(self, name):
        return int(self._mask(name).sum())

    def _keyed(self, table, name, under):
        nid = self.ids.get(name, -2)
        uid = self.ids.get(under, -2) if under else None
        return sum(v for (k, p), v in table.items() if k == nid and (uid is None or p == uid))

    def count(self, name, under=None):
        """Calls of a counted function, optionally only inside spans ``under``."""
        return self._keyed(self.tracer.counts, name, under)

    def measured(self, name, under=None):
        return self._keyed(self.tracer.sums, name, under)


class Metrics:
    """Ordered per-layer metric table: name -> (value, unit, note, moves)."""

    def __init__(self):
        self.rows = {}

    def add(self, name, value, unit, moves, note=""):
        self.rows[name] = (float(value), unit, note, moves)

    def timing(self, name, durations, scale, unit, moves):
        """p50 and the tail percentile of per-call durations, with the count."""
        n = len(durations)
        p50 = float(np.percentile(durations, 50)) * scale if n else 0.0
        self.add(f"{name}_p50_{unit}", p50, unit, moves, f"n={n}")
        p = tail_percentile(n)
        tail = float(np.percentile(durations, p)) * scale if p else 0.0
        label = f"p{p:g}" if p else "none (fewer than 40 calls)"
        self.add(f"{name}_tail_{unit}", tail, unit, moves, f"{label}, n={n}")

    def ratio(self, name, num, den, unit, moves, num_label, den_label):
        self.add(name, num / den if den else 0.0, unit, moves,
                 f"{num:g} {num_label} / {den:g} {den_label}")


def per_layer(view, workload, train_hyps):
    """All per-layer metrics of one traced pass.

    ``train_hyps`` is the number of training hypotheses in the workload's
    inputs, the base of the reranker's per-hypothesis ratios (0 elsewhere).
    """
    m = Metrics()
    for sub in SUBCOMMANDS[workload]:
        m.add(f"cli.{sub.replace('-', '_')}_s", view.total(f"cli.{sub}"), "s",
              f"train_s/eval_s on {workload}")
    m.add("config.load_config_s", view.total("config.load_config"), "s",
          "nothing; stays negligible (all workloads)")

    # sentic and autodiff: sentiment
    sent = "on sentiment"
    instances = view.spans("sentic.loss_and_grads")
    m.timing("sentic.loss_and_grads", view.durations("sentic.loss_and_grads"), 1e3, "ms",
             f"train_s {sent}")
    m.add("sentic.train_self_s", view.self_time("sentic.train"), "s", f"train_s {sent}",
          "Adam, dropout masks and the epoch loop")
    m.add("sentic.predict_and_evaluate_s", view.total("sentic.predict_and_evaluate"), "s",
          f"train_s/eval_s {sent}")
    m.timing("sentic.forward", view.durations("sentic.forward"), 1e3, "ms", f"eval_s {sent}")
    m.add("sentic.save_checkpoint_s", view.total("sentic.save_checkpoint"), "s",
          f"train_s {sent}")
    m.add("sentic.load_checkpoint_s", view.total("sentic.load_checkpoint"), "s",
          f"eval_s {sent}")
    trains = view.spans("sentic.train")
    m.ratio("sentic.vocab", view.measured("sentic.train"), trains, "count",
            f"train_s, eval_s, peak_rss_mb, artifact_mb {sent}", "tokens", "train calls")
    m.add("autodiff.backward_self_s", view.self_time("autodiff.backward"), "s",
          f"train_s {sent}")
    ops = sum(view.count(f"autodiff.{op}", "sentic.loss_and_grads") for op in AUTODIFF_OPS)
    m.ratio("autodiff.ops_per_instance", ops, instances, "ops/instance",
            f"train_s {sent}", "op calls", "loss_and_grads calls")
    index_mb = view.measured("autodiff.index", "sentic.loss_and_grads") / 1e6
    m.ratio("autodiff.index_grad_mb_per_instance", index_mb, instances, "MB/instance",
            f"train_s, peak_rss_mb {sent}", "MB of 2-D index tables", "loss_and_grads calls")

    # rerank and metrics: rerank
    # train_slp runs inside rerank-eval, so it moves eval_s
    rr, rt, re_ = "train_s/eval_s on rerank", "train_s on rerank", "eval_s on rerank"
    for name, moves in (("pretrain_generative", rt), ("train_drbm", rt), ("train_slp", re_),
                        ("corpus_wer", re_), ("save_drbm", rt), ("load_drbm", rr),
                        ("load_nbest", rr)):
        m.add(f"rerank.{name}_s", view.total(f"rerank.{name}"), "s", moves)
    phi = view.count("rerank.phi_unigram")
    m.add("rerank.phi_unigram_calls", phi, "count", rr)
    m.ratio("rerank.phi_per_hyp", phi, train_hyps, "calls/hyp", rr,
            "phi_unigram calls", "training hypotheses")
    m.add("rerank.oracle_index_calls", view.count("rerank.NBestList.oracle_index"), "count", rr)
    m.timing("rerank.score_rbm", view.durations("rerank.score_rbm"), 1e6, "us", re_)
    m.timing("rerank.slp_score", view.durations("rerank.slp_score"), 1e6, "us", re_)
    aligns = view.spans("metrics.align")
    m.add("metrics.align_calls", aligns, "count", rr)
    m.timing("metrics.align", view.durations("metrics.align"), 1e6, "us", rr)
    m.ratio("metrics.align_per_hyp", aligns, train_hyps, "calls/hyp", rr,
            "align calls", "training hypotheses")

    # numerics: rerank and typing
    m.add("numerics.kmeans_s", view.total("numerics.kmeans"), "s", "eval_s on typing")
    m.add("numerics.sampler_draws", view.count("numerics.DiscreteSampler.sample"), "count",
          "train_s on typing")
    m.ratio("numerics.draws_per_negative",
            view.count("numerics.DiscreteSampler.sample", "embed.train_skipner"),
            view.measured("embed.sgd_step", "embed.train_skipner"), "draws/negative",
            "train_s on typing", "sampler draws in SGNS", "negatives requested")
    m.add("numerics.sparse_vectors_built", view.count("numerics.SparseVector.__init__"),
          "count", "train_s/eval_s on rerank and typing")

    # embed, corpus and fnet: typing
    tt, te = "train_s on typing", "eval_s on typing"
    steps = view.count("embed.sgd_step")
    sgns_s = view.self_time("embed.train_skipner")
    m.add("embed.sgd_step_calls", steps, "count", tt)
    m.ratio("embed.sgns_events_per_s", steps, sgns_s, "1/s", tt,
            "sgd_step calls", "train_skipner self seconds")
    m.add("embed.train_skipner_self_s", sgns_s, "s", tt, "the SGNS loop")
    m.add("embed.save_embeddings_s", view.total("embed.save_embeddings"), "s", tt)
    for name in ("load_embeddings", "binarize", "cluster_words"):
        m.add(f"embed.{name}_s", view.total(f"embed.{name}"), "s", te)
    m.add("corpus.load_corpus_s", view.total("corpus.load_corpus"), "s", "train_s/eval_s on typing")
    m.add("corpus.extract_feature_events_s", view.total("corpus.extract_feature_events"), "s",
          tt, "over consumption of the generator")
    m.add("corpus.events", view.measured("corpus.extract_feature_events"), "count", tt)
    m.add("corpus.emit_crf_features_s", view.total("corpus.emit_crf_features"), "s", te)
    m.add("fnet.select_prototypes_s", view.total("fnet.select_prototypes"), "s", tt)
    warp_s = view.total("fnet.warp_train")
    updates = view.count("fnet.warp_loss_weight")
    m.add("fnet.warp_train_s", warp_s, "s", tt)
    m.add("fnet.warp_updates", updates, "count", tt, "warp_loss_weight calls")
    m.ratio("fnet.warp_updates_per_s", updates, warp_s, "1/s", tt,
            "warp updates", "warp_train seconds")
    fn = "train_s/eval_s on typing"
    for name in ("extract_mention_features", "score_all", "type_infer"):
        m.timing(f"fnet.{name}", view.durations(f"fnet.{name}"), 1e6, "us", fn)
    m.add("fnet.save_model_s", view.total("fnet.save_model"), "s", tt)
    m.add("fnet.load_model_s", view.total("fnet.load_model"), "s", te)
    return m
