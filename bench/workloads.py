"""The three workloads as sequences of CLI calls, and the checks on their
outputs.

Each call is ``conceptkit.cli.main(argv)``. A call is ``train`` when it writes
a model (its wall time counts toward ``train_s``) and ``eval`` when it reads
one (``eval_s``).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Call:
    role: str  # "train" or "eval"
    argv: list
    outputs: list  # files the call writes
    report: str = None  # JSON report among the outputs


def calls(workload, inp, out):
    """CLI calls of one pass; ``inp`` maps input names to paths and ``out``
    is the directory the pass writes into."""
    o = lambda name: os.path.join(out, name)  # noqa: E731
    cfg = ["--config", inp["run.cfg"]]
    if workload == "sentiment":
        return [
            Call("train", ["tsa-train", inp["train.jsonl"], inp["dev.jsonl"],
                           "--output", o("tsa.ckpt")] + cfg, [o("tsa.ckpt")]),
            Call("eval", ["tsa-eval", o("tsa.ckpt"), inp["test.jsonl"],
                          "--report", o("tsa.json")] + cfg,
                 [o("tsa.json")], o("tsa.json")),
        ]
    if workload == "rerank":
        return [
            Call("train", ["rerank-pretrain", inp["train.nbest"],
                           "--output", o("init.drbm")] + cfg,
                 [o("init.drbm"), o("init.drbm.vocab")]),
            Call("train", ["rerank-train", inp["train.nbest"], "--init", o("init.drbm"),
                           "--gazetteer", inp["gazetteer.tsv"],
                           "--output", o("drbm")] + cfg,
                 [o("drbm"), o("drbm.vocab")]),
            Call("eval", ["rerank-eval", inp["test.nbest"], "--model", o("drbm"),
                          "--fuse-slp", "1.0", "--slp-train", inp["train.nbest"],
                          "--keywords", inp["keywords.tsv"],
                          "--report", o("rerank.json")] + cfg,
                 [o("rerank.json")], o("rerank.json")),
        ]
    if workload == "typing":
        return [
            Call("train", ["embed-train", inp["corpus.tsv"],
                           "--taxonomy", inp["taxonomy.tsv"],
                           "--output", o("emb.txt")] + cfg, [o("emb.txt")]),
            Call("eval", ["embed-crf-feats", inp["corpus.tsv"], o("emb.txt"),
                          "--output", o("crf.txt")] + cfg, [o("crf.txt")]),
            Call("train", ["fnet-proto", inp["train.mentions"], inp["hierarchy.txt"],
                           "--output", o("proto.txt")] + cfg, [o("proto.txt")]),
            Call("train", ["fnet-train", inp["train.mentions"], inp["hierarchy.txt"],
                           "--mode", "adaptive", "--label-emb", "proto-hle",
                           "--prototypes", o("proto.txt"), "--embeddings", o("emb.txt"),
                           "--output", o("fnet.model")] + cfg,
                 [o("fnet.model"), o("fnet.model.feats")]),
            Call("eval", ["fnet-eval", inp["test.mentions"], inp["hierarchy.txt"],
                          "--model", o("fnet.model"), "--report", o("fnet.json")] + cfg,
                 [o("fnet.json")], o("fnet.json")),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# Report keys and the closed range each value must lie in.
REPORT_RANGES = {
    "sentiment": {"strict_acc": (0, 1), "macro_f1": (0, 1), "micro_f1": (0, 1),
                  "sentiment_acc": (0, 1)},
    "rerank": {"wer": (0, math.inf), "asr_wer": (0, math.inf),
               "oracle_wer": (0, math.inf), "weighted_wer": (0, math.inf)},
    "typing": {"strict_acc": (0, 1), "macro_f1": (0, 1), "micro_f1": (0, 1)},
}


def check_report(workload, path):
    """Parsed report, or a ValueError naming what is wrong with it."""
    with open(path, encoding="utf-8") as f:
        report = json.load(f)
    ranges = REPORT_RANGES[workload]
    if set(report) != set(ranges):
        raise ValueError(f"{path}: keys {sorted(report)}, expected {sorted(ranges)}")
    for key, (lo, hi) in ranges.items():
        v = report[key]
        if not isinstance(v, (int, float)) or not math.isfinite(v) or not lo <= v <= hi:
            raise ValueError(f"{path}: {key}={v!r} is not in [{lo}, {hi}]")
    if workload == "rerank" and not report["oracle_wer"] <= report["wer"]:
        raise ValueError(f"{path}: reranked WER below the oracle WER")
    return report


SCORE = {
    "sentiment": "tsa-eval sentiment_acc",
    "rerank": "rerank-eval asr_wer - wer",
    "typing": "fnet-eval micro_f1",
}


def task_score(workload, report):
    """Quality guard: sentiment accuracy, WER points gained over the ASR
    1-best, or typing micro-F1."""
    if workload == "sentiment":
        return report["sentiment_acc"]
    if workload == "rerank":
        return report["asr_wer"] - report["wer"]
    return report["micro_f1"]
