"""Seeded workload inputs, generated with ``conceptkit.synth`` and written as
the files the CLI reads.

Run as a script this is the benchmark's set-up step, whose wall time
(interpreter start, ``import conceptkit``, generating and writing) is the
``setup_s`` metric::

    python3 bench/inputs.py <workload> <seed> <out_dir>

It prints the digest of the files it wrote. The same seed gives the same
files, so equal digests show that two commits ran identical inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Sizes keep a pass between 4 and 15 s on 2 CPUs, so a 30 s run holds at
# least two timed passes. They also keep the sentiment vocabulary near 2.5k
# words and the typing word groups above the sampler's 1024-outcome alias
# threshold, and the task scores steady across seeds (300 sentiment training sentences converge in one epoch at tsa.lr = 0.005
# on every seed tried, where 200 fell short on about one seed in four; ten
# DRBM epochs give rerank-train a measurable length).
SENTIMENT = {"train": 300, "dev": 40, "test": 300, "fillers": 20000}
RERANK = {"train": 120, "test": 400, "depth": 20}
TYPING = {"train": 600, "test": 400, "corpus_mentions": 300, "filler_sentences": 70,
          "filler_length": 20, "fillers": 50000}

CONFIGS = {
    "sentiment": "tsa.aspects = price,service\ntsa.epochs = 1\ntsa.lr = 0.005\n",
    "rerank": "rerank.lr = 0.05\nrerank.epochs = 10\n",
    "typing": "embed.groups = word,pos,taxo,self\nembed.clusters = 100\n",
}


def import_conceptkit():
    """Import the package from this checkout's ``src/``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "conceptkit", "cli.py")):
        raise ImportError(f"no conceptkit package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from conceptkit import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"conceptkit imported from {cli.__file__}, not {SRC}")
    return cli


def generate(workload, seed):
    """In-memory inputs: ``{file name: object}`` as ``write`` expects."""
    from conceptkit import rerank, synth

    if workload == "sentiment":
        s = SENTIMENT
        data = synth.synth_tsa(
            s["train"] + s["dev"] + s["test"], seed=seed, fillers=s["fillers"]
        )
        a, b = s["train"], s["train"] + s["dev"]
        return {
            "train.jsonl": data[:a],
            "dev.jsonl": data[a:b],
            "test.jsonl": data[b:],
        }
    if workload == "rerank":
        s = RERANK
        lists, gazetteer = synth.synth_nbest(
            s["train"] + s["test"], n_best=s["depth"], seed=seed
        )
        train = lists[: s["train"]]
        keywords = rerank.tfidf_keywords([nb.reference for nb in train])
        return {
            "train.nbest": train,
            "test.nbest": lists[s["train"] :],
            "gazetteer.tsv": gazetteer,
            "keywords.tsv": keywords,
        }
    if workload == "typing":
        s = TYPING
        mentions, hierarchy, _ = synth.synth_fnet(s["train"] + s["test"], seed=seed)
        test, train = mentions[: s["test"]], mentions[s["test"] :]
        filler = synth.synth_tsa(
            s["filler_sentences"], seed=seed, length=s["filler_length"], fillers=s["fillers"]
        )
        return {
            "corpus.tsv": (train[: s["corpus_mentions"]], filler),
            "taxonomy.tsv": train,
            "train.mentions": train,
            "test.mentions": test,
            "hierarchy.txt": hierarchy,
        }
    raise ValueError(f"unknown workload {workload!r}")


def _corpus_text(mentions, filler):
    """Token-per-line corpus (TOKEN, POS, NETAG); tags follow the synth labels."""
    lines = []
    for m in mentions:
        coarse = min(m.labels, key=len).strip("/")
        for i, tok in enumerate(m.tokens):
            if m.start <= i < m.end:
                lines.append(f"{tok}\tNNP\tB-{coarse}")
            else:
                lines.append(f"{tok}\tNN\tO")
        lines.append("")
    for inst in filler:
        lines.extend(f"{tok}\tNN\tO" for tok in inst.tokens)
        lines.append("")
    return "\n".join(lines) + "\n"


def _taxonomy_text(mentions):
    """Coarse label -> the head words of its mentions."""
    heads = {}
    for m in mentions:
        heads.setdefault(min(m.labels, key=len).strip("/"), set()).add(m.head_word)
    return "".join(f"{c}\t{','.join(sorted(ws))}\n" for c, ws in sorted(heads.items()))


def write(workload, files, out_dir):
    """Write the inputs and the run config; return ``{name: path}``."""
    from conceptkit import fnet, rerank, sentic

    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for name, obj in files.items():
        path = os.path.join(out_dir, name)
        if name.endswith(".jsonl"):
            sentic.save_tsa(obj, path)
        elif name.endswith(".nbest"):
            rerank.save_nbest(obj, path)
        elif name == "keywords.tsv":
            rerank.save_keywords(obj, path)
        elif name.endswith(".mentions"):
            fnet.save_mentions(obj, path)
        else:
            if name == "gazetteer.tsv":
                text = "".join(f"{w}\t{c}\n" for w, c in sorted(obj.items()))
            elif name == "corpus.tsv":
                text = _corpus_text(*obj)
            elif name == "taxonomy.tsv":
                text = _taxonomy_text(obj)
            elif name == "hierarchy.txt":
                text = "\n".join(obj.labels) + "\n"
            else:
                raise ValueError(f"no writer for {name}")
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
        paths[name] = path
    paths["run.cfg"] = os.path.join(out_dir, "run.cfg")
    with open(paths["run.cfg"], "w", encoding="utf-8") as f:
        f.write(CONFIGS[workload])
    return paths


def digest(paths):
    """SHA-256 over the input files' names and bytes, in name order."""
    h = hashlib.sha256()
    for name in sorted(paths):
        h.update(name.encode() + b"\0")
        with open(paths[name], "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def main(argv):
    workload, seed, out_dir = argv[0], int(argv[1]), argv[2]
    import_conceptkit()
    paths = write(workload, generate(workload, seed), out_dir)
    print(json.dumps({"digest": digest(paths), "paths": paths}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
