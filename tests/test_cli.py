"""End-to-end command-line runs on small generated datasets.

Every test drives ``conceptkit.cli.main`` directly with argv lists and
temporary files, checking exit codes, companion artifacts, report keys,
and byte-level determinism under a fixed seed.
"""

import contextlib
import json
import os
import threading
import tracemalloc

import numpy as np
import pytest

from conceptkit import artifact, fnet, rerank, sentic
from conceptkit.artifact import atomic_write
from conceptkit.cli import main
from conceptkit.embed import EmbeddingSet, load_embeddings, save_embeddings
from conceptkit.synth import synth_fnet, synth_nbest, synth_tsa


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(
        "embed.dims = 8\n"
        "embed.epochs = 1\n"
        "embed.groups = word,pos,self\n"
        "embed.clusters = 2\n"
        "fnet.dims = 16\n"
        "fnet.epochs = 1\n"
        "fnet.prototypes = 3\n"
        "rerank.hidden = 8\n"
        "rerank.epochs = 1\n"
        "rerank.lr = 0.05\n"
        "rerank.pretrain_epochs = 1\n"
        "rerank.slp_pairs = 20\n"
        "rerank.slp_iterations = 2\n"
        "tsa.d_w = 6\n"
        "tsa.d_h = 4\n"
        "tsa.d_m = 3\n"
        "tsa.d_c = 3\n"
        "tsa.epochs = 1\n"
        "tsa.lr = 0.01\n"
        "tsa.dropout = 0.0\n"
        "tsa.aspects = price,service\n"
    )
    return str(path)


def _write_corpus(path):
    lines = []
    sents = [
        [("the", "DT", "O"), ("acme", "NNP", "B-ORG"), ("board", "NN", "O")],
        [("alice", "NNP", "B-PER"), ("visited", "VBD", "O"), ("paris", "NNP", "B-LOC")],
        [("the", "DT", "O"), ("paris", "NNP", "B-LOC"), ("board", "NN", "O")],
    ] * 4
    for sent in sents:
        for surface, pos, ne in sent:
            lines.append(f"{surface}\t{pos}\t{ne}")
        lines.append("")
    path.write_text("\n".join(lines) + "\n")


def _read(path):
    with open(path, "rb") as f:
        return f.read()


def _fails_writing_nothing(tmp_path, capsys, argv, output, code, message):
    """``argv`` with ``--output`` in a fresh directory exits ``code``, names
    ``message`` on stderr and leaves that directory empty."""
    out = tmp_path / "out"
    out.mkdir()
    assert main(argv + ["--output", str(out / output)]) == code
    assert message in capsys.readouterr().err
    assert list(out.iterdir()) == []


# ---------------------------------------------------------------------------
# exit codes


def test_missing_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.txt")
    assert main(["embed-query", missing, "word"]) == 2
    assert "nope.txt" in capsys.readouterr().err


def test_malformed_mentions_exit_2(tmp_path, capsys):
    bad = tmp_path / "mentions.jsonl"
    bad.write_text('{"tokens": ["a"], "start": 0}\n')
    hier = tmp_path / "hier.txt"
    hier.write_text("/A\n")
    out = str(tmp_path / "m.model")
    code = main(["fnet-train", str(bad), str(hier), "--output", out])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_fnet_eval_requires_model(tmp_path, capsys):
    mentions, hierarchy, _ = synth_fnet(n_mentions=5, seed=0)
    mpath = tmp_path / "mentions.jsonl"
    fnet.save_mentions(mentions, mpath)
    hpath = tmp_path / "hier.txt"
    hpath.write_text("\n".join(hierarchy.labels) + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["fnet-eval", str(mpath), str(hpath)])
    assert exc.value.code == 2
    assert "--model" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["embed-query", "tsa-eval"])
def test_config_checked_where_no_key_is_read(tmp_path, capsys, tsa_files, command):
    # neither subcommand reads a config key, and both still check --config
    if command == "embed-query":
        emb = str(tmp_path / "emb.txt")
        save_embeddings(EmbeddingSet(["a", "b"], np.eye(2)), emb)
        argv = ["embed-query", emb, "a"]
    else:
        config = sentic.SenticConfig(d_w=6, d_h=4, d_m=3, d_c=3)
        params = sentic.SenticParams.init(config, ["a"], [], np.random.default_rng(0))
        ckpt = str(tmp_path / "tsa.ckpt")
        sentic.save_checkpoint(params, ckpt)
        argv = ["tsa-eval", ckpt, tsa_files[1]]
    assert main(argv) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.cfg"
    bad.write_text("rerank.presence = true\n")
    assert main(argv + ["--config", str(bad)]) == 2
    assert "unknown config key 'rerank.presence'" in capsys.readouterr().err
    missing = str(tmp_path / "nonexistent.cfg")
    assert main(argv + ["--config", missing]) == 2
    assert "nonexistent.cfg" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# embed pipeline


def test_embed_pipeline(tmp_path, cfg_file, capsys):
    corpus = tmp_path / "corpus.tsv"
    _write_corpus(corpus)
    out = str(tmp_path / "vectors.txt")
    code = main(
        ["embed-train", str(corpus), "--output", out, "--config", cfg_file, "--seed", "7"]
    )
    assert code == 0
    emb = load_embeddings(out)
    assert emb.word_vectors.shape[1] == 8
    capsys.readouterr()

    assert main(["embed-query", out, "paris", "-k", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert 0 < len(lines) <= 3
    # OOV word is an input error
    assert main(["embed-query", out, "zzz-not-here"]) == 2

    feats = str(tmp_path / "crf.feats")
    code = main(
        ["embed-crf-feats", str(corpus), out, "--output", feats, "--config", cfg_file]
    )
    assert code == 0
    text = _read(feats).decode()
    assert "w[0]=" in text and "vd[0]=" in text


def test_crf_feats_memory_below_file_size(tmp_path):
    # 500 five-token sentences over 40 words, d=8 and clusters 2 and 4: a
    # crf.txt of about 1.7 MB. Built as one string, the file's text alone
    # would reach the bound, and its lines on top of it would double that
    # (about 2.4 x the file measured). Written line by line, the call holds
    # the corpus and one block of text per token type, about 0.4 x here.
    words = [f"w{i:02d}" for i in range(40)]
    rng = np.random.default_rng(3)
    corpus = tmp_path / "corpus.tsv"
    rows = []
    for _ in range(500):
        rows += [f"{words[i]}\tNN\tO" for i in rng.integers(40, size=5)] + [""]
    corpus.write_text("\n".join(rows) + "\n")
    emb = str(tmp_path / "emb.txt")
    save_embeddings(EmbeddingSet(["<unk>"] + words, rng.normal(size=(41, 8))), emb)
    cfg = tmp_path / "crf.cfg"
    cfg.write_text("embed.clusters = 2,4\n")
    out = tmp_path / "crf.txt"
    argv = ["embed-crf-feats", str(corpus), emb, "--output", str(out), "--config", str(cfg)]
    assert main(argv) == 0  # warm-up: imports and first-call caches are not counted
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert size > 1_500_000
    assert peak < size


def test_embed_train_defaults_need_no_taxonomy(tmp_path):
    # the default feature groups are the word group alone, so neither a
    # config file nor a taxonomy is required
    corpus = tmp_path / "corpus.tsv"
    _write_corpus(corpus)
    out = str(tmp_path / "vectors.txt")
    assert main(["embed-train", str(corpus), "--output", out]) == 0
    assert load_embeddings(out).word_vectors.shape[1] == 50


def test_embed_train_deterministic(tmp_path, cfg_file):
    corpus = tmp_path / "corpus.tsv"
    _write_corpus(corpus)
    outs = []
    for name in ("a.txt", "b.txt"):
        out = str(tmp_path / name)
        args = ["embed-train", str(corpus), "--output", out, "--config", cfg_file,
                "--seed", "7"]
        assert main(args) == 0
        outs.append(_read(out))
    assert outs[0] == outs[1]


def test_embed_train_ignores_extra_columns(tmp_path, cfg_file):
    # columns past NETAG, such as a concept list, are read by no feature group
    corpus, wide = tmp_path / "corpus.tsv", tmp_path / "wide.tsv"
    _write_corpus(corpus)
    wide.write_text("".join(f"{line}\tcity,place\tx\n" if line else "\n"
                            for line in corpus.read_text().splitlines()))
    outs = []
    for path in (corpus, wide):
        out = str(tmp_path / f"{path.stem}.emb")
        assert main(["embed-train", str(path), "--output", out, "--config", cfg_file]) == 0
        outs.append(_read(out))
    assert outs[0] == outs[1]


def test_embed_train_nonfinite_exits_3(tmp_path, cfg_file, capsys):
    # a blown-up learning rate makes the loss non-finite within a few events;
    # training stops at that step, names it, and writes no embeddings
    corpus = tmp_path / "corpus.tsv"
    _write_corpus(corpus)
    cfg = tmp_path / "blowup.cfg"
    with open(cfg_file) as f:
        cfg.write_text(f.read() + "embed.lr_initial = 1e308\n")
    argv = ["embed-train", str(corpus), "--config", str(cfg), "--seed", "7"]
    _fails_writing_nothing(tmp_path, capsys, argv, "emb.txt", 3, "epoch 0, step 14")


def test_embed_train_spaced_token_exits_2(tmp_path, capsys):
    # the token would make an emb.txt line with one field too many
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("visited\tVBD\tO\nNew York\tNNP\tB-LOC\n\n")
    argv = ["embed-train", str(corpus)]
    message = f"{corpus}: line 2: token 'New York'"
    _fails_writing_nothing(tmp_path, capsys, argv, "emb.txt", 2, message)


def test_embed_train_bad_bio_exits_2(tmp_path, capsys):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("visited\tVBD\tO\nYork\tNNP\tI-LOC\n\n")
    argv = ["embed-train", str(corpus)]
    message = f"{corpus}: sentence 0: malformed BIO transition O -> I-LOC"
    _fails_writing_nothing(tmp_path, capsys, argv, "emb.txt", 2, message)


@pytest.mark.parametrize(
    "group, rows, column",
    [("pos", "visited\tVBD\tO\nRome\t\tB-LOC\n", "POS"),
     ("self", "visited\tVBD\tO\nRome\tNNP\n", "NETAG")],
    ids=["pos", "self"],
)
def test_embed_train_missing_column_names_corpus(tmp_path, capsys, group, rows, column):
    corpus, cfg = tmp_path / "corpus.tsv", tmp_path / "groups.cfg"
    corpus.write_text(rows + "\n")
    cfg.write_text(f"embed.groups = word,{group}\n")
    argv = ["embed-train", str(corpus), "--config", str(cfg)]
    message = f"{corpus}: sentence 0: {column} column required for {group} group"
    _fails_writing_nothing(tmp_path, capsys, argv, "emb.txt", 2, message)


# ---------------------------------------------------------------------------
# fnet pipeline


@pytest.fixture
def fnet_files(tmp_path):
    mentions, hierarchy, emb = synth_fnet(n_mentions=120, seed=3)
    mpath = str(tmp_path / "mentions.jsonl")
    fnet.save_mentions(mentions, mpath)
    hpath = str(tmp_path / "hier.txt")
    with open(hpath, "w") as f:
        f.write("\n".join(hierarchy.labels) + "\n")
    epath = str(tmp_path / "embeddings.txt")
    save_embeddings(emb, epath)
    return mpath, hpath, epath


def test_fnet_pipeline(tmp_path, fnet_files, cfg_file, capsys):
    mpath, hpath, epath = fnet_files
    proto = str(tmp_path / "protos.tsv")
    assert main(["fnet-proto", mpath, hpath, "--output", proto, "--config", cfg_file]) == 0
    assert _read(proto)

    model = str(tmp_path / "typing.model")
    code = main(
        ["fnet-train", mpath, hpath, "--mode", "fixed", "--label-emb", "proto",
         "--prototypes", proto, "--embeddings", epath,
         "--output", model, "--config", cfg_file, "--seed", "7"]
    )
    assert code == 0
    assert _read(model + ".feats")  # companion feature table

    report = str(tmp_path / "report.json")
    assert main(["fnet-eval", mpath, hpath, "--model", model, "--report", report,
                 "--config", cfg_file]) == 0
    rep = json.loads(_read(report))
    assert set(rep) == {"strict_acc", "macro_f1", "micro_f1"}
    assert all(0.0 <= v <= 1.0 for v in rep.values())


@pytest.mark.parametrize("mode, kind", [("fixed", "proto"), ("joint", "joint")])
def test_fnet_train_manifest_names_label_embedding(tmp_path, fnet_files, cfg_file, mode, kind):
    # without --label-emb, fixed and adaptive modes train against ProtoLE
    mpath, hpath, epath = fnet_files
    proto = str(tmp_path / "protos.tsv")
    assert main(["fnet-proto", mpath, hpath, "--output", proto, "--config", cfg_file]) == 0
    model = str(tmp_path / "typing.model")
    assert main(["fnet-train", mpath, hpath, "--mode", mode, "--prototypes", proto,
                 "--embeddings", epath, "--output", model, "--config", cfg_file]) == 0
    assert fnet.load_model(model)[1] == kind


def test_fnet_threshold_sweep(tmp_path, fnet_files, cfg_file, capsys):
    mpath, hpath, epath = fnet_files
    model = str(tmp_path / "typing.model")
    assert main(["fnet-train", mpath, hpath, "--output", model,
                 "--config", cfg_file, "--seed", "7"]) == 0
    assert main(["fnet-eval", mpath, hpath, "--model", model,
                 "--threshold-sweep", "--config", cfg_file]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert "t=0.0:strict_acc" in rep and "t=2.0:micro_f1" in rep


def test_fnet_zero_shot_flag(tmp_path, fnet_files, cfg_file):
    mpath, hpath, epath = fnet_files
    proto = str(tmp_path / "protos.tsv")
    assert main(["fnet-proto", mpath, hpath, "--output", proto, "--config", cfg_file]) == 0
    model = str(tmp_path / "zs.model")
    code = main(
        ["fnet-train", mpath, hpath, "--zero-shot", "--mode", "fixed",
         "--label-emb", "proto-hle", "--prototypes", proto, "--embeddings", epath,
         "--output", model, "--config", cfg_file, "--seed", "7"]
    )
    assert code == 0
    loaded, kind = fnet.load_model(model)
    assert kind == "proto-hle"
    # zero-shot training still scores the full label set
    assert len(loaded.labels) == 12


def test_fnet_zero_shot_without_coarse_labels_exits_2(tmp_path, cfg_file, capsys):
    # the only mention has a fine label alone, so holding it out leaves nothing
    mpath, hpath = str(tmp_path / "fine.jsonl"), tmp_path / "hier.txt"
    fnet.save_mentions([fnet.MentionInstance(["a", "b"], 0, 1, {"/A/B"})], mpath)
    hpath.write_text("/A\n/A/B\n")
    argv = ["fnet-train", mpath, str(hpath), "--zero-shot", "--config", cfg_file]
    _fails_writing_nothing(tmp_path, capsys, argv, "zs.model", 2, "zero-shot filter")


@pytest.mark.parametrize("zero_shot", [[], ["--zero-shot"]], ids=["plain", "zero-shot"])
def test_fnet_train_label_outside_hierarchy_exits_2(tmp_path, capsys, zero_shot):
    mpath, hpath = str(tmp_path / "mentions.jsonl"), tmp_path / "hier.txt"
    fnet.save_mentions(
        [fnet.MentionInstance(["in", "Rome"], 1, 2, {"/A"}),
         fnet.MentionInstance(["in", "Paris"], 1, 2, {"/C"})],
        mpath,
    )
    hpath.write_text("/A\n/A/B\n")
    argv = ["fnet-train", mpath, str(hpath), *zero_shot]
    _fails_writing_nothing(tmp_path, capsys, argv, "fnet.model", 2,
                           "labels ['/C'] not in hierarchy")


@pytest.mark.parametrize(
    "train_labels, gold, hierarchy, message",
    [("/A\n/A/B\n/MISC\n", "/C", "/A\n/A/B\n/MISC\n", "labels ['/C'] not in hierarchy"),
     ("/A\n/A/B\n/MISC\n", "/A", "/A\n/A/B\n",
      "{model}: labels ['/MISC'] not in {hierarchy}"),
     ("/A\n/A/B\n", "/MISC", "/A\n/A/B\n/MISC\n",
      "{mentions}: gold labels ['/MISC'] are not among {model}'s labels")],
    ids=["gold-label", "model-label", "gold-label-outside-model"],
)
def test_fnet_eval_label_outside_hierarchy_exits_2(tmp_path, capsys, train_labels, gold,
                                                   hierarchy, message):
    train, test = str(tmp_path / "train.jsonl"), str(tmp_path / "test.jsonl")
    train_hier, test_hier = tmp_path / "train_hier.txt", tmp_path / "test_hier.txt"
    fnet.save_mentions(
        [fnet.MentionInstance(["in", word], 1, 2, {lab})
         for word, lab in [("Rome", "/A"), ("Paris", "/A/B"), ("Acme", "/MISC")]
         if lab in train_labels.split()],
        train,
    )
    train_hier.write_text(train_labels)
    model = str(tmp_path / "fnet.model")
    assert main(["fnet-train", train, str(train_hier), "--output", model]) == 0
    fnet.save_mentions([fnet.MentionInstance(["in", "Oslo"], 1, 2, {gold})], test)
    test_hier.write_text(hierarchy)
    report = tmp_path / "report.json"
    assert main(["fnet-eval", test, str(test_hier), "--model", model,
                 "--report", str(report)]) == 2
    assert message.format(mentions=test, model=model, hierarchy=test_hier) \
        in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("brk", ["\n", "\r"], ids=["lf", "cr"])
def test_fnet_train_line_break_token_exits_2(tmp_path, capsys, brk):
    # the token would split a record of the .feats sidecar in two
    mentions = tmp_path / "mentions.jsonl"
    mentions.write_text(
        json.dumps({"tokens": ["in", "Rome"], "start": 1, "end": 2, "labels": ["/LOC"]}) + "\n"
        + json.dumps({"tokens": ["in", f"Par{brk}is"], "start": 1, "end": 2, "labels": ["/LOC"]})
        + "\n"
    )
    hier = tmp_path / "hier.txt"
    hier.write_text("/LOC\n")
    argv = ["fnet-train", str(mentions), str(hier)]
    _fails_writing_nothing(tmp_path, capsys, argv, "fnet.model", 2, f"{mentions}:2: token")


def test_fnet_train_deterministic(tmp_path, fnet_files, cfg_file):
    mpath, hpath, _ = fnet_files
    blobs = []
    for name in ("m1", "m2"):
        model = str(tmp_path / name)
        assert main(["fnet-train", mpath, hpath, "--output", model,
                     "--config", cfg_file, "--seed", "7"]) == 0
        blobs.append(_read(model))
    assert blobs[0] == blobs[1]


def test_fnet_train_nonfinite_exits_3(tmp_path, fnet_files, cfg_file, capsys):
    # a blown-up learning rate makes the scores non-finite after one update;
    # training stops at that step, names it, and writes no model
    mpath, hpath, _ = fnet_files
    cfg = tmp_path / "blowup.cfg"
    with open(cfg_file) as f:
        cfg.write_text(f.read() + "fnet.lr = 1e308\n")
    argv = ["fnet-train", mpath, hpath, "--config", str(cfg), "--seed", "7"]
    _fails_writing_nothing(tmp_path, capsys, argv, "fnet.model", 3, "epoch 0, step 1")


# ---------------------------------------------------------------------------
# rerank pipeline


@pytest.fixture
def nbest_files(tmp_path):
    lists, gaz = synth_nbest(n_utts=40, n_best=5, seed=5)
    npath = str(tmp_path / "nbest.jsonl")
    rerank.save_nbest(lists, npath)
    gpath = str(tmp_path / "gaz.tsv")
    with open(gpath, "w") as f:
        for word, cls in sorted(gaz.items()):
            f.write(f"{word}\t{cls}\n")
    return npath, gpath


def test_rerank_pipeline(tmp_path, nbest_files, cfg_file, capsys):
    npath, gpath = nbest_files
    init = str(tmp_path / "init.drbm")
    assert main(["rerank-pretrain", npath, "--output", init,
                 "--config", cfg_file, "--seed", "7"]) == 0
    assert _read(init + ".vocab")

    model = str(tmp_path / "trained.drbm")
    code = main(["rerank-train", npath, "--init", init, "--gazetteer", gpath,
                 "--output", model, "--config", cfg_file, "--seed", "7"])
    assert code == 0
    assert _read(model + ".vocab")

    report = str(tmp_path / "rerank.json")
    assert main(["rerank-eval", npath, "--model", model, "--report", report,
                 "--config", cfg_file]) == 0
    rep = json.loads(_read(report))
    assert set(rep) == {"wer", "asr_wer", "oracle_wer"}
    assert rep["oracle_wer"] <= rep["wer"] <= 1.0
    # only the named outputs, no temporary files
    assert sorted(os.listdir(tmp_path)) == sorted(
        ["nbest.jsonl", "gaz.tsv", "small.cfg", "init.drbm", "init.drbm.vocab",
         "trained.drbm", "trained.drbm.vocab", "rerank.json"]
    )


def test_rerank_zero_model_reproduces_asr(tmp_path, nbest_files, capsys):
    npath, _ = nbest_files
    assert main(["rerank-eval", npath, "--zero-model"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["wer"] == rep["asr_wer"]


def test_rerank_fusion_and_keywords(tmp_path, nbest_files, cfg_file, capsys):
    npath, _ = nbest_files
    model = str(tmp_path / "trained.drbm")
    assert main(["rerank-train", npath, "--output", model,
                 "--config", cfg_file, "--seed", "7"]) == 0
    kpath = str(tmp_path / "keywords.tsv")
    rerank.save_keywords({"london": 1.0, "paris": 1.0}, kpath)
    assert main(["rerank-eval", npath, "--model", model, "--fuse-slp", "1.0",
                 "--slp-train", npath,
                 "--keywords", kpath, "--config", cfg_file, "--seed", "7"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert "weighted_wer" in rep and 0.0 <= rep["weighted_wer"] <= 1.0


def test_rerank_fusion_without_slp_train_exits_2(tmp_path, nbest_files, cfg_file, capsys):
    # fitting the perceptron on the lists it scores would make the fused WER
    # optimistic, so the lists to fit it on must be named
    npath, _ = nbest_files
    model = str(tmp_path / "trained.drbm")
    assert main(["rerank-train", npath, "--output", model, "--config", cfg_file]) == 0
    report = tmp_path / "rerank.json"
    assert main(["rerank-eval", npath, "--model", model, "--fuse-slp", "1.0",
                 "--report", str(report), "--config", cfg_file]) == 2
    err = capsys.readouterr().err
    assert "--fuse-slp" in err and "--slp-train" in err
    assert not report.exists()


@pytest.mark.parametrize("extra, flags", [
    (["--zero-model", "--model", "{missing}"], ["--zero-model", "--model"]),
    (["--zero-model", "--fuse-slp", "1.0"], ["--zero-model", "--fuse-slp"]),
    (["--zero-model", "--slp-train", "{nbest}"], ["--zero-model", "--slp-train"]),
    (["--zero-model", "--fuse-slp", "1.0", "--model", "{missing}"],
     ["--zero-model", "--fuse-slp", "--model"]),
    (["--model", "{missing}", "--slp-train", "{nbest}"], ["--slp-train", "--fuse-slp"]),
], ids=["zero-model+model", "zero-model+fuse-slp", "zero-model+slp-train",
        "zero-model+fuse-slp+model", "slp-train-without-fuse-slp"])
def test_rerank_eval_unread_flag_exits_2(tmp_path, nbest_files, capsys, extra, flags):
    # a flag the run would not read is rejected before any file is opened,
    # so the missing model is never looked for
    npath, _ = nbest_files
    report = tmp_path / "rerank.json"
    names = {"missing": str(tmp_path / "missing.drbm"), "nbest": npath}
    argv = ["rerank-eval", npath, "--report", str(report)] + [a.format(**names) for a in extra]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert all(flag in err for flag in flags)
    assert "No such file" not in err
    assert not report.exists()


@pytest.mark.parametrize("with_keywords", [False, True], ids=["plain", "keywords"])
def test_rerank_eval_memory_below_file_size(tmp_path, cfg_file, with_keywords):
    # 1,500 test lists of 20 six-word hypotheses: a 2.25 MB file. Parsed
    # whole, its Hypothesis and NBestList objects with their word lists take
    # about 8 x the file (18 MB traced). Read one list at a time, the call
    # holds the model, one list and its cached errors: 0.3-0.4 MB traced,
    # under 0.2 x the file. --keywords adds a weighted WER over the same
    # stream; keeping each list's (reference, picked words) pair for it
    # instead would take 1.6 MB, 0.7 x the file. Half the file's size lies
    # between the streamed peak and both of those with a margin of 1.4 x or
    # more on each side.
    lists, _ = synth_nbest(1600, n_best=20, seed=3)
    train, test = str(tmp_path / "train.nbest"), str(tmp_path / "test.nbest")
    rerank.save_nbest(lists[:100], train)
    rerank.save_nbest(lists[100:], test)
    keywords = str(tmp_path / "keywords.tsv")
    rerank.save_keywords(rerank.tfidf_keywords([nb.reference for nb in lists[:100]]), keywords)
    del lists
    model = str(tmp_path / "trained.drbm")
    assert main(["rerank-train", train, "--output", model, "--config", cfg_file]) == 0
    argv = ["rerank-eval", test, "--model", model, "--report", str(tmp_path / "rerank.json"),
            "--config", cfg_file] + (["--keywords", keywords] if with_keywords else [])
    assert main(argv) == 0  # warm-up: imports and first-call caches are not counted
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = os.stat(test).st_size
    assert size > 2_000_000
    assert peak < size / 2


def test_rerank_eval_malformed_last_line_keeps_old_report(tmp_path, nbest_files, capsys):
    # the test file is read while it is scored, so the error comes after every
    # earlier list was scored; the report is still not replaced
    npath, _ = nbest_files
    report = tmp_path / "rerank.json"
    assert main(["rerank-eval", npath, "--zero-model", "--report", str(report)]) == 0
    before = _read(report)
    lines = _read(npath).decode().splitlines()
    bad = tmp_path / "bad.nbest"
    bad.write_text("\n".join(lines + ['{"utt_id": "u-last", "ref": ["a"], "hyps": [']) + "\n")
    capsys.readouterr()
    assert main(["rerank-eval", str(bad), "--zero-model", "--report", str(report)]) == 2
    assert f"{bad}:{len(lines) + 1}:" in capsys.readouterr().err
    assert _read(report) == before
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]


def test_rerank_train_deterministic(tmp_path, nbest_files, cfg_file):
    npath, gpath = nbest_files
    blobs = []
    for name in ("r1", "r2"):
        model = str(tmp_path / name)
        assert main(["rerank-train", npath, "--gazetteer", gpath, "--output", model,
                     "--config", cfg_file, "--seed", "7"]) == 0
        blobs.append(_read(model))
    assert blobs[0] == blobs[1]


def test_rerank_train_gazetteer_outside_vocab_exits_2(tmp_path, nbest_files, cfg_file, capsys):
    npath, _ = nbest_files
    gpath = tmp_path / "unseen.tsv"
    gpath.write_text("zzunseen\tPERSON\n")
    argv = ["rerank-train", npath, "--gazetteer", str(gpath), "--config", cfg_file]
    _fails_writing_nothing(tmp_path, capsys, argv, "drbm", 2, f"{gpath}: no gazetteer word")


# ---------------------------------------------------------------------------
# tsa pipeline


@pytest.fixture
def tsa_files(tmp_path):
    data = synth_tsa(90, seed=4, length=7, fillers=10, span_junk=1)
    tr = str(tmp_path / "train.jsonl")
    dv = str(tmp_path / "dev.jsonl")
    sentic.save_tsa(data[:60], tr)
    sentic.save_tsa(data[60:], dv)
    return tr, dv


def test_tsa_pipeline(tmp_path, tsa_files, cfg_file, capsys):
    tr, dv = tsa_files
    ckpt = str(tmp_path / "tsa.ckpt")
    code = main(["tsa-train", tr, dv, "--output", ckpt,
                 "--config", cfg_file, "--seed", "7"])
    assert code == 0
    assert "best epoch" in capsys.readouterr().err

    report = str(tmp_path / "tsa.json")
    assert main(["tsa-eval", ckpt, dv, "--report", report]) == 0
    rep = json.loads(_read(report))
    assert set(rep) == {"strict_acc", "macro_f1", "micro_f1", "sentiment_acc"}


@pytest.mark.parametrize("flag", [["--classes", "4"], ["--target-averaging"]])
def test_tsa_eval_rejects_training_flags(tmp_path, tsa_files, flag):
    # class count and target averaging are read from the checkpoint
    _, dv = tsa_files
    with pytest.raises(SystemExit) as exc:
        main(["tsa-eval", str(tmp_path / "tsa.ckpt"), dv] + flag)
    assert exc.value.code == 2


def test_tsa_target_averaging_flag(tmp_path, tsa_files, cfg_file):
    tr, dv = tsa_files
    ckpt = str(tmp_path / "avg.ckpt")
    assert main(["tsa-train", tr, dv, "--target-averaging", "--output", ckpt,
                 "--config", cfg_file, "--seed", "7"]) == 0
    params = sentic.load_checkpoint(ckpt)
    assert params.config.target_averaging is True


def test_tsa_train_nonfinite_loss_exits_3(tmp_path, tsa_files, cfg_file, capsys):
    # a blown-up learning rate makes the loss non-finite after one update;
    # training stops at that step, names it, writes no checkpoint and leaves
    # no worker thread behind
    tr, dv = tsa_files
    cfg = tmp_path / "blowup.cfg"
    with open(cfg_file) as f:
        cfg.write_text(f.read().replace("tsa.lr = 0.01", "tsa.lr = 1e300"))
    threads = threading.enumerate()
    argv = ["tsa-train", tr, dv, "--config", str(cfg), "--seed", "7"]
    _fails_writing_nothing(tmp_path, capsys, argv, "tsa.ckpt", 3, "epoch 0, step 2")
    assert threading.enumerate() == threads


def test_tsa_train_zero_epochs_exits_2(tmp_path, tsa_files, cfg_file, capsys):
    tr, dv = tsa_files
    cfg = tmp_path / "zero.cfg"
    with open(cfg_file) as f:
        cfg.write_text(f.read().replace("tsa.epochs = 1", "tsa.epochs = 0"))
    argv = ["tsa-train", tr, dv, "--config", str(cfg), "--seed", "7"]
    _fails_writing_nothing(tmp_path, capsys, argv, "tsa.ckpt", 2, "tsa.epochs must be at least 1")


def test_tsa_train_deterministic(tmp_path, tsa_files, cfg_file):
    tr, dv = tsa_files
    blobs = []
    for name in ("t1", "t2"):
        ckpt = str(tmp_path / name)
        assert main(["tsa-train", tr, dv, "--output", ckpt,
                     "--config", cfg_file, "--seed", "7"]) == 0
        blobs.append(_read(ckpt))
    assert blobs[0] == blobs[1]


def test_rerank_pretrain_nonfinite_exits_3(tmp_path, nbest_files, cfg_file, capsys):
    # contrastive divergence saturates its units, so even a rate of 1e308 keeps
    # the weights finite; an infinite rate makes the first update inf * 0 = nan.
    # Pretraining stops after that epoch, names it, and writes no model or vocab
    npath, _ = nbest_files
    cfg = tmp_path / "blowup.cfg"
    with open(cfg_file) as f:
        cfg.write_text(f.read().replace("rerank.pretrain_epochs = 1", "rerank.pretrain_epochs = 3")
                       + "rerank.pretrain_lr = inf\n")
    argv = ["rerank-pretrain", npath, "--config", str(cfg), "--seed", "7"]
    _fails_writing_nothing(tmp_path, capsys, argv, "init.drbm", 3,
                           "generative pretraining went non-finite at epoch 0")


def test_rerank_train_nonfinite_scores_exit_3(tmp_path, nbest_files, cfg_file, capsys):
    # a blown-up learning rate overflows the scores after one update;
    # training stops at that list, names it, and writes no model
    npath, gpath = nbest_files
    cfg = tmp_path / "blowup.cfg"
    with open(cfg_file) as f:
        cfg.write_text(f.read().replace("rerank.lr = 0.05", "rerank.lr = 1e308"))
    argv = ["rerank-train", npath, "--gazetteer", gpath, "--config", str(cfg), "--seed", "7"]
    _fails_writing_nothing(tmp_path, capsys, argv, "drbm", 3, "epoch 0, step 2")


# ---------------------------------------------------------------------------
# model artifacts


def _retrain_failing_after_first_array(tmp_path, argv, output, monkeypatch):
    """Train at --seed 7, then again at --seed 8 with ``np.save`` raising
    OSError after the first array: exit 2, no temporary file left and
    ``output`` keeps the first run's bytes. Returns the directory listing
    and bytes after the first run."""
    assert main(argv + ["--seed", "7"]) == 0
    before = sorted(os.listdir(tmp_path)), _read(output)

    real_save = np.save
    saved = []

    def save_then_fail(f, a, **kw):
        if saved:
            raise OSError("disk full")
        saved.append(a)
        real_save(f, a, **kw)

    monkeypatch.setattr(np, "save", save_then_fail)
    assert main(argv + ["--seed", "8"]) == 2
    assert len(saved) == 1  # the failure came after the first array was written
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
    assert (sorted(os.listdir(tmp_path)), _read(output)) == before
    return before


def test_failed_write_keeps_old_artifact(tmp_path, nbest_files, cfg_file, monkeypatch):
    npath, _ = nbest_files
    model = str(tmp_path / "trained.drbm")
    argv = ["rerank-train", npath, "--output", model, "--config", cfg_file]
    before = _retrain_failing_after_first_array(tmp_path, argv, model, monkeypatch)

    with pytest.raises(RuntimeError):
        with atomic_write(model, "wb") as f:
            f.write(b"partial")
            raise RuntimeError("boom")
    assert (sorted(os.listdir(tmp_path)), _read(model)) == before


def test_tsa_train_failed_write_keeps_old_checkpoint(tmp_path, tsa_files, cfg_file, monkeypatch):
    tr, dv = tsa_files
    ckpt = str(tmp_path / "tsa.ckpt")
    argv = ["tsa-train", tr, dv, "--output", ckpt, "--config", cfg_file]
    _retrain_failing_after_first_array(tmp_path, argv, ckpt, monkeypatch)


def _rerun_failing_on_second_write(tmp_path, argv, output, monkeypatch):
    """Run ``argv``, then again with each ``atomic_write`` file raising
    OSError on its second ``write``, after a line is written: exit 2, no
    temporary file left and ``output`` keeps the first run's bytes."""
    assert main(argv) == 0
    before = sorted(os.listdir(tmp_path)), _read(output)

    real_atomic_write = artifact.atomic_write
    writes = []

    class FailingFile:
        def __init__(self, f):
            self.f = f

        def write(self, text):
            writes.append(text)
            if len(writes) > 1:
                raise OSError("disk full")
            return self.f.write(text)

    @contextlib.contextmanager
    def failing_atomic_write(path, mode="w"):
        with real_atomic_write(path, mode) as f:
            yield FailingFile(f)

    monkeypatch.setattr(artifact, "atomic_write", failing_atomic_write)
    assert main(argv) == 2
    assert len(writes) == 2
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
    assert (sorted(os.listdir(tmp_path)), _read(output)) == before


@pytest.mark.parametrize("command", ["embed-train", "embed-crf-feats"])
def test_streamed_write_failure_keeps_old_file(tmp_path, cfg_file, monkeypatch, command):
    corpus = tmp_path / "corpus.tsv"
    _write_corpus(corpus)
    emb, crf = str(tmp_path / "emb.txt"), str(tmp_path / "crf.txt")
    train = ["embed-train", str(corpus), "--output", emb, "--config", cfg_file]
    if command == "embed-train":
        argv, output = train, emb
    else:
        assert main(train) == 0
        argv = ["embed-crf-feats", str(corpus), emb, "--output", crf, "--config", cfg_file]
        output = crf
    _rerun_failing_on_second_write(tmp_path, argv, output, monkeypatch)


def _model_artifacts(tmp_path):
    """One small valid artifact of each model kind."""
    paths = {k: str(tmp_path / f"valid.{k}") for k in ("fnet", "drbm", "sentic")}
    fnet.save_model(
        fnet.JointEmbeddingModel(A=np.ones((2, 3)), B=np.ones((2, 2)), labels=["/A", "/B"]),
        "hle",
        paths["fnet"],
    )
    rerank.save_drbm(rerank.DrbmParams.zeros(3, 2), paths["drbm"])
    cfg = sentic.SenticConfig(d_w=2, d_h=2, d_m=2, d_c=2)
    params = sentic.SenticParams.init(cfg, ["<unk>"], [], np.random.default_rng(0))
    sentic.save_checkpoint(params, paths["sentic"])
    return paths


@pytest.mark.parametrize("damage", ["garbage", "wrong-kind", "truncated", "manifest-only"])
@pytest.mark.parametrize("kind", ["fnet", "drbm", "sentic"])
def test_bad_model_artifact_exits_2(
    tmp_path, fnet_files, nbest_files, tsa_files, capsys, kind, damage
):
    artifacts = _model_artifacts(tmp_path)
    good = _read(artifacts[kind])
    blob = {
        "garbage": b"\x00\xff drbm 3 2 1\n\x93NUMPY",
        "wrong-kind": _read(artifacts["drbm" if kind == "fnet" else "fnet"]),
        "truncated": good[:-8],
        "manifest-only": good[: good.index(b"\n") + 1],
    }[damage]
    bad = str(tmp_path / "bad.model")
    with open(bad, "wb") as f:
        f.write(blob)
    mpath, hpath, _ = fnet_files
    npath, _ = nbest_files
    _, dv = tsa_files
    argv = {
        "fnet": ["fnet-eval", mpath, hpath, "--model", bad],
        "drbm": ["rerank-eval", npath, "--model", bad],
        "sentic": ["tsa-eval", bad, dv],
    }[kind]
    assert main(argv) == 2
    assert bad in capsys.readouterr().err


@pytest.mark.parametrize("pipeline", ["rerank", "fnet"])
def test_sidecar_size_mismatch_exits_2(
    tmp_path, fnet_files, nbest_files, cfg_file, capsys, pipeline
):
    mpath, hpath, _ = fnet_files
    npath, _ = nbest_files
    model = str(tmp_path / "model")
    if pipeline == "rerank":
        train = ["rerank-train", npath]
        evaluate = ["rerank-eval", npath]
        sidecar = model + ".vocab"
    else:
        train = ["fnet-train", mpath, hpath]
        evaluate = ["fnet-eval", mpath, hpath]
        sidecar = model + ".feats"
    assert main(train + ["--output", model, "--config", cfg_file, "--seed", "7"]) == 0
    with open(sidecar, encoding="utf-8") as f:
        lines = f.readlines()
    # a missing token or three extra features shift the ids the model was trained on
    lines = lines[:-1] if pipeline == "rerank" else ["x=1\n", "x=2\n", "x=3\n"] + lines
    with open(sidecar, "w", encoding="utf-8") as f:
        f.writelines(lines)
    report = str(tmp_path / "report.json")
    assert main(evaluate + ["--model", model, "--report", report, "--config", cfg_file]) == 2
    assert sidecar in capsys.readouterr().err
    assert not os.path.exists(report)


def test_nbest_word_with_whitespace_exits_2(tmp_path, capsys):
    npath = tmp_path / "nbest.jsonl"
    npath.write_text(
        '{"utt_id": "u1", "ref": ["a"], "hyps": [{"words": ["a"], "logp": -1.0}]}\n'
        '{"utt_id": "u2", "ref": ["a"], "hyps": [{"words": ["a", ""], "logp": -1.0}]}\n'
    )
    out = tmp_path / "init.drbm"
    assert main(["rerank-pretrain", str(npath), "--output", str(out)]) == 2
    assert f"{npath}:2:" in capsys.readouterr().err
    assert not out.exists()
