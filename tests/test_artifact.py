"""Line-based text records: the one reader and writer behind every loader."""

import os
import re

import pytest

from conceptkit import corpus, fnet, rerank, sentic
from conceptkit.artifact import read_records, write_records
from conceptkit.synth import synth_fnet, synth_nbest, synth_tsa

NBEST = '{"utt_id": "u", "ref": ["a"], "hyps": [{"words": ["a"], "logp": -1.0}]}'
MENTION = '{"tokens": ["a", "b"], "start": 0, "end": 1, "labels": ["/A"]}'
TSA = '{"tokens": ["a"], "target_positions": [0], "aspects": {}, "concepts": [[]]}'


def test_read_records_skips_blank_lines_only(tmp_path):
    p = tmp_path / "r.txt"
    p.write_bytes(b"a b\n\n \t\n c \r\nlast")
    assert read_records(p, str) == ["a b", " c ", "last"]


# (loader, a valid line, a malformed line); the file is blank, valid, malformed
MALFORMED = {
    "nbest-missing-key": (rerank.load_nbest, NBEST, NBEST.replace('"logp"', '"lp"')),
    "nbest-empty-word": (rerank.load_nbest, NBEST,
                         NBEST.replace('["a"], "logp"', '[""], "logp"')),
    "nbest-spaced-word": (rerank.load_nbest, NBEST,
                          NBEST.replace('"ref": ["a"]', '"ref": ["a b"]')),
    "nbest-number-word": (rerank.load_nbest, NBEST,
                          NBEST.replace('["a"], "logp"', '[1], "logp"')),
    "keywords-no-tab": (rerank.load_keywords, "w\t1.0", "w 1.0"),
    "keywords-bad-float": (rerank.load_keywords, "w\t1.0", "w\tx"),
    "mentions-bad-span": (fnet.load_mentions, MENTION, MENTION.replace('"end": 1', '"end": 0')),
    "mentions-not-json": (fnet.load_mentions, MENTION, MENTION[:-1]),
    "tsa-missing-key": (sentic.load_tsa, TSA, TSA.replace('"concepts"', '"c"')),
    "prototypes-no-tab": (lambda p: fnet.load_prototypes(p, k=3), "/A\tx,y", "/A x,y"),
    "taxonomy-no-tab": (corpus.load_taxonomy, "city\tparis", "city paris"),
    "taxonomy-no-words": (corpus.load_taxonomy, "city\tparis", "city\t,,"),
    "gazetteer-bad-class": (corpus.load_gazetteer, "paris\tLOCATION", "paris\tCITY"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_line_names_path_and_lineno(tmp_path, case):
    load, good, bad = MALFORMED[case]
    p = tmp_path / "input.txt"
    p.write_text(f"\n{good}\n{bad}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:3: "):
        load(p)
    p.write_text(f"{good}\n")
    load(p)


ROUND_TRIPS = {
    "nbest": (lambda: synth_nbest(n_utts=5, n_best=3, seed=1)[0],
              rerank.save_nbest, rerank.load_nbest),
    "mentions": (lambda: synth_fnet(n_mentions=10, seed=1)[0],
                 fnet.save_mentions, fnet.load_mentions),
    "tsa": (lambda: synth_tsa(n=10, seed=1), sentic.save_tsa, sentic.load_tsa),
    "keywords": (lambda: {"b": 1.0, "a": 0.1 + 0.2},
                 rerank.save_keywords, rerank.load_keywords),
    "prototypes": (lambda: {"/A": ["x", "y"]},
                   fnet.save_prototypes, lambda p: fnet.load_prototypes(p, k=3)),
    # a label with no prototype words is saved as 'label<TAB>'
    "prototypes-empty-list": (lambda: {"/A": ["x"], "/B": []},
                              fnet.save_prototypes, lambda p: fnet.load_prototypes(p, k=3)),
}


@pytest.mark.parametrize("kind", sorted(ROUND_TRIPS))
def test_save_load_round_trip(tmp_path, kind):
    make, save, load = ROUND_TRIPS[kind]
    first, second = tmp_path / "first", tmp_path / "second"
    save(make(), first)
    back = load(first)
    assert back == make()
    save(back, second)
    assert first.read_bytes() == second.read_bytes()


def test_write_records_failure_keeps_previous_file(tmp_path):
    p = tmp_path / "out.tsv"
    p.write_bytes(b"old\t1\n")

    def lines():
        yield "new\t1"
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        write_records(p, lines())
    assert p.read_bytes() == b"old\t1\n"
    assert os.listdir(tmp_path) == ["out.tsv"]
