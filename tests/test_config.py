"""Run-configuration parsing: dataclass defaults, coercion, and rejection."""

import re
from dataclasses import asdict

import pytest

from conceptkit.config import load_config

# Every key the configuration accepts, with its default as parsed. The set and
# the values are those of the key table the dataclasses replaced, except
# embed.groups, whose default was "word,pos,taxo,self" there.
DEFAULTS = {
    "seed": 1,
    "embed.dims": 50,
    "embed.window": 2,
    "embed.negatives": 5,
    "embed.epochs": 1,
    "embed.lr_initial": 0.025,
    "embed.lr_final": 1e-4,
    "embed.unigram_exponent": 1.0,
    "embed.groups": ("word",),
    "embed.min_count": 1,
    "embed.clusters": (100,),
    "fnet.dims": 300,
    "fnet.prototypes": 60,
    "fnet.epochs": 5,
    "fnet.lr": 0.1,
    "fnet.lam": 0.01,
    "fnet.margin": 1.0,
    "fnet.threshold": 1.0,
    "fnet.top_k": 3,
    "rerank.hidden": 200,
    "rerank.epochs": 3,
    "rerank.lr": 0.001,
    "rerank.lam": 0.01,
    "rerank.w0": 1.0,
    "rerank.pretrain_epochs": 5,
    "rerank.pretrain_lr": 0.01,
    "rerank.slp_pairs": 100,
    "rerank.slp_iterations": 10,
    "rerank.slp_lr": 1.0,
    "tsa.d_w": 150,
    "tsa.d_h": 50,
    "tsa.d_m": 50,
    "tsa.d_c": 100,
    "tsa.max_concepts": 4,
    "tsa.epochs": 10,
    "tsa.lr": 1e-3,
    "tsa.dropout": 0.5,
    "tsa.aspects": ("general",),
}


def load(tmp_path, text, seed=None):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return load_config(path, seed)


def flat(cfg):
    """``{section.field: value}`` over the four configs."""
    return {
        f"{section}.{name}": value
        for section, dc in cfg._asdict().items()
        for name, value in asdict(dc).items()
    }


def _text(value):
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return repr(value)


def test_defaults_match_schema():
    values = flat(load_config())
    assert len(DEFAULTS) == 38
    # values are coerced by their default's type, and bool("false") is True
    assert not any(isinstance(v, bool) for v in DEFAULTS.values())
    for key, default in DEFAULTS.items():
        for got in ([values[f"{s}.seed"] for s in ("embed", "fnet", "rerank", "tsa")]
                    if key == "seed" else [values[key]]):
            assert got == default, key
            assert type(got) is type(default), key


def test_accepted_keys_are_the_schema_keys(tmp_path):
    # every dataclass field is a key unless it is set by seed or a flag
    fields = flat(load_config())
    assert len(fields) == 43
    for key in list(fields) + ["seed"]:
        if key in DEFAULTS:
            # the default's text round-trips
            cfg = load(tmp_path, f"{key} = {_text(DEFAULTS[key])}\n")
            assert flat(cfg) == fields, key
        else:
            with pytest.raises(ValueError, match="unknown config key"):
                load(tmp_path, f"{key} = 1\n")


def test_set_coerces_strings(tmp_path):
    cfg = load(tmp_path, "fnet.dims = 32\nfnet.lr = 0.5\n")
    assert cfg.fnet.dims == 32
    assert cfg.fnet.lr == 0.5


def test_int_accepted_for_float_key(tmp_path):
    cfg = load(tmp_path, "fnet.lr = 1\n")
    assert cfg.fnet.lr == 1.0
    assert isinstance(cfg.fnet.lr, float)


def test_unknown_key_rejected(tmp_path):
    for key in ("fnet.bogus", "no.such.key", "whatever", "embed.seed",
                "tsa.four_class", "tsa.target_averaging", "rerank.presence"):
        with pytest.raises(ValueError, match="unknown config key"):
            load(tmp_path, f"{key} = 1\n")


def test_mistyped_value_rejected(tmp_path):
    with pytest.raises(ValueError):
        load(tmp_path, "fnet.dims = not-a-number\n")
    with pytest.raises(ValueError):
        load(tmp_path, "fnet.dims = 2.5\n")
    with pytest.raises(ValueError, match="embed.clusters"):
        load(tmp_path, "embed.clusters = 50,many\n")


def test_comma_list_accessors(tmp_path):
    assert load(tmp_path, "embed.clusters = 50,100,200\n").embed.clusters == (50, 100, 200)
    assert load(tmp_path, "embed.groups = word,self\n").embed.groups == ("word", "self")
    assert load(tmp_path, "embed.groups =\n").embed.groups == ()
    assert load(tmp_path, "tsa.aspects = price,service\n").tsa.aspects == ("price", "service")


def test_load_config_file(tmp_path):
    cfg = load(
        tmp_path,
        "# experiment settings\n"
        "seed = 9\n"
        "fnet.dims = 17  # small\n"
        "\n"
        "rerank.hidden = 8\n",
    )
    assert {cfg.embed.seed, cfg.fnet.seed, cfg.rerank.seed, cfg.tsa.seed} == {9}
    assert cfg.fnet.dims == 17
    assert cfg.rerank.hidden == 8
    # untouched keys keep defaults
    assert cfg.tsa.epochs == DEFAULTS["tsa.epochs"]


def test_seed_argument_overrides_file(tmp_path):
    cfg = load(tmp_path, "seed = 9\n", seed=4)
    assert {cfg.embed.seed, cfg.fnet.seed, cfg.rerank.seed, cfg.tsa.seed} == {4}
    assert load_config(seed=4).tsa.seed == 4


def test_load_config_rejects_unknown_key(tmp_path):
    with pytest.raises(ValueError, match="unknown config key"):
        load(tmp_path, "nonsense.key = 1\n")


def test_load_config_rejects_missing_equals(tmp_path):
    with pytest.raises(ValueError, match="expected key=value"):
        load(tmp_path, "seed 9\n")


def test_load_config_rejects_bad_value(tmp_path):
    with pytest.raises(ValueError, match="seed"):
        load(tmp_path, "seed = banana\n")


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("seed = x\n", 1),
        ("# header\n\nembed.clusters = 50,many\n", 3),
        ("seed = 2\nfnet.dims = 2.5\n", 2),
    ],
    ids=["seed", "after-comment", "second-line"],
)
def test_mistyped_value_names_path_and_line(tmp_path, text, lineno):
    where = re.escape(f"{tmp_path / 'run.cfg'}:{lineno}: ")
    with pytest.raises(ValueError, match=f"^{where}config key"):
        load(tmp_path, text)
