"""Flat key=value run configuration shared by every pipeline.

Every hyperparameter has a typed default; unknown keys and mistyped values
are rejected at parse time so a bad experiment manifest fails before any
training starts. Command-line flags override file values.
"""

from __future__ import annotations

__all__ = ["RunConfig", "load_config", "SCHEMA"]

# key -> (type, default). Booleans accept true/false/1/0/yes/no.
SCHEMA = {
    "seed": (int, 1),
    # multi-task embedding trainer
    "embed.dims": (int, 50),
    "embed.window": (int, 2),
    "embed.negatives": (int, 5),
    "embed.epochs": (int, 1),
    "embed.lr_initial": (float, 0.025),
    "embed.lr_final": (float, 1e-4),
    "embed.unigram_exponent": (float, 1.0),
    "embed.groups": (str, "word,pos,taxo,self"),
    "embed.min_count": (int, 1),
    "embed.clusters": (str, "100"),
    # fine-grained typing
    "fnet.dims": (int, 300),
    "fnet.prototypes": (int, 60),
    "fnet.epochs": (int, 5),
    "fnet.lr": (float, 0.1),
    "fnet.lam": (float, 0.01),
    "fnet.margin": (float, 1.0),
    "fnet.threshold": (float, 1.0),
    "fnet.top_k": (int, 3),
    # discriminative RBM reranker
    "rerank.hidden": (int, 200),
    "rerank.epochs": (int, 3),
    "rerank.lr": (float, 0.001),
    "rerank.lam": (float, 0.01),
    "rerank.w0": (float, 1.0),
    "rerank.presence": (bool, False),
    "rerank.literal_prior": (bool, False),
    "rerank.pretrain_epochs": (int, 5),
    "rerank.pretrain_lr": (float, 0.01),
    "rerank.slp_pairs": (int, 100),
    "rerank.slp_iterations": (int, 10),
    "rerank.slp_lr": (float, 1.0),
    # targeted sentiment
    "tsa.d_w": (int, 150),
    "tsa.d_h": (int, 50),
    "tsa.d_m": (int, 50),
    "tsa.d_c": (int, 100),
    "tsa.max_concepts": (int, 4),
    "tsa.epochs": (int, 10),
    "tsa.lr": (float, 1e-3),
    "tsa.dropout": (float, 0.5),
    "tsa.aspects": (str, "general"),
}

_TRUE = {"true", "1", "yes", "on"}
_FALSE = {"false", "0", "no", "off"}


def _coerce(key, raw):
    typ, _ = SCHEMA[key]
    raw = raw.strip()
    try:
        if typ is bool:
            low = raw.lower()
            if low in _TRUE:
                return True
            if low in _FALSE:
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return typ(raw)
    except ValueError as exc:
        raise ValueError(f"config key {key!r}: {exc}") from exc


class RunConfig:
    """Typed view over the schema with file and programmatic overrides."""

    def __init__(self, values=None):
        self.values = {k: d for k, (_, d) in SCHEMA.items()}
        for k, v in (values or {}).items():
            self.set(k, v)

    def set(self, key, value):
        if key not in SCHEMA:
            raise ValueError(f"unknown config key {key!r}")
        typ, _ = SCHEMA[key]
        if isinstance(value, str) and typ is not str:
            value = _coerce(key, value)
        if not isinstance(value, typ) and not (typ is float and isinstance(value, int)):
            raise ValueError(f"config key {key!r} expects {typ.__name__}")
        self.values[key] = typ(value)

    def __getitem__(self, key):
        if key not in SCHEMA:
            raise ValueError(f"unknown config key {key!r}")
        return self.values[key]

    def ints(self, key):
        """Comma-separated integer list value."""
        raw = self[key].strip()
        return [int(x) for x in raw.split(",") if x]

    def strings(self, key):
        raw = self[key].strip()
        return [x for x in raw.split(",") if x]


def load_config(path):
    """Parse a key=value file; '#' comments and blank lines are ignored."""
    cfg = RunConfig()
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            key = key.strip()
            if key not in SCHEMA:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            cfg.values[key] = _coerce(key, value)
    return cfg
