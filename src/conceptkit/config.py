"""Flat key=value run configuration shared by every pipeline.

The keys are ``<section>.<field>`` of the four pipeline config dataclasses
(``embed`` SkipNerConfig, ``fnet`` WarpConfig, ``rerank`` DrbmConfig, ``tsa``
SenticConfig) plus the global ``seed``; each field's default is the only
default. Unknown keys and mistyped values are rejected at parse time so a bad
experiment manifest fails before any training starts. ``--seed`` overrides
the file's ``seed``.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import fields

from .embed import SkipNerConfig
from .fnet import WarpConfig
from .rerank import DrbmConfig
from .sentic import SenticConfig

__all__ = ["load_config"]

_SECTIONS = {"embed": SkipNerConfig, "fnet": WarpConfig, "rerank": DrbmConfig, "tsa": SenticConfig}
# set by the global seed key or by command-line flags, never by a section key
_NOT_KEYS = {"seed", "four_class", "target_averaging"}
_DEFAULTS = {
    f"{section}.{f.name}": f.default
    for section, cls in _SECTIONS.items()
    for f in fields(cls)
    if f.name not in _NOT_KEYS
}
_DEFAULTS["seed"] = SkipNerConfig.seed  # its type; each dataclass keeps its own default

Configs = namedtuple("Configs", list(_SECTIONS))


def _coerce(key, raw):
    """``raw`` as the type of the key's default; a tuple default takes a
    comma-separated list of its element type."""
    default = _DEFAULTS[key]
    raw = raw.strip()
    try:
        if isinstance(default, tuple):
            return tuple(type(default[0])(x) for x in raw.split(",") if x)
        return type(default)(raw)
    except ValueError as exc:
        raise ValueError(f"config key {key!r}: {exc}") from exc


def load_config(path=None, seed=None):
    """The four pipeline configs from a key=value file ('#' comments and
    blank lines are ignored); keys the file leaves out keep their dataclass
    defaults, and ``seed``, when given, overrides the file's."""
    values = {section: {} for section in _SECTIONS}
    common = {}
    if path is not None:
        with open(path, encoding="utf-8") as f:
            for lineno, raw in enumerate(f, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value")
                key, value = line.split("=", 1)
                key = key.strip()
                if key not in _DEFAULTS:
                    raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
                if key == "seed":
                    common["seed"] = _coerce(key, value)
                else:
                    section, name = key.split(".", 1)
                    values[section][name] = _coerce(key, value)
    if seed is not None:
        common["seed"] = seed
    return Configs(**{s: cls(**values[s], **common) for s, cls in _SECTIONS.items()})
