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

from .artifact import read_records
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


def _parse(line):
    """``(key, value)`` of a ``key = value`` line, or None for a comment; the
    value has the type of the key's default, and a tuple default takes a
    comma-separated list of its element type."""
    line = line.split("#", 1)[0].strip()
    if not line:
        return None
    if "=" not in line:
        raise ValueError("expected key=value")
    key, raw = (part.strip() for part in line.split("=", 1))
    if key not in _DEFAULTS:
        raise ValueError(f"unknown config key {key!r}")
    default = _DEFAULTS[key]
    try:
        if isinstance(default, tuple):
            return key, tuple(type(default[0])(x) for x in raw.split(",") if x)
        return key, type(default)(raw)
    except ValueError as exc:
        raise ValueError(f"config key {key!r}: {exc}") from exc


def load_config(path=None, seed=None):
    """The four pipeline configs from a key=value file ('#' comments and
    blank lines are ignored, and an error names ``path:lineno``); keys the
    file leaves out keep their dataclass defaults, and ``seed``, when given,
    overrides the file's."""
    values = {section: {} for section in _SECTIONS}
    common = {}
    records = read_records(path, _parse) if path is not None else []
    for key, value in filter(None, records):
        if key == "seed":
            common["seed"] = value
        else:
            section, name = key.split(".", 1)
            values[section][name] = value
    if seed is not None:
        common["seed"] = seed
    return Configs(**{s: cls(**values[s], **common) for s, cls in _SECTIONS.items()})
