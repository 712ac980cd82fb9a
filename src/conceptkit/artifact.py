"""File formats: trained models, line-based text records, and atomic writes
for every output.

A model artifact is one JSON manifest line ``{"kind", "meta", "arrays"}``
followed by each named array as an ``.npy`` stream, in manifest order.
``atomic_write`` writes a temporary sibling that replaces the target only once
complete, so a failed write leaves the old file as it was. There is no fsync:
this guards against failures of the process, not against power loss.

``iter_records`` and ``write_records`` are the one reader and writer of the
line-based text files (``read_records`` is ``iter_records`` as a list):
blank lines are skipped, and a malformed line is reported as
``path:lineno: ...``.
"""

from __future__ import annotations

import contextlib
import json
import os

import numpy as np

__all__ = ["atomic_write", "iter_records", "read_records", "write_records", "save_arrays",
           "load_arrays"]


@contextlib.contextmanager
def atomic_write(path, mode="w"):
    """Text ("w", UTF-8) or binary ("wb") file that replaces ``path`` when the
    block exits cleanly and is deleted when it raises."""
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), encoding=None if "b" in mode else "utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def iter_records(path, parse):
    """``parse(line)`` for each non-blank line of the UTF-8 text file ``path``,
    in order, one line read at a time; ``line`` has its newline removed. A
    ValueError, KeyError or TypeError from ``parse`` becomes a ValueError
    naming ``path:lineno``."""
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            if not raw.strip():
                continue
            try:
                record = parse(raw.rstrip("\n"))
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            yield record


def read_records(path, parse):
    """The records of ``iter_records(path, parse)`` as a list."""
    return list(iter_records(path, parse))


def write_records(path, lines):
    """Each string of ``lines`` as one line of ``path``, through ``atomic_write``."""
    with atomic_write(path) as f:
        for line in lines:
            f.write(line + "\n")


def save_arrays(path, kind, meta, arrays):
    """Manifest of ``kind`` and JSON ``meta``, then the ``arrays`` mapping in order."""
    with atomic_write(path, "wb") as f:
        f.write(json.dumps({"kind": kind, "meta": meta, "arrays": list(arrays)}).encode() + b"\n")
        for a in arrays.values():
            np.save(f, a, allow_pickle=False)


def load_arrays(path, kind):
    """``(meta, arrays)`` of a ``kind`` artifact. Raises ValueError naming
    ``path`` for a malformed manifest, another kind, or a missing or truncated
    array."""
    with open(path, "rb") as f:
        try:
            manifest = json.loads(f.readline())
            found, meta = manifest["kind"], dict(manifest["meta"])
            names = [str(n) for n in manifest["arrays"]]
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{path}: malformed artifact manifest") from exc
        if found != kind:
            raise ValueError(f"{path}: holds a {found!r} artifact, expected {kind!r}")
        arrays = {}
        for name in names:
            # read_array takes exactly one .npy stream and raises ValueError at
            # end of file, where np.load raises EOFError
            try:
                arrays[name] = np.lib.format.read_array(f, allow_pickle=False)
            except ValueError as exc:
                raise ValueError(f"{path}: array {name!r} is missing or truncated") from exc
    return meta, arrays
