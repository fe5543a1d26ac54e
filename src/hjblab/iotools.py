"""Deterministic serialization helpers.

Outputs are written atomically (temp file + rename) and byte-stable:
JSON is dumped with sorted keys, floats through repr, CSV with repr
columns.  A field CSV's coordinate text is formatted once per grid
(:func:`coordinate_text`), so each snapshot formats only its values.
Re-running a command with the same manifest must reproduce
identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path: str, obj) -> None:
    atomic_write_text(path, dump_json(obj))


def _repr_column(values) -> Iterator[str]:
    """repr of each entry as a Python float: the bytes of repr(float(v)) per cell."""
    return map(repr, np.asarray(values, dtype=float).tolist())


def _csv_rows(columns) -> Iterator[str]:
    return map(",".join, zip(*columns, strict=True))


@dataclass(frozen=True)
class CoordinateText:
    """The coordinate part of a field CSV, formatted once per grid: the
    header line and, per node, its coordinates followed by a comma."""

    header: str
    prefixes: tuple[str, ...]


def coordinate_text(coords) -> CoordinateText:
    coords = np.atleast_2d(coords)
    header = ",".join(f"x{k + 1}" for k in range(coords.shape[1])) + ",value"
    prefixes = tuple(row + "," for row in _csv_rows(_repr_column(col) for col in coords.T))
    return CoordinateText(header, prefixes)


def field_csv(coords: CoordinateText, values) -> str:
    """One field as CSV; only the value column is formatted here."""
    if len(values) != len(coords.prefixes):
        raise ConfigError("coordinate and value lengths differ")
    rows = map(str.__add__, coords.prefixes, _repr_column(values))
    return "\n".join([coords.header, *rows]) + "\n"


def write_field_csv(path: str, coords: CoordinateText, values) -> None:
    atomic_write_text(path, field_csv(coords, values))


def curves_csv(columns: dict[str, list[float]]) -> str:
    cells = (_repr_column(col) for col in columns.values())
    return "\n".join([",".join(columns), *_csv_rows(cells)]) + "\n"


def sha256_bytes(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def worker_count() -> int:
    """Worker cap from HJB_THREADS (0 or unset = automatic).

    Every reduction in the package is order-independent, so results do
    not depend on this value, and it is kept out of every output file.
    """
    raw = os.environ.get("HJB_THREADS", "0")
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"HJB_THREADS must be a nonnegative integer, got {raw!r}") from None
    if value < 0:
        raise ConfigError(f"HJB_THREADS must be a nonnegative integer, got {raw!r}")
    return value
