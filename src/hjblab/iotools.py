"""Deterministic serialization helpers.

Outputs are written atomically (temp file + rename) and byte-stable:
JSON is dumped with sorted keys, floats through repr, CSV with repr
columns.  Re-running a command with the same manifest must reproduce
identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

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


def field_csv(coords: np.ndarray, values: np.ndarray) -> str:
    coords = np.atleast_2d(coords)
    if coords.shape[0] != len(values):
        raise ConfigError("coordinate and value lengths differ")
    ndim = coords.shape[1]
    header = ",".join(f"x{k + 1}" for k in range(ndim)) + ",value"
    # repr of Python floats, column by column: the bytes of repr(float(c)) per cell
    columns = [map(repr, col) for col in coords.T.astype(float).tolist()]
    columns.append(map(repr, np.asarray(values, dtype=float).tolist()))
    return "\n".join([header, *map(",".join, zip(*columns))]) + "\n"


def write_field_csv(path: str, coords, values) -> None:
    atomic_write_text(path, field_csv(np.asarray(coords), np.asarray(values)))


def curves_csv(columns: dict[str, list[float]]) -> str:
    names = list(columns)
    length = len(columns[names[0]])
    lines = [",".join(names)]
    for i in range(length):
        lines.append(",".join(repr(float(columns[name][i])) for name in names))
    return "\n".join(lines) + "\n"


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
