"""Deterministic serialization helpers.

Outputs are written atomically (temp file + rename) and byte-stable:
JSON is dumped with sorted keys, floats through repr, CSV with repr
columns.  A report is its own JSON record: :func:`dump_json` writes a
dataclass as the object of its fields and leaves out its array fields,
since a grid field goes to a CSV file, never to JSON.  A CSV column is
formatted in one call (:func:`_repr_column`): orjson writes Ryu's
shortest round-trip digits for the cells that repr prints in fixed
notation (0 and 1e-4 <= |v| < 1e16, a range exact at
the double level), and every other cell, non-finite ones included, is
formatted by repr itself, so each cell's bytes are repr's for every
double.  A field CSV's text is formatted once per grid, with an empty
slot after each row's coordinates (:func:`coordinate_text`); each
snapshot formats only its values, fills the slots and joins the text
once (:func:`field_csv`).
Re-running a command with the same manifest must reproduce
identical bytes.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterator
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .errors import ConfigError


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to a temp file next to ``path`` and rename it over
    ``path``, so a reader sees the old file or the whole new one.  The temp
    file is created with mode 0o666 less the umask, the mode ``open``
    gives a new file; ``tempfile.mkstemp`` would give 0o600.  Its name
    holds the process id, so two processes writing one path do not share
    it."""
    directory, name = os.path.split(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.getpid()}-{name}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _record(obj) -> dict:
    """A dataclass instance as the dict of its fields, array fields left
    out; any other object is refused as ``json`` refuses it."""
    if not is_dataclass(obj) or isinstance(obj, type):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    values = {f.name: getattr(obj, f.name) for f in fields(obj)}
    return {name: value for name, value in values.items() if not isinstance(value, np.ndarray)}


def dump_json(obj) -> str:
    """``obj`` as JSON text with sorted keys and a final newline.  A
    dataclass, at any depth, is written as its fields, tuples as lists;
    a field holding an array is left out (fields go to CSV)."""
    return json.dumps(obj, sort_keys=True, indent=2, default=_record) + "\n"


def write_json(path: str, obj) -> None:
    atomic_write_text(path, dump_json(obj))


def _repr_column(values) -> list[str]:
    """The bytes of ``repr(float(v))`` for each entry ``v``, for every double.

    One ``orjson`` call formats the whole column with Ryu's shortest
    round-trip digits, the digits ``repr`` prints.  Both print those
    digits in fixed notation for 0.0, -0.0 and 1e-4 <= |v| < 1e16, so
    there the texts agree.  The range is exact at the double level, with
    1e-4 read as the double nearest it: a decimal at or above 1e-4 rounds
    to at least that double, so every double below it has shortest digits
    below 1e-4, and that double's own digits are ``1e-4``; 1e16 is a
    double, and the same argument holds there.  Every other cell
    (non-finite, smaller or larger) is overwritten with ``repr``, where
    orjson would write ``null``, ``0.00001`` or ``1e16``.
    """
    import orjson  # here, not at module level: validate and certify never format a column

    v = np.ascontiguousarray(values, dtype=np.float64)
    if not v.size:
        return []
    cells = orjson.dumps(v, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    magnitude = np.abs(v)
    fallback = np.flatnonzero(~(((magnitude >= 1e-4) & (magnitude < 1e16)) | (v == 0)))
    for i, x in zip(fallback.tolist(), v[fallback].tolist()):
        cells[i] = repr(x)
    return cells


def _csv_rows(columns) -> Iterator[str]:
    return map(",".join, zip(*columns, strict=True))


@dataclass(frozen=True)
class CoordinateText:
    """The text of a field CSV without its values, formatted once per grid:
    the header, then each node's coordinates followed by an empty slot
    for the node's value, then the final newline.  The slots are the odd
    entries of ``parts``."""

    parts: tuple[str, ...]


def coordinate_text(coords) -> CoordinateText:
    coords = np.atleast_2d(coords)
    header = ",".join(f"x{k + 1}" for k in range(coords.shape[1])) + ",value"
    heads = [f"\n{row}," for row in _csv_rows(_repr_column(col) for col in coords.T)]
    heads[0] = header + heads[0]
    parts = [""] * (2 * len(heads) + 1)
    parts[::2] = [*heads, "\n"]
    return CoordinateText(tuple(parts))


def field_csv(coords: CoordinateText, values) -> str:
    """One field as CSV: the value of each node fills its slot, and the
    text is joined once."""
    if len(values) != len(coords.parts) // 2:
        raise ConfigError("coordinate and value lengths differ")
    parts = list(coords.parts)
    parts[1::2] = _repr_column(values)
    return "".join(parts)


def write_field_csv(path: str, coords: CoordinateText, values) -> None:
    atomic_write_text(path, field_csv(coords, values))


def curves_csv(columns: dict[str, list[float]]) -> str:
    cells = (_repr_column(col) for col in columns.values())
    return "\n".join([",".join(columns), *_csv_rows(cells)]) + "\n"


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
