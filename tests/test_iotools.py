import numpy as np
import pytest

from hjblab.errors import ConfigError
from hjblab.iotools import coordinate_text, curves_csv, field_csv


def reference_csv(coords, values):
    """The CSV format cell by cell: repr of each coordinate and value."""
    lines = [",".join(f"x{k + 1}" for k in range(coords.shape[1])) + ",value"]
    for row, v in zip(coords, values):
        lines.append(",".join(repr(float(c)) for c in row) + "," + repr(float(v)))
    return "\n".join(lines) + "\n"


def reference_curves(columns):
    """The curves format row by row: repr(float(...)) of each cell."""
    names = list(columns)
    lines = [",".join(names)]
    for i in range(len(columns[names[0]])):
        lines.append(",".join(repr(float(columns[name][i])) for name in names))
    return "\n".join(lines) + "\n"


def test_field_csv_bytes():
    rng = np.random.default_rng(6)
    for shape in ((999, 1), (7525, 2)):
        coords = rng.uniform(-1.0, 1.0, shape)
        coords[:3, 0] = [0.0, -0.0, 5e-324]
        # the coordinate text is formatted once and serves every snapshot
        text = coordinate_text(coords)
        for _ in range(3):
            values = rng.normal(size=shape[0]) * 10.0 ** rng.integers(-300, 300, shape[0])
            values[:4] = [0.0, -0.0, 5e-324, -1.5]
            assert field_csv(text, values) == reference_csv(coords, values)
    text = coordinate_text(np.array([[1], [2]]))
    assert field_csv(text, np.array([3, 4])) == "x1,value\n1.0,3.0\n2.0,4.0\n"
    with pytest.raises(ConfigError, match="lengths differ"):
        field_csv(text, np.zeros(3))


def test_curves_csv_bytes():
    rng = np.random.default_rng(7)
    columns = {
        "t": [0.01 * k for k in range(50)],
        "inf_gap": list(rng.normal(size=50) * 10.0 ** rng.integers(-300, 300, 50)),
        "sup_gap": [np.float64(v) for v in rng.normal(size=50)],
        "uniform_error": [0, -0.0, 5e-324, 3] + [1e-17] * 46,
    }
    assert curves_csv(columns) == reference_curves(columns)
    with pytest.raises(ValueError):
        curves_csv({"t": [0.0, 1.0], "gap": [0.0]})
