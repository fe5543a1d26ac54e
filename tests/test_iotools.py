import numpy as np

from hjblab.iotools import field_csv


def reference_csv(coords, values):
    """The CSV format cell by cell: repr of each coordinate and value."""
    lines = [",".join(f"x{k + 1}" for k in range(coords.shape[1])) + ",value"]
    for row, v in zip(coords, values):
        lines.append(",".join(repr(float(c)) for c in row) + "," + repr(float(v)))
    return "\n".join(lines) + "\n"


def test_field_csv_bytes():
    rng = np.random.default_rng(6)
    for shape in ((999, 1), (7525, 2)):
        coords = rng.uniform(-1.0, 1.0, shape)
        values = rng.normal(size=shape[0]) * 10.0 ** rng.integers(-300, 300, shape[0])
        values[:4] = [0.0, -0.0, 5e-324, -1.5]
        assert field_csv(coords, values) == reference_csv(coords, values)
    assert field_csv(np.array([[1], [2]]), np.array([3, 4])) == "x1,value\n1.0,3.0\n2.0,4.0\n"
