import json
import os
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import hjblab as hj
from hjblab.errors import ConfigError
from hjblab.iotools import _repr_column, atomic_write_text, coordinate_text, curves_csv, dump_json, field_csv

# the powers of ten from 1e-4 to 1e16, each the double nearest it
POWERS_OF_TEN = np.array([float(f"1e{k}") for k in range(-4, 17)])


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
    synthetic = []
    for shape in ((999, 1), (7525, 2)):
        coords = rng.uniform(-1.0, 1.0, shape)
        coords[:3, 0] = [0.0, -0.0, 5e-324]
        synthetic.append(coords)
    disk = hj.build_grid(hj.assemble_problem(helpers.disk_config()), 0.02).x
    for coords in (*synthetic, disk):
        # the text is formatted once and its slots serve every snapshot
        text = coordinate_text(coords)
        for _ in range(3):
            values = rng.normal(size=len(coords)) * 10.0 ** rng.integers(-300, 300, len(coords))
            # half the cells in [1e-4, 1e16), where repr writes fixed notation
            fixed = rng.random(len(coords)) < 0.5
            values[fixed] = np.sign(values[fixed]) * 10.0 ** rng.uniform(-4, 16, fixed.sum())
            values[:9] = [0.0, -0.0, 5e-324, -1.5, 1e16, 1e-5, 1e-7, -0.0, 5e-324]
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


def assert_repr_bytes(values):
    values = np.asarray(values, dtype=float)
    assert _repr_column(values) == [repr(float(v)) for v in values]


def neighbours(centres, steps=200):
    """Each centre and its ``steps`` nextafter neighbours on either side."""
    out, up, down = [centres], centres, centres
    for _ in range(steps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def test_repr_column_at_the_fixed_notation_bounds():
    # 1e-4 and 1e16 bound the cells orjson formats; every power of ten
    # between them changes the count of digits before the point
    assert_repr_bytes(neighbours(np.concatenate([POWERS_OF_TEN, -POWERS_OF_TEN])))


def test_repr_column_special_values():
    smallest = np.nextafter(0.0, 1.0)
    assert_repr_bytes(np.concatenate([
        np.ldexp(1.0, np.arange(-1074, 1024)),
        2.0**53 + np.arange(-100, 101, dtype=float),
        -(2.0**53) + np.arange(-100, 101, dtype=float),
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, np.finfo(float).max, -np.finfo(float).max],
        smallest * np.arange(1, 1000),
        -smallest * np.arange(1, 1000),
        neighbours(np.array([np.finfo(float).tiny]), 20),
    ]))


def test_repr_column_random_doubles():
    rng = np.random.default_rng(15)
    bits = rng.integers(0, 2**64, 10**6, dtype=np.uint64).view(np.float64)
    fixed = rng.choice([-1.0, 1.0], 10**6) * 10.0 ** rng.uniform(-4, 16, 10**6)
    for values in (bits, fixed):
        assert _repr_column(values) == list(map(repr, values.tolist()))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=20))
def test_repr_column_property(values):
    assert _repr_column(values) == list(map(repr, values))


def test_repr_column_empty_and_strided():
    assert _repr_column(np.zeros(0)) == []
    assert _repr_column([]) == []
    coords = hj.build_grid(hj.assemble_problem(helpers.disk_config()), 0.02).x
    for column in coords.T:
        assert not column.flags.c_contiguous
        assert_repr_bytes(column)


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_file_mode_follows_the_umask(tmp_path, umask, mode):
    # as a plain open() would create it; the temp file is renamed away
    path = tmp_path / "out" / "chi.csv"
    old = os.umask(umask)
    try:
        atomic_write_text(str(path), "x\n")
        atomic_write_text(str(path), "y\n")  # replacing a file gives the same mode
    finally:
        os.umask(old)
    assert path.stat().st_mode & 0o777 == mode
    assert path.read_text() == "y\n"
    assert os.listdir(path.parent) == ["chi.csv"]


def _grid():
    return helpers.grid("smoothA", 0.004)


def _pair():
    return hj.solve_ergodic_policy(_grid())


# each report the CLI writes as JSON, built as the CLI builds it, and the
# keys of that file at the last commit with hand-written serializers
RECORDS = {
    "report.json": (
        lambda: hj.validate_assumptions(helpers.problem("smoothA")),
        {"passed", "checks", "certificate"},
    ),
    "certificate.json": (
        lambda: hj.find_barrier_delta(helpers.problem("smoothA"), 0.5, 2.0, 1e-3),
        {"family", "param", "M", "delta", "margin", "theoretical_margin", "witness_table"},
    ),
    "stencil.json": (
        lambda: hj.stencil_report(helpers.grid("smoothA", 0.1)),
        {"n_nodes", "n_controls", "h", "exterior_reference_count", "clamped_face_count",
         "forced_inward_count", "min_offdiagonal", "max_row_sum_error", "cfl_dt"},
    ),
    "ergodic.json": (
        _pair,
        {"c", "method", "residual", "boundary_residual", "iterations", "chi_sup"},
    ),
    "convergence.json": (
        lambda: hj.run_until_flat(_grid(), np.zeros(_grid().n), _pair(), tol=1e-3, dt=0.02)[0],
        {"times", "inf_gap", "sup_gap", "K", "uniform_error", "metadata"},
    ),
    "holder.json": (
        lambda: hj.holder_fit(_grid(), _pair().chi, "left", fit_range=(0.004, 0.05)),
        {"side", "exponent", "uncapped_slope", "fit_range", "r_squared", "boundary_limit_value",
         "lipschitz_consistent", "flat", "n_samples"},
    ),
    "envelope.json": (
        lambda: hj.boundary_envelope_check(_grid(), [_pair().chi], 0.4, 0.1, 2.0),
        {"rho", "delta", "lower_violation", "upper_violation", "checked_at_t", "rim_min", "rim_max",
         "n_nodes", "certified_delta", "certified"},
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_report_json_is_its_fields(name):
    build, keys = RECORDS[name]
    report = build()
    blob = json.loads(dump_json(report))
    assert set(blob) == keys
    if name == "report.json":
        assert {frozenset(check) for check in blob["checks"]} == {
            frozenset({"name", "passed", "detail", "witness"})
        }
        assert set(blob["certificate"]) == {
            "k", "gamma", "delta", "boundary_residual", "sigma_rate_slope", "drift_fit"
        }
    if name == "stencil.json":
        assert blob["n_nodes"] == 9
        assert blob["cfl_dt"] > 0
    if name == "ergodic.json":
        # chi is an array: it goes to chi.csv, and only its sup to the JSON
        assert "chi" not in blob and "chi_sup" in blob
        assert blob["chi_sup"] == float(np.abs(report.chi).max()) > 0
    if name == "holder.json":
        assert blob["fit_range"] == [0.004, 0.05]


def test_dump_json_refuses_what_is_no_record():
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        dump_json({"nodes": {1, 2}})
    with pytest.raises(TypeError, match="type is not JSON serializable"):
        dump_json(hj.ErgodicPair)  # a dataclass type, not an instance


# the pattern of a second, hand-written serializer, and the one it caught:
# the tail of ErgodicPair as it stood before reports became their records
SERIALIZER = re.compile(r"\bdef to_dict\b|\bBarrierSpec\b")
HAND_WRITTEN = """\
    boundary_residual: float = 0.0

    def to_dict(self) -> dict:
        return {
            "c": self.c,
"""


def test_reports_have_no_second_serializer():
    # a report's JSON is its fields (iotools.dump_json); a to_dict would
    # write the field list a second time
    assert SERIALIZER.findall(HAND_WRITTEN) == ["def to_dict"]
    for path in sorted(pathlib.Path(hj.__file__).parent.glob("*.py")):
        assert not SERIALIZER.findall(path.read_text()), path.name
