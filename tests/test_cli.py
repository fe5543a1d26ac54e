import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import hjblab as hj
from hjblab.problem import _preset_config

PRESETS = os.path.join(os.path.dirname(__file__), os.pardir, "presets")
DISK_CONFIG = os.path.join(PRESETS, os.pardir, "perfbench", "disk.json")


def run_cli(*args, env=None, cwd=None, unset=()):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    for name in unset:
        full_env.pop(name, None)
    return subprocess.run(
        [sys.executable, "-m", "hjblab", *args],
        capture_output=True,
        text=True,
        env=full_env,
        cwd=cwd,
    )


def preset_path(name):
    return os.path.join(PRESETS, f"{name}.json")


def read_all_bytes(root):
    blobs = {}
    for dirpath, _, files in os.walk(root):
        for f in sorted(files):
            p = os.path.join(dirpath, f)
            with open(p, "rb") as handle:
                blobs[os.path.relpath(p, root)] = handle.read()
    return blobs


def test_validate_ok(tmp_path):
    out = tmp_path / "v"
    res = run_cli("validate", preset_path("smoothA"), "--out", str(out))
    assert res.returncode == 0, res.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "validate"
    assert len(manifest["config_sha256"]) == 64


def test_validate_failure_exits_one(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(helpers.sigma_one_config()))
    out = tmp_path / "v"
    res = run_cli("validate", str(cfg), "--out", str(out))
    assert res.returncode == 1
    assert json.loads((out / "report.json").read_text())["passed"] is False


def test_missing_config_exits_two_without_output(tmp_path):
    out = tmp_path / "never"
    res = run_cli("validate", str(tmp_path / "absent.json"), "--out", str(out))
    assert res.returncode == 2
    assert res.stderr.strip()
    assert not out.exists()


def _edited(edit) -> dict:
    cfg = helpers.sigma_one_config()
    edit(cfg)
    return cfg


@pytest.mark.parametrize("command, cfg, message", [
    ("validate", _edited(lambda c: c["domain"].pop("x_lo")), "domain has no field 'x_lo'"),
    ("validate", _edited(lambda c: c["controls"][0].pop("b")), "control alpha1 has no field 'b'"),
    ("validate", _edited(lambda c: c["regularity"].update(B="x")), "regularity: field 'B' is malformed: 'x'"),
    ("validate", _edited(lambda c: c["controls"][0].update(l=5)), "control alpha1: field 'l' holds 5"),
    ("ergodic", _edited(lambda c: c.update(grid={"h": "abc"})), "grid: field 'h' is malformed: 'abc'"),
    ("ergodic", _edited(lambda c: c.update(grid=[1])), "config field 'grid' is not an object"),
    # a section, a control or sigma of the wrong JSON type is refused before it is read
    ("validate", [helpers.sigma_one_config()], "configuration is not an object: [{"),
    ("validate", _edited(lambda c: c.update(domain=[1])), "config section 'domain' is not an object: [1]"),
    ("validate", _edited(lambda c: c.update(controls=[5])), "control 1 is not an object: 5"),
    ("validate", _edited(lambda c: c.update(controls={"a": 1})),
     "config section 'controls' is not a list: {'a': 1}"),
    ("validate", _edited(lambda c: c["controls"][0].update(sigma=5)),
     "control alpha1: field 'sigma' is not a list: 5"),
    ("validate", _edited(lambda c: c.update(regularity=[1])),
     "config section 'regularity' is not an object: [1]"),
    ("validate", {"preset": "constantL", "L": "abc"}, "preset constantL: field 'L' is malformed: 'abc'"),
    # a JSON boolean is not a number, although float(True) is 1.0
    ("validate", _edited(lambda c: c["domain"].update(x_lo=True)), "domain: field 'x_lo' is malformed: True"),
    ("validate", dict(helpers.disk_config(), domain={"kind": "disk", "center": [0.0, 0.0], "radius": True}),
     "domain: field 'radius' is malformed: True"),
    ("validate", _edited(lambda c: c["regularity"].update(B=True)), "regularity: field 'B' is malformed: True"),
    ("validate", {"preset": "constantL", "L": True}, "preset constantL: field 'L' is malformed: True"),
    ("ergodic", _edited(lambda c: c.update(grid={"h": True})), "grid: field 'h' is malformed: True"),
    # a number must be a finite JSON number: no string, no integer beyond a
    # double, and not Infinity, NaN or a literal that Python's json reads as inf
    ("validate", _edited(lambda c: c["domain"].update(x_hi="2")), "domain: field 'x_hi' is malformed: '2'"),
    ("validate", _edited(lambda c: c["domain"].update(x_hi="1e999")),
     "domain: field 'x_hi' is malformed: '1e999'"),
    ("validate", _edited(lambda c: c["domain"].update(x_hi=np.inf)), "domain: field 'x_hi' is malformed: inf"),
    pytest.param("validate", json.dumps(helpers.sigma_one_config()).replace('"x_hi": 1.0', '"x_hi": 1e999'),
                 "domain: field 'x_hi' is malformed: inf", id="validate-literal-1e999"),
    ("validate", _edited(lambda c: c["regularity"].update(eta=np.nan)),
     "regularity: field 'eta' is malformed: nan"),
    ("validate", _edited(lambda c: c["domain"].update(x_hi=10**400)), "domain: field 'x_hi' is malformed: 1000"),
    ("validate", _edited(lambda c: c["regularity"].update(B=10**400)), "regularity: field 'B' is malformed: 1000"),
    ("validate", dict(helpers.disk_config(), domain={"kind": "disk", "center": [0.0, 0.0], "radius": 10**400}),
     "domain: field 'radius' is malformed: 1000"),
    ("validate", {"preset": "constantL", "L": 10**400}, "preset constantL: field 'L' is malformed: 1000"),
    ("ergodic", _edited(lambda c: c.update(grid={"h": 10**400})), "grid: field 'h' is malformed: 1000"),
    ("ergodic", _edited(lambda c: c.update(grid={"h": "0.1"})), "grid: field 'h' is malformed: '0.1'"),
    # a domain whose size overflows, or whose samples are 0 apart in double precision
    ("validate", _edited(lambda c: c["domain"].update(x_lo=-1e308, x_hi=1e308)),
     "interval (-1e+308, 1e+308) has no finite length"),
    ("validate", dict(helpers.disk_config(), domain={"kind": "disk", "center": [0.0, 0.0], "radius": 1e308}),
     "disk of radius 1e+308 has no finite diameter"),
    ("validate", _edited(lambda c: c["domain"].update(x_hi=1e-300)),
     "the domain is too small to sample: every distance between its"),
    ("validate", dict(helpers.disk_config(), domain={"kind": "disk", "center": [0.0, 0.0], "radius": 1e-300}),
     "the domain is too small to sample: every distance between its"),
    ("validate", _edited(lambda c: c["domain"].update(x_hi=5e-324)),
     "the domain is too small to sample: its deepest collar sample"),
])
def test_malformed_config_field_exits_two(tmp_path, capsys, command, cfg, message):
    import hjblab.cli as cli

    path = tmp_path / "bad.json"
    path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    out = tmp_path / "never"
    assert cli.run([command, str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


def test_solve_off_diagonal_diffusion_exits_two(tmp_path):
    cfg = helpers.disk_config()
    cfg["controls"][0]["sigma"] = [["d", "0"], ["d", "d"]]
    path = tmp_path / "offdiag.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "never"
    res = run_cli("solve", str(path), "--h", "0.125", "--T", "0.1", "--out", str(out))
    assert res.returncode == 2
    assert "off-diagonal" in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("kind, size, count", [
    ("interval", 1e308, "inf"),
    ("interval", 2**70, "1.18059e+22"),
    ("interval", 1e9, "1e+10"),
    ("disk", 1e308, "inf"),
    ("disk", 2**70, "5.57519e+44"),
    ("disk", 1e9, "4e+20"),
])
def test_oversized_grid_exits_two(tmp_path, capsys, kind, size, count):
    # refused from the point count alone, before the build allocates anything
    import hjblab.cli as cli
    from hjblab.grid import MAX_GRID_POINTS

    cfg = helpers.sigma_one_config() if kind == "interval" else helpers.disk_config()
    cfg["domain"]["x_hi" if kind == "interval" else "radius"] = size
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "never"
    assert cli.run(["ergodic", str(path), "--h", "0.1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if kind == "disk" and count == "inf":
        # the diameter 2e308 overflows: the disk is refused before its grid
        assert f"disk of radius {size} has no finite diameter" in err
    else:
        assert f"would lay out {count} grid points, above the cap of {MAX_GRID_POINTS}" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "ergodic"])
@pytest.mark.parametrize("field", ["b", "sigma", "l"])
def test_coefficients_that_overflow_downstream_exit_one(tmp_path, capsys, command, field):
    # 1e308*x1*x1 evaluates to finite values, whose squares, differences or
    # quotients overflow in validation or in the stencil build
    import hjblab.cli as cli

    cfg = _preset_config("smoothA", {})
    cfg["controls"][0][field] = {"b": ["1e308*x1*x1"], "sigma": [["1e308*x1*x1"]], "l": "1e308*x1*x1"}[field]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "never"
    grid_flags = ["--h", "0.1"] if command == "ergodic" else []
    code = cli.run([command, str(path), *grid_flags, "--out", str(out)])
    err = capsys.readouterr().err
    if command == "ergodic" and field == "l":
        assert code == 1 and err.startswith("numerical failure: ")  # the solve refuses
    else:
        assert code == 1 and err.startswith("numerical failure: the ") and "overflow a double" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_certify_singular_profile_exits_two_without_a_warning(tmp_path, capsys):
    # d^-201 overflows at the deepest sample: the profile is refused, and
    # numpy's overflow warning (an error under tier-1) is not raised
    import hjblab.cli as cli

    out = tmp_path / "never"
    code = cli.run(["certify", preset_path("smoothA"), "--family", "lyapunov", "--param", "200",
                    "--M", "10", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: profile is singular at d=1e-09\n"
    assert not out.exists()


@pytest.mark.parametrize("family, param, M", [("lyapunov", "1", "10"), ("barrier", "0.5", "1")])
@pytest.mark.parametrize("field", ["b", "sigma"])
def test_certify_overflowing_products_exit_one(tmp_path, capsys, family, param, M, field):
    # finite as evaluated; the collar products (or, for the barrier family,
    # the validation it runs first) overflow
    import hjblab.cli as cli

    cfg = _preset_config("smoothA", {})
    cfg["controls"][0][field] = {"b": ["1e308*x1*x1"], "sigma": [["1e308*x1*x1"]]}[field]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "never"
    code = cli.run(["certify", str(path), "--family", family, "--param", param, "--M", M,
                    "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("numerical failure: the ") and "overflow a double" in err
    assert err.count("\n") == 1
    assert not out.exists()


def _fuzz_bases() -> list[dict]:
    """The four presets, expanded to their fields, and the benchmark's disk."""
    bases = []
    for name in helpers.PRESETS:
        with open(preset_path(name)) as handle:
            raw = json.load(handle)
        rest = {k: v for k, v in raw.items() if k not in ("preset", "L")}
        bases.append({**_preset_config(name, raw), **rest})
    with open(DISK_CONFIG) as handle:
        bases.append(json.load(handle))
    return bases


def _fuzz_paths(node, prefix=()):
    """Every place in a config: the whole, each section, field and list entry."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _fuzz_paths(child, (*prefix, key))


FUZZ_TARGETS = [(base, path) for base in _fuzz_bases() for path in _fuzz_paths(base)]
# JSON text, spliced in as written: Python's json reads Infinity, NaN and the
# literal 1e999 (as inf) and integers of any length
FUZZ_VALUES = (
    "null", "true", "false", "0", "-1", "1", "0.5", "2", "-0.0",
    "5e-324", "1e-310", "1e-300", "1e-160", "1e154", "1e308", "-1e308", str(2**70), "1" + "0" * 400,
    "Infinity", "-Infinity", "NaN", "1e999",
    '"2"', '"1e999"', '"x1"', '""', '"1/d"', '"1e308*x1*x1"',
    "[]", "[1]", "[[1]]", "{}", '{"a": 1}',
)


def _with_value(base: dict, path: tuple, value: str) -> str:
    if not path:
        return value
    config = json.loads(json.dumps(base))
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "@value@"
    return json.dumps(config).replace('"@value@"', value)


@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(st.sampled_from(FUZZ_TARGETS), st.sampled_from(FUZZ_VALUES))
def test_bad_config_value_exits_cleanly(target, value):
    # no traceback and no numpy warning (tier-1 makes a RuntimeWarning an
    # error); exit 2 is one error line, and a refused run, a failed ergodic
    # solve or a failed certificate search writes nothing
    import hjblab.cli as cli

    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.json")
        with open(config, "w") as handle:
            handle.write(_with_value(*target, value))
        for command, flags in (
            ("validate", ()),
            ("ergodic", ("--h", "0.1")),
            ("certify", ("--family", "lyapunov", "--param", "1", "--M", "10")),
        ):
            out = os.path.join(tmp, command)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.run([command, config, *flags, "--out", out])
            assert code in (0, 1, 2), command
            if code == 2:
                assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            if code == 2 or (code == 1 and command != "validate"):
                assert not os.path.exists(out), (command, code, err.getvalue())


def test_import_validate_and_certify_leave_scipy_and_orjson_unloaded(tmp_path):
    # both are imported where they are first used, which keeps them out of
    # the start-up of every command and out of the commands that never use them
    lazy = "sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'orjson'))"
    script = (
        "import sys\n"
        "from hjblab.cli import run\n"
        f"print({lazy})\n"
        f"assert run(['validate', {preset_path('smoothA')!r}, '--out', {str(tmp_path / 'v')!r}]) == 0\n"
        f"assert run(['certify', {preset_path('smoothA')!r}, '--family', 'lyapunov', '--param', '1',"
        f" '--M', '10', '--out', {str(tmp_path / 'c')!r}]) == 0\n"
        f"print({lazy})\n"
    )
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[0] == res.stdout.splitlines()[-1] == "[]"


def test_solving_loads_no_public_scipy_package(tmp_path):
    # the solvers load scipy's two compiled modules alone: neither scipy's
    # own __init__ nor scipy.linalg, scipy.sparse or scipy.sparse.linalg runs
    smooth = preset_path("smoothA")
    disk = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "disk.json")
    runs = [
        ["ergodic", smooth, "--h", "0.01", "--out", str(tmp_path / "e1")],
        ["ergodic", disk, "--h", "0.1", "--out", str(tmp_path / "e2")],
        ["solve", smooth, "--h", "0.01", "--mode", "implicit", "--dt", "0.05", "--T", "0.2",
         "--out", str(tmp_path / "s")],
    ]
    script = (
        "import sys\n"
        "from hjblab.cli import run\n"
        f"assert all(run(argv) == 0 for argv in {runs!r})\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    loaded = res.stdout.splitlines()[-1]
    assert loaded == str(sorted(["scipy.linalg._flapack", "scipy.sparse.linalg._dsolve._superlu"]))


def test_public_scipy_import_reuses_the_loaded_modules():
    # after a direct load, the public packages import on top of the same
    # compiled modules, and splu still works
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import hjblab as hj\n"
        "from hjblab.cauchy import FLAPACK, SUPERLU, frozen_factor\n"
        f"for cfg in ({{'preset': 'smoothA'}}, {helpers.disk_config()!r}):\n"
        "    g = hj.build_grid(hj.assemble_problem(cfg), 0.1)\n"
        "    frozen_factor(g, np.zeros(g.n, dtype=np.int64), 0.05, 1.0).solve(np.ones(g.n))\n"
        "assert sorted(m for m in sys.modules if m.startswith('scipy')) == [FLAPACK, SUPERLU]\n"
        "import scipy.linalg, scipy.sparse, scipy.sparse.linalg\n"
        "assert scipy.linalg.lapack.dgttrf is sys.modules[FLAPACK].dgttrf\n"
        "from scipy.sparse.linalg._dsolve import linsolve\n"
        "assert linsolve._superlu is sys.modules[SUPERLU]\n"
        "lu = scipy.sparse.linalg.splu(scipy.sparse.csc_matrix(np.array([[2.0, 1.0], [1.0, 3.0]])))\n"
        "assert np.allclose(lu.solve(np.array([3.0, 4.0])), [1.0, 1.0])\n"
    )
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_bad_flag_exits_two():
    res = run_cli("certify", preset_path("smoothA"))
    assert res.returncode == 2


@pytest.mark.parametrize("command", [
    ("validate",),
    ("certify", "--family", "lyapunov", "--param", "1", "--M", "10"),
])
def test_grid_spacing_is_refused_where_no_grid_is_built(tmp_path, capsys, command):
    import hjblab.cli as cli

    out = tmp_path / "never"
    code = cli.run([*command[:1], preset_path("smoothA"), *command[1:], "--h", "0.1", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: unrecognized arguments: --h 0.1") and err.count("\n") == 1
    assert not out.exists()
    # a grid command still takes it
    assert cli.run(["ergodic", preset_path("smoothA"), "--h", "0.1", "--out", str(tmp_path / "e")]) == 0


def test_bad_threads_env_exits_two(tmp_path):
    out = tmp_path / "never"
    res = run_cli("validate", preset_path("smoothA"), "--out", str(out),
                  env={"HJB_THREADS": "many"})
    assert res.returncode == 2
    assert not out.exists()


def test_certify_lyapunov(tmp_path):
    out = tmp_path / "c"
    res = run_cli("certify", preset_path("smoothA"), "--family", "lyapunov",
                  "--param", "1.0", "--M", "10", "--out", str(out))
    assert res.returncode == 0, res.stderr
    cert = json.loads((out / "certificate.json").read_text())
    assert abs(cert["delta"] - 0.19) < 0.02
    assert cert["margin"] <= 0.0


def test_certify_failure_exits_one(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(helpers.sigma_one_config()))
    res = run_cli("certify", str(cfg), "--family", "lyapunov", "--param", "1.0",
                  "--M", "1.0", "--out", str(tmp_path / "c"))
    assert res.returncode == 1


@pytest.mark.parametrize("family", ["lyapunov", "barrier"])
@pytest.mark.parametrize("knob, value", [
    ("--grid-step", "0"), ("--grid-step", "nan"), ("--grid-step", "-0.01"), ("--grid-step", "5"),
    ("--grid-step", "1e-300"), ("--grid-step", "1e-12"),  # lattices refused before they are built
    ("--M", "nan"),
])
def test_certify_refuses_bad_inputs(tmp_path, family, knob, value):
    out = tmp_path / "never"
    res = run_cli("certify", preset_path("smoothA"), "--family", family, "--param", "0.5",
                  "--M", "1", knob, value, "--out", str(out))
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    assert ("grid_step" if knob == "--grid-step" else "M must be finite") in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("tol", ["inf", "nan", "-0.01"])
def test_validate_refuses_a_bad_tolerance(tmp_path, tol):
    out = tmp_path / "never"
    res = run_cli("validate", preset_path("smoothA"), "--tol", tol, "--out", str(out))
    assert res.returncode == 2
    assert res.stderr == f"error: tol must be finite and nonnegative, got {float(tol)}\n"
    assert not out.exists()


def test_certify_rho_out_of_range_exits_two(tmp_path):
    res = run_cli("certify", preset_path("degenerateB"), "--family", "barrier",
                  "--param", "0.6", "--M", "1.0", "--out", str(tmp_path / "c"))
    assert res.returncode == 2


def test_solve_outputs(tmp_path):
    out = tmp_path / "s"
    res = run_cli("solve", preset_path("smoothA"), "--h", "0.01", "--T", "0.1",
                  "--mode", "explicit", "--snap", "0.05", "--out", str(out))
    assert res.returncode == 0, res.stderr
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["times"] == [0.0, 0.05, 0.1]
    assert (out / "snap_000002.csv").read_text().splitlines()[0] == "x1,value"
    stencil = json.loads((out / "stencil.json").read_text())
    assert stencil["exterior_reference_count"] == 0


def test_ergodic_constant(tmp_path):
    out = tmp_path / "e"
    res = run_cli("ergodic", preset_path("constantL"), "--method", "rvi",
                  "--h", "0.01", "--out", str(out))
    assert res.returncode == 0, res.stderr
    blob = json.loads((out / "ergodic.json").read_text())
    assert abs(blob["c"] + 2.0) < 1e-9
    assert blob["chi_sup"] < 1e-9


def test_ergodic_manifest_records_the_rvi_step(tmp_path):
    for flags, dt in (((), hj.ergodic.RVI_DT), (("--dt", "0.1"), 0.1)):
        out = tmp_path / f"e{len(flags)}"
        res = run_cli("ergodic", preset_path("constantL"), "--method", "rvi",
                      "--h", "0.01", *flags, "--out", str(out))
        assert res.returncode == 0, res.stderr
        assert json.loads((out / "manifest.json").read_text())["dt"] == dt


def test_ergodic_default_method_is_policy(tmp_path):
    out = tmp_path / "e"
    res = run_cli("ergodic", preset_path("smoothA"), "--h", "0.004", "--out", str(out))
    assert res.returncode == 0, res.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["method"] == "policy" and manifest["dt"] is None
    blob = json.loads((out / "ergodic.json").read_text())
    assert blob["method"] == "policy"
    assert abs(blob["c"] + 0.5) < 1e-9 and blob["residual"] <= 1e-10


def test_ergodic_singular_operator_exits_one(tmp_path):
    cfg = tmp_path / "flat.json"
    cfg.write_text(json.dumps(helpers.flat_config()))
    out = tmp_path / "e"
    res = run_cli("ergodic", str(cfg), "--h", "0.1", "--out", str(out))
    assert res.returncode == 1
    assert "singular" in res.stderr
    assert not out.exists()


def test_ergodic_singular_disk_exits_one(tmp_path):
    cfg = helpers.disk_config()
    cfg["controls"][0].update(b=["0", "0"], sigma=[["0", "0"], ["0", "0"]])
    path = tmp_path / "flat-disk.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "e"
    res = run_cli("ergodic", str(path), "--h", "0.25", "--out", str(out))
    assert res.returncode == 1
    assert "singular" in res.stderr and "never reaches the anchor node" in res.stderr
    assert "Traceback" not in res.stderr
    assert not out.exists()


def test_solve_disk_records_one_factorization(tmp_path):
    path = tmp_path / "disk.json"
    path.write_text(json.dumps(helpers.disk_config()))
    out = tmp_path / "s"
    res = run_cli("solve", str(path), "--h", "0.02", "--mode", "implicit", "--dt", "0.05",
                  "--T", "0.5", "--out", str(out))
    assert res.returncode == 0, res.stderr
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["steps"] == 10
    assert meta["factorizations"] == 1
    # five snapshot windows share one sub-step, so one factor serves them all
    out = tmp_path / "windows"
    res = run_cli("solve", str(path), "--h", "0.02", "--mode", "implicit", "--dt", "0.05",
                  "--T", "0.5", "--snap", "0.1", "--out", str(out))
    assert res.returncode == 0, res.stderr
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["steps"] == 10 and len(meta["times"]) == 6
    assert meta["factorizations"] == 1


def _snapshot_values(out):
    paths = sorted(out.glob("snap_*.csv"))
    return [
        np.array([float(line.rsplit(",", 1)[1]) for line in p.read_text().splitlines()[1:]])
        for p in paths
    ]


@pytest.mark.parametrize("name,mode,dt,snap,T", [
    ("smoothA", "implicit", "0.01", "0.01", "0.5"),
    ("twoControlA", "explicit", None, "0.02", "0.1"),
])
def test_solve_streams_the_snapshots_of_evolve(tmp_path, name, mode, dt, snap, T):
    out = tmp_path / "s"
    step = ("--dt", dt) if dt else ()
    res = run_cli("solve", preset_path(name), "--h", "0.01", "--mode", mode, *step,
                  "--snap", snap, "--T", T, "--u0", "random", "--seed", "3", "--out", str(out))
    assert res.returncode == 0, res.stderr
    g = hj.build_grid(hj.assemble_problem({"preset": name}), 0.01)
    u0 = np.random.default_rng(3).uniform(-1.0, 1.0, g.n)
    want = {}
    states = list(hj.march(g, u0, float(T), mode, dt and float(dt), float(snap), metadata=want))
    streamed = _snapshot_values(out)
    assert len(streamed) == len(states)
    assert all(np.array_equal(a, b.u) for a, b in zip(streamed, states))
    meta = json.loads((out / "metadata.json").read_text())
    assert meta == {**want, "times": [s.t for s in states]}
    assert f"with {len(states)} snapshots" in res.stdout
    if mode == "implicit":
        # fifty windows of one step each, all of exactly dt: one factorization
        assert meta["steps"] == 50 and meta["factorizations"] == 1


def test_solve_overflowing_implicit_step_exits_one(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(helpers.overflowing_config()))
    out = tmp_path / "never"
    res = run_cli("solve", str(path), "--mode", "implicit", "--dt", "10", "--snap", "10",
                  "--T", "30", "--out", str(out))
    assert res.returncode == 1
    # the one error line, with no numpy overflow warning before it
    assert res.stderr == "numerical failure: non-finite value at node 0 (x=[0.01]), t=10.0\n"
    # the initial snapshot was streamed before the failure and is removed again
    assert not out.exists()


@pytest.mark.parametrize("h", ["0.1", "0.01"])
def test_ergodic_overflowing_solve_names_its_node(tmp_path, capsys, h):
    import hjblab.cli as cli

    cfg = helpers.overflowing_config()
    cfg["controls"][0]["l"] = "1e308*(1+0.5*x1)"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "never"
    assert cli.run(["ergodic", str(path), "--h", h, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"numerical failure: the frozen-policy solve is non-finite at node 0 (x=[{h}]) "
        "at policy iteration 1\n"
    )
    assert not out.exists()


def test_solve_overflowing_implicit_step_names_its_time(tmp_path):
    # the first step already overflows: the error names the time it was to reach
    cfg = helpers.overflowing_config()
    cfg["controls"][0]["l"] = "1e300*(1+x1)"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "never"
    res = run_cli("solve", str(path), "--mode", "implicit", "--h", "0.1", "--dt", "1e10",
                  "--T", "2e10", "--out", str(out))
    assert res.returncode == 1
    assert res.stderr == "numerical failure: non-finite value at node 0 (x=[0.1]), t=10000000000.0\n"
    assert not out.exists()


def test_solve_overflowing_explicit_step_exits_one(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(helpers.overflowing_config()))
    out = tmp_path / "never"
    res = run_cli("solve", str(path), "--h", "0.1", "--T", "30", "--snap", "10", "--out", str(out))
    assert res.returncode == 1
    assert res.stderr.startswith("numerical failure: non-finite value at node 0 (x=[0.1]), t=")
    assert res.stderr.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ("ergodic",),
    ("solve", "--T", "0.1"),
    ("solve", "--T", "0.1", "--mode", "implicit", "--dt", "0.05"),
])
def test_solvers_refuse_boundary_data(tmp_path, command):
    cfg = tmp_path / "sigma-one.json"
    cfg.write_text(json.dumps(helpers.sigma_one_config()))
    out = tmp_path / "never"
    res = run_cli(command[0], str(cfg), "--h", "0.01", *command[1:], "--out", str(out))
    assert res.returncode == 1
    assert "2 boundary faces" in res.stderr and "first at node 0 (x=[0.01])" in res.stderr
    assert "Traceback" not in res.stderr
    assert not out.exists()


def test_validate_overflowing_literal_exits_two(tmp_path):
    cfg = helpers.disk_config()
    cfg["controls"][0]["l"] = "1e999"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "never"
    res = run_cli("validate", str(path), "--out", str(out))
    assert res.returncode == 2
    assert "overflows" in res.stderr
    assert not out.exists()


def test_converge_smoke(tmp_path):
    out = tmp_path / "k"
    res = run_cli("converge", preset_path("smoothA"), "--h", "0.01", "--u0", "zero",
                  "--tol", "1e-3", "--out", str(out))
    assert res.returncode == 0, res.stderr
    rep = json.loads((out / "convergence.json").read_text())
    assert rep["uniform_error"][-1] < 1e-3
    assert (out / "curves.csv").read_text().startswith("t,inf_gap,sup_gap,uniform_error")


def test_holder_smoke(tmp_path):
    out = tmp_path / "h"
    res = run_cli("holder", preset_path("degenerateB"), "--h", "0.002", "--side", "left",
                  "--fit-min", "0.02", "--fit-max", "0.1", "--out", str(out))
    assert res.returncode == 0, res.stderr
    fit = json.loads((out / "holder.json").read_text())
    assert 0.3 < fit["uncapped_slope"] < 0.95


def _too_few(fit_range, nodes, h):
    return (f"fit range {fit_range} holds {nodes} nodes at h={h}, fewer than the 10 a fit "
            "needs: use a wider fit range or a finer h")



@pytest.mark.parametrize("config, flags, message", [
    pytest.param(preset_path("degenerateB"), ("--h", "0.01"), _too_few((0.0125, 0.05), 4, 0.01), id="0.01-4"),
    pytest.param(preset_path("degenerateB"), ("--h", "0.004"), _too_few((0.0125, 0.05), 9, 0.004),
                 id="0.004-9"),
    pytest.param(preset_path("degenerateB"), ("--h", "0.0005", "--fit-min", "0.0001", "--fit-max", "0.0002"),
                 _too_few((0.0001, 0.0002), 0, 0.0005), id="empty-range"),
    pytest.param(preset_path("degenerateB"),
                 ("--h", "0.0005", "--side", "radial", "--fit-min", "0.01", "--fit-max", "0.011"),
                 _too_few((0.01, 0.011), 5, 0.0005), id="radial-5"),
    pytest.param(preset_path("degenerateB"), ("--h", "0.0005", "--fit-min", "0.01", "--fit-max", "0.4"),
                 "fit range exceeds the collar", id="past-the-collar"),
    pytest.param(DISK_CONFIG, ("--h", "0.02", "--side", "left"),
                 "left/right sides exist only on interval domains", id="disk-left"),
])
def test_holder_default_range_too_few_nodes_exits_two(tmp_path, monkeypatch, capsys, config, flags, message):
    # every refusal of the fit's side and range comes before the ergodic solve
    import hjblab.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("the ergodic pair was computed")

    monkeypatch.setattr(cli.ergodic, "solve_ergodic_policy", never)
    out = tmp_path / "never"
    assert cli.run(["holder", config, *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_envelope_smoke(tmp_path):
    out = tmp_path / "n"
    res = run_cli("envelope", preset_path("smoothA"), "--h", "0.002", "--rho", "0.4",
                  "--delta", "0.1", "--out", str(out))
    assert res.returncode == 0, res.stderr
    rep = json.loads((out / "envelope.json").read_text())
    assert rep["lower_violation"] <= 2e-2 and rep["upper_violation"] <= 2e-2


def test_envelope_evolutive(tmp_path):
    out = tmp_path / "n"
    res = run_cli("envelope", preset_path("smoothA"), "--h", "0.01", "--rho", "0.4",
                  "--delta", "0.1", "--t", "1", "--dt", "0.05", "--out", str(out))
    assert res.returncode == 0, res.stderr
    rep = json.loads((out / "envelope.json").read_text())
    assert rep["checked_at_t"] == 1.0 and rep["certified"] is True
    assert max(rep["lower_violation"], rep["upper_violation"]) <= 2e-2
    assert json.loads((out / "manifest.json").read_text())["t"] == 1.0
    # a bad rho is refused before the evolution, and nothing is written
    never = tmp_path / "never"
    res = run_cli("envelope", preset_path("smoothA"), "--h", "0.01", "--rho", "5",
                  "--delta", "0.1", "--t", "3", "--out", str(never))
    assert res.returncode == 2
    assert res.stderr.startswith("error: rho=5.0 outside the certified range")
    assert not never.exists()


@pytest.mark.parametrize("command, message", [
    (("solve", "--T", "inf"), "T must be positive and finite, got inf"),
    (("solve", "--T", "1", "--snap", "inf"), "snapshot cadence must be positive and finite"),
    (("solve", "--T", "1", "--mode", "implicit", "--dt", "inf"), "dt must be positive and finite"),
    (("converge", "--t-max", "inf"), "T must be positive and finite, got inf"),
    (("envelope", "--rho", "0.4", "--delta", "0.1", "--t", "inf"), "T must be positive and finite"),
    (("ergodic", "--tol", "inf"), "tolerance must be positive and finite, got inf"),
    (("converge", "--tol", "0"), "tol must be positive and finite, got 0.0"),
    (("converge", "--tol", "nan"), "tol must be positive and finite, got nan"),
    (("holder", "--fit-min", "0.02"), "--fit-min and --fit-max"),
    (("holder", "--fit-max", "0.1"), "--fit-min and --fit-max"),
    (("envelope", "--rho", "0.4", "--delta", "0.1", "--dt", "0.01"), "--dt"),
    (("envelope", "--rho", "0.4", "--delta", "0.1", "--u0", "random"), "--u0 sets the evolutive"),
    (("envelope", "--rho", "0.4", "--delta", "0.1", "--seed", "3"), "--seed sets the evolutive"),
    # step and snapshot counts that overflow to inf are refused, not converted
    (("solve", "--T", "1e300", "--snap", "1e-300"), "snapshot count of T=1e+300 every 1e-300"),
    (("solve", "--T", "1", "--mode", "implicit", "--dt", "1e-310"), "step count of a span 1.0"),
    (("converge", "--dt", "1e-310"), "snapshot count of T=500.0 every 1e-310"),
    # finite counts above the caps would write until the disk fills, or never end
    (("solve", "--T", "1", "--snap", "1e-300"), "snapshots, above the cap of 1000000"),
    (("solve", "--T", "1", "--mode", "implicit", "--dt", "1e-10"), "steps, above the cap of 1000000000"),
    # a method that is not offered
    (("ergodic", "--method", "longtime"), "argument --method: invalid choice: 'longtime'"),
])
def test_refuses_non_finite_times_vacuous_tolerances_and_idle_flags(tmp_path, command, message):
    out = tmp_path / "never"
    res = run_cli(command[0], preset_path("smoothA"), "--h", "0.05", *command[1:], "--out", str(out))
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    assert message in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("flags", [("--tol", "0"), ("--dt", "-1"), ("--t-max", "inf"),
                                   ("--dt", "1e-310")])
def test_converge_refuses_before_the_ergodic_solve(tmp_path, monkeypatch, capsys, flags):
    import hjblab.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("the ergodic pair was computed")

    monkeypatch.setattr(cli.ergodic, "solve_ergodic_policy", never)
    out = tmp_path / "never"
    code = cli.run(["converge", preset_path("smoothA"), "--h", "0.05", *flags, "--out", str(out)])
    assert code == 2, capsys.readouterr().err
    assert not out.exists()


def test_stationary_envelope_records_no_seed(tmp_path):
    out = tmp_path / "n"
    res = run_cli("envelope", preset_path("smoothA"), "--h", "0.01", "--rho", "0.4",
                  "--delta", "0.1", "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert json.loads((out / "manifest.json").read_text())["seed"] is None


def test_flag_overrides_config_h(tmp_path):
    out = tmp_path / "e"
    res = run_cli("ergodic", preset_path("constantL"), "--method", "rvi",
                  "--h", "0.02", "--out", str(out))
    assert res.returncode == 0
    assert json.loads((out / "manifest.json").read_text())["h"] == 0.02


def _same_bytes_across_runs(tmp_path, args, thread_values):
    """Two runs per HJB_THREADS value, and one with it unset, write the same bytes."""
    outs = []
    for threads in thread_values:
        for tag in ("a", "b"):
            out = tmp_path / f"{threads}-{tag}"
            res = run_cli(*args, "--out", str(out), env={"HJB_THREADS": threads})
            assert res.returncode == 0, res.stderr
            outs.append(read_all_bytes(out))
    out = tmp_path / "unset"
    res = run_cli(*args, "--out", str(out), unset=("HJB_THREADS",))
    assert res.returncode == 0, res.stderr
    outs.append(read_all_bytes(out))
    assert all(blobs == outs[0] for blobs in outs[1:])


@pytest.mark.parametrize("threads", ["1", "4"])
def test_determinism_across_runs(tmp_path, threads):
    args = ("ergodic", preset_path("constantL"), "--method", "rvi", "--h", "0.01")
    _same_bytes_across_runs(tmp_path, args, (threads,))


@pytest.mark.parametrize("command", [
    ("solve", "--mode", "implicit", "--dt", "0.05", "--T", "0.2", "--snap", "0.1"),
    ("ergodic",),
])
def test_disk_determinism_across_runs(tmp_path, command):
    # the 2-D sparse factor, like the 1-D one, gives the same bytes every run
    path = tmp_path / "disk.json"
    path.write_text(json.dumps(helpers.disk_config()))
    args = (command[0], str(path), "--h", "0.05", *command[1:])
    _same_bytes_across_runs(tmp_path, args, ("1", "4"))
