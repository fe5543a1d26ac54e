import json
import os
import subprocess
import sys

import numpy as np
import pytest

import helpers
import hjblab as hj

PRESETS = os.path.join(os.path.dirname(__file__), os.pardir, "presets")


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


def test_bad_flag_exits_two():
    res = run_cli("certify", preset_path("smoothA"))
    assert res.returncode == 2


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
    assert res.stderr == "numerical failure: non-finite value at node 0 (x=[0.01])\n"
    # the initial snapshot was streamed before the failure and is removed again
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
