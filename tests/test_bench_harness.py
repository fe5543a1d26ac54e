"""The benchmark's span tracer (``perfbench/spans.py``) against the package:
every function it wraps must still exist under its traced name, and the
counters it reads off return values must still count what they name."""

import importlib
import importlib.util
import json
import os

import hjblab.cli as cli

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def _spans():
    path = os.path.join(ROOT, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_and_flat_steps_count_the_converge_steps(tmp_path, capsys):
    spans = _spans()
    for module, name, _ in spans.TRACED:
        assert callable(getattr(importlib.import_module(f"hjblab.{module}"), name, None)), name
    original = cli.analysis.run_until_flat
    out = tmp_path / "k"
    config = os.path.join(ROOT, "presets", "smoothA.json")
    with spans.Tracer() as tracer:
        code = cli.run(["converge", config, "--h", "0.02", "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert cli.analysis.run_until_flat is original  # every name is put back
    steps = len(json.loads((out / "convergence.json").read_text())["times"]) - 1
    metrics = tracer.layer_metrics()
    calls, _ = tracer.totals()
    assert steps > 0
    assert calls["analysis.run_until_flat"] == 1
    assert metrics["analysis.flat_steps"] == steps
    # one implicit step per recorded time, each one traced through march
    assert metrics["cauchy.implicit_steps"] == steps
    assert metrics["cauchy.howard_sweeps"] >= steps
    # smoothA has one control, so neither an implicit step nor the policy
    # solver evaluates the operator: the one evaluation is the residual's
    # apply_H, however many steps the march takes
    assert metrics["grid.control_values_calls"] == 1


def test_traced_disk_solve_counts(tmp_path, capsys):
    # a 2-D build evaluates 27 trees: 7 at the nodes (b, sigma, l), one row
    # of sigma (2 trees) at each of the 8 divergence and face point sets,
    # and sigma at the boundary feet; one dt and one policy make one factor
    spans = _spans()
    out = tmp_path / "s"
    config = os.path.join(ROOT, "perfbench", "disk.json")
    argv = ["solve", config, "--h", "0.1", "--mode", "implicit", "--dt", "0.05", "--T", "0.2",
            "--out", str(out)]
    with spans.Tracer() as tracer:
        code = cli.run(argv)
    assert code == 0, capsys.readouterr().err
    metrics = tracer.layer_metrics()
    assert metrics["expr.evaluate_calls"] == 27
    assert metrics["grid.build_calls"] == 1
    # the run's factorizations are the fresh grid's grid.factorizations
    assert json.loads((out / "metadata.json").read_text())["factorizations"] == 1
    assert metrics["cauchy.implicit_steps"] == 4
