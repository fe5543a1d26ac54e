"""Self-tests of the benchmark; kept out of the package's test suite.

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import hjblab  # noqa: E402
import hjblab.cli as cli  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from hjblab.grid import build_grid, stencil_report  # noqa: E402
from hjblab.problem import assemble_problem, validate_assumptions  # noqa: E402


def _hjblab_namespaces() -> dict[str, dict]:
    return {name: dict(vars(module)) for name, module in sys.modules.items()
            if name == "hjblab" or name.startswith("hjblab.")}


def test_self_time_is_duration_minus_direct_children():
    # root [0, 10] holds a [1, 4] and b [5, 6]; a holds c [2, 3]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 6.0])
    assert spans.self_times(parent, start, end).tolist() == [6.0, 2.0, 1.0, 1.0]


def test_tracer_wraps_every_binding_and_restores_the_originals():
    before = _hjblab_namespaces()
    original = hjblab.grid.apply_H
    with pytest.raises(RuntimeError), spans.Tracer():
        wrapped = hjblab.grid.apply_H
        assert wrapped is not original
        for module in (hjblab, hjblab.cauchy, hjblab.ergodic):
            assert module.apply_H is wrapped
        raise RuntimeError("leaving the block by an exception restores too")
    after = _hjblab_namespaces()
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        for attr, value in namespace.items():
            assert after[name][attr] is value, f"{name}.{attr} was not restored"


def test_exact_counts_on_a_tiny_job(tmp_path):
    out = tmp_path / "out"
    argv = ["solve", os.path.join(ROOT, "presets", "smoothA.json"), "--h", "0.25",
            "--mode", "explicit", "--dt", "0.001", "--T", "0.004", "--out", str(out)]
    with spans.Tracer() as tracer, tracer.span("cli.solve"):
        assert cli.run(argv) == 0
    calls, _ = tracer.totals()
    layers = tracer.layer_metrics()
    # 3 nodes; per node: b, l, a, two for div a, one per face (interior
    # midpoint or boundary foot) = 7 coefficient evaluations
    assert layers["expr.evaluate_calls"] == 21
    assert layers["geometry.distance_calls"] == 3
    assert layers["grid.build_calls"] == 1 and layers["grid.nodes"] == 3
    # 4 explicit steps, each with one cfl_dt and one apply_H; stencil.json adds one cfl_dt
    assert layers["cauchy.explicit_steps"] == 4
    assert layers["grid.apply_H_calls"] == 4
    assert layers["grid.control_values_calls"] == 4
    assert layers["grid.cfl_dt_calls"] == 5
    assert layers["cauchy.implicit_steps"] == 0
    # manifest, metadata, stencil and two snapshots
    assert layers["iotools.files_written"] == 5
    assert layers["iotools.bytes_written"] == sum(p.stat().st_size for p in out.iterdir())
    assert calls["cli.solve"] == 1
    arrays = tracer.arrays()
    assert (arrays["parent"] >= 0).sum() == len(arrays["parent"]) - 1   # one root span


def test_disk_config_validates_and_needs_no_boundary_data():
    with open(os.path.join(HERE, "disk.json")) as handle:
        problem = assemble_problem(json.load(handle))
    assert validate_assumptions(problem).passed
    for h in (0.05, 0.02):   # the spacings the disk-2d workload uses
        assert stencil_report(build_grid(problem, h)).exterior_reference_count == 0


def test_checks_reject_wrong_outputs(tmp_path):
    (tmp_path / "ergodic.json").write_text(json.dumps({"c": -0.5000001, "residual": 1e-9}))
    (tmp_path / "chi.csv").write_text("x1,value\n0.5,0.0\n0.75,-0.1\n")
    assert jobs.check_ergodic(-0.5, 1e-8)(str(tmp_path)) == []
    assert len(jobs.check_ergodic(-0.49, 1e-8)(str(tmp_path))) == 1
    assert len(jobs.check_ergodic(-0.5, 1e-10)(str(tmp_path))) == 1
    (tmp_path / "certificate.json").write_text(json.dumps({"delta": 0.124, "margin": 1e-3}))
    assert len(jobs.check_certify(0.125)(str(tmp_path))) == 2


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    workloads = jobs.load_workloads()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads)
    assert all(w["why"] == workloads[w["name"]].why for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER
