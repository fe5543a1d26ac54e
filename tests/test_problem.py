import numpy as np
import pytest

import helpers
from hjblab import assemble_problem, validate_assumptions
from hjblab.errors import ConfigError, NumericalError
from hjblab.problem import SamplingPlan, degeneracy_certificate


def test_preset_constant_cost():
    p = helpers.problem("constantL")
    assert len(p.controls) == 1
    for x in (0.1, 0.5, 0.93):
        assert p.cost([x], 0) == 2.0


def test_preset_smooth_values():
    p = helpers.problem("smoothA")
    assert p.drift([0.25], 0)[0] == 0.5
    assert p.sigma_matrix([0.25], 0)[0, 0] == 0.1875
    assert p.cost([0.25], 0) == 0.25


def test_preset_two_controls():
    p = helpers.problem("twoControlA")
    assert len(p.controls) == 2
    assert p.drift([0.2], 1)[0] == pytest.approx(1.5 * 0.6)
    assert p.cost([0.2], 1) == pytest.approx(0.3)


def test_dimension_mismatch():
    cfg = {
        "domain": {"kind": "interval", "x_lo": 0.0, "x_hi": 1.0},
        "controls": [{"b": ["x1", "x1"], "sigma": [["x1"]], "l": "x1"}],
        "regularity": {"B": 1.0, "eta": 1.0, "beta": 1.0},
    }
    with pytest.raises(ConfigError):
        assemble_problem(cfg)


def test_x2_rejected_on_interval():
    cfg = {
        "domain": {"kind": "interval", "x_lo": 0.0, "x_hi": 1.0},
        "controls": [{"b": ["x2"], "sigma": [["x1"]], "l": "x1"}],
        "regularity": {"B": 1.0, "eta": 1.0, "beta": 1.0},
    }
    with pytest.raises(ConfigError):
        assemble_problem(cfg)


def test_empty_controls():
    cfg = {
        "domain": {"kind": "interval", "x_lo": 0.0, "x_hi": 1.0},
        "controls": [],
        "regularity": {"B": 1.0, "eta": 1.0, "beta": 1.0},
    }
    with pytest.raises(ConfigError):
        assemble_problem(cfg)


def test_unknown_preset():
    with pytest.raises(ConfigError):
        assemble_problem({"preset": "nope"})


def test_regularity_ranges():
    with pytest.raises(ConfigError):
        assemble_problem(
            {
                "domain": {"kind": "interval", "x_lo": 0.0, "x_hi": 1.0},
                "controls": [{"b": ["x1"], "sigma": [["x1"]], "l": "x1"}],
                "regularity": {"B": 1.0, "eta": 1.0, "beta": 0.5},
            }
        )


def test_validate_smooth():
    report = validate_assumptions(helpers.problem("smoothA"))
    assert report.passed
    cert = report.certificate
    # the inward drift is 1 - 2d on each branch: infimum 0.6 on the collar of width 0.2
    assert cert.gamma == 0.0
    assert 0.55 <= cert.k <= 0.65
    assert cert.delta == pytest.approx(0.2)
    assert cert.gamma < 2 * helpers.problem("smoothA").reg.beta - 1
    assert cert.boundary_residual < 1e-5


def test_validate_degenerate():
    p = helpers.problem("degenerateB")
    report = validate_assumptions(p)
    assert report.passed
    cert = report.certificate
    assert cert.gamma == pytest.approx(0.4, abs=1e-9)   # local power of the drift bound
    assert cert.gamma < 2 * p.reg.beta - 1 == pytest.approx(0.5)
    assert cert.sigma_rate_slope >= p.reg.beta - 0.05
    assert cert.k > 0.4


def test_validate_all_presets_pass():
    for name in helpers.PRESETS:
        assert validate_assumptions(helpers.problem(name)).passed, name


def test_sigma_one_fails_at_degeneracy():
    problem = assemble_problem(helpers.sigma_one_config())
    report = validate_assumptions(problem)
    assert not report.passed
    failure = report.first_failure()
    assert failure.name == "boundary_degeneracy"
    assert failure.witness is not None
    assert failure.detail["boundary_residual"] == pytest.approx(1.0)
    # a failed validation carries no certificate, so none can be handed out
    assert report.certificate is None
    with pytest.raises(NumericalError):
        degeneracy_certificate(problem)


def test_validation_monotone_in_tol():
    for cfg in ({"preset": "smoothA"}, helpers.sigma_one_config()):
        p = assemble_problem(cfg)
        passes = [validate_assumptions(p, tol=t).passed for t in (0.01, 0.05, 0.2, 1.0, 3.0)]
        assert passes == sorted(passes)  # once passing, stays passing


def test_report_serializes():
    report = validate_assumptions(helpers.problem("smoothA"), SamplingPlan(collar_per_side=60))
    blob = report.to_dict()
    assert blob["passed"] is True
    assert {c["name"] for c in blob["checks"]} >= {"hoelder_b", "interior_ellipticity",
                                                   "boundary_degeneracy", "inward_drift"}
    assert blob["certificate"]["drift_fit"]


def test_fingerprint_stability():
    a = helpers.problem("smoothA").fingerprint()
    b = assemble_problem({"preset": "smoothA"}).fingerprint()
    c = helpers.problem("degenerateB").fingerprint()
    assert a == b != c


def test_disk_problem_validates():
    cfg = {
        "domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0},
        "controls": [{"b": ["-x1", "-x2"], "sigma": [["d", "0"], ["0", "d"]], "l": "x1^2+x2^2"}],
        "regularity": {"B": 2.0, "eta": 1.0, "beta": 1.0},
    }
    report = validate_assumptions(assemble_problem(cfg))
    assert report.passed
    assert report.certificate.gamma == 0.0


def test_validate_is_deterministic():
    r1 = validate_assumptions(helpers.problem("degenerateB"))
    r2 = validate_assumptions(helpers.problem("degenerateB"))
    assert r1.to_dict() == r2.to_dict()
