import json

import numpy as np
import pytest

import helpers
import oracles
from hjblab import assemble_problem, validate_assumptions
from hjblab import geometry as geo
from hjblab import problem as pb
from hjblab.errors import ConfigError, NumericalError
from hjblab.iotools import dump_json
from hjblab.problem import _interior_points, degeneracy_certificate


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


def test_drift_and_sigma_is_one_evaluation_of_drift_and_sigma_matrix():
    disk = assemble_problem(helpers.two_control_disk_config())
    pts = np.stack([np.linspace(-0.6, 0.6, 50), np.linspace(0.3, -0.5, 50)], axis=1)
    for ci in range(2):
        b, s = disk.drift_and_sigma(pts, ci)
        assert np.array_equal(b, disk.drift(pts, ci)) and np.array_equal(s, disk.sigma_matrix(pts, ci))
        # component-major: each component of the block is a contiguous row
        assert all(b[:, k].flags.c_contiguous and s[:, k, k].flags.c_contiguous for k in range(2))
        one_b, one_s = disk.drift_and_sigma(pts[7], ci)
        assert np.array_equal(one_b, b[7]) and np.array_equal(one_s, s[7])


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
    report = validate_assumptions(helpers.problem("smoothA"))
    blob = json.loads(dump_json(report))
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
    assert dump_json(r1) == dump_json(r2)


def _loop_pairs(seed: int, count: int, pairs: int) -> np.ndarray:
    """The Hoelder pairs as validate_assumptions once drew them: one call per pair."""
    rng = np.random.default_rng(seed)
    return np.array([rng.integers(0, count, size=2) for _ in range(pairs)]).reshape(-1, 2)


@pytest.mark.parametrize("count", [384, 2624, 2**31 + 1])
def test_one_shot_pair_draw_is_the_per_pair_stream(count):
    # 384 and 2624 are the sample counts on an interval and a disk; at
    # 2^31 + 1 numpy's bounded sampler rejects about half its draws
    seed, pairs = pb.SAMPLING_SEED, pb.HOELDER_PAIRS
    one_shot = np.random.default_rng(seed).integers(0, count, size=(pairs, 2))
    assert np.array_equal(one_shot, _loop_pairs(seed, count, pairs))


@pytest.mark.parametrize("domain, l, count", [
    ({"kind": "interval", "x_lo": 0.0, "x_hi": 1.0}, "x1", 384),
    ({"kind": "disk", "center": [0.0, 0.0], "radius": 1.0}, "x1+x2^2", 2624),
])
def test_hoelder_ratio_uses_the_per_pair_draws(domain, l, count):
    # with eta near 0 the ratio |l_i - l_j| / |x_i - x_j|^eta is largest on far
    # apart random pairs, so its maximum depends on exactly which pairs are drawn
    dim = 1 if domain["kind"] == "interval" else 2
    b = ["0"] * dim
    sigma = [["0"] * dim for _ in range(dim)]
    problem = assemble_problem({
        "domain": domain,
        "controls": [{"b": b, "sigma": sigma, "l": l}],
        "regularity": {"B": 1.0, "eta": 0.01, "beta": 1.0},
    })
    report = validate_assumptions(problem)
    check = next(c for c in report.checks if c.name == "hoelder_l")

    rays, _ = geo.collar_ladder(
        problem.domain, pb.D_MIN_FACTOR * geo.diameter(problem.domain),
        0.8 * geo.collar_width(problem.domain) * (1 - 1e-9), pb.COLLAR_SAMPLES,
    )
    pts = np.concatenate([_interior_points(problem), rays.reshape(-1, dim)])
    assert len(pts) == count
    cost = problem.cost(pts, 0)

    def max_ratio(seed: int) -> float:
        drawn = _loop_pairs(seed, count, pb.HOELDER_PAIRS)
        pi = np.concatenate([np.arange(count - 1), drawn[:, 0]])
        pj = np.concatenate([np.arange(1, count), drawn[:, 1]])
        gap = np.linalg.norm(pts[pi] - pts[pj], axis=1)
        keep = gap != 0.0
        return float((np.abs(cost[pi] - cost[pj])[keep] / gap[keep] ** 0.01).max())

    assert check.detail["max_ratio"] == pytest.approx(max_ratio(pb.SAMPLING_SEED), rel=1e-13)
    # the maximum tells the draws apart: other pairs give another one
    assert check.detail["max_ratio"] != pytest.approx(max_ratio(pb.SAMPLING_SEED + 1), rel=1e-9)


@pytest.mark.parametrize("tol", [np.inf, np.nan, -0.01, -np.inf])
def test_validate_refuses_a_bad_tolerance(tol):
    with pytest.raises(ConfigError, match="tol"):
        validate_assumptions(helpers.problem("smoothA"), tol=tol)


def _awkward(rng, shape):
    """Doubles of both signs and every scale: signed zeros, subnormals,
    values whose products underflow or overflow, and ordinary ones."""
    scale = rng.choice([0.0, -0.0, 5e-324, 1e-310, 1e-160, 1.0, 1e154, 1e300], size=shape)
    return scale * rng.standard_normal(shape)


def _layouts(block):
    """The block point-major, component-major (a view of one contiguous
    row per entry, as ControlProblem._values and distance lay it out) and
    its first point alone."""
    rows = np.ascontiguousarray(np.moveaxis(block, 0, -1))
    return [block, np.moveaxis(rows, -1, 0), block[0]]


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("N", [1, 2])
def test_products_keep_the_bits_of_the_broadcast_products(N, r):
    # the row-wise kernels add the same products in the same order as one
    # broadcast product per term over the block, so every bit agrees,
    # the sign of a zero, a subnormal, an inf and a NaN included
    rng = np.random.default_rng(10 * N + r)
    with np.errstate(all="ignore"):
        for _ in range(25):
            blocks = (_awkward(rng, (48, N, r)), _awkward(rng, (48, N, N)),
                      _awkward(rng, (48, N, N)), _awkward(rng, (48, N)))
            for s, a, c, v in zip(*map(_layouts, blocks)):
                for got, want in (
                    (pb.gram(s), oracles.broadcast_gram(s)),
                    (pb.rowdot(v, a[..., 0]), oracles.broadcast_rowdot(v, a[..., 0])),
                    (pb.trace_product(a, c), oracles.broadcast_trace_product(a, c)),
                    (pb.trace_product(pb.gram(s), c), oracles.broadcast_trace_product(pb.gram(s), c)),
                    (pb.quadratic_form(a, v), oracles.broadcast_quadratic_form(a, v)),
                ):
                    assert np.shape(got) == np.shape(want)
                    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
