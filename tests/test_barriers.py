import numpy as np
import pytest

import helpers
import hjblab as hj
from hjblab import barriers
from hjblab import geometry as geo
from hjblab.barriers import BarrierProfile, LyapunovProfile, eval_F_radial
from hjblab.errors import ConfigError, NumericalError
from oracles import CallableProfile

SMOOTH = helpers.problem("smoothA")

# exact chain-rule value of F[d^0.5 - 1] for smoothA at x = 0.1:
# -0.5 d^-0.5 (1-2d) + 0.25 d^0.5 (1-d)^2
F_SQRT_AT_01 = -1.2008749414489421


def test_constant_profile_annihilated():
    prof = CallableProfile(lambda d: 4.0, lambda d: 0.0, lambda d: 0.0)
    for x in (0.05, 0.2):
        assert eval_F_radial(SMOOTH, prof, [x]) == 0.0


def test_identity_profile_gives_minus_drift():
    prof = CallableProfile(lambda d: d, lambda d: 1.0, lambda d: 0.0)
    assert eval_F_radial(SMOOTH, prof, [0.3]) == pytest.approx(-0.4, abs=1e-14)


def test_sqrt_barrier_value():
    assert eval_F_radial(SMOOTH, BarrierProfile(0.5), [0.1]) == pytest.approx(
        F_SQRT_AT_01, abs=1e-12
    )


def test_collar_precondition():
    with pytest.raises(ConfigError):
        eval_F_radial(SMOOTH, BarrierProfile(0.5), [0.5])


def test_lyapunov_delta_smooth():
    cert = hj.find_lyapunov_delta(SMOOTH, 1.0, 10.0)
    # exact root of (1-2d) - 2d(1-d)^2 - 10 d^2 is 0.19149
    assert cert.delta == pytest.approx(0.19, abs=0.02)
    assert cert.margin <= 0.0
    assert all(F + 10.0 <= 0.0 for _, F in cert.witness_table)


def test_lyapunov_zero_margin_reaches_collar():
    cert = hj.find_lyapunov_delta(SMOOTH, 1.0, 0.0)
    assert cert.delta == pytest.approx(0.25, abs=1e-12)


def test_lyapunov_fails_without_degeneracy():
    bad = hj.assemble_problem(helpers.sigma_one_config())
    with pytest.raises(NumericalError):
        hj.find_lyapunov_delta(bad, 1.0, 1.0)


def test_barrier_delta_smooth_exact_evaluation():
    cert = hj.find_barrier_delta(SMOOTH, 0.5, 1.0)
    # largest collar width on which the exact F[d^0.5 - 1] <= -1:
    # root of -0.5 d^-0.5 (1-2d) + 0.25 d^0.5 (1-d)^2 = -1 at 0.12403
    assert cert.delta == pytest.approx(0.124, abs=0.01)
    assert cert.margin <= 0.0
    assert cert.theoretical_margin is not None


def test_barrier_delta_larger_margin():
    cert = hj.find_barrier_delta(SMOOTH, 0.5, 3.0)  # M = 2 sup|u0| + sup|l| with both 1
    assert 0.0 < cert.delta < 0.25
    assert cert.margin <= 0.0


def test_barrier_rho_range_check():
    degen = helpers.problem("degenerateB")
    with pytest.raises(ConfigError):
        hj.find_barrier_delta(degen, 0.6, 1.0)  # 0.6 >= 1 - gamma with gamma = 0.4
    cert = hj.find_barrier_delta(degen, 0.5, 0.1)
    assert cert.delta > 0


def test_certificates_monotone_in_margin():
    d_strong = hj.find_lyapunov_delta(SMOOTH, 1.0, 10.0).delta
    d_weak = hj.find_lyapunov_delta(SMOOTH, 1.0, 5.0).delta
    assert d_weak >= d_strong
    b_strong = hj.find_barrier_delta(SMOOTH, 0.5, 2.0).delta
    b_weak = hj.find_barrier_delta(SMOOTH, 0.5, 1.0).delta
    assert b_weak >= b_strong


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_ordering_lyapunov(lam):
    # -F[d^-lam] <= F[-d^-lam] pointwise
    pos = CallableProfile(
        lambda d: d**-lam,
        lambda d: -lam * d ** (-lam - 1),
        lambda d: lam * (lam + 1) * d ** (-lam - 2),
    )
    neg = LyapunovProfile(lam)
    for p in (SMOOTH, helpers.problem("degenerateB"), helpers.problem("twoControlA")):
        for d in np.geomspace(1e-6, 0.24, 40):
            assert -eval_F_radial(p, pos, [d]) <= eval_F_radial(p, neg, [d]) + 1e-12


@pytest.mark.parametrize("rho", [0.3, 0.5])
def test_ordering_barrier(rho):
    # -F[1 - d^rho] <= F[d^rho - 1] pointwise
    pos = CallableProfile(
        lambda d: 1 - d**rho,
        lambda d: -rho * d ** (rho - 1),
        lambda d: rho * (1 - rho) * d ** (rho - 2),
    )
    neg = BarrierProfile(rho)
    for p in (SMOOTH, helpers.problem("twoControlA")):
        for d in np.geomspace(1e-6, 0.24, 40):
            assert -eval_F_radial(p, pos, [d]) <= eval_F_radial(p, neg, [d]) + 1e-12


def test_agrees_with_discretized_operator():
    # a smooth profile of d: F by chain rule matches H_h + l to O(h)
    prof = CallableProfile(lambda d: d * d, lambda d: 2 * d, lambda d: 2.0)
    x0 = 0.1
    errs = []
    for h in (0.01, 0.005, 0.0025):
        g = helpers.grid("smoothA", h)
        i = int(round(x0 / h)) - 1
        u = np.array([prof.value(d) for d in g.d])
        Hh = hj.apply_H(g, u)[i]
        exact = eval_F_radial(SMOOTH, prof, [x0]) - SMOOTH.cost([x0], 0)
        errs.append(abs(Hh - exact))
    assert errs[2] < errs[0]
    order = np.log2(errs[0] / errs[2]) / 2
    assert order > 0.8


def test_spec_mandated_barrier_width_is_not_attainable_exactly():
    """The exact evaluation places the rho=0.5, M=1 barrier width for the
    smooth preset at 0.124: at d = 0.2 the profile value is about -0.6,
    already above -1, so no width near 0.25 can verify pointwise."""
    val = eval_F_radial(SMOOTH, BarrierProfile(0.5), [0.2])
    assert val > -1.0


def test_block_evaluation_matches_pointwise():
    disk = hj.assemble_problem(helpers.disk_config())
    cases = [
        (helpers.problem("degenerateB"), np.geomspace(1e-6, 0.24, 40)[:, None]),
        (helpers.problem("twoControlA"), 1.0 - np.geomspace(1e-6, 0.24, 40)[:, None]),
        (disk, np.stack([np.linspace(0.55, 0.99, 40), np.linspace(-0.1, 0.1, 40)], axis=1)),
    ]
    for p, pts in cases:
        for prof in (LyapunovProfile(1.0), BarrierProfile(0.3)):
            block = eval_F_radial(p, prof, pts)
            assert block.shape == (40,)
            assert np.array_equal(block, [eval_F_radial(p, prof, x) for x in pts])


def _linear_scan(F, ds, n_rays, width, grid_step, M, theoretical):
    """The lattice walk that _scan_delta replaced: from the widest collar
    down, the first delta whose samples below it all have F + M <= 0."""
    dvals = np.repeat(ds, n_rays)
    cummax = np.maximum.accumulate(F)
    for delta in np.arange(width, grid_step * (1 - 1e-12), -grid_step):
        inside = np.searchsorted(dvals, delta, side="left")
        if inside == 0:
            continue
        margin = float(cummax[inside - 1] + M)
        if margin <= 0.0:
            step = max(1, inside // 24)
            table = [(float(dvals[i]), float(F[i])) for i in range(0, inside, step)]
            return float(delta), margin, table, float(theoretical(ds[ds < delta]).max() + M)
    return None


def _scan_case(rng, width):
    """A random scan: sample distances, ray count, F per sample, step and M."""
    grid_step = width / rng.integers(1, 60) if rng.random() < 0.7 else rng.uniform(1e-3, width)
    lattice = np.arange(width, grid_step * (1 - 1e-12), -grid_step)
    m = int(rng.integers(1, 40))
    # distances: random ones beside lattice points (a delta on a sample), with repeats
    pool = np.concatenate([rng.uniform(0.0, 1.1 * width, m), rng.choice(lattice, m)])
    ds = np.sort(rng.choice(pool, m))
    n_rays = int(rng.integers(1, 4))
    # F on a quarter grid, so that F + M is exactly 0 at times
    F = rng.integers(-12, 4, m * n_rays) * 0.25
    if rng.random() < 0.5:
        F = np.sort(F)  # growing with d, as the profiles' F does
    if rng.random() < 0.2:
        F[rng.integers(F.size)] = np.nan
    M = rng.integers(0, 12) * 0.25 if rng.random() < 0.8 else rng.uniform(0.0, 3.0)
    return ds, n_rays, F, grid_step, M


def test_binary_search_delta_equals_the_linear_scan(monkeypatch):
    width = geo.collar_width(SMOOTH.domain)

    def theoretical(d):
        return np.cos(9 * d) - d

    rng = np.random.default_rng(2024)
    seen = {"margin 0": 0, "delta on a sample": 0, "nan": 0, "every delta": 0, "no delta": 0}
    for _ in range(2000):
        ds, n_rays, F, grid_step, M = _scan_case(rng, width)
        rays = np.broadcast_to(np.arange(n_rays)[:, None, None], (n_rays, len(ds), 1))
        columns = F.reshape(len(ds), n_rays)
        monkeypatch.setattr(barriers.geo, "collar_ladder", lambda *args: (rays, ds))
        # a block holds whole rays, ray-major; each point's coordinate is its ray
        monkeypatch.setattr(
            barriers, "eval_F_radial",
            lambda p, g, pts: columns[np.arange(len(pts)) % len(ds), pts[:, 0].astype(int)],
        )
        expected = _linear_scan(F, ds, n_rays, width, grid_step, M, theoretical)
        if expected is None:
            with pytest.raises(NumericalError, match="no admissible delta"):
                barriers._scan_delta(SMOOTH, LyapunovProfile(1.0), M, grid_step, theoretical)
            seen["no delta"] += 1
            continue
        cert = barriers._scan_delta(SMOOTH, LyapunovProfile(1.0), M, grid_step, theoretical)
        got = (cert.delta, cert.margin, cert.witness_table, cert.theoretical_margin)
        assert got == expected
        seen["margin 0"] += cert.margin == 0.0
        seen["delta on a sample"] += cert.delta in ds
        seen["nan"] += bool(np.isnan(F).any())
        seen["every delta"] += cert.delta == width
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("grid_step", [0.0, -0.01, np.nan, np.inf, 5.0])
def test_certificates_refuse_a_bad_grid_step(grid_step):
    with pytest.raises(ConfigError, match="grid_step"):
        hj.find_lyapunov_delta(SMOOTH, 1.0, 10.0, grid_step)
    with pytest.raises(ConfigError, match="grid_step"):
        hj.find_barrier_delta(SMOOTH, 0.5, 1.0, grid_step)


def test_certificates_refuse_a_non_finite_M():
    for M in (np.nan, np.inf):
        with pytest.raises(ConfigError, match="M must be finite"):
            hj.find_lyapunov_delta(SMOOTH, 1.0, M)
        with pytest.raises(ConfigError, match="M must be finite"):
            hj.find_barrier_delta(SMOOTH, 0.5, M)


def test_grid_step_of_the_whole_collar_is_one_lattice_point():
    width = geo.collar_width(SMOOTH.domain)
    assert hj.find_lyapunov_delta(SMOOTH, 1.0, 0.0, grid_step=width).delta == width
    with pytest.raises(NumericalError):
        hj.find_lyapunov_delta(SMOOTH, 1.0, 10.0, grid_step=width)


DISK = hj.assemble_problem(helpers.disk_config())
# (problem, lyapunov (lambda, M), barrier (rho, M)): the benchmark's searches,
# and constantL's with smoothA's parameters
SCAN_CASES = {
    "constantL": (helpers.problem("constantL"), (1.0, 10.0), (0.5, 1.0)),
    "smoothA": (SMOOTH, (1.0, 10.0), (0.5, 1.0)),
    "degenerateB": (helpers.problem("degenerateB"), (0.5, 2.0), (0.3, 1.0)),
    "twoControlA": (helpers.problem("twoControlA"), (1.0, 10.0), (0.5, 1.0)),
    "disk": (DISK, (1.0, 10.0), (0.5, 1.0)),
}


def _search(name, family):
    problem, lyapunov, barrier = SCAN_CASES[name]
    if family == "lyapunov":
        return hj.find_lyapunov_delta(problem, *lyapunov)
    return hj.find_barrier_delta(problem, *barrier)


@pytest.mark.parametrize("family", ["lyapunov", "barrier"])
@pytest.mark.parametrize("name", list(SCAN_CASES))
def test_blocked_scan_equals_the_per_ray_scan(monkeypatch, name, family):
    blocked = _search(name, family)
    monkeypatch.setattr(barriers, "SCAN_BLOCK_POINTS", 1)  # one ray per call
    per_ray = _search(name, family)
    assert blocked.delta > 0.0
    assert (blocked.delta, blocked.margin, blocked.theoretical_margin) == (
        per_ray.delta, per_ray.margin, per_ray.theoretical_margin
    )
    assert blocked.witness_table == per_ray.witness_table


@pytest.mark.parametrize("name", ["smoothA", "disk"])
def test_scan_blocks_are_whole_rays_in_ray_order(monkeypatch, name):
    problem = SCAN_CASES[name][0]
    calls = []

    def recording(p, profile, pts):
        calls.append(np.array(pts))
        return eval_F_radial(p, profile, pts)

    monkeypatch.setattr(barriers, "eval_F_radial", recording)
    _search(name, "lyapunov")
    dom = problem.domain
    width = geo.collar_width(dom)
    rays, ds = geo.collar_ladder(dom, 1e-9 * geo.diameter(dom), width * (1 - 1e-9), 2000)
    per_block = barriers.SCAN_BLOCK_POINTS // len(ds)
    assert per_block >= 1
    assert len(calls) == -(-len(rays) // per_block)  # ceil: full blocks, the last may be short
    assert all(len(c) <= barriers.SCAN_BLOCK_POINTS and len(c) % len(ds) == 0 for c in calls)
    assert np.array_equal(np.concatenate(calls), rays.reshape(-1, problem.dim))
    if name == "disk":
        assert 1 < len(calls) < len(rays)  # neither one call per ray nor one for all


@pytest.mark.parametrize("source", ["log(x2 + 0.5)", "log(0.8 + x2 - d)"])
def test_blocked_scan_names_the_fault_that_the_per_ray_scan_names(monkeypatch, source):
    # both fault on the collar (d < 0.5) of the rays at 225 to 315 degrees
    # only.  The second faults on the 225-degree ray only beyond d = 0.317,
    # but on the 247.5-degree ray, in the same block, from the deepest
    # sample on, so only a ray-major block names the 225-degree ray first
    cfg = helpers.disk_config()
    cfg["controls"][0]["b"] = ["-x1", f"-x2 + {source}"]
    problem = hj.assemble_problem(cfg)
    with pytest.raises(NumericalError) as blocked:
        hj.find_lyapunov_delta(problem, 1.0, 10.0)
    monkeypatch.setattr(barriers, "SCAN_BLOCK_POINTS", 1)
    with pytest.raises(NumericalError) as per_ray:
        hj.find_lyapunov_delta(problem, 1.0, 10.0)
    assert str(blocked.value) == str(per_ray.value)
    point = blocked.value.point
    assert "log" in str(blocked.value) and point["x1"] == pytest.approx(point["x2"])


def test_coefficient_products_are_defined_in_problem_only():
    import pathlib
    import re

    src = pathlib.Path(hj.__file__).parent
    found = {
        path.name: re.findall(r"^\s*def (rowdot|gram|trace_product|quadratic_form)\b", path.read_text(), re.M)
        for path in sorted(src.glob("*.py"))
    }
    assert sorted(found.pop("problem.py")) == ["gram", "quadratic_form", "rowdot", "trace_product"]
    assert not any(found.values()), found
