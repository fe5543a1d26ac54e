import pathlib
import re

import numpy as np
import pytest

import helpers
import hjblab as hj
from hjblab.cauchy import initial_state, policy_iteration
from hjblab.errors import ConfigError
from hjblab.geometry import boundary_foot, diameter
from hjblab.grid import (
    BoundaryClosure,
    control_values,
    explicit_window,
    frozen_matrix,
    stencil_report,
)
from hjblab.problem import quadratic_form


def test_interval_nodes():
    g = helpers.grid("smoothA", 0.1)
    assert g.n == 9
    assert np.allclose(g.x[:, 0], np.arange(1, 10) * 0.1)


def test_h_must_divide():
    with pytest.raises(ConfigError):
        hj.build_grid(helpers.problem("smoothA"), 0.3)


def test_too_coarse():
    with pytest.raises(ConfigError):
        hj.build_grid(helpers.problem("smoothA"), 0.5)


def test_disk_five_nodes():
    cfg = {
        "domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0},
        "controls": [{"b": ["-x1", "-x2"], "sigma": [["d", "0"], ["0", "d"]], "l": "x1^2"}],
        "regularity": {"B": 2.0, "eta": 1.0, "beta": 1.0},
    }
    g = hj.build_grid(hj.assemble_problem(cfg), 0.5)
    got = {tuple(p) for p in g.x.tolist()}
    assert got == {(0.0, 0.0), (0.5, 0.0), (-0.5, 0.0), (0.0, 0.5), (0.0, -0.5)}


def test_disk_neighbors_match_brute_force():
    # every node's lattice neighbors found by comparing all pairs of nodes;
    # row side * 2 + k of the gather table, the node itself where one is missing
    cfg = helpers.disk_config()
    cfg["domain"].update(center=[0.3, -0.7], radius=0.45)
    for h in (0.05, 0.03):
        g = hj.build_grid(hj.assemble_problem(cfg), h)
        offset = (g.x[None, :, :] - g.x[:, None, :]) / h  # [i, j] = (x_j - x_i) / h
        for k in range(2):
            for side, sign in ((0, -1.0), (1, 1.0)):
                target = np.zeros(2)
                target[k] = sign
                hits = np.isclose(offset, target, rtol=0.0, atol=1e-9).all(axis=2)
                assert (hits.sum(axis=1) <= 1).all()
                expected = np.where(hits.any(axis=1), hits.argmax(axis=1), np.arange(g.n))
                assert np.array_equal(g._gather[side * 2 + k], expected), (h, k, side)
        # nodes are numbered row by row, x2 outer and x1 inner
        assert np.array_equal(np.lexsort((g.x[:, 0], g.x[:, 1])), np.arange(g.n))


def test_grid_tables_are_read_only():
    # the frozen_factor cache is keyed on the policy and the scalars alone,
    # so no table it reads may change after the build; and the grid keeps
    # only the tables the solvers read
    disk = hj.build_grid(hj.assemble_problem(helpers.disk_config()), 0.125)
    solver_tables = {"x", "d", "l", "_gather", "_coef"}
    csc = {"_csc_take", "_csc_indices", "_csc_indptr"}
    for g, names in ((helpers.grid("twoControlA", 0.05), solver_tables), (disk, solver_tables | csc)):
        tables = {name: value for name, value in vars(g).items() if isinstance(value, np.ndarray)}
        assert set(tables) == names
        assert not any(table.flags.writeable for table in tables.values())
        for table in (g._coef, g.l, g._gather):
            with pytest.raises(ValueError, match="read-only"):
                table[(0,) * table.ndim] = 1
    for table in (disk._csc_take, disk._csc_indices, disk._csc_indptr):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1


def test_only_the_grid_module_names_its_tables_and_boundary_record():
    # the stencil layout, the CSC pattern and the boundary record are
    # private to hjblab.grid: every other module goes through its functions
    tables = ("_gather", "_coef", "_csc_take", "_csc_indices", "_csc_indptr")
    private = re.compile(r"\b(?:%s)\b|\.closure\b" % "|".join(tables + BoundaryClosure._fields))
    for path in sorted(pathlib.Path(hj.__file__).parent.glob("*.py")):
        named = set(private.findall(path.read_text()))
        if path.name == "grid.py":
            assert named == {*tables, *BoundaryClosure._fields, ".closure"}
        else:
            assert not named, path.name


def three_control_interval() -> hj.ControlProblem:
    """A degenerate interval problem whose three controls each win the
    maximum of H[0] on a third of the nodes."""
    return hj.assemble_problem({
        "domain": {"kind": "interval", "x_lo": 0.0, "x_hi": 1.0},
        "controls": [
            {"b": ["0.5-x1"], "sigma": [["d"]], "l": "x1"},
            {"b": ["0.2*(0.5-x1)"], "sigma": [["0.5*d"]], "l": "1-x1"},
            {"b": ["0"], "sigma": [["2*d"]], "l": "0.3"},
        ],
        "regularity": {"B": 2.0, "eta": 1.0, "beta": 1.0},
    })


def _operator_steps(g, u, count, dt):
    for _ in range(count):
        u = u - dt * hj.apply_H(g, u)
    return u


@pytest.mark.parametrize("make", [
    lambda: helpers.grid("smoothA", 0.01),
    lambda: helpers.grid("twoControlA", 0.002),
    lambda: helpers.grid("degenerateB", 0.01),
    lambda: hj.build_grid(three_control_interval(), 0.01),
    lambda: hj.build_grid(hj.assemble_problem(helpers.two_control_disk_config()), 0.1),
], ids=["smoothA", "twoControlA", "degenerateB", "threeControls", "disk"])
def test_explicit_window_is_the_operator_step_bit_for_bit(make):
    # the sliced 1-D window and the disk's loop both take exactly the steps
    # u - dt H[u] of the operator's definition, in both buffer roles
    g = make()
    if g.n_controls == 3:
        assert set(np.argmax(control_values(g, np.zeros(g.n)), axis=0)) == {0, 1, 2}
    dt = 0.999 * hj.cfl_dt(g)
    dyadic = helpers.dyadic_field(g.n, seed=4)
    fields = {
        "zero": np.zeros(g.n),
        "random": np.random.default_rng(8).uniform(-1.0, 1.0, g.n),
        "negative zero": np.full(g.n, -0.0),
        "dyadic": dyadic,
        "shifted dyadic": dyadic + 3.25,
    }
    for name, u in fields.items():
        before = u.tobytes()
        for count in (1, 2, 3, 313):
            got = explicit_window(g, u, count, dt)
            assert got.tobytes() == _operator_steps(g, u, count, dt).tobytes(), (name, count)
            assert u.tobytes() == before
            again = explicit_window(g, u, count, dt)
            assert got.flags.writeable
            assert not np.shares_memory(got, again) and not np.shares_memory(got, u)


def test_only_the_cauchy_loop_chooses_a_policy():
    # a policy is the argmax of control_values in cauchy.policy_iteration;
    # besides grid, which defines control_values, no module names it
    values = re.compile(r"\bcontrol_values\b")
    retired = re.compile(r"\b(?:maximizing_policy|MAX_POLICY_ITERATIONS)\b")
    package = pathlib.Path(hj.__file__).parent
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        assert not retired.search(text), path.name
        assert path.name in ("grid.py", "cauchy.py") or not values.search(text), path.name
    assert values.search((package / "cauchy.py").read_text())


def _dense(grid, matrix):
    if grid.ndim == 2:
        return helpers.scipy_csc(matrix).toarray()
    i = np.arange(grid.n - 1)
    dense = np.diag(matrix[1])
    dense[i, i + 1] = matrix[0, 1:]
    dense[i + 1, i] = matrix[2, :-1]
    return dense


def test_frozen_matrix_rows_are_control_values():
    # (A_policy u)_i = control_values(u)[policy[i], i] + l[policy[i], i],
    # for the banded (1-D) and the CSC (2-D) form
    rng = np.random.default_rng(12)
    disk = hj.build_grid(hj.assemble_problem(helpers.two_control_disk_config()), 0.125)
    for g in (helpers.grid("twoControlA", 0.01), disk):
        assert g.n_controls == 2
        rows = np.arange(g.n)
        for _ in range(3):
            u = rng.uniform(-1.0, 1.0, g.n)
            policy = rng.integers(0, g.n_controls, g.n)
            got = _dense(g, frozen_matrix(g, policy, 1.0, 0.0)) @ u
            want = control_values(g, u)[policy, rows] + g.l[policy, rows]
            assert np.abs(got - want).max() <= 1e-12


def test_control_values_match_per_node_reference():
    # the one-gather kernel equals, bit for bit, the per-control, per-node
    # formula (m_1 + .. + m_N) + (p_1 + .. + p_N) - l in neighbor differences,
    # in 1-D and on the disk, for fields of very different scales
    grids = [helpers.grid(name, 0.05) for name in helpers.PRESETS]
    grids.append(hj.build_grid(hj.assemble_problem(helpers.two_control_disk_config()), 0.125))
    rng = np.random.default_rng(13)
    for g in grids:
        for scale in (1.0, 1e3, 1e-5):
            u = scale * rng.uniform(-1.0, 1.0, g.n)
            ref = np.empty((g.n_controls, g.n))
            for ci in range(g.n_controls):
                for i in range(g.n):
                    sides = []
                    for side in (0, 1):
                        stencil = slice(side * g.ndim, (side + 1) * g.ndim)
                        coef = g._coef[stencil, ci, i]
                        diffs = [u[j] - u[i] if j != i else 0.0 for j in g._gather[stencil, i]]
                        total = float(coef[0]) * diffs[0]
                        for k in range(1, g.ndim):
                            total += float(coef[k]) * diffs[k]
                        sides.append(total)
                    ref[ci, i] = sides[0] + sides[1] - float(g.l[ci, i])
            assert np.array_equal(control_values(g, u), ref), (g.problem.fingerprint(), scale)


def _per_node_stencil(p, h):
    """The stencil coefficients (2N, n_controls, n) and the boundary record,
    node by node from the pointwise API: the upwinded drift b - div(a) with
    a_kk differenced at x +- fd_step, the face diffusivities a_kk at the
    midpoints towards existing neighbors, and the normal diffusivity at the
    boundary foot of a node with a missing neighbor."""
    g = hj.build_grid(p, h)
    N, fd_step = g.ndim, 1e-6 * diameter(p.domain)
    coef = np.zeros((2 * N, g.n_controls, g.n))
    exterior, clamped, forced, first = 0, 0, 0, None
    for i in range(g.n):
        x = g.x[i]
        has = [[g._gather[side * N + k, i] != i for side in (0, 1)] for k in range(N)]
        missing = 2 * N - sum(map(sum, has))
        for ci in range(g.n_controls):
            if missing:
                foot, normal = boundary_foot(p.domain, x)
                if quadratic_form(p.diffusion(foot, ci), normal) < h * h:
                    clamped += missing
                else:
                    exterior += missing
                    first = i if first is None else first
            b = p.drift(x, ci)
            for k in range(N):
                xp, xm = x.copy(), x.copy()
                xp[k] += fd_step
                xm[k] -= fd_step
                div = (p.diffusion_diagonal(xp, ci, k) - p.diffusion_diagonal(xm, ci, k)) / (2 * fd_step)
                bt = b[k] - div
                up = 1 if bt >= 0.0 else 0  # the upwind side, flipped where its neighbor is missing
                if not has[k][up]:
                    forced += bt != 0.0
                    up = 1 - up
                for side, sign in ((0, -1.0), (1, 1.0)):
                    if has[k][side]:
                        xf = x.copy()
                        xf[k] += sign * h / 2
                        value = -p.diffusion_diagonal(xf, ci, k) / h**2
                        value += (bt if side == 0 else -bt) / h if side == up else 0.0
                        coef[side * N + k, ci, i] = value
    return g, coef, BoundaryClosure(exterior, first, clamped, forced)


def test_cached_coefficients_match_direct_evaluation():
    # one evaluator: the cached costs and stencil coefficients, and the
    # boundary record, equal the per-node pointwise reference bit for bit,
    # also for fractional powers (degenerateB: 0.4 and 0.75), on a disk and
    # on a grid with exterior faces
    cases = [
        (helpers.problem("twoControlA"), 0.05),
        (helpers.problem("degenerateB"), 0.05),
        (hj.assemble_problem(helpers.disk_config()), 0.125),
        # anisotropic: a face of axis k must read row k of sigma, not another
        (hj.assemble_problem(helpers.two_control_disk_config()), 0.125),
        (hj.assemble_problem(helpers.sigma_one_config()), 0.05),
    ]
    for p, h in cases:
        g, coef, closure = _per_node_stencil(p, h)
        for ci in range(g.n_controls):
            for i in range(g.n):
                assert g.l[ci, i] == p.cost(g.x[i], ci)
        assert np.array_equal(g._coef, coef), (p.fingerprint(), h)
        assert g.closure == closure, (p.fingerprint(), h)


def _constant_sigma_config() -> dict:
    cfg = helpers.sigma_one_config()
    cfg["controls"][0]["sigma"] = [["0.01"]]
    return cfg


@pytest.mark.parametrize("config, h, exterior, clamped, forced", [
    ({"preset": "smoothA"}, 0.01, 0, 2, 0),
    ({"preset": "degenerateB"}, 0.05, 0, 2, 2),
    (helpers.sigma_one_config(), 0.01, 2, 0, 0),
    # sigma = 0.01: a normal diffusivity of exactly h^2 survives the clamp
    (_constant_sigma_config(), 0.01, 2, 0, 0),
    (_constant_sigma_config(), 0.02, 0, 2, 0),
    (helpers.disk_config(), 0.05, 0, 156, 0),
    (helpers.two_control_disk_config(), 0.1, 0, 152, 44),
], ids=["smoothA", "degenerateB", "sigma_one", "sigma_h", "sigma_h/2", "disk", "two_control_disk"])
def test_boundary_record_counts(config, h, exterior, clamped, forced):
    # the counts the per-face tables of earlier builds gave on these grids
    g = hj.build_grid(hj.assemble_problem(config), h)
    assert g.closure == BoundaryClosure(exterior, 0 if exterior else None, clamped, forced)
    rep = stencil_report(g)
    assert (rep.exterior_reference_count, rep.clamped_face_count, rep.forced_inward_count) == (
        exterior, clamped, forced)


def test_upwind_drift_is_b_minus_div_a():
    # at a node with both neighbors on axis k, cm + cp = -(faces) / h^2 - |bt_k| / h,
    # and bt_k = b_k - d(a_kk)/dx_k: a divergence of the wrong a_kk shows here
    p = hj.assemble_problem(helpers.two_control_disk_config())
    h, step = 0.125, 1e-5
    g = hj.build_grid(p, h)
    for ci in range(g.n_controls):
        for k in range(g.ndim):
            inner = (g._gather[[k, g.ndim + k]] != np.arange(g.n)).all(axis=0)
            faces = 0.0
            for sign in (-1.0, 1.0):
                xf = g.x[inner].copy()
                xf[:, k] += sign * h / 2
                faces += p.diffusion(xf, ci)[:, k, k] / h**2
            recovered = -h * (g._coef[k, ci, inner] + g._coef[g.ndim + k, ci, inner] + faces)
            xp, xm = g.x[inner].copy(), g.x[inner].copy()
            xp[:, k] += step
            xm[:, k] -= step
            div = (p.diffusion(xp, ci)[:, k, k] - p.diffusion(xm, ci)[:, k, k]) / (2 * step)
            assert np.allclose(recovered, np.abs(p.drift(g.x[inner], ci)[:, k] - div), atol=1e-7)


def _three_column_disk_config() -> dict:
    """A disk control whose sigma has three columns, so a_kk sums three products."""
    cfg = helpers.disk_config()
    cfg["controls"][0]["sigma"] = [["d", "0.3*d*x1", "d^0.75"], ["0.5*d", "d*x2", "0.1"]]
    return cfg


def test_diffusion_diagonal_is_the_gram_diagonal_bit_for_bit():
    # the build reads a_kk off row k of sigma alone; it must equal the
    # diagonal of the full a = sigma sigma^T on blocks and at single points
    # points near the nodes of a grid on the domain (sigma with three columns
    # has an off-diagonal a, which the build refuses, so it borrows the disk's)
    disk_nodes = hj.build_grid(hj.assemble_problem(helpers.disk_config()), 0.05).x
    cases = [(helpers.problem(name), helpers.grid(name, 0.05).x) for name in helpers.PRESETS]
    cases += [
        (hj.assemble_problem(cfg()), disk_nodes)
        for cfg in (helpers.disk_config, helpers.two_control_disk_config, _three_column_disk_config)
    ]
    for p, nodes in cases:
        pts = nodes + 0.01 * np.random.default_rng(11).uniform(-1.0, 1.0, nodes.shape)
        for ci in range(len(p.controls)):
            a = p.diffusion(pts, ci)
            for k in range(p.dim):
                assert np.array_equal(p.diffusion_diagonal(pts, ci, k), a[:, k, k])
                assert p.diffusion_diagonal(pts[3], ci, k) == a[3, k, k]


def test_off_diagonal_diffusion_refused():
    cfg = helpers.disk_config()
    cfg["controls"][0]["sigma"] = [["d", "0"], ["d", "d"]]
    with pytest.raises(ConfigError, match="off-diagonal"):
        hj.build_grid(hj.assemble_problem(cfg), 0.125)


def test_cfl_dt_is_fixed_at_build():
    g = helpers.grid("smoothA", 0.01)
    rate = float(np.abs(g._coef).sum(axis=0).max())  # 1-D: |minus| + |plus|
    assert hj.cfl_dt(g) == 1.0 / rate
    flat = hj.build_grid(hj.assemble_problem(helpers.flat_config()), 0.1)
    with pytest.raises(ConfigError, match="vanishes"):
        hj.cfl_dt(flat)
    with pytest.raises(ConfigError, match="vanishes"):
        hj.step_explicit(flat, initial_state(flat, np.zeros(flat.n)), 0.1)


def test_apply_H_constant_field():
    g = helpers.grid("constantL", 0.01)
    out = hj.apply_H(g, np.full(g.n, 3.7))
    assert np.array_equal(out, np.full(g.n, -2.0))
    # with two controls the max picks the smaller cost node-wise
    gt = helpers.grid("twoControlA", 0.01)
    out2 = hj.apply_H(gt, np.zeros(gt.n))
    assert np.allclose(out2, -gt.x[:, 0])


def test_translation_invariance_bit_exact():
    g = helpers.grid("smoothA", 0.01)
    u = helpers.dyadic_field(g.n, seed=5)
    assert np.array_equal(hj.apply_H(g, u), hj.apply_H(g, u + 7.0))
    v = np.random.default_rng(2).uniform(-1, 1, g.n)
    assert np.abs(hj.apply_H(g, v) - hj.apply_H(g, v + 7.0)).max() < 1e-11


def test_consistency_on_smooth_profile():
    # |H_h - H| = O(h) at a fixed interior point, measured by halving
    x0 = 0.25
    p = helpers.problem("smoothA")

    def exact_H(x):
        b = 1 - 2 * x
        a = (x * (1 - x)) ** 2
        return -b * np.pi * np.cos(np.pi * x) + a * np.pi**2 * np.sin(np.pi * x) - x

    errs = []
    for h in (0.05, 0.025, 0.0125):
        g = hj.build_grid(p, h)
        i = int(round(x0 / h)) - 1
        u = np.sin(np.pi * g.x[:, 0])
        errs.append(abs(hj.apply_H(g, u)[i] - exact_H(x0)))
    orders = [np.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert min(orders) >= 0.9


def test_singular_profile_value():
    # H_h on samples of d^0.5 - 1 approaches the chain-rule value - l
    g = helpers.grid("smoothA", 1e-3)
    i = int(round(0.1 / 1e-3)) - 1
    u = g.d**0.5 - 1
    target = -1.2008749414489421 - 0.1
    assert abs(hj.apply_H(g, u)[i] - target) < 0.05  # reduced order: singular profile


def test_cfl_heat_equation():
    cfg = {
        "domain": {"kind": "interval", "x_lo": 0.0, "x_hi": 1.0},
        "controls": [{"b": ["0"], "sigma": [["0.6"]], "l": "0"}],
        "regularity": {"B": 1.0, "eta": 1.0, "beta": 1.0},
    }
    h = 0.02
    g = hj.build_grid(hj.assemble_problem(cfg), h)
    A = 0.36
    assert hj.cfl_dt(g) == pytest.approx(h * h / (2 * A), rel=1e-12)


def test_cfl_smooth_value_and_cost_independence():
    g = helpers.grid("smoothA", 0.01)
    assert hj.cfl_dt(g) == pytest.approx(8.0e-4, abs=2e-5)
    gc = helpers.grid("constantL", 0.01)
    assert hj.cfl_dt(gc) == hj.cfl_dt(g)  # the cost never enters the bound


def test_stencil_closure_on_presets():
    for name in helpers.PRESETS:
        rep = stencil_report(helpers.grid(name, 0.01))
        assert rep.exterior_reference_count == 0, name
        assert rep.forced_inward_count == 0, name
        assert rep.min_offdiagonal > 0.0, name
        assert rep.max_row_sum_error < 1e-12, name


def test_row_sum_error_on_a_two_control_disk():
    # the 2-D report sums the sparse rows of each control's generator
    g = hj.build_grid(hj.assemble_problem(helpers.two_control_disk_config()), 0.05)
    assert stencil_report(g).max_row_sum_error < 1e-12


def test_exterior_references_without_degeneracy():
    bad = hj.assemble_problem(helpers.sigma_one_config())
    rep = stencil_report(hj.build_grid(bad, 0.01))
    assert rep.exterior_reference_count > 0


def test_explicit_step_monotone_at_touching_node():
    # u <= v with equality at node i: one explicit step preserves order at i
    rng = np.random.default_rng(11)
    for name in ("smoothA", "twoControlA"):
        g = helpers.grid(name, 0.02)
        dt = hj.cfl_dt(g)
        for _ in range(20):
            u = rng.uniform(-1, 1, g.n)
            gap = rng.uniform(0, 1, g.n)
            i = rng.integers(0, g.n)
            gap[i] = 0.0
            v = u + gap
            un = u - dt * hj.apply_H(g, u)
            vn = v - dt * hj.apply_H(g, v)
            assert un[i] <= vn[i] + 1e-12


def test_policy_ties_resolve_to_lowest_index():
    cfg = {
        "domain": {"kind": "interval", "x_lo": 0.0, "x_hi": 1.0},
        "controls": [
            {"b": ["1-2*x1"], "sigma": [["x1*(1-x1)"]], "l": "x1"},
            {"b": ["1-2*x1"], "sigma": [["x1*(1-x1)"]], "l": "x1"},
        ],
        "regularity": {"B": 2.0, "eta": 1.0, "beta": 1.0},
    }
    g = hj.build_grid(hj.assemble_problem(cfg), 0.05)
    u = np.sin(3 * g.x[:, 0])
    vals = control_values(g, u)
    assert np.array_equal(vals[0], vals[1])
    # the policy Howard's loop starts from, and the one it keeps, is all zeros
    policies = []

    def evaluate(policy, sweep):
        policies.append(policy)
        return u

    assert policy_iteration(g, u, evaluate)[1] == 1
    assert np.array_equal(policies[0], np.zeros(g.n, dtype=np.int64))


def test_disk_apply_constant():
    cfg = {
        "domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0},
        "controls": [{"b": ["-x1", "-x2"], "sigma": [["d", "0"], ["0", "d"]], "l": "2"}],
        "regularity": {"B": 2.0, "eta": 1.0, "beta": 1.0},
    }
    g = hj.build_grid(hj.assemble_problem(cfg), 0.125)
    out = hj.apply_H(g, np.full(g.n, -1.3))
    assert np.array_equal(out, np.full(g.n, -2.0))
    rep = stencil_report(g)
    assert rep.exterior_reference_count == 0


def test_grid_tables_are_c_contiguous():
    # the coefficient methods return component-major views; the build
    # copies them into its own tables, which the kernels read in C order
    disk = hj.build_grid(hj.assemble_problem(helpers.two_control_disk_config()), 0.125)
    for g in (helpers.grid("twoControlA", 0.01), disk):
        tables = {k: v for k, v in vars(g).items() if isinstance(v, np.ndarray)}
        assert {"x", "d", "l", "_gather", "_coef"} <= tables.keys()
        assert [k for k, v in tables.items() if not v.flags.c_contiguous] == []
