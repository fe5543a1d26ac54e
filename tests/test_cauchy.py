import os

import numpy as np
import pytest

import helpers
import hjblab as hj
from hjblab import cauchy
from hjblab.cauchy import (
    frozen_factor,
    howard_solve,
    initial_state,
    step_explicit,
    step_implicit_policy,
)
from hjblab.errors import ConfigError, NumericalError
from hjblab.grid import control_values, frozen_matrix
from hjblab.problem import _preset_config


def test_explicit_constant_cost_step():
    g = helpers.grid("constantL", 0.01)
    s = step_explicit(g, initial_state(g, np.zeros(g.n)), 1e-4)
    assert np.array_equal(s.u, np.full(g.n, 2e-4))
    assert s.t == 1e-4 and s.step_count == 1


def test_zero_cost_constant_is_stationary():
    p = hj.assemble_problem({"preset": "constantL", "L": 0.0})
    g = hj.build_grid(p, 0.01)
    s = initial_state(g, np.full(g.n, 5.0))
    for _ in range(4):
        s = step_explicit(g, s, hj.cfl_dt(g))
    assert np.array_equal(s.u, np.full(g.n, 5.0))
    s2, sweeps, _ = howard_solve(g, np.full(g.n, 5.0), 2.0)
    assert sweeps == 1
    assert np.abs(s2 - 5.0).max() < 1e-12


def test_explicit_cfl_guard():
    g = helpers.grid("smoothA", 0.01)
    with pytest.raises(ConfigError):
        step_explicit(g, initial_state(g, np.zeros(g.n)), 1.1 * hj.cfl_dt(g))


def test_implicit_one_big_step_constant_cost():
    g = helpers.grid("constantL", 0.01)
    s = step_implicit_policy(g, initial_state(g, np.zeros(g.n)), 1.0)
    assert np.abs(s.u - 2.0).max() < 1e-10


def test_translation_carries_through_steps():
    g = helpers.grid("smoothA", 0.01)
    u0 = helpers.dyadic_field(g.n, seed=9)
    a = initial_state(g, u0)
    b = initial_state(g, u0 + 3.0)
    for _ in range(20):
        a = step_explicit(g, a, hj.cfl_dt(g))
        b = step_explicit(g, b, hj.cfl_dt(g))
        gap = b.u - a.u
        assert gap.min() > 3 - 1e-9 and gap.max() < 3 + 1e-9


def test_implicit_matches_chained_explicit():
    g = helpers.grid("twoControlA", 0.01)
    dt = hj.cfl_dt(g)
    rng = np.random.default_rng(4)
    # random but smooth data, so the step-splitting error is O(dt) with a
    # derivative-sized constant
    coef = rng.uniform(-1, 1, 3)
    u0 = sum(c * np.sin((k + 1) * np.pi * g.x[:, 0]) for k, c in enumerate(coef))
    u_imp, sweeps, residual = howard_solve(g, u0, 10 * dt)
    assert sweeps <= 5
    assert residual < 1e-12
    s = initial_state(g, u0)
    for _ in range(10):
        s = step_explicit(g, s, dt)
    gaps = []
    for parts in (1, 2):  # halving the implicit step halves the disagreement
        u_cur, t = u0, initial_state(g, u0)
        for _ in range(parts):
            u_cur, _, _ = howard_solve(g, u_cur, 10 * dt / parts)
        gaps.append(np.abs(u_cur - s.u).max())
    assert gaps[0] < 60 * (10 * dt)
    assert gaps[1] < 0.75 * gaps[0]


def test_explicit_implicit_first_order_gap():
    g = helpers.grid("smoothA", 0.02)
    u0 = np.sin(2 * np.pi * g.x[:, 0])
    *_, ref = hj.march(g, u0, 0.2, "explicit")
    errs = []
    for dt in (0.02, 0.01):
        *_, cur = hj.march(g, u0, 0.2, "implicit", dt)
        errs.append(np.abs(cur.u - ref.u).max())
    assert errs[1] < errs[0]
    assert 1.3 < errs[0] / errs[1] < 3.5


def test_evolve_constant_cost_linear_growth():
    g = helpers.grid("constantL", 0.01)
    states = list(hj.march(g, np.zeros(g.n), 3.0, "implicit", 0.05, 1.0))
    assert [s.t for s in states] == [0.0, 1.0, 2.0, 3.0]
    assert np.abs(states[-1].u - 6.0).max() < 1e-9


def test_a_priori_bound_smooth():
    g = helpers.grid("smoothA", 0.01)
    *_, last = hj.march(g, np.zeros(g.n), 1.0, "explicit", snapshot_every=0.25)
    assert np.abs(last.u).max() <= g.l_sup() * 1.0 * (1 + 1e-9)


def test_snapshot_gap_constant():
    g = helpers.grid("smoothA", 0.01)
    u0 = np.sin(2 * np.pi * g.x[:, 0])
    s1 = hj.march(g, u0, 0.5, "explicit", snapshot_every=0.1)
    s2 = hj.march(g, u0 + 1.0, 0.5, "explicit", snapshot_every=0.1)
    for a, b in zip(s1, s2, strict=True):
        gap = b.u - a.u
        assert gap.min() >= 1 - 1e-9 and gap.max() <= 1 + 1e-9


@pytest.mark.parametrize("mode,dtf", [("explicit", 1.0), ("implicit", 10.0)])
def test_comparison_random_pairs(mode, dtf):
    rng = np.random.default_rng(21)
    for name in ("smoothA", "degenerateB", "twoControlA"):
        g = helpers.grid(name, 0.01)
        dt = dtf * hj.cfl_dt(g)
        for _ in range(5):
            u = rng.uniform(-1, 1, g.n)
            v = u + rng.uniform(0, 1, g.n)
            su, sv = initial_state(g, u), initial_state(g, v)
            for _ in range(8):
                if mode == "explicit":
                    su, sv = step_explicit(g, su, dt), step_explicit(g, sv, dt)
                else:
                    su, sv = step_implicit_policy(g, su, dt), step_implicit_policy(g, sv, dt)
                assert (sv.u - su.u).min() >= -1e-9


def test_gap_contraction_between_solutions():
    g = helpers.grid("smoothA", 0.01)
    rng = np.random.default_rng(13)
    u = initial_state(g, rng.uniform(-1, 1, g.n))
    v = initial_state(g, rng.uniform(-1, 1, g.n))
    dt = hj.cfl_dt(g)
    lo, hi = (v.u - u.u).min(), (v.u - u.u).max()
    for _ in range(40):
        u, v = step_explicit(g, u, dt), step_explicit(g, v, dt)
        lo_new, hi_new = (v.u - u.u).min(), (v.u - u.u).max()
        assert lo_new >= lo - 1e-9 and hi_new <= hi + 1e-9
        lo, hi = lo_new, hi_new


def test_bad_inputs():
    g = helpers.grid("smoothA", 0.01)
    with pytest.raises(ConfigError):
        initial_state(g, np.full(g.n, np.inf))
    with pytest.raises(ConfigError):
        next(hj.march(g, np.zeros(g.n), -1.0))
    with pytest.raises(ConfigError):
        next(hj.march(g, np.zeros(g.n), 1.0, "implicit"))  # dt required
    with pytest.raises(ConfigError):
        next(hj.march(g, np.zeros(g.n), 1.0, "magic"))
    with pytest.raises(ConfigError):
        initial_state(g, np.zeros(g.n + 1))
    bad = (
        {"dt": 0.0}, {"dt": -0.1}, {"snapshot_every": 0.0},
        # non-finite times: no overflow in the step count, no nan snapshot count
        {"T": np.inf}, {"T": np.nan}, {"dt": np.inf}, {"dt": np.nan},
        {"snapshot_every": np.inf}, {"snapshot_every": np.nan},
    )
    for kwargs in bad:
        args = {"T": 1.0, "mode": "implicit", "dt": 0.1, **kwargs}
        with pytest.raises(ConfigError, match="positive and finite"):
            next(hj.march(g, np.zeros(g.n), **args))
    with pytest.raises(ConfigError, match="T must be positive and finite, got inf"):
        next(hj.march(g, np.zeros(g.n), np.inf, snapshot_every=0.1))
    # an explicit step above the CFL bound is refused before any state is yielded
    states = hj.march(g, np.zeros(g.n), 1.0, dt=2 * hj.cfl_dt(g))
    with pytest.raises(ConfigError, match="monotonicity bound"):
        next(states)


@pytest.mark.parametrize("mode,dt", [("explicit", None), ("implicit", 0.03)])
def test_substep_is_fixed_across_windows(monkeypatch, mode, dt):
    # the window [0.2, 0.3] spans 0.30000000000000004 - 0.2, one ulp away from
    # the others: re-deriving the step per window would move it by an ulp
    g = helpers.grid("smoothA", 0.01)
    taken = []
    if mode == "explicit":
        # march runs each explicit window as one call of count steps
        original = cauchy._explicit_window

        def record(grid, u, count, step):
            taken.extend([step] * count)
            return original(grid, u, count, step)

        monkeypatch.setattr(cauchy, "_explicit_window", record)
    else:
        original = cauchy.step_implicit_policy

        def record(grid, state, step):
            taken.append(step)
            return original(grid, state, step)

        monkeypatch.setattr(cauchy, "step_implicit_policy", record)
    base = dt if dt is not None else 0.999 * hj.cfl_dt(g)
    per_window = int(np.ceil(0.1 / base - 1e-12))
    meta = {}
    times = [s.t for s in hj.march(g, np.zeros(g.n), 0.55, mode, dt, 0.1, metadata=meta)]
    assert times == [0.0, 0.1, 0.2, 0.30000000000000004, 0.4, 0.5, 0.55]
    full, last = taken[: 5 * per_window], taken[5 * per_window :]
    assert set(full) == {0.1 / per_window}
    # only the shorter final window, 0.55 - 0.5, gets its own step
    assert last == [(0.55 - 0.5) / len(last)] * len(last)
    assert last[0] <= base
    assert meta["steps"] == len(taken)


@pytest.mark.parametrize("name", helpers.PRESETS)
def test_band_factor_equals_solve_banded(name):
    # the 1-D factor is dgttrf/dgttrs: the same pivots and operations as
    # solve_banded's gtsv, so every solve matches bit for bit
    import scipy.linalg

    problem = helpers.problem(name)
    rng = np.random.default_rng(8)
    for h in (0.004, 0.002, 0.001):
        g = hj.build_grid(problem, h)
        anchor = int(np.argmax(g.d))
        policy = rng.integers(0, g.n_controls, g.n)
        rhs = rng.uniform(-1.0, 1.0, (g.n, 2))
        for scale, shift, pin in ((0.01, 1.0, None), (10.0, 1.0, None), (1.0, 0.0, anchor)):
            factor = frozen_factor(g, policy, scale, shift, pin)
            band = frozen_matrix(g, policy, scale, shift, pin)
            want = scipy.linalg.solve_banded((1, 1), band, rhs)
            assert np.array_equal(factor.solve(rhs), want), (h, pin)
            assert np.array_equal(factor.solve(rhs[:, 0]), want[:, 0]), (h, pin)


def test_singular_band_is_refused_when_factored():
    g = hj.build_grid(hj.assemble_problem(helpers.flat_config()), 0.1)
    with pytest.raises(NumericalError, match="singular"):
        frozen_factor(g, np.zeros(g.n, dtype=np.int64), 1.0, 0.0, pin=g.n // 2)
    assert g.factorizations == 0


def test_solvers_refuse_a_grid_that_needs_boundary_data():
    # sigma = 1 leaves the normal diffusivity above h^2 at both ends
    g = hj.build_grid(hj.assemble_problem(helpers.sigma_one_config()), 0.01)
    assert hj.stencil_report(g).exterior_reference_count == 2
    message = r"2 boundary faces .* first at node 0 \(x=\[0\.01\]\)"
    u0 = np.zeros(g.n)
    solvers = (
        lambda: next(hj.march(g, u0, 0.1)),
        lambda: next(hj.march(g, u0, 0.1, "implicit", 0.05)),
        lambda: howard_solve(g, u0, 0.05),
        lambda: hj.solve_ergodic_policy(g),
        lambda: hj.solve_ergodic_rvi(g),
    )
    for solve in solvers:
        with pytest.raises(NumericalError, match=message):
            solve()
    assert g.factorizations == 0


def test_overflowing_implicit_step_is_a_numerical_failure():
    g = hj.build_grid(hj.assemble_problem(helpers.overflowing_config()), 0.01)
    states = hj.march(g, np.zeros(g.n), 30.0, mode="implicit", dt=10.0, snapshot_every=10.0)
    assert next(states).t == 0.0
    with pytest.raises(NumericalError, match="non-finite value at node 0"):
        next(states)


def test_overflowing_explicit_step_is_a_numerical_failure():
    g = hj.build_grid(hj.assemble_problem(helpers.overflowing_config()), 0.1)
    with pytest.raises(NumericalError, match="non-finite value at node 0"):
        for _ in hj.march(g, np.zeros(g.n), 30.0, mode="explicit", snapshot_every=10.0):
            pass


def _stepwise_explicit(g, u0, T, every):
    """The reference of an explicit march: its plan taken one
    step_explicit at a time, checked after every step, with each snapshot
    at its target time."""
    plan = cauchy.plan_march(g, T, "explicit", None, every)
    state = initial_state(g, u0)
    yield state
    for js in range(1, plan.snapshots + 1):
        count, sub = plan.full if js < plan.snapshots else plan.last
        for _ in range(count):
            state = step_explicit(g, state, sub)
            cauchy._check_finite(g, state.u, state.t)
        state.t = min(js * plan.every, T)
        yield state


@pytest.mark.parametrize("config,h,T,every", [
    # a final window of 0.05 after four of 0.1
    (lambda: helpers.problem("twoControlA"), 0.01, 0.45, 0.1),
    (lambda: hj.assemble_problem(helpers.disk_config()), 0.1, 0.3, 0.1),
])
def test_explicit_windows_equal_stepwise_march(config, h, T, every):
    # one tight loop per window takes the same steps as step_explicit
    g = hj.build_grid(config(), h)
    u0 = np.random.default_rng(21).uniform(-1.0, 1.0, g.n)
    meta = {}
    got = list(hj.march(g, u0, T, "explicit", None, every, metadata=meta))
    want = list(_stepwise_explicit(g, u0, T, every))
    assert len(got) == len(want) == int(np.ceil(T / every - 1e-9)) + 1
    for a, b in zip(got, want):
        assert (a.t, a.step_count) == (b.t, b.step_count)
        assert np.array_equal(a.u, b.u)
    assert meta["steps"] == want[-1].step_count


@pytest.mark.parametrize("every", [10.0, 1.0])
def test_overflowing_explicit_window_reports_the_first_bad_step(every):
    # the window is checked once, at its end, and replayed step by step when
    # it ends non-finite: the error names the node, x and t of the first bad
    # step, which falls in the first window (every=10) or the second (every=1)
    g = hj.build_grid(hj.assemble_problem(helpers.overflowing_config()), 0.1)
    errors = []
    for states in (hj.march(g, np.zeros(g.n), 30.0, "explicit", None, every),
                   _stepwise_explicit(g, np.zeros(g.n), 30.0, every)):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="non-finite value at node") as err:
                for _ in states:
                    pass
        errors.append(str(err.value))
    assert errors[0] == errors[1]
    assert ", t=" in errors[0]


def test_overflowing_howard_solve_is_a_numerical_failure():
    # howard_solve checks its own result, not only through march
    g = hj.build_grid(hj.assemble_problem(helpers.overflowing_config()), 0.01)
    with pytest.raises(NumericalError, match="non-finite value at node 0"):
        howard_solve(g, np.zeros(g.n), 10.0)


def test_evolve_metadata():
    g = helpers.grid("smoothA", 0.05)
    meta = {}
    states = list(hj.march(g, np.zeros(g.n), 0.2, "implicit", 0.1, 0.1, metadata=meta))
    assert meta["mode"] == "implicit"
    assert meta["h"] == 0.05
    assert meta["problem"] == helpers.problem("smoothA").fingerprint()
    assert [s.t for s in states] == [0.0, 0.1, 0.2]
    # solver work equals the counts of the same steps taken one by one
    g2 = helpers.grid("twoControlA", 0.01)
    u0 = np.random.default_rng(4).uniform(-1.0, 1.0, g2.n)
    meta = {}
    states = list(hj.march(g2, u0, 0.3, "implicit", 0.1, 0.1, metadata=meta))
    # every window is one step of exactly dt, not of the gap between its times
    state, sweeps = initial_state(g2, u0), []
    for _ in states[1:]:
        state = step_implicit_policy(g2, state, 0.1)
        sweeps.append(state.sweeps)
    assert np.array_equal(state.u, states[-1].u)
    assert max(sweeps) >= 2
    assert meta["steps"] == 3
    assert meta["howard_sweeps"] == sum(sweeps)
    assert meta["max_howard_sweeps"] == max(sweeps)
    explicit = {}
    list(hj.march(g2, u0, 0.01, "explicit", metadata=explicit))
    assert explicit["steps"] == int(np.ceil(0.01 / explicit["dt"] - 1e-12))
    assert "howard_sweeps" not in explicit


def test_cached_factor_equals_a_fresh_grid_per_step():
    problem = hj.assemble_problem(helpers.disk_config())
    g = hj.build_grid(problem, 0.05)
    u0 = np.random.default_rng(5).uniform(-1.0, 1.0, g.n)
    shared = fresh = initial_state(g, u0)
    for _ in range(10):
        shared = step_implicit_policy(g, shared, 0.05)
        fresh = step_implicit_policy(hj.build_grid(problem, 0.05), fresh, 0.05)
        assert np.array_equal(shared.u, fresh.u)
    # one control and one dt: ten steps, one factorization
    assert g.factorizations == 1


def test_cached_factor_is_never_stale():
    # one grid serves calls whose consecutive operators differ in the policy
    # or in dt, by as little as one ulp, exactly as a grid per call does
    problem = hj.assemble_problem(helpers.two_control_disk_config())
    g = hj.build_grid(problem, 0.1)
    u1 = np.random.default_rng(6).uniform(-1.0, 1.0, g.n)
    p0, p1 = (np.argmax(control_values(g, u), axis=0) for u in (np.zeros(g.n), u1))
    assert not np.array_equal(p0, p1)
    ulp = np.nextafter(0.05, 1.0)
    rhs = np.ones(g.n)
    for policy, dt in ((p0, 0.05), (p0, 0.2), (p1, 0.2), (p1, ulp), (p0, ulp), (p0, 0.05)):
        got = frozen_factor(g, policy, dt, 1.0).solve(rhs)
        want = frozen_factor(hj.build_grid(problem, 0.1), policy, dt, 1.0).solve(rhs)
        assert np.array_equal(got, want), (dt, policy is p0)
    # Howard steps alternating two dts, each starting from the policy the
    # last one ended on, with one restart from a field of another policy
    u = np.zeros(g.n)
    for dt, restart in ((0.05, None), (0.2, None), (0.2, u1), (0.05, None), (0.2, None)):
        u = u if restart is None else restart
        got = howard_solve(g, u, dt)
        want = howard_solve(hj.build_grid(problem, 0.1), u, dt)
        assert np.array_equal(got[0], want[0]) and got[1:] == want[1:], dt
        u = got[0]


def test_march_refuses_a_step_count_that_overflows():
    # T / snapshot_every and span / dt overflow to inf: refused, not converted to int
    g = helpers.grid("smoothA", 0.05)
    with pytest.raises(ConfigError, match="snapshot count .* is not finite"):
        next(hj.march(g, np.zeros(g.n), 1e300, snapshot_every=1e-300))
    with pytest.raises(ConfigError, match="step count .* is not finite"):
        next(hj.march(g, np.zeros(g.n), 1.0, "implicit", dt=1e-310))
    plan = cauchy.plan_march(g, 0.55, "implicit", 0.03, 0.1)
    assert (plan.snapshots, plan.full, plan.last[0], plan.dt) == (6, (4, 0.025), 2, 0.03)


def test_march_caps_the_snapshot_and_step_counts():
    # a finite but absurd count is refused before the first state, at the
    # cap and not below it
    g = helpers.grid("smoothA", 0.05)
    snaps, steps = cauchy.MAX_SNAPSHOTS, cauchy.MAX_STEPS
    assert cauchy.plan_march(g, float(snaps), "implicit", 1.0, 1.0).snapshots == snaps
    with pytest.raises(ConfigError, match=f"{snaps + 1} snapshots, above the cap of {snaps}"):
        next(hj.march(g, np.zeros(g.n), float(snaps + 1), "implicit", 1.0, 1.0))
    assert cauchy.plan_march(g, float(steps), "implicit", 1.0).full[0] == steps
    with pytest.raises(ConfigError, match=f"{steps + 1} steps, above the cap of {steps}"):
        next(hj.march(g, np.zeros(g.n), float(steps + 1), "implicit", 1.0))
    # a long explicit run reaches the step cap through the CFL bound
    with pytest.raises(ConfigError, match="steps, above the cap"):
        cauchy.plan_march(g, 1e9 * hj.cfl_dt(g))


def _dense(g, matrix):
    if g.ndim == 2:
        return helpers.scipy_csc(matrix).toarray()
    return np.diag(matrix[1]) + np.diag(matrix[0, 1:], 1) + np.diag(matrix[2, :-1], -1)


@pytest.mark.parametrize("name", [*helpers.PRESETS, "disk"])
def test_frozen_matrix_is_an_m_matrix_with_row_sums_shift(name):
    # off-diagonal entries <= 0 and row sums equal to shift: the matrix is an
    # M-matrix diagonally dominant by rows, which the unpivoted 2-D factor needs
    if name == "disk":
        g = hj.build_grid(hj.assemble_problem(helpers.disk_config()), 0.1)
    else:
        g = helpers.grid(name, 0.05)
    rng = np.random.default_rng(9)
    for scale, shift, pin in ((0.05, 1.0, None), (10.0, 1.0, None), (1.0, 0.0, g.n // 2)):
        policy = rng.integers(0, g.n_controls, g.n)
        m = _dense(g, frozen_matrix(g, policy, scale, shift, pin))
        off = m - np.diag(np.diag(m))
        assert (off <= 0.0).all()
        rows = np.arange(g.n) != pin
        sums = m[rows].sum(axis=1)
        assert (np.abs(sums - shift) <= 1e-13 * np.abs(m[rows]).sum(axis=1)).all()
        if pin is not None:
            assert np.array_equal(m[pin], np.eye(g.n)[pin])


def test_disk_factor_matches_spsolve():
    import scipy.sparse.linalg

    g = hj.build_grid(hj.assemble_problem(helpers.two_control_disk_config()), 0.1)
    rng = np.random.default_rng(10)
    policy = rng.integers(0, g.n_controls, g.n)
    rhs = rng.uniform(-1.0, 1.0, g.n)
    for scale, shift, pin in ((0.05, 1.0, None), (1.0, 0.0, g.n // 2)):
        got = frozen_factor(g, policy, scale, shift, pin).solve(rhs)
        matrix = helpers.scipy_csc(frozen_matrix(g, policy, scale, shift, pin))
        want = scipy.sparse.linalg.spsolve(matrix, rhs)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (scale, shift, pin)


def _disk_grids():
    # the benchmark's disk, the validated two-control disk and, for a
    # pattern with positive coefficients, the two-control disk that fails
    # validation
    return [
        hj.build_grid(hj.assemble_problem(helpers.disk_config()), 0.05),
        hj.build_grid(hj.assemble_problem(helpers.validated_two_control_disk_config()), 0.05),
        hj.build_grid(hj.assemble_problem(helpers.two_control_disk_config()), 0.1),
    ]


def test_csc_arrays_are_scipy_canonical_form():
    # entry for entry the arrays of csc_matrix((v, (r, c))) after
    # sum_duplicates, built from the stencil entries in scattered order:
    # columns and the rows in each ascending, zero coefficients kept; the
    # pattern is the grid's, built once, whatever the policy, scale and pin,
    # and no factorization changes it
    import scipy.sparse

    rng = np.random.default_rng(16)
    for g in _disk_grids():
        rows = np.arange(g.n)
        pattern = g._csc_indices.copy(), g._csc_indptr.copy()
        for scale, shift, pin in ((0.05, 1.0, None), (10.0, 1.0, None), (1.0, 0.0, g.n // 2)):
            policy = rng.integers(0, g.n_controls, g.n)
            dense = _dense(g, frozen_matrix(g, policy, scale, shift, pin))
            has = g._gather != rows
            r = np.concatenate([rows, np.nonzero(has)[1]])
            c = np.concatenate([rows, g._gather[has]])
            perm = rng.permutation(len(r))
            reference = scipy.sparse.csc_matrix((dense[r, c][perm], (r[perm], c[perm])), shape=(g.n, g.n))
            reference.sum_duplicates()
            got = frozen_matrix(g, policy, scale, shift, pin)
            assert got.n == g.n
            assert got.indices.dtype == got.indptr.dtype == np.intc
            assert np.array_equal(got.indptr, reference.indptr)
            assert np.array_equal(got.indices, reference.indices)
            assert np.array_equal(got.data, reference.data)
            assert len(got.data) == len(r)  # every neighbour an entry, none repeated
            assert np.array_equal(got.indices, g._csc_indices)
            assert np.array_equal(got.indptr, g._csc_indptr)
            frozen_factor(g, policy, scale, shift, pin)
            assert np.array_equal(g._csc_indices, pattern[0]) and np.array_equal(g._csc_indptr, pattern[1])


def test_disk_factor_solves_as_splu():
    # gstrf with SUPERLU_OPTIONS is splu with the same settings, bit for bit
    import scipy.sparse.linalg

    rng = np.random.default_rng(17)
    for g in _disk_grids()[:2]:
        rhs = rng.uniform(-1.0, 1.0, (g.n, 2))
        for scale, shift, pin in ((0.05, 1.0, None), (10.0, 1.0, None), (1.0, 0.0, g.n // 2)):
            policy = rng.integers(0, g.n_controls, g.n)
            got = frozen_factor(g, policy, scale, shift, pin)
            public = scipy.sparse.linalg.splu(
                helpers.scipy_csc(frozen_matrix(g, policy, scale, shift, pin)),
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
            assert np.array_equal(got.solve(rhs), public.solve(rhs)), (g.n, scale, pin)
            assert np.array_equal(got.solve(rhs[:, 0]), public.solve(rhs[:, 0])), (g.n, scale, pin)
            assert np.array_equal(got.perm_c, public.perm_c)


def test_missing_compiled_module_is_named():
    import importlib.metadata

    with pytest.raises(ImportError) as err:
        cauchy._load_compiled("scipy.linalg._no_such_module")
    message = str(err.value)
    assert "scipy.linalg._no_such_module" in message
    assert os.path.join("scipy", "linalg") in message
    assert f"scipy {importlib.metadata.version('scipy')}" in message


def test_disk_factor_is_fill_reducing():
    # multiple minimum degree on A + A^T leaves 277,418 entries in L + U on
    # this operator; COLAMD with partial pivoting left 494,616
    g = hj.build_grid(hj.assemble_problem(helpers.disk_config()), 0.02)
    factor = frozen_factor(g, np.zeros(g.n, dtype=np.int64), 0.05, 1.0)
    assert factor.L.nnz + factor.U.nnz <= 300_000


@pytest.mark.parametrize("config,h", [
    (lambda: _preset_config("smoothA", {}), 0.01),
    (helpers.disk_config, 0.05),
])
def test_one_control_step_equals_policy_iteration(config, h):
    # a copy of the one control ties everywhere, so policy iteration
    # freezes control 0 and stops after one sweep: the same solve
    cfg = config()
    twice = dict(cfg, controls=cfg["controls"] * 2)
    one, two = (hj.build_grid(hj.assemble_problem(c), h) for c in (cfg, twice))
    u0 = np.random.default_rng(33).uniform(-1.0, 1.0, one.n)
    for dt in (0.05, 1.0):
        got, want = howard_solve(one, u0, dt), howard_solve(two, u0, dt)
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1] == 1
        assert got[2] is None and want[2] < 1e-12
    meta_one, meta_two = {}, {}
    for got, want in zip(hj.march(one, u0, 0.6, "implicit", 0.05, 0.2, metadata=meta_one),
                         hj.march(two, u0, 0.6, "implicit", 0.05, 0.2, metadata=meta_two)):
        assert np.array_equal(got.u, want.u)
    assert meta_one["howard_sweeps"] == meta_two["howard_sweeps"] == 12


def test_policy_iteration_that_does_not_settle_raises(monkeypatch):
    # both solvers take 3 sweeps here, so a cap of 1 is reached by each
    g = helpers.grid("twoControlA", 0.01)
    state = initial_state(g, np.random.default_rng(32).uniform(-1.0, 1.0, g.n))
    assert step_implicit_policy(g, state, 0.1).sweeps == 3
    monkeypatch.setattr(cauchy, "MAX_HOWARD_SWEEPS", 1)
    with pytest.raises(NumericalError, match=r"^policy iteration did not settle in 1 sweeps, t=0\.1$"):
        step_implicit_policy(g, state, 0.1)
    with pytest.raises(NumericalError, match=r"^policy iteration did not settle in 1 sweeps$"):
        hj.solve_ergodic_policy(helpers.grid("twoControlA", 0.004))


def test_implicit_step_counts_operator_evaluations(monkeypatch):
    calls, original = [], cauchy.control_values

    def counted(grid, u):
        calls.append(1)
        return original(grid, u)

    monkeypatch.setattr(cauchy, "control_values", counted)
    # one control: the solve is the step
    g = helpers.grid("smoothA", 0.01)
    state = initial_state(g, np.zeros(g.n))
    for _ in range(3):
        state = step_implicit_policy(g, state, 0.1)
        assert state.sweeps == 1
    assert calls == []
    # two controls: one evaluation for the starting policy and one per sweep
    g = helpers.grid("twoControlA", 0.01)
    state = initial_state(g, np.random.default_rng(32).uniform(-1.0, 1.0, g.n))
    total = 0
    for _ in range(3):
        state = step_implicit_policy(g, state, 0.1)
        total += state.sweeps + 1
        assert len(calls) == total
    assert total > 6  # some step took more than one sweep
