import numpy as np
import pytest

import helpers
import hjblab as hj
from hjblab.analysis import run_until_flat
from hjblab.errors import ConfigError, NumericalError
from oracles import linear_oracle_c, oracle_exponent


def test_envelope_bound_arithmetic():
    # upper bound at a node with d = 0.05 from rim max 1.0, delta 0.2, rho 0.5
    assert 1.0 + 0.2**0.5 - 0.05**0.5 == pytest.approx(1.2236067977499789, abs=1e-15)


def test_envelope_zero_field_no_violation():
    g = helpers.grid("constantL", 0.01)
    pair = hj.solve_ergodic_rvi(g)
    for rho, delta in ((0.3, 0.1), (0.5, 0.2), (0.9, 0.05)):
        rep = hj.boundary_envelope_check(g, [pair.chi], rho, delta, barrier_M=2.0)
        assert rep.lower_violation == 0.0 and rep.upper_violation == 0.0


def test_envelope_synthetic_violation_value():
    # rim value 1, zeros inside: lower bound = 1 - delta^rho + d^rho
    g = helpers.grid("smoothA", 0.01)
    rho, delta = 0.5, 0.2
    field = np.zeros(g.n)
    rim = np.abs(g.d - delta) <= g.h / 2
    field[rim] = 1.0
    rep = hj.boundary_envelope_check(g, [field], rho, delta, barrier_M=0.5)
    inside = (g.d < delta) & ~rim
    expected = (1.0 - delta**rho + g.d[inside] ** rho).max()
    assert rep.lower_violation == pytest.approx(expected, abs=1e-12)
    assert rep.upper_violation == 0.0
    assert rep.rim_min == 1.0 and rep.rim_max == 1.0


def test_envelope_preconditions():
    g = helpers.grid("smoothA", 0.01)
    chi = helpers.rvi_pair("smoothA", 0.01, dt=0.01).chi
    with pytest.raises(ConfigError):
        hj.boundary_envelope_check(g, [chi], 1.2, 0.1, 1.0)  # rho outside (0, 1 - gamma)
    with pytest.raises(ConfigError):
        hj.boundary_envelope_check(g, [chi], 0.4, 0.3, 1.0)  # delta beyond the collar
    with pytest.raises(ConfigError):
        hj.boundary_envelope_check(g, [chi], 0.4, 0.1, require_certified=True, barrier_M=50.0)
    with pytest.raises(ConfigError, match="M must be finite"):
        hj.boundary_envelope_check(g, [chi], 0.4, 0.1, barrier_M=np.nan)
    with pytest.raises(ConfigError, match="does not match"):
        hj.boundary_envelope_check(g, [chi[1:]], 0.4, 0.1, 1.0)
    with pytest.raises(ConfigError, match="no field"):
        hj.boundary_envelope_check(g, [], 0.4, 0.1, 1.0)
    with pytest.raises(ConfigError, match="no rim nodes"):
        hj.boundary_envelope_check(helpers.grid("smoothA", 0.05), [chi], 0.4, 0.01, 1.0)
    # every refusal comes before the first field is drawn
    for args in ((1.2, 0.1, 1.0), (0.4, 0.3, 1.0), (0.4, 0.1, 50.0), (0.4, 0.1, np.nan)):
        states = hj.march(g, np.zeros(g.n), 2.0, "implicit", 0.05, 0.1)
        with pytest.raises(ConfigError):
            hj.boundary_envelope_check(g, (s.u for s in states), *args, t=2.0,
                                       require_certified=True)
        assert next(states).t == 0.0
    for t in (0.5, np.nan):
        states = hj.march(g, np.zeros(g.n), 0.5, "implicit", 0.05, 0.1)
        with pytest.raises(ConfigError, match="t >= 1"):
            hj.boundary_envelope_check(g, (s.u for s in states), 0.4, 0.1, 1.0, t=t)
        assert next(states).t == 0.0


def test_envelope_evolutive_smooth():
    g = helpers.grid("smoothA", 0.002)
    states = hj.march(g, np.zeros(g.n), 1.0, "implicit", 0.01, 0.05)
    rep = hj.boundary_envelope_check(g, (s.u for s in states), 0.4, 0.1, 1.0, t=1.0)
    assert max(rep.lower_violation, rep.upper_violation) <= 2e-2
    assert rep.checked_at_t == 1.0


def test_envelope_rim_extrema_run_over_every_field():
    # the rim extrema come from all fields, the violations from the last one
    g = helpers.grid("smoothA", 0.01)
    rho, delta = 0.5, 0.2
    rim = np.abs(g.d - delta) <= g.h / 2
    inside = (g.d < delta) & ~rim
    fields = [np.zeros(g.n) for _ in range(3)]
    fields[0][rim] = -1.0    # the lowest rim value, in the first field only
    fields[1][rim] = 2.0     # the highest, in the middle field only
    fields[2][rim] = 0.5
    fields[2][inside] = 5.0  # the last field breaks the upper envelope
    rep = hj.boundary_envelope_check(g, iter(fields), rho, delta, barrier_M=0.5, t=1.0)
    assert rep.rim_min == -1.0 and rep.rim_max == 2.0
    assert rep.checked_at_t == 1.0
    upper = 2.0 + delta**rho - g.d[inside] ** rho
    assert rep.upper_violation == pytest.approx((5.0 - upper).max(), abs=1e-12)
    assert rep.lower_violation == 0.0
    # the same fields in another order check another last field
    rep = hj.boundary_envelope_check(g, fields[::-1], rho, delta, barrier_M=0.5)
    assert (rep.rim_min, rep.rim_max, rep.upper_violation) == (-1.0, 2.0, 0.0)
    assert rep.checked_at_t == "stationary"


def test_holder_synthetic_power():
    g = helpers.grid("smoothA", 1e-3)
    fit = hj.holder_fit(g, -np.sqrt(g.d), "left")
    assert fit.exponent == pytest.approx(0.5, abs=1e-3)
    assert fit.r_squared > 0.999
    assert abs(fit.boundary_limit_value) < 1e-12
    assert not fit.lipschitz_consistent


def test_holder_smooth_is_lipschitz_consistent():
    g = helpers.grid("smoothA", 1e-3)
    pair = helpers.rvi_pair("smoothA", 1e-3)
    fit = hj.holder_fit(g, pair.chi, "left")
    assert fit.lipschitz_consistent
    assert fit.exponent == 1.0
    assert fit.uncapped_slope >= 0.95


def test_holder_degenerate_non_lipschitz():
    g = helpers.grid("degenerateB", 1e-3)
    pair = helpers.rvi_pair("degenerateB", 1e-3)
    fit = hj.holder_fit(g, pair.chi, "left")
    assert 0.4 <= fit.exponent <= 0.7
    assert fit.uncapped_slope < 0.95
    assert fit.r_squared > 0.99
    # independent quadrature oracle agrees on the exponent
    oracle = oracle_exponent(helpers.problem("degenerateB"), pair.c, *fit.fit_range)
    assert abs(fit.uncapped_slope - oracle) < 0.1


def test_holder_flat_field():
    g = helpers.grid("smoothA", 1e-3)
    fit = hj.holder_fit(g, np.zeros(g.n), "left")
    assert fit.flat


def test_holder_needs_enough_nodes():
    g = helpers.grid("smoothA", 0.05)
    with pytest.raises(ConfigError):
        hj.holder_fit(g, -np.sqrt(g.d), "left", fit_range=(0.1, 0.2))


def test_holder_refuses_an_unknown_side_by_name():
    disk = hj.build_grid(hj.assemble_problem(helpers.disk_config()), 0.125)
    for g in (helpers.grid("smoothA", 0.05), disk):
        with pytest.raises(ConfigError, match="unknown side 'top'"):
            hj.holder_fit(g, np.zeros(g.n), side="top")


def test_convergence_constant_cost_identity():
    g = helpers.grid("constantL", 0.01)
    pair = hj.solve_ergodic_rvi(g)
    states = hj.march(g, np.zeros(g.n), 2.0, "implicit", 0.05, 0.25)
    rep = hj.convergence_diagnostics(g, states, pair, 0.05)
    assert abs(rep.K) < 1e-9
    assert max(rep.uniform_error) < 1e-9


def test_convergence_stationary_constant():
    p = hj.assemble_problem({"preset": "constantL", "L": 0.0})
    g = hj.build_grid(p, 0.01)
    pair = hj.ErgodicPair(c=0.0, chi=np.zeros(g.n), method="rvi", residual=0.0, iterations=0)
    states = hj.march(g, np.full(g.n, 4.0), 1.0, "implicit", 0.1, 0.25)
    rep = hj.convergence_diagnostics(g, states, pair, 0.1)
    assert rep.K == pytest.approx(-4.0, abs=1e-12)
    assert max(rep.uniform_error) < 1e-12


def test_convergence_monotone_brackets_enforced():
    g = helpers.grid("smoothA", 0.01)
    pair = helpers.rvi_pair("smoothA", 0.01, dt=0.01)
    second = np.full(g.n, -1.0) - pair.c * 1.0 + pair.chi
    # the second state lowers min w and raises max w: the bracket invariant must trip
    second[0] = 5.0 - pair.c * 1.0 + pair.chi[0]
    states = [hj.CauchyState(0.0, np.zeros(g.n), 0.0, 0.0), hj.CauchyState(1.0, second, 0.0, 0.0)]
    with pytest.raises(NumericalError, match="bracket decreased at t=1.0"):
        hj.convergence_diagnostics(g, states, pair, 1.0)
    with pytest.raises(ConfigError, match="no state"):
        hj.convergence_diagnostics(g, [], pair, 1.0)
    with pytest.raises(ConfigError, match="do not match"):
        hj.convergence_diagnostics(helpers.grid("smoothA", 0.02), states, pair, 1.0)


def test_brackets_are_the_extrema_of_each_state():
    g = helpers.grid("twoControlA", 0.01)
    pair = hj.solve_ergodic_policy(g)
    u0 = np.random.default_rng(3).uniform(-1.0, 1.0, g.n)
    states = list(hj.march(g, u0, 1.0, "implicit", 0.02, 0.02))
    w = [s.u + pair.c * s.t - pair.chi for s in states]
    rep = hj.convergence_diagnostics(g, iter(states), pair, 0.02)
    assert rep.times == [s.t for s in states]
    assert rep.inf_gap == [float(x.min()) for x in w]
    assert rep.sup_gap == [float(x.max()) for x in w]
    K = -0.5 * (w[-1].min() + w[-1].max())
    assert rep.K == K
    assert rep.uniform_error == [float(np.abs(x + K).max()) for x in w]
    # run_until_flat stops at the first step whose gap is below 2 tol times
    # 0.95 and reports exactly what the diagnostics make of the same states
    gaps = [float(x.max()) - float(x.min()) for x in w]
    tol = gaps[4] / 1.94  # gaps[4] lies between 2 tol 0.95 and 2 tol
    stop = next(k for k in range(1, len(gaps)) if gaps[k] < 2 * tol * 0.95)
    assert stop > 4 >= next(k for k in range(1, len(gaps)) if gaps[k] < 2 * tol)
    flat, final = run_until_flat(g, u0, pair, tol=tol, dt=0.02)
    assert final.step_count == stop and np.array_equal(final.u, states[stop].u)
    again = hj.convergence_diagnostics(g, states[: stop + 1], pair, 0.02)
    assert flat == again
    # a start that is flat already still takes one step
    flat, final = run_until_flat(g, pair.chi, pair, tol=tol, dt=0.02)
    assert final.step_count == 1 and flat.times == [0.0, 0.02]


@pytest.mark.parametrize("tol", [0.0, -1e-3, np.nan, np.inf])
def test_run_until_flat_refuses_a_vacuous_tolerance(tol):
    g = helpers.grid("smoothA", 0.05)
    pair = hj.solve_ergodic_policy(g)
    before = g.factorizations
    with pytest.raises(ConfigError, match="tol must be positive and finite"):
        run_until_flat(g, np.zeros(g.n), pair, tol=tol)
    assert g.factorizations == before  # refused before the first step


def test_run_until_flat_smooth():
    g = helpers.grid("smoothA", 0.004)
    pair = helpers.rvi_pair("smoothA", 0.004)
    u0 = np.sin(2 * np.pi * g.x[:, 0])
    rep, final = run_until_flat(g, u0, pair, tol=1e-3, dt=0.02)
    assert rep.uniform_error[-1] < 1e-3
    assert final.t == rep.times[-1] and final.step_count == len(rep.times) - 1
    lows, highs = np.array(rep.inf_gap), np.array(rep.sup_gap)
    assert (np.diff(lows) >= -1e-9).all()
    assert (np.diff(highs) <= 1e-9).all()
    # the estimated shift stays inside the monotone bracket at all times
    assert ((-rep.K >= lows - 1e-12) & (-rep.K <= highs + 1e-12)).all()


def test_oracle_constant_cost():
    p = hj.assemble_problem({"preset": "constantL", "L": 2.0})
    g = hj.build_grid(p, 0.01)
    assert linear_oracle_c(p, g) == pytest.approx(-2.0, abs=1e-12)


def test_oracle_smooth_symmetry():
    p = helpers.problem("smoothA")
    assert linear_oracle_c(p, helpers.grid("smoothA", 0.004)) == pytest.approx(-0.5, abs=1e-4)


def test_oracle_refinement_stable():
    p = helpers.problem("degenerateB")
    a = linear_oracle_c(p, helpers.grid("degenerateB", 0.002))
    b = linear_oracle_c(p, helpers.grid("degenerateB", 0.001))
    assert abs(a - b) < 1e-4


def test_oracle_rejects_multi_control():
    p = helpers.problem("twoControlA")
    with pytest.raises(ConfigError):
        linear_oracle_c(p, helpers.grid("twoControlA", 0.01))


def test_oracle_detects_non_invariant_domain():
    cfg = {
        "domain": {"kind": "interval", "x_lo": 0.0, "x_hi": 1.0},
        "controls": [{"b": ["2*x1-1"], "sigma": [["x1*(1-x1)"]], "l": "x1"}],
        "regularity": {"B": 2.0, "eta": 1.0, "beta": 1.0},
    }
    p = hj.assemble_problem(cfg)  # outward drift: mass runs to the boundary
    with pytest.raises(NumericalError):
        linear_oracle_c(p, hj.build_grid(p, 0.01))
