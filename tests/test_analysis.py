import numpy as np
import pytest

import helpers
import hjblab as hj
from hjblab.analysis import run_until_flat
from hjblab.cauchy import Trajectory
from hjblab.errors import ConfigError, NumericalError
from oracles import oracle_exponent


def test_envelope_bound_arithmetic():
    # upper bound at a node with d = 0.05 from rim max 1.0, delta 0.2, rho 0.5
    assert 1.0 + 0.2**0.5 - 0.05**0.5 == pytest.approx(1.2236067977499789, abs=1e-15)


def test_envelope_zero_field_no_violation():
    g = helpers.grid("constantL", 0.01)
    pair = hj.solve_ergodic_rvi(g)
    for rho, delta in ((0.3, 0.1), (0.5, 0.2), (0.9, 0.05)):
        rep = hj.boundary_envelope_check(g, pair.chi, rho, delta, barrier_M=2.0)
        assert rep.lower_violation == 0.0 and rep.upper_violation == 0.0


def test_envelope_synthetic_violation_value():
    # rim value 1, zeros inside: lower bound = 1 - delta^rho + d^rho
    g = helpers.grid("smoothA", 0.01)
    rho, delta = 0.5, 0.2
    field = np.zeros(g.n)
    rim = np.abs(g.d - delta) <= g.h / 2
    field[rim] = 1.0
    rep = hj.boundary_envelope_check(g, field, rho, delta, barrier_M=0.5)
    inside = (g.d < delta) & ~rim
    expected = (1.0 - delta**rho + g.d[inside] ** rho).max()
    assert rep.lower_violation == pytest.approx(expected, abs=1e-12)
    assert rep.upper_violation == 0.0
    assert rep.rim_min == 1.0 and rep.rim_max == 1.0


def test_envelope_preconditions():
    g = helpers.grid("smoothA", 0.01)
    chi = helpers.rvi_pair("smoothA", 0.01, dt=0.01).chi
    with pytest.raises(ConfigError):
        hj.boundary_envelope_check(g, chi, 1.2, 0.1)  # rho outside (0, 1 - gamma)
    with pytest.raises(ConfigError):
        hj.boundary_envelope_check(g, chi, 0.4, 0.3)  # delta beyond the collar
    with pytest.raises(ConfigError):
        hj.boundary_envelope_check(g, chi, 0.4, 0.1, require_certified=True, barrier_M=50.0)
    with pytest.raises(ConfigError, match="M must be finite"):
        hj.boundary_envelope_check(g, chi, 0.4, 0.1, barrier_M=np.nan)
    traj = hj.evolve(g, np.zeros(g.n), 0.5, mode="implicit", dt=0.05, snapshot_every=0.1)
    with pytest.raises(ConfigError):
        hj.boundary_envelope_check(g, traj.final(), 0.4, 0.1, history=traj, t=0.5)


def test_envelope_evolutive_smooth():
    g = helpers.grid("smoothA", 0.002)
    traj = hj.evolve(g, np.zeros(g.n), 1.0, mode="implicit", dt=0.01, snapshot_every=0.05)
    rep = hj.boundary_envelope_check(g, traj.final(), 0.4, 0.1, history=traj, t=1.0)
    assert rep.violation <= 2e-2
    assert rep.checked_at_t == 1.0


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


def test_convergence_constant_cost_identity():
    g = helpers.grid("constantL", 0.01)
    pair = hj.solve_ergodic_rvi(g)
    traj = hj.evolve(g, np.zeros(g.n), 2.0, mode="implicit", dt=0.05, snapshot_every=0.25)
    rep = hj.convergence_diagnostics(traj, pair, g)
    assert abs(rep.K) < 1e-9
    assert max(rep.uniform_error) < 1e-9


def test_convergence_stationary_constant():
    p = hj.assemble_problem({"preset": "constantL", "L": 0.0})
    g = hj.build_grid(p, 0.01)
    pair = hj.ErgodicPair(c=0.0, chi=np.zeros(g.n), method="rvi", residual=0.0, iterations=0)
    traj = hj.evolve(g, np.full(g.n, 4.0), 1.0, mode="implicit", dt=0.1, snapshot_every=0.25)
    rep = hj.convergence_diagnostics(traj, pair, g)
    assert rep.K == pytest.approx(-4.0, abs=1e-12)
    assert max(rep.uniform_error) < 1e-12


def test_convergence_monotone_brackets_enforced():
    g = helpers.grid("smoothA", 0.01)
    pair = helpers.rvi_pair("smoothA", 0.01, dt=0.01)
    traj = Trajectory(
        times=[0.0, 1.0],
        snapshots=[np.zeros(g.n), np.full(g.n, -1.0) - pair.c * 1.0 + pair.chi],
        metadata={"dt": 1.0},
    )
    # second snapshot forces max w to rise: the bracket invariant must trip
    traj.snapshots[1][0] = 5.0 - pair.c * 1.0 + pair.chi[0]
    with pytest.raises(NumericalError):
        hj.convergence_diagnostics(traj, pair, g)


def test_run_until_flat_smooth():
    g = helpers.grid("smoothA", 0.004)
    pair = helpers.rvi_pair("smoothA", 0.004)
    traj, rep = run_until_flat(g, np.sin(2 * np.pi * g.x[:, 0]), pair, tol=1e-3, dt=0.02)
    assert rep.uniform_error[-1] < 1e-3
    lows, highs = np.array(rep.inf_gap), np.array(rep.sup_gap)
    assert (np.diff(lows) >= -1e-9).all()
    assert (np.diff(highs) <= 1e-9).all()
    # the estimated shift stays inside the monotone bracket at all times
    assert ((-rep.K >= lows - 1e-12) & (-rep.K <= highs + 1e-12)).all()


def test_oracle_constant_cost():
    p = hj.assemble_problem({"preset": "constantL", "L": 2.0})
    g = hj.build_grid(p, 0.01)
    assert hj.linear_oracle_c(p, g) == pytest.approx(-2.0, abs=1e-12)


def test_oracle_smooth_symmetry():
    p = helpers.problem("smoothA")
    assert hj.linear_oracle_c(p, helpers.grid("smoothA", 0.004)) == pytest.approx(-0.5, abs=1e-4)


def test_oracle_refinement_stable():
    p = helpers.problem("degenerateB")
    a = hj.linear_oracle_c(p, helpers.grid("degenerateB", 0.002))
    b = hj.linear_oracle_c(p, helpers.grid("degenerateB", 0.001))
    assert abs(a - b) < 1e-4


def test_oracle_rejects_multi_control():
    p = helpers.problem("twoControlA")
    with pytest.raises(ConfigError):
        hj.linear_oracle_c(p, helpers.grid("twoControlA", 0.01))


def test_oracle_detects_non_invariant_domain():
    cfg = {
        "domain": {"kind": "interval", "x_lo": 0.0, "x_hi": 1.0},
        "controls": [{"b": ["2*x1-1"], "sigma": [["x1*(1-x1)"]], "l": "x1"}],
        "regularity": {"B": 2.0, "eta": 1.0, "beta": 1.0},
    }
    p = hj.assemble_problem(cfg)  # outward drift: mass runs to the boundary
    with pytest.raises(NumericalError):
        hj.linear_oracle_c(p, hj.build_grid(p, 0.01))
