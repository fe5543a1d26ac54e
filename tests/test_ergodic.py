import json
import time

import numpy as np
import pytest

import helpers
import hjblab as hj
from hjblab import ergodic
from hjblab.errors import ConfigError, NumericalError
from hjblab.grid import apply_H
from hjblab.iotools import dump_json
from oracles import disk_oracle_c


DISK = {
    "domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0},
    "controls": [{"b": ["-x1", "-x2"], "sigma": [["d", "0"], ["0", "d"]], "l": "x1^2"}],
    "regularity": {"B": 2.0, "eta": 1.0, "beta": 1.0},
}


def _disk_grid():
    return hj.build_grid(hj.assemble_problem(DISK), 0.05)


def _interior_residual(g, pair):
    return np.abs(apply_H(g, pair.chi) - pair.c)[g.d >= 10 * g.h].max()


@pytest.mark.parametrize("name", ["smoothA", "degenerateB", "twoControlA", "constantL", "disk"])
def test_policy_matches_rvi(name):
    if name == "disk":
        g = _disk_grid()
        rvi = hj.solve_ergodic_rvi(g, 1e-9, 0.05)
    else:
        g = helpers.grid(name, 0.004)
        rvi = helpers.rvi_pair(name, 0.004)
    pair = hj.solve_ergodic_policy(g)
    assert pair.method == "policy"
    assert abs(pair.c - rvi.c) <= 1e-9
    assert np.abs(pair.chi - rvi.chi).max() <= 1e-8
    assert pair.residual == _interior_residual(g, pair) <= 1e-10
    assert pair.chi.max() == 0.0


@pytest.mark.parametrize("name, h, iterations", [
    ("twoControlA", 0.004, 3),
    ("disk", 0.1, 3),
    ("disk", 0.05, 3),
    ("disk", 0.025, 4),
])
def test_policy_iterates_on_two_controls(name, h, iterations):
    # the exact counts pin the stop rule: a stationary policy, and nothing else
    if name == "disk":
        g = hj.build_grid(hj.assemble_problem(helpers.validated_two_control_disk_config()), h)
    else:
        g = helpers.grid(name, h)
    assert hj.solve_ergodic_policy(g).iterations == iterations


def test_disk_oracle_matches_the_closed_form():
    # c = -(1/2) integral_0^inf u^3 e^{-u} / (1+u)^2 du = 1 - 2 e E1(1)
    from scipy.special import exp1

    assert disk_oracle_c() == pytest.approx(1 - 2 * np.e * exp1(1.0), rel=0, abs=1e-12)


@pytest.mark.parametrize("config", [helpers.disk_config, helpers.swirl_disk_config])
def test_policy_c_is_first_order_on_the_disk(config):
    # errors against the exact c, measured: -3.31e-3, -1.69e-3, -8.39e-4 on
    # the disk and -1.10e-2, -5.57e-3, -2.75e-3 with the swirl
    p = hj.assemble_problem(config())
    assert hj.validate_assumptions(p).passed
    exact = disk_oracle_c()
    _assert_first_order([hj.solve_ergodic_policy(hj.build_grid(p, h)).c - exact for h in (0.05, 0.025, 0.0125)])


def _assert_first_order(errors):
    """Each halving of h halves the error: observed orders in [0.9, 1.1]."""
    orders = np.log2(np.divide(errors[:-1], errors[1:]))
    assert ((orders >= 0.9) & (orders <= 1.1)).all(), (errors, orders)


def test_policy_c_is_first_order_on_a_skewed_interval():
    # errors against the exact c = -1/3, measured: -5.41e-4, -2.67e-4,
    # -1.33e-4 and -6.61e-5 (smoothA's and degenerateB's c are -1/2 at every
    # h, by symmetry, so they show no discretization error)
    p = hj.assemble_problem(helpers.skewed_interval_config())
    assert hj.validate_assumptions(p).passed
    _assert_first_order([hj.solve_ergodic_policy(hj.build_grid(p, h)).c + 1 / 3
                         for h in (0.02, 0.01, 0.005, 0.0025)])


def test_policy_c_is_first_order_on_two_controls():
    # no exact c for twoControlA: its successive differences, measured
    # 4.28e-5, 2.19e-5 and 1.07e-5, halve with h
    cs = [hj.solve_ergodic_policy(helpers.grid("twoControlA", h)).c for h in (0.008, 0.004, 0.002, 0.001)]
    _assert_first_order(np.diff(cs))


def test_policy_singular_operator_raises():
    flat = hj.assemble_problem(helpers.flat_config())
    with pytest.raises(NumericalError, match="singular"):
        hj.solve_ergodic_policy(hj.build_grid(flat, 0.1))


def test_policy_reducible_disk_operator_raises():
    # pure drift along x1: the nodes off the anchor's row never reach it, yet
    # the operator has nonzero off-diagonals, so the unpivoted 2-D factor
    # must still find the zero pivot
    cfg = dict(DISK, controls=[{"b": ["x1", "0"], "sigma": [["0", "0"], ["0", "0"]], "l": "x1^2"}])
    g = hj.build_grid(hj.assemble_problem(cfg), 0.1)
    assert (g._coef != 0.0).any()
    with pytest.raises(NumericalError, match="singular .* never reaches the anchor"):
        hj.solve_ergodic_policy(g)


def test_policy_residual_above_tolerance_raises():
    g = helpers.grid("smoothA", 0.004)
    with pytest.raises(NumericalError, match="residual"):
        hj.solve_ergodic_policy(g, 1e-16)


def test_constant_cost_rvi():
    pair = hj.solve_ergodic_rvi(helpers.grid("constantL", 0.01))
    assert pair.c == pytest.approx(-2.0, abs=1e-10)
    assert np.abs(pair.chi).max() <= 1e-12
    assert pair.residual <= 1e-10
    assert pair.method == "rvi"


def test_normalize():
    assert np.array_equal(hj.normalize_chi(np.full(5, 4.0)), np.zeros(5))
    already = np.array([-1.0, -0.5, 0.0])
    out = hj.normalize_chi(already)
    assert out is already  # bit-exact: untouched when the max is already zero
    g = helpers.grid("smoothA", 0.05)
    shifted = hj.normalize_chi(-np.sqrt(g.d))
    assert shifted.max() == 0.0


def test_residual_contract():
    g = helpers.grid("degenerateB", 0.004)
    pair = helpers.rvi_pair("degenerateB", 0.004)
    interior = g.d >= 10 * g.h
    res = np.abs(apply_H(g, pair.chi) - pair.c)
    assert res[interior].max() <= 1e-9
    assert pair.boundary_residual >= 0.0


def test_chi_normalization_invariant():
    for name in ("smoothA", "degenerateB", "twoControlA"):
        pair = helpers.rvi_pair(name, 0.004)
        assert pair.chi.max() == 0.0


def test_control_set_monotonicity():
    # enlarging the control list can only raise the ergodic constant
    single = helpers.rvi_pair("smoothA", 0.004)
    both = helpers.rvi_pair("twoControlA", 0.004)
    assert both.c >= single.c - 1e-9


def test_chi_sup_stable_under_refinement():
    a = np.abs(helpers.rvi_pair("smoothA", 0.004).chi).max()
    b = np.abs(helpers.rvi_pair("smoothA", 0.002).chi).max()
    assert abs(a - b) / b < 0.05


@pytest.mark.parametrize("name", [*helpers.PRESETS, "disk"])
@pytest.mark.parametrize("tol", [1e-8, 1e-9])
def test_rvi_bracket_bounds_residual_and_c(name, tol):
    # the midpoint of a bracket narrower than tol is within tol/2 of c, and
    # H[u_k] = -delta_k puts the residual of the last field within tol/2
    g = _disk_grid() if name == "disk" else helpers.grid(name, 0.004)
    rvi = hj.solve_ergodic_rvi(g, tol)
    policy = hj.solve_ergodic_policy(g, tol)
    assert rvi.residual <= tol / 2
    assert rvi.boundary_residual <= tol / 2
    assert abs(rvi.c - policy.c) <= tol / 2


def test_rvi_stalled_bracket_raises():
    # the bracket bottoms out at about 1e-14 in window 19; a tolerance below
    # every width the run reaches ends only by the stall rule
    g = helpers.grid("smoothA", 0.01)
    start = time.perf_counter()
    with pytest.raises(NumericalError, match=r"stopped narrowing at width \d\.\d{3}e-14 in window"):
        hj.solve_ergodic_rvi(g, 1e-15)
    assert time.perf_counter() - start < 1.0


def test_rvi_window_cap_raises(monkeypatch):
    monkeypatch.setattr(ergodic, "MAX_WINDOWS", 2)
    with pytest.raises(NumericalError, match="wide after 2 windows"):
        hj.solve_ergodic_rvi(helpers.grid("smoothA", 0.01))


def test_rvi_without_a_unique_constant_raises():
    # no drift and no diffusion: every node keeps its own rate -l, so the
    # bracket never narrows
    g = hj.build_grid(hj.assemble_problem(helpers.flat_config()), 0.1)
    with pytest.raises(NumericalError, match="stopped narrowing at width 8.000e-01 in window"):
        hj.solve_ergodic_rvi(g)


def test_params_validation():
    # each bad tolerance is refused before the solver factors anything
    for solve in (hj.solve_ergodic_policy, hj.solve_ergodic_rvi):
        for tolerance in (-1.0, 0.0, np.nan, np.inf):
            g = hj.build_grid(helpers.problem("smoothA"), 0.05)
            with pytest.raises(ConfigError, match=f"tolerance must be positive and finite, got {tolerance}"):
                solve(g, tolerance)
            assert g.factorizations == 0


def test_pair_serializes():
    blob = json.loads(dump_json(helpers.rvi_pair("smoothA", 0.004)))
    assert set(blob) >= {"c", "method", "residual", "iterations", "chi_sup"}
