"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 5 is split.  5a checks the confinement width of the Lyapunov
collar.  5b checks the bounded barrier clause: the certified width for
rho=0.5, M=1 on smoothA must be the largest width on which F[d^0.5 - 1]
<= -1 holds pointwise.  That width is 0.124, and no width much larger
can hold: on smoothA d = x1 and b.Dd = 1 - 2d, the diffusion term is
nonnegative because the profile is concave, so F >= -(1-2d)/(2 sqrt(d)),
which exceeds -1 for every d > (2 - sqrt(3))/2 = 0.134.  The test
computes the expected width from the closed form of F.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.optimize import brentq

import helpers
import hjblab as hj
from hjblab.barriers import BarrierProfile, LyapunovProfile, eval_F_radial
from hjblab.cauchy import initial_state, step_explicit, step_implicit_policy
from oracles import CallableProfile, linear_oracle_c

PRESETS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "presets")
COMPARISON_PRESETS = ("smoothA", "degenerateB", "twoControlA")


def _line(num: str, ok: bool, detail: str):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_discrete_comparison_and_translation():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    pairs_per_combo = 34  # 34 * 3 presets * 2 modes = 204 ordered pairs
    worst = 0.0
    for name in COMPARISON_PRESETS:
        g = helpers.grid(name, 0.01)
        dt = hj.cfl_dt(g)
        for mode in ("explicit", "implicit"):
            for _ in range(pairs_per_combo):
                u = rng.uniform(-1, 1, g.n)
                v = u + rng.uniform(0, 1, g.n)
                su, sv = initial_state(g, u), initial_state(g, v)
                steps = 20 if mode == "explicit" else 6
                for _ in range(steps):
                    if mode == "explicit":
                        su, sv = step_explicit(g, su, dt), step_explicit(g, sv, dt)
                    else:
                        su = step_implicit_policy(g, su, 10 * dt)
                        sv = step_implicit_policy(g, sv, 10 * dt)
                    worst = max(worst, float(-(sv.u - su.u).min()))
                    assert (sv.u - su.u).min() >= -1e-9
        # bit-exact translation invariance on exactly translatable fields
        w = helpers.dyadic_field(g.n, seed=hash(name) % 2**32)
        assert np.array_equal(hj.apply_H(g, w), hj.apply_H(g, w + 7.0))
    elapsed = time.perf_counter() - start
    ok = elapsed < 120
    _line("1", ok, f"204 ordered pairs kept order (worst dip {worst:.2e}), "
                   f"translation bit-exact, {elapsed:.1f}s")
    assert ok


def test_criterion_2_a_priori_bound():
    start = time.perf_counter()
    worst_excess = 0.0
    for name in helpers.PRESETS:
        g = helpers.grid(name, 1e-3)
        u0 = np.sin(2 * np.pi * g.x[:, 0])
        u0_sup, l_sup = np.abs(u0).max(), g.l_sup()
        for state in hj.march(g, u0, 5.0, "implicit", 0.01, 0.02):
            bound = u0_sup + l_sup * state.t
            excess = (np.abs(state.u).max() - bound) / max(bound, 1.0)
            worst_excess = max(worst_excess, excess)
            assert excess <= 1e-9
    elapsed = time.perf_counter() - start
    ok = elapsed < 120
    _line("2", ok, f"sup|u| <= sup|u0| + sup|l| t on all presets to T=5 at h=1e-3 "
                   f"(worst relative excess {worst_excess:.2e}), {elapsed:.1f}s")
    assert ok


def test_criterion_3_trivial_ergodic_pair():
    g = helpers.grid("constantL", 1e-3)
    rvi = hj.solve_ergodic_rvi(g, 1e-8, 0.05)
    policy = hj.solve_ergodic_policy(g, 1e-8)
    for pair in (rvi, policy):
        assert abs(pair.c + 2.0) < 1e-6, pair.method
        assert np.abs(pair.chi).max() <= 1e-6, pair.method
    _line("3", True, f"constant cost: c_rvi={rvi.c + 2:.2e}+(-2), c_policy={policy.c + 2:.2e}+(-2), "
                     f"sup|chi| <= {max(np.abs(rvi.chi).max(), np.abs(policy.chi).max()):.1e}")


def test_criterion_4_oracle_agreement():
    start = time.perf_counter()
    details = []
    smooth_rvi = helpers.rvi_pair("smoothA", 1e-3)
    assert abs(smooth_rvi.c + 0.5) < 1e-3  # symmetry-forced value
    for name in ("smoothA", "degenerateB"):
        g = helpers.grid(name, 1e-3)
        oracle = linear_oracle_c(helpers.problem(name), g)
        rvi = helpers.rvi_pair(name, 1e-3)
        policy = hj.solve_ergodic_policy(g)
        assert abs(rvi.c - oracle) < 1e-3, name
        assert abs(policy.c - oracle) < 1e-3, name
        details.append(f"{name}: rvi-oracle {abs(rvi.c - oracle):.1e}, "
                       f"policy-oracle {abs(policy.c - oracle):.1e}")
    elapsed = time.perf_counter() - start
    ok = elapsed < 300
    _line("4", ok, "; ".join(details) + f", {elapsed:.1f}s")
    assert ok


def test_criterion_5a_confinement_width():
    cert = hj.find_lyapunov_delta(helpers.problem("smoothA"), 1.0, 10.0)
    ok = abs(cert.delta - 0.19) <= 0.02 and cert.margin <= 0.0
    _line("5a", ok, f"confinement width delta={cert.delta:.4f} (target 0.19 +- 0.02), "
                    f"margin {cert.margin:.2e}")
    assert ok


def test_criterion_5b_barrier_width_spec_value():
    rho, M, step = 0.5, 1.0, 1e-3

    # smoothA on either half of the collar: d'' = 0, b.Dd = 1 - 2d and
    # a = sigma^2 = d^2 (1-d)^2, so with g = d^rho - 1
    # F = -(b.Dd) g' - a g'' = -rho d^(rho-1) (1-2d) + rho (1-rho) d^rho (1-d)^2
    def closed_form(d):
        return -rho * d ** (rho - 1) * (1 - 2 * d) + rho * (1 - rho) * d**rho * (1 - d) ** 2

    root = brentq(lambda d: closed_form(d) + M, 1e-9, 0.5, xtol=1e-12)
    cert = hj.find_barrier_delta(helpers.problem("smoothA"), rho, M, step)
    ok = (root - step < cert.delta <= root and cert.margin <= 0.0
          and closed_form(cert.delta + step) > -M)
    _line("5b", ok, f"bounded barrier width delta={cert.delta:.4f}, margin {cert.margin:.2e}; "
                    f"F = -rho d^(rho-1)(1-2d) + rho(1-rho) d^rho (1-d)^2 = -M at d={root:.7f}, "
                    f"and F({cert.delta + step:.4f}) = {closed_form(cert.delta + step):.4f} > -M")
    assert ok


def test_criterion_5c_ordering_inequalities():
    lam, rho = 1.0, 0.5
    pos_l = CallableProfile(lambda d: d**-lam, lambda d: -lam * d ** (-lam - 1),
                            lambda d: lam * (lam + 1) * d ** (-lam - 2))
    pos_b = CallableProfile(lambda d: 1 - d**rho, lambda d: -rho * d ** (rho - 1),
                            lambda d: rho * (1 - rho) * d ** (rho - 2))
    smooth = helpers.problem("smoothA")
    for d in np.geomspace(1e-7, 0.2499, 200):
        assert -eval_F_radial(smooth, pos_l, [d]) <= eval_F_radial(smooth, LyapunovProfile(lam), [d]) + 1e-12
        assert -eval_F_radial(smooth, pos_b, [d]) <= eval_F_radial(smooth, BarrierProfile(rho), [d]) + 1e-12
    _line("5c", True, "ordering inequalities hold at 200 geometric collar samples")


def test_criterion_6_stencil_closure():
    for name in helpers.PRESETS:
        assert hj.validate_assumptions(helpers.problem(name)).passed, name
        rep = hj.stencil_report(helpers.grid(name, 0.01))
        assert rep.exterior_reference_count == 0, name
    bad = hj.assemble_problem(helpers.sigma_one_config())
    bad_report = hj.validate_assumptions(bad)
    assert not bad_report.passed
    assert bad_report.first_failure().name == "boundary_degeneracy"
    assert hj.stencil_report(hj.build_grid(bad, 0.01)).exterior_reference_count > 0
    _line("6", True, "zero exterior references on all validated presets; "
                     "sigma=1 fails validation at the degeneracy check")


ENVELOPE_PARAMS = {"smoothA": (0.4, 0.1), "degenerateB": (0.45, 0.05)}
VIOLATION_FLOOR = 1e-9


def _envelope_violations(name: str, h: float) -> tuple[float, float]:
    g = helpers.grid(name, h)
    pair = helpers.rvi_pair(name, h)
    rho, delta = ENVELOPE_PARAMS[name]
    chi_rep = hj.boundary_envelope_check(
        g, [pair.chi], rho, delta, barrier_M=2 * abs(pair.c) + g.l_sup()
    )
    states = hj.march(g, np.zeros(g.n), 1.0, "implicit", 0.01, 0.02)
    u_rep = hj.boundary_envelope_check(g, (s.u for s in states), rho, delta, g.l_sup(), t=1.0)
    return (max(chi_rep.lower_violation, chi_rep.upper_violation),
            max(u_rep.lower_violation, u_rep.upper_violation))


def test_criterion_7_boundary_envelopes():
    details = []
    for name in ("smoothA", "degenerateB"):
        coarse = _envelope_violations(name, 1e-3)
        fine = _envelope_violations(name, 5e-4)
        for which, vc, vf in (("chi", coarse[0], fine[0]), ("u(.,1)", coarse[1], fine[1])):
            assert vc <= 2e-2, (name, which, vc)
            assert vf <= 0.7 * vc or vc <= VIOLATION_FLOOR, (name, which, vc, vf)
            details.append(f"{name}/{which}: {vc:.1e} -> {vf:.1e}")
    _line("7", True, "; ".join(details))


def test_criterion_8_holder_exponents():
    gd = helpers.grid("degenerateB", 1e-3)
    fit_d = hj.holder_fit(gd, helpers.rvi_pair("degenerateB", 1e-3).chi, "left")
    assert 0.4 <= fit_d.exponent <= 0.7
    assert fit_d.uncapped_slope < 0.95
    gs = helpers.grid("smoothA", 1e-3)
    fit_s = hj.holder_fit(gs, helpers.rvi_pair("smoothA", 1e-3).chi, "left")
    assert fit_s.lipschitz_consistent
    fit_syn = hj.holder_fit(gd, -np.sqrt(gd.d), "left")
    assert abs(fit_syn.exponent - 0.5) <= 1e-3
    _line("8", True, f"degenerate exponent {fit_d.exponent:.3f} (non-Lipschitz), smooth "
                     f"slope {fit_s.uncapped_slope:.3f} (Lipschitz-consistent), synthetic "
                     f"{fit_syn.exponent:.4f}")


def test_criterion_9_long_time_convergence():
    start = time.perf_counter()
    g = helpers.grid("smoothA", 1e-3)
    pair = helpers.rvi_pair("smoothA", 1e-3)
    rng = np.random.default_rng(99)
    data = {
        "zero": np.zeros(g.n),
        "sin": np.sin(2 * np.pi * g.x[:, 0]),
        "random": rng.uniform(-1, 1, g.n),
    }
    details = []
    for tag, u0 in data.items():
        rep, final = hj.run_until_flat(g, u0, pair, tol=1e-3, dt=0.02)
        lows, highs = np.array(rep.inf_gap), np.array(rep.sup_gap)
        assert (np.diff(lows) >= -1e-9).all(), tag
        assert (np.diff(highs) <= 1e-9).all(), tag
        assert rep.uniform_error[-1] < 1e-3, tag
        assert ((-rep.K >= lows - 1e-12) & (-rep.K <= highs + 1e-12)).all(), tag
        details.append(f"{tag}: T={final.t:.1f}, err={rep.uniform_error[-1]:.1e}")
    elapsed = time.perf_counter() - start
    ok = elapsed < 600
    _line("9", ok, "; ".join(details) + f", {elapsed:.1f}s")
    assert ok


def _run_cli(args, threads):
    env = dict(os.environ, HJB_THREADS=threads)
    return subprocess.run([sys.executable, "-m", "hjblab", *args],
                          capture_output=True, text=True, env=env)


def _collect(root):
    blobs = {}
    for dirpath, _, files in os.walk(root):
        for f in sorted(files):
            p = os.path.join(dirpath, f)
            with open(p, "rb") as handle:
                blobs[os.path.relpath(p, root)] = handle.read()
    return blobs


def test_criterion_10_cli_determinism(tmp_path):
    preset = os.path.join(PRESETS_DIR, "constantL.json")
    smooth = os.path.join(PRESETS_DIR, "smoothA.json")
    commands = {
        "ergodic": ["ergodic", preset, "--method", "rvi", "--h", "0.01"],
        "solve": ["solve", smooth, "--h", "0.02", "--T", "0.1", "--mode", "explicit",
                  "--snap", "0.05", "--u0", "sin(6.283185307179586*x1)"],
        "validate": ["validate", smooth],
    }
    for tag, args in commands.items():
        outputs = []
        for threads in ("1", "4"):
            for attempt in ("a", "b"):
                out = tmp_path / f"{tag}-{threads}{attempt}"
                res = _run_cli(args + ["--out", str(out)], threads)
                assert res.returncode == 0, (tag, res.stderr)
                outputs.append(_collect(out))
        assert all(o == outputs[0] for o in outputs[1:]), tag
    _line("10", True, "byte-identical outputs for ergodic/solve/validate under "
                      "HJB_THREADS in {1, 4}, two runs each")
