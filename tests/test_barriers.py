import numpy as np
import pytest

import helpers
import hjblab as hj
from hjblab.barriers import BarrierProfile, CallableProfile, LyapunovProfile, eval_F_radial
from hjblab.errors import ConfigError, NumericalError

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
