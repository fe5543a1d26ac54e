"""Independent oracles that the tests compare the package against.

Nothing here touches the package's discretization:

* derivatives of the distance come from centered finite differences;
* radial test functions with explicit derivatives (:class:`CallableProfile`);
* the stationary corrector of a one-control interval problem from
  quadrature of the explicit first-order ODE for its derivative;
* the ergodic constant of a one-control interval problem from its
  stationary density: the zero-flux conservative form of
  (a mu)'' - (b mu)' = 0 on a finer grid, and c = -integral of l dmu;
* the exact ergodic constant of the benchmark disk from its radial
  stationary density, by quadrature.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad

import hjblab as hj
from hjblab.errors import ConfigError, NumericalError
from hjblab.geometry import distance_value


def fd_gradient(dom, x, step=1e-5):
    x = np.asarray(x, dtype=float)
    g = np.zeros(len(x))
    for k in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[k] += step
        xm[k] -= step
        g[k] = (distance_value(dom, xp) - distance_value(dom, xm)) / (2 * step)
    return g


def fd_hessian(dom, x, step=1e-4):
    x = np.asarray(x, dtype=float)
    n = len(x)
    H = np.zeros((n, n))
    d0 = distance_value(dom, x)
    for i in range(n):
        for j in range(n):
            xpp, xpm, xmp, xmm = (x.copy() for _ in range(4))
            xpp[i] += step; xpp[j] += step
            xpm[i] += step; xpm[j] -= step
            xmp[i] -= step; xmp[j] += step
            xmm[i] -= step; xmm[j] -= step
            if i == j:
                xp, xm = x.copy(), x.copy()
                xp[i] += step
                xm[i] -= step
                H[i, j] = (distance_value(dom, xp) - 2 * d0 + distance_value(dom, xm)) / step**2
            else:
                H[i, j] = (
                    distance_value(dom, xpp) - distance_value(dom, xpm)
                    - distance_value(dom, xmp) + distance_value(dom, xmm)
                ) / (4 * step**2)
    return H


class CallableProfile:
    """Profile of the distance from explicit g, g', g'' callables, for
    :func:`hjblab.barriers.eval_F_radial`."""

    def __init__(self, g, g1, g2):
        self.value, self.d1, self.d2 = g, g1, g2


def corrector_left_profile(problem: hj.ControlProblem, c: float, x_hi: float = 0.2,
                           n: int = 4000):
    """Left-boundary profile of the bounded corrector of a single-control
    interval problem, by stable quadrature.

    With p = chi', the stationary equation gives a p' + b p = -(l + c);
    the bounded branch is p(x) = -e^{-B(x)} * integral_0^x (l+c) e^B / a,
    B' = b/a.  The running integral is kept rescaled by e^{-B} so only
    nonpositive exponents are ever exponentiated.  Returns (x, chi) with
    chi anchored to 0 at x_hi.
    """
    assert len(problem.controls) == 1 and problem.dim == 1
    lo = problem.domain.x_lo
    xs = lo + np.geomspace(1e-9, x_hi - lo, n)

    def a_of(x):
        return float(problem.diffusion([x], 0)[0, 0])

    def b_of(x):
        return float(problem.drift([x], 0)[0])

    a = np.array([a_of(x) for x in xs])
    b = np.array([b_of(x) for x in xs])
    l = np.array([problem.cost([x], 0) for x in xs])
    f = b / a
    dx = np.diff(xs)
    dB = dx * 0.5 * (f[:-1] + f[1:])
    w = (l + c) / a
    S = 0.0
    p = np.zeros_like(xs)
    for i in range(1, len(xs)):
        shrink = np.exp(-dB[i - 1])  # e^{B(x_{i-1}) - B(x_i)} <= 1 near the boundary
        S = S * shrink + 0.5 * dx[i - 1] * (w[i - 1] * shrink + w[i])
        p[i] = -S
    chi = np.concatenate([[0.0], np.cumsum(0.5 * dx * (p[:-1] + p[1:]))])
    chi -= chi[-1]
    return xs - lo, chi


def oracle_exponent(problem: hj.ControlProblem, c: float, lo: float, hi: float) -> float:
    """Log-log slope of the oracle corrector over a distance window."""
    d, chi = corrector_left_profile(problem, c)
    limit = chi[0]
    mask = (d >= lo) & (d <= hi)
    x = np.log(d[mask])
    y = np.log(np.abs(chi[mask] - limit))
    xc = x - x.mean()
    return float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))


def linear_oracle_c(problem: hj.ControlProblem, grid: hj.Grid, refine: int = 4) -> float:
    """Ergodic constant of a single-control interval problem from the
    stationary density.

    Solves the conservative zero-flux form of (a mu)'' - (b mu)' = 0 on a
    grid ``refine`` times finer than ``grid``: with every face flux zero,
    (a mu) at neighboring nodes obeys a two-term recurrence that is
    marched outward from the deepest node; mu is then normalized by the
    trapezoid rule and c = -integral of l dmu.  Independent of the
    Bellman discretization.
    """
    if len(problem.controls) != 1:
        raise ConfigError("the stationary-density oracle needs exactly one control")
    if problem.dim != 1:
        raise ConfigError("the stationary-density oracle is one-dimensional")
    dom = problem.domain
    hf = grid.h / refine
    m = int(round((dom.x_hi - dom.x_lo) / hf)) - 1
    xs = dom.x_lo + hf * np.arange(1, m + 1)

    a = problem.diffusion(xs[:, None], 0)[:, 0, 0]
    b_face = problem.drift((xs[:-1] + hf / 2)[:, None], 0)[:, 0]

    mu = np.zeros(m)
    mid = m // 2
    mu[mid] = 1.0
    for i in range(mid, m - 1):  # march right; zero flux across every face
        num = a[i] + 0.5 * hf * b_face[i]
        den = a[i + 1] - 0.5 * hf * b_face[i]
        if den <= 0.0 or num <= 0.0 or mu[i] == 0.0:
            break  # density is below resolution from here outward
        mu[i + 1] = mu[i] * num / den
    for i in range(mid, 0, -1):  # march left
        num = a[i] - 0.5 * hf * b_face[i - 1]
        den = a[i - 1] + 0.5 * hf * b_face[i - 1]
        if den <= 0.0 or num <= 0.0 or mu[i] == 0.0:
            break
        mu[i - 1] = mu[i] * num / den

    if not np.isfinite(mu).all() or mu.max() <= 0:
        raise NumericalError("stationary density solve failed")
    # mass escaping to the boundary signals a violated invariance condition
    fringe = max(10 * hf, 0.05 * (dom.x_hi - dom.x_lo))
    near = (xs - dom.x_lo < fringe) | (dom.x_hi - xs < fringe)
    total = np.trapezoid(mu, xs)
    if total <= 0 or np.trapezoid(mu * near, xs) > 0.5 * total:
        raise NumericalError("stationary density concentrates at the boundary; "
                             "the domain is not invariant")
    mu /= total
    l_vals = problem.cost(xs[:, None], 0)
    return -float(np.trapezoid(l_vals * mu, xs))


def disk_oracle_c() -> float:
    """Exact ergodic constant of ``helpers.disk_config()``: b = -x,
    sigma = d I and l = x1^2 on the unit disk.  A swirl k (-x2, x1) added
    to the drift is tangent to the circles, so it leaves the radial
    density stationary and c unchanged.

    The zero-flux radial density is p(r) ~ r e^{-1/(1-r)} / (1-r)^3 and
    the angular mean of l is r^2/2, so c = -integral (r^2/2) p dr /
    integral p dr.  Both integrals are taken by ``quad`` in t = 1/(1-r)
    on [1, inf), where the integrand is smooth and decays like e^{-t}.
    In closed form c = 1 - 2 e E1(1).
    """

    def weight(t):  # p(r) = r t^3 e^{-t} at r = 1 - 1/t, times dr/dt = 1/t^2
        return (1 - 1 / t) * t * np.exp(-t)

    mass = quad(weight, 1, np.inf, epsabs=0, epsrel=1e-13)[0]
    cost = quad(lambda t: 0.5 * (1 - 1 / t) ** 2 * weight(t), 1, np.inf, epsabs=0, epsrel=1e-13)[0]
    return -cost / mass
