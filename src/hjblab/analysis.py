"""Quantitative checks on computed solutions.

* boundary envelopes: inside a collar of width delta, a solution is
  pinched between the extrema of its values on the inner rim shifted by
  +-(delta^rho - d^rho); violations are measured node-wise;
* Hoelder fits: the boundary limit of the corrector is estimated by
  Richardson extrapolation from the deepest nodes, then the exponent is
  the log-log slope of |chi - limit| against d;
* long-time convergence: for w = u + c t - chi, the running extrema
  m_low(t) = min w and m_high(t) = max w are monotone brackets whose
  common limit -K certifies uniform convergence of u + c t - chi to -K.

The evolutive envelope and the long-time brackets take the states of a
:func:`~hjblab.cauchy.march` and reduce each one as it is drawn, to the
running rim extrema and to (t, min w, max w): no evolution is held in
memory.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from .barriers import find_barrier_delta
from .cauchy import CauchyState, march, plan_march
from .ergodic import ErgodicPair
from .errors import ConfigError, NumericalError
from .grid import Grid, GridField
from .problem import degeneracy_certificate

MIN_FIT_NODES = 10  # the fewest nodes a Hoelder fit range may hold

MONOTONE_TOL_PER_STEP = 1e-9


@dataclass
class EnvelopeReport:
    rho: float
    delta: float
    lower_violation: float
    upper_violation: float
    checked_at_t: float | str
    rim_min: float
    rim_max: float
    n_nodes: int
    certified_delta: float | None = None
    certified: bool | None = None


def boundary_envelope_check(
    grid: Grid,
    fields: Iterable[GridField],
    rho: float,
    delta: float,
    barrier_M: float,
    t: float | None = None,
    require_certified: bool = False,
) -> EnvelopeReport:
    """Check the boundary envelope of the last of ``fields`` inside the
    collar of width delta.

    The rim consists of the nodes within h/2 of d = delta, and its
    extrema run over every field as it is drawn, so an evolution streams
    through: the stationary check passes ``[chi]``, the evolutive check
    at time ``t`` (which must be >= 1) the states of a
    :func:`~hjblab.cauchy.march` to ``t``.  Violations of the last field
    are max(0, bound - value) and max(0, value - bound) over the collar
    nodes.  The certified barrier width for the margin ``barrier_M`` is
    computed and reported; with ``require_certified`` it is enforced.
    Every refusal (rho, delta, no rim nodes, t < 1, an uncertified width)
    comes before the first field is drawn.
    """
    cert = degeneracy_certificate(grid.problem)
    if not 0 < rho < 1 - cert.gamma:
        raise ConfigError(f"rho={rho} outside the certified range (0, {1 - cert.gamma})")
    if not 0 < delta < geo.collar_width(grid.domain):
        raise ConfigError(f"delta={delta} outside the collar (0, {geo.collar_width(grid.domain)})")
    rim = np.abs(grid.d - delta) <= grid.h / 2
    if not rim.any():
        raise ConfigError(f"no rim nodes near d={delta} on this grid (h={grid.h})")
    if t is not None and not t >= 1.0:
        raise ConfigError("the evolutive envelope requires t >= 1")

    try:
        certified_delta = find_barrier_delta(grid.problem, rho, barrier_M, certificate=cert).delta
    except NumericalError:
        certified_delta = None
    certified = certified_delta is not None and delta <= certified_delta
    if require_certified and not certified:
        raise ConfigError(
            f"delta={delta} is not below the certified barrier width "
            f"({certified_delta}) for margin M={barrier_M}"
        )

    rim_min, rim_max, last = np.inf, -np.inf, None
    for values in fields:
        last = np.asarray(values, dtype=float)
        if last.shape != (grid.n,):
            raise ConfigError("field does not match the grid")
        rim_min = np.minimum(rim_min, last[rim].min())
        rim_max = np.maximum(rim_max, last[rim].max())
    if last is None:
        raise ConfigError("no field to check")

    collar = grid.d < delta
    dpow = grid.d[collar] ** rho
    lower = rim_min - delta**rho + dpow
    upper = rim_max + delta**rho - dpow
    vals = last[collar]
    lower_violation = float(np.maximum(lower - vals, 0.0).max(initial=0.0))
    upper_violation = float(np.maximum(vals - upper, 0.0).max(initial=0.0))
    return EnvelopeReport(
        rho=rho,
        delta=delta,
        lower_violation=lower_violation,
        upper_violation=upper_violation,
        checked_at_t="stationary" if t is None else float(t),
        rim_min=float(rim_min),
        rim_max=float(rim_max),
        n_nodes=int(collar.sum()),
        certified_delta=certified_delta,
        certified=certified,
    )


@dataclass
class HolderFit:
    side: str
    exponent: float            # capped at 1 for reporting
    uncapped_slope: float
    fit_range: tuple[float, float]
    r_squared: float
    boundary_limit_value: float
    lipschitz_consistent: bool
    flat: bool = False
    n_samples: int = 0


def check_holder(
    grid: Grid, side: str = "left", fit_range: tuple[float, float] | None = None
) -> tuple[np.ndarray, tuple[float, float]]:
    """Refuse the arguments of :func:`holder_fit` as it would, before the
    corrector it fits is computed, and return the side's nodes by
    increasing d and the fit range.  The side must exist on the grid's
    domain, the range (default ``(min(10 h, D/4), D)`` with
    D = min(0.05, 0.8 x the collar width)) must stay inside the collar,
    and it must hold at least ``MIN_FIT_NODES`` of the side's nodes."""
    if side == "radial":
        nodes = np.argsort(grid.d)
    elif side not in ("left", "right"):
        raise ConfigError(f"unknown side {side!r}")
    elif grid.ndim != 1:
        raise ConfigError("left/right sides exist only on interval domains")
    else:
        mid = 0.5 * (grid.domain.x_lo + grid.domain.x_hi)
        nodes = np.flatnonzero(grid.x[:, 0] < mid if side == "left" else grid.x[:, 0] > mid)
        nodes = nodes[np.argsort(grid.d[nodes])]
    if fit_range is None:
        hi_default = min(0.05, 0.8 * geo.collar_width(grid.domain))
        fit_range = (min(10 * grid.h, hi_default / 4), hi_default)
    lo, hi = fit_range
    if hi > geo.collar_width(grid.domain):
        raise ConfigError("fit range exceeds the collar")
    d = grid.d[nodes]
    count = int(((d >= lo) & (d <= hi)).sum())
    if count < MIN_FIT_NODES:
        raise ConfigError(
            f"fit range {fit_range} holds {count} nodes at h={grid.h}, fewer than the "
            f"{MIN_FIT_NODES} a fit needs: use a wider fit range or a finer h"
        )
    return nodes, fit_range


def holder_fit(
    grid: Grid,
    chi: GridField,
    side: str = "left",
    fit_range: tuple[float, float] | None = None,
) -> HolderFit:
    """Boundary regularity exponent of ``chi`` on one side.

    The boundary limit is Richardson-extrapolated from the deepest
    samples that sit outside the scheme's boundary layer (the layer
    d < 10 h is excluded from residual norms for the same reason: the
    discretization loses consistency there); the exponent is then the
    least-squares slope of log|chi - limit| against log d over the fit
    range, which :func:`check_holder` refuses first unless it holds at
    least ``MIN_FIT_NODES`` nodes.  Slopes of 0.95 or more report as
    exponent 1 with the Lipschitz-consistent flag.
    """
    nodes, fit_range = check_holder(grid, side, fit_range)
    lo, hi = fit_range
    d, v = grid.d[nodes], np.asarray(chi, dtype=float)[nodes]

    # Richardson limit from the samples nearest base, 2 base, 4 base
    base = min(10 * grid.h, float(d[-1]) / 5)
    i1 = int(np.argmin(np.abs(d - base)))
    d1 = d[i1]
    i2 = int(np.argmin(np.abs(d - 2 * d1)))
    i4 = int(np.argmin(np.abs(d - 4 * d1)))
    g1, g2 = v[i2] - v[i1], v[i4] - v[i2]
    if abs(g1) < 1e-14 and abs(g2) < 1e-14:
        return HolderFit(side, 0.0, 0.0, fit_range, 0.0, float(v[i1]), False, flat=True)
    ratio = g2 / g1 if g1 != 0 else np.inf
    if ratio <= 0 or not np.isfinite(ratio):
        limit = float(v[i1])  # non-power-law start; fall back to the base value
    else:
        s = np.log2(ratio)
        limit = float(v[i1] - g1 / (2**s - 1)) if abs(2**s - 1) > 1e-12 else float(v[i1])

    mask = (d >= lo) & (d <= hi)
    resid = np.abs(v - limit)
    usable = mask & (resid > 1e-12)
    if int(usable.sum()) < max(3, int(0.5 * mask.sum())):
        return HolderFit(side, 0.0, 0.0, fit_range, 0.0, limit, False, flat=True,
                         n_samples=int(mask.sum()))
    x = np.log(d[usable])
    y = np.log(resid[usable])
    xc = x - x.mean()
    slope = float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))
    yhat = y.mean() + slope * xc
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    lipschitz = slope >= 0.95
    return HolderFit(
        side=side,
        exponent=min(slope, 1.0),
        uncapped_slope=slope,
        fit_range=fit_range,
        r_squared=r2,
        boundary_limit_value=limit,
        lipschitz_consistent=lipschitz,
        n_samples=int(usable.sum()),
    )


@dataclass
class ConvergenceReport:
    times: list[float]
    inf_gap: list[float]       # m_low(t) = min over nodes of u + c t - chi
    sup_gap: list[float]       # m_high(t)
    K: float
    uniform_error: list[float]
    metadata: dict = field(default_factory=dict)


def _brackets(grid: Grid, states: Iterable[CauchyState], pair: ErgodicPair):
    """(state, min w, max w) for each state as it is drawn, with w = u + c t - chi."""
    if len(pair.chi) != grid.n:
        raise ConfigError("pair and grid do not match")
    for state in states:
        if state.u.shape != (grid.n,):
            raise ConfigError("state and grid do not match")
        w = state.u + pair.c * state.t - pair.chi
        yield state, float(w.min()), float(w.max())


def _bracket_report(grid: Grid, pair: ErgodicPair, dt: float, curves: list) -> ConvergenceReport:
    """The report on the (t, min w, max w) of successive states."""
    if not curves:
        raise ConfigError("no state to diagnose")
    times, lows, highs = np.array(curves).T
    for j in range(1, len(times)):
        steps = max(1, int(round((times[j] - times[j - 1]) / dt)))
        tol = MONOTONE_TOL_PER_STEP * steps
        if lows[j] < lows[j - 1] - tol:
            raise NumericalError(
                f"lower bracket decreased at t={times[j]}: {lows[j]} < {lows[j-1]}"
            )
        if highs[j] > highs[j - 1] + tol:
            raise NumericalError(
                f"upper bracket increased at t={times[j]}: {highs[j]} > {highs[j-1]}"
            )
    K = -0.5 * (lows[-1] + highs[-1])
    uniform = np.maximum(np.abs(lows + K), np.abs(highs + K))
    return ConvergenceReport(
        times=times.tolist(),
        inf_gap=lows.tolist(),
        sup_gap=highs.tolist(),
        K=float(K),
        uniform_error=uniform.tolist(),
        metadata={"problem": grid.problem.fingerprint(), "c": pair.c, "dt": dt},
    )


def convergence_diagnostics(
    grid: Grid, states: Iterable[CauchyState], pair: ErgodicPair, dt: float
) -> ConvergenceReport:
    """Monotone brackets and limit shift for w = u + c t - chi.

    Each state is reduced to (t, min w, max w) as it is drawn, so a
    :func:`~hjblab.cauchy.march` streams through and no field is kept.
    Asserts that min w is nondecreasing and max w nonincreasing between
    states (up to the per-step tolerance, for steps of ``dt``), estimates
    the shift K as minus the final midpoint, and reports the uniform
    error sup over nodes of |u + c t - chi + K| per state.
    """
    curves = [(state.t, low, high) for state, low, high in _brackets(grid, states, pair)]
    return _bracket_report(grid, pair, dt, curves)


def check_flat(grid: Grid, tol: float, dt: float, t_max: float) -> None:
    """Refuse the arguments of :func:`run_until_flat` as it would, before
    the ergodic pair it needs is computed: ``tol`` must be positive and
    finite, and ``dt`` and ``t_max`` must plan a march
    (:func:`~hjblab.cauchy.plan_march`)."""
    if not 0 < tol < np.inf:
        raise ConfigError(f"tol must be positive and finite, got {tol}")
    plan_march(grid, t_max, "implicit", dt, snapshot_every=dt)


def run_until_flat(
    grid: Grid,
    u0: GridField,
    pair: ErgodicPair,
    tol: float = 1e-3,
    dt: float = 0.02,
    t_max: float = 500.0,
) -> tuple[ConvergenceReport, CauchyState]:
    """March implicitly until the bracket gap of w = u + c t - chi is
    below 2 tol (so the uniform error at the stop is below tol).

    A :func:`~hjblab.cauchy.march` with one state per step, at the times
    k dt; each state is reduced to (t, min w, max w) as it is drawn, and
    no field is kept.  Returns the :func:`convergence_diagnostics` report
    on those states and the final state.  The arguments are refused as
    by :func:`check_flat`; raises if the gap has not closed by ``t_max``.
    """
    check_flat(grid, tol, dt, t_max)
    curves = []
    states = march(grid, u0, t_max, "implicit", dt, snapshot_every=dt)
    for state, low, high in _brackets(grid, states, pair):
        curves.append((state.t, low, high))
        if state.step_count and high - low < 2 * tol * 0.95:
            return _bracket_report(grid, pair, dt, curves), state
    raise NumericalError(f"bracket gap did not close below {2 * tol} by t={t_max}")

