"""The ergodic pair (c, chi): H[chi] = c with sup chi = 0.

Two solvers, both on Howard's loop, :func:`hjblab.cauchy.policy_iteration`:

* :func:`solve_ergodic_policy` (the default) is Howard's policy iteration
  for the average cost: each frozen policy costs one linear solve for
  (chi, c), with chi pinned to zero at an anchor node, and the policy
  settles in a few iterations;
* :func:`solve_ergodic_rvi` is relative value iteration on the implicit
  semigroup, the independent cross-check of the first: it drives
  :func:`hjblab.cauchy.march` from u = 0 and stops on a bracket on c.

The bracket needs no tolerance of its own.  An implicit step of length
dt from u_{k-1} gives u_k with H[u_k] = -delta_k, where delta_k =
(u_k - u_{k-1}) / dt.  So -max delta_k <= H[u_k] <= -min delta_k at
every node, and the comparison principle of the monotone scheme puts c
in the same interval.  The step S is monotone and commutes with
constants, so min delta_k never decreases and max delta_k never
increases: the brackets are nested (Odoni, *Oper. Res.* 17, 1969;
Puterman, *Markov Decision Processes*, 1994, section 8.5).  RVI returns
the midpoint of the first bracket narrower than the tolerance, with chi
the normalized u_k, so its residual, boundary layer included, is at most
half the bracket's width up to the roundoff of the step.  The width
shrinks geometrically until it reaches the roundoff floor, about 1e-14.
A unit window that ends no narrower than the one before (the floor, or
a problem without one constant c), or ``MAX_WINDOWS`` windows, raise
:class:`NumericalError` instead of iterating on.

Both solvers anchor at the deepest node, ``argmax d``: the policy
solver pins chi there, and RVI restarts each unit window from
``u - u[anchor]``.  The anchor is a gauge, not a parameter of the
problem: c is unique and chi is unique up to an additive constant,
which the final normalization sup chi = 0 fixes, so another anchor
moves c and chi by roundoff only.

RVI's restart changes no bracket, since S commutes with constants, and
keeps sup |u| of order one.  Without it u grows like |c| t, and its
roundoff, amplified by the 1/h^2 of the stencil, shows in the residual:
on degenerateB at h = 1e-3 and tolerance 1e-9 the residual reaches
1.1e-9.

Every frozen operator, the pinned generator and the implicit step's
``I + dt A``, is solved through :func:`hjblab.cauchy.frozen_factor`,
whose one-entry cache on the grid is keyed on
``(policy.tobytes(), scale, shift, pin)`` with the exact float step: the
implicit steps of RVI reuse one factorization for as long as dt and the
policy stay the same.  A singular frozen operator (some node never
reaches the anchor) raises :class:`NumericalError` when it is factored,
from SuperLU's ``gstrf`` in 2-D and from LAPACK's ``dgttrf`` in 1-D.
Every solver refuses a grid whose stencil needs boundary data
(:func:`hjblab.grid.require_no_boundary_data`).

Every solver reports the residual ``sup |H[chi] - c|`` over nodes with
d >= 10 h and raises :class:`NumericalError` unless it is below the
tolerance.  The tolerance must be positive and finite, so that the
check cannot pass vacuously, and a solver refuses any other with
:class:`ConfigError` before it factors anything.  The boundary layer,
where the scheme loses consistency, is excluded from that norm and
reported separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cauchy import frozen_factor, march, policy_iteration
from .errors import ConfigError, NumericalError
from .grid import Grid, GridField, apply_H, generator_at, policy_cost, require_no_boundary_data

RVI_DT = 0.05
MAX_WINDOWS = 10_000  # unit windows of one rvi solve


@dataclass
class ErgodicPair:
    """The constant c and the corrector chi, with the solver's residuals.
    ``ergodic.json`` is this record without ``chi``, an array that goes to
    ``chi.csv``; ``chi_sup`` = sup |chi| is set when the pair is built."""

    c: float
    chi: GridField
    method: str
    residual: float
    iterations: int
    boundary_residual: float = 0.0
    chi_sup: float = field(init=False)

    def __post_init__(self):
        self.chi_sup = float(np.abs(self.chi).max())


def normalize_chi(chi: GridField) -> GridField:
    """Shift so that the maximum is exactly zero; a field already at
    max 0 is returned unchanged bit for bit."""
    top = float(np.max(chi))
    if top == 0.0:
        return chi
    return chi - top


def _residuals(grid: Grid, chi: GridField, c: float) -> tuple[float, float]:
    r = np.abs(apply_H(grid, chi) - c)
    interior = grid.d >= 10 * grid.h
    if not interior.any():
        return float(r.max()), 0.0
    boundary = ~interior
    return float(r[interior].max()), float(r[boundary].max()) if boundary.any() else 0.0


def _check_tolerance(tolerance: float) -> None:
    if not 0 < tolerance < np.inf:
        raise ConfigError(f"tolerance must be positive and finite, got {tolerance}")


def _checked_pair(
    grid: Grid, tolerance: float, chi: GridField, c: float, method: str, iterations: int
) -> ErgodicPair:
    """The pair with its residuals; an interior residual above the tolerance raises."""
    residual, boundary_res = _residuals(grid, chi, c)
    if not residual <= tolerance:
        raise NumericalError(
            f"the {method} solve settled with interior residual {residual:.3e} "
            f"above the tolerance {tolerance}"
        )
    return ErgodicPair(c, chi, method, residual, iterations, boundary_res)


def solve_ergodic_policy(grid: Grid, tolerance: float = 1e-8) -> ErgodicPair:
    """Ergodic pair by policy iteration for the average cost.

    For a frozen policy the pair solves ``A chi - l = c`` with
    ``chi[anchor] = 0`` at the deepest node.  With the anchor row of
    ``A`` replaced by the identity row, one
    :func:`~hjblab.cauchy.frozen_factor` gives ``y`` (right-hand side
    ``l``) and ``z`` (right-hand side 1), both zero at the anchor; the
    anchor row's own equation fixes c, and ``chi = y + c z``.
    :func:`~hjblab.cauchy.policy_iteration`, the implicit step's loop,
    re-maximizes the policy until it stops changing.  ``z`` is the
    expected hitting time of the anchor, so a node that never reaches
    the anchor makes the matrix singular, and the solve raises
    :class:`NumericalError`.
    """
    _check_tolerance(tolerance)
    require_no_boundary_data(grid)
    anchor = int(np.argmax(grid.d))
    n = grid.n
    rhs = np.ones((n, 2))
    rhs[anchor] = 0.0
    c = None  # the constant of the last evaluated policy

    def evaluate(policy, iteration):
        nonlocal c
        rhs[:, 0] = policy_cost(grid, policy)
        rhs[anchor, 0] = 0.0
        try:
            yz = frozen_factor(grid, policy, scale=1.0, shift=0.0, pin=anchor).solve(rhs)
        except NumericalError as err:
            raise NumericalError(
                f"{err} at policy iteration {iteration}: "
                f"some node never reaches the anchor node {anchor}"
            ) from None
        if not np.isfinite(yz).all():
            bad = int(np.argmax(~np.isfinite(yz).all(axis=1)))
            raise NumericalError(
                f"the frozen-policy solve is non-finite at node {bad} (x={grid.x[bad].tolist()}) "
                f"at policy iteration {iteration}"
            )
        # (A u)[anchor] for u = y, z in neighbor differences: the pinned row
        # holds u[anchor] = 0 only up to the roundoff of the solve
        ca = policy[anchor]
        a_y, a_z = generator_at(grid, ca, anchor, yz)
        c = float((a_y - grid.l[ca, anchor]) / (1.0 - a_z))
        return yz[:, 0] + c * yz[:, 1]

    chi, iterations, _ = policy_iteration(grid, np.zeros(n), evaluate)
    return _checked_pair(grid, tolerance, normalize_chi(chi), c, "policy", iterations)


def solve_ergodic_rvi(grid: Grid, tolerance: float = 1e-8, dt: float = RVI_DT) -> ErgodicPair:
    """Ergodic pair by relative value iteration on the implicit semigroup.

    From u = 0, :func:`~hjblab.cauchy.march` takes implicit steps of
    ``dt`` in unit windows, each restarted from ``u - u[anchor]`` at the
    deepest node.  Each step gives the bracket
    ``(c_lo, c_hi) = (-max delta, -min delta)`` on c, with delta the
    step's increment over its length; the solve stops once the bracket is
    narrower than the tolerance and returns its midpoint, with chi the
    normalized last field.  A window that ends no narrower than the one
    before, or ``MAX_WINDOWS`` windows, raise :class:`NumericalError`.
    """
    _check_tolerance(tolerance)
    anchor = int(np.argmax(grid.d))
    u, steps, width = np.zeros(grid.n), 0, np.inf
    for window in range(1, MAX_WINDOWS + 1):
        states = march(grid, u - u[anchor], 1.0, "implicit", dt, snapshot_every=dt)
        prev = next(states)
        for state in states:
            # over the step's length: when dt does not divide 1, the last step is shorter
            delta = (state.u - prev.u) / (state.t - prev.t)
            c_lo, c_hi = -float(delta.max()), -float(delta.min())
            steps += 1
            if c_hi - c_lo < tolerance:
                return _checked_pair(
                    grid, tolerance, normalize_chi(state.u), 0.5 * (c_lo + c_hi), "rvi", steps
                )
            prev = state
        if not c_hi - c_lo < width:
            raise NumericalError(
                f"the rvi bracket on c stopped narrowing at width {c_hi - c_lo:.3e} "
                f"in window {window}, above the tolerance {tolerance}"
            )
        u, width = state.u, c_hi - c_lo
    raise NumericalError(
        f"the rvi bracket on c is {width:.3e} wide after {MAX_WINDOWS} windows, "
        f"above the tolerance {tolerance}"
    )


# an alias only: the benchmark's span tracer (perfbench/spans.py) and
# tests/test_bench_harness.py resolve this name; it goes once they stop naming it
solve_ergodic_longtime = solve_ergodic_rvi
