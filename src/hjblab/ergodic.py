"""The ergodic pair (c, chi): H[chi] = c with sup chi = 0.

Three solvers:

* :func:`solve_ergodic_policy` (the default) is Howard's policy iteration
  for the average cost: each frozen policy costs one linear solve for
  (chi, c), with chi pinned to zero at an anchor node, and the policy
  settles in a few iterations;
* :func:`solve_ergodic_longtime` reads c off the linear-in-time drift of
  a long evolution started from zero and takes chi as the drift-corrected
  final profile, doubling the horizon until the estimate settles;
* :func:`solve_ergodic_rvi` is relative value iteration: implicit steps
  re-anchored at a fixed interior node, converging to the discrete fixed
  point directly.

The last two take implicit steps and serve as independent cross-checks
of the first.  The longtime solver runs :func:`hjblab.cauchy.march`
between its sampling times.  RVI calls :func:`hjblab.cauchy.howard_solve`
in its own loop: it re-anchors the field after every step, so its
iterate is not a solution of the Cauchy problem, and it has no snapshot
times and no a-priori bound to check.
Every frozen operator, the pinned generator and the implicit step's
``I + dt A``, is solved through :func:`hjblab.cauchy.frozen_factor`,
whose one-entry cache on the grid is keyed on
``(policy.tobytes(), scale, shift, pin)`` with the exact float step: the
implicit steps of RVI and of the longtime march reuse one factorization
for as long as dt and the policy stay the same.  A singular frozen
operator (some node never reaches the anchor) raises
:class:`NumericalError` when it is factored, from ``splu`` in 2-D and
from LAPACK's ``dgttrf`` in 1-D.  Every solver refuses a grid whose
stencil needs boundary data (:func:`hjblab.grid.require_no_boundary_data`).

Every solver reports the residual ``sup |H[chi] - c|`` over nodes with
d >= 10 h and raises :class:`NumericalError` unless it is below the
tolerance (``max(tolerance, 1e-8)`` for longtime), which must be positive
and finite, so that the check cannot pass vacuously; the boundary layer,
where the scheme loses consistency, is excluded from that norm and
reported separately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cauchy import CauchyState, frozen_factor, howard_solve, march
from .errors import ConfigError, NumericalError
from .grid import Grid, GridField, apply_H, cfl_dt, maximizing_policy, require_no_boundary_data

MAX_POLICY_ITERATIONS = 100
LONGTIME_T1 = 2.0  # longtime first sampling time
LONGTIME_T2 = 8.0  # longtime second sampling time


@dataclass
class ErgodicSolverParams:
    tolerance: float = 1e-8
    max_iterations: int = 500_000
    anchor_node: int | None = None      # policy/rvi anchor node, default: deepest
    dt: float | None = None             # rvi/longtime step; defaults per method

    def __post_init__(self):
        if not 0 < self.tolerance < np.inf:
            raise ConfigError(f"tolerance must be positive and finite, got {self.tolerance}")


@dataclass
class ErgodicPair:
    c: float
    chi: GridField
    method: str
    residual: float
    iterations: int
    boundary_residual: float = 0.0

    def to_dict(self) -> dict:
        return {
            "c": self.c,
            "method": self.method,
            "residual": self.residual,
            "boundary_residual": self.boundary_residual,
            "iterations": self.iterations,
            "chi_sup": float(np.abs(self.chi).max()),
        }


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


def _anchor(grid: Grid, params: ErgodicSolverParams) -> int:
    anchor = params.anchor_node if params.anchor_node is not None else int(np.argmax(grid.d))
    if not 0 <= anchor < grid.n:
        raise ConfigError(f"anchor node {anchor} is out of range")
    return anchor


def solve_ergodic_policy(grid: Grid, params: ErgodicSolverParams | None = None) -> ErgodicPair:
    """Ergodic pair by policy iteration for the average cost.

    For a frozen policy the pair solves ``A chi - l = c`` with
    ``chi[anchor] = 0``.  With the anchor row of ``A`` replaced by the
    identity row, one :func:`~hjblab.cauchy.frozen_factor` gives ``y``
    (right-hand side ``l``) and ``z`` (right-hand side 1), both zero at
    the anchor; the anchor row's own equation fixes c, and
    ``chi = y + c z``.  The policy is then re-maximized until it stops
    changing.  ``z`` is the expected hitting time of the anchor, so a
    node that never reaches the anchor makes the matrix singular, and
    the solve raises :class:`NumericalError`.
    """
    params = params or ErgodicSolverParams()
    require_no_boundary_data(grid)
    anchor = _anchor(grid, params)
    n, N = grid.n, grid.ndim
    gather = grid._gather[:, anchor]
    rhs = np.ones((n, 2))
    rhs[anchor] = 0.0
    policy = maximizing_policy(grid, np.zeros(n))
    for iteration in range(1, MAX_POLICY_ITERATIONS + 1):
        rhs[:, 0] = grid.l[policy, np.arange(n)]
        rhs[anchor, 0] = 0.0
        try:
            yz = frozen_factor(grid, policy, scale=1.0, shift=0.0, pin=anchor).solve(rhs)
        except NumericalError as err:
            raise NumericalError(
                f"{err} at policy iteration {iteration}: "
                f"some node never reaches the anchor node {anchor}"
            ) from None
        if not np.isfinite(yz).all():
            raise NumericalError(f"the frozen-policy solve is non-finite at policy iteration {iteration}")
        # (A u)[anchor] for u = y, z in neighbor differences: the pinned row
        # holds u[anchor] = 0 only up to the roundoff of the solve
        ca = policy[anchor]
        coef, diffs = grid._coef[:, ca, anchor], yz[gather] - yz[anchor]
        a_y, a_z = coef[:N] @ diffs[:N] + coef[N:] @ diffs[N:]
        c = float((a_y - grid.l[ca, anchor]) / (1.0 - a_z))
        chi = yz[:, 0] + c * yz[:, 1]
        new_policy = maximizing_policy(grid, chi)
        if np.array_equal(new_policy, policy):
            break
        policy = new_policy
    else:
        raise NumericalError(f"policy iteration did not settle in {MAX_POLICY_ITERATIONS} iterations")
    chi = normalize_chi(chi)
    residual, boundary_res = _residuals(grid, chi, c)
    if not residual <= params.tolerance:
        raise NumericalError(
            f"policy iteration settled with interior residual {residual:.3e} "
            f"above the tolerance {params.tolerance}"
        )
    return ErgodicPair(
        c=c,
        chi=chi,
        method="policy",
        residual=residual,
        iterations=iteration,
        boundary_residual=boundary_res,
    )


def solve_ergodic_longtime(grid: Grid, params: ErgodicSolverParams | None = None) -> ErgodicPair:
    """Ergodic pair from the long-time drift of the zero-start evolution.

    c is minus the slope of the node-average between two sampling times;
    the window then doubles (rolling forward) until successive estimates
    differ by less than the tolerance and the corrector residual is small.
    """
    params = params or ErgodicSolverParams()
    require_no_boundary_data(grid)
    dt = params.dt if params.dt is not None else 0.01

    def advance(u: GridField, span: float) -> CauchyState:
        for state in march(grid, u, span, "implicit", dt):
            pass
        return state

    state = advance(np.zeros(grid.n), LONGTIME_T1)
    steps = state.step_count
    t_prev, mean_prev = LONGTIME_T1, float(state.u.mean())
    t_hi = LONGTIME_T2
    c_prev = None
    for _ in range(60):
        state = advance(state.u, t_hi - t_prev)
        steps += state.step_count
        mean_now = float(state.u.mean())
        c_now = -(mean_now - mean_prev) / (t_hi - t_prev)
        chi = normalize_chi(state.u + c_now * t_hi)
        residual, boundary_res = _residuals(grid, chi, c_now)
        settled = c_prev is not None and abs(c_now - c_prev) < params.tolerance
        if settled and residual < max(params.tolerance, 1e-8):
            return ErgodicPair(
                c=c_now,
                chi=chi,
                method="longtime",
                residual=residual,
                iterations=steps,
                boundary_residual=boundary_res,
            )
        c_prev = c_now
        t_prev, mean_prev = t_hi, mean_now
        t_hi *= 2.0
    raise NumericalError(
        f"longtime ergodic estimate did not settle (last c={c_prev}, horizon {t_hi})"
    )


def solve_ergodic_rvi(grid: Grid, params: ErgodicSolverParams | None = None) -> ErgodicPair:
    """Ergodic pair by relative value iteration.

    Implicit steps followed by re-anchoring v <- v - v(anchor); minus the
    anchored shift per unit time estimates c, and the iteration stops when
    the interior residual of the candidate pair is below the tolerance.
    """
    params = params or ErgodicSolverParams()
    require_no_boundary_data(grid)
    dt = params.dt if params.dt is not None else 10.0 * cfl_dt(grid)
    anchor = _anchor(grid, params)

    v = np.zeros(grid.n)
    c_est = 0.0
    best_update = np.inf
    check_every = 20
    for it in range(1, params.max_iterations + 1):
        raw, _, _ = howard_solve(grid, v, dt)
        c_est = -(raw[anchor] - v[anchor]) / dt
        v_new = raw - raw[anchor]
        update = float(np.abs(v_new - v).max())
        v = v_new
        best_update = min(best_update, update)
        if update > 1e3 * best_update + 1e-12 and it > 100:
            raise NumericalError(
                f"relative value iteration oscillates (update {update:.3e} "
                f"after best {best_update:.3e})"
            )
        if update < params.tolerance * max(dt, 1.0) or it % check_every == 0:
            chi = normalize_chi(v)
            residual, boundary_res = _residuals(grid, chi, c_est)
            if residual < params.tolerance:
                return ErgodicPair(
                    c=float(c_est),
                    chi=chi,
                    method="rvi",
                    residual=residual,
                    iterations=it,
                    boundary_residual=boundary_res,
                )
    chi = normalize_chi(v)
    residual, _ = _residuals(grid, chi, c_est)
    raise NumericalError(
        f"relative value iteration did not reach tolerance {params.tolerance} "
        f"in {params.max_iterations} iterations (residual {residual:.3e})"
    )
