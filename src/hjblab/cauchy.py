"""Time stepping for the initial-value problem u_t + H[u] = 0.

No boundary condition is imposed: the spatial stencil is closed by the
boundary degeneracy, so both steppers act on interior nodes only, and a
grid whose stencil would need boundary data is refused
(:func:`hjblab.grid.require_no_boundary_data`).

* :func:`step_explicit` is forward Euler, monotone under the CFL bound;
* :func:`step_implicit_policy` is backward Euler solved by policy
  iteration (alternating per-node control maximization with a linear
  solve for the frozen controls); each frozen-control matrix is an
  M-matrix, so the step is monotone for any step size.

:func:`march` is the one stepping loop: a generator that yields the
initial state and then the state at each snapshot time.  It fixes the
sub-step once for every full snapshot window (only a shorter final window
gets its own), checks the CFL bound before the first step, every state
for finiteness and the a-priori bound at snapshot times, and counts the
Howard sweeps and factorizations of the run.  :func:`evolve` collects it
into a :class:`Trajectory`; the ``solve`` command writes each snapshot
as it is yielded.

:func:`frozen_matrix` builds the frozen-control matrix, and
:func:`frozen_factor` is the only way any solver solves it: the implicit
step and the ergodic policy solver, whose pinned generator is a frozen
matrix too.  In 1-D the factor is LAPACK's tridiagonal LU with partial
pivoting (``dgttrf``, solved by ``dgttrs``), the elimination that
``scipy.linalg.solve_banded`` would repeat at each solve; in 2-D it is
``scipy.sparse.linalg.splu`` of the CSC matrix.  Each grid caches its
last factor in a one-entry cache keyed on ``(policy.tobytes(), scale,
shift, pin)``, with the exact float ``scale`` (dt for a step): a fixed
dt and an unchanged policy, as in every step of a single-control
problem, cost one factorization for the whole run, and a step that
differs by one ulp is a different matrix and is factored afresh.  A
singular operator raises :class:`NumericalError` when it is factored.
scipy is imported at the first solve, so the commands that never solve
(validate, certify) skip its import.

Every evolution enforces the a-priori bound
``sup |u(t)| <= sup |u0| + sup |l| * t`` at snapshot times.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalError
from .grid import Grid, GridField, apply_H, cfl_dt, control_values, require_no_boundary_data

BOUND_RTOL = 1e-9


@dataclass
class CauchyState:
    t: float
    u: GridField
    u0_sup: float
    l_sup: float
    step_count: int = 0
    sweeps: int = 0  # Howard sweeps of the implicit step that produced this state

    def check_bound(self):
        bound = self.u0_sup + self.l_sup * self.t
        limit = bound * (1 + BOUND_RTOL) + 1e-12
        actual = float(np.abs(self.u).max())
        if actual > limit:
            raise NumericalError(
                f"a-priori bound violated at t={self.t}: sup|u|={actual} > {bound}"
            )


@dataclass
class Trajectory:
    times: list[float] = field(default_factory=list)
    snapshots: list[GridField] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def final(self) -> GridField:
        return self.snapshots[-1]


def initial_state(grid: Grid, u0: GridField) -> CauchyState:
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (grid.n,):
        raise ConfigError(f"u0 has shape {u0.shape}, expected ({grid.n},)")
    if not np.isfinite(u0).all():
        raise ConfigError("u0 contains non-finite entries")
    return CauchyState(t=0.0, u=u0.copy(), u0_sup=float(np.abs(u0).max()), l_sup=grid.l_sup())


def step_explicit(grid: Grid, state: CauchyState, dt: float) -> CauchyState:
    """One forward Euler step; dt must respect the CFL bound."""
    limit = cfl_dt(grid)
    if dt > limit * (1 + 1e-9):
        raise ConfigError(f"dt={dt} exceeds the monotonicity bound {limit}")
    u = state.u - dt * apply_H(grid, state.u)
    return CauchyState(state.t + dt, u, state.u0_sup, state.l_sup, state.step_count + 1)


def frozen_matrix(
    grid: Grid,
    policy: np.ndarray,
    scale: float,
    shift: float,
    pin: int | None = None,
):
    """The matrix ``shift I + scale A_policy`` for frozen per-node controls.

    ``(A_policy u)_i = sum of coef * (u_nbr - u_i)`` over the stencil of
    the control ``policy[i]``, so ``control_values(grid, u)[policy[i], i]``
    is ``(A_policy u)_i - l``.  Row i takes its coefficients from the
    stacked tables ``grid.coef_minus`` and ``grid.coef_plus``
    (n_controls, n, N) at ``[policy[i], i]``, one fancy index for all
    rows.  With ``pin`` the row of that node becomes the identity row.
    Returned as the (3, n) band of ``scipy.linalg.solve_banded`` in 1-D
    and in 2-D as CSC, the format ``splu`` factors without a copy.
    """
    n = grid.n
    rows = np.arange(n)
    cm = grid.coef_minus[policy, rows]
    cp = grid.coef_plus[policy, rows]
    diag = shift - scale * (cm.sum(axis=1) + cp.sum(axis=1))
    if pin is not None:
        cm[pin] = cp[pin] = 0.0
        diag[pin] = 1.0
    if grid.ndim == 1:
        ab = np.zeros((3, n))
        ab[1] = diag
        ab[0, 1:] = scale * cp[:-1, 0]
        ab[2, :-1] = scale * cm[1:, 0]
        return ab
    import scipy.sparse
    entries_r = [rows]
    entries_c = [rows]
    entries_v = [diag]
    for k in range(grid.ndim):
        for side, coef in ((0, cm[:, k]), (1, cp[:, k])):
            nbr = grid._nbr[:, k, side]
            mask = nbr >= 0
            entries_r.append(rows[mask])
            entries_c.append(nbr[mask])
            entries_v.append(scale * coef[mask])
    return scipy.sparse.csc_matrix(
        (np.concatenate(entries_v), (np.concatenate(entries_r), np.concatenate(entries_c))),
        shape=(n, n),
    )


class _BandFactor:
    """A 1-D frozen operator factored once by LAPACK's tridiagonal LU with
    partial pivoting (``dgttrf``); each solve is the two triangular sweeps
    of ``dgttrs``.  These are the pivots and operations of the ``gtsv``
    behind ``scipy.linalg.solve_banded``, so the solutions are the same bits.
    A singular band (``info > 0``) raises :class:`NumericalError` here."""

    def __init__(self, band: np.ndarray):
        from scipy.linalg import lapack

        *self._lu, info = lapack.dgttrf(band[2, :-1], band[1], band[0, 1:])
        if info > 0:
            raise NumericalError("the frozen-policy operator is singular")
        self._dgttrs = lapack.dgttrs

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._dgttrs(*self._lu, rhs)[0]


def frozen_factor(
    grid: Grid,
    policy: np.ndarray,
    scale: float,
    shift: float,
    pin: int | None = None,
):
    """The factored :func:`frozen_matrix`; ``.solve(rhs)`` solves
    ``matrix @ u = rhs``, and ``rhs`` may hold one right-hand side per
    column.

    The grid keeps the last factor, keyed on the policy bytes and the
    exact scalars; a hit returns it without rebuilding the matrix, a miss
    replaces it and adds one to ``grid.factorizations``.  A singular
    operator raises :class:`NumericalError` when it is factored.
    """
    key = (policy.tobytes(), scale, shift, pin)
    if grid._frozen is not None and grid._frozen[0] == key:
        return grid._frozen[1]
    matrix = frozen_matrix(grid, policy, scale, shift, pin)
    if grid.ndim == 1:
        factor = _BandFactor(matrix)
    else:
        import scipy.sparse.linalg

        try:
            factor = scipy.sparse.linalg.splu(matrix)
        except RuntimeError:  # "Factor is exactly singular"
            raise NumericalError("the frozen-policy operator is singular") from None
    grid._frozen = (key, factor)
    grid.factorizations += 1
    return factor


def howard_solve(
    grid: Grid,
    u_old: GridField,
    dt: float,
    max_sweeps: int = 100,
    residual_tol: float = 1e-12,
) -> tuple[GridField, int, float]:
    """Solve the backward Euler step u + dt H[u] = u_old by policy iteration.

    Alternates (a) the per-node maximizing control for the current
    iterate with (b) a solve with the :func:`frozen_factor` of the frozen
    controls, until the policy is stationary or the nonlinear residual
    ``|u + dt H[u] - u_old|`` drops below ``residual_tol`` (scaled by
    the data size).  A stationary policy means the last solve already
    satisfies the Bellman step up to linear-solve roundoff.  Returns
    (solution, sweeps used, final residual).  A grid that needs boundary
    data and a solve that is not finite raise :class:`NumericalError`.
    """
    if not dt > 0:
        raise ConfigError("dt must be positive")
    require_no_boundary_data(grid)
    scale = max(1.0, float(np.abs(u_old).max()), grid.l_sup() * dt)
    policy = np.argmax(control_values(grid, u_old), axis=0)
    last_residual = np.inf
    for sweep in range(1, max_sweeps + 1):
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is left to _check_finite
            rhs = u_old + dt * grid.l[policy, np.arange(grid.n)]
            u = frozen_factor(grid, policy, scale=dt, shift=1.0).solve(rhs)
        _check_finite(grid, u)
        vals = control_values(grid, u)
        new_policy = np.argmax(vals, axis=0)
        last_residual = float(np.abs(u + dt * np.max(vals, axis=0) - u_old).max())
        if np.array_equal(new_policy, policy) or last_residual <= residual_tol * scale:
            return u, sweep, last_residual
        policy = new_policy
    raise NumericalError(
        f"policy iteration did not settle in {max_sweeps} sweeps "
        f"(residual {last_residual:.3e})"
    )


def step_implicit_policy(
    grid: Grid,
    state: CauchyState,
    dt: float,
    max_sweeps: int = 100,
    residual_tol: float = 1e-12,
) -> CauchyState:
    """One backward Euler step by Howard policy iteration; monotone for
    any dt because each frozen-control matrix is an M-matrix."""
    u, sweeps, _ = howard_solve(grid, state.u, dt, max_sweeps, residual_tol)
    return CauchyState(state.t + dt, u, state.u0_sup, state.l_sup, state.step_count + 1, sweeps)


def _check_finite(grid: Grid, u: GridField, t: float | None = None) -> None:
    if not np.isfinite(u).all():
        bad = int(np.argmax(~np.isfinite(u)))
        at = "" if t is None else f", t={t}"
        raise NumericalError(f"non-finite value at node {bad} (x={grid.x[bad].tolist()}){at}")


def _substeps(span: float, dt: float) -> tuple[int, float]:
    """The fewest equal steps of at most ``dt`` (up to roundoff) that cover
    ``span``, and their length."""
    count = max(1, int(np.ceil(span / dt - 1e-12)))
    return count, span / count


def march(
    grid: Grid,
    u0: GridField,
    T: float,
    mode: str = "explicit",
    dt: float | None = None,
    snapshot_every: float | None = None,
    metadata: dict | None = None,
) -> Iterator[CauchyState]:
    """Evolve from ``u0`` to time ``T``, yielding the initial state and
    then the state at each snapshot time.

    ``mode`` is ``"explicit"`` (dt defaults to 0.999 times the CFL bound)
    or ``"implicit"`` (dt required, no stability restriction).  Snapshots
    fall every ``snapshot_every`` (default ``T``) of simulation time and
    at ``T``.  Every full window is covered by the same sub-step,
    ``snapshot_every / ceil(snapshot_every / dt)``, computed once, so a
    fixed dt stays exactly fixed and an implicit run reuses one
    factorization; only a final window shorter than ``snapshot_every``
    gets its own sub-step.  The recorded time of a snapshot is its target
    time, not the sum of the sub-steps.  An explicit sub-step above the
    CFL bound is refused before the first step; a non-finite value aborts
    with the offending node, and the a-priori bound is checked at every
    snapshot.  A grid that needs boundary data is refused.  Each step
    returns new arrays, so a yielded ``state.u`` may be kept as it is.

    If ``metadata`` is given, march records the run in it: the problem
    fingerprint, ``h``, ``dt`` (the requested or default step), ``mode``,
    ``snapshot_every``, ``u0_sup``, ``l_sup`` and ``steps``, and in
    implicit mode the total and the largest number of Howard sweeps per
    step and ``factorizations``, the frozen operators factored during the
    run (misses of the :func:`frozen_factor` cache: one for a fixed dt and
    policy on a fresh grid).  The counters are current at each yield.
    Nothing is checked or recorded until the first state is requested.
    """
    if not T > 0:
        raise ConfigError("T must be positive")
    if mode not in ("explicit", "implicit"):
        raise ConfigError(f"unknown stepping mode {mode!r}")
    if mode == "implicit" and dt is None:
        raise ConfigError("implicit stepping needs an explicit dt")
    if dt is not None and not dt > 0:
        raise ConfigError("dt must be positive")
    if snapshot_every is None:
        snapshot_every = T
    if not snapshot_every > 0:
        raise ConfigError("the snapshot cadence must be positive")
    require_no_boundary_data(grid)
    implicit = mode == "implicit"
    limit = np.inf if implicit else cfl_dt(grid)
    base_dt = dt if dt is not None else 0.999 * limit
    n_snaps = int(np.ceil(T / snapshot_every - 1e-12))
    full = _substeps(snapshot_every, base_dt)
    last_span = T - (n_snaps - 1) * snapshot_every
    last = full if n_snaps - T / snapshot_every <= 1e-9 else _substeps(last_span, base_dt)
    step = max(full[1], last[1])
    if step > limit * (1 + 1e-9):
        raise ConfigError(f"dt={step} exceeds the monotonicity bound {limit}")

    state = initial_state(grid, u0)
    record = metadata if metadata is not None else {}
    record.update(
        problem=grid.problem.fingerprint(),
        h=grid.h,
        dt=base_dt,
        mode=mode,
        snapshot_every=snapshot_every,
        u0_sup=state.u0_sup,
        l_sup=state.l_sup,
        steps=0,
    )
    if implicit:
        record.update(howard_sweeps=0, max_howard_sweeps=0, factorizations=0)
    factorizations = grid.factorizations
    yield state
    for js in range(1, n_snaps + 1):
        count, sub = full if js < n_snaps else last
        # an overflowing step is reported by _check_finite, not by a numpy warning;
        # one errstate per window: one per explicit step adds about 14% to the step
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(count):
                if implicit:
                    state = step_implicit_policy(grid, state, sub)
                    record["howard_sweeps"] += state.sweeps
                    record["max_howard_sweeps"] = max(record["max_howard_sweeps"], state.sweeps)
                else:
                    state = step_explicit(grid, state, sub)
                _check_finite(grid, state.u, state.t)
        state.t = min(js * snapshot_every, T)  # the target, without accumulated drift
        state.check_bound()
        record["steps"] = state.step_count
        if implicit:
            record["factorizations"] = grid.factorizations - factorizations
        yield state


def evolve(
    grid: Grid,
    u0: GridField,
    T: float,
    mode: str = "explicit",
    dt: float | None = None,
    snapshot_every: float | None = None,
) -> Trajectory:
    """Evolve from ``u0`` to time ``T`` and keep every snapshot.

    A thin collector over :func:`march`, which sets the stepping rules,
    checks and metadata: the trajectory holds each yielded time and field,
    the initial field first, and the run's ``metadata`` (the step count
    and, in implicit mode, ``howard_sweeps``, ``max_howard_sweeps`` and
    ``factorizations``).  Memory grows with snapshots times nodes; a
    caller that only writes or reduces each snapshot iterates
    :func:`march` instead.
    """
    traj = Trajectory()
    for state in march(grid, u0, T, mode, dt, snapshot_every, metadata=traj.metadata):
        traj.times.append(state.t)
        traj.snapshots.append(state.u)
    return traj
