"""Time stepping for the initial-value problem u_t + H[u] = 0.

No boundary condition is imposed: the spatial stencil is closed by the
boundary degeneracy, so both steppers act on interior nodes only, and a
grid whose stencil would need boundary data is refused
(:func:`hjblab.grid.require_no_boundary_data`).

* :func:`step_explicit` is forward Euler, monotone under the CFL bound,
  which it checks at each call;
* :func:`step_implicit_policy` is backward Euler solved by policy
  iteration; each frozen-control matrix is an M-matrix, so the step is
  monotone for any step size.

:func:`policy_iteration`, Howard's loop, is the one place a policy is
chosen, for the implicit step and the ergodic policy solver alike.  With
one control it is one frozen solve and evaluates no operator values;
with more, k sweeps cost k frozen solves and k + 1 evaluations of the
operator values, one for the starting policy.

:func:`march` is the one stepping loop and the only evolution API: a
generator that yields the initial state and then the state at each
snapshot time.  It refuses non-finite times and snapshot or step counts
above ``MAX_SNAPSHOTS`` or ``MAX_STEPS``, fixes the sub-step once for
every full snapshot window (only a shorter final window gets its own),
checks the CFL bound for every sub-step before the first step and the
a-priori bound at snapshot times, and counts the Howard sweeps and
factorizations of the run.  Each consumer reduces a state as it is
drawn (``solve`` writes it, ``converge`` and the evolutive ``envelope``
keep a few floats of it), so no evolution is held in memory.

An implicit step checks its own solve for finiteness, and its error
names the time the step was to reach.  An explicit window runs as one
call of :func:`hjblab.grid.explicit_window` (``_explicit_window`` here),
the steps ``u - dt H[u]`` with no per-step bookkeeping: on an interval a
kernel on preallocated buffers, on a disk a loop over
:func:`hjblab.grid.apply_H`, the same bits either way.  The window is
checked once, at its end.  That check misses nothing: a non-finite
``u_i`` makes every stencil term ``coef * (u_j - u_i)`` of node i
non-finite (``0 * inf`` is nan), so H[u]_i, the maximum over controls of
such sums, is non-finite too, and so is ``u_i - dt H[u]_i``; once an
entry is non-finite it stays so until the window ends.  A window is kept
only when it ends finite, so every step kept was taken from a finite
field, where the interval kernel and ``u - dt * apply_H`` agree bit for
bit: :func:`initial_state` checks the start, and a window that ends
non-finite is replayed from its finite start state one
:func:`step_explicit` at a time, checked after each step, which raises
the same error, with the node, x and time of the first non-finite step,
that a stepwise march would.

The frozen-control matrix, :func:`hjblab.grid.frozen_matrix`, is
assembled beside the stencil tables it reads (in 2-D through the CSC
pattern the grid builds once); this module only factors it, and
:func:`frozen_factor` is the only way any solver solves it: the implicit
step and the ergodic policy solver, whose pinned generator is a frozen
matrix too.  In 1-D the factor is LAPACK's tridiagonal LU with partial
pivoting (``dgttrf``, solved by ``dgttrs``), the elimination that
``scipy.linalg.solve_banded`` would repeat at each solve.  In 2-D it is
SuperLU's ``gstrf``, called as ``scipy.sparse.linalg.splu`` calls it, on
the CSC arrays in multiple minimum degree order on ``A + A^T`` (Liu, ACM
TOMS 11, 1985), without pivoting (``SUPERLU_OPTIONS``): a frozen
operator is an M-matrix, whose LU in any symmetric order is stable
without pivoting (Berman-Plemmons, *Nonnegative Matrices in the
Mathematical Sciences*, ch. 6).  Only a node where an outward drift is
discretized one-sided inward (the ``forced_inward_count`` of
:func:`hjblab.grid.stencil_report`, which validation rules out) may put
a positive off-diagonal entry in its row.  On the
benchmark's disk at h = 0.02 this factor holds 277,418 entries in L + U,
where COLAMD with partial pivoting held 494,616, and the 2-D outputs
moved by ulps against that pivoted factor.  Each grid caches its last
factor in a one-entry cache keyed on ``(policy.tobytes(), scale, shift,
pin)``, with the exact float ``scale`` (dt for a step): a fixed dt and an
unchanged policy, as in every step of a single-control problem, cost one
factorization for the whole run, and a step that differs by one ulp is a
different matrix and is factored afresh.  A singular operator raises
:class:`NumericalError` when it is factored.

Both routines live in compiled scipy modules, ``FLAPACK`` and
``SUPERLU``, which the first solve loads from their files
(:func:`_load_compiled`) without importing ``scipy.linalg``,
``scipy.sparse`` or ``scipy.sparse.linalg``: those packages cost a cold
process about 0.4 s and 20-25 MB to reach two routines.  A later public
import in the same process reuses the loaded modules, so
``scipy.linalg.lapack.dgttrf`` is the routine the 1-D factor calls, and
the commands that never solve (validate, certify) load neither.

Every evolution enforces the a-priori bound
``sup |u(t)| <= sup |u0| + sup |l| * t`` at snapshot times.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NumericalError
from .grid import (
    Grid,
    GridField,
    apply_H,  # unused here; perfbench/selftest.py reads hjblab.cauchy.apply_H
    cfl_dt,
    control_values,
    frozen_matrix,
    policy_cost,
    require_no_boundary_data,
)
from .grid import explicit_window as _explicit_window

BOUND_RTOL = 1e-9
# the compiled scipy modules of the 1-D and the 2-D factor
FLAPACK = "scipy.linalg._flapack"
SUPERLU = "scipy.sparse.linalg._dsolve._superlu"
# gstrf of a 2-D frozen operator: fill-reducing symmetric order, diagonal
# pivots; exactly the options splu(permc_spec="MMD_AT_PLUS_A",
# diag_pivot_thresh=0.0, options={"SymmetricMode": True}) passes
SUPERLU_OPTIONS = {
    "DiagPivotThresh": 0.0,
    "ColPerm": "MMD_AT_PLUS_A",
    "PanelSize": None,
    "Relax": None,
    "SymmetricMode": True,
}
# the most snapshots and steps one march may plan: far above any run the
# tools make (the benchmark's largest has 501 snapshots and 31,300 steps)
MAX_SNAPSHOTS = 10**6
MAX_STEPS = 10**9
MAX_HOWARD_SWEEPS = 100
HOWARD_RESIDUAL_TOL = 1e-12  # relative to the data size


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
    u = _explicit_window(grid, state.u, 1, dt)
    return CauchyState(state.t + dt, u, state.u0_sup, state.l_sup, state.step_count + 1)


def _load_compiled(name: str):
    """The compiled scipy module ``name`` (a dotted name under ``scipy``),
    loaded from its extension file without running the ``__init__`` of
    ``scipy`` or of the packages that hold it, and registered in
    ``sys.modules`` under ``name``.  A module already there, loaded this
    way or by a public import, is returned as it is, so each loads once
    per process.  A module that is not where the name says raises
    :class:`ImportError` naming it, the directory searched and the
    installed scipy version.
    """
    if name in sys.modules:
        return sys.modules[name]
    *packages, stem = name.split(".")
    root = importlib.util.find_spec(packages[0]).submodule_search_locations[0]
    directory = os.path.join(root, *packages[1:])
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, stem + suffix)
        if os.path.isfile(path):
            break
    else:
        from importlib.metadata import version

        raise ImportError(
            f"no compiled module {name} in {directory} (scipy {version(packages[0])})"
        )
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


class _BandFactor:
    """A 1-D frozen operator factored once by LAPACK's tridiagonal LU with
    partial pivoting (``dgttrf`` of ``FLAPACK``); each solve is the two
    triangular sweeps of ``dgttrs``.  These are the pivots and operations
    of the ``gtsv`` behind ``scipy.linalg.solve_banded``, so the solutions
    are the same bits.  A singular band (``info > 0``) raises
    :class:`NumericalError` here."""

    def __init__(self, band: np.ndarray):
        flapack = _load_compiled(FLAPACK)
        *self._lu, info = flapack.dgttrf(band[2, :-1], band[1], band[0, 1:])
        if info > 0:
            raise NumericalError("the frozen-policy operator is singular")
        self._dgttrs = flapack.dgttrs

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._dgttrs(*self._lu, rhs)[0]


def _csc_array(*args):
    """The ``.L`` and ``.U`` of a 2-D factor, built only when one is read:
    scipy.sparse is imported then, and never by a solve."""
    from scipy.sparse import csc_array

    return csc_array(*args)


def frozen_factor(
    grid: Grid,
    policy: np.ndarray,
    scale: float,
    shift: float,
    pin: int | None = None,
):
    """The factored :func:`hjblab.grid.frozen_matrix`; ``.solve(rhs)``
    solves ``matrix @ u = rhs``, and ``rhs`` may hold one right-hand side
    per column.

    The grid keeps the last factor, keyed on the policy bytes and the
    exact scalars; a hit returns it without rebuilding the matrix, a miss
    replaces it and adds one to ``grid.factorizations``.  The key may
    leave the stencil out because the grid's tables are read-only.  A
    singular operator raises :class:`NumericalError` when it is factored.

    In 2-D the factor is SuperLU's ``gstrf`` of the CSC arrays, whose
    ``indices`` and ``indptr`` are the grid's read-only pattern, with
    ``SUPERLU_OPTIONS``, the call and the options of
    ``scipy.sparse.linalg.splu`` with ``permc_spec="MMD_AT_PLUS_A"``,
    ``diag_pivot_thresh=0.0`` and ``SymmetricMode``, so the factor has
    the same bits: rows and columns in one multiple minimum degree order
    on ``A + A^T``, every pivot on the diagonal.  No pivoting is needed:
    the matrix is an M-matrix, diagonally dominant by rows (row sums
    ``shift >= 0``, the pinned row an identity row), any symmetric
    permutation of it is one too, and elimination keeps every Schur
    complement so, with positive pivots and element growth at most 2.
    SuperLU still reports a column whose pivot vanishes, so a singular
    operator is still refused here.
    """
    key = (policy.tobytes(), scale, shift, pin)
    if grid._frozen is not None and grid._frozen[0] == key:
        return grid._frozen[1]
    matrix = frozen_matrix(grid, policy, scale, shift, pin)
    if grid.ndim == 1:
        factor = _BandFactor(matrix)
    else:
        superlu = _load_compiled(SUPERLU)
        try:
            factor = superlu.gstrf(
                matrix.n, len(matrix.data), matrix.data, matrix.indices, matrix.indptr,
                csc_construct_func=_csc_array, ilu=False, options=SUPERLU_OPTIONS,
            )
        except RuntimeError:  # "Factor is exactly singular"
            raise NumericalError("the frozen-policy operator is singular") from None
    grid._frozen = (key, factor)
    grid.factorizations += 1
    return factor


def policy_iteration(
    grid: Grid, u: GridField, evaluate: Callable, settled: Callable | None = None
) -> tuple[GridField, int, np.ndarray | None]:
    """Howard's policy iteration from the policy that maximizes the
    operator values of ``u``.  Each sweep solves the current policy,
    ``field = evaluate(policy, sweep)``, and takes the per-node argmax of
    ``vals = control_values(grid, field)``, ties to the lowest index, as
    the next policy, until it repeats or ``settled(field, vals)`` holds;
    ``MAX_HOWARD_SWEEPS`` sweeps raise :class:`NumericalError`.  Returns
    (field, sweeps, vals); with one control ``evaluate`` runs once, on
    the zero policy, and no operator value is computed: vals is None.
    """
    if grid.n_controls == 1:
        return evaluate(np.zeros(grid.n, dtype=np.intp), 1), 1, None
    policy = np.argmax(control_values(grid, u), axis=0)
    for sweep in range(1, MAX_HOWARD_SWEEPS + 1):
        field = evaluate(policy, sweep)
        vals = control_values(grid, field)
        new_policy = np.argmax(vals, axis=0)
        if np.array_equal(new_policy, policy) or (settled is not None and settled(field, vals)):
            return field, sweep, vals
        policy = new_policy
    raise NumericalError(f"policy iteration did not settle in {MAX_HOWARD_SWEEPS} sweeps")


def howard_solve(grid: Grid, u_old: GridField, dt: float) -> tuple[GridField, int, float | None]:
    """Solve the backward Euler step u + dt H[u] = u_old by
    :func:`policy_iteration` from the policy of ``u_old``.

    Each sweep is a solve with the :func:`frozen_factor` of the frozen
    controls, checked finite; the loop also stops once the nonlinear
    residual ``|u + dt H[u] - u_old|`` drops below ``HOWARD_RESIDUAL_TOL``
    (scaled by the data size), which ends a cycle between tied policies.
    A stationary policy means the last solve already satisfies the
    Bellman step up to linear-solve roundoff.

    Returns (solution, sweeps used, final residual); with one control the
    first solve is the step, and the residual is None ("not computed").
    A grid that needs boundary data and a solve that is not finite raise
    :class:`NumericalError`.
    """
    if not dt > 0:
        raise ConfigError("dt must be positive")
    require_no_boundary_data(grid)

    def evaluate(policy, sweep):
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is left to _check_finite
            rhs = u_old + dt * policy_cost(grid, policy)
            u = frozen_factor(grid, policy, scale=dt, shift=1.0).solve(rhs)
        _check_finite(grid, u)
        return u

    def residual(u, vals):
        return float(np.abs(u + dt * np.max(vals, axis=0) - u_old).max())

    def settled(u, vals):
        scale = max(1.0, float(np.abs(u_old).max()), grid.l_sup() * dt)
        return residual(u, vals) <= HOWARD_RESIDUAL_TOL * scale

    u, sweeps, vals = policy_iteration(grid, u_old, evaluate, settled)
    return u, sweeps, None if vals is None else residual(u, vals)


def step_implicit_policy(grid: Grid, state: CauchyState, dt: float) -> CauchyState:
    """One backward Euler step by Howard policy iteration; monotone for
    any dt because each frozen-control matrix is an M-matrix.  A failed
    solve raises :class:`NumericalError` naming the time the step was to
    reach."""
    t = state.t + dt
    try:
        u, sweeps, _ = howard_solve(grid, state.u, dt)
    except NumericalError as err:
        raise NumericalError(f"{err}, t={t}") from None
    return CauchyState(t, u, state.u0_sup, state.l_sup, state.step_count + 1, sweeps)


def _check_finite(grid: Grid, u: GridField, t: float | None = None) -> None:
    if not np.isfinite(u).all():
        bad = int(np.argmax(~np.isfinite(u)))
        at = "" if t is None else f", t={t}"
        raise NumericalError(f"non-finite value at node {bad} (x={grid.x[bad].tolist()}){at}")


def _count(ratio: float, what: str) -> int:
    """``ceil(ratio)`` (up to roundoff) as a positive int; a ratio that
    overflowed to infinity is refused, not converted."""
    if not ratio < np.inf:
        raise ConfigError(f"{what} is not finite")
    return max(1, int(np.ceil(ratio - 1e-12)))


def _substeps(span: float, dt: float) -> tuple[int, float]:
    """The fewest equal steps of at most ``dt`` (up to roundoff) that cover
    ``span``, and their length."""
    count = _count(span / dt, f"the step count of a span {span} in steps of {dt}")
    return count, span / count


class MarchPlan(NamedTuple):
    """The steps of a :func:`march`: ``snapshots`` windows of length
    ``every`` after the initial state, each full one covered by ``full`` =
    (steps, sub-step) and the final one by ``last``, for the requested or
    default step ``dt``."""

    snapshots: int
    every: float
    full: tuple[int, float]
    last: tuple[int, float]
    dt: float


def plan_march(
    grid: Grid,
    T: float,
    mode: str = "explicit",
    dt: float | None = None,
    snapshot_every: float | None = None,
) -> MarchPlan:
    """Check the arguments of :func:`march` as it does and return its plan;
    a caller may refuse a run this way before any other work.

    Raises :class:`ConfigError` for a time that is not positive and finite,
    an unknown mode, an implicit run without dt, a snapshot or step count
    that overflows or exceeds ``MAX_SNAPSHOTS`` or ``MAX_STEPS``, and an
    explicit sub-step above the CFL bound, and
    :class:`NumericalError` for a grid that needs boundary data.
    """
    if not 0 < T < np.inf:
        raise ConfigError(f"T must be positive and finite, got {T}")
    if mode not in ("explicit", "implicit"):
        raise ConfigError(f"unknown stepping mode {mode!r}")
    if mode == "implicit" and dt is None:
        raise ConfigError("implicit stepping needs an explicit dt")
    if dt is not None and not 0 < dt < np.inf:
        raise ConfigError(f"dt must be positive and finite, got {dt}")
    if snapshot_every is None:
        snapshot_every = T
    if not 0 < snapshot_every < np.inf:
        raise ConfigError(f"the snapshot cadence must be positive and finite, got {snapshot_every}")
    require_no_boundary_data(grid)
    limit = np.inf if mode == "implicit" else cfl_dt(grid)
    base_dt = dt if dt is not None else 0.999 * limit
    windows = T / snapshot_every
    n_snaps = _count(windows, f"the snapshot count of T={T} every {snapshot_every}")
    if n_snaps > MAX_SNAPSHOTS:
        raise ConfigError(
            f"T={T} every {snapshot_every} makes {n_snaps} snapshots, above the cap of {MAX_SNAPSHOTS}"
        )
    full = _substeps(snapshot_every, base_dt)
    last_span = T - (n_snaps - 1) * snapshot_every
    last = full if n_snaps - windows <= 1e-9 else _substeps(last_span, base_dt)
    steps = (n_snaps - 1) * full[0] + last[0]
    if steps > MAX_STEPS:
        raise ConfigError(f"T={T} in steps of {base_dt} makes {steps} steps, above the cap of {MAX_STEPS}")
    step = max(full[1], last[1])
    if step > limit * (1 + 1e-9):
        raise ConfigError(f"dt={step} exceeds the monotonicity bound {limit}")
    return MarchPlan(n_snaps, snapshot_every, full, last, base_dt)


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
    time, not the sum of the sub-steps.  ``T``, ``dt`` and
    ``snapshot_every`` must be positive and finite, and the snapshot and
    step counts they give finite and within ``MAX_SNAPSHOTS`` and
    ``MAX_STEPS`` (:func:`plan_march`, which a caller may run first to
    refuse a bad run early).  An explicit sub-step above the CFL bound is
    refused before the first step; a non-finite value aborts with the
    offending node and the time of the step that produced it (an explicit
    window is checked once, at its end), and the a-priori bound is
    checked at every snapshot.  A grid that needs boundary data is
    refused.  Each step returns new arrays, so a yielded ``state.u`` may
    be kept as it is.  An implicit step of a problem with one control
    costs one solve (:func:`howard_solve`).

    If ``metadata`` is given, march records the run in it: the problem
    fingerprint, ``h``, ``dt`` (the requested or default step), ``mode``,
    ``snapshot_every``, ``u0_sup``, ``l_sup`` and ``steps``, and in
    implicit mode the total and the largest number of Howard sweeps per
    step and ``factorizations``, the frozen operators factored during the
    run (misses of the :func:`frozen_factor` cache: one for a fixed dt and
    policy on a fresh grid).  The counters are current at each yield.
    Nothing is checked or recorded until the first state is requested.
    """
    plan = plan_march(grid, T, mode, dt, snapshot_every)
    implicit = mode == "implicit"
    state = initial_state(grid, u0)
    record = metadata if metadata is not None else {}
    record.update(
        problem=grid.problem.fingerprint(),
        h=grid.h,
        dt=plan.dt,
        mode=mode,
        snapshot_every=plan.every,
        u0_sup=state.u0_sup,
        l_sup=state.l_sup,
        steps=0,
    )
    if implicit:
        record.update(howard_sweeps=0, max_howard_sweeps=0, factorizations=0)
    factorizations = grid.factorizations
    yield state
    for js in range(1, plan.snapshots + 1):
        count, sub = plan.full if js < plan.snapshots else plan.last
        # an overflowing step is reported by _check_finite, not by a numpy warning;
        # one errstate per window: one per explicit step adds about 14% to the step
        with np.errstate(over="ignore", invalid="ignore"):
            if implicit:
                for _ in range(count):  # each step checks its own solve
                    state = step_implicit_policy(grid, state, sub)
                    record["howard_sweeps"] += state.sweeps
                    record["max_howard_sweeps"] = max(record["max_howard_sweeps"], state.sweeps)
            else:
                u = _explicit_window(grid, state.u, count, sub)
                if not np.isfinite(u).all():
                    # a non-finite entry stays non-finite, so the stepwise
                    # replay of the window raises at the first bad step
                    for _ in range(count):
                        state = step_explicit(grid, state, sub)
                        _check_finite(grid, state.u, state.t)
                state = CauchyState(state.t, u, state.u0_sup, state.l_sup, state.step_count + count)
        state.t = min(js * plan.every, T)  # the target, without accumulated drift
        state.check_bound()
        record["steps"] = state.step_count
        if implicit:
            record["factorizations"] = grid.factorizations - factorizations
        yield state
