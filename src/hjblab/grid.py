"""Monotone finite-difference discretization on interior grids.

The Bellman operator

    H[u] = max over controls of ( -b . Du - tr(a D2u) - l )

is discretized per control as a monotone linear stencil plus the cost:

* the second-order term is rewritten in divergence form,
  -tr(a D2u) = -div(a Du) + div(a) . Du (diagonal a), and the diffusive
  part is discretized in flux form with face diffusivities evaluated at
  face midpoints;
* the advective coefficient that remains after the rewrite,
  bt = b - div(a), is upwinded per axis and per control: a positive
  component uses the forward difference on that axis;
* at boundary-adjacent nodes the outermost face diffusivity is the
  normal diffusivity Dd^T a Dd evaluated at the nearest boundary point,
  clamped to zero whenever it falls below h^2.  Under the boundary
  degeneracy condition this closes the stencil without any exterior
  node; a face whose diffusivity survives the clamp is an exterior
  reference, counted in the stencil report and dropped from the update;
* an advective component that points outward at a boundary-adjacent
  node is discretized one-sided inward and flagged.

Grids are uniform: interior points of an interval, or the square-lattice
points of a disk whose distance to the boundary is at least h.  A build
that would lay out more than ``MAX_GRID_POINTS`` points (the interval's
interior points, the disk's whole square lattice) is refused with
:class:`ConfigError` before anything is allocated.  The build
evaluates each control's coefficients once per point set (the nodes, the
points x +- fd_step of the divergence difference, the face midpoints and
the boundary feet) through the array evaluator of :mod:`hjblab.expr`, so
the cached stencil entries are bit-identical to the pointwise
``ControlProblem`` values.  At the divergence points and the faces only
a_kk is needed, and only row k of sigma is evaluated there
(``ControlProblem.diffusion_diagonal``).  Only diagonal diffusion is
supported; a control with a nonzero off-diagonal entry of a at any node
is refused with :class:`ConfigError`.

The :class:`Grid` keeps only what the solvers read: the nodes ``x``,
the boundary distance ``d``, the costs ``l``, ``(n_controls, n)``, and
the stencil, stored once, one row per stencil side, the minus sides
first (row ``side * N + k`` for axis k): the neighbor indices
``_gather``, ``(2N, n)``, where a missing neighbor is the node itself (a
node is never its own neighbor), and the coefficients ``_coef``,
``(2N, n_controls, n)``, zero on a missing side.  In 2-D the build also
fixes the CSC pattern of every frozen operator once (``_csc_take``,
``_csc_indices``, ``_csc_indptr``).  Drift, diffusion and face
diffusivities are locals of the build.  Only this module reads the
stencil tables: :func:`control_values` reads all 2N
neighbor values with one gather and forms every control's stencil terms
with one difference and one product, so its cost per call is a fixed
handful of array operations, whatever N and the number of controls;
:func:`explicit_window` runs a window of forward Euler steps, on an
interval as a sliced kernel: the neighbors sit at constant offsets
there, so each step is a few ufunc calls on contiguous views of buffers
allocated once per window, with the bits of ``u - dt * apply_H``;
:func:`frozen_matrix` assembles the frozen-control matrix that
:func:`hjblab.cauchy.frozen_factor` factors, and :func:`generator_at`
one row of it.

How the build closed the stencil at the boundary is one record,
``Grid.closure`` (:class:`BoundaryClosure`): the boundary faces whose
normal diffusivity survived the clamp, the faces clamped and the drift
components forced inward.  A surviving face would need a boundary datum.
:func:`build_grid` and :func:`stencil_report` accept such a grid and
count those faces; every solver refuses it through
:func:`require_no_boundary_data`.  Both read their counts off the record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import expr as ex
from . import geometry as geo
from .errors import ConfigError, NumericalError, overflow_is_numerical
from .problem import ControlProblem, quadratic_form

# far above every grid the lab solves: the unit disk at h = 0.0125 has
# 19,577 nodes on a lattice of 26,569 points
MAX_GRID_POINTS = 10_000_000

GridField = np.ndarray  # one real per node


class BoundaryClosure(NamedTuple):
    """How the build closed the stencil at the boundary, summed over the
    controls.  ``exterior_faces`` counts the boundary faces whose normal
    diffusivity is at least h^2 (or not a number), ``first_exterior_node``
    is the lowest node with one (None without), ``clamped_faces`` counts
    the boundary faces clamped to zero and ``forced_inward`` the outward
    drift components discretized one-sided inward."""

    exterior_faces: int
    first_exterior_node: int | None
    clamped_faces: int
    forced_inward: int


def _check_size(h: float, points: float) -> None:
    """Refuse a build that would lay out ``points`` points (a float, so
    that a huge or non-finite count is refused, not converted)."""
    if not points <= MAX_GRID_POINTS:
        raise ConfigError(
            f"h={h} would lay out {points:.6g} grid points, above the cap of {MAX_GRID_POINTS}"
        )


class Grid:
    """Uniform interior grid with the node data and stencil tables the
    solvers read, and the build's :class:`BoundaryClosure` in ``closure``.

    Every array attribute (``x``, ``d``, ``l``, the one stencil layout
    ``_gather`` and ``_coef``, and the 2-D CSC pattern) is made read-only
    at the end of the build, so a write raises
    ``ValueError``.  :func:`hjblab.cauchy.frozen_factor` relies on it,
    since it keeps the last factored frozen operator in ``_frozen`` keyed
    on the policy and the scalars alone.  ``factorizations`` counts the
    misses of that cache: the frozen operators built into a factor.
    """

    def __init__(self, problem: ControlProblem, h: float):
        if not h > 0:
            raise ConfigError("h must be positive")
        self.problem = problem
        self.domain = problem.domain
        self.h = float(h)
        self.ndim = problem.dim
        self._build_nodes()
        self.d = geo.distance_value(self.domain, self.x)
        with overflow_is_numerical("the stencil coefficients overflow a double"):
            self._build_stencils()
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        self._frozen = None  # (key, factor) of the last frozen operator
        self.factorizations = 0

    # -- construction -----------------------------------------------------

    def _build_nodes(self):
        dom, h = self.domain, self.h
        if isinstance(dom, geo.Interval):
            length = dom.x_hi - dom.x_lo
            ratio = length / h
            _check_size(h, ratio - 1)
            if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
                raise ConfigError(f"h={h} does not divide the interval length {length}")
            n = int(round(ratio)) - 1
            if n < 3:
                raise ConfigError(f"h={h} is too coarse: only {n} interior nodes")
            self.x = (dom.x_lo + h * np.arange(1, n + 1)).reshape(-1, 1)
            self.n = n
            nodes = np.arange(n)
            self._gather = np.stack([np.maximum(nodes - 1, 0), np.minimum(nodes + 1, n - 1)])
            return

        if h > dom.radius / 2:
            raise ConfigError(f"h={h} is too coarse for a disk of radius {dom.radius}")
        reach = float(np.floor(dom.radius / h))
        side = 2 * reach + 3  # 2 k_max + 1 lattice points
        _check_size(h, side * side)
        c = np.asarray(dom.center, dtype=float)
        k_max = int(reach) + 1
        steps = h * np.arange(-k_max, k_max + 1, dtype=float)
        # lattice point (i, j) sits at [j + k_max, i + k_max]; nodes are
        # numbered row by row (j outer, i inner)
        p1, p2 = np.meshgrid(c[0] + steps, c[1] + steps)
        inside = dom.radius - np.hypot(p1 - c[0], p2 - c[1]) >= h * (1 - 1e-12)
        n = int(inside.sum())
        if n < 3:
            raise ConfigError(f"h={h} is too coarse: only {n} nodes inside the disk")
        self.x = np.stack([p1[inside], p2[inside]], axis=1)
        self.n = n
        # node index per lattice point, padded by a ring of -1 so that every
        # node's four lattice neighbors can be read by offset
        index = np.full((inside.shape[0] + 2, inside.shape[1] + 2), -1, dtype=np.int64)
        index[1:-1, 1:-1][inside] = np.arange(n)
        rows, cols = np.nonzero(inside)
        rows, cols = rows + 1, cols + 1
        nbr = np.stack([
            index[rows, cols - 1], index[rows - 1, cols], index[rows, cols + 1], index[rows + 1, cols]
        ])
        self._gather = np.where(nbr < 0, np.arange(n), nbr)

    def _build_stencils(self):
        problem, h, x = self.problem, self.h, self.x
        n, N = self.n, self.ndim
        fd_step = 1e-6 * geo.diameter(self.domain)
        h2 = h * h
        nodes = np.arange(n)
        # (2N, n): the stencil sides that have a neighbor
        has = self._gather != nodes
        # nodes with a missing neighbor take their outer face from the
        # normal diffusivity at the nearest boundary point
        edge = ~has.all(axis=0)
        foot, normal = geo.boundary_foot(self.domain, x[edge])
        off_diagonal = ~np.eye(N, dtype=bool)
        C = len(problem.controls)
        self.l = np.empty((C, n))
        # (n_controls, n, N, 2), the minus side first: face diffusivities
        # towards existing neighbors, zero on a missing side
        face = np.zeros((C, n, N, 2))
        bt = np.empty((C, n, N))  # effective advection b - div(a)
        nu = np.zeros((C, n))
        # away from the nodes the build reads a_kk alone, from row k of sigma:
        # the full a is needed only at the nodes (the off-diagonal refusal)
        # and at the boundary feet (the normal diffusivity)
        a_kk = problem.diffusion_diagonal
        for ci, control in enumerate(problem.controls):
            a = problem.diffusion(x, ci)
            off = (a[:, off_diagonal] != 0.0).any(axis=1)
            if off.any():
                i = int(np.argmax(off))
                raise ConfigError(
                    f"control {control.label}: off-diagonal diffusion at node {i} "
                    f"(x={x[i].tolist()}, a={a[i].tolist()}); the scheme supports diagonal a only"
                )
            b = problem.drift(x, ci)
            self.l[ci] = problem.cost(x, ci)
            for k in range(N):
                # centered difference of a_kk along axis k
                xp, xm = x.copy(), x.copy()
                xp[:, k] += fd_step
                xm[:, k] -= fd_step
                bt[ci, :, k] = b[:, k] - (a_kk(xp, ci, k) - a_kk(xm, ci, k)) / (2 * fd_step)
                # face diffusivities at the midpoints towards existing neighbors
                for side, sign in ((0, -1.0), (1, 1.0)):
                    inner = has[side * N + k]
                    xf = x[inner]
                    xf[:, k] += sign * h / 2
                    face[ci, inner, k, side] = a_kk(xf, ci, k)
            nu[ci, edge] = quadratic_form(problem.diffusion(foot, ci), normal)
            # a is diagonal here, so its finiteness is its diagonal's
            if not (np.isfinite(b).all() and np.isfinite(a).all() and np.isfinite(self.l[ci]).all()):
                raise ConfigError(f"control {control.label}: coefficients evaluate non-finite")

        has_minus, has_plus = has[:N].T, has[N:].T  # (n, N), as bt per control
        # upwind on the plus side where bt >= 0, flipped where that
        # neighbor is missing; a node missing both takes no drift term
        up = bt >= 0.0
        flip = np.where(up, ~has_plus, ~has_minus)
        up ^= flip
        minus = -face[..., 0] / h2 + np.where(~up & has_minus, bt / h, 0.0)
        plus = -face[..., 1] / h2 + np.where(up & has_plus, -bt / h, 0.0)
        # every missing side is a boundary face: clamped where the normal
        # diffusivity is below h^2, an exterior reference otherwise (nu is
        # zero at a node with no missing side)
        missing = 2 * N - has.sum(axis=0)
        clamped = nu < h2
        exterior = ~clamped
        self.closure = BoundaryClosure(
            exterior_faces=int((exterior * missing).sum()),
            first_exterior_node=int(np.argmax(exterior.any(axis=0))) if exterior.any() else None,
            clamped_faces=int((clamped * missing).sum()),
            forced_inward=int((flip & (bt != 0.0)).sum()),
        )
        # the one coefficient table, (2N, n_controls, n) in the row order of
        # _gather; a missing side has coefficient zero
        self._coef = np.ascontiguousarray(np.concatenate([minus, plus], axis=2).transpose(2, 0, 1))
        if N > 1:
            # the CSC pattern of every 2-D frozen_matrix: the diagonal and each
            # in-grid neighbor, whatever the policy and the value, as positions
            # in the stacked (2N + 1, n) values [diag; coef], columns in order
            # and the rows of each ascending; the neighbors of a node are
            # distinct lattice points, so no (row, column) repeats
            entries = np.flatnonzero(np.vstack([np.ones(n, dtype=bool), has]))
            cols = np.vstack([nodes, self._gather]).ravel()[entries]
            self._csc_take = entries[np.argsort(cols * n + entries % n)]
            self._csc_indices = (self._csc_take % n).astype(np.intc)
            self._csc_indptr = np.zeros(n + 1, dtype=np.intc)
            np.cumsum(np.bincount(cols, minlength=n), out=self._csc_indptr[1:])
        else:
            self._csc_take = self._csc_indices = self._csc_indptr = None
        # the stencil is fixed from here on: its worst explicit rate, for cfl_dt
        self._max_rate = float(_explicit_rates(self).max())

    # -- queries -----------------------------------------------------------

    @property
    def n_controls(self) -> int:
        return self.l.shape[0]

    def l_sup(self) -> float:
        return float(np.abs(self.l).max())

    def field_from_expr(self, source: str) -> GridField:
        tree = ex.parse(source)
        extra = ex.free_vars(tree) - ({"x1", "d"} if self.ndim == 1 else {"x1", "x2", "d"})
        if extra:
            raise ConfigError(f"initial field uses unavailable variable(s) {sorted(extra)}")
        return ex.evaluate(tree, self.problem.bindings(self.x))


def build_grid(problem: ControlProblem, h: float) -> Grid:
    """Build the interior grid with all coefficient caches filled."""
    return Grid(problem, h)


def control_values(grid: Grid, u: GridField) -> np.ndarray:
    """Per-control operator values (n_controls, n): A_c u - l_c.

    One gather of all 2N neighbor values, one difference and one product
    with the stacked coefficient table, written purely in neighbor
    differences so that shifting ``u`` by an exactly representable
    constant leaves the result bit-identical.  The side terms are added
    left to right, ``(m_1 + .. + m_N) + (p_1 + .. + p_N) - l``, in place.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.n,):
        raise ConfigError(f"field has shape {u.shape}, expected ({grid.n},)")
    N = grid.ndim
    diffs = u[grid._gather]
    diffs -= u
    terms = grid._coef * diffs[:, None]
    minus, plus = terms[0], terms[N]
    for k in range(1, N):
        minus += terms[k]
        plus += terms[N + k]
    minus += plus
    minus -= grid.l
    return minus


def apply_H(grid: Grid, u: GridField) -> GridField:
    """Node-wise Bellman operator: max over controls of the stencil values."""
    return np.maximum.reduce(control_values(grid, u), axis=0)


def explicit_window(grid: Grid, u: GridField, count: int, dt: float) -> GridField:
    """``count`` forward Euler steps ``u - dt H[u]`` of ``dt`` from ``u``,
    unchecked: the caller has checked dt against the CFL bound and checks
    the result for finiteness.  ``u`` is not modified, and the result is a
    new array.

    On a disk, whose neighbors are not at constant offsets, each step is
    ``u - dt * apply_H(grid, u)``.  On an interval they are, so the window
    allocates its buffers once and runs each step as a few ufunc calls on
    contiguous views, with no gather and no temporary: the neighbor
    differences, the side products, ``(m + p) - l``, the maximum over the
    controls in index order and ``u - dt H``.  These are the operations of
    :func:`control_values`, :func:`apply_H` and ``u - dt * H``, in the same
    order, so every step has the same bits on a finite field; a missing
    side keeps the +0.0 that ``u_i - u_i`` gives there.
    """
    u = np.array(u, dtype=float)
    if grid.ndim > 1:
        for _ in range(count):
            u = u - dt * apply_H(grid, u)
        return u
    n, C = grid.n, grid.n_controls
    if u.shape != (n,):
        raise ConfigError(f"field has shape {u.shape}, expected ({n},)")
    diffs = np.zeros((2, n))  # the minus and plus side; a missing side stays +0.0
    terms = np.empty((2, C, n))
    values, plus_terms = terms  # values: (C, n), A_c u - l_c once the sides are summed
    H = values[0] if C == 1 else np.empty(n)
    fields = (u, np.empty(n))
    # every view a step reads or writes, built once; the two fields swap
    # roles each step, and step k reads fields[k % 2]
    roles = [(cur[:-1], cur[1:], cur, nxt) for cur, nxt in (fields, fields[::-1])]
    minus, plus, l = diffs[0, 1:], diffs[1, :-1], grid.l
    products = [(grid._coef[s, c], diffs[s], terms[s, c]) for s in range(2) for c in range(C)]
    maxima = [(values[0], values[1])] + [(H, v) for v in values[2:]] if C > 1 else []
    add, subtract, multiply, maximum = np.add, np.subtract, np.multiply, np.maximum
    for k in range(count):
        left, right, cur, nxt = roles[k & 1]
        subtract(left, right, minus)
        subtract(right, left, plus)
        for coef, side, term in products:
            multiply(coef, side, term)
        add(values, plus_terms, values)
        subtract(values, l, values)
        for a, b in maxima:
            maximum(a, b, out=H)  # a positional out is deprecated for maximum
        multiply(H, dt, H)
        subtract(cur, H, nxt)
    return fields[count & 1]


def require_no_boundary_data(grid: Grid) -> None:
    """Refuse a grid whose stencil needs boundary data.

    A boundary face whose normal diffusivity is at least h^2 is an exterior
    reference: the scheme would treat it as zero flux, which is a boundary
    condition the problem does not supply.  Reads the build's
    ``grid.closure`` and raises :class:`NumericalError` naming the count
    of such faces and the first node that has one.
    """
    closure = grid.closure
    if not closure.exterior_faces:
        return
    i = closure.first_exterior_node
    raise NumericalError(
        f"{closure.exterior_faces} boundary faces keep a normal diffusivity of at "
        f"least h^2, first at node {i} (x={grid.x[i].tolist()}): the problem is not "
        "degenerate there and would need boundary data"
    )


def _side_sums(grid: Grid, coef: np.ndarray) -> np.ndarray:
    """The sum over each stencil of stacked per-side values ``(2N, ...)``,
    ``(m_1 + .. + m_N) + (p_1 + .. + p_N)``."""
    N = grid.ndim
    return coef[:N].sum(axis=0) + coef[N:].sum(axis=0)


def _explicit_rates(grid: Grid) -> np.ndarray:
    """(n_controls, n) explicit update rates: the sum of |coef| over each stencil."""
    return _side_sums(grid, np.abs(grid._coef))


def policy_cost(grid: Grid, policy: np.ndarray) -> GridField:
    """The running cost under frozen per-node controls, ``l[policy[i], i]``;
    with one control it is the grid's own read-only row, with no gather."""
    return grid.l[0] if grid.n_controls == 1 else grid.l[policy, np.arange(grid.n)]


def generator_at(grid: Grid, control: int, node: int, u: np.ndarray):
    """``(A_control u)[node]``, the frozen generator's row of one node, in
    neighbor differences; ``u`` is a field or one field per column."""
    N = grid.ndim
    coef = grid._coef[:, control, node]
    diffs = u[grid._gather[:, node]] - u[node]
    return coef[:N] @ diffs[:N] + coef[N:] @ diffs[N:]


class CscMatrix(NamedTuple):
    """A square matrix of order ``n`` in compressed sparse column form:
    column j holds rows ``indices[indptr[j]:indptr[j + 1]]``, ascending,
    with values ``data[indptr[j]:indptr[j + 1]]``.  This is the canonical
    form that scipy.sparse reaches after ``sum_duplicates``, the layout
    ``splu`` hands to SuperLU, entries of value zero included.  A frozen
    matrix shares ``indices`` and ``indptr`` with its grid, read-only."""

    data: np.ndarray
    indices: np.ndarray  # intc
    indptr: np.ndarray  # intc
    n: int


def frozen_matrix(
    grid: Grid,
    policy: np.ndarray,
    scale: float,
    shift: float,
    pin: int | None = None,
):
    """The matrix ``shift I + scale A_policy`` for frozen per-node controls.

    ``(A_policy u)_i = sum of coef * (u_j - u_i)`` over the neighbours j
    in the stencil of the control ``policy[i]``, so
    ``control_values(grid, u)[policy[i], i]`` is ``(A_policy u)_i - l``.  Row i takes its coefficients from the
    stacked table ``grid._coef`` (2N, n_controls, n) at ``[:, policy[i],
    i]``, one fancy index for all rows.  With ``pin`` the row of that
    node becomes the identity row.  Returned as the (3, n) band of
    ``scipy.linalg.solve_banded`` in 1-D and in 2-D as a
    :class:`CscMatrix`: one gather of the stacked values ``[diag; scale
    coef]`` through the grid's CSC pattern.  That pattern is the
    diagonal and every in-grid neighbour, whatever the policy and
    whatever the value, so a zero coefficient stays an entry and the
    fill-reducing order depends on the grid alone.
    """
    n = grid.n
    coef = grid._coef[:, policy, np.arange(n)]
    diag = shift - scale * _side_sums(grid, coef)
    if pin is not None:
        coef[:, pin] = 0.0
        diag[pin] = 1.0
    if grid.ndim == 1:
        ab = np.zeros((3, n))
        ab[1] = diag
        ab[0, 1:] = scale * coef[1, :-1]
        ab[2, :-1] = scale * coef[0, 1:]
        return ab
    data = np.vstack([diag, scale * coef]).take(grid._csc_take)
    return CscMatrix(data, grid._csc_indices, grid._csc_indptr, n)


def cfl_dt(grid: Grid) -> float:
    """Largest explicit step that keeps every frozen-control update monotone.

    1 / max over nodes and controls of (sum of axis |bt|/h + sum of face
    diffusivities / h^2); the maximum is taken once, when the grid is built.
    """
    if grid._max_rate == 0.0:
        raise ConfigError("degenerate problem: the operator vanishes identically")
    return 1.0 / grid._max_rate


@dataclass
class StencilReport:
    """Stencil diagnostics; exterior_reference_count == 0 is the discrete
    statement that the problem needs no boundary data."""

    n_nodes: int
    n_controls: int
    h: float
    exterior_reference_count: int
    clamped_face_count: int
    forced_inward_count: int
    min_offdiagonal: float
    max_row_sum_error: float
    cfl_dt: float


def _row_sums(grid: Grid, matrix) -> np.ndarray:
    """Row sums of a :func:`frozen_matrix`: in 1-D the diagonal plus the
    off-diagonal sum of the band, in 2-D the CSC entries summed by row, in
    column order, as a CSC product with ones adds them."""
    if grid.ndim == 1:
        off = np.zeros(grid.n)
        off[:-1] = matrix[0, 1:]
        off[1:] += matrix[2, :-1]
        return matrix[1] + off
    return np.bincount(matrix.indices, weights=matrix.data, minlength=grid.n)


def stencil_report(grid: Grid) -> StencilReport:
    # off-diagonal entries of the monotone update are -coef, on the sides
    # that have a neighbor
    has = (grid._gather != np.arange(grid.n))[:, None]
    min_off = -float(np.where(has, grid._coef, -np.inf).max())
    # relative residual of the zero-row-sum identity A[const] = 0, read off
    # each control's assembled generator
    row_err = 0.0
    for ci in range(grid.n_controls):
        matrix = frozen_matrix(grid, np.full(grid.n, ci), 1.0, 0.0)
        total = _side_sums(grid, grid._coef[:, ci])
        err = np.abs(_row_sums(grid, matrix)) / (1.0 + np.abs(total))
        row_err = max(row_err, float(err.max()))
    closure = grid.closure
    return StencilReport(
        n_nodes=grid.n,
        n_controls=grid.n_controls,
        h=grid.h,
        exterior_reference_count=closure.exterior_faces,
        clamped_face_count=closure.clamped_faces,
        forced_inward_count=closure.forced_inward,
        min_offdiagonal=min_off,
        max_row_sum_error=row_err,
        cfl_dt=cfl_dt(grid),
    )
