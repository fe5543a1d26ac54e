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
points of a disk whose distance to the boundary is at least h.  The build
evaluates each control's coefficients once per point set (the nodes, the
points x +- fd_step of the divergence difference, the face midpoints and
the boundary feet) through the array evaluator of :mod:`hjblab.expr`, so
the cached stencil entries are bit-identical to the pointwise
``ControlProblem`` values.  At the divergence points and the faces only
a_kk is needed, and only row k of sigma is evaluated there
(``ControlProblem.diffusion_diagonal``).  Only diagonal diffusion is
supported; a control with a nonzero off-diagonal entry of a at any node
is refused with :class:`ConfigError`.

The per-control data are stacked tables on the :class:`Grid`, the
control index first: ``coef_minus``, ``coef_plus``, ``b_raw``, ``a_diag``,
``updir`` and ``forced`` are ``(n_controls, n, N)``, ``l`` is
``(n_controls, n)`` and ``face``, ``face_clamped`` and ``face_dropped`` are
``(n_controls, n, N, 2)`` with the minus side first.  Every solver reads
or indexes these tables, and a frozen policy picks its rows with one
fancy index.  For :func:`control_values` the build also stacks the two
sides of every axis into one row per stencil side, the minus sides
first: the neighbor gather indices ``_gather``, ``(2N, n)``, and the
coefficients ``_coef``, ``(2N, n_controls, n)``.  The kernel reads all
2N neighbor values with one gather and forms every control's stencil
terms with one difference and one product, so its cost per call is a
fixed handful of array operations, whatever N and the number of
controls.

A boundary face whose normal diffusivity survives the clamp would need a
boundary datum.  :func:`build_grid` and :func:`stencil_report` accept such
a grid and count those faces; every solver refuses it through
:func:`require_no_boundary_data`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from . import geometry as geo
from .errors import ConfigError, NumericalError
from .problem import ControlProblem, quadratic_form

GridField = np.ndarray  # one real per node


class Grid:
    """Uniform interior grid with cached geometry and stencil tables.

    The node, geometry and stencil tables are immutable after the build:
    nothing writes to them, and :func:`hjblab.cauchy.frozen_factor` relies
    on it, since it keeps the last factored frozen operator in ``_frozen``
    keyed on the policy and the scalars alone.  ``factorizations`` counts
    the misses of that cache: the frozen operators built into a factor.
    """

    def __init__(self, problem: ControlProblem, h: float):
        if not h > 0:
            raise ConfigError("h must be positive")
        self.problem = problem
        self.domain = problem.domain
        self.h = float(h)
        self.ndim = problem.dim
        self._build_nodes()
        self._build_geometry()
        self._build_stencils()
        self._frozen = None  # (key, factor) of the last frozen operator
        self.factorizations = 0

    # -- construction -----------------------------------------------------

    def _build_nodes(self):
        dom, h = self.domain, self.h
        if isinstance(dom, geo.Interval):
            length = dom.x_hi - dom.x_lo
            ratio = length / h
            if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
                raise ConfigError(f"h={h} does not divide the interval length {length}")
            n = int(round(ratio)) - 1
            if n < 3:
                raise ConfigError(f"h={h} is too coarse: only {n} interior nodes")
            self.x = (dom.x_lo + h * np.arange(1, n + 1)).reshape(-1, 1)
            self.n = n
            self._nbr = np.full((n, 1, 2), -1, dtype=np.int64)
            self._nbr[1:, 0, 0] = np.arange(n - 1)
            self._nbr[:-1, 0, 1] = np.arange(1, n)
            return

        if h > dom.radius / 2:
            raise ConfigError(f"h={h} is too coarse for a disk of radius {dom.radius}")
        c = np.asarray(dom.center, dtype=float)
        k_max = int(np.floor(dom.radius / h)) + 1
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
        self._nbr = np.empty((n, 2, 2), dtype=np.int64)
        self._nbr[:, 0, 0] = index[rows, cols - 1]
        self._nbr[:, 0, 1] = index[rows, cols + 1]
        self._nbr[:, 1, 0] = index[rows - 1, cols]
        self._nbr[:, 1, 1] = index[rows + 1, cols]

    def _build_geometry(self):
        dom = self.domain
        n, N = self.n, self.ndim
        self.d = np.zeros(n)
        self.Dd = np.zeros((n, N))
        self.D2d = np.zeros((n, N, N))
        regular = np.ones(n, dtype=bool)
        if isinstance(dom, geo.Disk):
            # the gradient is undefined at the center; the node is far from
            # the collar, nothing downstream uses its Dd and D2d entries
            regular = ~np.isclose(self.x, dom.center).all(axis=1)
            self.d[~regular] = dom.radius
        self.d[regular], self.Dd[regular], self.D2d[regular] = geo.distance(dom, self.x[regular])

    def _build_stencils(self):
        problem, h, x = self.problem, self.h, self.x
        n, N = self.n, self.ndim
        fd_step = 1e-6 * geo.diameter(self.domain)
        h2 = h * h
        has = self._nbr >= 0
        # nodes with a missing neighbor take their outer face from the
        # normal diffusivity at the nearest boundary point
        edge = ~has.all(axis=(1, 2))
        foot, normal = geo.boundary_foot(self.domain, x[edge])
        off_diagonal = ~np.eye(N, dtype=bool)
        C = len(problem.controls)
        self.b_raw = np.empty((C, n, N))
        self.a_diag = np.empty((C, n, N))
        self.l = np.empty((C, n))
        self.face = np.zeros((C, n, N, 2))
        bt = np.empty((C, n, N))  # effective advection b - div(a); only the build reads it
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
            self.b_raw[ci] = problem.drift(x, ci)
            self.l[ci] = problem.cost(x, ci)
            self.a_diag[ci] = np.diagonal(a, axis1=1, axis2=2)
            for k in range(N):
                # centered difference of a_kk along axis k
                xp, xm = x.copy(), x.copy()
                xp[:, k] += fd_step
                xm[:, k] -= fd_step
                bt[ci, :, k] = self.b_raw[ci, :, k] - (a_kk(xp, ci, k) - a_kk(xm, ci, k)) / (2 * fd_step)
                # face diffusivities at the midpoints towards existing neighbors
                for side, sign in ((0, -1.0), (1, 1.0)):
                    inner = has[:, k, side]
                    xf = x[inner]
                    xf[:, k] += sign * h / 2
                    self.face[ci, inner, k, side] = a_kk(xf, ci, k)
            nu[ci, edge] = quadratic_form(problem.diffusion(foot, ci), normal)
            if not (
                np.isfinite(self.b_raw[ci]).all()
                and np.isfinite(self.a_diag[ci]).all()
                and np.isfinite(self.l[ci]).all()
            ):
                raise ConfigError(f"control {control.label}: coefficients evaluate non-finite")

        small = (nu < h2)[:, :, None, None]
        self.face_clamped = ~has & small
        self.face_dropped = ~has & ~small
        self.face = np.where(self.face_dropped, nu[:, :, None, None], self.face)
        has_minus, has_plus = has[:, :, 0], has[:, :, 1]
        updir = np.where(bt >= 0.0, 1, -1).astype(np.int64)
        # flip the upwind side where its neighbor is missing
        flip_to_plus = (updir == -1) & ~has_minus
        flip_to_minus = (updir == 1) & ~has_plus
        self.forced = (flip_to_plus | flip_to_minus) & (bt != 0.0)
        updir[flip_to_plus] = 1
        updir[flip_to_minus] = -1
        self.updir = updir
        drift_ok = np.where(updir == 1, has_plus, has_minus)
        self.coef_minus = -(self.face[..., 0] * has_minus) / h2 + np.where(
            (updir == -1) & drift_ok, bt / h, 0.0
        )
        self.coef_plus = -(self.face[..., 1] * has_plus) / h2 + np.where(
            (updir == 1) & drift_ok, -bt / h, 0.0
        )
        # the kernel's tables, one C-contiguous row per stencil side, the minus
        # sides first: (2N, n) gather indices with missing neighbors redirected
        # to the node itself, so that (u[nbr] - u) vanishes there, and the
        # (2N, n_controls, n) coefficients in the same row order
        self._gather = np.empty((2 * N, n), dtype=np.int64)
        self._coef = np.empty((2 * N, C, n))
        for side, coef in enumerate((self.coef_minus, self.coef_plus)):
            self._gather[side * N : (side + 1) * N] = self._nbr[:, :, side].T
            self._coef[side * N : (side + 1) * N] = coef.transpose(2, 0, 1)
        missing = self._gather < 0
        self._gather[missing] = np.nonzero(missing)[1]
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


def require_no_boundary_data(grid: Grid) -> None:
    """Refuse a grid whose stencil needs boundary data.

    A boundary face whose normal diffusivity is at least h^2 is an exterior
    reference (``face_dropped``): the scheme would treat it as zero flux,
    which is a boundary condition the problem does not supply.  Raises
    :class:`NumericalError` naming the count of such faces and the first
    node that has one.
    """
    if not grid.face_dropped.any():
        return
    i = int(np.argmax(grid.face_dropped.any(axis=(0, 2, 3))))
    raise NumericalError(
        f"{int(grid.face_dropped.sum())} boundary faces keep a normal diffusivity of at "
        f"least h^2, first at node {i} (x={grid.x[i].tolist()}): the problem is not "
        "degenerate there and would need boundary data"
    )


def maximizing_policy(grid: Grid, u: GridField) -> np.ndarray:
    """Per-node maximizing control index; ties resolve to the lowest index."""
    return np.argmax(control_values(grid, u), axis=0)


def _explicit_rates(grid: Grid) -> np.ndarray:
    """(n_controls, n) explicit update rates: the sum of |coef| over each stencil."""
    return np.abs(grid.coef_minus).sum(axis=2) + np.abs(grid.coef_plus).sum(axis=2)


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
    per_node: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "n_nodes": self.n_nodes,
            "n_controls": self.n_controls,
            "h": self.h,
            "exterior_reference_count": self.exterior_reference_count,
            "clamped_face_count": self.clamped_face_count,
            "forced_inward_count": self.forced_inward_count,
            "min_offdiagonal": self.min_offdiagonal,
            "max_row_sum_error": self.max_row_sum_error,
            "cfl_dt": self.cfl_dt,
            "per_node": self.per_node,
        }


def _row_sums(grid: Grid, matrix) -> np.ndarray:
    """Row sums of a :func:`hjblab.cauchy.frozen_matrix`: in 1-D the
    diagonal plus the off-diagonal sum of the band, in 2-D the sparse rows."""
    if grid.ndim == 1:
        off = np.zeros(grid.n)
        off[:-1] = matrix[0, 1:]
        off[1:] += matrix[2, :-1]
        return matrix[1] + off
    return matrix @ np.ones(grid.n)


def stencil_report(grid: Grid, include_nodes: bool = False) -> StencilReport:
    from .cauchy import frozen_matrix  # cauchy imports this module

    # off-diagonal coefficients of the monotone update are -coef
    min_off = min(float((-grid.coef_minus).min()), float((-grid.coef_plus).min()))
    # relative residual of the zero-row-sum identity A[const] = 0, read off
    # each control's assembled generator
    row_err = 0.0
    for ci in range(grid.n_controls):
        matrix = frozen_matrix(grid, np.full(grid.n, ci), 1.0, 0.0)
        total = grid.coef_minus[ci].sum(axis=1) + grid.coef_plus[ci].sum(axis=1)
        err = np.abs(_row_sums(grid, matrix)) / (1.0 + np.abs(total))
        row_err = max(row_err, float(err.max()))
    per_node = []
    if include_nodes:
        # node-major nested lists: [node][control] ...
        columns = zip(
            grid.updir.transpose(1, 0, 2).tolist(),
            grid.face.transpose(1, 0, 2, 3).tolist(),
            grid.forced.any(axis=2).T.tolist(),
            grid.face_dropped.sum(axis=(2, 3)).T.tolist(),
            _explicit_rates(grid).T.tolist(),
        )
        for i, (x, d, stencil) in enumerate(zip(grid.x.tolist(), grid.d.tolist(), columns)):
            rows = [
                {"control": ci, "upwind": up, "faces": faces, "forced_inward": forced,
                 "exterior_faces": exterior, "cfl_rate": rate}
                for ci, (up, faces, forced, exterior, rate) in enumerate(zip(*stencil))
            ]
            per_node.append({"node": i, "x": x, "d": d, "stencil": rows})
    return StencilReport(
        n_nodes=grid.n,
        n_controls=grid.n_controls,
        h=grid.h,
        exterior_reference_count=int(grid.face_dropped.sum()),
        clamped_face_count=int(grid.face_clamped.sum()),
        forced_inward_count=int(grid.forced.sum()),
        min_offdiagonal=min_off,
        max_row_sum_error=row_err,
        cfl_dt=cfl_dt(grid),
        per_node=per_node,
    )
