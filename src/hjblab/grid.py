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
``ControlProblem`` values.  Only diagonal diffusion is supported; a
control with a nonzero off-diagonal entry of a at any node is refused
with :class:`ConfigError`.  Applying the operator is a handful of
vectorized array expressions over the cached tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from . import geometry as geo
from .errors import ConfigError
from .problem import ControlProblem, quadratic_form

GridField = np.ndarray  # one real per node


@dataclass
class ControlStencil:
    """Cached stencil data of one control on one grid."""

    b_raw: np.ndarray      # (n, N) drift from the coefficient expressions
    bt: np.ndarray         # (n, N) effective advection b - div(a)
    a_diag: np.ndarray     # (n, N) diagonal diffusion at the nodes
    l: np.ndarray          # (n,) running cost
    face: np.ndarray       # (n, N, 2) face diffusivities, [minus, plus]
    face_clamped: np.ndarray   # (n, N, 2) boundary face clamped to zero
    face_dropped: np.ndarray   # (n, N, 2) boundary face kept > 0: exterior ref
    updir: np.ndarray      # (n, N) chosen upwind side, +1 forward / -1 backward
    forced: np.ndarray     # (n, N) outward advection forced inward
    coef_minus: np.ndarray  # (n, N) stencil coefficient on the minus neighbor
    coef_plus: np.ndarray   # (n, N) stencil coefficient on the plus neighbor


class Grid:
    """Uniform interior grid with cached geometry and stencil tables."""

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
        lattice = {}
        coords = []
        for j in range(-k_max, k_max + 1):
            for i in range(-k_max, k_max + 1):
                p = c + h * np.array([i, j], dtype=float)
                d = dom.radius - float(np.hypot(p[0] - c[0], p[1] - c[1]))
                if d >= h * (1 - 1e-12):
                    lattice[(i, j)] = len(coords)
                    coords.append(p)
        if len(coords) < 3:
            raise ConfigError(f"h={h} is too coarse: only {len(coords)} nodes inside the disk")
        self.x = np.array(coords)
        self.n = len(coords)
        self._nbr = np.full((self.n, 2, 2), -1, dtype=np.int64)
        for (i, j), idx in lattice.items():
            for axis, (di, dj) in ((0, (1, 0)), (1, (0, 1))):
                if (i - di, j - dj) in lattice:
                    self._nbr[idx, axis, 0] = lattice[(i - di, j - dj)]
                if (i + di, j + dj) in lattice:
                    self._nbr[idx, axis, 1] = lattice[(i + di, j + dj)]

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
        self.controls: list[ControlStencil] = []
        for ci, control in enumerate(problem.controls):
            a = problem.diffusion(x, ci)
            off = (a[:, off_diagonal] != 0.0).any(axis=1)
            if off.any():
                i = int(np.argmax(off))
                raise ConfigError(
                    f"control {control.label}: off-diagonal diffusion at node {i} "
                    f"(x={x[i].tolist()}, a={a[i].tolist()}); the scheme supports diagonal a only"
                )
            b_raw = problem.drift(x, ci)
            lvals = problem.cost(x, ci)
            a_diag = np.diagonal(a, axis1=1, axis2=2).copy()
            div_a = np.zeros((n, N))
            face = np.zeros((n, N, 2))
            for k in range(N):

                def a_kk(pts):
                    return problem.diffusion(pts, ci)[:, k, k]

                # centered difference of a_kk along axis k
                xp, xm = x.copy(), x.copy()
                xp[:, k] += fd_step
                xm[:, k] -= fd_step
                div_a[:, k] = (a_kk(xp) - a_kk(xm)) / (2 * fd_step)
                # face diffusivities at the midpoints towards existing neighbors
                for side, sign in ((0, -1.0), (1, 1.0)):
                    inner = has[:, k, side]
                    xf = x[inner]
                    xf[:, k] += sign * h / 2
                    face[inner, k, side] = a_kk(xf)
            nu = np.zeros(n)
            nu[edge] = quadratic_form(problem.diffusion(foot, ci), normal)
            small = (nu < h2)[:, None, None]
            clamped = ~has & small
            dropped = ~has & ~small
            face = np.where(dropped, nu[:, None, None], face)
            if not np.isfinite(b_raw).all() or not np.isfinite(a_diag).all() or not np.isfinite(lvals).all():
                raise ConfigError(f"control {control.label}: coefficients evaluate non-finite")

            bt = b_raw - div_a
            updir = np.where(bt >= 0.0, 1, -1).astype(np.int64)
            has_minus, has_plus = has[:, :, 0], has[:, :, 1]
            forced = np.zeros((n, N), dtype=bool)
            # flip the upwind side where its neighbor is missing
            flip_to_plus = (updir == -1) & ~has_minus
            flip_to_minus = (updir == 1) & ~has_plus
            forced |= (flip_to_plus | flip_to_minus) & (bt != 0.0)
            updir[flip_to_plus] = 1
            updir[flip_to_minus] = -1
            drift_ok = np.where(updir == 1, has_plus, has_minus)

            face_eff = face.copy()
            face_eff[:, :, 0] *= has_minus
            face_eff[:, :, 1] *= has_plus
            coef_minus = -face_eff[:, :, 0] / h2 + np.where(
                (updir == -1) & drift_ok, bt / h, 0.0
            )
            coef_plus = -face_eff[:, :, 1] / h2 + np.where(
                (updir == 1) & drift_ok, -bt / h, 0.0
            )
            self.controls.append(
                ControlStencil(
                    b_raw=b_raw,
                    bt=bt,
                    a_diag=a_diag,
                    l=lvals,
                    face=face,
                    face_clamped=clamped,
                    face_dropped=dropped,
                    updir=updir,
                    forced=forced,
                    coef_minus=coef_minus,
                    coef_plus=coef_plus,
                )
            )
        # gather indices with missing neighbors redirected to the node itself,
        # so that (u[nbr] - u) vanishes there
        self._gather_minus = np.where(has[:, :, 0], self._nbr[:, :, 0], np.arange(n)[:, None])
        self._gather_plus = np.where(has[:, :, 1], self._nbr[:, :, 1], np.arange(n)[:, None])
        # the stencil is fixed from here on: its worst explicit rate, for cfl_dt
        self._max_rate = max(
            float((np.sum(np.abs(cs.coef_minus), axis=1) + np.sum(np.abs(cs.coef_plus), axis=1)).max())
            for cs in self.controls
        )

    # -- queries -----------------------------------------------------------

    @property
    def n_controls(self) -> int:
        return len(self.controls)

    def l_sup(self) -> float:
        return max(float(np.abs(cs.l).max()) for cs in self.controls)

    def l_min_field(self) -> np.ndarray:
        return np.min(np.stack([cs.l for cs in self.controls]), axis=0)

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

    Written purely in neighbor differences so that shifting ``u`` by an
    exactly representable constant leaves the result bit-identical.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.n,):
        raise ConfigError(f"field has shape {u.shape}, expected ({grid.n},)")
    out = np.empty((grid.n_controls, grid.n))
    du_minus = u[grid._gather_minus] - u[:, None]
    du_plus = u[grid._gather_plus] - u[:, None]
    for ci, cs in enumerate(grid.controls):
        out[ci] = (
            np.sum(cs.coef_minus * du_minus, axis=1)
            + np.sum(cs.coef_plus * du_plus, axis=1)
            - cs.l
        )
    return out


def apply_H(grid: Grid, u: GridField) -> GridField:
    """Node-wise Bellman operator: max over controls of the stencil values."""
    vals = control_values(grid, u)
    return np.max(vals, axis=0)


def maximizing_policy(grid: Grid, u: GridField) -> np.ndarray:
    """Per-node maximizing control index; ties resolve to the lowest index."""
    return np.argmax(control_values(grid, u), axis=0)


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


def stencil_report(grid: Grid, include_nodes: bool = False) -> StencilReport:
    exterior = 0
    clamped = 0
    forced = 0
    min_off = np.inf
    row_err = 0.0
    for cs in grid.controls:
        exterior += int(cs.face_dropped.sum())
        clamped += int(cs.face_clamped.sum())
        forced += int(cs.forced.sum())
        # off-diagonal coefficients of the monotone update are -coef
        min_off = min(min_off, float((-cs.coef_minus).min()), float((-cs.coef_plus).min()))
        total = np.sum(cs.coef_minus, axis=1) + np.sum(cs.coef_plus, axis=1)
        diag = -total
        # relative residual of the zero-row-sum identity A[const] = 0
        row_err = max(row_err, float((np.abs(diag + total) / (1.0 + np.abs(total))).max()))
    per_node = []
    if include_nodes:
        for i in range(grid.n):
            rows = []
            for ci, cs in enumerate(grid.controls):
                rows.append(
                    {
                        "control": ci,
                        "upwind": cs.updir[i].tolist(),
                        "faces": cs.face[i].tolist(),
                        "forced_inward": bool(cs.forced[i].any()),
                        "exterior_faces": int(cs.face_dropped[i].sum()),
                        "cfl_rate": float(
                            np.sum(np.abs(cs.coef_minus[i])) + np.sum(np.abs(cs.coef_plus[i]))
                        ),
                    }
                )
            per_node.append({"node": i, "x": grid.x[i].tolist(), "d": float(grid.d[i]), "stencil": rows})
    return StencilReport(
        n_nodes=grid.n,
        n_controls=grid.n_controls,
        h=grid.h,
        exterior_reference_count=exterior,
        clamped_face_count=clamped,
        forced_inward_count=forced,
        min_offdiagonal=min_off,
        max_row_sum_error=row_err,
        cfl_dt=cfl_dt(grid),
        per_node=per_node,
    )
