"""Domains and their exact distance fields.

Supported domains are open intervals and open disks; for both, the
boundary distance, its gradient and its Hessian are analytic:

* interval (lo, hi): d = min(x - lo, hi - x), Dd = +1 on the left half
  and -1 on the right half, D2d = 0 (d is not twice differentiable at
  the midpoint; the Hessian returned there is 0, and nothing outside the
  boundary collar ever uses it);
* disk of radius R around c: d = R - |x - c|, Dd = -(x - c)/|x - c|,
  D2d = -(I - n n^T)/|x - c| with n the unit radial direction.

The point functions take one point or a block of points (m, N) and
return per-point values of the matching shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

DISK_DIRECTIONS = 16  # boundary rays of a disk's collar ladder


@dataclass(frozen=True)
class Interval:
    """The open interval (x_lo, x_hi); refuses x_lo >= x_hi (or a NaN
    end) and a length x_hi - x_lo that is not a finite double."""

    x_lo: float
    x_hi: float

    def __post_init__(self):
        if not self.x_lo < self.x_hi:
            raise ConfigError(f"interval needs x_lo < x_hi, got ({self.x_lo}, {self.x_hi})")
        if not np.isfinite(self.x_hi - self.x_lo):
            raise ConfigError(f"interval ({self.x_lo}, {self.x_hi}) has no finite length")


@dataclass(frozen=True)
class Disk:
    """The open disk of ``radius`` around ``center``; refuses a radius
    that is not positive, a diameter 2 radius that is not a finite
    double, and a center without two coordinates."""

    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ConfigError(f"disk needs radius > 0, got {self.radius}")
        if not np.isfinite(diameter(self)):
            raise ConfigError(f"disk of radius {self.radius} has no finite diameter")
        if len(self.center) != 2:
            raise ConfigError("disk center must have two coordinates")


Domain = Interval | Disk


def dim(dom: Domain) -> int:
    return 1 if isinstance(dom, Interval) else 2


def diameter(dom: Domain) -> float:
    if isinstance(dom, Interval):
        return dom.x_hi - dom.x_lo
    return 2.0 * dom.radius


def inradius(dom: Domain) -> float:
    if isinstance(dom, Interval):
        return 0.5 * (dom.x_hi - dom.x_lo)
    return dom.radius


def collar_width(dom: Domain) -> float:
    """Width of the boundary collar on which d is smooth and certificates live."""
    return 0.5 * inradius(dom)


def as_points(dom: Domain, x) -> tuple[np.ndarray, bool]:
    """``x`` as an (m, N) block of points, and whether it was one point.

    One point is a scalar or a length-N vector; a block is (m, N).
    """
    pts = np.asarray(x, dtype=float)
    single = pts.ndim < 2
    pts = pts.reshape(1, -1) if single else pts
    if pts.ndim != 2 or pts.shape[1] != dim(dom):
        raise ConfigError(f"points must have {dim(dom)} coordinates, got shape {np.shape(x)}")
    return pts, single


def _radius(dom: Disk, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Offsets of the points from the center, component-major (2, m), and
    their lengths (m,)."""
    delta = np.stack([pts[:, k] - float(c) for k, c in enumerate(dom.center)])
    return delta, np.hypot(delta[0], delta[1])


def distance_value(dom: Domain, x):
    """Boundary distance alone; valid on the closed domain (d = 0 on the
    boundary is allowed, unlike :func:`distance`).  A float for one
    point, an (m,) array for a block of points."""
    pts, single = as_points(dom, x)
    if isinstance(dom, Interval):
        d = np.minimum(pts[:, 0] - dom.x_lo, dom.x_hi - pts[:, 0])
    else:
        d = dom.radius - _radius(dom, pts)[1]
    outside = d < -1e-12 * diameter(dom)
    if outside.any():
        raise ConfigError(f"point {pts[np.argmax(outside)].tolist()} lies outside the domain")
    d = np.maximum(d, 0.0)
    return float(d[0]) if single else d


def distance(dom: Domain, x):
    """Distance triple (d, Dd, D2d) at strictly interior points.

    For one point: a float, an (N,) and an (N, N) array.  For a block of
    points (m, N): arrays of shape (m,), (m, N) and (m, N, N).  On a disk
    Dd and D2d are built component by component, each entry a contiguous
    (m,) row, and returned as transposed views in those shapes, the
    layout of :meth:`ControlProblem._values`.  Raises
    :class:`ConfigError` if any point lies outside the domain or at the
    disk center, where Dd is undefined.
    """
    pts, single = as_points(dom, x)
    m = len(pts)
    if isinstance(dom, Interval):
        left = pts[:, 0] - dom.x_lo
        right = dom.x_hi - pts[:, 0]
        outside = (left <= 0) | (right <= 0)
        if outside.any():
            raise ConfigError(
                f"point {pts[np.argmax(outside), 0]} is not strictly inside ({dom.x_lo}, {dom.x_hi})"
            )
        # tie at the midpoint resolves to the left branch
        on_left = left <= right
        d = np.where(on_left, left, right)
        Dd = np.where(on_left, 1.0, -1.0)[:, None]
        D2d = np.zeros((m, 1, 1))
    else:
        delta, r = _radius(dom, pts)
        outside = r >= dom.radius
        if outside.any():
            raise ConfigError(f"point {pts[np.argmax(outside)].tolist()} is not strictly inside the disk")
        if (r == 0.0).any():
            raise ConfigError("distance gradient is undefined at the disk center")
        n = delta / r  # (2, m)
        D2d = -(np.eye(2)[:, :, None] - n[:, None, :] * n[None, :, :]) / r  # (2, 2, m)
        D2d = D2d.transpose(2, 0, 1)
        d, Dd = dom.radius - r, (-n).T
    if single:
        return float(d[0]), Dd[0], D2d[0]
    return d, Dd, D2d


def boundary_foot(dom: Domain, x):
    """Nearest boundary point to ``x`` and the inward unit normal there
    (arrays of shape (m, N) for a block of points)."""
    pts, single = as_points(dom, x)
    if isinstance(dom, Interval):
        on_left = (pts[:, 0] - dom.x_lo <= dom.x_hi - pts[:, 0])[:, None]
        foot = np.where(on_left, dom.x_lo, dom.x_hi)
        normal = np.where(on_left, 1.0, -1.0)
    else:
        delta, r = _radius(dom, pts)
        if (r == 0.0).any():
            raise ConfigError("boundary foot is undefined at the disk center")
        n = delta / r
        foot, normal = (np.asarray(dom.center)[:, None] + dom.radius * n).T, (-n).T
    if single:
        return foot[0], normal[0]
    return foot, normal


def collar_ladder(dom: Domain, d_min: float, d_max: float, n: int):
    """Geometric ladder of n distances in [d_min, d_max] along each boundary ray.

    The rays are the two sides of an interval, or ``DISK_DIRECTIONS``
    equally spaced radii of a disk.  Returns (points, ds): points of shape
    (rays, n, N), ordered by increasing d along each ray, and ds (n,).
    """
    ds = np.geomspace(d_min, d_max, n)
    if isinstance(dom, Interval):
        pts = np.stack([dom.x_lo + ds, dom.x_hi - ds])[:, :, None]
    else:
        th = np.linspace(0.0, 2 * np.pi, DISK_DIRECTIONS, endpoint=False)
        u = np.stack([np.cos(th), np.sin(th)], axis=1)
        pts = np.asarray(dom.center) + (dom.radius - ds)[None, :, None] * u[:, None, :]
    return pts, ds
