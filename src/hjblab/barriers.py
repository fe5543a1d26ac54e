"""Radial test functions of the boundary distance and their certificates.

For a profile g of the distance d, the homogeneous operator acts through
the exact chain rule

    F[g(d)](x) = max over controls of
        ( -b . Dd g'(d) - tr(a D2d) g'(d) - (Dd^T a Dd) g''(d) ),

no finite differences involved.  Two families matter:

* the confinement profile g(d) = -d^(-lambda), lambda > 0, which blows up
  at the boundary and satisfies F[g] <= -M on a small enough collar;
* the bounded barrier g(d) = d^rho - 1, 0 < rho < 1 - gamma, with the
  same property, which yields boundary envelopes for solutions.

The certificate search finds the widest collar of a descending lattice
on which the inequality holds pointwise on a geometric sample ladder.
Profiles act on arrays of distances, and :func:`eval_F_radial` evaluates
a whole block of points at once.  A scan hands it whole boundary rays,
``SCAN_BLOCK_POINTS`` samples at most per call: both sides of an
interval, or two of a disk's 16 rays.  One call per ray paid numpy's
per-call cost 16 times on a disk; one call for all 16 rays raised the
peak memory of a certify process by 6-8 MB (about 15%), where blocks of
two rays cost about 0.4 MB.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from .errors import ConfigError, NumericalError, overflow_is_numerical
from .problem import (
    ControlProblem,
    DegeneracyCertificate,
    degeneracy_certificate,
    gram,
    quadratic_form,
    rowdot,
    trace_product,
)

SCAN_BLOCK_POINTS = 4096   # collar samples per eval_F_radial call of a scan, in whole rays
MAX_LATTICE_POINTS = 10**7  # candidate collar widths a scan may try


class LyapunovProfile:
    """g(d) = -d^(-lambda); unbounded confinement profile."""

    def __init__(self, lam: float):
        if not lam > 0:
            raise ConfigError("lambda must be positive")
        self.lam = lam

    def value(self, d: np.ndarray) -> np.ndarray:
        return -d ** (-self.lam)

    def d1(self, d: np.ndarray) -> np.ndarray:
        return self.lam * d ** (-self.lam - 1)

    def d2(self, d: np.ndarray) -> np.ndarray:
        return -self.lam * (self.lam + 1) * d ** (-self.lam - 2)


class BarrierProfile:
    """g(d) = d^rho - 1; bounded barrier profile."""

    def __init__(self, rho: float):
        self.rho = rho

    def value(self, d: np.ndarray) -> np.ndarray:
        return d**self.rho - 1.0

    def d1(self, d: np.ndarray) -> np.ndarray:
        return self.rho * d ** (self.rho - 1)

    def d2(self, d: np.ndarray) -> np.ndarray:
        return self.rho * (self.rho - 1) * d ** (self.rho - 2)


@dataclass
class BarrierCertificate:
    """A collar on which F[g] <= -M holds at every sample, for the profile
    of ``family`` with parameter ``param``.  ``certificate.json`` is this
    record, field for field."""

    family: str          # "lyapunov" or "barrier", from the profile's type
    param: float         # lambda or rho
    M: float
    delta: float
    margin: float                      # max over samples of F[g] + M, <= 0
    witness_table: list = field(default_factory=list)  # (d, F) rows
    theoretical_margin: float | None = None            # barrier family only


def eval_F_radial(problem: ControlProblem, profile, x):
    """Exact value of the homogeneous operator on profile(d) at ``x``:
    a float at one point, an (m,) array on a block of points (m, N).

    ``x`` must avoid the distance function's singular set (the interval
    midpoint / the disk center, where d attains the inradius); certificate
    searches stay inside the collar, where d is always smooth.  A profile
    derivative that is not finite at a point raises :class:`ConfigError`;
    products of the coefficients that overflow a double raise
    :class:`NumericalError`.  Each names the first such point.
    """
    pts, single = geo.as_points(problem.domain, x)
    d, Dd, D2d = geo.distance(problem.domain, pts)
    ridge = d >= geo.inradius(problem.domain)
    if ridge.any():
        raise ConfigError(f"point at d={d[np.argmax(ridge)]} is on the distance function's ridge")
    with np.errstate(over="ignore"):  # an overflow is refused as singular below
        g1 = np.broadcast_to(np.asarray(profile.d1(d), dtype=float), d.shape)
        g2 = np.broadcast_to(np.asarray(profile.d2(d), dtype=float), d.shape)
    singular = ~(np.isfinite(g1) & np.isfinite(g2))
    if singular.any():
        raise ConfigError(f"profile is singular at d={d[np.argmax(singular)]}")
    best = None
    bd = problem.bindings(pts, d)  # one distance evaluation per block
    with overflow_is_numerical("the coefficient products on the collar overflow a double"):
        for ci in range(len(problem.controls)):
            b, sigma = problem.drift_and_sigma(pts, ci, bd)
            a = gram(sigma)
            val = -rowdot(b, Dd) * g1 - trace_product(a, D2d) * g1 - quadratic_form(a, Dd) * g2
            best = val if best is None else np.maximum(best, val)
    return float(best[0]) if single else best


def _scan_delta(problem, profile, M, grid_step, theoretical=None):
    """Largest lattice delta with F[g] <= -M at every sample below it.

    The samples are a geometric d-ladder over the full collar along each
    boundary ray.  They are evaluated in blocks of whole rays, in ray
    order, ``SCAN_BLOCK_POINTS`` samples at most per block (see the module
    docstring), so an error names the first bad point of the first bad
    ray, as one call per ray would.  The running maximum of F
    over the samples sorted by d is nondecreasing, so the admissible
    collars are exactly ``dvals[0] < delta <= dvals[i]``, where ``i`` is
    the first sample at which ``cummax + M <= 0`` fails (NaN fails); with
    no failing sample there is no upper end.  One binary search over
    ``cummax`` finds ``i``; the certificate is the largest point of the
    descending lattice ``width, width - grid_step, ...`` in that interval,
    found by a second one.
    """
    dom = problem.domain
    width = geo.collar_width(dom)
    rays, ds = geo.collar_ladder(dom, 1e-9 * geo.diameter(dom), width * (1 - 1e-9), 2000)
    per_block = max(1, SCAN_BLOCK_POINTS // len(ds))
    F = np.concatenate([
        eval_F_radial(problem, profile, rays[i : i + per_block].reshape(-1, rays.shape[2]))
        for i in range(0, len(rays), per_block)
    ])
    # samples sorted by d; samples at equal d in ray order
    F = F.reshape(len(rays), len(ds)).T.ravel()
    dvals = np.repeat(ds, len(rays))
    # cumulative max of F over samples with d below a threshold
    cummax = np.maximum.accumulate(F)
    # first sample with cummax + M > 0, NaN included (searchsorted orders NaN last)
    first_fail = np.searchsorted(cummax, -M, side="right")
    upper = dvals[first_fail] if first_fail < len(dvals) else np.inf
    lattice = np.arange(width, grid_step * (1 - 1e-12), -grid_step)
    # first (largest) lattice point <= upper; -lattice ascends
    k = int(np.searchsorted(-lattice, -upper, side="left"))
    if k == len(lattice) or lattice[k] <= dvals[0]:
        raise NumericalError(
            f"no admissible delta found down to {grid_step}; the profile inequality "
            f"F <= -{M} fails on every lattice collar (assumption violation or "
            f"sampling too coarse)"
        )
    delta = lattice[k]
    inside = np.searchsorted(dvals, delta, side="left")
    margin = float(cummax[inside - 1] + M)
    step = max(1, inside // 24)
    table = [(float(dvals[i]), float(F[i])) for i in range(0, inside, step)]
    theo = None
    if theoretical is not None:
        theo = float(theoretical(ds[ds < delta]).max() + M)
    lyapunov = isinstance(profile, LyapunovProfile)
    return BarrierCertificate(
        family="lyapunov" if lyapunov else "barrier",
        param=profile.lam if lyapunov else profile.rho,
        M=M,
        delta=float(delta),
        margin=margin,
        witness_table=table,
        theoretical_margin=theo,
    )


def _check_scan_inputs(problem: ControlProblem, M: float, grid_step: float) -> None:
    """Refuse a non-finite ``M``, a lattice step outside (0, collar width]
    and one that makes more than ``MAX_LATTICE_POINTS`` lattice points."""
    if not np.isfinite(M):
        raise ConfigError(f"M must be finite, got {M}")
    width = geo.collar_width(problem.domain)
    if not 0 < grid_step <= width:
        raise ConfigError(
            f"grid_step must be finite and lie in (0, {width}], the collar width; got {grid_step}"
        )
    if width / grid_step > MAX_LATTICE_POINTS:
        raise ConfigError(
            f"grid_step {grid_step} makes {width / grid_step:.3g} lattice points in the "
            f"collar width {width}; at most {MAX_LATTICE_POINTS} are allowed"
        )


def find_lyapunov_delta(
    problem: ControlProblem, lam: float, M: float, grid_step: float = 1e-3
) -> BarrierCertificate:
    """Largest collar width on which F[-d^(-lambda)] <= -M holds pointwise."""
    if not lam > 0:
        raise ConfigError("lambda must be positive")
    if M < 0:
        raise ConfigError("M must be nonnegative")
    _check_scan_inputs(problem, M, grid_step)
    return _scan_delta(problem, LyapunovProfile(lam), M, grid_step)


def find_barrier_delta(
    problem: ControlProblem,
    rho: float,
    M: float,
    grid_step: float = 1e-3,
    certificate: DegeneracyCertificate | None = None,
) -> BarrierCertificate:
    """Largest collar width on which F[d^rho - 1] <= -M holds pointwise.

    Requires 0 < rho < 1 - gamma with gamma taken from the problem's
    degeneracy certificate.  The certificate also reports the sufficient
    bound rho d^(gamma+rho-1) (-k + (rho-1) B^2 d^(2 beta - gamma - 1))
    alongside the exact evaluation.
    """
    if M <= 0:
        raise ConfigError("M must be positive")
    _check_scan_inputs(problem, M, grid_step)
    cert = certificate or degeneracy_certificate(problem)
    if not 0 < rho < 1 - cert.gamma:
        raise ConfigError(
            f"rho must lie in (0, {1 - cert.gamma}) for fitted gamma={cert.gamma}, got {rho}"
        )
    reg = problem.reg
    k, gamma = cert.k, cert.gamma

    def theoretical(d: np.ndarray) -> np.ndarray:
        return rho * d ** (gamma + rho - 1) * (
            -k + (rho - 1) * reg.B**2 * d ** (2 * reg.beta - gamma - 1)
        )

    return _scan_delta(problem, BarrierProfile(rho), M, grid_step, theoretical=theoretical)
