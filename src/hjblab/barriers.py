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
a whole block of points at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from .errors import ConfigError, NumericalError
from .problem import (
    ControlProblem,
    DegeneracyCertificate,
    degeneracy_certificate,
    quadratic_form,
    rowdot,
    trace_product,
)


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


class CallableProfile:
    """Profile from explicit g, g', g'' callables."""

    def __init__(self, g, g1, g2):
        self.value, self.d1, self.d2 = g, g1, g2


@dataclass(frozen=True)
class BarrierSpec:
    family: str          # "lyapunov" or "barrier"
    param: float         # lambda or rho
    M: float

    def __post_init__(self):
        if self.family not in ("lyapunov", "barrier"):
            raise ConfigError(f"unknown certificate family {self.family!r}")


@dataclass
class BarrierCertificate:
    spec: BarrierSpec
    delta: float
    margin: float                      # max over samples of F[g] + M, <= 0
    witness_table: list = field(default_factory=list)  # (d, F) rows
    theoretical_margin: float | None = None            # barrier family only

    def to_dict(self) -> dict:
        return {
            "family": self.spec.family,
            "param": self.spec.param,
            "M": self.spec.M,
            "delta": self.delta,
            "margin": self.margin,
            "theoretical_margin": self.theoretical_margin,
            "witness_table": [[float(d), float(v)] for d, v in self.witness_table],
        }


def eval_F_radial(problem: ControlProblem, profile, x):
    """Exact value of the homogeneous operator on profile(d) at ``x``:
    a float at one point, an (m,) array on a block of points (m, N).

    ``x`` must avoid the distance function's singular set (the interval
    midpoint / the disk center, where d attains the inradius); certificate
    searches stay inside the collar, where d is always smooth.
    """
    pts, single = geo.as_points(problem.domain, x)
    d, Dd, D2d = geo.distance(problem.domain, pts)
    ridge = d >= geo.inradius(problem.domain)
    if ridge.any():
        raise ConfigError(f"point at d={d[np.argmax(ridge)]} is on the distance function's ridge")
    g1 = np.broadcast_to(np.asarray(profile.d1(d), dtype=float), d.shape)
    g2 = np.broadcast_to(np.asarray(profile.d2(d), dtype=float), d.shape)
    singular = ~(np.isfinite(g1) & np.isfinite(g2))
    if singular.any():
        raise ConfigError(f"profile is singular at d={d[np.argmax(singular)]}")
    best = None
    for ci in range(len(problem.controls)):
        b = problem.drift(pts, ci)
        a = problem.diffusion(pts, ci)
        val = -rowdot(b, Dd) * g1 - trace_product(a, D2d) * g1 - quadratic_form(a, Dd) * g2
        best = val if best is None else np.maximum(best, val)
    return float(best[0]) if single else best


def _scan_delta(problem, profile, M, grid_step, theoretical=None):
    """Largest lattice delta with F[g] <= -M at every sample below it.

    The samples are a geometric d-ladder over the full collar along each
    boundary ray, evaluated one ray at a time.  The running maximum of F
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
    # samples sorted by d; samples at equal d in ray order
    F = np.stack([eval_F_radial(problem, profile, ray) for ray in rays], axis=1).ravel()
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
    return BarrierCertificate(
        spec=BarrierSpec(
            family="lyapunov" if isinstance(profile, LyapunovProfile) else "barrier",
            param=profile.lam if isinstance(profile, LyapunovProfile) else profile.rho,
            M=M,
        ),
        delta=float(delta),
        margin=margin,
        witness_table=table,
        theoretical_margin=theo,
    )


def _check_scan_inputs(problem: ControlProblem, M: float, grid_step: float) -> None:
    """Refuse a non-finite ``M`` and a lattice step outside (0, collar width]."""
    if not np.isfinite(M):
        raise ConfigError(f"M must be finite, got {M}")
    width = geo.collar_width(problem.domain)
    if not 0 < grid_step <= width:
        raise ConfigError(
            f"grid_step must be finite and lie in (0, {width}], the collar width; got {grid_step}"
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
