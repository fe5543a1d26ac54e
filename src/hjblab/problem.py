"""Control problems and numerical validation of their standing assumptions.

A :class:`ControlProblem` bundles a domain, a finite list of controls
(each with drift b, diffusion factor sigma and running cost l given as
expressions in x1, x2, d) and the regularity constants (B, eta, beta).

:func:`validate_assumptions` checks, by sampling,

1. Hoelder regularity of b, l (exponent eta) and sigma (exponent beta)
   with constant B;
2. positive definiteness of a = sigma sigma^T at interior points;
3. degeneracy of the normal diffusion at the boundary, with the rate
   |sigma^T Dd| ~ d^beta recovered by a log-log fit;
4. the inward drift bound inf over controls of b . Dd + tr(a D2d)
   >= k d^gamma on the collar, with (k, gamma) fitted and gamma < 2 beta - 1.

The fitted (k, gamma, delta) together with the boundary residual form a
:class:`DegeneracyCertificate`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from . import geometry as geo
from .errors import ConfigError


@dataclass(frozen=True)
class RegularityConstants:
    B: float
    eta: float
    beta: float

    def __post_init__(self):
        if not self.B > 0:
            raise ConfigError("B must be positive")
        if not 0 < self.eta <= 1:
            raise ConfigError("eta must lie in (0, 1]")
        if not 0.5 < self.beta <= 1:
            raise ConfigError("beta must lie in (1/2, 1]")


@dataclass(frozen=True)
class Control:
    label: str
    b: tuple[ex.Expr, ...]            # N drift components
    sigma: tuple[tuple[ex.Expr, ...], ...]  # N x r diffusion factor
    l: ex.Expr                        # running cost
    b_src: tuple[str, ...] = ()
    sigma_src: tuple[tuple[str, ...], ...] = ()
    l_src: str = ""


@dataclass(frozen=True)
class ControlProblem:
    domain: geo.Domain
    controls: tuple[Control, ...]
    reg: RegularityConstants
    name: str = ""

    def __post_init__(self):
        if not self.controls:
            raise ConfigError("the control list must not be empty")

    @property
    def dim(self) -> int:
        return geo.dim(self.domain)

    def bindings(self, x) -> dict[str, float]:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        b = {"x1": float(x[0]), "d": geo.distance_value(self.domain, x)}
        if self.dim == 2:
            b["x2"] = float(x[1])
        return b

    def drift(self, x, ci: int) -> np.ndarray:
        bd = self.bindings(x)
        return np.array([ex.evaluate(e, bd) for e in self.controls[ci].b])

    def sigma_matrix(self, x, ci: int) -> np.ndarray:
        bd = self.bindings(x)
        return np.array(
            [[ex.evaluate(e, bd) for e in row] for row in self.controls[ci].sigma]
        )

    def diffusion(self, x, ci: int) -> np.ndarray:
        s = self.sigma_matrix(x, ci)
        return s @ s.T

    def cost(self, x, ci: int) -> float:
        return ex.evaluate(self.controls[ci].l, self.bindings(x))

    def fingerprint(self) -> str:
        """Stable hash of the problem definition (used in run manifests)."""
        payload = {
            "domain": _domain_dict(self.domain),
            "controls": [
                {"b": list(c.b_src), "sigma": [list(r) for r in c.sigma_src], "l": c.l_src}
                for c in self.controls
            ],
            "regularity": {"B": self.reg.B, "eta": self.reg.eta, "beta": self.reg.beta},
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _domain_dict(dom: geo.Domain) -> dict:
    if isinstance(dom, geo.Interval):
        return {"kind": "interval", "x_lo": dom.x_lo, "x_hi": dom.x_hi}
    return {"kind": "disk", "center": list(dom.center), "radius": dom.radius}


# ---------------------------------------------------------------------------
# presets


def _preset_config(name: str, params: dict) -> dict:
    smooth_b, smooth_sigma = "1-2*x1", "x1*(1-x1)"
    if name == "constantL":
        L = float(params.get("L", 1.0))
        return {
            "domain": {"kind": "interval", "x_lo": 0.0, "x_hi": 1.0},
            "controls": [{"b": [smooth_b], "sigma": [[smooth_sigma]], "l": repr(L)}],
            "regularity": {"B": 2.0, "eta": 1.0, "beta": 1.0},
        }
    if name == "smoothA":
        return {
            "domain": {"kind": "interval", "x_lo": 0.0, "x_hi": 1.0},
            "controls": [{"b": [smooth_b], "sigma": [[smooth_sigma]], "l": "x1"}],
            "regularity": {"B": 2.0, "eta": 1.0, "beta": 1.0},
        }
    if name == "degenerateB":
        return {
            "domain": {"kind": "interval", "x_lo": 0.0, "x_hi": 1.0},
            "controls": [
                {
                    "b": ["(x1*(1-x1))^0.4*(1-2*x1)"],
                    "sigma": [["(x1*(1-x1))^0.75"]],
                    "l": "x1",
                }
            ],
            "regularity": {"B": 2.0, "eta": 0.4, "beta": 0.75},
        }
    if name == "twoControlA":
        return {
            "domain": {"kind": "interval", "x_lo": 0.0, "x_hi": 1.0},
            "controls": [
                {"b": [smooth_b], "sigma": [[smooth_sigma]], "l": "x1"},
                {"b": ["1.5*(1-2*x1)"], "sigma": [[smooth_sigma]], "l": "x1+0.1"},
            ],
            "regularity": {"B": 4.0, "eta": 1.0, "beta": 1.0},
        }
    raise ConfigError(f"unknown preset {name!r}")


PRESET_NAMES = ("constantL", "smoothA", "degenerateB", "twoControlA")


def assemble_problem(config: dict) -> ControlProblem:
    """Build a :class:`ControlProblem` from a configuration mapping.

    The mapping either names a ``preset`` (optionally with preset
    parameters such as ``L``) or supplies ``domain``, ``controls`` and
    ``regularity`` explicitly.  Expressions are parsed here; dimensional
    consistency (N drift components, N rows of sigma) is enforced.
    """
    name = ""
    if "preset" in config:
        name = config["preset"]
        expanded = _preset_config(name, config)
        config = {**expanded, **{k: v for k, v in config.items() if k not in ("preset", "L")}}
        for key in ("domain", "controls", "regularity"):
            config.setdefault(key, expanded[key])

    try:
        dom_cfg = config["domain"]
        controls_cfg = config["controls"]
        reg_cfg = config["regularity"]
    except (KeyError, TypeError) as err:
        raise ConfigError(f"configuration is missing section {err}") from None

    kind = dom_cfg.get("kind")
    if kind == "interval":
        domain: geo.Domain = geo.Interval(float(dom_cfg["x_lo"]), float(dom_cfg["x_hi"]))
    elif kind == "disk":
        domain = geo.Disk(tuple(float(c) for c in dom_cfg["center"]), float(dom_cfg["radius"]))
    else:
        raise ConfigError(f"unknown domain kind {kind!r}")
    n = geo.dim(domain)
    allowed = {"x1", "d"} if n == 1 else {"x1", "x2", "d"}

    if not controls_cfg:
        raise ConfigError("the control list must not be empty")

    controls = []
    for idx, c in enumerate(controls_cfg):
        label = c.get("label", f"alpha{idx + 1}")
        b_src = c["b"] if isinstance(c["b"], list) else [c["b"]]
        sigma_src = c["sigma"]
        if sigma_src and not isinstance(sigma_src[0], list):
            sigma_src = [sigma_src]
        l_src = c["l"]
        if len(b_src) != n:
            raise ConfigError(
                f"control {label}: drift has {len(b_src)} components, domain dimension is {n}"
            )
        if len(sigma_src) != n:
            raise ConfigError(
                f"control {label}: sigma has {len(sigma_src)} rows, domain dimension is {n}"
            )
        width = len(sigma_src[0])
        if width < 1 or any(len(row) != width for row in sigma_src):
            raise ConfigError(f"control {label}: sigma rows must share one positive length")

        def _parse(src: str) -> ex.Expr:
            tree = ex.parse(src)
            extra = ex.free_vars(tree) - allowed
            if extra:
                raise ConfigError(
                    f"control {label}: variable(s) {sorted(extra)} not available "
                    f"on a {n}-dimensional domain"
                )
            return tree

        controls.append(
            Control(
                label=label,
                b=tuple(_parse(s) for s in b_src),
                sigma=tuple(tuple(_parse(s) for s in row) for row in sigma_src),
                l=_parse(l_src),
                b_src=tuple(b_src),
                sigma_src=tuple(tuple(row) for row in sigma_src),
                l_src=l_src,
            )
        )

    reg = RegularityConstants(float(reg_cfg["B"]), float(reg_cfg["eta"]), float(reg_cfg["beta"]))
    return ControlProblem(domain=domain, controls=tuple(controls), reg=reg, name=name)


# ---------------------------------------------------------------------------
# assumption validation


@dataclass
class SamplingPlan:
    interior: int = 64          # interior points for ellipticity
    collar_per_side: int = 160  # geometric samples per boundary side/direction
    directions: int = 16        # boundary directions on a disk
    pairs: int = 256            # random pairs for the Hoelder ratios
    d_min_factor: float = 1e-6  # deepest sample at d = factor * diameter
    seed: int = 0


@dataclass
class DegeneracyCertificate:
    k: float
    gamma: float
    delta: float
    boundary_residual: float
    sigma_rate_slope: float | None
    drift_fit: list = field(default_factory=list)   # (d, inf drift) table rows

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "gamma": self.gamma,
            "delta": self.delta,
            "boundary_residual": self.boundary_residual,
            "sigma_rate_slope": self.sigma_rate_slope,
            "drift_fit": [[float(d), float(v)] for d, v in self.drift_fit],
        }


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: dict
    witness: list | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
            "witness": self.witness,
        }


@dataclass
class ValidationReport:
    passed: bool
    checks: list[CheckResult]
    certificate: DegeneracyCertificate | None

    def first_failure(self) -> CheckResult | None:
        for c in self.checks:
            if not c.passed:
                return c
        return None

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
            "certificate": self.certificate.to_dict() if self.certificate else None,
        }


def _collar_points(problem: ControlProblem, plan: SamplingPlan, delta: float):
    """Sample points in the collar, geometric in d (denser near the boundary).

    Returns (points, d_values) with points grouped per boundary side or
    direction, ordered by increasing d within each group.
    """
    dom = problem.domain
    d_min = plan.d_min_factor * geo.diameter(dom)
    ds = np.geomspace(d_min, delta * (1 - 1e-9), plan.collar_per_side)
    points, dvals = [], []
    if isinstance(dom, geo.Interval):
        for side in (0, 1):
            for d in ds:
                x = dom.x_lo + d if side == 0 else dom.x_hi - d
                points.append(np.array([x]))
                dvals.append(d)
    else:
        thetas = np.linspace(0.0, 2 * np.pi, plan.directions, endpoint=False)
        c = np.asarray(dom.center)
        for th in thetas:
            u = np.array([np.cos(th), np.sin(th)])
            for d in ds:
                points.append(c + (dom.radius - d) * u)
                dvals.append(d)
    return points, np.array(dvals)


def _interior_points(problem: ControlProblem, plan: SamplingPlan):
    dom = problem.domain
    if isinstance(dom, geo.Interval):
        pad = 1e-3 * geo.diameter(dom)
        xs = np.linspace(dom.x_lo + pad, dom.x_hi - pad, plan.interior)
        return [np.array([x]) for x in xs]
    c = np.asarray(dom.center)
    pts = []
    n_r = max(2, int(np.sqrt(plan.interior)))
    for r in np.linspace(0.05 * dom.radius, 0.95 * dom.radius, n_r):
        for th in np.linspace(0.0, 2 * np.pi, n_r, endpoint=False):
            pts.append(c + r * np.array([np.cos(th), np.sin(th)]))
    return pts


def _loglog_slope(d: np.ndarray, v: np.ndarray) -> float:
    x, y = np.log(d), np.log(v)
    xc = x - x.mean()
    return float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))


def validate_assumptions(
    problem: ControlProblem,
    plan: SamplingPlan | None = None,
    tol: float = 0.05,
) -> ValidationReport:
    """Check every standing assumption numerically; failures are report
    entries with a witness point, never exceptions.

    The report is monotone in ``tol``: a pass at some tolerance is a pass
    at any larger one.
    """
    plan = plan or SamplingPlan()
    reg = problem.reg
    dom = problem.domain
    delta_cert = 0.8 * geo.collar_width(dom)
    checks: list[CheckResult] = []

    collar_pts, collar_d = _collar_points(problem, plan, delta_cert)
    interior_pts = _interior_points(problem, plan)
    all_pts = interior_pts + collar_pts

    # (i) Hoelder ratios for b, l (exponent eta) and sigma (exponent beta)
    rng = np.random.default_rng(plan.seed)
    idx = np.arange(len(all_pts))
    pair_idx = [(i, j) for i, j in zip(idx[:-1], idx[1:])]
    for _ in range(plan.pairs):
        i, j = rng.integers(0, len(all_pts), size=2)
        if i != j:
            pair_idx.append((int(i), int(j)))

    worst = {"b": (0.0, None), "l": (0.0, None), "sigma": (0.0, None)}
    for i, j in pair_idx:
        x, y = all_pts[i], all_pts[j]
        gap = float(np.linalg.norm(x - y))
        if gap == 0.0:
            continue
        for ci in range(len(problem.controls)):
            rb = float(np.linalg.norm(problem.drift(x, ci) - problem.drift(y, ci))) / gap**reg.eta
            rl = abs(problem.cost(x, ci) - problem.cost(y, ci)) / gap**reg.eta
            rs = float(
                np.linalg.norm(problem.sigma_matrix(x, ci) - problem.sigma_matrix(y, ci))
            ) / gap**reg.beta
            for key, r in (("b", rb), ("l", rl), ("sigma", rs)):
                if r > worst[key][0]:
                    worst[key] = (r, [x.tolist(), y.tolist()])
    bound = reg.B * (1.0 + tol)
    for key in ("b", "l", "sigma"):
        r, wit = worst[key]
        checks.append(
            CheckResult(
                name=f"hoelder_{key}",
                passed=r <= bound,
                detail={"max_ratio": r, "bound": reg.B, "tolerance": tol},
                witness=None if r <= bound else wit,
            )
        )

    # (ii) interior ellipticity
    min_eig, eig_wit = np.inf, None
    for x in interior_pts:
        for ci in range(len(problem.controls)):
            lam = float(np.linalg.eigvalsh(np.atleast_2d(problem.diffusion(x, ci)))[0])
            if lam < min_eig:
                min_eig, eig_wit = lam, x.tolist()
    checks.append(
        CheckResult(
            name="interior_ellipticity",
            passed=min_eig > 0.0,
            detail={"min_eigenvalue": min_eig},
            witness=None if min_eig > 0.0 else eig_wit,
        )
    )

    # (iii) boundary degeneracy: residual at the deepest samples + rate fit
    normal_res = np.zeros(len(collar_pts))
    for i, x in enumerate(collar_pts):
        _, Dd, _ = geo.distance(dom, x)
        normal_res[i] = max(
            float(np.linalg.norm(problem.sigma_matrix(x, ci).T @ Dd))
            for ci in range(len(problem.controls))
        )
    d_min = collar_d.min()
    ring = collar_d <= d_min * (1 + 1e-9)
    boundary_residual = float(normal_res[ring].max())
    res_ok = boundary_residual <= tol
    wit = None if res_ok else collar_pts[int(np.argmax(normal_res * ring))].tolist()
    if normal_res.max() < 1e-14:
        slope = None
        rate_ok = True
    else:
        mask = normal_res > 1e-300
        slope = _loglog_slope(collar_d[mask], normal_res[mask])
        rate_ok = slope >= reg.beta - tol
    checks.append(
        CheckResult(
            name="boundary_degeneracy",
            passed=res_ok and rate_ok,
            detail={
                "boundary_residual": boundary_residual,
                "rate_slope": slope,
                "required_slope": reg.beta,
                "tolerance": tol,
            },
            witness=wit,
        )
    )

    # (iv) inward drift bound on the collar
    drift_vals = np.zeros(len(collar_pts))
    for i, x in enumerate(collar_pts):
        _, Dd, D2d = geo.distance(dom, x)
        drift_vals[i] = min(
            float(problem.drift(x, ci) @ Dd + np.trace(problem.diffusion(x, ci) @ D2d))
            for ci in range(len(problem.controls))
        )
    positive = drift_vals > 0
    certificate = None
    if positive.all():
        # local exponent near the boundary, then a pointwise constant
        near = collar_d <= d_min * 100 * (1 + 1e-9)
        gamma = round(_loglog_slope(collar_d[near], drift_vals[near]), 3) + 0.0
        k = float(np.min(drift_vals / collar_d**gamma))
        drift_ok = k > 0.0 and gamma < 2 * reg.beta - 1
        order = np.argsort(collar_d)
        table = [
            (float(collar_d[i]), float(drift_vals[i]))
            for i in order[:: max(1, len(order) // 24)]
        ]
        certificate = DegeneracyCertificate(
            k=k,
            gamma=gamma,
            delta=delta_cert,
            boundary_residual=boundary_residual,
            sigma_rate_slope=slope,
            drift_fit=table,
        )
        detail = {"k": k, "gamma": gamma, "gamma_bound": 2 * reg.beta - 1, "delta": delta_cert}
        drift_wit = None
    else:
        drift_ok = False
        bad = int(np.argmin(drift_vals))
        detail = {"min_drift_value": float(drift_vals[bad]), "at_d": float(collar_d[bad])}
        drift_wit = collar_pts[bad].tolist()
    checks.append(
        CheckResult(name="inward_drift", passed=drift_ok, detail=detail, witness=drift_wit)
    )

    passed = all(c.passed for c in checks)
    return ValidationReport(passed=passed, checks=checks, certificate=certificate if passed else None)


def degeneracy_certificate(problem: ControlProblem, plan: SamplingPlan | None = None) -> DegeneracyCertificate:
    """Certificate from a full validation run; raises if validation fails."""
    from .errors import NumericalError

    report = validate_assumptions(problem, plan)
    if report.certificate is None:
        failure = report.first_failure()
        raise NumericalError(
            f"assumptions do not hold, first failure: {failure.name if failure else 'unknown'}"
        )
    return report.certificate
