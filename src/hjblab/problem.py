"""Control problems and numerical validation of their standing assumptions.

A :class:`ControlProblem` bundles a domain, a finite list of controls
(each with drift b, diffusion factor sigma and running cost l given as
expressions in x1, x2, d) and the regularity constants (B, eta, beta).
Its coefficient methods take one point or a block of points (m, N) and
go through the one array evaluator, so a point gets the same bits
either way.

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

The samples are fixed by module constants: ``INTERIOR_SAMPLES`` (64)
interior points for ellipticity, ``COLLAR_SAMPLES`` (160) geometric
samples in d along each boundary side or disk direction, the deepest
at d = ``D_MIN_FACTOR`` (1e-6) x the diameter, and ``HOELDER_PAIRS``
(256) random pairs for the Hoelder ratios, drawn with seed
``SAMPLING_SEED`` (0).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from . import geometry as geo
from .errors import ConfigError, NumericalError, overflow_is_numerical

INTERIOR_SAMPLES = 64
COLLAR_SAMPLES = 160       # per boundary side or disk direction
HOELDER_PAIRS = 256
D_MIN_FACTOR = 1e-6        # deepest collar sample at this fraction of the diameter
SAMPLING_SEED = 0


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

    def __post_init__(self):
        if not self.controls:
            raise ConfigError("the control list must not be empty")

    @property
    def dim(self) -> int:
        return geo.dim(self.domain)

    def bindings(self, x, d=None) -> dict:
        """Variable bindings at one point (floats) or at a block of points
        (m, N) (arrays of shape (m,)).  ``d`` is the boundary distance at
        the points, when the caller has it already."""
        pts, single = geo.as_points(self.domain, x)
        b = {"x1": pts[:, 0], "d": geo.distance_value(self.domain, pts) if d is None else d}
        if self.dim == 2:
            b["x2"] = pts[:, 1]
        return {k: float(v[0]) for k, v in b.items()} if single else b

    def _values(self, trees, x, bd=None) -> np.ndarray:
        """The trees at one point, (len(trees),), or at a block of points,
        (m, len(trees)); a point gets the same bits either way.  ``bd``
        holds the :meth:`bindings` at ``x``, when the caller has built them.

        The values are stacked component-major, one contiguous (m,) row
        per tree, and the block is the transposed view of that stack: the
        same shape, but ``vals[..., k]`` is a contiguous row, so the
        products of this module (``rowdot`` and those built on it) read
        and write contiguous arrays."""
        pts, single = geo.as_points(self.domain, x)
        if bd is None:
            bd = self.bindings(pts)
        vals = np.stack([ex.evaluate(t, bd) for t in trees]).T
        return vals[0] if single else vals

    def drift(self, x, ci: int) -> np.ndarray:
        """b at one point, (N,), or at a block of points, (m, N)."""
        return self._values(self.controls[ci].b, x)

    def sigma_matrix(self, x, ci: int) -> np.ndarray:
        """sigma at one point, (N, r), or at a block of points, (m, N, r)."""
        rows = self.controls[ci].sigma
        vals = self._values([e for row in rows for e in row], x)
        return vals.reshape(*vals.shape[:-1], len(rows), -1)

    def drift_and_sigma(self, x, ci: int, bd=None) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`drift` and :meth:`sigma_matrix` from one evaluation of the
        control's trees, so from one set of bindings: ``bd`` if given."""
        c = self.controls[ci]
        n = len(c.b)
        vals = self._values(c.b + sum(c.sigma, ()), x, bd)
        return vals[..., :n], vals[..., n:].reshape(*vals.shape[:-1], n, -1)

    def diffusion(self, x, ci: int) -> np.ndarray:
        """a = sigma sigma^T at one point, (N, N), or at a block, (m, N, N)."""
        return gram(self.sigma_matrix(x, ci))

    def diffusion_diagonal(self, x, ci: int, k: int):
        """a_kk = |row k of sigma|^2 at one point (a scalar) or at a block of
        points, (m,).  Only row k of sigma is evaluated, and the products
        are summed as in ``diffusion(x, ci)[..., k, k]``: the same bits."""
        row = self._values(self.controls[ci].sigma[k], x)
        return rowdot(row, row)

    def cost(self, x, ci: int):
        """l at one point (a float) or at a block of points, (m,)."""
        vals = self._values((self.controls[ci].l,), x)[..., 0]
        return float(vals) if vals.ndim == 0 else vals

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


# Products of coefficient blocks, summed left to right in plain ufunc
# arithmetic (no BLAS), so that a point gives the same bits whether it is
# evaluated alone or inside a block.


def rowdot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot products of u and v along their last axis (broadcasting)."""
    out = u[..., 0] * v[..., 0]
    for k in range(1, u.shape[-1]):
        out = out + u[..., k] * v[..., k]
    return out


def gram(s: np.ndarray) -> np.ndarray:
    """a = s s^T for blocks of matrices (..., N, r)."""
    return rowdot(s[..., :, None, :], s[..., None, :, :])


def trace_product(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """tr(a c) for blocks of square matrices (..., N, N)."""
    n = a.shape[-1]
    return rowdot(a.reshape(*a.shape[:-2], n * n), np.swapaxes(c, -1, -2).reshape(*c.shape[:-2], n * n))


def quadratic_form(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v^T a v for blocks of matrices (..., N, N) and vectors (..., N)."""
    return rowdot(v, rowdot(a, v[..., None, :]))


# ---------------------------------------------------------------------------
# presets


def _preset_config(name: str, params: dict) -> dict:
    smooth_b, smooth_sigma = "1-2*x1", "x1*(1-x1)"
    if name == "constantL":
        L = _read({"L": 1.0, **params}, "L", f"preset {name}", as_number)
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


def as_number(value) -> float:
    """``float(value)`` for a number read from JSON.  Anything but an
    ``int`` or a ``float`` raises :class:`TypeError`: a string such as
    ``"2"``, and a JSON boolean, which ``float`` would take as 0.0 or
    1.0.  A number that is no finite double raises :class:`ValueError`:
    an integer too large for a double, and ``Infinity``, ``NaN`` or a
    literal such as ``1e999``, which Python's ``json`` reads as inf."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"{value!r} is too large for a double") from None
    if not np.isfinite(number):
        raise ValueError(f"{value!r} is not finite")
    return number


def _read(section: dict, key: str, where: str, convert=None):
    """``section[key]``, passed through ``convert`` if given; a missing
    field, or one that ``convert`` refuses, raises :class:`ConfigError`
    naming it."""
    try:
        value = section[key]
    except KeyError:
        raise ConfigError(f"{where} has no field {key!r}") from None
    if convert is None:
        return value
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: field {key!r} is malformed: {value!r}") from None


def _require(value, kind: type, where: str):
    """``value`` if it is a JSON object (``dict``) or list, as ``kind``
    asks; otherwise :class:`ConfigError` naming ``where``."""
    if not isinstance(value, kind):
        raise ConfigError(f"{where} is not {'an object' if kind is dict else 'a list'}: {value!r}")
    return value


def assemble_problem(config: dict) -> ControlProblem:
    """Build a :class:`ControlProblem` from a configuration mapping.

    The mapping either names a ``preset`` (optionally with preset
    parameters such as ``L``) or supplies ``domain``, ``controls`` and
    ``regularity`` explicitly.  Expressions are parsed here; dimensional
    consistency (N drift components, N rows of sigma) is enforced.
    """
    _require(config, dict, "configuration")
    if "preset" in config:
        expanded = _preset_config(config["preset"], config)
        config = {**expanded, **{k: v for k, v in config.items() if k not in ("preset", "L")}}

    try:
        dom_cfg = _require(config["domain"], dict, "config section 'domain'")
        controls_cfg = _require(config["controls"], list, "config section 'controls'")
        reg_cfg = _require(config["regularity"], dict, "config section 'regularity'")
    except KeyError as err:
        raise ConfigError(f"configuration is missing section {err}") from None

    kind = dom_cfg.get("kind")
    if kind == "interval":
        domain: geo.Domain = geo.Interval(
            _read(dom_cfg, "x_lo", "domain", as_number), _read(dom_cfg, "x_hi", "domain", as_number)
        )
    elif kind == "disk":
        domain = geo.Disk(
            _read(dom_cfg, "center", "domain", lambda v: tuple(as_number(c) for c in v)),
            _read(dom_cfg, "radius", "domain", as_number),
        )
    else:
        raise ConfigError(f"unknown domain kind {kind!r}")
    n = geo.dim(domain)
    allowed = {"x1", "d"} if n == 1 else {"x1", "x2", "d"}

    if not controls_cfg:
        raise ConfigError("the control list must not be empty")

    controls = []
    for idx, c in enumerate(controls_cfg):
        label = _require(c, dict, f"control {idx + 1}").get("label", f"alpha{idx + 1}")
        where = f"control {label}"
        b_src = _read(c, "b", where)
        if not isinstance(b_src, list):
            b_src = [b_src]
        sigma_src = _require(_read(c, "sigma", where), list, f"{where}: field 'sigma'")
        if sigma_src and not isinstance(sigma_src[0], list):
            sigma_src = [sigma_src]
        l_src = _read(c, "l", where)
        if len(b_src) != n:
            raise ConfigError(
                f"control {label}: drift has {len(b_src)} components, domain dimension is {n}"
            )
        if len(sigma_src) != n:
            raise ConfigError(
                f"control {label}: sigma has {len(sigma_src)} rows, domain dimension is {n}"
            )
        width = len(sigma_src[0])
        if width < 1 or any(not isinstance(row, list) or len(row) != width for row in sigma_src):
            raise ConfigError(f"control {label}: sigma rows must share one positive length")

        def _parse(src: str, key: str) -> ex.Expr:
            if not isinstance(src, str):
                raise ConfigError(f"{where}: field {key!r} holds {src!r}, not an expression string")
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
                b=tuple(_parse(s, "b") for s in b_src),
                sigma=tuple(tuple(_parse(s, "sigma") for s in row) for row in sigma_src),
                l=_parse(l_src, "l"),
                b_src=tuple(b_src),
                sigma_src=tuple(tuple(row) for row in sigma_src),
                l_src=l_src,
            )
        )

    reg = RegularityConstants(
        *(_read(reg_cfg, key, "regularity", as_number) for key in ("B", "eta", "beta"))
    )
    return ControlProblem(domain=domain, controls=tuple(controls), reg=reg)


# ---------------------------------------------------------------------------
# assumption validation


@dataclass
class DegeneracyCertificate:
    k: float
    gamma: float
    delta: float
    boundary_residual: float
    sigma_rate_slope: float | None
    drift_fit: list = field(default_factory=list)   # (d, inf drift) table rows


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: dict
    witness: list | None = None


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


def _interior_points(problem: ControlProblem) -> np.ndarray:
    dom = problem.domain
    if isinstance(dom, geo.Interval):
        pad = 1e-3 * geo.diameter(dom)
        return np.linspace(dom.x_lo + pad, dom.x_hi - pad, INTERIOR_SAMPLES)[:, None]
    n_r = max(2, int(np.sqrt(INTERIOR_SAMPLES)))
    radii = np.linspace(0.05 * dom.radius, 0.95 * dom.radius, n_r)
    th = np.linspace(0.0, 2 * np.pi, n_r, endpoint=False)
    u = np.stack([np.cos(th), np.sin(th)], axis=1)
    return (np.asarray(dom.center) + radii[:, None, None] * u[None, :, :]).reshape(-1, 2)


def _loglog_slope(d: np.ndarray, v: np.ndarray) -> float:
    x, y = np.log(d), np.log(v)
    xc = x - x.mean()
    return float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))


def _first_point(values: np.ndarray, target: float) -> int:
    """First sample (axis 1) at which any control (axis 0) attains ``target``."""
    return int(np.argmax((values == target).any(axis=0)))


@overflow_is_numerical("the sampled coefficients overflow a double")
def validate_assumptions(problem: ControlProblem, tol: float = 0.05) -> ValidationReport:
    """Check every standing assumption numerically; failures are report
    entries with a witness point, never exceptions.

    The report is monotone in ``tol``: a pass at some tolerance is a pass
    at any larger one.  Each control's coefficients are evaluated once,
    over all sample points together.  A ``tol`` that is negative or not
    finite raises :class:`ConfigError`: an infinite one would pass every
    check vacuously.  So does a domain so small that every distance
    between its samples is 0 in double precision.  Coefficients that
    overflow a double, as evaluated or in the products the checks form,
    raise :class:`NumericalError`.
    """
    if not 0.0 <= tol < np.inf:
        raise ConfigError(f"tol must be finite and nonnegative, got {tol}")
    reg = problem.reg
    dom = problem.domain
    n_controls = len(problem.controls)
    delta_cert = 0.8 * geo.collar_width(dom)
    checks: list[CheckResult] = []

    # collar samples: geometric in d (denser near the boundary), grouped per
    # boundary side or direction, ordered by increasing d within each group
    deepest = D_MIN_FACTOR * geo.diameter(dom)
    if not deepest > 0:
        raise ConfigError(
            f"the domain is too small to sample: its deepest collar sample, at "
            f"{D_MIN_FACTOR} x the diameter {geo.diameter(dom)}, is at d = 0"
        )
    rays, ds = geo.collar_ladder(dom, deepest, delta_cert * (1 - 1e-9), COLLAR_SAMPLES)
    collar_pts = rays.reshape(-1, problem.dim)
    collar_d = np.tile(ds, len(rays))
    interior_pts = _interior_points(problem)
    n_int = len(interior_pts)
    all_pts = np.concatenate([interior_pts, collar_pts])
    coeffs = [
        (*problem.drift_and_sigma(all_pts, ci), problem.cost(all_pts, ci)) for ci in range(n_controls)
    ]

    # (i) Hoelder ratios for b, l (exponent eta) and sigma (exponent beta)
    rng = np.random.default_rng(SAMPLING_SEED)
    drawn = rng.integers(0, len(all_pts), size=(HOELDER_PAIRS, 2))
    drawn = drawn[drawn[:, 0] != drawn[:, 1]]
    consecutive = np.arange(len(all_pts) - 1)
    pi = np.concatenate([consecutive, drawn[:, 0]])
    pj = np.concatenate([consecutive + 1, drawn[:, 1]])
    diff = all_pts[pi] - all_pts[pj]
    gap = np.sqrt(rowdot(diff, diff))
    pi, pj, gap = pi[gap != 0.0], pj[gap != 0.0], gap[gap != 0.0]
    if not len(gap):
        raise ConfigError(
            f"the domain is too small to sample: every distance between its "
            f"{len(all_pts)} sample points is 0 in double precision"
        )

    def norms(v: np.ndarray) -> np.ndarray:
        flat = v.reshape(len(v), -1)
        return np.sqrt(rowdot(flat, flat))

    ratios = {
        "b": np.array([norms(b[pi] - b[pj]) / gap**reg.eta for b, _, _ in coeffs]),
        "l": np.array([np.abs(l[pi] - l[pj]) / gap**reg.eta for _, _, l in coeffs]),
        "sigma": np.array([norms(s[pi] - s[pj]) / gap**reg.beta for _, s, _ in coeffs]),
    }
    bound = reg.B * (1.0 + tol)
    for key in ("b", "l", "sigma"):
        r = float(ratios[key].max(initial=0.0))
        wit = None
        if r > bound:
            p = _first_point(ratios[key], r)
            wit = [all_pts[pi[p]].tolist(), all_pts[pj[p]].tolist()]
        checks.append(
            CheckResult(
                name=f"hoelder_{key}",
                passed=r <= bound,
                detail={"max_ratio": r, "bound": reg.B, "tolerance": tol},
                witness=wit,
            )
        )

    # (ii) interior ellipticity
    diffusions = [gram(s) for _, s, _ in coeffs]
    lam = np.array([np.linalg.eigvalsh(a[:n_int])[:, 0] for a in diffusions])
    min_eig = float(lam.min())
    checks.append(
        CheckResult(
            name="interior_ellipticity",
            passed=min_eig > 0.0,
            detail={"min_eigenvalue": min_eig},
            witness=None if min_eig > 0.0 else interior_pts[_first_point(lam, min_eig)].tolist(),
        )
    )

    # (iii) boundary degeneracy: residual at the deepest samples + rate fit
    _, Dd, D2d = geo.distance(dom, collar_pts)
    normal_res = np.max(
        [norms(rowdot(np.swapaxes(s[n_int:], -1, -2), Dd[:, None, :])) for _, s, _ in coeffs],
        axis=0,
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
    drift_vals = np.min(
        [rowdot(b[n_int:], Dd) + trace_product(a[n_int:], D2d) for (b, _, _), a in zip(coeffs, diffusions)],
        axis=0,
    )
    positive = drift_vals > 0
    certificate = None
    if positive.all():
        # local exponent near the boundary, then a pointwise constant
        near = collar_d <= d_min * 100 * (1 + 1e-9)
        gamma = round(_loglog_slope(collar_d[near], drift_vals[near]), 3) + 0.0
        k = float(np.min(drift_vals / collar_d**gamma))
        drift_ok = k > 0.0 and gamma < 2 * reg.beta - 1
        order = np.argsort(collar_d, kind="stable")  # ties in ray order on every platform
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


def degeneracy_certificate(problem: ControlProblem) -> DegeneracyCertificate:
    """Certificate from a full validation run; raises if validation fails."""
    report = validate_assumptions(problem)
    if report.certificate is None:
        failure = report.first_failure()
        raise NumericalError(
            f"assumptions do not hold, first failure: {failure.name if failure else 'unknown'}"
        )
    return report.certificate
