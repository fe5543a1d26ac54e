"""Command-line entry point.

Subcommands: validate, certify, solve, ergodic, converge, holder,
envelope.  Every run writes a manifest (command, config hash, effective
configuration, grid spacing, stepping, seed, version) next to its
outputs; re-running with an identical manifest reproduces identical
bytes.

Exit codes: 0 success, 1 a numerical or theory check failed, 2 bad
configuration or arguments.  Nothing is written on exit code 2, and a
``solve`` that fails removes the snapshots it had already streamed.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import __version__
from . import analysis, barriers, cauchy, ergodic, iotools
from .errors import ConfigError, NumericalError
from .grid import build_grid, stencil_report
from .problem import SamplingPlan, assemble_problem, validate_assumptions

DEFAULT_H = 1e-2
ERGODIC_METHODS = ("policy", "rvi")  # ergodic.solve_ergodic_<method>


def _load_config(path: str) -> dict:
    try:
        with open(path) as handle:
            import json

            return json.load(handle)
    except FileNotFoundError:
        raise ConfigError(f"config file {path!r} not found") from None
    except ValueError as err:
        raise ConfigError(f"config file {path!r} is not valid JSON: {err}") from None


def _config_hash(path: str) -> str:
    with open(path, "rb") as handle:
        return iotools.sha256_bytes(handle.read())


def _grid_h(config: dict, args) -> float:
    if getattr(args, "h", None) is not None:
        return args.h
    return float(config.get("grid", {}).get("h", DEFAULT_H))


def _manifest(args, config: dict, extra: dict) -> dict:
    manifest = {
        "command": args.command,
        "config_path": args.config,
        "config_sha256": _config_hash(args.config),
        "effective_config": config,
        "version": __version__,
        "seed": getattr(args, "seed", None),
    }
    manifest.update(extra)
    return manifest


def _u0_field(grid, spec: str, seed: int):
    if spec == "zero":
        return np.zeros(grid.n)
    if spec == "random":
        rng = np.random.default_rng(seed)
        return rng.uniform(-1.0, 1.0, grid.n)
    return grid.field_from_expr(spec)


def _add_common(sub):
    sub.add_argument("config", help="problem configuration (JSON)")
    sub.add_argument("--out", default=None, help="output directory")
    sub.add_argument("--h", type=float, default=None, help="grid spacing override")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a bad flag is refused like every bad argument: one line, exit 2
        self.exit(2, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built once per process: a parser is a web of reference cycles, and one
    # per run() call would pile up as cyclic garbage in a long-lived caller
    parser = _Parser(
        prog="hjblab",
        description="Discretize, solve and certify boundary-degenerate Bellman problems",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="check the standing assumptions")
    _add_common(p)
    p.add_argument("--tol", type=float, default=0.05)

    p = subs.add_parser("certify", help="search a collar certificate")
    _add_common(p)
    p.add_argument("--family", choices=("lyapunov", "barrier"), required=True)
    p.add_argument("--param", type=float, required=True, help="lambda or rho")
    p.add_argument("--M", type=float, required=True)
    p.add_argument("--grid-step", type=float, default=1e-3)

    p = subs.add_parser("solve", help="solve the initial-value problem")
    _add_common(p)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--mode", choices=("explicit", "implicit"), default="explicit")
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--snap", type=float, default=None, help="snapshot cadence")
    p.add_argument("--u0", default="zero", help="initial field: zero, random, or an expression")
    p.add_argument("--seed", type=int, default=0)

    p = subs.add_parser("ergodic", help="compute the ergodic pair (c, chi)")
    _add_common(p)
    p.add_argument(
        "--method", choices=ERGODIC_METHODS, default="policy",
        help="policy: policy iteration for the average cost (default); "
             "rvi: relative value iteration on implicit steps, stopped by a bracket on c, "
             "as a cross-check",
    )
    p.add_argument("--dt", type=float, default=None,
                   help="rvi step, default 0.05; the policy solver ignores it")
    p.add_argument("--tol", type=float, default=1e-8, help="interior residual tolerance")

    p = subs.add_parser("converge", help="long-time convergence diagnostics")
    _add_common(p)
    p.add_argument("--u0", default="zero")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--dt", type=float, default=0.02)
    p.add_argument("--t-max", type=float, default=500.0)

    p = subs.add_parser("holder", help="boundary regularity fit of the corrector")
    _add_common(p)
    p.add_argument("--side", choices=("left", "right", "radial"), default="left")
    p.add_argument("--fit-min", type=float, default=None)
    p.add_argument("--fit-max", type=float, default=None)

    p = subs.add_parser("envelope", help="boundary envelope check")
    _add_common(p)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--t", type=float, default=None, help="evolutive check at this time")
    p.add_argument("--u0", default=None, help="initial field of the evolutive check (default zero)")
    p.add_argument("--seed", type=int, default=None, help="seed of --u0 random (default 0)")
    p.add_argument("--dt", type=float, default=None, help="step of the evolutive check")
    p.add_argument("--require-certified", action="store_true")
    return parser


def _out_dir(args) -> str:
    return args.out or f"hjblab-{args.command}-out"


def _ergodic_pair(grid, method: str = "policy", tolerance: float = 1e-8, dt: float | None = None):
    solve = getattr(ergodic, f"solve_ergodic_{method}")
    return solve(grid, ergodic.ErgodicSolverParams(tolerance=tolerance, dt=dt))


def _write_snapshots(out: str, coords, states) -> list[float]:
    """Write each state as ``snap_{idx:06d}.csv`` as it is yielded, holding
    no list of fields, and return the snapshot times.  If the evolution
    fails, the snapshots already written are removed, and so is ``out`` if
    this call created it and it is left empty: a failed solve writes nothing."""
    created = not os.path.isdir(out)
    paths, times = [], []
    try:
        for idx, state in enumerate(states):
            path = os.path.join(out, f"snap_{idx:06d}.csv")
            iotools.write_field_csv(path, coords, state.u)
            paths.append(path)
            times.append(state.t)
    except BaseException:
        for path in paths:
            os.unlink(path)
        if created and os.path.isdir(out) and not os.listdir(out):
            os.rmdir(out)
        raise
    return times


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0

    try:
        config = _load_config(args.config)
        problem = assemble_problem(config)
        iotools.worker_count()  # validates HJB_THREADS early
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    try:
        return _dispatch(args, config, problem)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 1


def _dispatch(args, config: dict, problem) -> int:
    out = _out_dir(args)

    if args.command == "validate":
        report = validate_assumptions(problem, SamplingPlan(), tol=args.tol)
        manifest = _manifest(args, config, {"tol": args.tol, "outputs": ["report.json"]})
        iotools.write_json(os.path.join(out, "manifest.json"), manifest)
        iotools.write_json(os.path.join(out, "report.json"), report.to_dict())
        if not report.passed:
            failure = report.first_failure()
            print(f"validation failed: {failure.name}", file=sys.stderr)
            return 1
        print(f"all assumptions hold; certificate k={report.certificate.k:.6g} "
              f"gamma={report.certificate.gamma:.6g}")
        return 0

    if args.command == "certify":
        if args.family == "lyapunov":
            cert = barriers.find_lyapunov_delta(problem, args.param, args.M, args.grid_step)
        else:
            cert = barriers.find_barrier_delta(problem, args.param, args.M, args.grid_step)
        manifest = _manifest(
            args, config,
            {"family": args.family, "param": args.param, "M": args.M,
             "grid_step": args.grid_step, "outputs": ["certificate.json"]},
        )
        iotools.write_json(os.path.join(out, "manifest.json"), manifest)
        iotools.write_json(os.path.join(out, "certificate.json"), cert.to_dict())
        print(f"certified delta={cert.delta:.6g} margin={cert.margin:.3e}")
        return 0

    # the remaining commands need a grid
    h = _grid_h(config, args)
    grid = build_grid(problem, h)

    if args.command == "solve":
        u0 = _u0_field(grid, args.u0, args.seed)
        snap = args.snap if args.snap is not None else args.T
        meta: dict = {}
        states = cauchy.march(grid, u0, args.T, args.mode, args.dt, snap, metadata=meta)
        times = _write_snapshots(out, iotools.coordinate_text(grid.x), states)
        manifest = _manifest(
            args, config,
            {"h": h, "dt": meta["dt"], "mode": args.mode, "T": args.T,
             "u0": args.u0, "snapshot_every": snap,
             "outputs": ["metadata.json", "stencil.json", "snapshots"]},
        )
        iotools.write_json(os.path.join(out, "manifest.json"), manifest)
        iotools.write_json(os.path.join(out, "metadata.json"), {**meta, "times": times})
        iotools.write_json(os.path.join(out, "stencil.json"), stencil_report(grid).to_dict())
        print(f"evolved to T={args.T} with {len(times)} snapshots")
        return 0

    if args.command == "ergodic":
        pair = _ergodic_pair(grid, args.method, args.tol, args.dt)
        # rvi records the step it took; the policy solver takes none and records the flag
        dt = ergodic.RVI_DT if args.method == "rvi" and args.dt is None else args.dt
        manifest = _manifest(
            args, config,
            {"h": h, "method": args.method, "tol": args.tol, "dt": dt,
             "outputs": ["ergodic.json", "chi.csv"]},
        )
        iotools.write_json(os.path.join(out, "manifest.json"), manifest)
        iotools.write_json(os.path.join(out, "ergodic.json"), pair.to_dict())
        iotools.write_field_csv(os.path.join(out, "chi.csv"), iotools.coordinate_text(grid.x), pair.chi)
        print(f"c={pair.c!r} residual={pair.residual:.3e} ({pair.iterations} iterations)")
        return 0

    if args.command == "converge":
        u0 = _u0_field(grid, args.u0, args.seed)
        analysis.check_flat(grid, args.tol, args.dt, args.t_max)  # before the ergodic solve
        pair = _ergodic_pair(grid)
        report, _ = analysis.run_until_flat(
            grid, u0, pair, tol=args.tol, dt=args.dt, t_max=args.t_max
        )
        manifest = _manifest(
            args, config,
            {"h": h, "dt": args.dt, "tol": args.tol, "u0": args.u0,
             "outputs": ["convergence.json", "curves.csv"]},
        )
        iotools.write_json(os.path.join(out, "manifest.json"), manifest)
        iotools.write_json(os.path.join(out, "convergence.json"), report.to_dict())
        iotools.atomic_write_text(
            os.path.join(out, "curves.csv"),
            iotools.curves_csv(
                {"t": report.times, "inf_gap": report.inf_gap,
                 "sup_gap": report.sup_gap, "uniform_error": report.uniform_error}
            ),
        )
        print(f"converged: K={report.K!r} final uniform error={report.uniform_error[-1]:.3e}")
        return 0

    if args.command == "holder":
        if (args.fit_min is None) != (args.fit_max is None):
            raise ConfigError("--fit-min and --fit-max set the fit range together")
        pair = _ergodic_pair(grid)
        fit_range = None if args.fit_min is None else (args.fit_min, args.fit_max)
        fit = analysis.holder_fit(grid, pair.chi, side=args.side, fit_range=fit_range)
        manifest = _manifest(
            args, config,
            {"h": h, "side": args.side, "outputs": ["holder.json"]},
        )
        iotools.write_json(os.path.join(out, "manifest.json"), manifest)
        iotools.write_json(os.path.join(out, "holder.json"), fit.to_dict())
        print(f"exponent={fit.exponent:.4g} (uncapped {fit.uncapped_slope:.4g}, "
              f"r2={fit.r_squared:.4g})")
        return 0

    if args.command == "envelope":
        if args.t is None:
            for flag, value in (("--dt", args.dt), ("--u0", args.u0), ("--seed", args.seed)):
                if value is not None:
                    raise ConfigError(f"{flag} sets the evolutive check and needs --t")
            pair = _ergodic_pair(grid)
            fields, barrier_M = [pair.chi], 2 * abs(pair.c) + grid.l_sup()
        else:
            args.u0 = args.u0 if args.u0 is not None else "zero"
            args.seed = args.seed if args.seed is not None else 0
            u0 = _u0_field(grid, args.u0, args.seed)
            dt = args.dt if args.dt is not None else 0.01
            states = cauchy.march(grid, u0, args.t, "implicit", dt, snapshot_every=dt)
            fields = (state.u for state in states)
            # initial_state refuses a bad u0 before the barrier search runs
            barrier_M = 2 * cauchy.initial_state(grid, u0).u0_sup + grid.l_sup()
        report = analysis.boundary_envelope_check(
            grid, fields, args.rho, args.delta, barrier_M, t=args.t,
            require_certified=args.require_certified,
        )
        manifest = _manifest(
            args, config,
            {"h": h, "rho": args.rho, "delta": args.delta, "t": args.t,
             "outputs": ["envelope.json"]},
        )
        iotools.write_json(os.path.join(out, "manifest.json"), manifest)
        iotools.write_json(os.path.join(out, "envelope.json"), report.to_dict())
        print(f"violations: lower={report.lower_violation:.3e} "
              f"upper={report.upper_violation:.3e}")
        return 0

    raise ConfigError(f"unknown subcommand {args.command!r}")


def main() -> None:
    sys.exit(run(sys.argv[1:]))
