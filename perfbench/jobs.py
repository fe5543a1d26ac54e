"""The benchmark's workloads: the CLI jobs each one runs and the check
each job's output must pass.

Paths are relative to the repository root, which is the working
directory of every workload process.  References come from symmetry
where one exists and otherwise from ``references.json``, recorded by
running each job once with hjblab 0.1.0 at commit 74a0c68.
"""

from __future__ import annotations

import glob
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")
DISK = "perfbench/disk.json"


def preset(name: str) -> str:
    return f"presets/{name}.json"


@dataclass(frozen=True)
class Job:
    name: str                       # unique in its workload; names the --out directory
    argv: tuple[str, ...]           # hjblab.cli.run arguments without --out
    check: Callable[[str], list[str]]   # output directory -> problems found

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: tuple[Job, ...]


# -- output readers and checks --------------------------------------------------


def _json(out: str, name: str) -> dict:
    with open(os.path.join(out, name)) as handle:
        return json.load(handle)


def _csv_values(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, -1]


def check_ergodic(c_ref: float, tol: float) -> Callable[[str], list[str]]:
    def check(out: str) -> list[str]:
        rep = _json(out, "ergodic.json")
        chi = _csv_values(os.path.join(out, "chi.csv"))
        problems = []
        if not abs(rep["c"] - c_ref) <= 1e-6:
            problems.append(f"c={rep['c']!r} is not within 1e-6 of {c_ref!r}")
        if not rep["residual"] <= tol:
            problems.append(f"residual {rep['residual']!r} exceeds {tol}")
        if chi.max() != 0.0:
            problems.append(f"sup chi is {chi.max()!r}, not 0")
        return problems

    return check


def check_holder(out: str) -> list[str]:
    fit = _json(out, "holder.json")
    problems = []
    if not 0.4 <= fit["exponent"] <= 0.7:
        problems.append(f"exponent {fit['exponent']!r} outside [0.4, 0.7]")
    if not fit["uncapped_slope"] < 0.95:
        problems.append(f"uncapped slope {fit['uncapped_slope']!r} is not below 0.95")
    return problems


def check_converge(out: str) -> list[str]:
    final = _json(out, "convergence.json")["uniform_error"][-1]
    return [] if final < 1e-3 else [f"final uniform error {final!r} is not below 1e-3"]


def check_envelope(out: str) -> list[str]:
    rep = _json(out, "envelope.json")
    worst = max(rep["lower_violation"], rep["upper_violation"])
    return [] if worst <= 2e-2 else [f"envelope violation {worst!r} exceeds 2e-2"]


def check_validate(out: str) -> list[str]:
    return [] if _json(out, "report.json")["passed"] is True else ["validation did not pass"]


def check_certify(delta_ref: float) -> Callable[[str], list[str]]:
    def check(out: str) -> list[str]:
        cert = _json(out, "certificate.json")
        problems = []
        if cert["delta"] != delta_ref:
            problems.append(f"delta={cert['delta']!r}, reference {delta_ref!r}")
        if not cert["margin"] <= 0.0:
            problems.append(f"margin {cert['margin']!r} is positive")
        return problems

    return check


def check_solve(n_snapshots: int, final_ref: list[float]) -> Callable[[str], list[str]]:
    ref = np.asarray(final_ref)

    def check(out: str) -> list[str]:
        snaps = sorted(glob.glob(os.path.join(out, "snap_*.csv")))
        if len(snaps) != n_snapshots:
            return [f"{len(snaps)} snapshots, expected {n_snapshots}"]
        problems = []
        final = _csv_values(snaps[-1])
        if final.shape != ref.shape:
            problems.append(f"final snapshot has {final.size} nodes, expected {ref.size}")
        elif not np.abs(final - ref).max() <= 1e-9 * np.abs(ref).max():
            problems.append(
                f"final snapshot differs from the reference by {np.abs(final - ref).max():.3e}"
            )
        exterior = _json(out, "stencil.json")["exterior_reference_count"]
        if exterior != 0:
            problems.append(f"{exterior} exterior references in the stencil")
        return problems

    return check


# -- workloads -------------------------------------------------------------------


def load_workloads() -> dict[str, Workload]:
    with open(REFERENCES) as handle:
        refs = json.load(handle)
    h = "0.004"
    corrector = (
        # one control, so c = -(integral of l = x1 against the stationary density),
        # which is symmetric under x1 -> 1 - x1 on smoothA: c = -1/2
        Job("ergodic-smoothA", ("ergodic", preset("smoothA"), "--h", h), check_ergodic(-0.5, 1e-8)),
        Job("ergodic-twoControlA", ("ergodic", preset("twoControlA"), "--h", h),
            check_ergodic(refs["ergodic_c"]["twoControlA"], 1e-8)),
        # l = 2 everywhere, so c = -2 exactly
        Job("ergodic-constantL", ("ergodic", preset("constantL"), "--h", h), check_ergodic(-2.0, 1e-8)),
        Job("holder-degenerateB",
            ("holder", preset("degenerateB"), "--h", h, "--fit-min", "0.004", "--fit-max", "0.05"),
            check_holder),
        Job("converge-smoothA", ("converge", preset("smoothA")), check_converge),
        Job("envelope-smoothA",
            ("envelope", preset("smoothA"), "--h", h, "--rho", "0.4", "--delta", "0.1"),
            check_envelope),
    )
    disk = (
        Job("solve-disk", ("solve", DISK, "--h", "0.02", "--mode", "implicit", "--dt", "0.05", "--T", "0.5"),
            check_solve(2, refs["final_snapshot"]["solve-disk"])),
        Job("ergodic-disk", ("ergodic", DISK, "--h", "0.05", "--dt", "0.05"),
            check_ergodic(refs["ergodic_c"]["disk"], 1e-8)),
    )
    configs = {name: preset(name) for name in ("smoothA", "twoControlA", "degenerateB", "constantL")}
    configs["disk"] = DISK
    validate = tuple(
        Job(f"validate-{name}", ("validate", path), check_validate) for name, path in configs.items()
    )
    # degenerateB has no lyapunov certificate at lambda = 1 (it fails at M = 10
    # and at M = 1), so it runs with lambda = 0.5, M = 2 instead
    certify = tuple(
        Job(f"certify-{family}-{name}",
            ("certify", configs[name], "--family", family, "--param", param, "--M", M),
            check_certify(refs["certify_delta"][f"{family}-{name}"]))
        for family, name, param, M in (
            ("lyapunov", "smoothA", "1", "10"),
            ("lyapunov", "twoControlA", "1", "10"),
            ("lyapunov", "disk", "1", "10"),
            ("lyapunov", "degenerateB", "0.5", "2"),
            ("barrier", "smoothA", "0.5", "1"),
            ("barrier", "twoControlA", "0.5", "1"),
            ("barrier", "disk", "0.5", "1"),
            ("barrier", "degenerateB", "0.3", "1"),
        )
    )
    evolve = (
        Job("solve-explicit-twoControlA",
            ("solve", preset("twoControlA"), "--h", "0.002", "--mode", "explicit", "--T", "1", "--snap", "0.01"),
            check_solve(101, refs["final_snapshot"]["solve-explicit-twoControlA"])),
        Job("solve-implicit-smoothA",
            ("solve", preset("smoothA"), "--h", "0.001", "--mode", "implicit", "--dt", "0.01",
             "--T", "5", "--snap", "0.01"),
            check_solve(501, refs["final_snapshot"]["solve-implicit-smoothA"])),
    )
    workloads = (
        Workload(
            "corrector-1d",
            "RVI ergodic solves and implicit Howard steps do ~95% of the work, grid build ~2%; "
            "a faster ergodic solver must show here",
            corrector,
        ),
        Workload(
            "disk-2d",
            "per-node scalar grid build of a 2-D disk dominates, sparse frozen-policy solves next; "
            "a vectorized coefficient layer must show here",
            disk,
        ),
        Workload(
            "certify",
            "no grid: pointwise coefficient use in validation and barrier scans, "
            "so a vectorizer that slows single-point evaluation shows here",
            validate + certify,
        ),
        Workload(
            "evolve-1d",
            "explicit and implicit stepping with 602 CSV snapshot writes and one cfl_dt per "
            "explicit step; the write path and apply_H kernel, with no ergodic solve",
            evolve,
        ),
    )
    return {w.name: w for w in workloads}
