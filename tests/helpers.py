"""Cached builders shared across test modules (grids and ergodic pairs
at the fine resolutions are expensive enough to compute only once)."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

import hjblab as hj

PRESETS = ("constantL", "smoothA", "degenerateB", "twoControlA")


@lru_cache(maxsize=None)
def problem(preset: str, L: float = 2.0) -> hj.ControlProblem:
    cfg = {"preset": preset}
    if preset == "constantL":
        cfg["L"] = L
    return hj.assemble_problem(cfg)


@lru_cache(maxsize=None)
def grid(preset: str, h: float) -> hj.Grid:
    return hj.build_grid(problem(preset), h)


@lru_cache(maxsize=None)
def rvi_pair(preset: str, h: float, tol: float = 1e-9, dt: float = 0.05) -> hj.ErgodicPair:
    return hj.solve_ergodic_rvi(grid(preset, h), hj.ErgodicSolverParams(tolerance=tol, dt=dt))


@lru_cache(maxsize=None)
def longtime_pair(preset: str, h: float, tol: float = 1e-7, dt: float = 0.02) -> hj.ErgodicPair:
    return hj.solve_ergodic_longtime(grid(preset, h), hj.ErgodicSolverParams(tolerance=tol, dt=dt))


def dyadic_field(n: int, seed: int = 0, bits: int = 20) -> np.ndarray:
    """Random field of dyadic rationals: adding a small integer to these
    is exact in IEEE doubles, so translation tests can demand bit equality."""
    rng = np.random.default_rng(seed)
    return rng.integers(-(2**bits), 2**bits, n) / float(2**bits)


def sigma_one_config() -> dict:
    """The smooth single-control problem with the degeneracy broken."""
    return {
        "domain": {"kind": "interval", "x_lo": 0.0, "x_hi": 1.0},
        "controls": [{"b": ["1-2*x1"], "sigma": [["1"]], "l": "x1"}],
        "regularity": {"B": 2.0, "eta": 1.0, "beta": 1.0},
    }


def overflowing_config() -> dict:
    """A degenerate problem with cost 1e308: u grows like t * 1e308 and overflows before t = 2."""
    cfg = sigma_one_config()
    cfg["controls"][0].update(sigma=[["x1*(1-x1)"]], l="1e308")
    return cfg


def flat_config() -> dict:
    """No drift and no diffusion: no node is ever reached from another."""
    return {
        "domain": {"kind": "interval", "x_lo": 0.0, "x_hi": 1.0},
        "controls": [{"b": ["0"], "sigma": [["0"]], "l": "x1"}],
        "regularity": {"B": 2.0, "eta": 1.0, "beta": 1.0},
    }


def disk_config() -> dict:
    """The unit disk with b = -x, sigma = d I and l = x1^2."""
    return {
        "domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0},
        "controls": [{"b": ["-x1", "-x2"], "sigma": [["d", "0"], ["0", "d"]], "l": "x1^2"}],
        "regularity": {"B": 2.0, "eta": 1.0, "beta": 1.0},
    }


def two_control_disk_config() -> dict:
    """:func:`disk_config` plus a rotating control with anisotropic diffusion."""
    cfg = disk_config()
    cfg["controls"].append({"b": ["-x2", "x1"], "sigma": [["d", "0"], ["0", "0.5*d"]], "l": "1+x2"})
    return cfg
