import numpy as np
import pytest

from hjblab.errors import ConfigError
from hjblab.geometry import (
    Disk,
    Interval,
    boundary_foot,
    collar_width,
    diameter,
    distance,
    distance_value,
    inradius,
)
from oracles import fd_gradient, fd_hessian

UNIT = Interval(0.0, 1.0)
DISK = Disk((0.0, 0.0), 1.0)


def test_interval_left_branch():
    d, Dd, D2d = distance(UNIT, [0.1])
    assert d == 0.1 and Dd[0] == 1.0 and D2d[0, 0] == 0.0


def test_interval_right_branch():
    d, Dd, D2d = distance(UNIT, [0.9])
    assert d == pytest.approx(0.1, abs=1e-15) and Dd[0] == -1.0 and D2d[0, 0] == 0.0


def test_disk_point():
    d, Dd, D2d = distance(DISK, [0.5, 0.0])
    assert d == 0.5
    assert np.allclose(Dd, [-1.0, 0.0])
    assert np.allclose(D2d, np.diag([0.0, -2.0]))


def test_disk_hessian_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(12):
        theta = rng.uniform(0, 2 * np.pi)
        r = rng.uniform(0.55, 0.95)
        x = r * np.array([np.cos(theta), np.sin(theta)])
        d, Dd, D2d = distance(DISK, x)
        assert abs(d - distance_value(DISK, x)) < 1e-14
        assert np.abs(Dd - fd_gradient(DISK, x)).max() < 1e-8
        assert np.abs(D2d - fd_hessian(DISK, x)).max() < 1e-5


def test_interval_gradient_matches_finite_differences():
    for x in (0.05, 0.2, 0.8, 0.97):
        _, Dd, _ = distance(UNIT, [x])
        assert np.abs(Dd - fd_gradient(UNIT, [x])).max() < 1e-9


def test_errors():
    with pytest.raises(ConfigError):
        distance(UNIT, [1.5])
    with pytest.raises(ConfigError):
        distance(UNIT, [0.0])  # boundary is not strictly inside
    with pytest.raises(ConfigError):
        distance(DISK, [0.0, 0.0])  # gradient undefined at the center
    with pytest.raises(ConfigError):
        distance_value(UNIT, [-0.2])
    with pytest.raises(ConfigError):
        Interval(1.0, 0.0)
    with pytest.raises(ConfigError):
        Disk((0.0, 0.0), -1.0)


def test_distance_value_on_closure():
    assert distance_value(UNIT, [0.0]) == 0.0
    assert distance_value(DISK, [1.0, 0.0]) == 0.0
    assert distance_value(DISK, [0.0, 0.0]) == 1.0


def test_sizes():
    assert diameter(UNIT) == 1.0 and inradius(UNIT) == 0.5 and collar_width(UNIT) == 0.25
    assert diameter(DISK) == 2.0 and inradius(DISK) == 1.0 and collar_width(DISK) == 0.5


def test_boundary_foot():
    foot, normal = boundary_foot(UNIT, [0.2])
    assert foot[0] == 0.0 and normal[0] == 1.0
    foot, normal = boundary_foot(DISK, [0.0, -0.4])
    assert np.allclose(foot, [0.0, -1.0]) and np.allclose(normal, [0.0, 1.0])


def test_midpoint_tie_is_left_branch():
    d, Dd, _ = distance(UNIT, [0.5])
    assert d == 0.5 and Dd[0] == 1.0


def test_distance_batch_matches_pointwise():
    rng = np.random.default_rng(4)
    cases = [
        (UNIT, rng.uniform(0.001, 0.999, (300, 1))),
        (DISK, rng.uniform(-0.7, 0.7, (300, 2))),
    ]
    for dom, pts in cases:
        d, Dd, D2d = distance(dom, pts)
        assert d.shape == (300,) and Dd.shape == pts.shape and D2d.shape == (300, *pts.shape[1:], pts.shape[1])
        dv = distance_value(dom, pts)
        foot, normal = boundary_foot(dom, pts)
        for i, x in enumerate(pts):
            di, Ddi, D2di = distance(dom, x)
            assert d[i] == di and np.array_equal(Dd[i], Ddi) and np.array_equal(D2d[i], D2di)
            assert dv[i] == distance_value(dom, x)
            fi, ni = boundary_foot(dom, x)
            assert np.array_equal(foot[i], fi) and np.array_equal(normal[i], ni)


def test_distance_batch_refuses_any_bad_point():
    with pytest.raises(ConfigError):
        distance(UNIT, np.array([[0.2], [0.5], [1.0]]))
    with pytest.raises(ConfigError):
        distance(DISK, np.array([[0.2, 0.1], [0.0, 0.0]]))
    with pytest.raises(ConfigError):
        distance_value(DISK, np.array([[0.2, 0.1], [1.5, 0.0]]))
