import numpy as np
import pytest

from siginvert import PiecewiseLinearPath, insertion, path_signature


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def signed_depths(monkeypatch):
    """The depth of each signing on the route from a path to its
    inversions, in call order."""
    signed = []
    monkeypatch.setattr(insertion, "path_signature", lambda path, depth: (
        signed.append(depth) or path_signature(path, depth)))
    return signed


def random_path(rng, segments, dim, scale=1.0):
    pts = np.cumsum(rng.normal(scale=scale, size=(segments + 1, dim)), axis=0)
    return PiecewiseLinearPath(pts)


def unit_speed_two_segment(t1, omega, dim=2):
    """Unit-total-variation constant-speed path with one kink whose vertex
    angle is omega (pi = straight continuation, 0 = backtrack).

    Segment widths are t1 and 1 - t1 and both slopes are unit vectors, so
    the path has total variation 1.
    """
    u1 = np.zeros(dim)
    u1[0] = 1.0
    u2 = np.zeros(dim)
    u2[0] = np.cos(np.pi - omega)
    u2[1] = np.sin(np.pi - omega)
    pts = np.vstack([np.zeros(dim), t1 * u1, t1 * u1 + (1.0 - t1) * u2])
    return PiecewiseLinearPath(pts, np.array([0.0, t1, 1.0]))


def turning_unit_path(rng, segments, angle_lo, angle_hi):
    """Unit-TV constant-speed planar path whose kink vertex angles all lie
    in [angle_lo, angle_hi]."""
    widths = rng.dirichlet(np.ones(segments))
    widths = np.maximum(widths, 0.05)
    widths = widths / widths.sum()
    heading = rng.uniform(0.0, 2.0 * np.pi)
    pts = [np.zeros(2)]
    times = np.concatenate(([0.0], np.cumsum(widths)))
    times[-1] = 1.0
    for i in range(segments):
        direction = np.array([np.cos(heading), np.sin(heading)])
        pts.append(pts[-1] + widths[i] * direction)
        vertex = rng.uniform(angle_lo, angle_hi)
        heading += (np.pi - vertex) * rng.choice([-1.0, 1.0])
    return PiecewiseLinearPath(np.array(pts), times)
