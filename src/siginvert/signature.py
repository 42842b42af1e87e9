"""Truncated signatures of piecewise linear paths.

A linear segment with displacement v has the signature exp(v), whose level
k is v^{(x)k} / k!.  ``path_signature`` multiplies the running signature in
place by exp(v) of each segment, right to left, with Horner's scheme: one
scratch array per degree and O(M d^depth (d/(d-1))^2) work for M segments.
``linear_signature`` (the per-segment closed form) and ``chen_concat``
(Chen's identity) join two signatures and serve as the tests' oracle for
the Horner step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionViolation
from .tensor_algebra import (
    TensorLevel,
    TruncatedSignature,
    check_allocation,
)

# Angles within this tolerance of 0 or pi raise the assumption flags.
ANGLE_TOL = 1e-9


@dataclass(frozen=True)
class PiecewiseLinearPath:
    """Ordered points in R^d with strictly increasing times in [0, 1].

    Times default to the uniform grid i/M when not provided.
    """

    points: np.ndarray
    times: np.ndarray | None = None

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        if pts.ndim != 2 or pts.shape[0] < 2:
            raise ValueError("a path needs at least 2 points in R^d")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        m = pts.shape[0] - 1
        if self.times is None:
            t = np.linspace(0.0, 1.0, m + 1)
        else:
            t = np.asarray(self.times, dtype=np.float64)
            if t.shape != (m + 1,):
                raise ValueError("times must have one entry per point")
            if np.any(np.diff(t) <= 0):
                raise ValueError("times must be strictly increasing")
        t.setflags(write=False)
        object.__setattr__(self, "times", t)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def num_segments(self) -> int:
        return self.points.shape[0] - 1

    def translated(self, offset) -> "PiecewiseLinearPath":
        return PiecewiseLinearPath(self.points + np.asarray(offset), self.times)

    def scaled(self, alpha: float) -> "PiecewiseLinearPath":
        return PiecewiseLinearPath(alpha * self.points, self.times)


def merge_degenerate(path: PiecewiseLinearPath) -> PiecewiseLinearPath:
    """Drop consecutive duplicate points; they carry the identity signature."""
    pts, t = path.points, path.times
    keep = [0]
    for i in range(1, pts.shape[0]):
        if not np.array_equal(pts[i], pts[keep[-1]]):
            keep.append(i)
    if len(keep) == len(pts):
        return path
    if len(keep) < 2:
        # all points equal: keep the two endpoints of a zero segment
        return PiecewiseLinearPath(pts[[0, -1]], t[[0, -1]])
    return PiecewiseLinearPath(pts[keep], t[keep])


@dataclass(frozen=True)
class SegmentGeometry:
    """Slopes, lengths, kink angles and assumption flags of a path.

    Angles follow the vertex convention: omega_i is the angle at breakpoint
    i between the rays back along the incoming segment and forward along
    the outgoing one, so a straight continuation has omega = pi and an
    exact backtrack has omega = 0 (the convention the kink-loss constant
    K(omega) is stated in).
    """

    slopes: np.ndarray          # (M, d) slopes beta_i
    lengths: np.ndarray         # (M,) segment lengths |beta_i| dt_i
    total_variation: float      # ell
    angles: np.ndarray          # (M-1,) vertex angles omega_i in [0, pi]
    min_angle: float            # min_i omega_i; pi when M == 1
    non_minimal_partition: bool  # some omega_i == pi (collinear pieces)
    tree_like_backtrack: bool    # some omega_i == 0 (path retraces itself)


def segment_geometry(path: PiecewiseLinearPath) -> SegmentGeometry:
    path = merge_degenerate(path)
    dt = np.diff(path.times)
    disp = np.diff(path.points, axis=0)
    slopes = disp / dt[:, None]
    lengths = np.linalg.norm(disp, axis=1)
    nz = lengths > 0
    if not np.any(nz):
        raise ValueError("path has no non-degenerate segment")
    slopes, lengths, disp = slopes[nz], lengths[nz], disp[nz]
    m = len(lengths)
    if m > 1:
        unit = disp / lengths[:, None]
        # vertex angle: between -incoming and +outgoing directions
        cosines = np.clip(-np.sum(unit[:-1] * unit[1:], axis=1), -1.0, 1.0)
        angles = np.arccos(cosines)
        min_angle = float(angles.min())
    else:
        angles = np.empty(0)
        min_angle = math.pi
    return SegmentGeometry(
        slopes=slopes,
        lengths=lengths,
        total_variation=float(lengths.sum()),
        angles=angles,
        min_angle=min_angle,
        non_minimal_partition=bool(np.any(angles > math.pi - ANGLE_TOL)),
        tree_like_backtrack=bool(np.any(angles < ANGLE_TOL)),
    )


def require_clean_angles(geom: SegmentGeometry) -> None:
    """Raise when the minimal-partition / reduced-path assumption fails."""
    if geom.non_minimal_partition:
        raise AssumptionViolation(
            "consecutive collinear segments (vertex angle pi): "
            "partition not minimal"
        )
    if geom.tree_like_backtrack:
        raise AssumptionViolation(
            "exact backtracking segment (vertex angle 0): path is not reduced"
        )


def linear_signature(beta, dt: float, depth: int) -> TruncatedSignature:
    """Signature of the linear segment t -> beta * t over an interval of
    length dt: level k equals beta^{(x)k} dt^k / k!."""
    beta = np.asarray(beta, dtype=np.float64).ravel()
    d = beta.size
    if dt <= 0:
        raise ValueError("dt must be positive")
    check_allocation(d, depth)
    levels = [TensorLevel.scalar(d, 1.0)]
    cur = np.array([1.0])
    for k in range(1, depth + 1):
        nxt = np.zeros((cur.size, d))
        nxt += cur[:, None] * (beta * (dt / k))[None, :]
        cur = nxt.ravel()
        levels.append(TensorLevel(d, k, cur))
    return TruncatedSignature(d, depth, tuple(levels))


def chen_concat(a: TruncatedSignature, b: TruncatedSignature) -> TruncatedSignature:
    """Chen's identity: level n of the concatenation is
    sum_k a_k (x) b_{n-k}."""
    if a.dim != b.dim or a.depth != b.depth:
        raise ValueError("signatures must share dim and depth")
    d = a.dim
    levels = [TensorLevel.scalar(d, float(a.level(0)[0] * b.level(0)[0]))]
    for n in range(1, a.depth + 1):
        out = np.zeros(d**n)
        for k in range(n + 1):
            lo, hi = a.level(k), b.level(n - k)
            out.reshape(lo.size, hi.size)[...] += lo[:, None] * hi[None, :]
        levels.append(TensorLevel(d, n, out))
    return TruncatedSignature(d, a.depth, tuple(levels))


def path_signature(path: PiecewiseLinearPath, depth: int) -> TruncatedSignature:
    """Signature of a piecewise linear path, one in-place Horner step per
    segment.

    The segments are folded right to left, S <- exp(v) (x) S, with v the
    segment's displacement.  By Horner's scheme every level n >= 1 gains

        v/1 (x) (S_{n-1} + v/2 (x) (... (S_1 + v/n)))

    computed from the old lower levels.  The partial products of all levels
    advance together one degree at a time, so each degree has one scratch
    array and one multiply per segment.  Folding from the right keeps the
    length-d factor on the left of each outer product, so the inner loop
    runs over the long contiguous axis.  Cost O(M d^depth (d/(d-1))^2)
    multiply-adds for M segments; level 1 equals the endpoint displacement.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    path = merge_degenerate(path)
    d = path.dim
    check_allocation(d, depth)
    levels = [np.ones(1)] + [np.zeros(d**k) for k in range(1, depth + 1)]
    # Row r of scratch[m] holds the degree-m partial product of level m + r;
    # its row 0 is complete and is added to level m.
    scratch = [np.ones((depth + 1, 1))]
    scratch += [np.empty((depth - m + 1, d**m)) for m in range(1, depth + 1)]
    inv = 1.0 / np.arange(1, depth + 1)
    # a zero segment (a constant path) adds zeros: exp(0) is the identity
    for v in np.diff(path.points, axis=0)[::-1]:
        # row r: v / (r + 1), the left factor of row r at every degree
        vs = inv[:, None, None] * v[None, :, None]
        for m in range(1, depth + 1):
            rows = depth - m + 1
            buf = scratch[m]
            np.multiply(vs[:rows], scratch[m - 1][1:, None, :],
                        out=buf.reshape(rows, d, -1))
            buf[1:] += levels[m]
            levels[m] += buf[0]
    return TruncatedSignature(
        d, depth, tuple(TensorLevel(d, k, lvl) for k, lvl in enumerate(levels))
    )


def restrict(path: PiecewiseLinearPath, u: float, v: float) -> PiecewiseLinearPath:
    """The path restricted to [u, v], with interpolated endpoints."""
    t, pts = path.times, path.points
    if not t[0] <= u < v <= t[-1]:
        raise ValueError("need t0 <= u < v <= tM")

    def point_at(s):
        return np.array([np.interp(s, t, pts[:, j]) for j in range(path.dim)])

    inner = (t > u) & (t < v)
    new_t = np.concatenate(([u], t[inner], [v]))
    new_p = np.vstack([point_at(u), pts[inner], point_at(v)])
    return PiecewiseLinearPath(new_p, new_t)


def constant_speed_reparam(path: PiecewiseLinearPath) -> PiecewiseLinearPath:
    """Replace the times so that every slope has norm ell (the length)."""
    path = merge_degenerate(path)
    seg_len = np.linalg.norm(np.diff(path.points, axis=0), axis=1)
    ell = seg_len.sum()
    if ell <= 0:
        raise ValueError("zero-length path cannot be reparameterized")
    u = np.concatenate(([0.0], np.cumsum(seg_len) / ell))
    u[-1] = 1.0
    return PiecewiseLinearPath(path.points, u)
