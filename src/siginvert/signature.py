"""Truncated signatures of piecewise linear paths.

A linear segment with displacement v has the signature exp(v), whose level
k is v^{(x)k} / k!.  ``batch_signature`` multiplies the running signatures
of a batch of paths in place by exp(v) of each segment, right to left, with
Horner's scheme: one scratch array per degree and O(M d^depth (d/(d-1))^2)
work for M segments.  The batch axis is the last axis of every level and
scratch array, so each numpy call runs over all the paths of a chunk;
``path_signature`` is the batch of one path.  Each signature is a
``TruncatedSignature`` whose levels are flat arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllocationCapError, AssumptionViolation
from .tensor_algebra import TruncatedSignature, check_allocation, get_allocation_cap

# Angles within this tolerance of 0 or pi raise the assumption flags.
ANGLE_TOL = 1e-9


@dataclass(frozen=True)
class PiecewiseLinearPath:
    """Ordered points in R^d with strictly increasing times.

    Times default to the uniform grid i/M on [0, 1].  Fewer than 2 points,
    a times array of another length, and times that are not finite and
    strictly increasing raise ValueError; the points are not checked.
    """

    points: np.ndarray
    times: np.ndarray | None = None

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        if pts.ndim != 2 or pts.shape[0] < 2:
            raise ValueError("fewer than 2 points in R^d")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        m = pts.shape[0] - 1
        if self.times is None:
            t = np.linspace(0.0, 1.0, m + 1)
        else:
            t = np.asarray(self.times, dtype=np.float64)
            if t.shape != (m + 1,):
                raise ValueError("times must have one entry per point")
            # nan fails every comparison, and finite ends bound the rest
            if not (np.all(np.diff(t) > 0) and np.isfinite(t[[0, -1]]).all()):
                raise ValueError("times must be finite and strictly increasing")
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
    keep = np.flatnonzero(np.concatenate(([True], (pts[1:] != pts[:-1]).any(axis=1))))
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


def _segment_lengths(disp: np.ndarray) -> np.ndarray:
    """Euclidean lengths of the rows of ``disp``, without overflow.

    Each row is scaled by the power of two of its largest |entry| before
    ``np.linalg.norm`` and back after.  Power-of-two scaling is exact, so
    a length whose squares stay in float64 range keeps the bits of
    ``np.linalg.norm(disp, axis=1)``.
    """
    _, exp = np.frexp(np.abs(disp).max(axis=1))
    return np.ldexp(np.linalg.norm(np.ldexp(disp, -exp[:, None]), axis=1), exp)


def segment_geometry(path: PiecewiseLinearPath) -> SegmentGeometry:
    dt = np.diff(path.times)
    disp = np.diff(path.points, axis=0)
    slopes = disp / dt[:, None]
    lengths = _segment_lengths(disp)
    nz = lengths > 0  # zero segments have no slope direction or angle
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


def _scratch_size(d: int, depth: int) -> int:
    """Coefficients of one path's Horner scratch, sum_m (depth - m + 1) d^m
    over m = 1..depth."""
    if d == 1:
        return depth * (depth + 1) // 2
    return d * (d ** (depth + 1) - (depth + 1) * d + depth) // (d - 1) ** 2


def _check_scratch(d: int, depth: int) -> None:
    """Refuse a Horner scratch above 4 times the allocation cap.

    For d >= 2 the scratch is at most (d/(d-1))^2 <= 4 top levels, which
    the cap already bounds; for d = 1 it grows as depth^2 / 2.
    """
    size = _scratch_size(d, depth)
    cap = get_allocation_cap()
    if size > 4 * cap:
        raise AllocationCapError(
            f"signing to depth {depth} over R^{d} needs {size} scratch "
            f"coefficients, above 4 times the cap of {cap}; "
            "raise it with set_allocation_cap() or --max-coeffs"
        )


# Scratch coefficients one batched sweep holds: a batch of paths with equal
# segment counts whose scratch would be larger is signed in chunks.
_BATCH_SCRATCH = 2**18


def _horner_sweep(increments: np.ndarray, depth: int) -> list[np.ndarray]:
    """Levels 0..depth, level k of shape (d**k, N), of the N paths whose
    segment displacements are ``increments`` of shape (M, d, N).

    The segments are folded right to left, S <- exp(v) (x) S, with v the
    segment's displacement.  By Horner's scheme every level n >= 1 gains

        v/1 (x) (S_{n-1} + v/2 (x) (... (S_1 + v/n)))

    computed from the old lower levels.  The partial products of all levels
    advance together one degree at a time, so each degree has one scratch
    array and one multiply per segment.  Folding from the right keeps the
    length-d factor on the left of each outer product, and the batch axis
    is last, so numpy's inner loop runs over the N paths at every degree.
    Entries are not checked: an overflow leaves inf or nan behind.
    """
    d, n = increments.shape[1:]
    levels = [np.ones((1, n))] + [np.zeros((d**k, n)) for k in range(1, depth + 1)]
    # Row r of scratch[m] holds the degree-m partial product of level m + r;
    # its row 0 is complete and is added to level m.
    scratch = [np.ones((depth + 1, 1, 1))]
    scratch += [np.empty((depth - m + 1, d**m, n)) for m in range(1, depth + 1)]
    inv = (1.0 / np.arange(1, depth + 1))[:, None, None, None]
    # row r: v / (r + 1), the left factor of row r at every degree
    vs = np.empty((depth, d, 1, n))
    # per degree m: left and right factors, product, the rows that gain
    # level m, and the row added to it; views made once, not per segment
    steps = [(vs[:depth - m + 1], scratch[m - 1][1:, None],
              scratch[m].reshape(depth - m + 1, d, -1, n),
              scratch[m][1:], scratch[m][0], levels[m])
             for m in range(1, depth + 1)]
    # a zero segment (a repeated point) adds zeros: exp(0) is the identity
    for v in increments[::-1]:
        np.multiply(inv, v[:, None, :], out=vs)
        for left, right, product, gaining, complete, level in steps:
            np.multiply(left, right, out=product)
            gaining += level
            level += complete
    return levels


def batch_signature(paths, depth: int) -> list[TruncatedSignature]:
    """Signatures of piecewise linear paths that share one dimension, in
    input order; each equals ``path_signature`` of its path bit for bit.

    Paths with equal segment counts are signed together, one sweep of
    ``_horner_sweep`` per chunk whose Horner scratch stays under
    ``_BATCH_SCRATCH`` coefficients; a path whose count no other path
    shares is signed alone.  Each signature owns its arrays.  Cost
    O(M d^depth (d/(d-1))^2) multiply-adds per path of M segments; level 1
    equals the endpoint displacement.

    A level that overflows float64 raises AssumptionViolation for the first
    such path in input order, and a scratch above 4 times the allocation
    cap raises AllocationCapError.  Paths of different dimensions raise
    ValueError.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    paths = list(paths)
    if not paths:
        return []
    d = paths[0].dim
    if any(p.dim != d for p in paths):
        raise ValueError("the paths of one batch must share a dimension")
    check_allocation(d, depth)
    _check_scratch(d, depth)
    counts = np.array([p.num_segments for p in paths])
    order = np.argsort(counts, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(counts[order])) + 1)
    chunk = max(1, _BATCH_SCRATCH // max(1, _scratch_size(d, depth)))
    found = [None] * len(paths)
    first_overflow = np.full(len(paths), -1)
    for idx in (g[lo:lo + chunk] for g in groups for lo in range(0, len(g), chunk)):
        # overflow is reported below, per path and level
        with np.errstate(over="ignore", invalid="ignore"):
            increments = np.stack([np.diff(paths[i].points, axis=0) for i in idx],
                                  axis=-1)
            levels = _horner_sweep(increments, depth)
        finite = np.array([np.isfinite(lvl).all(axis=0) for lvl in levels])
        overflowed = ~finite.all(axis=0)
        first_overflow[idx[overflowed]] = finite[:, overflowed].argmin(axis=0)
        for j, i in enumerate(idx):
            # a path of a wider chunk gets its own copy, not a view that
            # would keep the chunk's levels alive
            found[i] = [lvl[:, j].copy() if len(idx) > 1 else lvl[:, j]
                        for lvl in levels]
    failed = np.flatnonzero(first_overflow >= 0)
    if failed.size:
        raise AssumptionViolation(
            f"level {first_overflow[failed[0]]} of the depth-{depth} "
            "signature overflows float64"
        )
    return [TruncatedSignature(d, lvls) for lvls in found]


def path_signature(path: PiecewiseLinearPath, depth: int) -> TruncatedSignature:
    """Signature of a piecewise linear path: ``batch_signature`` of the one
    path, one in-place Horner step per segment (see ``_horner_sweep``).

    A level that overflows float64 raises AssumptionViolation, and a
    scratch above 4 times the allocation cap raises AllocationCapError.
    """
    return batch_signature([path], depth)[0]


def constant_speed_reparam(path: PiecewiseLinearPath) -> PiecewiseLinearPath:
    """Replace the times so that every slope has norm ell (the length).

    Repeated points are merged first.  A length outside (0, inf), or a
    segment too short to advance the time in float64, raises ValueError.
    """
    path = merge_degenerate(path)
    seg_len = _segment_lengths(np.diff(path.points, axis=0))
    ell = seg_len.sum()
    if not 0.0 < ell < math.inf:
        raise ValueError(f"a path of length {ell} cannot be reparameterized")
    u = np.concatenate(([0.0], np.cumsum(seg_len) / ell))
    u[-1] = 1.0
    return PiecewiseLinearPath(path.points, u)
