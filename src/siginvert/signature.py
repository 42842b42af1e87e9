"""Truncated signatures of piecewise linear paths.

A linear segment with displacement v has the signature exp(v), whose level
k is v^{(x)k} / k!.  Over R^1 a path's signature is exp(x), x its
displacement.  Over R^d, d >= 2, ``batch_signature`` multiplies the
running signatures of a batch of paths in place by exp(v) of each segment,
right to left, with Horner's scheme: O(M d^depth (d/(d-1))^2) work for M
segments, with each degree's scratch in one of two buffers by its parity,
since degree m reads only degree m - 1.  The batch axis is the last axis of
every level and scratch array, so each numpy call runs over a chunk's paths;
``path_signature`` is the batch of one path.  Each signature is a
``TruncatedSignature`` over its path's column of the chunk's table: a view
when the chunk holds one path, a copy otherwise.

The sweep runs with numpy's ufunc buffer at ``_SWEEP_BUFSIZE`` elements,
set for the sweep alone and restored after it.  numpy's buffered iterator
copies broadcast operands into its buffer when a loop's inner axis is
shorter than about half of it; at the default size that is every product
and sum of the sweep's middle degrees, and the copies cost more than the
arithmetic.  Every product and sum is the same IEEE operation at any
buffer size, so a signature's bits do not depend on it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionViolation
from .tensor_algebra import (TruncatedSignature, _size, _wrap, check_count,
                             check_levels)

# Angles within this tolerance of 0 or pi fail require_clean_angles.
ANGLE_TOL = 1e-9


@functools.lru_cache(maxsize=16)
def _uniform_grid(m: int) -> np.ndarray:
    """The times i/m, i = 0..m, shared by every path of m segments built
    without times: held in an immutable bytes buffer, so neither the grid
    nor a view of it can be made writeable again."""
    return np.frombuffer(np.linspace(0.0, 1.0, m + 1).tobytes())


@dataclass(frozen=True, eq=False)
class PiecewiseLinearPath:
    """Ordered points in R^d with strictly increasing times.

    Times default to the uniform grid i/M on [0, 1], a read-only view of
    one grid cached per M, which no caller can make writeable.  Fewer
    than 2 points, points in R^0, a point that is not finite, a times
    array of another length, and times that are not finite and strictly
    increasing raise ValueError.  Equality is identity.
    """

    points: np.ndarray
    times: np.ndarray | None = None

    def __post_init__(self):
        # copies, so the read-only flag below never lands on the caller's array
        pts = np.atleast_2d(np.array(self.points, dtype=np.float64))
        if pts.ndim != 2 or pts.shape[0] < 2:
            raise ValueError("fewer than 2 points in R^d")
        if pts.shape[1] == 0:
            raise ValueError(f"points of shape {pts.shape} lie in R^0")
        if not np.isfinite(pts).all():
            raise ValueError("the path has a non-finite point")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        m = pts.shape[0] - 1
        if self.times is None:
            # a view, so that setting its shape leaves the shared grid alone
            t = _uniform_grid(m).view()
        else:
            t = np.array(self.times, dtype=np.float64)
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


def _wrap_path(points: np.ndarray) -> PiecewiseLinearPath:
    """The path through ``points`` on the uniform grid, which the library
    has just built, with no copy and no check: a read-only (M + 1, d) view,
    M >= 1 and d >= 1, of an array already checked to be finite.  Its
    times are a view of the shared grid, as the constructor's are."""
    path = object.__new__(PiecewiseLinearPath)
    # object.__setattr__ keeps the attributes inline: vars(path) would
    # build the instance a dict of its own, about 150 bytes more a path
    object.__setattr__(path, "points", points)
    object.__setattr__(path, "times", _uniform_grid(len(points) - 1).view())
    return path


@dataclass(frozen=True, eq=False)
class SegmentGeometry:
    """Lengths and kink angles of a path, read off its points alone.

    Angles follow the vertex convention: omega_i is the angle at breakpoint
    i between the rays back along the incoming segment and forward along
    the outgoing one, so a straight continuation has omega = pi and an
    exact backtrack has omega = 0 (the convention the kink-loss constant
    K(omega) is stated in).  Equality is identity.
    """

    lengths: np.ndarray         # (M,) segment lengths
    total_variation: float      # ell
    angles: np.ndarray          # (M-1,) vertex angles omega_i in [0, pi]
    min_angle: float            # min_i omega_i; pi when M == 1


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
    disp = np.diff(path.points, axis=0)
    lengths = _segment_lengths(disp)
    nz = lengths > 0  # zero segments have no direction or angle
    if not np.any(nz):
        raise ValueError("path has no non-degenerate segment")
    lengths, disp = lengths[nz], disp[nz]
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
        lengths=lengths,
        total_variation=float(lengths.sum()),
        angles=angles,
        min_angle=min_angle,
    )


def require_clean_angles(geom: SegmentGeometry) -> None:
    """Raise when the minimal-partition / reduced-path assumption fails."""
    if np.any(geom.angles > math.pi - ANGLE_TOL):
        raise AssumptionViolation(
            "consecutive collinear segments (vertex angle pi): "
            "partition not minimal"
        )
    if np.any(geom.angles < ANGLE_TOL):
        raise AssumptionViolation(
            "exact backtracking segment (vertex angle 0): path is not reduced"
        )


def _parity_blocks(d: int, depth: int) -> tuple[int, int]:
    """Coefficients per path of the sweep's two scratch buffers, d >= 2: the
    largest degree-m block of (depth - m + 1) d^m, m = 1..depth, of even and
    of odd m.  The blocks grow with m, so the two largest are m = depth and
    depth - 1."""
    top = d**depth if depth else 0
    below = 2 * d ** (depth - 1) if depth > 1 else 0
    return (top, below) if depth % 2 == 0 else (below, top)


def _scratch_size(d: int, depth: int) -> int:
    """Coefficients of one path's Horner scratch: d^depth + 2 d^(depth - 1)
    at depth >= 2."""
    return sum(_parity_blocks(d, depth))


# Scratch coefficients (``_scratch_size`` per path) one batched sweep holds:
# a batch of paths with equal segment counts whose scratch would be larger
# is signed in chunks.  Over R^1 there is no sweep, and a chunk's table,
# depth + 1 coefficients a path, is smaller than its signatures' level views.
_BATCH_SCRATCH = 2**18

# numpy's ufunc buffer, in elements, while the sweep runs (see the module
# docstring).  At 1024 more of the sweep's loops run in place, and the rest
# copy through a buffer that stays in cache: of the sizes 16 to 8192 it was
# the fastest measured, for one path and for chunks of 72 and 128 paths.
# numpy takes multiples of 16.
_SWEEP_BUFSIZE = 1024


def _horner_sweep(increments: np.ndarray, depth: int) -> np.ndarray:
    """Levels 0..depth of the N paths with segment displacements ``increments``
    (M, d, N), d >= 2, as one (sum_k d**k, N) array of level blocks, a path
    per column.

    The segments are folded right to left, S <- exp(v) (x) S, with v the
    segment's displacement.  By Horner's scheme every level n >= 1 gains

        v/1 (x) (S_{n-1} + v/2 (x) (... (S_1 + v/n)))

    computed from the old lower levels.  The partial products of all levels
    advance together one degree at a time, so each degree has one scratch
    block and one multiply per segment.  Degree m reads only degree m - 1,
    so the blocks of odd and of even degrees each share one buffer, sized
    for the largest block of its parity (``_parity_blocks`` per path).
    Folding from the right keeps the length-d factor on the left of each
    outer product, and the batch axis is last, so numpy's inner loop runs
    over the N paths at every degree.  Entries are not checked: an
    overflow leaves inf or nan behind.
    """
    d, n = increments.shape[1:]
    table = np.zeros((_size(d, depth), n))
    table[0] = 1.0
    levels = [table[_size(d, k - 1):_size(d, k)] for k in range(depth + 1)]
    # Row r of scratch[m] holds the degree-m partial product of level m + r;
    # its row 0 is complete and is added to level m.
    # buffers[p] holds the blocks of the degrees m >= 1 with m % 2 == p,
    # allocated apart, so neither is larger than the largest block
    buffers = [np.empty(size * n) for size in _parity_blocks(d, depth)]
    scratch = [np.ones((depth + 1, 1, 1))]
    scratch += [buffers[m % 2][:(depth - m + 1) * d**m * n]
                .reshape(depth - m + 1, d**m, n) for m in range(1, depth + 1)]
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
    old = np.setbufsize(_SWEEP_BUFSIZE)
    try:
        for v in increments[::-1]:
            np.multiply(inv, v[:, None, :], out=vs)
            for left, right, product, gaining, complete, level in steps:
                np.multiply(left, right, out=product)
                gaining += level
                level += complete
    finally:
        np.setbufsize(old)
    return table


def batch_signature(paths, depth: int) -> list[TruncatedSignature]:
    """Signatures of piecewise linear paths that share one dimension, in
    input order; each equals ``path_signature`` of its path bit for bit.

    Paths with equal segment counts are signed together, one sweep of
    ``_horner_sweep`` per chunk whose Horner scratch stays under
    ``_BATCH_SCRATCH`` coefficients; a path whose count no other path
    shares is signed alone.  Each path gets its column of the chunk's table
    as one contiguous buffer, a view in a chunk of one path and a copy in a
    wider one, and is checked before the next chunk.
    Cost O(M d^depth (d/(d-1))^2) multiply-adds per path of M segments.
    Over R^1 a path's column is exp(x), x its endpoint displacement: level
    k is the running product of x/j, j = 1..k, the same in any batch and at
    any depth.  Level 1 equals the endpoint displacement.

    A level that overflows float64 raises AssumptionViolation for the first
    such path in input order; a (d, depth) past the size rule
    ``check_levels`` raises AllocationCapError.  Paths of different
    dimensions raise ValueError.
    """
    depth = check_count("depth", depth)
    paths = list(paths)
    if not paths:
        return []
    d = paths[0].dim
    if any(p.dim != d for p in paths):
        raise ValueError("the paths of one batch must share a dimension")
    check_levels(d, depth)
    counts = np.array([p.num_segments for p in paths])
    order = np.argsort(counts, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(counts[order])) + 1)
    chunk = max(1, _BATCH_SCRATCH // max(1, _scratch_size(d, depth)))
    found, failed = [None] * len(paths), {}
    for idx in (g[lo:lo + chunk] for g in groups for lo in range(0, len(g), chunk)):
        # an overflow leaves inf or nan behind, which _wrap refuses
        with np.errstate(over="ignore", invalid="ignore"):
            if d == 1:
                x = np.diff([paths[i].points[[0, -1], 0] for i in idx])[:, 0]
                steps = x / np.arange(1.0, depth + 1)[:, None]
                table = np.cumprod(np.vstack([np.ones_like(x), steps]), axis=0)
            else:
                increments = np.stack([np.diff(paths[i].points, axis=0)
                                       for i in idx], axis=-1)
                table = _horner_sweep(increments, depth)
        table.setflags(write=False)
        for j, i in enumerate(idx):
            try:
                found[i] = _wrap(d, depth, np.ascontiguousarray(table[:, j]))
            except ValueError as exc:
                failed[i] = str(exc)
    if failed:
        raise AssumptionViolation(
            f"the depth-{depth} signature overflows float64: {failed[min(failed)]}"
        )
    return found


def path_signature(path: PiecewiseLinearPath, depth: int) -> TruncatedSignature:
    """Signature of a piecewise linear path: ``batch_signature`` of the one
    path, one in-place Horner step per segment (see ``_horner_sweep``), or
    exp of its displacement over R^1.

    A level that overflows float64 raises AssumptionViolation; a (d, depth)
    past the size rule ``check_levels`` raises AllocationCapError.
    """
    return batch_signature([path], depth)[0]


def constant_speed_reparam(path: PiecewiseLinearPath) -> PiecewiseLinearPath:
    """Replace the times so that every slope has norm ell (the length).

    The times must increase strictly, so the point that ends a zero-length
    segment is dropped.  A length outside (0, inf), or a segment too short
    to advance the time in float64, raises ValueError.
    """
    seg_len = _segment_lengths(np.diff(path.points, axis=0))
    keep = np.concatenate(([True], seg_len > 0))
    # summing the zeros too would regroup numpy's pairwise sum
    seg_len = seg_len[keep[1:]]
    ell = seg_len.sum()
    if not 0.0 < ell < math.inf:
        raise ValueError(f"a path of length {ell} cannot be reparameterized")
    u = np.concatenate(([0.0], np.cumsum(seg_len) / ell))
    u[-1] = 1.0
    return PiecewiseLinearPath(path.points[keep], u)
