"""Signature inversion by the insertion method.

Levels are flat arrays; a degree-n level over R^d has d**n entries.  The
map inserting a vector y into slot p of a degree-n signature tensor is an
isometry up to the factor norm(X^n); its normal equations are diagonal,
so the least-squares slope has the closed form
``y* = (n+1) * A_p^T X^{n+1} / norm(X^n)**2``, with A_p^T the adjoint of
the insertion.  An inversion sweeps p = 1..n over the top two levels of a
signature and integrates the slopes on the uniform grid p/n.

``batch_invert`` groups its records by (d, n) and solves each group in
chunks: ``_adjoint_rows`` writes each record's window products into one
buffer shared by the chunk and reads the rows of all its records off it,
and the divisions, the integration and the float64 guard run over the
whole chunk at once; each result's slopes and path points are read-only
rows of the chunk's arrays.  ``invert_signature`` is the batch of one
record, so a record inverts to the same bits alone and in any batch, and
``_invert_depths`` inverts one path at several depths in one batch.

``_adjoint_rows`` partitions the slots of a level into windows of at
most k + 1 slots, k <= n the largest with d**k <= 16, laid end to end,
and reads each slot's row off its own window's BLAS product: a window of
w + 1 slots costs d**w times one slot's multiply-adds, but saves a
contraction per slot.  At d = 1 every power fits, so a level is one window.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NormTooSmall
from .signature import (_BATCH_SCRATCH, PiecewiseLinearPath, _wrap_path,
                        path_signature)
from .tensor_algebra import TruncatedSignature, _prefix, check_count

# Most entries in the indices of one window, whose product costs up to
# this many times one slot's multiply-adds; 16 beat 8, 32 and 64 at
# (d, n) = (2, 14) and (3, 9).
_BLOCK = 16


def _block_entries(d: int, w: int) -> np.ndarray:
    """Flat positions, in a (d**w, d**(w+1)) block product, of the entries
    [(c, e), (c, j, e)] that slot i + 1 of the block sums, c over the
    d**i head and e over the t = d**(w-i) tail, shape (w + 1, d, d**w):
    entry m = c*t + e sits at row m, column m + c*(d-1)*t + j*t."""
    t = d ** np.arange(w, -1, -1, dtype=np.intp)[:, None, None]
    m, j = np.arange(d**w, dtype=np.intp), np.arange(d)[:, None]
    return m * (d ** (w + 1) + 1) + (m // t * (d - 1) + j) * t


@functools.lru_cache(maxsize=64)
def _window_table(d: int, n: int) -> tuple:
    """The chain of windows that the n + 1 slots of a degree-n level are
    read off, laid end to end from slot 0, as (windows, size, scratch).

    The head window holds the first k + 1 slots, k <= n the largest with
    d**k <= _BLOCK (all n + 1 slots at d = 1), the tail window the last
    min(k, n - k - 1) + 1, and the fewest windows of at most k + 1 slots,
    of sizes that differ by at most one, those between.  The window of
    w + 1 slots after the first s indices is (d**s, d**w, d**(w+1), offset,
    runs, slots, picks): its block product lies at ``offset`` in a record's
    buffer of ``size`` entries, ``runs`` cuts its d**s heads into (heads,
    stack entries) that fit ``scratch`` coefficients, or is None for the
    head and tail windows, one product each, and the rows of ``slots`` sum
    the entries of that buffer at ``picks``, of shape (w + 1, d, d**w)."""
    k = 0
    while k < n and d ** (k + 1) <= _BLOCK:
        k += 1
    middle = max(0, n - 2 * k - 1)
    cuts = -(-middle // (k + 1))
    degrees = [middle // cuts + (j < middle % cuts) - 1 for j in range(cuts)]
    windows, size, scratch, s = [], 0, 0, 0
    for w in [k] + degrees + [min(k, n - k - 1)] * (k < n):
        heads, dw, dw1 = d**s, d**w, d ** (w + 1)
        run = min(heads, _BATCH_SCRATCH // (dw * dw1))
        runs = tuple((slice(h, h + run), min(run, heads - h) * dw * dw1)
                     for h in range(0, heads, run)
                     ) if 1 < heads < d**n // dw else None
        scratch = max(scratch, run * dw * dw1 if runs else 0)
        picks = _block_entries(d, w) + size
        picks.flags.writeable = False
        windows.append((heads, dw, dw1, size, runs, slice(s, s + w + 1), picks))
        size += dw * dw1
        s += w + 1
    return tuple(windows), size, scratch


def _adjoint_rows(belows, tops, d: int, n: int) -> np.ndarray:
    """Rows A_p^T top, for p = 1..n+1, of the slot-p insertion of R^d into
    each flat degree-n tensor of ``belows``, with the degree-(n+1) tensor
    of ``tops`` at the same position: shape (N, n + 1, d).

    With top seen as (head, j, tail) and below as (head, tail), component
    j sums top[a, j, b] * below[a, b] over head a and tail b.  A window of
    _window_table(d, n) splits the indices into the H before it, its w
    and the T after it, and its (d**w, d**(w+1)) block product

        sum over h < H and t < T of below[h, :, t] (x) top[h, :, t]

    holds these sums for its w + 1 slots at its picks.  The head window
    (H = 1) is one product over the tails, the tail window (T = 1) one
    over the heads, and any other the sum of its heads' products, stacked
    in runs that fit one scratch buffer of the chunk.  Each window's rows
    are one take of its picks, summed along its contiguous last axis in an
    order that does not change with N, so that a record's bits do not
    change with the size of its batch.
    """
    count = len(belows)
    windows, size, scratch = _window_table(d, n)
    blocks = np.empty((count, size))
    stack = np.empty(scratch)
    plan = [(heads, dw, dw1, runs and [
        (cut, stack[:entries].reshape(-1, dw, dw1)) for cut, entries in runs],
        blocks[:, off:off + dw * dw1].reshape(-1, dw, dw1))
        for heads, dw, dw1, off, runs, _, _ in windows]
    for i, (below, top) in enumerate(zip(belows, tops)):
        for heads, dw, dw1, runs, out in plan:
            if heads == 1:
                np.matmul(below.reshape(dw, -1), top.reshape(dw1, -1).T,
                          out=out[i])
            elif runs is None:
                np.matmul(below.reshape(heads, dw).T, top.reshape(heads, dw1),
                          out=out[i])
            else:
                below3 = below.reshape(heads, dw, -1)
                top3 = top.reshape(heads, dw1, -1).transpose(0, 2, 1)
                for cut, part in runs:
                    np.matmul(below3[cut], top3[cut], out=part)
                    if cut.start:
                        out[i] += part.sum(axis=0)
                    else:
                        part.sum(axis=0, out=out[i])
    rows = np.empty((count, n + 1, d))
    for *_, slots, picks in windows:
        blocks.take(picks, axis=1).sum(axis=3, out=rows[:, slots])
    return rows


@dataclass(frozen=True, eq=False)
class InversionResult:
    """Reconstructed path on the uniform grid p/n plus the solved slopes.

    A result that the library builds holds its path's points and its
    slopes as read-only row views of its chunk's two arrays, not copies,
    so a kept result keeps both alive: N (2n + 1) d floats for a chunk of
    N records over R^d.  Equality is identity."""

    path: PiecewiseLinearPath
    slopes: np.ndarray       # (n, d) solved slopes y*_{p,n}


def _start_point(start, d: int) -> np.ndarray:
    """The one check of a start point: the origin of R^d by default, else
    ValueError for a start that is not a finite point of R^d."""
    start = np.zeros(d) if start is None else np.asarray(start, dtype=np.float64)
    if start.shape != (d,):
        raise ValueError(f"a start point of shape {start.shape} does not fit "
                         f"a signature over R^{d}")
    if not np.isfinite(start).all():
        raise ValueError(f"start point {start.tolist()} is not finite")
    return start


def _solve(sigs, starts, d: int, n: int) -> list:
    """Outcomes of one chunk of depth-n signatures over R^d, each started
    at its point of ``starts``: an InversionResult or a NormTooSmall each.
    The chunk's slopes and points are two read-only arrays, and the points
    are checked for finiteness as a whole, so each result takes row views
    of both and a path built by ``_wrap_path``, with no copy and no check."""
    belows = [s.levels[n - 1] for s in sigs]
    # the points outlive the call with its results: made before the
    # kernel's scratch, they do not hold the heap above that scratch
    points = np.empty((len(sigs), n + 1, d))
    with np.errstate(all="ignore"):
        nrm2 = [float(below @ below) for below in belows]
        slopes = _adjoint_rows(belows, [s.levels[n] for s in sigs], d, n - 1)
        slopes *= n
        slopes /= np.array(nrm2)[:, None, None]
        points[:, 0] = starts
        np.cumsum(slopes / n, axis=1, out=points[:, 1:])
        points[:, 1:] += points[:, :1]
    slopes.setflags(write=False)
    points.setflags(write=False)
    # a non-finite slope makes every later point non-finite
    finite = np.isfinite(points).all(axis=(1, 2))
    return [InversionResult(_wrap_path(points[j]), slopes[j])
            if sys.float_info.min <= norm2 < np.inf and finite[j]
            else NormTooSmall(
                f"the degree-{n - 1} level has squared norm {norm2:.3g}, "
                "which is not a normal float64 number, or a slope or point is "
                "not finite; zero, underflowing or overflowing input")
            for j, norm2 in enumerate(nrm2)]


def _outcomes(sigs, starts=None) -> list:
    """Each signature's InversionResult, or the exception that refuses
    it, in input order; ``batch_invert`` raises the first exception and
    ``siginvert invert`` writes each as an error row.

    Records are grouped by (d, n) and each group is solved in chunks
    whose buffers stay under _BATCH_SCRATCH coefficients, and whose stack
    of head products in ``_adjoint_rows`` stays under as many again.
    """
    sigs = list(sigs)
    starts = [None] * len(sigs) if starts is None else list(starts)
    if len(starts) != len(sigs):
        raise ValueError("need one start point per signature")
    found = [None] * len(sigs)
    groups: dict = {}
    # each distinct start object is checked once per dimension; the list
    # keeps every start alive, so no two share an id
    checked: dict = {}
    for i, (sig, start) in enumerate(zip(sigs, starts)):
        n = sig.depth
        if n < 2:
            found[i] = ValueError(
                f"inversion needs a signature of depth >= 2, got {n}")
            continue
        d = sig.dim
        key = id(start), d
        if key not in checked:
            try:
                checked[key] = _start_point(start, d)
            except (TypeError, ValueError) as exc:
                checked[key] = exc
        start = checked[key]
        if isinstance(start, Exception):
            found[i] = start
        else:
            groups.setdefault((d, n), []).append((i, sig, start))
    for (d, n), members in groups.items():
        # per record: one block per window, then rows, slopes and points
        size = _window_table(d, n - 1)[1] + 3 * d * (n + 1)
        chunk = max(1, _BATCH_SCRATCH // size)
        for lo in range(0, len(members), chunk):
            idx, part, part_starts = zip(*members[lo:lo + chunk])
            solved = _solve(part, part_starts, d, n)
            for i, res in zip(idx, solved):
                found[i] = res
    return found


def batch_invert(sigs, starts=None) -> list[InversionResult]:
    """Insertion inversion of N signatures of any (d, n), from the top two
    levels of each; output order follows input order.

    For p = 1..n the slope is y* = n * A_p^T X^n / norm(X^{n-1})**2 and the
    points accumulate as X_{p/n} = X_{(p-1)/n} + y*/n.  The starting point
    is unrecoverable from the signature and defaults to the origin; a
    start that is not a finite point of R^d raises ValueError, as does a
    depth below 2.

    The guard refuses only what float64 cannot hold: a divisor
    norm(X^{n-1})**2 that is not a normal float64 number (zero, subnormal,
    infinite or NaN), or any slope or point that is not finite; the points
    are checked too because finite slopes can still step past float64
    from a large start.  No scale is refused for being small, and
    tree-like input, whose top levels are rounding noise, is not detected.

    The first record in input order that fails raises its exception; a
    record's slopes and points are the same bits in any batch.
    """
    found = _outcomes(sigs, starts)
    for res in found:
        if isinstance(res, Exception):
            raise res
    return found


def invert_signature(sig: TruncatedSignature, start=None) -> InversionResult:
    """Insertion inversion of one signature: ``batch_invert`` of the one
    record, whose rules and guard it shares."""
    return batch_invert([sig], [start])[0]


def _invert_depths(path: PiecewiseLinearPath, depths, start=None) -> list:
    """The InversionResult of ``path`` at each of ``depths``, in order, from
    ``start``: a depth below 2 raises ValueError, else the path is signed
    once at the deepest depth and the prefix views, the bits of signing to
    each depth alone, are inverted in one ``batch_invert``."""
    depths = [check_count("depth", n, 2) for n in depths]
    sig = path_signature(path, max(depths, default=0))
    return batch_invert([_prefix(sig, n) for n in depths], [start] * len(depths))
