"""Signature inversion by the insertion method.

Levels are flat arrays; a degree-n level over R^d has d**n entries.  The
map inserting a vector y into slot p of a degree-n signature tensor is an
isometry up to the factor norm(X^n); its normal equations are diagonal,
so the least-squares slope has the closed form
``y* = (n+1) * A_p^T X^{n+1} / norm(X^n)**2``, with A_p^T the adjoint of
the insertion.  An inversion sweeps p = 1..n over the top two levels of a
signature and integrates the slopes on the uniform grid p/n.

``batch_invert`` groups its records by (d, n) and solves each group in
chunks: the contraction ``_adjoint_rows`` writes each record's block
products into buffers shared by the chunk and reads the rows of all its
records off them with one gather per buffer, and the divisions, the
integration and the float64 guard run over the whole chunk at once.
``invert_signature`` is the batch of one record, so a record inverts to
the same bits alone and in any batch.

``_adjoint_rows`` splits the slots of a level three ways by k, the largest
degree up to 4 (and up to n) with d**k <= 16.  The head slots p <= k + 1,
whose head (the indices before slot p) holds at most d**k entries, read
their rows off one BLAS product per record; the tail slots, whose tail
(the indices after the slot) holds at most d**k entries, read theirs off
a second one.  The middle slots between them read theirs off a third
product when two or more of them fit one window of w indices with
d**w <= 16, and are contracted by einsum, one call each, otherwise.  A
product does up to 16 times the multiply-adds of one slot, but saves
einsum's per-call cost and its slow inner loop over a short tail.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NormTooSmall
from .signature import _BATCH_SCRATCH, PiecewiseLinearPath
from .tensor_algebra import TruncatedSignature

# Longest head or tail, in entries, that one BLAS product serves.  A slot
# in a block costs up to this many times its own multiply-adds; 16 beat 8,
# 32 and 64 at (d, n) = (2, 14) and (3, 9), while 32 and 64 ran up to 6%
# faster at (3, 12).
_BLOCK = 16


def _block_degree(d: int, n: int) -> int:
    """The largest k <= n with d**k <= _BLOCK, and at most log2(_BLOCK)
    even at d = 1, where every power fits."""
    k = 0
    while k < min(n, _BLOCK.bit_length() - 1) and d ** (k + 1) <= _BLOCK:
        k += 1
    return k


@functools.lru_cache(maxsize=16)
def _block_entries(d: int, k: int) -> np.ndarray:
    """Flat positions, in a (d**k, d**(k+1)) block product, of the entries
    [(c, e), (c, j, e)] that slot i + 1 of the block sums, c over the
    d**i head and e over the d**(k-i) tail: shape (k + 1, d, d**k)."""
    out = np.empty((k + 1, d, d**k), dtype=np.intp)
    for i in range(k + 1):
        tail = d ** (k - i)
        c, e = np.arange(d**i)[:, None], np.arange(tail)
        row, col = (c * tail + e).ravel(), (c * d * tail + e).ravel()
        out[i] = row * d ** (k + 1) + col + tail * np.arange(d)[:, None]
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=64)
def _slot_entries(d: int, n: int) -> np.ndarray:
    """Flat positions, in a record's head product followed by its tail
    product (k = _block_degree(d, n)), of the entries each block slot of
    the degree-n level sums: the head slots p <= k + 1 off the head
    product, then the other slots with n + 1 - p <= k off the tail
    product; shape (slots, d, d**k)."""
    k = _block_degree(d, n)
    pick = _block_entries(d, k)
    skip = max(0, 2 * k + 1 - n)  # tail slots the head product holds
    out = np.concatenate([pick, pick[skip:] + d ** (2 * k + 1)])
    out.flags.writeable = False
    return out


def _read_off(blocks: np.ndarray, pick: np.ndarray) -> np.ndarray:
    """Rows, shape (N, slots, d), of the N records' block products
    ``blocks``, each the sum of the entries that ``pick`` (of shape
    (slots, d, L)) lists.  The sums run over the rows of one 2-d array,
    whose summation order does not change with N, so that a record's bits
    do not change with the size of its batch."""
    n = len(blocks)
    sums = blocks.reshape(n, -1).take(pick, axis=1).reshape(-1, pick.shape[2])
    return sums.sum(axis=1).reshape(n, -1, pick.shape[1])


def _adjoint_rows(belows, tops, d: int, n: int) -> np.ndarray:
    """Rows A_p^T top, for p = 1..n+1, of the slot-p insertion of R^d into
    each flat degree-n tensor of ``belows``, with the degree-(n+1) tensor
    of ``tops`` at the same position: shape (N, n + 1, d).

    With top seen as (head, j, tail) and below as (head, tail), component
    j sums top[a, j, b] * below[a, b] over head a and tail b.  With
    k = _block_degree(d, n), two (d**k, d**(k+1)) products per record hold
    these sums for the block slots, spread over the entries that
    _slot_entries lists:

    - the head slots p <= k + 1, in below(d**k, .) @ top(d**(k+1), .)^T,
      which contracts the last n - k indices;
    - the other slots with n + 1 - p <= k, the tail slots, in
      below(., d**k)^T @ top(., d**(k+1)), which contracts the first
      n - k indices (none when k == n, where the head holds every slot).

    The w + 1 middle slots p = k+2..n-k, when w >= 1 and d**w <= _BLOCK,
    read theirs off sum_a below(a, d**w, .) @ top(a, d**(w+1), .)^T over
    the d**(k+1) heads a, which contracts the indices before and after
    the window; otherwise each keeps one einsum call.  A single middle
    slot ran faster by einsum than by the product at d = 2..6.
    """
    count = len(belows)
    k = _block_degree(d, n)
    bk, bk1 = d**k, d ** (k + 1)
    blocks = np.empty((count, 2, bk, bk1))
    middle = range(k + 2, n + 1 - k)
    w = len(middle) - 1
    window = w >= 1 and d**w <= _BLOCK
    if window:
        dw, dw1 = d**w, d ** (w + 1)
        stack = np.empty((bk1, dw, dw1))
        mid = np.empty((count, dw, dw1))
    elif middle:
        rows = np.empty((count, n + 1, d))
    for i, (below, top) in enumerate(zip(belows, tops)):
        np.matmul(below.reshape(bk, -1), top.reshape(bk1, -1).T,
                  out=blocks[i, 0])
        if k < n:  # else no slot reads the tail product
            np.matmul(below.reshape(-1, bk).T, top.reshape(-1, bk1),
                      out=blocks[i, 1])
        if window:
            np.matmul(below.reshape(bk1, dw, -1),
                      top.reshape(bk1, dw1, -1).transpose(0, 2, 1), out=stack)
            stack.sum(axis=0, out=mid[i])
        else:
            for p in middle:
                pre = d ** (p - 1)
                np.einsum("ajb,ab->j", top.reshape(pre, d, -1),
                          below.reshape(pre, -1), out=rows[i, p - 1])
    read = _read_off(blocks, _slot_entries(d, n))
    if not middle:
        return read
    if window:
        rows = _read_off(mid, _block_entries(d, w))
        return np.concatenate([read[:, :k + 1], rows, read[:, k + 1:]], axis=1)
    rows[:, :k + 1] = read[:, :k + 1]
    rows[:, n - k:] = read[:, k + 1:]
    return rows


@dataclass(frozen=True)
class InversionResult:
    """Reconstructed path on the uniform grid p/n plus the solved slopes."""

    path: PiecewiseLinearPath
    slopes: np.ndarray       # (n, d) solved slopes y*_{p,n}


def _start_point(sig: TruncatedSignature, start) -> np.ndarray:
    """The start point of one inversion, the origin by default; ValueError
    for a depth below 2 or a start that is not a finite point of R^d."""
    n, d = sig.depth, sig.dim
    if n < 2:
        raise ValueError(f"inversion needs a signature of depth >= 2, got {n}")
    start = np.zeros(d) if start is None else np.asarray(start, dtype=np.float64)
    if start.shape != (d,):
        raise ValueError(f"a start point of shape {start.shape} does not fit "
                         f"a signature over R^{d}")
    if not np.isfinite(start).all():
        raise ValueError(f"start point {start.tolist()} is not finite")
    return start


def _solve(sigs, starts, d: int, n: int) -> list:
    """Outcomes of one chunk of depth-n signatures over R^d, each started
    at its point of ``starts``: an InversionResult or a NormTooSmall each;
    the results' slopes are views of one array of the chunk."""
    belows = [s.levels[n - 1] for s in sigs]
    with np.errstate(all="ignore"):
        nrm2 = [float(below @ below) for below in belows]
        slopes = _adjoint_rows(belows, [s.levels[n] for s in sigs], d, n - 1)
        slopes *= n
        slopes /= np.array(nrm2)[:, None, None]
        points = np.empty((len(sigs), n + 1, d))
        points[:, 0] = starts
        np.cumsum(slopes / n, axis=1, out=points[:, 1:])
        points[:, 1:] += points[:, :1]
    # a non-finite slope makes every later point non-finite
    finite = np.isfinite(points).all(axis=(1, 2))
    return [InversionResult(PiecewiseLinearPath(points[j]), slopes[j])
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
    whose buffers stay under _BATCH_SCRATCH coefficients.
    """
    sigs = list(sigs)
    starts = [None] * len(sigs) if starts is None else list(starts)
    if len(starts) != len(sigs):
        raise ValueError("need one start point per signature")
    found = [None] * len(sigs)
    groups: dict = {}
    for i, (sig, start) in enumerate(zip(sigs, starts)):
        try:
            start = _start_point(sig, start)
        except (TypeError, ValueError) as exc:
            found[i] = exc
        else:
            groups.setdefault((sig.dim, sig.depth), []).append((i, sig, start))
    for (d, n), members in groups.items():
        # a block product holds at most _BLOCK**2 * d entries; three block
        # buffers, then rows, slopes and points, per record
        chunk = max(1, _BATCH_SCRATCH // (3 * d * (_BLOCK**2 + n + 1)))
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
