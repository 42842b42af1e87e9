"""The adjoint of the insertion map, the slope solve, and signature inversion.

Levels are flat arrays; a degree-n level over R^d has d**n entries.  The
map inserting a vector y into slot p of a degree-n signature tensor is an
isometry up to the factor norm(X^n); its normal equations are diagonal,
so the least-squares slope has the closed form
``y* = (n+1) * adjoint(X^n, X^{n+1}, n, p) / norm(X^n)**2``.
The full inversion sweeps p = 1..n over the top two levels of the supplied
signature and integrates the slopes on the uniform grid p/n.

Every slot goes through one contraction, ``_adjoint_rows``, which splits
the slots of a level three ways by k, the largest degree up to 4 (and up
to n) with d**k <= 16.  The head slots p <= k + 1, whose head (the
indices before slot p) holds at most d**k entries, read their rows off
one BLAS product; the tail slots, whose tail (the indices after the slot)
holds at most d**k entries, read theirs off a second one; the middle
slots between them are contracted by einsum, one call each.  A product
does up to 16 times the multiply-adds of one slot, but saves einsum's
per-call cost and its slow inner loop over a short tail.  The split
depends on (d, n) alone, so a slot's row has the same bits whichever
other slots are asked for.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NormTooSmall
from .signature import PiecewiseLinearPath
from .tensor_algebra import TruncatedSignature, check_count

def _check_slot(n: int, p: int) -> None:
    check_count("slot p", p, 1, check_count("n", n) + 1)


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


def _adjoint_rows(below: np.ndarray, top: np.ndarray, d: int, n: int,
                  slots) -> np.ndarray:
    """Rows A_p^T top, for p in ``slots``, of the slot-p insertion of R^d
    into the flat degree-n tensor ``below``; ``top`` has degree n + 1.

    With top seen as (head, j, tail) and below as (head, tail), component
    j sums top[a, j, b] * below[a, b] over head a and tail b.  With
    k = _block_degree(d, n), two (d**k, d**(k+1)) products hold these sums
    for the block slots, spread over the entries that _block_entries
    lists:

    - the head slots p <= k + 1, in below(d**k, .) @ top(d**(k+1), .)^T,
      which contracts the last n - k indices;
    - the other slots with n + 1 - p <= k, the tail slots, in
      below(., d**k)^T @ top(., d**(k+1)), which contracts the first
      n - k indices.

    The middle slots keep einsum.  Each product and its sums are made once
    per call, for all the slots of its block, and only when one of them
    is asked for.
    """
    k = _block_degree(d, n)
    pick = _block_entries(d, k)
    rows = np.empty((len(slots), d))
    head = tail = None
    for row, p in zip(rows, slots):
        if p <= k + 1:
            if head is None:
                head = below.reshape(d**k, -1) @ top.reshape(d ** (k + 1), -1).T
                head = head.take(pick).sum(axis=2)
            row[:] = head[p - 1]
        elif n + 1 - p <= k:
            if tail is None:
                tail = below.reshape(-1, d**k).T @ top.reshape(-1, d ** (k + 1))
                tail = tail.take(pick).sum(axis=2)
            row[:] = tail[k - n - 1 + p]
        else:
            pre = d ** (p - 1)
            np.einsum("ajb,ab->j", top.reshape(pre, d, -1),
                      below.reshape(pre, -1), out=row)
    return rows


def _check_pair(below: np.ndarray, top: np.ndarray, n: int, p: int) -> int:
    """d of levels of degrees n and n + 1 over R^d; the slot, n included,
    is checked first.  No array holds 2**64 entries, so d**min(n, 64)
    decides the size check as d**n would, in bounded time."""
    _check_slot(n, p)
    d = top.size // below.size if below.size else 0
    if d < 1 or below.size != d ** min(n, 64) or top.size != d * below.size:
        raise ValueError(f"need levels of degrees {n} and {n + 1} over one "
                         f"R^d, got {below.size} and {top.size} coefficients")
    return d


def adjoint_contract(below: np.ndarray, top: np.ndarray, n: int,
                     p: int) -> np.ndarray:
    """Apply the transpose of the slot-p insertion into the degree-n level
    ``below`` to the degree-(n+1) level ``top``.

    Component j sums below[(.. no i_p ..)] * top[(i_1..i_{n+1})] over all
    indices with i_p = j.  A middle slot costs O(d^{n+1}) time and O(d)
    memory.  A slot whose head or tail holds at most 16 entries pays for
    its block's BLAS product: up to 16 times that work, and O(d * 16**2)
    memory.  The sparse matrix of the insertion map is never materialized.
    """
    d = _check_pair(below, top, n, p)
    return _adjoint_rows(below, top, d, n, [p])[0]


def _solve(below: np.ndarray, top: np.ndarray, n: int, slots,
           start: np.ndarray):
    """The one slope solve and its guard.

    Row i holds y* = (n+1) * A_p^T X^{n+1} / norm(X^n)**2 for p = slots[i],
    where ``below`` is the degree-n level X^n and ``top`` is X^{n+1}; the
    points start at ``start`` and step by y*/(n+1).  The guard refuses
    only what float64 cannot hold: a divisor norm(X^n)**2 that is not a
    normal float64 number (zero, subnormal, infinite or NaN), or any slope
    or point that is not finite; the points are checked too because finite
    slopes can still step past float64 from a large start.  No scale is
    refused for being small, and tree-like input, whose top levels are
    rounding noise, is not detected.
    """
    d, factor = top.size // below.size, n + 1
    with np.errstate(all="ignore"):
        nrm2 = float(below @ below)
        slopes = factor * _adjoint_rows(below, top, d, n, slots) / nrm2
        points = np.empty((len(slots) + 1, d))
        points[0] = start
        np.cumsum(slopes / factor, axis=0, out=points[1:])
        points[1:] += start
    # a non-finite slope makes every later point non-finite
    if not (sys.float_info.min <= nrm2 < np.inf and np.isfinite(points).all()):
        raise NormTooSmall(
            f"the degree-{n} level has squared norm {nrm2:.3g}, which is not "
            "a normal float64 number, or a slope or point is not finite; "
            "zero, underflowing or overflowing input"
        )
    return slopes, points


def solve_slope(below: np.ndarray, top: np.ndarray, n: int, p: int) -> np.ndarray:
    """Exact minimizer of ||insert_p(y) - (n+1) X^{n+1}|| in the Euclidean
    tensor norm, for the degree-n level ``below`` = X^n and ``top``."""
    d = _check_pair(below, top, n, p)
    return _solve(below, top, n, [p], np.zeros(d))[0][0]


@dataclass(frozen=True)
class InversionResult:
    """Reconstructed path on the uniform grid p/n plus the solved slopes."""

    path: PiecewiseLinearPath
    slopes: np.ndarray       # (n, d) solved slopes y*_{p,n}


def invert_signature(sig: TruncatedSignature, start=None) -> InversionResult:
    """Insertion inversion from the top two levels of ``sig``.

    For p = 1..n the slope is y* = n * A_p^T X^n / norm(X^{n-1})**2 and the
    points accumulate as X_{p/n} = X_{(p-1)/n} + y*/n.  The starting point
    is unrecoverable from the signature and defaults to the origin; a
    start that is not a finite point of R^d raises ValueError, as does a
    depth below 2.
    """
    n, d = sig.depth, sig.dim
    if n < 2:
        raise ValueError(f"inversion needs a signature of depth >= 2, got {n}")
    start = np.zeros(d) if start is None else np.asarray(start, dtype=np.float64)
    if start.shape != (d,):
        raise ValueError(f"a start point of shape {start.shape} does not fit "
                         f"a signature over R^{d}")
    if not np.isfinite(start).all():
        raise ValueError(f"start point {start.tolist()} is not finite")
    slopes, points = _solve(sig.level(n - 1), sig.level(n), n - 1,
                            range(1, n + 1), start)
    return InversionResult(PiecewiseLinearPath(points), slopes)


def batch_invert(sigs, starts=None) -> list[InversionResult]:
    """Invert N signatures of any (d, n); output order follows input order.

    Results are elementwise identical to a loop of :func:`invert_signature`.
    """
    sigs = list(sigs)
    starts = [None] * len(sigs) if starts is None else list(starts)
    if len(starts) != len(sigs):
        raise ValueError("need one start point per signature")
    return [invert_signature(s, x0) for s, x0 in zip(sigs, starts)]
