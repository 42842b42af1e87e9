"""Signature inversion by the insertion method.

Levels are flat arrays; a degree-n level over R^d has d**n entries.  The
map inserting a vector y into slot p of a degree-n signature tensor is an
isometry up to the factor norm(X^n); its normal equations are diagonal,
so the least-squares slope has the closed form
``y* = (n+1) * A_p^T X^{n+1} / norm(X^n)**2``, with A_p^T the adjoint of
the insertion.  ``invert_signature``, the one way into the solve, sweeps
p = 1..n over the top two levels of a signature and integrates the
slopes on the uniform grid p/n; ``batch_invert`` loops over it.

All the slots of a level go through one contraction, ``_adjoint_rows``,
which splits them three ways by k, the largest degree up to 4 (and up to
n) with d**k <= 16.  The head slots p <= k + 1, whose head (the indices
before slot p) holds at most d**k entries, read their rows off one BLAS
product; the tail slots, whose tail (the indices after the slot) holds at
most d**k entries, read theirs off a second one; the middle slots between
them are contracted by einsum, one call each.  A product does up to 16
times the multiply-adds of one slot, but saves einsum's per-call cost and
its slow inner loop over a short tail.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NormTooSmall
from .signature import PiecewiseLinearPath
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


def _adjoint_rows(below: np.ndarray, top: np.ndarray, d: int,
                  n: int) -> np.ndarray:
    """Rows A_p^T top, for p = 1..n+1, of the slot-p insertion of R^d into
    the flat degree-n tensor ``below``; ``top`` has degree n + 1.

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

    The middle slots keep einsum, one call each.
    """
    k = _block_degree(d, n)
    pick = _block_entries(d, k)
    rows = np.empty((n + 1, d))
    if k < n:  # else the head slots are all the slots
        tail = below.reshape(-1, d**k).T @ top.reshape(-1, d ** (k + 1))
        rows[n - k:] = tail.take(pick).sum(axis=2)
    # written second, the head rows win the slots both blocks hold
    head = below.reshape(d**k, -1) @ top.reshape(d ** (k + 1), -1).T
    rows[:k + 1] = head.take(pick).sum(axis=2)
    for p in range(k + 2, n + 1 - k):
        pre = d ** (p - 1)
        np.einsum("ajb,ab->j", top.reshape(pre, d, -1),
                  below.reshape(pre, -1), out=rows[p - 1])
    return rows


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

    The guard refuses only what float64 cannot hold: a divisor
    norm(X^{n-1})**2 that is not a normal float64 number (zero, subnormal,
    infinite or NaN), or any slope or point that is not finite; the points
    are checked too because finite slopes can still step past float64
    from a large start.  No scale is refused for being small, and
    tree-like input, whose top levels are rounding noise, is not detected.
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
    below, top = sig.level(n - 1), sig.level(n)
    with np.errstate(all="ignore"):
        nrm2 = float(below @ below)
        slopes = n * _adjoint_rows(below, top, d, n - 1) / nrm2
        points = np.empty((n + 1, d))
        points[0] = start
        np.cumsum(slopes / n, axis=0, out=points[1:])
        points[1:] += start
    # a non-finite slope makes every later point non-finite
    if not (sys.float_info.min <= nrm2 < np.inf and np.isfinite(points).all()):
        raise NormTooSmall(
            f"the degree-{n - 1} level has squared norm {nrm2:.3g}, which is "
            "not a normal float64 number, or a slope or point is not finite; "
            "zero, underflowing or overflowing input"
        )
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
