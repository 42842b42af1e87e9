"""The adjoint of the insertion map, the slope solve, and signature inversion.

Levels are flat arrays; a degree-n level over R^d has d**n entries.  The
map inserting a vector y into slot p of a degree-n signature tensor is an
isometry up to the factor norm(X^n); its normal equations are diagonal,
so the least-squares slope has the closed form
``y* = (n+1) * adjoint(X^n, X^{n+1}, n, p) / norm(X^n)**2``.
The full inversion sweeps p = 1..n over the top two levels of the supplied
signature and integrates the slopes on the uniform grid p/n.

Every slot goes through one contraction, ``_adjoint_slot``.  A slot whose
tail (the d**(n+1-p) indices after slot p) holds more than 8 entries is
contracted by einsum.  A shorter tail, over which einsum's inner loop runs
4-5x slower per multiply-add, is contracted by one BLAS product whose
diagonal holds the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NormTooSmall
from .signature import PiecewiseLinearPath
from .tensor_algebra import TruncatedSignature

# Degeneracy threshold for the norm of the level being divided by.
# Genuine signatures decay like ell^n / n! (about 8e-18 for a unit-length
# path at n = 19), so the cutoff must sit well below that while still
# catching tree-like inputs whose levels vanish.
EPS_NORM = 1e-18


def _check_slot(n: int, p: int) -> None:
    if not 1 <= p <= n + 1:
        raise ValueError(f"slot p={p} outside 1..{n + 1}")


# Longest tail that _adjoint_slot contracts by the BLAS product.  Timed at
# d = 2, 3, 4: tails of 16 and 27 already ran faster in einsum.
_SHORT_TAIL = 8


def _adjoint_slot(sig: np.ndarray, z: np.ndarray, d: int, p: int) -> np.ndarray:
    """Transpose of the slot-p insertion of R^d into the flat tensor ``sig``,
    applied to the flat tensor ``z`` of one degree more.

    With z seen as (head, j, tail) and sig as (head, tail), component j is
    sum over head a and tail b of z[a, j, b] * sig[a, b].  einsum's inner
    loop runs along the tail, and over a tail of 8 or fewer entries it runs
    4-5x slower per multiply-add than over a long one.  So a short tail is
    contracted over the head by one BLAS product, sig^T @ z, whose
    (tail, j, tail) result holds the wanted sums on its diagonal in the two
    tail axes: at most ``_SHORT_TAIL`` times the work, all of it in BLAS.
    A long tail keeps einsum.
    """
    pre = d ** (p - 1)
    post = sig.size // pre
    if post <= _SHORT_TAIL:
        m = sig.reshape(pre, post).T @ z.reshape(pre, d * post)
        return m.reshape(post, d, post).trace(axis1=0, axis2=2)
    return np.einsum("ajb,ab->j", z.reshape(pre, d, post), sig.reshape(pre, post))


def _check_pair(below: np.ndarray, top: np.ndarray, n: int, p: int) -> int:
    """d of levels of degrees n and n + 1 over R^d, with the slot checked."""
    d = top.size // below.size if below.size else 0
    if d < 1 or below.size != d**n or top.size != d * below.size:
        raise ValueError(f"need levels of degrees {n} and {n + 1} over one "
                         f"R^d, got {below.size} and {top.size} coefficients")
    _check_slot(n, p)
    return d


def adjoint_contract(below: np.ndarray, top: np.ndarray, n: int,
                     p: int) -> np.ndarray:
    """Apply the transpose of the slot-p insertion into the degree-n level
    ``below`` to the degree-(n+1) level ``top``.

    Component j sums below[(.. no i_p ..)] * top[(i_1..i_{n+1})] over all
    indices with i_p = j.  Cost O(d^{n+1}), memory O(d); the sparse matrix
    of the insertion map is never materialized.
    """
    d = _check_pair(below, top, n, p)
    return _adjoint_slot(below, top, d, p)


def _solve(below: np.ndarray, top: np.ndarray, n: int, slots,
           start: np.ndarray):
    """The one slope solve and its guard.

    Row i holds y* = (n+1) * A_p^T X^{n+1} / norm(X^n)**2 for p = slots[i],
    where ``below`` is the degree-n level X^n and ``top`` is X^{n+1}; the
    points start at ``start`` and step by y*/(n+1).  A divisor at or below
    EPS_NORM**2, NaN or infinite, or any slope or point that is not finite,
    is refused; the points are checked too because finite slopes can still
    step past float64 from a large start.
    """
    d, factor = top.size // below.size, n + 1
    with np.errstate(all="ignore"):
        nrm2 = float(below @ below)
        slopes = np.empty((len(slots), d))
        for i, p in enumerate(slots):
            slopes[i] = factor * _adjoint_slot(below, top, d, p) / nrm2
        points = np.empty((len(slots) + 1, d))
        points[0] = start
        np.cumsum(slopes / factor, axis=0, out=points[1:])
        points[1:] += start
    # a non-finite slope makes every later point non-finite
    if not (EPS_NORM**2 < nrm2 < math.inf and np.isfinite(points).all()):
        raise NormTooSmall(
            f"the degree-{n} level has squared norm {nrm2:.3g}, "
            f"outside ({EPS_NORM}**2, inf), or a slope or point is not "
            "finite; degenerate, tree-like or overflowing input"
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
    start_point: np.ndarray


def invert_signature(sig: TruncatedSignature, start=None) -> InversionResult:
    """Insertion inversion from the top two levels of ``sig``.

    For p = 1..n the slope is y* = n * A_p^T X^n / norm(X^{n-1})**2 and the
    points accumulate as X_{p/n} = X_{(p-1)/n} + y*/n.  The starting point
    is unrecoverable from the signature and defaults to the origin; a
    start that is not finite raises ValueError.
    """
    n, d = sig.depth, sig.dim
    if n < 2:
        raise ValueError("inversion needs a signature of depth >= 2")
    start = np.zeros(d) if start is None else np.asarray(start, dtype=np.float64)
    if start.shape != (d,):
        raise ValueError(f"start point must live in R^{d}")
    if not np.isfinite(start).all():
        raise ValueError(f"start point {start.tolist()} is not finite")
    slopes, points = _solve(sig.level(n - 1), sig.level(n), n - 1,
                            range(1, n + 1), start)
    return InversionResult(PiecewiseLinearPath(points), slopes, start.copy())


def batch_invert(sigs, starts=None) -> list[InversionResult]:
    """Invert N signatures sharing (d, n); output order follows input order.

    Results are elementwise identical to a loop of :func:`invert_signature`.
    """
    sigs = list(sigs)
    if not sigs:
        return []
    d, n = sigs[0].dim, sigs[0].depth
    for s in sigs:
        if s.dim != d or s.depth != n:
            raise ValueError("batch signatures must share dim and depth")
    if starts is None:
        starts = [None] * len(sigs)
    else:
        starts = list(starts)
        if len(starts) != len(sigs):
            raise ValueError("need one start point per signature")
    return [invert_signature(s, x0) for s, x0 in zip(sigs, starts)]
