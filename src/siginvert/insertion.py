"""The insertion map, its adjoint, and signature inversion.

The map inserting a vector y into slot p of a degree-n signature tensor is
an isometry up to the factor norm(X^n); its normal equations are diagonal,
so the least-squares slope has the closed form
``y* = (n+1) * adjoint(X^n, X^{n+1}, p) / norm(X^n)**2``.
The full inversion sweeps p = 1..n over the top two levels of the supplied
signature and integrates the slopes on the uniform grid p/n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NormTooSmall
from .signature import PiecewiseLinearPath
from .tensor_algebra import TensorLevel, TruncatedSignature, check_allocation

# Default degeneracy threshold for the norm of the level being divided by.
# Genuine signatures decay like ell^n / n! (about 8e-18 for a unit-length
# path at n = 19), so the cutoff must sit well below that while still
# catching tree-like inputs whose levels vanish.
EPS_NORM = 1e-18


def _check_slot(n: int, p: int) -> None:
    if not 1 <= p <= n + 1:
        raise ValueError(f"slot p={p} outside 1..{n + 1}")


def _adjoint_slot(sig: np.ndarray, z: np.ndarray, d: int, p: int) -> np.ndarray:
    """Transpose of the slot-p insertion of R^d into the flat tensor ``sig``,
    applied to the flat tensor ``z`` of one degree more."""
    pre = d ** (p - 1)
    return np.einsum("ajb,ab->j", z.reshape(pre, d, -1), sig.reshape(pre, -1))


def insertion_apply(sig_n: TensorLevel, y, p: int) -> TensorLevel:
    """Insert y at slot p: result[(i_1..i_{n+1})] = y_{i_p} * sig[(.. no i_p ..)]."""
    y = np.asarray(y, dtype=np.float64).ravel()
    d, n = sig_n.dim, sig_n.degree
    if y.size != d:
        raise ValueError(f"y must live in R^{d}")
    _check_slot(n, p)
    check_allocation(d, n + 1)
    out = sig_n.coeffs.reshape(d ** (p - 1), 1, -1) * y.reshape(1, d, 1)
    return TensorLevel(d, n + 1, out.ravel())


def adjoint_contract(sig_n: TensorLevel, z: TensorLevel, p: int) -> np.ndarray:
    """Apply the transpose of the slot-p insertion map to z.

    Component j sums sig[(.. no i_p ..)] * z[(i_1..i_{n+1})] over all
    indices with i_p = j.  Cost O(d^{n+1}), memory O(d); the sparse matrix
    of the insertion map is never materialized.
    """
    d, n = sig_n.dim, sig_n.degree
    if z.dim != d or z.degree != n + 1:
        raise ValueError("z must have the same dim and degree n + 1")
    _check_slot(n, p)
    return _adjoint_slot(sig_n.coeffs, z.coeffs, d, p)


def solve_slope(sig_n: TensorLevel, sig_np1: TensorLevel, p: int,
                eps_norm: float = EPS_NORM) -> np.ndarray:
    """Exact minimizer of ||insert_p(y) - (n+1) X^{n+1}|| in the Euclidean
    tensor norm."""
    nrm2 = float(sig_n.coeffs @ sig_n.coeffs)
    if nrm2 <= eps_norm**2:
        raise NormTooSmall(
            f"norm of the degree-{sig_n.degree} level is <= {eps_norm}; "
            "degenerate or tree-like input"
        )
    n = sig_n.degree
    return (n + 1) * adjoint_contract(sig_n, sig_np1, p) / nrm2


@dataclass(frozen=True)
class InversionResult:
    """Reconstructed path on the uniform grid p/n plus the solved slopes."""

    path: PiecewiseLinearPath
    slopes: np.ndarray       # (n, d) solved slopes y*_{p,n}
    start_point: np.ndarray


def invert_signature(sig: TruncatedSignature, start=None,
                     eps_norm: float = EPS_NORM) -> InversionResult:
    """Insertion inversion from the top two levels of ``sig``.

    For p = 1..n the slope is y* = n * A_p^T X^n / norm(X^{n-1})**2 and the
    points accumulate as X_{p/n} = X_{(p-1)/n} + y*/n.  The starting point
    is unrecoverable from the signature and defaults to the origin.
    """
    n, d = sig.depth, sig.dim
    if n < 2:
        raise ValueError("inversion needs a signature of depth >= 2")
    start = np.zeros(d) if start is None else np.asarray(start, dtype=np.float64)
    if start.shape != (d,):
        raise ValueError(f"start point must live in R^{d}")
    top, below = sig.levels[n], sig.levels[n - 1]
    nrm2 = float(below.coeffs @ below.coeffs)
    if nrm2 <= eps_norm**2:
        raise NormTooSmall(
            f"norm of level {n - 1} is <= {eps_norm}; cannot divide"
        )
    slopes = np.empty((n, d))
    for p in range(1, n + 1):
        slopes[p - 1] = n * _adjoint_slot(below.coeffs, top.coeffs, d, p) / nrm2
    points = np.empty((n + 1, d))
    points[0] = start
    np.cumsum(slopes / n, axis=0, out=points[1:])
    points[1:] += start
    return InversionResult(PiecewiseLinearPath(points), slopes, start.copy())


def batch_invert(sigs, starts=None,
                 eps_norm: float = EPS_NORM) -> list[InversionResult]:
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
    return [invert_signature(s, x0, eps_norm) for s, x0 in zip(sigs, starts)]
