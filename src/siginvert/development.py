"""Hyperbolic development of piecewise linear paths.

A path in R^d is transported to the isometry group of the hyperboloid
{B(y, y) = -1} in R^{d+1}, where B(x, y) = sum_{i<=d} x_i y_i - x_{d+1} y_{d+1},
by the linear controlled equation dGamma = F(dX) Gamma.  On one linear
segment the transport is the matrix exponential of F(v), which has the
closed form

    exp(F(v)) = I + sinh(|v|)/|v| F(v) + (cosh(|v|) - 1)/|v|^2 F(v)^2

because F(v)^3 = |v|^2 F(v) (F(v)^2 is block-diagonal with blocks v v^T and
|v|^2; the identity is exercised against a generic matrix exponential in
the tests).  Kinks lose at most K(omega) = log(2 / (1 - cos(omega/2))) of
hyperbolic distance each, which yields the operator-norm lower bound
||Gamma_1^alpha|| >= exp(alpha - (M-1) K(omega)) checked here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionViolation
from .signature import (
    PiecewiseLinearPath,
    _segment_lengths,
    require_clean_angles,
    segment_geometry,
)

_B_TOL = 1e-9

# exp() of an argument above this overflows float64 (the limit is ~709.78).
_EXP_MAX = 700.0


def f_map(y) -> np.ndarray:
    """The symmetric (d+1) x (d+1) matrix with last column (y, 0) and last
    row (y^T, 0); its operator norm equals |y|."""
    y = np.asarray(y, dtype=np.float64).ravel()
    out = np.zeros((y.size + 1, y.size + 1))
    out[:-1, -1] = y
    out[-1, :-1] = y
    return out


def segment_transport(v) -> np.ndarray:
    """exp(F(v)) in closed form; the identity for v = 0."""
    v = np.asarray(v, dtype=np.float64).ravel()
    r = float(np.linalg.norm(v))
    eye = np.eye(v.size + 1)
    if r == 0.0:
        return eye
    f = f_map(v)
    return eye + (math.sinh(r) / r) * f + ((math.cosh(r) - 1.0) / r**2) * (f @ f)


def develop(path: PiecewiseLinearPath) -> np.ndarray:
    """Gamma_1: ordered product of per-segment transports (last segment
    leftmost)."""
    return develop_checkpoints(path)[-1]


def develop_checkpoints(path: PiecewiseLinearPath) -> list[np.ndarray]:
    """Gamma at every point, starting from the identity; a repeated point
    repeats the Gamma before it."""
    out = [np.eye(path.dim + 1)]
    for dx in np.diff(path.points, axis=0):
        out.append(segment_transport(dx) @ out[-1])
    return out


def k_of_omega(omega: float) -> float:
    """K(omega) = log(2 / (1 - cos(omega/2))) = -2 log(sin(omega/4)), the
    per-kink distance loss; the sine form does not cancel for small omega."""
    if not 0.0 < omega <= math.pi:
        raise ValueError("omega must lie in (0, pi]")
    if omega < 1e-8:  # sin(omega/4) == omega/4 in float64, which may underflow
        return 2.0 * (math.log(4.0) - math.log(omega))
    return -2.0 * math.log(math.sin(omega / 4.0))


@dataclass(frozen=True)
class BoundReport:
    """Evaluated operator-norm lower bound for one developed path."""

    omega: float             # smallest turning angle (pi for one segment)
    K_omega: float
    n1: int                  # floor(4 exp(2 (M-1) K(omega)))
    alpha: float             # scaling applied to the unit-length path
    lhs: float               # exp(alpha - (M-1) K(omega))
    rhs: float               # operator norm of Gamma_1 of alpha * X
    satisfied: bool          # lhs <= rhs (up to 1e-9 relative slack)
    segments: int
    shortest_segment: float


def norm_lower_bound_check(path: PiecewiseLinearPath,
                           alpha: float | None = None) -> BoundReport:
    """Evaluate exp(alpha - (M-1) K(omega)) <= ||Gamma_1^alpha|| for the
    path rescaled to total variation 1.

    The path may have any length and position: it is translated to start
    at the origin and scaled by 1/ell, ell its total variation, before its
    geometry is read; a length of 0, or one whose reciprocal float64 cannot
    hold, is an AssumptionViolation.  The rescaled path must have clean
    angles, and alpha must exceed K(omega)/D where D is its shortest
    segment length, so that every developed geodesic segment is longer
    than K(omega).  The default alpha is 2 K(omega)/D.  A non-finite alpha
    raises ValueError; an alpha above 700, or 2 (M-1) K(omega) above 700,
    would overflow float64 and is refused.
    """
    if alpha is not None and not math.isfinite(alpha):
        raise ValueError(f"alpha={alpha} is not finite")
    with np.errstate(over="ignore"):  # a length past float64 is inf
        lengths = _segment_lengths(np.diff(path.points, axis=0))
        ell = float(lengths[lengths > 0].sum())
    if not (ell > 0.0 and 0.0 < 1.0 / ell < math.inf):
        raise AssumptionViolation(
            f"a path of length {ell} cannot be scaled to length 1 in float64"
        )
    path = PiecewiseLinearPath((path.points - path.points[0]) * (1.0 / ell))
    geom = segment_geometry(path)
    require_clean_angles(geom)
    m = len(geom.lengths)
    omega = geom.min_angle
    k = k_of_omega(omega)
    shortest = float(geom.lengths.min())
    if alpha is None:
        alpha = 2.0 * k / shortest
    alpha_min = k / shortest
    if alpha <= alpha_min:
        raise AssumptionViolation(
            f"alpha={alpha} too small: need alpha > K(omega)/D = {alpha_min}"
        )
    if alpha > _EXP_MAX:
        raise AssumptionViolation(
            f"alpha={alpha} too large: the development overflows float64 "
            f"above alpha={_EXP_MAX} (the shortest segment is {shortest})"
        )
    if 2.0 * (m - 1) * k > _EXP_MAX:
        raise AssumptionViolation(
            f"{m} segments with K(omega)={k}: n1 = 4 exp(2 (M-1) K(omega)) "
            "overflows float64"
        )
    gamma = develop(path.scaled(alpha))
    lhs = math.exp(alpha - (m - 1) * k)
    rhs = float(np.linalg.norm(gamma, 2))
    return BoundReport(
        omega=omega,
        K_omega=k,
        n1=int(4.0 * math.exp(2.0 * (m - 1) * k)),
        alpha=alpha,
        lhs=lhs,
        rhs=rhs,
        satisfied=lhs <= rhs * (1.0 + _B_TOL),
        segments=m,
        shortest_segment=shortest,
    )
