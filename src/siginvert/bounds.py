"""Numeric evaluation of the convergence bounds and recovery experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .development import k_of_omega
from .insertion import _invert_depths
from .signature import (
    PiecewiseLinearPath,
    constant_speed_reparam,
    require_clean_angles,
    segment_geometry,
)
from .tensor_algebra import check_count


def _check(delta, *, ell=1.0, segments=1, n=0) -> None:
    """Refuse arguments outside the bounds' domain, nan included (it fails
    every comparison); n and M are used as floats, exact up to 2**53."""
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    if not 0.0 < ell < math.inf:
        raise ValueError(f"ell must be finite and > 0, got {ell}")
    check_count("segments", segments, 1)
    check_count("n", n)


def _bracket(delta: float, n: int) -> tuple[float, float]:
    """sqrt((1-D)/D)/sqrt(n+1) + 4 exp(-n D^2/16) and its log, also where
    the bracket underflows to 0 (at D = 1 the root term is 0) or overflows
    (at a subnormal D, where the root term dominates)."""
    value = (math.sqrt((1.0 - delta) / delta) / math.sqrt(n + 1)
             + 4.0 * math.exp(-n * delta**2 / 16.0))
    if 0.0 < value < math.inf:
        return value, math.log(value)
    if value == 0.0:
        return value, math.log(4.0) - n / 16.0
    return value, 0.5 * (math.log1p(-delta) - math.log(delta) - math.log(n + 1))


def _finite_or_log(direct, log: float) -> float:
    """The product ``direct()`` where it is finite and nonzero, else exp(log),
    its value taken in log space: math.inf or 0 only when the value leaves
    float range (every bound is positive)."""
    try:
        value = direct()
    except OverflowError:
        value = math.inf
    if 0.0 < value < math.inf:  # a factor past float range gives 0, inf or nan
        return value
    try:
        return math.exp(log)
    except OverflowError:
        return math.inf


def probe_slot(t_prev: float, t_i: float, n: int) -> int:
    """The slot p = floor((3 t_i + t_{i-1})(n+1) / 4), clamped to 1..n+1.
    A time that is not finite raises ValueError.  The product is compared
    exactly with the integers 1 and n+1, so one past float64 gives 1 or
    n+1."""
    n = check_count("n", n)
    for name, t in (("t_prev", t_prev), ("t_i", t_i)):
        if not math.isfinite(t):
            raise ValueError(f"{name} must be finite, got {t}")
    s = (3.0 * t_i + t_prev) * (n + 1) / 4.0
    if s < 1:
        return 1
    return n + 1 if s >= n + 1 else math.floor(s)


def depth_floor(segments: int, omega: float, delta: float) -> float:
    """The depth the guarantee formally requires, max(n1, 2/D) with
    n1 = floor(4 e^{2 (M-1) K(omega)}); reported, never enforced (n1 is
    astronomically large for small omega, and math.inf once it leaves
    float range)."""
    _check(delta, segments=segments)
    exponent = 2.0 * (segments - 1) * k_of_omega(omega)
    n1 = _finite_or_log(lambda: math.floor(4.0 * math.exp(exponent)),
                        math.log(4.0) + exponent)
    return max(n1, 2.0 / delta)


def recovery_error_bound(ell: float, segments: int, omega: float,
                         delta: float, n: int) -> float:
    """Right-hand side of the slope-error bound at depth n:
    4 ell e^{(M-1)K(omega)} (sqrt((1-D)/D)/sqrt(n+1) + 4 exp(-n D^2/16))
    for a path of length ell and M segments, smallest turning angle omega
    and target segment width D."""
    _check(delta, ell=ell, segments=segments, n=n)
    exponent = (segments - 1) * k_of_omega(omega)
    bracket, log_bracket = _bracket(delta, n)
    return _finite_or_log(
        lambda: 4.0 * ell * math.exp(exponent) * bracket,
        math.log(4.0) + math.log(ell) + exponent + log_bracket)


def residual_envelope_bound(ell: float, delta: float, n: int) -> float:
    """Bound on the residual ||insert_p(beta_i) - (n+1) X^{n+1}||:
    ell^{n+1}/n! (sqrt((1-D)/D)/sqrt(n+1) + 4 exp(-n D^2/16)).

    Valid for all n >= 2/delta, no subsequence needed.
    """
    _check(delta, ell=ell, n=n)
    bracket, log_bracket = _bracket(delta, n)
    return _finite_or_log(
        lambda: math.pow(ell, n + 1) / math.gamma(n + 1) * bracket,
        (n + 1) * math.log(ell) - math.lgamma(n + 1) + log_bracket)


@dataclass(frozen=True)
class ErrorComparison:
    """Measured slope error next to the theoretical envelope."""

    depth: int
    segment: int
    p_used: int
    measured: float
    bound: float
    satisfied: bool
    depth_floor: float      # the depth the guarantee formally requires


def compare_recovery(path: PiecewiseLinearPath,
                     depth_list) -> list[ErrorComparison]:
    """Invert the path at depth n+1 for each depth n >= 1, all from one
    signature at depth max(n)+1, read every segment's slope off the probe
    slot, and record the measured error against the bound."""
    path = constant_speed_reparam(path)
    geom = segment_geometry(path)
    require_clean_angles(geom)
    t = path.times
    # the slopes beta_i; a constant-speed path has no zero-length segment
    beta = np.diff(path.points, axis=0) / np.diff(t)[:, None]
    m = len(geom.lengths)
    depths = [check_count("n", n, 1) for n in depth_list]
    rows = []
    for n, res in zip(depths, _invert_depths(path, [n + 1 for n in depths])):
        slopes = res.slopes
        for i in range(1, m + 1):
            p = probe_slot(t[i - 1], t[i], n)
            measured = float(np.linalg.norm(slopes[p - 1] - beta[i - 1]))
            delta = float(t[i] - t[i - 1])
            bound = recovery_error_bound(geom.total_variation, m,
                                         geom.min_angle, delta, n)
            rows.append(ErrorComparison(
                depth=n, segment=i, p_used=p, measured=measured,
                bound=bound, satisfied=measured <= bound,
                depth_floor=depth_floor(m, geom.min_angle, delta),
            ))
    return rows
