"""Numeric evaluation of the convergence bounds and recovery experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .development import k_of_omega
from .insertion import solve_slope
from .signature import (
    PiecewiseLinearPath,
    constant_speed_reparam,
    path_signature,
    require_clean_angles,
    segment_geometry,
)


@dataclass(frozen=True)
class RecoveryBoundInput:
    """Inputs of the slope-error bound for one target segment."""

    segments: int            # M
    breakpoints: np.ndarray  # t_0 = 0 < ... < t_M = 1
    target: int              # segment index i, 1-based
    ell: float               # path length
    omega: float             # smallest turning angle
    depth: int               # n
    probe_depth: int | None = None  # k_n, defaults to n

    def __post_init__(self):
        t = np.asarray(self.breakpoints, dtype=np.float64)
        if t.shape != (self.segments + 1,):
            raise ValueError("need segments + 1 breakpoints")
        if abs(t[0]) > 1e-12 or abs(t[-1] - 1.0) > 1e-12 or np.any(np.diff(t) <= 0):
            raise ValueError("breakpoints must satisfy 0 = t_0 < ... < t_M = 1")
        object.__setattr__(self, "breakpoints", t)
        if not 1 <= self.target <= self.segments:
            raise ValueError("target segment index out of range")
        if not 0.0 < self.omega <= math.pi:
            raise ValueError("omega must lie in (0, pi]")

    @property
    def delta(self) -> float:
        return float(self.breakpoints[self.target]
                     - self.breakpoints[self.target - 1])

    @property
    def k_n(self) -> int:
        return self.depth if self.probe_depth is None else self.probe_depth


def probe_slot(t_prev: float, t_i: float, n: int) -> int:
    """The slot p = floor((3 t_i + t_{i-1})(n+1) / 4), clamped to 1..n+1."""
    p = math.floor((3.0 * t_i + t_prev) * (n + 1) / 4.0)
    return min(max(p, 1), n + 1)


def depth_floor(inp: RecoveryBoundInput) -> float:
    """The depth the guarantee formally requires, max(n1, 2/delta);
    reported, never enforced (n1 is astronomically large for small
    omega, and math.inf once it leaves float range)."""
    try:
        n1 = math.floor(4.0 * math.exp(
            2.0 * (inp.segments - 1) * k_of_omega(inp.omega)))
    except OverflowError:
        n1 = math.inf
    return max(n1, 2.0 / inp.delta)


def recovery_error_bound(inp: RecoveryBoundInput) -> float:
    """Right-hand side of the slope-error bound at probe depth k_n:
    4 ell e^{(M-1)K(omega)} (sqrt((1-D)/D)/sqrt(k_n+1) + 4 exp(-k_n D^2/16)),
    with D the target segment's time width.

    When e^{(M-1)K(omega)} or a partial product leaves float range, the
    product is taken in log space: finite whenever it is representable,
    math.inf otherwise.
    """
    delta = inp.delta
    if delta <= 0:
        raise ValueError("target segment has non-positive width")
    k = inp.k_n
    exponent = (inp.segments - 1) * k_of_omega(inp.omega)
    bracket = (math.sqrt((1.0 - delta) / delta) / math.sqrt(k + 1)
               + 4.0 * math.exp(-k * delta**2 / 16.0))
    try:
        bound = 4.0 * inp.ell * math.exp(exponent) * bracket
    except OverflowError:
        bound = math.inf
    if bound < math.inf:
        return bound
    try:
        return math.exp(math.log(4.0 * inp.ell) + exponent + math.log(bracket))
    except OverflowError:
        return math.inf


def residual_envelope_bound(ell: float, delta: float, n: int) -> float:
    """Bound on the residual ||insert_p(beta_i) - (n+1) X^{n+1}||:
    ell^{n+1}/n! (sqrt((1-D)/D)/sqrt(n+1) + 4 exp(-n D^2/16)).

    Valid for all n >= 2/delta, no subsequence needed.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    bracket = (math.sqrt((1.0 - delta) / delta) / math.sqrt(n + 1)
               + 4.0 * math.exp(-n * delta**2 / 16.0))
    return ell ** (n + 1) / math.factorial(n) * bracket


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
    """Sign the path to depth n+1 for each n, solve the slope at the
    probe slot for every segment, and record measured error against the
    bound (evaluated at k_n = n)."""
    path = constant_speed_reparam(path)
    geom = segment_geometry(path)
    require_clean_angles(geom)
    t = path.times
    m = len(geom.lengths)
    rows = []
    for n in depth_list:
        sig = path_signature(path, n + 1)
        for i in range(1, m + 1):
            p = probe_slot(t[i - 1], t[i], n)
            y = solve_slope(sig.level(n), sig.level(n + 1), n, p)
            measured = float(np.linalg.norm(y - geom.slopes[i - 1]))
            inp = RecoveryBoundInput(
                segments=m, breakpoints=t, target=i,
                ell=geom.total_variation, omega=geom.min_angle, depth=n,
            )
            bound = recovery_error_bound(inp)
            rows.append(ErrorComparison(
                depth=n, segment=i, p_used=p, measured=measured,
                bound=bound, satisfied=measured <= bound,
                depth_floor=depth_floor(inp),
            ))
    return rows
