"""Truncated signatures over R^d as flat row-major arrays.

Level k of a signature is a flat float64 array of length d**k.  The
multi-index (i_1, ..., i_k), with 1-based entries in {1, ..., d}, maps to
the offset sum_j (i_j - 1) * d**(k-j).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AllocationCapError

DEFAULT_MAX_COEFFS = 10**8

_max_coeffs = DEFAULT_MAX_COEFFS


def set_allocation_cap(n: int) -> None:
    """Set the global cap on the number of coefficients in one tensor."""
    global _max_coeffs
    if n < 1:
        raise ValueError("allocation cap must be positive")
    _max_coeffs = int(n)


def get_allocation_cap() -> int:
    return _max_coeffs


def check_allocation(dim: int, degree: int) -> None:
    """Refuse tensor sizes past the cap before any memory is touched."""
    if dim**degree > _max_coeffs:
        raise AllocationCapError(
            f"a degree-{degree} tensor over R^{dim} needs {dim}**{degree} "
            f"coefficients, above the cap of {_max_coeffs}; "
            "raise it with set_allocation_cap() or --max-coeffs"
        )


@dataclass(frozen=True)
class TruncatedSignature:
    """Levels 0..depth over R^dim; level k is a flat, read-only float64
    array of dim**k coefficients.  Each level is converted to float64, then
    checked against the allocation cap and its size, in level order."""

    dim: int
    levels: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        if self.dim < 1 or not len(self.levels):
            raise ValueError("need dim >= 1 and at least level 0")
        levels = []
        for k, lvl in enumerate(self.levels):
            c = np.ascontiguousarray(lvl, dtype=np.float64)
            check_allocation(self.dim, k)
            if c.shape != (self.dim**k,):
                raise ValueError(
                    f"degree-{k} tensor over R^{self.dim} needs "
                    f"{self.dim ** k} coefficients, got {c.size}"
                )
            c.setflags(write=False)
            levels.append(c)
        object.__setattr__(self, "levels", tuple(levels))

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def level(self, k: int) -> np.ndarray:
        """Flat coefficient array of the degree-k level."""
        return self.levels[k]


def graded_scale(s: TruncatedSignature, alpha: float) -> TruncatedSignature:
    """Scale level k by alpha**k; the signature of the path alpha * X."""
    return TruncatedSignature(s.dim, [alpha**k * lvl for k, lvl in enumerate(s.levels)])
