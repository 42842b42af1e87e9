"""Truncated signatures over R^d, each in one flat float64 buffer.

Level k of a signature is the flat view of its d**k coefficients in the
buffer, levels in order.  The multi-index (i_1, ..., i_k), with 1-based
entries in {1, ..., d}, maps to the offset sum_j (i_j - 1) * d**(k-j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .errors import AllocationCapError

DEFAULT_MAX_COEFFS = 10**8

_max_coeffs = DEFAULT_MAX_COEFFS


def set_allocation_cap(n: int) -> None:
    """Set the global cap on the number of coefficients in one tensor."""
    global _max_coeffs
    _max_coeffs = check_count("allocation cap", n, 1)


def get_allocation_cap() -> int:
    return _max_coeffs


def check_allocation(dim: int, degree: int) -> None:
    """Refuse tensor sizes past the cap before any memory is touched.  The
    cap is at most 2**53, so dim**min(degree, 54) decides as dim**degree
    would, in bounded time."""
    if dim ** min(degree, 54) > _max_coeffs:
        raise AllocationCapError(
            f"a degree-{degree} tensor over R^{dim} needs {dim}**{degree} "
            f"coefficients, above the cap of {_max_coeffs}; "
            "raise it with set_allocation_cap() or --max-coeffs"
        )


def check_levels(dim: int, depth: int) -> None:
    """The size rule of levels 0..depth over R^dim, the first check of every
    signature, which needs no level: the top level against the cap (level 1
    at depth 0, so no signature claims any dim), then the levels against 4
    times the cap, at 17 coefficients a level: a level's numpy view takes
    about 128 bytes, most of what a signature over R^1 holds.  At dim >= 2
    only a cap below 22 reaches the level count.  A dim below 1, which
    only the JSON reader passes and the constructor refuses, has no top
    level to count."""
    if dim >= 1:
        check_allocation(dim, max(depth, 1))
    if 17 * (depth + 1) > 4 * _max_coeffs:
        raise AllocationCapError(
            f"a depth-{depth} signature over R^{dim} has {depth + 1} levels, "
            f"17 coefficients each with its view, above 4 times the cap of "
            f"{_max_coeffs}; raise it with set_allocation_cap() or --max-coeffs")


def check_count(name: str, value, low: int = 0, high: int = 2**53) -> int:
    """The one check of a count argument: an integer that is not a bool
    (numpy integers included) in [low, high], returned as a Python int.
    Anything else raises ValueError naming the argument and the value."""
    if (isinstance(value, Integral) and not isinstance(value, bool)
            and low <= value <= high):
        return int(value)
    top = "2**53" if high == 2**53 else high
    raise ValueError(f"{name} must be an integer in [{low}, {top}], got {value!r}")


def _size(dim: int, depth: int) -> int:
    """sum_k dim**k over k = 0..depth: the length of a signature's buffer."""
    return depth + 1 if dim == 1 else (dim ** (depth + 1) - 1) // (dim - 1)


@dataclass(frozen=True, eq=False)
class TruncatedSignature:
    """Levels 0..depth over R^dim as views of one read-only float64 buffer
    of sum_k dim**k finite coefficients, in level order.  The one check of
    input from outside the library: dim is a count >= 1, kept as an int;
    then the size rule ``check_levels`` that signing applies, before any
    level is read; then each level, in level order, is converted to float64,
    checked for its shape and copied into the buffer; last, ``_wrap`` checks
    finiteness.  Equality is identity."""

    dim: int
    levels: tuple[np.ndarray, ...] = field(repr=False)
    _buffer: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        dim = check_count("dim", self.dim, 1, math.inf)
        depth = len(self.levels) - 1
        if depth < 0:
            raise ValueError("need at least level 0")
        check_levels(dim, depth)
        buffer = np.empty(_size(dim, depth))
        for k, lvl in enumerate(self.levels):
            c = np.asarray(lvl, dtype=np.float64)
            if c.shape != (dim**k,):
                raise ValueError(f"a degree-{k} tensor over R^{dim} needs "
                                 f"shape ({dim**k},), got {c.shape}")
            buffer[_size(dim, k - 1):_size(dim, k)] = c
        vars(self).update(vars(_wrap(dim, depth, buffer)))

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def level(self, k: int) -> np.ndarray:
        """Flat coefficient array of the degree-k level."""
        return self.levels[k]


def _wrap(dim: int, depth: int, buffer: np.ndarray) -> TruncatedSignature:
    """The signature of levels 0..depth over ``buffer``, which the library
    has just built, with no copy.  A non-finite entry raises ValueError for
    its level: every buffer the library wraps is checked so, an overflow
    included."""
    buffer.setflags(write=False)
    levels = tuple(buffer[_size(dim, k - 1):_size(dim, k)]
                   for k in range(depth + 1))
    if not np.isfinite(buffer).all():
        k = next(k for k, lvl in enumerate(levels) if not np.isfinite(lvl).all())
        raise ValueError(f"level {k} has a non-finite entry")
    sig = object.__new__(TruncatedSignature)
    vars(sig).update(dim=dim, levels=levels, _buffer=buffer)
    return sig


def _prefix(s: TruncatedSignature, depth: int) -> TruncatedSignature:
    """Levels 0..depth of ``s``, a view of its read-only buffer with no copy."""
    return _wrap(s.dim, depth, s._buffer[:_size(s.dim, depth)])


def graded_scale(s: TruncatedSignature, alpha: float) -> TruncatedSignature:
    """Scale level k by alpha**k; the signature of the path alpha * X.
    A level scaled past float64 raises the constructor's ValueError."""
    with np.errstate(over="ignore", invalid="ignore"):
        buffer = np.concatenate([np.float64(alpha)**k * lvl
                                 for k, lvl in enumerate(s.levels)])
    return _wrap(s.dim, s.depth, buffer)
