"""Truncated tensor algebra over R^d with flat row-major storage.

A homogeneous degree-k tensor is stored as a flat float64 array of length
d**k.  The multi-index (i_1, ..., i_k), with 1-based entries in {1, ..., d},
maps to the offset sum_j (i_j - 1) * d**(k-j).
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
class TensorLevel:
    """One homogeneous degree-k tensor over R^d, flat row-major coefficients."""

    dim: int
    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.dim < 1 or self.degree < 0:
            raise ValueError("need dim >= 1 and degree >= 0")
        check_allocation(self.dim, self.degree)
        c = np.ascontiguousarray(self.coeffs, dtype=np.float64)
        if c.shape != (self.dim**self.degree,):
            raise ValueError(
                f"degree-{self.degree} tensor over R^{self.dim} needs "
                f"{self.dim ** self.degree} coefficients, got {c.size}"
            )
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def scalar(cls, dim: int, value: float) -> "TensorLevel":
        return cls(dim, 0, np.array([value]))


def tensor_product(a: TensorLevel, b: TensorLevel) -> TensorLevel:
    """Outer product in flat layout: result[(I, J)] = a[I] * b[J]."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    check_allocation(a.dim, a.degree + b.degree)
    out = np.zeros((a.coeffs.size, b.coeffs.size))
    out += a.coeffs[:, None] * b.coeffs[None, :]
    return TensorLevel(a.dim, a.degree + b.degree, out.ravel())


def permute(a: TensorLevel, sigma: tuple[int, ...]) -> TensorLevel:
    """Permute tensor slots: sends a_I e_{i_1} x ... x e_{i_k} to
    a_I e_{i_sigma(1)} x ... x e_{i_sigma(k)}.

    ``sigma`` is 1-based, a bijection of {1, ..., degree}.  The Euclidean
    norm is invariant under this operation.
    """
    k = a.degree
    if sorted(sigma) != list(range(1, k + 1)):
        raise ValueError(f"sigma must be a permutation of 1..{k}, got {sigma}")
    if k <= 1:
        return a
    # Coefficient of the result at J is a at I with i_{sigma(m)} = j_m,
    # i.e. i_m = j_{sigma^{-1}(m)}.  numpy's transpose(axes) reads
    # out[J] = a[J composed with axes^{-1}], so axes is sigma itself.
    axes = [s - 1 for s in sigma]
    cube = a.coeffs.reshape((a.dim,) * k)
    return TensorLevel(a.dim, k, np.ascontiguousarray(cube.transpose(axes)).ravel())


@dataclass(frozen=True)
class TruncatedSignature:
    """Levels 0..depth of iterated-integral tensors sharing one dimension."""

    dim: int
    depth: int
    levels: tuple[TensorLevel, ...] = field(repr=False)

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        if len(self.levels) != self.depth + 1:
            raise ValueError("need exactly depth + 1 levels")
        for k, lvl in enumerate(self.levels):
            if lvl.dim != self.dim or lvl.degree != k:
                raise ValueError(f"level {k} has wrong dim/degree")
        object.__setattr__(self, "levels", tuple(self.levels))

    @classmethod
    def from_arrays(cls, dim: int, arrays) -> "TruncatedSignature":
        levels = tuple(TensorLevel(dim, k, np.asarray(a, dtype=np.float64))
                       for k, a in enumerate(arrays))
        return cls(dim, len(levels) - 1, levels)

    def level(self, k: int) -> np.ndarray:
        """Flat coefficient array of the degree-k level."""
        return self.levels[k].coeffs


def graded_scale(s: TruncatedSignature, alpha: float) -> TruncatedSignature:
    """Scale level k by alpha**k; the signature of the path alpha * X."""
    levels = tuple(TensorLevel(s.dim, k, (alpha**k) * lvl.coeffs)
                   for k, lvl in enumerate(s.levels))
    return TruncatedSignature(s.dim, s.depth, levels)
