"""Independent test oracles: a Riemann-sum signature, the Chen split of
the insertion operator, the Chen-chain norm estimate and a per-entry
insertion adjoint, with the small helpers only the tests use (multi-index
offsets, path restriction, the zero level and the trivial signature, the
Euclidean norm).

They check the library's results by other routes and are not part of the
package's API.
"""

import numpy as np

from siginvert import (
    PiecewiseLinearPath,
    TensorLevel,
    TruncatedSignature,
    insertion_apply,
    path_signature,
)
from siginvert.insertion import _check_slot


def multi_index_to_offset(index: tuple[int, ...], dim: int) -> int:
    """Row-major offset of a 1-based multi-index."""
    off = 0
    for i in index:
        if not 1 <= i <= dim:
            raise ValueError(f"multi-index entry {i} outside 1..{dim}")
        off = off * dim + (i - 1)
    return off


def offset_to_multi_index(offset: int, dim: int, degree: int) -> tuple[int, ...]:
    """Inverse of :func:`multi_index_to_offset`."""
    if not 0 <= offset < dim**degree:
        raise ValueError("offset out of range")
    out = []
    for _ in range(degree):
        out.append(offset % dim + 1)
        offset //= dim
    return tuple(reversed(out))


def entry(level: TensorLevel, index: tuple[int, ...]) -> float:
    """The coefficient of ``level`` at a 1-based multi-index."""
    if len(index) != level.degree:
        raise ValueError("multi-index length must equal the degree")
    return float(level.coeffs[multi_index_to_offset(index, level.dim)])


def euclidean_norm(a: TensorLevel) -> float:
    return float(np.linalg.norm(a.coeffs))


def zero_level(dim: int, degree: int) -> TensorLevel:
    return TensorLevel(dim, degree, np.zeros(dim**degree))


def trivial_signature(dim: int, depth: int) -> TruncatedSignature:
    """The signature of a constant path: (1, 0, ..., 0)."""
    levels = [TensorLevel.scalar(dim, 1.0)]
    levels += [zero_level(dim, k) for k in range(1, depth + 1)]
    return TruncatedSignature(dim, depth, tuple(levels))


def restrict(path: PiecewiseLinearPath, u: float, v: float) -> PiecewiseLinearPath:
    """The path restricted to [u, v], with interpolated endpoints."""
    t, pts = path.times, path.points
    if not t[0] <= u < v <= t[-1]:
        raise ValueError("need t0 <= u < v <= tM")

    def point_at(s):
        return np.array([np.interp(s, t, pts[:, j]) for j in range(path.dim)])

    inner = (t > u) & (t < v)
    new_t = np.concatenate(([u], t[inner], [v]))
    new_p = np.vstack([point_at(u), pts[inner], point_at(v)])
    return PiecewiseLinearPath(new_p, new_t)


def adjoint_oracle(sig: TensorLevel, z: TensorLevel, p: int) -> np.ndarray:
    """The slot-p insertion adjoint entry by entry, from its definition.

    Component j sums sig[(.. no i_p ..)] * z[(i_1..i_{n+1})] over every
    multi-index of z with i_p = j, one index at a time.
    """
    _check_slot(sig.degree, p)
    out = np.zeros(sig.dim)
    for off in range(z.coeffs.size):
        idx = offset_to_multi_index(off, z.dim, z.degree)
        rest = idx[:p - 1] + idx[p:]
        out[idx[p - 1] - 1] += entry(sig, rest) * z.coeffs[off]
    return out


# Work cap for the Riemann oracle (steps * d**depth terms).
_ORACLE_WORK_CAP = 10**8


def riemann_oracle(path: PiecewiseLinearPath, depth: int,
                   steps: int) -> TruncatedSignature:
    """Brute-force signature via left-Riemann sums over the simplex.

    Each level-k coefficient is approximated by
    sum_{m_1 < ... < m_k} dX_{m_1}^{i_1} ... dX_{m_k}^{i_k} over a uniform
    grid of ``steps`` increments, evaluated with prefix sums.  Error
    O(1/steps).  Test oracle only; independent of the Chen route.
    """
    if steps < 10:
        raise ValueError("need steps >= 10")
    d = path.dim
    if steps * d**depth > _ORACLE_WORK_CAP:
        raise ValueError("steps**depth grid infeasible: lower steps or depth")
    t0, t1 = path.times[0], path.times[-1]
    grid = np.linspace(t0, t1, steps + 1)
    samples = np.column_stack(
        [np.interp(grid, path.times, path.points[:, j]) for j in range(d)]
    )
    dX = np.diff(samples, axis=0)  # (steps, d)
    levels = [TensorLevel.scalar(d, 1.0)]
    # prefix[m] = level-k signature over the first m increments (strict order)
    prefix = np.ones((steps + 1, 1))
    for k in range(1, depth + 1):
        terms = np.einsum("mi,mj->mij", prefix[:-1], dX).reshape(steps, -1)
        prefix = np.vstack([np.zeros((1, d**k)), np.cumsum(terms, axis=0)])
        levels.append(TensorLevel(d, k, prefix[-1].copy()))
    return TruncatedSignature(d, depth, tuple(levels))


def insertion_chen_split(path: PiecewiseLinearPath, n: int, p: int, y,
                         v: float) -> TensorLevel:
    """Right-hand side of the split identity for the insertion operator.

    Splits [0, 1] at v and evaluates
    sum_{k<p} X^k_{[0,v]} (x) insert_{p-k}(y) on [v,1]
    + sum_{k>=p} insert_p(y) on [0,v] (x) X^{n-k}_{[v,1]}.
    Exists solely as a test oracle against the full-interval insertion.
    """
    if not 0.0 < v < 1.0:
        raise ValueError("split point v must lie in (0, 1)")
    _check_slot(n, p)
    y = np.asarray(y, dtype=np.float64).ravel()
    d = path.dim
    left = path_signature(restrict(path, 0.0, v), n)
    right = path_signature(restrict(path, v, 1.0), n)
    out = np.zeros(d ** (n + 1))
    for k in range(n + 1):
        if k < p:
            ins = insertion_apply(right.levels[n - k], y, p - k)
            term = np.multiply.outer(left.level(k), ins.coeffs)
        else:
            ins = insertion_apply(left.levels[k], y, p)
            term = np.multiply.outer(ins.coeffs, right.level(n - k))
        out += term.ravel()
    return TensorLevel(d, n + 1, out)


def chen_lower_bound_chain(sig: TruncatedSignature, alpha: float) -> float:
    """1 + sum_k alpha^k * euclidean_norm(level k), truncated at sig.depth.

    Diagnostic only: a lower estimate of the projective-norm majorant of
    ||Gamma_1^alpha||, since the Euclidean norm underestimates the
    projective one.
    """
    total = 1.0
    for k in range(1, sig.depth + 1):
        total += alpha**k * float(np.linalg.norm(sig.level(k)))
    return total
