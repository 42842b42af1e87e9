"""Independent test oracles: a Riemann-sum signature, the Chen split of
the insertion operator, the Chen-chain norm estimate, a per-entry
insertion adjoint, and the tensor operations the package does not need
(tensor product, slot permutation, the insertion map, the closed-form
signature of a linear segment and Chen's identity); with the small helpers
only the tests use (multi-index offsets, path restriction, the trivial
signature, the Euclidean norm, signature records as dicts and as JSON
text, and the hyperboloid's bilinear form, distance, basepoint and
isometry defect).

Levels are flat row-major float64 arrays, as in ``TruncatedSignature``.
These functions check the library's results by other routes and are not
part of the package's API.
"""

import io
import math

import numpy as np

from siginvert import PiecewiseLinearPath, TruncatedSignature, path_signature
from siginvert.fileio import write_signatures_json
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


def entry(level: np.ndarray, dim: int, index: tuple[int, ...]) -> float:
    """The coefficient of a level over R^dim at a 1-based multi-index."""
    if level.size != dim ** len(index):
        raise ValueError("multi-index length must equal the degree")
    return float(level[multi_index_to_offset(index, dim)])


def euclidean_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def trivial_signature(dim: int, depth: int) -> TruncatedSignature:
    """The signature of a constant path: (1, 0, ..., 0)."""
    return TruncatedSignature(dim, [[1.0]] + [np.zeros(dim**k)
                                              for k in range(1, depth + 1)])


def tensor_product(a: np.ndarray, b: np.ndarray, dim: int) -> np.ndarray:
    """Outer product of two levels over R^dim in flat layout:
    result[(I, J)] = a[I] * b[J]."""
    for x in (a, b):
        if x.size != dim ** (round(math.log(x.size, dim)) if dim > 1 else 0):
            raise ValueError(f"{x.size} entries are not a level over R^{dim}")
    return np.multiply.outer(a, b).ravel()


def permute(a: np.ndarray, dim: int, sigma: tuple[int, ...]) -> np.ndarray:
    """Permute the slots of the degree-k level ``a`` over R^dim: sends
    a_I e_{i_1} x ... x e_{i_k} to a_I e_{i_sigma(1)} x ... x e_{i_sigma(k)}.

    ``sigma`` is 1-based, a bijection of {1, ..., k}.  The Euclidean norm
    is invariant under this operation.
    """
    k = len(sigma)
    if sorted(sigma) != list(range(1, k + 1)):
        raise ValueError(f"sigma must be a permutation of 1..{k}, got {sigma}")
    # Coefficient of the result at J is a at I with i_{sigma(m)} = j_m,
    # i.e. i_m = j_{sigma^{-1}(m)}.  numpy's transpose(axes) reads
    # out[J] = a[J composed with axes^{-1}], so axes is sigma itself.
    return a.reshape((dim,) * k).transpose([s - 1 for s in sigma]).ravel()


def insertion_apply(sig_n: np.ndarray, y, n: int, p: int) -> np.ndarray:
    """Insert y at slot p of the degree-n level ``sig_n``:
    result[(i_1..i_{n+1})] = y_{i_p} * sig[(.. no i_p ..)]."""
    y = np.asarray(y, dtype=np.float64).ravel()
    _check_slot(n, p)
    if sig_n.size != y.size**n:
        raise ValueError(f"y must live in R^d for a degree-{n} level over R^d")
    return (sig_n.reshape(y.size ** (p - 1), 1, -1) * y.reshape(1, -1, 1)).ravel()


def linear_signature(beta, dt: float, depth: int) -> TruncatedSignature:
    """Signature of the linear segment t -> beta * t over an interval of
    length dt: level k equals beta^{(x)k} dt^k / k!."""
    beta = np.asarray(beta, dtype=np.float64).ravel()
    if dt <= 0:
        raise ValueError("dt must be positive")
    levels = [np.ones(1)]
    for k in range(1, depth + 1):
        levels.append(np.multiply.outer(levels[-1], beta * (dt / k)).ravel())
    return TruncatedSignature(beta.size, levels)


def chen_concat(a: TruncatedSignature, b: TruncatedSignature) -> TruncatedSignature:
    """Chen's identity: level n of the concatenation is
    sum_k a_k (x) b_{n-k}."""
    if a.dim != b.dim or a.depth != b.depth:
        raise ValueError("signatures must share dim and depth")
    return TruncatedSignature(a.dim, [
        sum(tensor_product(a.level(k), b.level(n - k), a.dim) for k in range(n + 1))
        for n in range(a.depth + 1)])


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


def adjoint_oracle(below: np.ndarray, top: np.ndarray, n: int,
                   p: int) -> np.ndarray:
    """The slot-p insertion adjoint entry by entry, from its definition.

    Component j sums below[(.. no i_p ..)] * top[(i_1..i_{n+1})] over every
    multi-index of the degree-(n+1) level ``top`` with i_p = j, one index
    at a time.
    """
    _check_slot(n, p)
    d = top.size // below.size
    out = np.zeros(d)
    for off in range(top.size):
        idx = offset_to_multi_index(off, d, n + 1)
        rest = idx[:p - 1] + idx[p:]
        out[idx[p - 1] - 1] += entry(below, d, rest) * top[off]
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
    levels = [np.ones(1)]
    # prefix[m] = level-k signature over the first m increments (strict order)
    prefix = np.ones((steps + 1, 1))
    for k in range(1, depth + 1):
        terms = np.einsum("mi,mj->mij", prefix[:-1], dX).reshape(steps, -1)
        prefix = np.vstack([np.zeros((1, d**k)), np.cumsum(terms, axis=0)])
        levels.append(prefix[-1].copy())
    return TruncatedSignature(d, levels)


def insertion_chen_split(path: PiecewiseLinearPath, n: int, p: int, y,
                         v: float) -> np.ndarray:
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
            ins = insertion_apply(right.level(n - k), y, n - k, p - k)
            out += tensor_product(left.level(k), ins, d)
        else:
            ins = insertion_apply(left.level(k), y, k, p)
            out += tensor_product(ins, right.level(n - k), d)
    return out


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


def signature_to_record(sig: TruncatedSignature, path_id: str | None = None) -> dict:
    """The JSON record of a signature as a dict, "id" last when given."""
    rec = {
        "dim": sig.dim,
        "depth": sig.depth,
        "levels": [sig.level(k).tolist() for k in range(sig.depth + 1)],
    }
    if path_id is not None:
        rec["id"] = path_id
    return rec


def dumps_signatures(sigs_with_ids) -> str:
    """The text ``write_signatures_json`` writes for these records."""
    buf = io.StringIO()
    write_signatures_json(buf, sigs_with_ids)
    return buf.getvalue()


def minkowski_b(x, y) -> float:
    """B(x, y) = sum_{i<=d} x_i y_i - x_{d+1} y_{d+1}."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return float(x[:-1] @ y[:-1] - x[-1] * y[-1])


def hyperbolic_distance(x, y) -> float:
    """arcosh(-B(x, y)), with the argument clamped to >= 1 against ulps."""
    return math.acosh(max(1.0, -minkowski_b(x, y)))


def basepoint(dim: int) -> np.ndarray:
    """y0 = (0, ..., 0, 1), the hyperboloid point over the origin."""
    y0 = np.zeros(dim + 1)
    y0[-1] = 1.0
    return y0


def b_defect(g: np.ndarray) -> float:
    """Max |B(G e_i, G e_j) - B(e_i, e_j)| over the canonical basis."""
    form = np.diag(np.append(np.ones(len(g) - 1), -1.0))
    return float(np.max(np.abs(g.T @ form @ g - form)))
