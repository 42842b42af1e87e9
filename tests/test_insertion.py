import math

import numpy as np
import pytest

from siginvert import (
    NormTooSmall,
    PiecewiseLinearPath,
    TensorLevel,
    TruncatedSignature,
    adjoint_contract,
    batch_invert,
    constant_speed_reparam,
    insertion_apply,
    invert_signature,
    linear_signature,
    path_signature,
    solve_slope,
)

from conftest import random_path
from oracles import (
    adjoint_oracle,
    euclidean_norm,
    insertion_chen_split,
    trivial_signature,
)


def random_level(rng, dim, degree):
    return TensorLevel(dim, degree, rng.standard_normal(dim**degree))


class TestInsertionApply:
    def test_basis_insertion(self):
        # inserting e2 at slot 1 of e1 gives e2 (x) e1
        e1 = TensorLevel(2, 1, np.array([1.0, 0.0]))
        out = insertion_apply(e1, [0.0, 1.0], 1)
        np.testing.assert_array_equal(out.coeffs, [0.0, 0.0, 1.0, 0.0])

    def test_linear_signature_slot_independence(self):
        # for the signature of a single segment every slot gives the same
        # tensor, up to the degree factor (n+1)
        beta, n = np.array([0.4, -0.9]), 3
        lvl = linear_signature(beta, 1.0, n).levels[n]
        top = linear_signature(beta, 1.0, n + 1).levels[n + 1].coeffs
        for p in range(1, n + 2):
            got = insertion_apply(lvl, beta, p).coeffs
            np.testing.assert_allclose(got, (n + 1) * top, atol=1e-14)

    def test_norm_is_multiplicative(self, rng):
        a = random_level(rng, 3, 2)
        y = rng.standard_normal(3)
        for p in (1, 2, 3):
            out = insertion_apply(a, y, p)
            assert euclidean_norm(out) == pytest.approx(
                euclidean_norm(a) * np.linalg.norm(y), rel=1e-12
            )

    def test_linearity_in_y(self, rng):
        a = random_level(rng, 2, 3)
        y, z = rng.standard_normal(2), rng.standard_normal(2)
        lhs = insertion_apply(a, 2.0 * y + z, 2).coeffs
        rhs = 2.0 * insertion_apply(a, y, 2).coeffs + insertion_apply(a, z, 2).coeffs
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_rejects_bad_slot(self, rng):
        a = random_level(rng, 2, 2)
        with pytest.raises(ValueError):
            insertion_apply(a, [1.0, 0.0], 0)
        with pytest.raises(ValueError):
            insertion_apply(a, [1.0, 0.0], 4)


class TestAdjoint:
    def test_scalar_case(self):
        # d=1, n=2: sig = [1/2], z = [1/6]; any slot contracts to 1/12
        sig = TensorLevel(1, 2, np.array([0.5]))
        z = TensorLevel(1, 3, np.array([1.0 / 6.0]))
        for p in (1, 2, 3):
            got = adjoint_contract(sig, z, p)
            assert got[0] == pytest.approx(1.0 / 12.0, rel=1e-15)

    def test_adjoint_of_insertion_recovers_scaled_y(self, rng):
        # the normal-equation identity: A_p^T A_p y = ||sig||^2 y
        for d, n in [(1, 2), (2, 3), (3, 2)]:
            sig = random_level(rng, d, n)
            y = rng.standard_normal(d)
            for p in range(1, n + 2):
                z = insertion_apply(sig, y, p)
                got = adjoint_contract(sig, z, p)
                np.testing.assert_allclose(
                    got, euclidean_norm(sig) ** 2 * y, rtol=1e-12, atol=1e-14
                )

    def test_inner_product_adjointness(self, rng):
        # <insert_p(y), z> == <y, adjoint_p(z)>
        sig = random_level(rng, 2, 3)
        y = rng.standard_normal(2)
        z = random_level(rng, 2, 4)
        for p in range(1, 5):
            lhs = float(insertion_apply(sig, y, p).coeffs @ z.coeffs)
            rhs = float(y @ adjoint_contract(sig, z, p))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("d, n", [(1, 5), (2, 6), (2, 10), (3, 5), (4, 4)])
    def test_matches_dense_oracle_at_every_slot(self, rng, d, n):
        # a tail d**(n+1-p) of at most 8 entries takes the BLAS product, a
        # longer one einsum: each shape but d=1 (tail 1) runs both branches
        sig = path_signature(random_path(rng, 4, d), n + 1)
        # the adjoint is bilinear; unit-scale path levels keep atol relative
        path_pair = [TensorLevel(d, k, sig.level(k) / np.abs(sig.level(k)).max())
                     for k in (n, n + 1)]
        for below, top in [(random_level(rng, d, n), random_level(rng, d, n + 1)),
                           path_pair]:
            for p in range(1, n + 2):
                np.testing.assert_allclose(
                    adjoint_contract(below, top, p), adjoint_oracle(below, top, p),
                    rtol=1e-12, atol=1e-14)

    def test_zero_tensor(self, rng):
        sig = random_level(rng, 2, 2)
        z = TensorLevel(2, 3, np.zeros(8))
        np.testing.assert_array_equal(adjoint_contract(sig, z, 2), [0.0, 0.0])


class TestSolveSlope:
    def test_linear_path_exact(self):
        beta, n = np.array([1.5, -0.25, 0.75]), 4
        sig = linear_signature(beta, 1.0, n + 1)
        for p in range(1, n + 2):
            y = solve_slope(sig.levels[n], sig.levels[n + 1], p)
            np.testing.assert_allclose(y, beta, rtol=1e-12)

    def test_scalar_path(self):
        sig = linear_signature(np.array([1.0]), 1.0, 3)
        y = solve_slope(sig.levels[2], sig.levels[3], 1)
        assert y[0] == pytest.approx(1.0, rel=1e-14)

    def test_is_local_minimum(self, rng):
        # perturbing the solved slope must not reduce the residual
        p, n = 2, 3
        path = random_path(rng, 3, 2)
        sig = path_signature(path, n + 1)
        y = solve_slope(sig.levels[n], sig.levels[n + 1], p)

        def residual(v):
            diff = insertion_apply(sig.levels[n], v, p).coeffs \
                - (n + 1) * sig.levels[n + 1].coeffs
            return float(diff @ diff)

        base = residual(y)
        for j in range(2):
            for delta in (1e-3, -1e-3):
                e = np.zeros(2)
                e[j] = delta
                assert residual(y + e) >= base - 1e-15

    def test_raises_on_tiny_norm(self):
        sig = TensorLevel(2, 2, np.zeros(4))
        z = TensorLevel(2, 3, np.ones(8))
        with pytest.raises(NormTooSmall):
            solve_slope(sig, z, 1)

    @pytest.mark.parametrize("below, top", [
        ([np.nan, 1.0], [1.0] * 4),      # NaN divisor
        ([1e200, 1e200], [1.0] * 4),     # divisor overflows to inf
        ([1e-10, 0.0], [1e300] * 4),     # slope overflows
        ([1.0, 0.0], [np.inf] * 4),      # slope is infinite
    ], ids=["nan-norm", "inf-norm", "slope-overflow", "inf-slope"])
    def test_raises_on_non_finite(self, below, top):
        with pytest.raises(NormTooSmall):
            solve_slope(TensorLevel(2, 1, np.array(below)),
                        TensorLevel(2, 2, np.array(top)), 1)

    def test_rejects_mismatched_levels(self, rng):
        with pytest.raises(ValueError):
            solve_slope(random_level(rng, 2, 2), random_level(rng, 2, 2), 1)
        with pytest.raises(ValueError):
            solve_slope(random_level(rng, 2, 2), random_level(rng, 2, 3), 4)

    def test_bitwise_equal_to_inversion_slopes(self, rng):
        for d in (1, 2, 3):
            for n in range(2, 9):
                sig = path_signature(random_path(rng, 4, d), n)
                slopes = invert_signature(sig).slopes
                for p in range(1, n + 1):
                    y = solve_slope(sig.levels[n - 1], sig.levels[n], p)
                    np.testing.assert_array_equal(y, slopes[p - 1])


class TestInvertSignature:
    def test_linear_path_recovered_exactly(self, rng):
        for d, n in [(1, 6), (2, 8), (3, 5)]:
            beta = rng.standard_normal(d)
            sig = linear_signature(beta, 1.0, n)
            res = invert_signature(sig)
            np.testing.assert_allclose(res.slopes, np.tile(beta, (n, 1)),
                                       atol=1e-9)
            np.testing.assert_allclose(res.path.points[-1], beta, atol=1e-9)

    def test_start_point_translation(self, rng):
        sig = path_signature(random_path(rng, 3, 2), 6)
        a = invert_signature(sig)
        b = invert_signature(sig, start=[7.0, -3.0])
        np.testing.assert_allclose(b.path.points,
                                   a.path.points + np.array([7.0, -3.0]),
                                   atol=1e-12)
        np.testing.assert_allclose(b.slopes, a.slopes, atol=1e-14)

    def test_endpoint_matches_level_one(self, rng):
        path = random_path(rng, 4, 2)
        sig = path_signature(path, 10)
        res = invert_signature(sig)
        # displacement is recovered from the top levels alone
        np.testing.assert_allclose(res.path.points[-1],
                                   path.points[-1] - path.points[0], atol=5e-2)

    def test_depth_below_two_rejected(self):
        sig = linear_signature(np.array([1.0, 0.0]), 1.0, 1)
        with pytest.raises(ValueError):
            invert_signature(sig)

    def test_degenerate_signature_raises(self):
        levels = trivial_signature(2, 4).levels
        zeroed = TruncatedSignature(2, 4, levels)
        with pytest.raises(NormTooSmall):
            invert_signature(zeroed)

    def test_overflowing_signature_raises(self):
        big = TruncatedSignature.from_arrays(
            2, [[1.0]] + [np.full(2**k, 1e200) for k in range(1, 5)])
        with pytest.raises(NormTooSmall):
            invert_signature(big)

    def test_overflowing_point_raises(self):
        # both slopes are 1e308; the second step from 1e308 passes float64
        sig = TruncatedSignature.from_arrays(1, [[1.0], [1.0], [5e307]])
        np.testing.assert_array_equal(invert_signature(sig).slopes, 1e308)
        with pytest.raises(NormTooSmall):
            invert_signature(sig, start=[1e308])

    def test_scale_equivariance(self, rng):
        from siginvert import graded_scale

        path = random_path(rng, 3, 2)
        sig = path_signature(path, 8)
        res = invert_signature(sig)
        res_scaled = invert_signature(graded_scale(sig, 2.5))
        np.testing.assert_allclose(res_scaled.path.points,
                                   2.5 * res.path.points, rtol=1e-10,
                                   atol=1e-12)

    def test_error_decreases_with_depth(self, rng):
        # reconstruction of a fixed two-segment corner improves as the
        # truncation depth grows
        path = constant_speed_reparam(PiecewiseLinearPath(
            [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]))
        errs = []
        for n in (8, 14, 20):
            sig = path_signature(path, n)
            res = invert_signature(sig)
            grid = np.linspace(0.0, 1.0, n + 1)
            truth = np.stack([_eval(path, t) for t in grid])
            errs.append(float(np.mean(
                np.linalg.norm(res.path.points - truth, axis=1))))
        assert errs[2] < errs[1] < errs[0]


def _eval(path, t):
    out = np.empty(path.dim)
    for j in range(path.dim):
        out[j] = np.interp(t, path.times, path.points[:, j])
    return out


class TestBatchInvert:
    def test_single_matches_loop(self, rng):
        sig = path_signature(random_path(rng, 3, 2), 6)
        a = batch_invert([sig])[0]
        b = invert_signature(sig)
        np.testing.assert_array_equal(a.path.points, b.path.points)

    def test_duplicates_identical(self, rng):
        sig = path_signature(random_path(rng, 3, 2), 6)
        results = batch_invert([sig] * 3)
        for r in results[1:]:
            np.testing.assert_array_equal(r.path.points,
                                          results[0].path.points)

    def test_batch_bitwise_equal_to_loop(self, rng):
        sigs = [path_signature(random_path(rng, 3, 2), 8) for _ in range(50)]
        starts = [rng.standard_normal(2) for _ in sigs]
        batch = batch_invert(sigs, starts)
        loop = [invert_signature(s, x0) for s, x0 in zip(sigs, starts)]
        for a, b in zip(batch, loop):
            np.testing.assert_array_equal(a.path.points, b.path.points)
            np.testing.assert_array_equal(a.slopes, b.slopes)

    def test_rejects_mixed_shapes(self, rng):
        a = path_signature(random_path(rng, 3, 2), 6)
        b = path_signature(random_path(rng, 3, 3), 6)
        with pytest.raises(ValueError):
            batch_invert([a, b])

    def test_empty_batch(self):
        assert batch_invert([]) == []


class TestChenSplitIdentity:
    def test_matches_full_interval(self, rng):
        path = random_path(rng, 4, 2)
        n, y = 3, rng.standard_normal(2)
        full = path_signature(path, n)
        for p in (1, 2, 4):
            for v in (0.3, 0.5, 0.85):
                lhs = insertion_apply(full.levels[n], y, p)
                rhs = insertion_chen_split(path, n, p, y, v)
                np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)

    def test_rejects_bad_split_point(self, rng):
        path = random_path(rng, 2, 2)
        with pytest.raises(ValueError):
            insertion_chen_split(path, 2, 1, [1.0, 0.0], 1.0)
