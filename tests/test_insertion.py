import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from siginvert import (
    NormTooSmall,
    PiecewiseLinearPath,
    TruncatedSignature,
    batch_invert,
    batch_signature,
    constant_speed_reparam,
    graded_scale,
    invert_signature,
    path_signature,
)
from siginvert.insertion import (_BATCH_SCRATCH, _adjoint_rows, _block_entries,
                                  _invert_depths, _outcomes, _window_table)

from conftest import random_path
from oracles import (
    adjoint_oracle,
    block_entries_oracle,
    euclidean_norm,
    insertion_apply,
    insertion_chen_split,
    linear_signature,
    trivial_signature,
)


def adjoint_rows(below, top, n):
    """Rows 1..n+1 of the adjoint of the insertion into the degree-n
    level ``below``, applied to the degree-(n+1) level ``top``: the group
    kernel on a group of one."""
    return _adjoint_rows([below], [top], top.size // below.size, n)[0]


def top_two(below, top, n):
    """A signature over R^d, d = top.size // below.size, whose levels n and
    n + 1 are ``below`` and ``top`` and whose lower levels hold ones."""
    d = top.size // below.size
    return TruncatedSignature(
        d, [np.ones(d**k) for k in range(n)] + [below, top])


class TestInsertionApply:
    def test_basis_insertion(self):
        # inserting e2 at slot 1 of e1 gives e2 (x) e1
        e1 = np.array([1.0, 0.0])
        out = insertion_apply(e1, [0.0, 1.0], 1, 1)
        np.testing.assert_array_equal(out, [0.0, 0.0, 1.0, 0.0])

    def test_linear_signature_slot_independence(self):
        # for the signature of a single segment every slot gives the same
        # tensor, up to the degree factor (n+1)
        beta, n = np.array([0.4, -0.9]), 3
        lvl = linear_signature(beta, 1.0, n).level(n)
        top = linear_signature(beta, 1.0, n + 1).level(n + 1)
        for p in range(1, n + 2):
            got = insertion_apply(lvl, beta, n, p)
            np.testing.assert_allclose(got, (n + 1) * top, atol=1e-14)

    def test_norm_is_multiplicative(self, rng):
        a = rng.standard_normal(3**2)
        y = rng.standard_normal(3)
        for p in (1, 2, 3):
            out = insertion_apply(a, y, 2, p)
            assert euclidean_norm(out) == pytest.approx(
                euclidean_norm(a) * np.linalg.norm(y), rel=1e-12
            )

    def test_linearity_in_y(self, rng):
        a = rng.standard_normal(2**3)
        y, z = rng.standard_normal(2), rng.standard_normal(2)
        lhs = insertion_apply(a, 2.0 * y + z, 3, 2)
        rhs = 2.0 * insertion_apply(a, y, 3, 2) + insertion_apply(a, z, 3, 2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_rejects_bad_slot(self, rng):
        a = rng.standard_normal(2**2)
        with pytest.raises(ValueError):
            insertion_apply(a, [1.0, 0.0], 2, 0)
        with pytest.raises(ValueError):
            insertion_apply(a, [1.0, 0.0], 2, 4)


class TestAdjoint:
    def test_scalar_case(self):
        # d=1, n=2: sig = [1/2], z = [1/6]; any slot contracts to 1/12
        sig, z = np.array([0.5]), np.array([1.0 / 6.0])
        for got in adjoint_rows(sig, z, 2):
            assert got[0] == pytest.approx(1.0 / 12.0, rel=1e-15)

    def test_adjoint_of_insertion_recovers_scaled_y(self, rng):
        # the normal-equation identity: A_p^T A_p y = ||sig||^2 y
        for d, n in [(1, 2), (2, 3), (3, 2)]:
            sig = rng.standard_normal(d**n)
            y = rng.standard_normal(d)
            for p in range(1, n + 2):
                z = insertion_apply(sig, y, n, p)
                got = adjoint_rows(sig, z, n)[p - 1]
                np.testing.assert_allclose(
                    got, euclidean_norm(sig) ** 2 * y, rtol=1e-12, atol=1e-14
                )

    def test_inner_product_adjointness(self, rng):
        # <insert_p(y), z> == <y, adjoint_p(z)>
        sig = rng.standard_normal(2**3)
        y = rng.standard_normal(2)
        z = rng.standard_normal(2**4)
        rows = adjoint_rows(sig, z, 3)
        for p in range(1, 5):
            lhs = float(insertion_apply(sig, y, 3, p) @ z)
            rhs = float(y @ rows[p - 1])
            assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("d, n", [(1, 5), (2, 6), (2, 10), (3, 5), (4, 4)])
    def test_matches_dense_oracle_at_every_slot(self, rng, d, n):
        # (1, 5) is one window; each other shape has a head window and a
        # tail window, and (2, 10) a one-slot middle window between them
        sig = path_signature(random_path(rng, 4, d), n + 1)
        # the adjoint is bilinear; unit-scale path levels keep atol relative
        path_pair = [sig.level(k) / np.abs(sig.level(k)).max() for k in (n, n + 1)]
        random_pair = [rng.standard_normal(d**k) for k in (n, n + 1)]
        for below, top in (random_pair, path_pair):
            rows = adjoint_rows(below, top, n)
            assert rows.shape == (n + 1, d)
            for p in range(1, n + 2):
                np.testing.assert_allclose(
                    rows[p - 1], adjoint_oracle(below, top, n, p),
                    rtol=1e-12, atol=1e-14)

    def test_zero_tensor(self, rng):
        sig = rng.standard_normal(2**2)
        z = np.zeros(8)
        np.testing.assert_array_equal(adjoint_rows(sig, z, 2), np.zeros((3, 2)))


class TestSolveSlope:
    """The slope solve at single slots, through ``invert_signature`` on a
    signature whose top two levels are the test's levels."""

    def test_linear_path_exact(self):
        beta, n = np.array([1.5, -0.25, 0.75]), 4
        sig = linear_signature(beta, 1.0, n + 1)
        slopes = invert_signature(sig).slopes
        assert slopes.shape == (n + 1, 3)
        for y in slopes:
            np.testing.assert_allclose(y, beta, rtol=1e-12)

    def test_scalar_path(self):
        sig = linear_signature(np.array([1.0]), 1.0, 3)
        y = invert_signature(sig).slopes[0]
        assert y[0] == pytest.approx(1.0, rel=1e-14)

    def test_is_local_minimum(self, rng):
        # perturbing the solved slope must not reduce the residual
        p, n = 2, 3
        path = random_path(rng, 3, 2)
        sig = path_signature(path, n + 1)
        y = invert_signature(sig).slopes[p - 1]

        def residual(v):
            diff = insertion_apply(sig.level(n), v, n, p) - (n + 1) * sig.level(n + 1)
            return float(diff @ diff)

        base = residual(y)
        for j in range(2):
            for delta in (1e-3, -1e-3):
                e = np.zeros(2)
                e[j] = delta
                assert residual(y + e) >= base - 1e-15

    def test_raises_on_tiny_norm(self):
        with pytest.raises(NormTooSmall):
            invert_signature(top_two(np.zeros(4), np.ones(8), 2))

    @pytest.mark.parametrize("below, top", [
        ([np.nan, 1.0], [1.0] * 4),      # NaN divisor
        ([1e200, 1e200], [1.0] * 4),     # divisor overflows to inf
        ([1e-10, 0.0], [1e300] * 4),     # slope overflows
        ([1.0, 0.0], [np.inf] * 4),      # slope is infinite
        ([1e10, -1e10], [1e308] * 4),    # slope is inf - inf = NaN
    ], ids=["nan-norm", "inf-norm", "slope-overflow", "inf-slope", "nan-slope"])
    def test_raises_on_non_finite(self, below, top):
        # a level that is not finite is refused when the signature is made,
        # so it never reaches the solve; finite levels that overflow do
        below, top = np.array(below), np.array(top)
        if not np.isfinite(np.concatenate([below, top])).all():
            with pytest.raises(ValueError, match="level [12] has a non-finite"):
                top_two(below, top, 1)
            return
        with pytest.raises(NormTooSmall):
            invert_signature(top_two(below, top, 1))


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
        # the shuffle identity gives sum_p y_p = n X^1, so the top levels
        # alone put the last point at start + X^1, up to rounding, at every
        # shape; a slot whose row is read off the wrong entries breaks it,
        # and so do top levels lost to cancellation, as backtracking over
        # R^1 once lost them
        for d, n in SHAPES + DEEP_SHAPES:
            for path in sweep_paths(rng, 2 if d == 1 else 1, d):
                start = rng.standard_normal(d)
                sig = path_signature(path, n)
                last = invert_signature(sig, start).path.points[-1]
                np.testing.assert_allclose(
                    last, start + sig.level(1), rtol=0,
                    atol=1e-14 * (_length(path) + np.abs(start).max()),
                    err_msg=f"(d, n) = ({d}, {n})")

    def test_backtracking_one_column_path_ends_at_its_end_at_depth_1000(self):
        # over R^1 the signature is exp(X^1) at every depth; signed by
        # Horner's scheme, backtracking lost the top levels to cancellation
        path = PiecewiseLinearPath([[0.0], [500.0], [100.0], [420.0]])
        last = invert_signature(path_signature(path, 1000)).path.points[-1]
        np.testing.assert_allclose(last, [420.0], rtol=0,
                                   atol=1e-14 * _length(path))

    def test_closed_loop_ends_at_its_start(self):
        theta = np.linspace(0.0, 2.0 * math.pi, 13)
        loop = PiecewiseLinearPath(
            3.0 * np.column_stack([np.cos(theta), np.sin(theta)]) + [1.0, 2.0])
        for n in (4, 9, 14):
            res = invert_signature(path_signature(loop, n), loop.points[0])
            np.testing.assert_allclose(res.path.points[-1], loop.points[0],
                                       rtol=0, atol=1e-14 * _length(loop))

    @pytest.mark.parametrize("start", [[np.nan, 0.0], [np.inf, 0.0],
                                       [0.0, -np.inf]], ids=["nan", "inf", "-inf"])
    def test_non_finite_start_refused(self, rng, start):
        # refused before the solve, not blamed on the signature
        sig = path_signature(random_path(rng, 3, 2), 4)
        with pytest.raises(ValueError, match=r"start point \[.*\] is not finite"):
            invert_signature(sig, start=start)
        with pytest.raises(ValueError, match="is not finite"):
            batch_invert([sig, sig], [[0.0, 0.0], start])

    @pytest.mark.parametrize("start", [[0.0, 0.0, 0.0], [[0.0, 0.0]]],
                             ids=["R3", "row"])
    def test_start_of_another_shape_refused(self, rng, start):
        # the message names the start's shape and the signature's space
        sig = path_signature(random_path(rng, 3, 2), 4)
        want = f"a start point of shape {np.shape(start)} does not fit a " \
            "signature over R^2"
        with pytest.raises(ValueError, match=re.escape(want)):
            invert_signature(sig, start=start)

    def test_depth_below_two_rejected(self):
        sig = linear_signature(np.array([1.0, 0.0]), 1.0, 1)
        with pytest.raises(ValueError):
            invert_signature(sig)

    def test_degenerate_signature_raises(self):
        with pytest.raises(NormTooSmall):
            invert_signature(trivial_signature(2, 4))

    def test_overflowing_signature_raises(self):
        big = TruncatedSignature(
            2, [[1.0]] + [np.full(2**k, 1e200) for k in range(1, 5)])
        with pytest.raises(NormTooSmall):
            invert_signature(big)

    def test_overflowing_point_raises(self):
        # both slopes are 1e308; the second step from 1e308 passes float64
        sig = TruncatedSignature(1, [[1.0], [1.0], [5e307]])
        np.testing.assert_array_equal(invert_signature(sig).slopes, 1e308)
        with pytest.raises(NormTooSmall):
            invert_signature(sig, start=[1e308])

    def test_scale_equivariance(self, rng):
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


def _length(path):
    return float(np.linalg.norm(np.diff(path.points, axis=0), axis=1).sum())


def _eval(path, t):
    out = np.empty(path.dim)
    for j in range(path.dim):
        out[j] = np.interp(t, path.times, path.points[:, j])
    return out


def quarter_circle(length, segments=10):
    """A quarter circle of ``segments`` chords with total length ``length``."""
    theta = np.linspace(0.0, math.pi / 2.0, segments + 1)
    pts = np.column_stack([np.cos(theta), np.sin(theta)])
    chords = np.linalg.norm(np.diff(pts, axis=0), axis=1).sum()
    return PiecewiseLinearPath(pts * (length / chords))


def rounding_tol(d, n, scale):
    """Worst-case rounding of a plain sum of the d**n products each slope
    contracts, relative to ``scale``."""
    return d**n * np.finfo(np.float64).eps * scale


class TestGuardIsScaleFree:
    """The solve refuses only a divisor that float64 cannot hold (zero,
    subnormal, infinite or NaN) or a result that is not finite, so a
    genuine signature inverts at any scale and depth."""

    @pytest.mark.parametrize("direction, depths", [
        ([0.6, -0.8], (2, 12, 21)),
        ([0.48, -0.6, 0.64], (2, 8, 13)),
    ], ids=["d2", "d3"])
    def test_straight_segment_at_every_scale(self, direction, depths):
        d = len(direction)
        for length in np.geomspace(1e-3, 1e3, 7):
            disp = length * np.array(direction)
            path = PiecewiseLinearPath([np.zeros(d), disp])
            for n in depths:
                res = invert_signature(path_signature(path, n))
                tol = rounding_tol(d, n, length)
                np.testing.assert_allclose(res.slopes, np.tile(disp, (n, 1)),
                                           rtol=0, atol=tol)
                np.testing.assert_allclose(
                    res.path.points, np.outer(np.arange(n + 1) / n, disp),
                    rtol=0, atol=tol)

    def test_quarter_circle_converges_at_any_scale(self):
        errors = {}
        for length in (1.0, 0.01):
            path = constant_speed_reparam(quarter_circle(length))
            errors[length] = []
            for n in (10, 16, 22):
                res = invert_signature(path_signature(path, n), path.points[0])
                truth = np.stack([_eval(path, t)
                                  for t in np.linspace(0.0, 1.0, n + 1)])
                errors[length].append(float(np.mean(np.linalg.norm(
                    res.path.points - truth, axis=1))) / length)
        assert errors[1.0][0] > errors[1.0][1] > errors[1.0][2]
        np.testing.assert_allclose(errors[0.01], errors[1.0], rtol=1e-9)

    @pytest.mark.parametrize("d, depth", [(2, 4), (2, 12), (2, 20),
                                          (3, 4), (3, 12)])
    def test_graded_scale_covariance(self, rng, d, depth):
        # invert(graded_scale(S, a)) == a * invert(S); bitwise for a power
        # of two, which scales every product and sum exactly
        sig = path_signature(random_path(rng, 4, d), depth)
        ref = invert_signature(sig)
        for a in np.geomspace(1e-3, 1e3, 13):
            res = invert_signature(graded_scale(sig, a))
            tol = rounding_tol(d, depth, a * np.abs(ref.path.points).max())
            np.testing.assert_allclose(res.path.points, a * ref.path.points,
                                       rtol=0, atol=tol)
        for a in 2.0 ** np.arange(-9, 10, 3):
            res = invert_signature(graded_scale(sig, a))
            np.testing.assert_array_equal(res.path.points, a * ref.path.points)
            np.testing.assert_array_equal(res.slopes, a * ref.slopes)

    def test_divisor_at_the_bottom_of_float64(self):
        # squared norms 4e-300, a normal float64 number, and 4e-320, below
        # float64's normal range
        top = np.full(8, 1e-150)
        normal, subnormal = np.full(4, 1e-150), np.full(4, 1e-160)
        np.testing.assert_allclose(invert_signature(top_two(normal, top, 2)).slopes,
                                   3.0, rtol=1e-15)
        with pytest.raises(NormTooSmall, match="not a normal float64"):
            invert_signature(top_two(subnormal, top, 2))


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

    def test_mixed_shapes_match_loop(self, rng):
        sigs = [path_signature(random_path(rng, 3, d), n)
                for d, n in [(2, 6), (3, 4), (2, 6), (3, 4)]]
        loop = [invert_signature(s) for s in sigs]
        for a, b in zip(batch_invert(sigs), loop):
            np.testing.assert_array_equal(a.path.points, b.path.points)
            np.testing.assert_array_equal(a.slopes, b.slopes)

    def test_empty_batch(self):
        assert batch_invert([]) == []

    def test_one_start_per_signature(self, rng):
        sig = path_signature(random_path(rng, 3, 2), 6)
        with pytest.raises(ValueError, match="one start point per signature"):
            batch_invert([sig, sig], [None])

    def test_first_failure_raises_as_alone(self, rng):
        # a bad start, a depth-1 signature and all-zero levels, in every
        # order behind a good record: the batch raises the exception the
        # first failing record raises alone, type and message
        good = path_signature(random_path(rng, 3, 2), 6)
        failing = [(good, [np.nan, 0.0]),
                   (linear_signature(np.array([1.0, 0.0]), 1.0, 1), None),
                   (trivial_signature(2, 4), None)]
        for order in itertools.permutations(failing):
            with pytest.raises((ValueError, NormTooSmall)) as alone:
                invert_signature(*order[0])
            sigs, starts = zip((good, None), *order)
            with pytest.raises(type(alone.value)) as batch:
                batch_invert(sigs, starts)
            assert type(batch.value) is type(alone.value)
            assert str(batch.value) == str(alone.value)
        # one start object for every record, a point of R^2 that does not
        # fit R^3, over records of both dims and failures of each: the
        # start is checked once per dim, and each record's outcome is its
        # inversion alone, in value, exception type and message
        start = np.array([0.5, -1.0])
        sigs = [path_signature(random_path(rng, 3, 3), 5), good,
                linear_signature(np.array([1.0, 0.0, 2.0]), 1.0, 1),
                trivial_signature(2, 4), path_signature(random_path(rng, 4, 3), 4),
                good, trivial_signature(3, 3),
                linear_signature(np.array([1.0, 0.0]), 1.0, 1)]
        for sig, res in zip(sigs, _outcomes(sigs, [start] * len(sigs))):
            try:
                alone = invert_signature(sig, start)
            except (ValueError, NormTooSmall) as exc:
                assert type(res) is type(exc)
                assert str(res) == str(exc)
            else:
                np.testing.assert_array_equal(res.path.points, alone.path.points)
                np.testing.assert_array_equal(res.slopes, alone.slopes)
        with pytest.raises(ValueError, match=r"^a start point of shape \(2,\) "
                           r"does not fit a signature over R\^3$"):
            batch_invert(sigs, [start] * len(sigs))

    def test_results_are_read_only_rows_of_their_chunk(self, rng):
        # each result's points and slopes are read-only rows of its (d, n)
        # chunk's two arrays, not of its signature; its times are a view
        # of the shared grid, and its path is the public constructor's
        shapes = [(2, 6), (3, 4), (2, 6), (3, 4), (2, 6)]
        sigs = [path_signature(random_path(rng, 3, d), n) for d, n in shapes]
        chunks = {}
        for (d, n), sig, res in zip(shapes, sigs, batch_invert(sigs)):
            for arr in res.path.points, res.slopes, res.path.times:
                assert not arr.flags.writeable
                with pytest.raises(ValueError, match="WRITEABLE"):
                    arr.setflags(write=True)
                assert not any(np.shares_memory(arr, lvl) for lvl in sig.levels)
            np.testing.assert_array_equal(res.path.times,
                                          np.linspace(0, 1, n + 1))
            public = PiecewiseLinearPath(res.path.points)
            assert res.path.dim == public.dim == d
            assert res.path.num_segments == public.num_segments == n
            np.testing.assert_array_equal(res.path.times, public.times)
            chunks.setdefault((d, n), []).append(res)
        for (d, n), found in chunks.items():
            points, slopes = found[0].path.points.base, found[0].slopes.base
            assert points.shape == (len(found), n + 1, d)
            assert slopes.shape == (len(found), n, d)
            assert all(res.path.points.base is points and res.slopes.base is slopes
                       for res in found)


class TestInvertDepths:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_each_depth_is_the_bits_of_signing_to_it_alone(self, rng, d):
        path = random_path(rng, 5, d)
        start = rng.standard_normal(d)
        depths = [7, 2, 4, 7]
        found = _invert_depths(path, depths, start)
        assert [res.path.num_segments for res in found] == depths
        for n, res in zip(depths, found):
            alone = invert_signature(path_signature(path, n), start)
            np.testing.assert_array_equal(res.path.points, alone.path.points)
            np.testing.assert_array_equal(res.slopes, alone.slopes)

    @pytest.mark.parametrize("depths", [[40, 1], [1], [4, -1], [3, 2.0]])
    def test_a_depth_below_2_is_refused_before_signing(self, rng, signed_depths,
                                                       depths):
        with pytest.raises(ValueError,
                           match=r"^depth must be an integer in \[2, "):
            _invert_depths(random_path(rng, 3, 2), depths)
        assert signed_depths == []


# the 98 signature shapes (d, n) with d**(n + 1) <= 2**16 (d = 1..16,
# n >= 2, n <= 40 at d = 1): a level's slots in a head window alone, as
# at every d = 1 shape, in head and tail windows, or in a chain with
# middle windows between them
SHAPES = [(d, n) for d in range(1, 17) for n in range(2, 41)
          if d ** (n + 1) <= 2**16]

# deeper shapes with two middle windows; at (2, 20) the last one's 2**10
# heads take two runs of the kernel's stack
DEEP_SHAPES = [(2, 16), (2, 17), (2, 18), (2, 20)]

# shapes where the batch-size check runs a full batch of 100 records, as
# a sum whose order changes with N shows more readily in a large batch:
# each kind of window chain, the one window of 40 slots at (1, 40), and
# (16, 3), whose records span four chunks
BATCH_SHAPES = [(1, 40), (2, 3), (2, 6), (2, 12), (2, 14), (2, 16), (2, 17),
                (3, 4), (3, 9), (4, 5), (5, 4), (16, 3)]


def sweep_paths(rng, count, d):
    """``count`` random 4-segment paths in R^d that are not tree-like.  At
    d = 1 the even ones are monotone and the odd ones backtrack, 1 to 2
    forward and up to 1/2 back, so that |X^1| >= 1 keeps their top levels
    out of rounding noise."""
    if d == 1:
        steps = rng.random((count, 5, 1))
        steps[1::2, 1::2] += 1.0
        steps[1::2, 2::2] *= -0.5
        return [PiecewiseLinearPath(np.cumsum(s, axis=0)) for s in steps]
    return [random_path(rng, 4, d) for _ in range(count)]


class TestWindowTable:
    @pytest.mark.parametrize("d, n", SHAPES + DEEP_SHAPES)
    def test_windows_partition_the_slots(self, d, n):
        # the slots of the degree-(n-1) level, each in one window, in order
        windows, _, _ = _window_table(d, n - 1)
        cover = [p for *_, slots, _ in windows
                 for p in range(slots.start, slots.stop)]
        assert cover == list(range(n))

    def test_one_window_at_d_1(self):
        # every power of 1 fits _BLOCK, so a level is read off one window
        for n in [n for d, n in SHAPES if d == 1] + [1000]:
            windows, _, _ = _window_table(1, n - 1)
            assert len(windows) == 1, n

    @pytest.mark.parametrize("d, n", SHAPES + DEEP_SHAPES)
    def test_picks_match_the_per_slot_loop(self, d, n):
        windows, _, _ = _window_table(d, n - 1)
        for _, _, _, offset, _, slots, picks in windows:
            w = slots.stop - slots.start - 1
            want = block_entries_oracle(d, w)
            np.testing.assert_array_equal(_block_entries(d, w), want)
            np.testing.assert_array_equal(picks, want + offset)


class TestBlockBoundaries:
    @pytest.mark.parametrize("d, n", SHAPES + DEEP_SHAPES)
    def test_adjoint_of_dense_insertion_at_every_slot(self, rng, d, n):
        # <insert_p(y), z> == <y, adjoint_p(z)>, within the worst-case
        # rounding of a sum of d**n products (Cauchy-Schwarz bounds each)
        below, z = rng.standard_normal(d ** (n - 1)), rng.standard_normal(d**n)
        y = rng.standard_normal(d)
        tol = rounding_tol(d, n, euclidean_norm(below) * np.linalg.norm(y)
                           * euclidean_norm(z))
        rows = adjoint_rows(below, z, n - 1)
        for p in range(1, n + 1):
            lhs = float(insertion_apply(below, y, n - 1, p) @ z)
            rhs = float(y @ rows[p - 1])
            assert abs(lhs - rhs) <= tol, p

    @pytest.mark.parametrize("d, n", SHAPES + DEEP_SHAPES)
    def test_record_bits_do_not_depend_on_batch_size(self, rng, d, n):
        # the rows are summed in an order that does not change with the
        # number of records, so the first three records are the same bits
        # in batches of 1, 2, 3 and the full batch: 100 records at
        # BATCH_SHAPES, elsewhere as few as 4 to keep the sweep small
        count = (100 if (d, n) in BATCH_SHAPES
                 else max(4, min(100, 2**18 // d**n)))
        sigs = batch_signature(sweep_paths(rng, count, d), n)
        starts = rng.standard_normal((count, d))
        full = batch_invert(sigs, starts)
        for size in (1, 2, 3):
            for a, b in zip(batch_invert(sigs[:size], starts[:size]), full):
                np.testing.assert_array_equal(a.slopes, b.slopes)
                np.testing.assert_array_equal(a.path.points, b.path.points)

    def test_batch_bitwise_equal_to_loop(self, rng):
        sigs = [path_signature(sweep_paths(rng, 1, d)[0], n)
                for d, n in SHAPES * 2]
        loop = [invert_signature(s) for s in sigs]
        for a, b in zip(batch_invert(sigs), loop):
            np.testing.assert_array_equal(a.path.points, b.path.points)
            np.testing.assert_array_equal(a.slopes, b.slopes)

    def test_kernel_scratch_stays_bounded(self, rng):
        # a middle window's stack of head products is cut into runs of at
        # most _BATCH_SCRATCH coefficients: at (2, 20) the last middle
        # window's 2**10 heads would take twice that in one stack
        sig = path_signature(sweep_paths(rng, 1, 2)[0], 20)
        tracemalloc.start()
        try:
            batch_invert([sig, sig])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 8 * _BATCH_SCRATCH


class TestChenSplitIdentity:
    def test_matches_full_interval(self, rng):
        path = random_path(rng, 4, 2)
        n, y = 3, rng.standard_normal(2)
        full = path_signature(path, n)
        for p in (1, 2, 4):
            for v in (0.3, 0.5, 0.85):
                lhs = insertion_apply(full.level(n), y, n, p)
                rhs = insertion_chen_split(path, n, p, y, v)
                np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_rejects_bad_split_point(self, rng):
        path = random_path(rng, 2, 2)
        with pytest.raises(ValueError):
            insertion_chen_split(path, 2, 1, [1.0, 0.0], 1.0)
