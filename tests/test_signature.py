import math

import numpy as np
import pytest

from siginvert import (
    AllocationCapError,
    PiecewiseLinearPath,
    TruncatedSignature,
    chen_concat,
    constant_speed_reparam,
    euclidean_norm,
    linear_signature,
    merge_degenerate,
    path_signature,
    segment_geometry,
    set_allocation_cap,
)
from siginvert.tensor_algebra import get_allocation_cap

from conftest import random_path
from oracles import riemann_oracle


class TestLinearSignature:
    def test_unit_step_d2(self):
        s = linear_signature(np.array([1.0, 0.0]), 1.0, 2)
        np.testing.assert_array_equal(s.level(0), [1.0])
        np.testing.assert_array_equal(s.level(1), [1.0, 0.0])
        np.testing.assert_array_equal(s.level(2), [0.5, 0.0, 0.0, 0.0])

    def test_one_dimensional_factorials(self):
        # increment beta*dt = 1, so level k = 1/k!
        s = linear_signature(np.array([2.0]), 0.5, 3)
        for k, want in enumerate([1.0, 1.0, 0.5, 1.0 / 6.0]):
            assert s.level(k)[0] == pytest.approx(want, abs=1e-15)

    def test_zero_slope(self):
        s = linear_signature(np.zeros(2), 1.0, 3)
        assert s.level(0)[0] == 1.0
        for k in range(1, 4):
            np.testing.assert_array_equal(s.level(k), np.zeros(2**k))


class TestChenConcat:
    def test_collinear_segments_merge(self):
        beta = np.array([0.3, -1.2])
        a = linear_signature(beta, 0.4, 5)
        b = linear_signature(beta, 0.6, 5)
        merged = linear_signature(beta, 1.0, 5)
        out = chen_concat(a, b)
        for k in range(6):
            np.testing.assert_allclose(out.level(k), merged.level(k),
                                       atol=1e-12)

    def test_trivial_signature_is_identity(self, rng):
        from siginvert import TruncatedSignature

        a = path_signature(random_path(rng, 3, 2), 4)
        e = TruncatedSignature.trivial(2, 4)
        for out in (chen_concat(a, e), chen_concat(e, a)):
            for k in range(5):
                np.testing.assert_allclose(out.level(k), a.level(k), atol=1e-15)

    def test_associative(self, rng):
        sigs = [path_signature(random_path(rng, 2, 2), 4) for _ in range(3)]
        a, b, c = sigs
        lhs = chen_concat(chen_concat(a, b), c)
        rhs = chen_concat(a, chen_concat(b, c))
        for k in range(5):
            np.testing.assert_allclose(lhs.level(k), rhs.level(k), atol=1e-12)

    def test_two_segments_match_oracle(self, rng):
        p = random_path(rng, 2, 2, scale=0.5)
        sig = path_signature(p, 4)
        oracle = riemann_oracle(p, 4, 1200)
        for k in range(1, 5):
            scale = max(euclidean_norm(sig.levels[k]), 1e-12)
            assert np.max(np.abs(sig.level(k) - oracle.level(k))) / scale < 2e-2


class TestPathSignature:
    def test_single_segment(self):
        p = PiecewiseLinearPath([[0.0, 0.0], [1.0, 1.0]])
        sig = path_signature(p, 2)
        ref = linear_signature(np.array([1.0, 1.0]), 1.0, 2)
        for k in range(3):
            np.testing.assert_allclose(sig.level(k), ref.level(k), atol=1e-15)

    def test_level_one_is_displacement(self, rng):
        p = random_path(rng, 5, 3)
        sig = path_signature(p, 2)
        np.testing.assert_allclose(sig.level(1), p.points[-1] - p.points[0],
                                   atol=1e-12)

    def test_levy_area_of_l_shape(self):
        # closed triangle (0,0)-(1,0)-(1,1) has shoelace area 1/2
        p = PiecewiseLinearPath([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        lvl2 = path_signature(p, 2).level(2)
        area = (lvl2[1] - lvl2[2]) / 2.0
        assert area == pytest.approx(0.5, abs=1e-12)

    def test_translation_invariance(self, rng):
        p = random_path(rng, 4, 2)
        sig = path_signature(p, 3)
        sig_shift = path_signature(p.translated([7.0, -3.0]), 3)
        for k in range(4):
            np.testing.assert_allclose(sig.level(k), sig_shift.level(k),
                                       atol=1e-12)

    def test_norm_upper_bound(self, rng):
        for _ in range(5):
            p = random_path(rng, 4, 2)
            ell = segment_geometry(p).total_variation
            sig = path_signature(p, 5)
            for k in range(1, 6):
                assert euclidean_norm(sig.levels[k]) <= \
                    ell**k / math.factorial(k) + 1e-10

    def test_degenerate_points_merged(self):
        p = PiecewiseLinearPath([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0],
                                 [1.0, 0.0], [1.0, 1.0]])
        q = PiecewiseLinearPath([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        assert merge_degenerate(p).points.shape == (3, 2)
        for k in range(3):
            np.testing.assert_allclose(path_signature(p, 2).level(k),
                                       path_signature(q, 2).level(k),
                                       atol=1e-14)


def chen_fold(path, depth):
    """Reference signature: left fold of per-segment closed forms under
    Chen's identity, independent of the Horner step."""
    sig = TruncatedSignature.trivial(path.dim, depth)
    for i in range(path.num_segments):
        dx = path.points[i + 1] - path.points[i]
        dt = path.times[i + 1] - path.times[i]
        sig = chen_concat(sig, linear_signature(dx / dt, dt, depth))
    return sig


def assert_within_envelope(got, want, ell1, depth):
    """max|got_k - want_k| <= 1e-13 * ell1**k / k! on every level."""
    for k in range(depth + 1):
        gap = np.max(np.abs(got.level(k) - np.asarray(want[k])))
        assert gap <= 1e-13 * ell1**k / math.factorial(k), (k, gap)


def irregular_path(rng, segments, dim, scale):
    """Random path with non-uniform times and some repeated points."""
    steps = rng.normal(scale=scale, size=(segments, dim))
    steps[rng.random(segments) < 0.2] = 0.0
    pts = np.vstack([np.zeros(dim), np.cumsum(steps, axis=0)])
    times = np.cumsum(rng.uniform(0.05, 1.0, size=segments + 1))
    return PiecewiseLinearPath(pts, times)


class TestHornerKernel:
    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    @pytest.mark.parametrize("depth", [0, 1, 2, 6, 9])
    def test_matches_chen_fold(self, rng, dim, depth):
        segments = 3 if dim**depth > 10**5 else 7
        for scale in (1e-2, 1.0, 1e2):
            p = irregular_path(rng, segments, dim, scale)
            ell1 = float(np.abs(np.diff(p.points, axis=0)).sum())
            ref = chen_fold(p, depth)
            assert_within_envelope(path_signature(p, depth),
                                   [ref.level(k) for k in range(depth + 1)],
                                   ell1, depth)

    @pytest.mark.parametrize("depth", [0, 1, 2, 6, 9])
    def test_one_dimensional_closed_form(self, rng, depth):
        # back-and-forth moves cancel; the signature only sees the net move
        for scale in (1e-2, 1.0, 1e2):
            p = irregular_path(rng, 9, 1, scale)
            ell1 = float(np.abs(np.diff(p.points, axis=0)).sum())
            net = float(p.points[-1, 0] - p.points[0, 0])
            exact = [[net**k / math.factorial(k)] for k in range(depth + 1)]
            assert_within_envelope(path_signature(p, depth), exact, ell1, depth)

    def test_constant_path_is_trivial(self):
        p = PiecewiseLinearPath([[1.0, -2.0]] * 3)
        for depth in (0, 3):
            sig = path_signature(p, depth)
            assert sig.depth == depth and sig.level(0)[0] == 1.0
            for k in range(1, depth + 1):
                np.testing.assert_array_equal(sig.level(k), np.zeros(2**k))

    def test_allocation_cap_applies_to_depth(self):
        p = PiecewiseLinearPath([[0.0, 0.0], [1.0, 0.5], [0.2, 1.0]])
        previous = get_allocation_cap()
        set_allocation_cap(2**10)
        try:
            assert path_signature(p, 10).level(10).size == 2**10
            with pytest.raises(AllocationCapError):
                path_signature(p, 11)
        finally:
            set_allocation_cap(previous)


class TestRiemannOracle:
    def test_level_one_displacement(self):
        p = PiecewiseLinearPath([[0.0, 0.0], [2.0, -1.0]])
        got = riemann_oracle(p, 1, 1000).level(1)
        np.testing.assert_allclose(got, [2.0, -1.0], atol=1e-2)

    def test_one_dimensional_levels(self):
        p = PiecewiseLinearPath([[0.0], [1.0]])
        sig = riemann_oracle(p, 3, 500)
        for k in range(4):
            assert sig.level(k)[0] == pytest.approx(
                1.0 / math.factorial(k), abs=3.0 * k / 500
            )

    def test_rejects_tiny_steps(self):
        with pytest.raises(ValueError):
            riemann_oracle(PiecewiseLinearPath([[0.0], [1.0]]), 2, 5)

    def test_rejects_infeasible_grid(self):
        p = PiecewiseLinearPath([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            riemann_oracle(p, 30, 10**6)


class TestConstantSpeedReparam:
    def test_already_constant_speed(self):
        p = PiecewiseLinearPath([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        q = constant_speed_reparam(p)
        np.testing.assert_allclose(q.times, p.times, atol=1e-15)

    def test_breakpoints_from_segment_lengths(self):
        p = PiecewiseLinearPath([[0.0, 0.0], [3.0, 0.0], [3.0, 1.0]])
        q = constant_speed_reparam(p)
        np.testing.assert_allclose(q.times, [0.0, 0.75, 1.0], atol=1e-15)

    def test_all_slopes_have_norm_ell(self, rng):
        p = random_path(rng, 5, 3)
        geom = segment_geometry(constant_speed_reparam(p))
        norms = np.linalg.norm(geom.slopes, axis=1)
        np.testing.assert_allclose(norms, geom.total_variation, rtol=1e-12)

    def test_signature_invariant(self, rng):
        p = random_path(rng, 4, 2)
        a = path_signature(p, 4)
        b = path_signature(constant_speed_reparam(p), 4)
        for k in range(5):
            np.testing.assert_allclose(a.level(k), b.level(k), atol=1e-12)

    def test_zero_length_rejected(self):
        p = PiecewiseLinearPath([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            constant_speed_reparam(p)


class TestSegmentGeometry:
    def test_orthogonal_slopes(self):
        p = PiecewiseLinearPath([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        geom = segment_geometry(p)
        assert geom.angles[0] == pytest.approx(math.pi / 2, abs=1e-12)
        assert not geom.non_minimal_partition and not geom.tree_like_backtrack

    def test_collinear_flag(self):
        # straight continuation: vertex angle pi, non-minimal partition
        p = PiecewiseLinearPath([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        geom = segment_geometry(p)
        assert geom.angles[0] == pytest.approx(math.pi, abs=1e-12)
        assert geom.non_minimal_partition

    def test_backtrack_flag(self):
        # exact reversal: vertex angle 0, tree-like
        p = PiecewiseLinearPath([[0.0, 0.0], [1.0, 0.0], [0.5, 0.0]])
        geom = segment_geometry(p)
        assert geom.angles[0] == pytest.approx(0.0, abs=1e-12)
        assert geom.tree_like_backtrack

    def test_total_variation(self):
        p = PiecewiseLinearPath([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0]])
        assert segment_geometry(p).total_variation == pytest.approx(7.0)
