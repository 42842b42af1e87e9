import math

import numpy as np
import pytest
import scipy.linalg

from siginvert import (
    AssumptionViolation,
    PiecewiseLinearPath,
    constant_speed_reparam,
    develop,
    develop_checkpoints,
    f_map,
    k_of_omega,
    norm_lower_bound_check,
    path_signature,
    segment_geometry,
    segment_transport,
)
from siginvert import development

from conftest import random_path, turning_unit_path, unit_speed_two_segment
from oracles import (
    b_defect,
    basepoint,
    chen_lower_bound_chain,
    distinct_points,
    hyperbolic_distance,
    linear_signature,
    minkowski_b,
    trivial_signature,
)


class TestFMap:
    def test_scalar_case(self):
        np.testing.assert_array_equal(f_map([3.0]),
                                      [[0.0, 3.0], [3.0, 0.0]])

    def test_zero_vector(self):
        np.testing.assert_array_equal(f_map([0.0, 0.0]), np.zeros((3, 3)))

    def test_operator_norm_is_vector_norm(self, rng):
        y = rng.standard_normal(4)
        s = np.linalg.svd(f_map(y), compute_uv=False)
        assert s[0] == pytest.approx(np.linalg.norm(y), rel=1e-12)

    def test_cube_identity(self, rng):
        # F(v)^3 = |v|^2 F(v), which justifies the closed-form exponential
        v = rng.standard_normal(3)
        f = f_map(v)
        np.testing.assert_allclose(f @ f @ f, (v @ v) * f, atol=1e-12)


class TestSegmentTransport:
    def test_scalar_cosh_sinh(self):
        m = segment_transport([2.0])
        np.testing.assert_allclose(
            m, [[math.cosh(2.0), math.sinh(2.0)],
                [math.sinh(2.0), math.cosh(2.0)]], rtol=1e-15)

    def test_zero_increment_is_identity(self):
        np.testing.assert_array_equal(segment_transport([0.0, 0.0]),
                                      np.eye(3))

    def test_matches_generic_matrix_exponential(self, rng):
        for d in (1, 2, 4):
            v = rng.standard_normal(d)
            got = segment_transport(v)
            want = scipy.linalg.expm(f_map(v))
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_preserves_bilinear_form(self, rng):
        g = segment_transport(rng.standard_normal(3))
        assert b_defect(g) < 1e-12

    def test_moves_basepoint_by_segment_length(self):
        v = np.array([3.0, 4.0])
        y0 = basepoint(2)
        y1 = segment_transport(v) @ y0
        assert hyperbolic_distance(y0, y1) == pytest.approx(5.0, rel=1e-12)


class TestDevelop:
    def test_empty_displacement(self):
        p = PiecewiseLinearPath([[0.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(develop(p), np.eye(3))

    def test_repeated_points_repeat_their_checkpoint(self, rng):
        # one Gamma per point: a repeated point multiplies by the identity,
        # which may flip the sign of a zero but no value
        base = random_path(rng, 5, 3).points
        runs = [1, 3, 1, 2, 1, 1]
        p = PiecewiseLinearPath(np.repeat(base, runs, axis=0))
        want = develop_checkpoints(PiecewiseLinearPath(base))
        checkpoints = develop_checkpoints(p)
        assert len(checkpoints) == len(p.points)
        np.testing.assert_array_equal(checkpoints, np.repeat(want, runs, axis=0))
        np.testing.assert_array_equal(develop(p), want[-1])

    def test_b_preserved_at_every_checkpoint(self, rng):
        p = random_path(rng, 5, 3)
        for g in develop_checkpoints(p):
            assert b_defect(g) < 1e-9

    def test_collinear_segments_compose_additively(self):
        p = PiecewiseLinearPath([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        q = PiecewiseLinearPath([[0.0, 0.0], [2.0, 2.0]])
        np.testing.assert_allclose(develop(p), develop(q), atol=1e-10)

    def test_group_inverse_from_reversed_path(self, rng):
        p = random_path(rng, 4, 2)
        rev = PiecewiseLinearPath(p.points[::-1].copy())
        prod = develop(rev) @ develop(p)
        np.testing.assert_allclose(prod, np.eye(3), atol=1e-10)

    def test_operator_norm_dominates_basepoint_distance(self, rng):
        # ||Gamma|| >= exp(d(y0, Gamma y0)) / something >= ... in fact
        # for B-isometries ||Gamma|| >= e^{d(y0, Gamma y0)} / 2 always and
        # the stronger e^{d} holds for these transports; check the latter.
        for _ in range(5):
            p = random_path(rng, 3, 2)
            g = develop(p)
            dist = hyperbolic_distance(basepoint(2), g @ basepoint(2))
            assert np.linalg.norm(g, 2) >= math.exp(dist) * (1 - 1e-12)

    def test_right_angle_telescoping(self):
        # distances to the basepoint along checkpoints lose at most
        # K(omega) per kink: 0 <= sum(lengths) - d(y0, Gamma y0)
        #                    <= (M - 1) K(omega)
        p = constant_speed_reparam(PiecewiseLinearPath(
            [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [2.0, 1.0]]))
        geom = segment_geometry(p)
        g = develop(p)
        dist = hyperbolic_distance(basepoint(2), g @ basepoint(2))
        slack = geom.total_variation - dist
        m = len(geom.lengths)
        assert -1e-12 <= slack <= (m - 1) * k_of_omega(geom.min_angle) + 1e-12


class TestMinkowski:
    def test_signature_of_form(self):
        assert minkowski_b([1.0, 0.0], [1.0, 0.0]) == 1.0
        assert minkowski_b([0.0, 1.0], [0.0, 1.0]) == -1.0

    def test_basepoint_self_distance(self):
        assert hyperbolic_distance(basepoint(3), basepoint(3)) == 0.0


class TestKOfOmega:
    def test_right_angle_value(self):
        # log(2 / (1 - cos(pi/4))) evaluated directly
        want = math.log(2.0 / (1.0 - math.cos(math.pi / 4.0)))
        assert k_of_omega(math.pi / 2.0) == pytest.approx(want, rel=1e-15)
        assert k_of_omega(math.pi / 2.0) == pytest.approx(1.921094, abs=1e-6)

    def test_straight_angle(self):
        assert k_of_omega(math.pi) == pytest.approx(math.log(2.0), rel=1e-14)

    def test_monotone_decreasing(self):
        grid = np.linspace(0.1, math.pi, 40)
        vals = [k_of_omega(w) for w in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("omega", [1e-8, 2.107e-8, 1e-300])
    def test_small_angle(self, omega):
        # K = log(16 / omega^2) up to omega^2/48; 1 - cos(omega/2) cancels
        # here, and was 0 (a ZeroDivisionError) at omega = 1e-8
        want = math.log(16.0) - 2.0 * math.log(omega)
        assert k_of_omega(omega) == pytest.approx(want, rel=1e-15)

    def test_subnormal_angle_is_finite(self):
        assert k_of_omega(5e-324) == pytest.approx(
            math.log(16.0) - 2.0 * math.log(5e-324), rel=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            k_of_omega(0.0)
        with pytest.raises(ValueError):
            k_of_omega(3.5)


class TestNormLowerBound:
    def test_single_segment_equality(self):
        # M = 1: the bound is exp(alpha) and the transport of a geodesic
        # attains it exactly
        p = PiecewiseLinearPath([[0.0, 0.0], [1.0, 0.0]])
        rep = norm_lower_bound_check(p, alpha=3.0)
        assert rep.segments == 1
        assert rep.lhs == pytest.approx(math.exp(3.0), rel=1e-12)
        assert rep.rhs == pytest.approx(math.exp(3.0), rel=1e-9)
        assert rep.satisfied

    def test_right_angle_two_segments(self):
        p = unit_speed_two_segment(0.5, math.pi / 2.0)
        k = k_of_omega(math.pi / 2.0)
        rep = norm_lower_bound_check(p, alpha=3.0 * k / 0.5)
        assert rep.K_omega == pytest.approx(k, rel=1e-12)
        assert rep.n1 == int(4.0 * math.exp(2.0 * k))
        assert rep.satisfied

    def test_random_turning_paths(self, rng):
        for _ in range(10):
            p = turning_unit_path(rng, 4, math.pi / 4.0, 3.0 * math.pi / 4.0)
            geom = segment_geometry(p)
            alpha = 2.0 * k_of_omega(geom.min_angle) / geom.lengths.min()
            rep = norm_lower_bound_check(p, alpha=alpha)
            assert rep.satisfied

    @pytest.mark.parametrize("a", [1e-3, 1.0, 1e3])
    def test_scale_and_position_invariant(self, rng, a):
        # the check reads the path rescaled to length 1 from its start, so
        # a X + b reports what X reports, up to the rounding of a X + b
        paths = [unit_speed_two_segment(0.5, math.pi / 2.0)] + [
            turning_unit_path(rng, m, math.pi / 4.0, 3.0 * math.pi / 4.0)
            for m in (1, 2, 3, 5)]
        for x in paths:
            for alpha in (None, 1.25 * norm_lower_bound_check(x).alpha):
                want = norm_lower_bound_check(x, alpha)
                for b in (np.zeros(2), a * np.array([0.75, -2.0])):
                    got = norm_lower_bound_check(x.scaled(a).translated(b), alpha)
                    assert (got.segments, got.satisfied) == (want.segments,
                                                             want.satisfied)
                    for name in ("omega", "K_omega", "n1", "alpha", "lhs", "rhs",
                                 "shortest_segment"):
                        assert getattr(got, name) == pytest.approx(
                            getattr(want, name), rel=1e-12), name

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_develops_the_path_normalized_by_hand(self, rng, monkeypatch, scale):
        # bit for bit the path reparameterized to constant speed (repeated
        # points dropped), moved to start at the origin and scaled to length
        # 1, on the default times; the repeated points add no zero length,
        # which would regroup numpy's pairwise sum
        pts = scale * turning_unit_path(rng, 16, math.pi / 4.0,
                                        3.0 * math.pi / 4.0).points + [3.0, -2.0]
        pts = np.insert(pts, [1, 5, 9], pts[[1, 5, 9]], axis=0)
        seen = []
        monkeypatch.setattr(development, "segment_geometry",
                            lambda path: seen.append(path) or segment_geometry(path))
        norm_lower_bound_check(PiecewiseLinearPath(pts))
        unit = constant_speed_reparam(PiecewiseLinearPath(pts))
        unit = unit.translated(-unit.points[0]).scaled(
            1.0 / segment_geometry(unit).total_variation)
        [path] = seen
        assert path.points[distinct_points(path.points)].tobytes() == \
            unit.points.tobytes()
        np.testing.assert_array_equal(path.times, np.linspace(0.0, 1.0, len(pts)))

    @pytest.mark.parametrize("points", [
        [[1.0, 2.0], [1.0, 2.0]],
        [[0.0, 0.0], [5e-324, 0.0]],
        [[0.0, 0.0], [1e308, 0.0], [1e308, 1e308]],
        [[-1.7e308, 0.0], [1.7e308, 0.0]],
    ], ids=["constant", "subnormal-length", "length-past-float64",
            "step-past-float64"])
    def test_length_that_cannot_be_scaled_to_one(self, points):
        # 1/ell is inf for a subnormal ell, and ell is inf past float64
        with pytest.raises(AssumptionViolation, match="cannot be scaled"):
            norm_lower_bound_check(PiecewiseLinearPath(points))

    def test_small_alpha_rejected(self):
        p = unit_speed_two_segment(0.5, math.pi / 2.0)
        with pytest.raises(AssumptionViolation):
            norm_lower_bound_check(p, alpha=0.5)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_refused(self, alpha, monkeypatch):
        # nan passed both alpha checks and ended in an SVD that did not converge
        monkeypatch.setattr(development, "develop", None)  # never reached
        p = unit_speed_two_segment(0.5, math.pi / 2.0)
        with pytest.raises(ValueError, match="alpha=.* is not finite"):
            norm_lower_bound_check(p, alpha=alpha)

    def test_backtracking_path_rejected(self):
        p = PiecewiseLinearPath([[0.0, 0.0], [0.75, 0.0], [0.5, 0.0]],
                                [0.0, 0.75, 1.0])
        with pytest.raises(AssumptionViolation):
            norm_lower_bound_check(p, alpha=10.0)


class TestChenChain:
    def test_trivial_signature(self):
        assert chen_lower_bound_chain(trivial_signature(2, 4),
                                      alpha=5.0) == 1.0

    def test_unit_linear_path_partial_exponential(self):
        sig = linear_signature(np.array([1.0]), 1.0, 6)
        want = sum(1.0 / math.factorial(k) for k in range(7))
        assert chen_lower_bound_chain(sig, 1.0) == pytest.approx(want,
                                                                 rel=1e-12)

    def test_monotone_in_depth(self, rng):
        p = random_path(rng, 3, 2)
        vals = [chen_lower_bound_chain(path_signature(p, n), 2.0)
                for n in (2, 4, 6)]
        assert vals[0] < vals[1] < vals[2]
