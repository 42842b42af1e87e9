import math
import sys

import numpy as np
import pytest

from siginvert import (
    PiecewiseLinearPath,
    RecoveryBoundInput,
    compare_recovery,
    depth_floor,
    k_of_omega,
    probe_slot,
    residual_envelope_bound,
    recovery_error_bound,
)
from siginvert.signature import constant_speed_reparam, segment_geometry

from conftest import unit_speed_two_segment


class TestProbeSlot:
    def test_quarter_rule(self):
        # p = floor((3 t_i + t_{i-1})(n+1)/4)
        assert probe_slot(0.0, 0.5, 11) == math.floor(1.5 * 12 / 4)
        assert probe_slot(0.5, 1.0, 11) == math.floor(3.5 * 12 / 4)

    def test_lands_inside_target_segment(self):
        # slot sits in the last quarter-point of [t_{i-1}, t_i]
        for n in (8, 13, 21):
            for (a, b) in [(0.0, 0.4), (0.4, 0.7), (0.7, 1.0)]:
                p = probe_slot(a, b, n)
                frac = p / (n + 1)
                assert a - 1.0 / (n + 1) <= frac <= b + 1e-12

    def test_clamped_to_valid_slots(self):
        assert probe_slot(0.0, 1e-4, 5) == 1
        for n in (5, 9, 30):
            assert 1 <= probe_slot(0.999, 1.0, n) <= n + 1


class TestRecoveryErrorBound:
    def test_single_segment_specialization(self):
        # M = 1, delta = 1: the bracket collapses to 4 exp(-k/16)
        inp = RecoveryBoundInput(segments=1, breakpoints=np.array([0.0, 1.0]),
                                target=1, ell=2.0, omega=math.pi, depth=16)
        want = 16.0 * 2.0 * math.exp(-16.0 / 16.0)
        assert recovery_error_bound(inp) == pytest.approx(want, rel=1e-14)

    def test_two_segment_direct_evaluation(self):
        inp = RecoveryBoundInput(
            segments=2, breakpoints=np.array([0.0, 0.5, 1.0]), target=1,
            ell=1.0, omega=math.pi / 2.0, depth=16,
        )
        pre = 4.0 * math.exp(k_of_omega(math.pi / 2.0))
        bracket = 1.0 / math.sqrt(17.0) + 4.0 * math.exp(-16.0 * 0.25 / 16.0)
        assert recovery_error_bound(inp) == pytest.approx(pre * bracket, rel=1e-14)

    def test_probe_depth_override(self):
        base = dict(segments=2, breakpoints=np.array([0.0, 0.5, 1.0]),
                    target=2, ell=1.0, omega=math.pi / 2.0)
        same = recovery_error_bound(RecoveryBoundInput(**base, depth=40,
                                               probe_depth=16))
        direct = recovery_error_bound(RecoveryBoundInput(**base, depth=16))
        assert same == direct

    def test_monotone_decreasing_in_depth(self):
        vals = [
            recovery_error_bound(RecoveryBoundInput(
                segments=2, breakpoints=np.array([0.0, 0.4, 1.0]), target=2,
                ell=1.0, omega=math.pi / 2.0, depth=n))
            for n in range(8, 200, 8)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.25 * vals[0]

    def test_nonnegative_and_finite(self):
        inp = RecoveryBoundInput(segments=3,
                                breakpoints=np.array([0.0, 0.2, 0.55, 1.0]),
                                target=2, ell=4.0, omega=1.0, depth=10)
        b = recovery_error_bound(inp)
        assert 0.0 < b < math.inf

    def test_input_validation(self):
        with pytest.raises(ValueError):
            RecoveryBoundInput(segments=2, breakpoints=np.array([0.0, 1.0]),
                              target=1, ell=1.0, omega=1.0, depth=5)
        with pytest.raises(ValueError):
            RecoveryBoundInput(segments=2,
                              breakpoints=np.array([0.0, 0.6, 0.5]),
                              target=1, ell=1.0, omega=1.0, depth=5)
        with pytest.raises(ValueError):
            RecoveryBoundInput(segments=2,
                              breakpoints=np.array([0.0, 0.5, 1.0]),
                              target=3, ell=1.0, omega=1.0, depth=5)

    @pytest.mark.parametrize("t", [[0.0, math.nan, 1.0], [math.nan, 0.5, 1.0],
                                   [0.0, 0.5, math.nan]])
    def test_nan_breakpoint_refused(self, t):
        with pytest.raises(ValueError, match="breakpoints"):
            RecoveryBoundInput(segments=2, breakpoints=np.array(t),
                              target=1, ell=1.0, omega=1.0, depth=5)

    def test_breakpoints_are_copied(self):
        # a later change to the caller's array cannot undo the check
        t = np.array([0.0, 0.5, 1.0])
        inp = RecoveryBoundInput(segments=2, breakpoints=t, target=1,
                                 ell=1.0, omega=1.0, depth=5)
        t[1] = -0.5
        assert inp.delta == 0.5 and not inp.breakpoints.flags.writeable


class TestDepthFloor:
    def test_single_segment(self):
        # M = 1 makes n1 = 4; the 2/delta term wins only for small delta
        inp = RecoveryBoundInput(segments=1, breakpoints=np.array([0.0, 1.0]),
                                target=1, ell=1.0, omega=math.pi, depth=5)
        assert depth_floor(inp) == 4.0

    def test_growth_with_segments(self):
        t3 = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
        floors = []
        for m, t in [(1, np.array([0.0, 1.0])),
                     (2, np.array([0.0, 0.5, 1.0])), (3, t3)]:
            floors.append(depth_floor(RecoveryBoundInput(
                segments=m, breakpoints=t, target=1, ell=1.0,
                omega=math.pi / 2.0, depth=5)))
        assert floors[0] < floors[1] < floors[2]


class TestResidualEnvelopeBound:
    def test_full_interval_case(self):
        # delta = 1 removes the variance term
        want = 4.0 * math.exp(-12.0 / 16.0) / math.factorial(12)
        assert residual_envelope_bound(1.0, 1.0, 12) == pytest.approx(want,
                                                                 rel=1e-14)

    def test_monotone_decreasing_for_unit_length(self):
        vals = [residual_envelope_bound(1.0, 0.5, n) for n in range(4, 20)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            residual_envelope_bound(1.0, 0.0, 5)
        with pytest.raises(ValueError):
            residual_envelope_bound(1.0, 1.5, 5)


class TestCompareRecovery:
    def test_linear_path_recovers_exactly(self):
        p = PiecewiseLinearPath([[0.0, 0.0], [0.8, 0.6]])
        rows = compare_recovery(p, [6])
        assert len(rows) == 1
        assert rows[0].measured < 1e-9
        assert rows[0].satisfied

    def test_right_angle_error_decreases(self):
        p = unit_speed_two_segment(0.5, math.pi / 2.0)
        rows = compare_recovery(p, [8, 12, 16])
        by_depth = {}
        for r in rows:
            by_depth.setdefault(r.depth, []).append(r.measured)
        # slot rounding makes per-segment errors wiggle; the per-depth mean
        # over segments decreases
        mean = [float(np.mean(by_depth[n])) for n in (8, 12, 16)]
        assert mean[0] > mean[1] > mean[2]

    def test_rows_are_well_formed(self):
        p = unit_speed_two_segment(0.4, math.pi / 2.0)
        rows = compare_recovery(p, [10])
        assert len(rows) == 2
        for r in rows:
            assert 1 <= r.p_used <= 11
            assert r.measured >= 0.0 and math.isfinite(r.measured)
            assert r.bound > 0.0 and math.isfinite(r.bound)
            assert r.satisfied == (r.measured <= r.bound)
            assert r.depth_floor >= 4.0


def unit_zigzag(segments):
    """Unit steps alternating along x and y: every vertex angle is pi/2."""
    steps = np.tile([[1.0, 0.0], [0.0, 1.0]], ((segments + 1) // 2, 1))
    return PiecewiseLinearPath(
        np.vstack([[0.0, 0.0], np.cumsum(steps[:segments], axis=0)]))


class TestLongKinkedPaths:
    def test_rows_as_direct_formulas_in_float_range(self):
        # 59 K(pi/2) = 113 and twice that stay in float range: bound and
        # depth floor keep the bits of the direct formulas
        p = constant_speed_reparam(unit_zigzag(60))
        geom = segment_geometry(p)
        kink = 59 * k_of_omega(math.pi / 2.0)
        rows = compare_recovery(p, [6, 9])
        assert len(rows) == 120
        for r in rows:
            delta = p.times[r.segment] - p.times[r.segment - 1]
            bracket = (math.sqrt((1.0 - delta) / delta) / math.sqrt(r.depth + 1)
                       + 4.0 * math.exp(-r.depth * delta**2 / 16.0))
            assert r.bound == 4.0 * geom.total_variation * math.exp(kink) * bracket
            assert r.depth_floor == max(math.floor(4.0 * math.exp(2.0 * kink)),
                                        2.0 / delta)

    @pytest.mark.parametrize("segments, bound_finite", [(190, True),
                                                        (400, False)])
    def test_exponent_past_float_range(self, segments, bound_finite):
        # the depth floor's exponent 2 (M - 1) K(pi/2) passes log(max float)
        # = 709.8 from M = 186; the bound's log, (M - 1) K(pi/2) plus
        # log(4 ell bracket), is 363 + 9 at M = 190 and 767 + 10 at M = 400
        rows = compare_recovery(unit_zigzag(segments), [6])
        assert len(rows) == segments
        for r in rows:
            assert r.depth_floor == math.inf
            assert math.isfinite(r.measured)
            assert math.isfinite(r.bound) == bound_finite
            assert r.satisfied == (r.measured <= r.bound)
            assert r.bound > 0.0

    def test_bound_in_log_space_when_representable(self):
        # e^{(M-1)K} overflows, but ell = 1e-300 brings the product back into
        # float range; split e^{(M-1)K} = e^{(M-1)K - 100} e^100 to check it
        inp = RecoveryBoundInput(segments=400, breakpoints=np.linspace(0, 1, 401),
                                 target=400, ell=1e-300, omega=math.pi / 2.0,
                                 depth=10)
        exponent = 399 * k_of_omega(math.pi / 2.0)
        assert exponent > math.log(sys.float_info.max)
        delta = inp.delta
        bracket = (math.sqrt((1.0 - delta) / delta) / math.sqrt(11.0)
                   + 4.0 * math.exp(-10.0 * delta**2 / 16.0))
        want = 4e-300 * math.exp(100.0) * math.exp(exponent - 100.0) * bracket
        assert math.isfinite(want)
        assert recovery_error_bound(inp) == pytest.approx(want, rel=1e-12)
