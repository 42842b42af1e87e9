import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siginvert import (
    PiecewiseLinearPath,
    batch_invert,
    compare_recovery,
    depth_floor,
    k_of_omega,
    path_signature,
    probe_slot,
    residual_envelope_bound,
    recovery_error_bound,
)
from siginvert import insertion
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

    def test_in_range_slots_keep_the_formula(self, rng):
        for t_prev, t_i in rng.uniform(-0.5, 1.5, size=(200, 2)):
            for n in (0, 1, 7, 30, 2**53):
                p = math.floor((3.0 * t_i + t_prev) * (n + 1) / 4.0)
                assert probe_slot(t_prev, t_i, n) == min(max(p, 1), n + 1)

    def test_product_past_float64_is_clamped(self):
        assert probe_slot(0.0, 1e308, 3) == 4
        assert probe_slot(-1e308, -1e308, 3) == 1
        assert probe_slot(0.0, 1e308, 2**53) == 2**53 + 1
        assert probe_slot(1.0, 1.0, 2**53 - 1) == 2**53

    @pytest.mark.parametrize("t_prev, t_i, name", [
        (math.nan, 0.5, "t_prev"), (0.0, math.inf, "t_i"),
        (0.0, -math.inf, "t_i"), (math.inf, math.nan, "t_prev"),
    ])
    def test_time_not_finite_is_named(self, t_prev, t_i, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            probe_slot(t_prev, t_i, 3)


# Arguments outside the bounds' domain, one at a time, on top of valid
# ones; each must raise ValueError.
OUT_OF_DOMAIN = [
    ("delta", math.nan), ("delta", 0.0), ("delta", 1.5),
    ("ell", math.nan), ("ell", -1.0), ("n", -1), ("segments", 0),
]


class TestRecoveryErrorBound:
    def test_single_segment_specialization(self):
        # M = 1, delta = 1: the bracket collapses to 4 exp(-k/16)
        want = 16.0 * 2.0 * math.exp(-16.0 / 16.0)
        assert recovery_error_bound(2.0, 1, math.pi, 1.0, 16) == pytest.approx(
            want, rel=1e-14)

    def test_two_segment_direct_evaluation(self):
        pre = 4.0 * math.exp(k_of_omega(math.pi / 2.0))
        bracket = 1.0 / math.sqrt(17.0) + 4.0 * math.exp(-16.0 * 0.25 / 16.0)
        assert recovery_error_bound(1.0, 2, math.pi / 2.0, 0.5, 16) == \
            pytest.approx(pre * bracket, rel=1e-14)

    def test_monotone_decreasing_in_depth(self):
        vals = [recovery_error_bound(1.0, 2, math.pi / 2.0, 1.0 - 0.4, n)
                for n in range(8, 200, 8)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.25 * vals[0]

    def test_nonnegative_and_finite(self):
        b = recovery_error_bound(4.0, 3, 1.0, 0.55 - 0.2, 10)
        assert 0.0 < b < math.inf

    def test_input_validation(self):
        good = dict(ell=1.0, segments=2, omega=1.0, delta=0.5, n=5)
        for name, value in OUT_OF_DOMAIN + [("omega", math.nan), ("n", 2.0)]:
            with pytest.raises(ValueError):
                recovery_error_bound(**{**good, name: value})

    @pytest.mark.parametrize("t", [[0.0, math.nan, 1.0], [math.nan, 0.5, 1.0],
                                   [0.0, 0.5, math.nan]])
    def test_nan_breakpoint_refused(self, t):
        # a nan breakpoint makes the width of a segment next to it nan
        widths = np.diff(t)
        delta = float(widths[np.isnan(widths)][0])
        with pytest.raises(ValueError, match="delta"):
            recovery_error_bound(1.0, 2, 1.0, delta, 5)
        with pytest.raises(ValueError, match="delta"):
            depth_floor(2, 1.0, delta)

    def test_product_past_float_range_is_inf(self):
        # 4 ell e^{(M-1)K} bracket is e^{1100} or more: not representable
        bound = recovery_error_bound(1e300, 1000, math.pi / 2.0, 0.5, 10)
        assert bound == math.inf

    def test_underflowing_bracket_in_log_space(self):
        # D = 1 and n = 20000: the bracket 4 e^{-1250} underflows to 0 and
        # e^{(M-1)K} = e^{766.6} overflows, but their product is representable
        exponent = 399 * k_of_omega(math.pi / 2.0)
        want = 4.0 * math.exp(math.log(4.0) + exponent - 20000 / 16.0)
        got = recovery_error_bound(1.0, 400, math.pi / 2.0, 1.0, 20000)
        assert 0.0 < want < math.inf
        assert got == pytest.approx(want, rel=1e-12)

    def test_subnormal_width_in_log_space(self):
        # (1 - D)/D overflows for D = 1e-320, but sqrt(1/D) = 1e160 does not,
        # and 4 ell e^K sqrt(1/D)/2 is about 1e-139
        delta = 1e-320
        want = 4e-300 * math.exp(k_of_omega(1.0)) / math.sqrt(delta) / 2.0
        got = recovery_error_bound(1e-300, 2, 1.0, delta, 3)
        assert got == pytest.approx(want, rel=1e-12)


class TestDepthFloor:
    def test_single_segment(self):
        # M = 1 makes n1 = 4; the 2/delta term wins only for small delta
        assert depth_floor(1, math.pi, 1.0) == 4.0

    def test_growth_with_segments(self):
        floors = [depth_floor(m, math.pi / 2.0, delta)
                  for m, delta in [(1, 1.0), (2, 0.5), (3, 1.0 / 3.0)]]
        assert floors[0] < floors[1] < floors[2]

    def test_input_validation(self):
        good = dict(segments=2, omega=1.0, delta=0.5)
        for name, value in [(name, value) for name, value in OUT_OF_DOMAIN
                            if name in good] + [("omega", 0.0)]:
            with pytest.raises(ValueError):
                depth_floor(**{**good, name: value})


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
        good = dict(ell=1.0, delta=0.5, n=5)
        for name, value in [(name, value) for name, value in OUT_OF_DOMAIN
                            if name in good]:
            with pytest.raises(ValueError):
                residual_envelope_bound(**{**good, name: value})

    @pytest.mark.parametrize("n", [171, 500])
    def test_past_factorial_range(self, n):
        # n! leaves float range from n = 171; the bound is taken with lgamma
        b = residual_envelope_bound(1.0, 0.5, n)
        assert 0.0 <= b < math.inf

    def test_large_length_in_log_space(self):
        # ell^{n+1} = 1e402 and n! = 7.9e374 overflow; their ratio is e^62
        n = 200
        want = math.exp((n + 1) * math.log(100.0) - math.lgamma(n + 1)
                        + math.log(4.0 * math.exp(-n / 16.0)))
        got = residual_envelope_bound(100.0, 1.0, n)
        assert 0.0 < want < math.inf
        assert got == pytest.approx(want, rel=1e-12)

    def test_underflowing_power_in_log_space(self):
        # ell^71 = 1e-355 underflows to 0, but ell^71/70! sqrt(1/D)/sqrt(71)
        # is about 1e-306
        n, delta = 70, 1e-300
        root = math.sqrt((1.0 - delta) / delta) / math.sqrt(n + 1)
        want = math.exp((n + 1) * math.log(1e-5) - math.lgamma(n + 1)
                        + math.log(root))
        got = residual_envelope_bound(1e-5, delta, n)
        assert 0.0 < want < math.inf
        assert got == pytest.approx(want, rel=1e-12)


class TestNoArithmeticError:
    """Every argument either gives a bound that is not nan or raises
    ValueError: no OverflowError, ZeroDivisionError or math domain error."""

    real = st.one_of(
        st.sampled_from([0.0, 5e-324, 1e-300, 1e-8, 0.5, 1.0, math.pi, 1e300]),
        st.floats(),
    )
    count = st.one_of(st.integers(-2, 10**6), st.integers(),
                      st.sampled_from([171, 2**53, 2**53 + 1, 10**400]))

    @settings(max_examples=300, deadline=None)
    @given(ell=real, segments=count, omega=real, delta=real, n=count)
    def test_bounds(self, ell, segments, omega, delta, n):
        for bound, args in [
            (recovery_error_bound, (ell, segments, omega, delta, n)),
            (depth_floor, (segments, omega, delta)),
            (residual_envelope_bound, (ell, delta, n)),
        ]:
            try:
                value = bound(*args)
            except ValueError:
                continue
            assert value >= 0.0  # false for nan


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

    def test_negative_depth_names_n(self):
        p = unit_speed_two_segment(0.4, math.pi / 2.0)
        with pytest.raises(ValueError, match="^n must be an integer"):
            compare_recovery(p, [-1])

    def test_rows_finite_at_depth_20(self):
        # the two-segment path of lib-roundtrip, seed 3, once refused at
        # n = 20 for the scale of its degree-20 level
        p = PiecewiseLinearPath(
            [[0.0, 0.0], [-0.47974389002436635, 0.12519430313252583],
             [-0.19025398262771828, 0.5379931498020589]],
            [0.0, 0.4958102596281668, 1.0])
        rows = compare_recovery(p, [20])
        assert [r.segment for r in rows] == [1, 2]
        assert all(math.isfinite(r.measured) and math.isfinite(r.bound)
                   for r in rows)

    def test_signs_once_with_rows_of_signing_per_depth(self, monkeypatch):
        # one signature to depth max(n) + 1; its levels n and n + 1 give
        # every field of the rows that signing to depth n + 1 alone gives
        signed = []
        monkeypatch.setattr(insertion, "path_signature", lambda path, depth: (
            signed.append(depth) or path_signature(path, depth)))
        depths = [6, 8, 10, 12, 14]
        for seed in range(1, 21):
            rng = np.random.default_rng(seed)
            p = unit_speed_two_segment(rng.uniform(0.4, 0.6),
                                       rng.uniform(math.pi / 3.0,
                                                   2.0 * math.pi / 3.0))
            per_depth = [r for n in depths for r in compare_recovery(p, [n])]
            signed.clear()
            rows = compare_recovery(p, depths)
            assert signed == [15]
            assert list(map(repr, rows)) == list(map(repr, per_depth))

    def test_inverts_once_per_depth(self, monkeypatch):
        # every segment's slope at depth n is read off one inversion of the
        # levels up to n + 1, which are views of the one signature signed
        signed, inverted = [], []
        monkeypatch.setattr(insertion, "path_signature", lambda path, depth: (
            signed.append(path_signature(path, depth)) or signed[-1]))
        monkeypatch.setattr(insertion, "batch_invert", lambda sigs, starts: (
            inverted.extend(sigs) or batch_invert(sigs, starts)))
        p = constant_speed_reparam(unit_zigzag(12))
        rows = compare_recovery(p, [6, 9, 4])
        assert [sig.depth - 1 for sig in inverted] == [6, 9, 4]
        assert len(rows) == 36
        [whole] = signed
        for sig in inverted:
            assert all(np.shares_memory(lvl, whole.levels[k])
                       for k, lvl in enumerate(sig.levels))

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
        t = np.linspace(0, 1, 401)
        delta = float(t[400] - t[399])
        exponent = 399 * k_of_omega(math.pi / 2.0)
        assert exponent > math.log(sys.float_info.max)
        bracket = (math.sqrt((1.0 - delta) / delta) / math.sqrt(11.0)
                   + 4.0 * math.exp(-10.0 * delta**2 / 16.0))
        want = 4e-300 * math.exp(100.0) * math.exp(exponent - 100.0) * bracket
        assert math.isfinite(want)
        assert recovery_error_bound(1e-300, 400, math.pi / 2.0, delta, 10) == \
            pytest.approx(want, rel=1e-12)
