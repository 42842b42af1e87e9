import itertools
import math
import tracemalloc

import numpy as np
import pytest

from siginvert import (
    AllocationCapError,
    AssumptionViolation,
    PiecewiseLinearPath,
    TruncatedSignature,
    batch_signature,
    constant_speed_reparam,
    path_signature,
    segment_geometry,
    set_allocation_cap,
)
from siginvert import signature
from siginvert.signature import require_clean_angles
from siginvert.tensor_algebra import DEFAULT_MAX_COEFFS, get_allocation_cap

from conftest import random_path
from oracles import (
    chen_concat,
    distinct_points,
    euclidean_norm,
    linear_signature,
    riemann_oracle,
    trivial_signature,
)


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
        a = path_signature(random_path(rng, 3, 2), 4)
        e = trivial_signature(2, 4)
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
        for k in range(3):
            np.testing.assert_allclose(path_signature(p, 2).level(k),
                                       path_signature(q, 2).level(k),
                                       atol=1e-14)


def chen_fold(path, depth):
    """Reference signature: left fold of per-segment closed forms under
    Chen's identity, independent of the Horner step."""
    sig = trivial_signature(path.dim, depth)
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

    def test_scratch_size_is_the_largest_block_of_each_parity(self):
        # the batch chunks count what the sweep allocates; d = 1 has no sweep
        for d, depth in itertools.product(range(2, 6), range(13)):
            blocks = [(depth - m + 1) * d**m for m in range(1, depth + 1)]
            want = max(blocks[1::2], default=0), max(blocks[0::2], default=0)
            assert signature._parity_blocks(d, depth) == want, (d, depth)
            assert signature._scratch_size(d, depth) == sum(want), (d, depth)

    def test_allocation_cap_counts_one_dimensional_levels(self):
        # d = 1: one coefficient a level and a numpy view of about 128
        # bytes, 17 coefficients in all; 17 * 235 <= 4 * 1000 < 17 * 236
        p = PiecewiseLinearPath([[0.0], [1.0]])
        previous = get_allocation_cap()
        set_allocation_cap(1000)
        try:
            assert path_signature(p, 234).level(234).size == 1
            with pytest.raises(AllocationCapError, match="236 levels"):
                path_signature(p, 235)
        finally:
            set_allocation_cap(previous)
        # the default cap refuses from depth 23,529,411 on, before the
        # table is built
        assert get_allocation_cap() == DEFAULT_MAX_COEFFS
        for depth in (23_529_411, 10**9):
            tracemalloc.start()
            try:
                with pytest.raises(AllocationCapError, match="levels"):
                    path_signature(p, depth)
                assert tracemalloc.get_traced_memory()[1] < 2**20
            finally:
                tracemalloc.stop()

    def test_level_count_covers_a_one_column_signature(self):
        # what a signed or constructed one-column signature holds, its
        # coefficients and level views, is within 17 coefficients a level
        p = PiecewiseLinearPath([[0.0], [1.0], [3.0]])
        for depth in (1000, 4000):
            levels = [[1.0]] * (depth + 1)
            for make in (lambda: path_signature(p, depth),
                         lambda: TruncatedSignature(1, levels)):
                tracemalloc.start()
                try:
                    sig = make()
                    held = tracemalloc.get_traced_memory()[0]
                finally:
                    tracemalloc.stop()
                assert sig.depth == depth and held <= 8 * 17 * (depth + 1), depth

    def test_repeated_points_add_exact_zeros(self, rng):
        for d in (1, 2, 3):
            p = irregular_path(rng, 5, d, 1.0)
            pts = np.repeat(p.points, [1, 2, 1, 3, 1, 2], axis=0)
            q = PiecewiseLinearPath(pts)
            for depth in (0, 3, 6):
                a, b = path_signature(p, depth), path_signature(q, depth)
                for k in range(depth + 1):
                    np.testing.assert_array_equal(a.level(k), b.level(k))

    @pytest.mark.parametrize("end", [[1e300, 1.0], [-1e200, 1e200],
                                     [1.7e308, -1.7e308]])
    def test_overflow_is_refused(self, end):
        p = PiecewiseLinearPath([[0.0, 0.0], end])
        with pytest.raises(AssumptionViolation, match="overflows float64"):
            path_signature(p, 3)


def assert_bitwise_equal(got, want):
    assert (got.dim, got.depth) == (want.dim, want.depth)
    for k in range(want.depth + 1):
        assert got.level(k).tobytes() == want.level(k).tobytes(), k


def traced_peak(f, *args):
    """``f(*args)`` and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return f(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def overflow_message(paths, depth):
    """The message the first overflowing path raises when each path is
    signed in turn."""
    with pytest.raises(AssumptionViolation) as info:
        for p in paths:
            path_signature(p, depth)
    return str(info.value)


class TestBatchSignature:
    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    @pytest.mark.parametrize("depth", [0, 1, 2, 6, 9])
    def test_equals_path_signature_loop(self, rng, monkeypatch, dim, depth):
        # segment counts 1..40 in random order, some shared by 5 paths and
        # some by one, repeated points, and chunks of 3 paths, so that the
        # paths of one count fill more than one chunk
        big = dim**depth > 10**5
        counts = [1, 3, 2, 3] if big else rng.permutation(np.concatenate(
            [np.repeat(rng.integers(1, 41, size=5), 5), rng.integers(1, 41, size=5)]))
        paths = [irregular_path(rng, int(m), dim, scale)
                 for m, scale in zip(counts, [1e-2, 1.0, 1e2] * 10)]
        per_path = max(1, signature._scratch_size(dim, depth))
        monkeypatch.setattr(signature, "_BATCH_SCRATCH", 3 * per_path)
        got = batch_signature(paths, depth)
        assert len(got) == len(paths)
        for sig, p in zip(got, paths):
            assert_bitwise_equal(sig, path_signature(p, depth))

    def test_default_budget_chunks_keep_input_order(self, rng):
        # alternating segment counts, with more 3-segment paths than one
        # chunk of the default budget holds (d = 2, depth 6: 2,048 paths)
        counts = [3, 1, 3, 40, 3, 3] * 600
        paths = [irregular_path(rng, m, 2, 1.0) for m in counts]
        assert counts.count(3) > signature._BATCH_SCRATCH // signature._scratch_size(2, 6)
        got = batch_signature(paths, 6)
        for sig, p in zip(got, paths):
            np.testing.assert_allclose(sig.level(1),
                                       p.points[-1] - p.points[0], atol=1e-12)
        for i in range(0, len(paths), 23):
            assert_bitwise_equal(got[i], path_signature(paths[i], 6))

    def test_skewed_batch_memory_is_bounded(self, rng):
        # many one-segment paths and one long one: paths are signed with
        # those of their own segment count, so no short path is padded to
        # the long one's 20,000 segments (80 MB for the batch)
        long = PiecewiseLinearPath(np.cumsum(rng.normal(size=(20_001, 1)), axis=0))
        paths = [PiecewiseLinearPath(rng.normal(size=(2, 1))) for _ in range(500)]
        got, peak = traced_peak(batch_signature, paths + [long], 2)
        assert peak < 4 * 2**20
        assert_bitwise_equal(got[-1], path_signature(long, 2))

    @pytest.mark.parametrize("points, depth, mib", [
        # one column: the closed form's table and the views of 4001 levels,
        # against 61 MiB for a Horner scratch of depth (depth + 1) / 2
        ([[0.0], [1.0], [3.0]], 4000, 8),
        # the 100-segment half-circle: a 2 MiB table and 2 MiB of scratch,
        # against 4 MiB for a scratch array per degree
        (np.column_stack([np.cos(np.linspace(0.0, math.pi, 101)),
                          np.sin(np.linspace(0.0, math.pi, 101))]), 17, 4.5),
    ], ids=["one-column", "half-circle"])
    def test_sweep_memory_is_bounded(self, points, depth, mib):
        path = PiecewiseLinearPath(points)
        _, peak = traced_peak(path_signature, path, depth)
        assert peak < mib * 2**20

    def test_signatures_own_their_levels(self, rng):
        # a kept signature must not hold the levels of its whole chunk:
        # every level is a view of one buffer of exactly sum_k d**k
        # coefficients, and no two signatures share memory; for a chunk of
        # paths, a path signed alone, and both in one batch
        for counts in ([4] * 5, [6], [4, 6, 4, 2]):
            got = batch_signature([irregular_path(rng, m, 2, 1.0) for m in counts], 3)
            for sig in got:
                buffer = sig.level(0).base
                assert buffer is not None and buffer.size == 1 + 2 + 4 + 8
                assert not buffer.flags.writeable
                assert all(lvl.base is buffer for lvl in sig.levels)
            for a, b in itertools.combinations(got, 2):
                assert not np.shares_memory(a.level(0).base, b.level(0).base)

    def test_first_overflow_in_input_order(self):
        good = PiecewiseLinearPath([[0.0, 0.0], [1.0, 0.5], [0.2, 1.0],
                                    [0.3, 0.3], [0.0, 1.0], [2.0, 2.0]])
        # level 2 overflows; two segments
        late = PiecewiseLinearPath([[0.0, 0.0], [1e300, 1.0], [1e300, 2.0]])
        # level 1 overflows; one segment, so it sorts before the others
        early = PiecewiseLinearPath([[-1.7e308, 0.0], [1.7e308, 0.0]])
        for paths in ([good, late, early], [good, early, late]):
            want = overflow_message(paths, 3)
            with pytest.raises(AssumptionViolation) as info:
                batch_signature(paths, 3)
            assert str(info.value) == want
        assert "level 2 " in overflow_message([good, late, early], 3)

    def test_mixed_dimensions_refused(self):
        with pytest.raises(ValueError, match="share a dimension"):
            batch_signature([PiecewiseLinearPath([[0.0, 0.0], [1.0, 1.0]]),
                             PiecewiseLinearPath([[0.0], [1.0]])], 3)

    def test_empty_batch(self):
        assert batch_signature([], 4) == []
        with pytest.raises(ValueError):
            batch_signature([], -1)


def buffer_batches(rng):
    """(paths, depth) batches at the signing shapes of these tests and of
    the benchmark: the half-circle, single 10-segment paths, the 3-d spiral
    and chunks of 128 and 72 planar paths."""
    batches = []
    for dim, depth in itertools.product([1, 2, 3, 5], [0, 1, 2, 6, 9]):
        counts = [1, 3, 2, 3] if dim**depth > 10**5 else [1, 3, 3, 7, 7]
        batches.append(([irregular_path(rng, m, dim, 1.0) for m in counts], depth))
    theta = np.linspace(0.0, math.pi, 101)
    circle = PiecewiseLinearPath(np.column_stack([np.cos(theta), np.sin(theta)]))
    batches += [([circle], depth) for depth in (4, 8, 12, 16, 17)]
    batches += [([random_path(rng, 10, 2)], 14), ([random_path(rng, 10, 3)], 9)]
    theta = np.linspace(0.0, 3.0 * math.pi, 31)
    batches.append(([PiecewiseLinearPath(np.column_stack(
        [np.cos(theta), np.sin(theta), theta / (3.0 * math.pi)]))], 12))
    planar = [random_path(rng, 10, 2) for _ in range(128)]
    batches += [(planar, 10), (planar[:72], 10)]
    return batches


class TestUfuncBuffer:
    """The sweep runs with its own ufunc buffer size: the bits do not depend
    on it, and the caller's size is back when signing returns or raises."""

    @pytest.mark.parametrize("size", [16, 8192, 2**16])
    def test_bits_do_not_depend_on_the_buffer(self, rng, monkeypatch, size):
        batches = buffer_batches(rng)
        want = [batch_signature(paths, depth) for paths, depth in batches]
        # the caller's size, and the sweep's own
        monkeypatch.setattr(signature, "_SWEEP_BUFSIZE", size)
        previous = np.setbufsize(size)
        try:
            got = [batch_signature(paths, depth) for paths, depth in batches]
        finally:
            np.setbufsize(previous)
        for sigs, refs in zip(got, want):
            for sig, ref in zip(sigs, refs):
                assert_bitwise_equal(sig, ref)

    @pytest.mark.parametrize("caller", [np.getbufsize(), 48])
    def test_callers_size_is_restored(self, caller):
        good = PiecewiseLinearPath([[0.0, 0.0], [1.0, 0.5], [0.2, 1.0]])
        line = PiecewiseLinearPath([[0.0], [2.0]])
        huge = PiecewiseLinearPath([[0.0, 0.0], [1e300, 1.0], [1e300, 2.0]])
        previous = np.setbufsize(caller)
        try:
            batch_signature([good, good], 6)
            assert np.getbufsize() == caller
            batch_signature([line], 6)
            assert np.getbufsize() == caller
            with pytest.raises(AssumptionViolation):
                batch_signature([good, huge], 3)
            assert np.getbufsize() == caller
            with pytest.raises(AllocationCapError):
                batch_signature([good], 40)
            assert np.getbufsize() == caller
            # the sweep alone, outside the errstate block of batch_signature,
            # whose exit restores the buffer too on numpy >= 2
            signature._horner_sweep(np.ones((2, 2, 1)), 3)
            assert np.getbufsize() == caller
            with np.errstate(over="raise"):
                with pytest.raises(FloatingPointError):
                    signature._horner_sweep(np.full((2, 2, 1), 1e300), 3)
                assert np.getbufsize() == caller
        finally:
            np.setbufsize(previous)


def assert_levels_equal(low, high):
    """Levels 0..low.depth of ``low`` are bitwise those of ``high``."""
    for k in range(low.depth + 1):
        assert low.level(k).tobytes() == high.level(k).tobytes(), k


class TestTruncationConsistency:
    """Level k of the depth-n signature is bitwise level k of the depth-m
    signature for every k <= n <= m: no deeper level feeds a lower one."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("segments", [1, 3, 7])
    def test_lower_levels_ignore_the_depth(self, rng, dim, segments):
        for scale in (1e-2, 1.0, 1e2):
            path = irregular_path(rng, segments, dim, scale)
            deepest = path_signature(path, 8)
            for n in range(8):
                assert_levels_equal(path_signature(path, n), deepest)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_across_chunks(self, rng, monkeypatch, dim):
        # chunks of 3 paths at depth 8 and of more at lower depths, so the
        # chunk boundaries move with the depth
        paths = [irregular_path(rng, m, dim, 1.0) for m in [1, 3, 7] * 7]
        monkeypatch.setattr(signature, "_BATCH_SCRATCH",
                            3 * signature._scratch_size(dim, 8))
        deepest = batch_signature(paths, 8)
        for n in range(8):
            for low, high in zip(batch_signature(paths, n), deepest):
                assert_levels_equal(low, high)


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


class TestPathChecks:
    @pytest.mark.parametrize("times", [
        [0.0, math.nan, 1.0], [0.0, 0.5, math.inf], [-math.inf, 0.5, 1.0],
    ])
    def test_non_finite_times_refused(self, times):
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            PiecewiseLinearPath([[0.0], [1.0], [2.0]], times)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_refused(self, bad):
        # a nan point gave an "overflows float64" error when signed
        with pytest.raises(ValueError, match="non-finite point"):
            PiecewiseLinearPath([[0.0, 0.0], [bad, 1.0]])

    def test_times_of_another_length_refused(self):
        with pytest.raises(ValueError, match="one entry per point"):
            PiecewiseLinearPath([[0.0], [1.0], [2.0]], [0.0, 1.0])

    def test_points_in_r0_refused(self):
        # such a path failed later, in numpy, when signed or measured
        with pytest.raises(ValueError, match=r"shape \(3, 0\) lie in R\^0"):
            PiecewiseLinearPath(np.zeros((3, 0)))

    def test_caller_points_stay_writeable(self):
        points = np.zeros((3, 2))
        path = PiecewiseLinearPath(points)
        assert points.flags.writeable and not path.points.flags.writeable
        points[1] = 1.0
        assert not path.points.any()

    def test_caller_times_stay_writeable(self):
        times = np.array([0.0, 0.5, 1.0])
        path = PiecewiseLinearPath(np.zeros((3, 2)), times)
        assert times.flags.writeable and not path.times.flags.writeable
        times[1] = 0.25
        assert path.times[1] == 0.5

    def test_default_times_are_a_shared_grid_no_caller_can_write(self):
        # paths of one segment count built without times share one grid
        path, other = PiecewiseLinearPath(np.zeros((4, 2))), \
            PiecewiseLinearPath(np.ones((4, 1)))
        np.testing.assert_array_equal(path.times, np.linspace(0.0, 1.0, 4))
        with pytest.raises(ValueError, match="WRITEABLE"):
            path.times.setflags(write=True)
        path.times.shape = (2, 2)
        assert other.times.shape == (4,)


class TestSegmentLengths:
    def test_equal_plain_norm_bitwise(self, rng):
        for d in range(1, 6):
            disp = rng.standard_normal((2000, d)) \
                * 10.0 ** rng.uniform(-100, 100, size=(2000, 1))
            got = signature._segment_lengths(disp)
            assert got.tobytes() == np.linalg.norm(disp, axis=1).tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_extreme_scales(self):
        disp = np.array([[1e-200, 1e-200], [1e200, -1e200]])
        got = signature._segment_lengths(disp)
        assert np.all(np.isfinite(got)) and np.all(got > 0)
        np.testing.assert_allclose(got, math.sqrt(2.0) * np.array([1e-200, 1e200]),
                                   rtol=1e-15)


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
        q = constant_speed_reparam(p)
        slopes = np.diff(q.points, axis=0) / np.diff(q.times)[:, None]
        norms = np.linalg.norm(slopes, axis=1)
        geom = segment_geometry(q)
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

    @pytest.mark.parametrize("seed", range(6))
    def test_drops_repeated_points_like_point_loop(self, seed):
        # runs of repeated points, -0.0 next to 0.0, and (seed 5) a path
        # of one repeated point
        rng = np.random.default_rng(seed)
        base = rng.integers(-2, 3, size=(12, 1 + seed % 3)).astype(float)
        base[rng.random(12) < 0.2] = -0.0
        pts = np.repeat(base, rng.integers(1, 4, size=12), axis=0)
        if seed == 5:
            pts[:] = pts[0]
        path = PiecewiseLinearPath(pts, np.cumsum(rng.random(len(pts))))
        kept = pts[distinct_points(pts)]
        if len(kept) < 2:
            with pytest.raises(ValueError, match=r"length 0\.0 cannot be"):
                constant_speed_reparam(path)
            return
        seg = np.linalg.norm(np.diff(kept, axis=0), axis=1)
        times = np.concatenate(([0.0], np.cumsum(seg) / seg.sum()))
        times[-1] = 1.0
        got = constant_speed_reparam(path)
        assert got.points.tobytes() == kept.tobytes()  # the first of each run
        np.testing.assert_array_equal(got.times, times)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_coordinates(self):
        # squared lengths overflow float64; the lengths themselves do not
        p = PiecewiseLinearPath([[0.0, 0.0], [1e200, 0.0], [1e200, 1e200]])
        np.testing.assert_array_equal(constant_speed_reparam(p).times,
                                      [0.0, 0.5, 1.0])
        np.testing.assert_array_equal(segment_geometry(p).lengths,
                                      [1e200, 1e200])


class TestSegmentGeometry:
    def test_orthogonal_slopes(self):
        p = PiecewiseLinearPath([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        geom = segment_geometry(p)
        assert geom.angles[0] == pytest.approx(math.pi / 2, abs=1e-12)
        require_clean_angles(geom)

    def test_collinear_flag(self):
        # straight continuation: vertex angle pi, non-minimal partition
        p = PiecewiseLinearPath([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        geom = segment_geometry(p)
        assert geom.angles[0] == pytest.approx(math.pi, abs=1e-12)
        with pytest.raises(AssumptionViolation, match="collinear"):
            require_clean_angles(geom)

    def test_backtrack_flag(self):
        # exact reversal: vertex angle 0, tree-like
        p = PiecewiseLinearPath([[0.0, 0.0], [1.0, 0.0], [0.5, 0.0]])
        geom = segment_geometry(p)
        assert geom.angles[0] == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(AssumptionViolation, match="backtracking"):
            require_clean_angles(geom)

    def test_constant_path_refused(self):
        p = PiecewiseLinearPath([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
        with pytest.raises(ValueError, match="no non-degenerate segment"):
            segment_geometry(p)

    def test_total_variation(self):
        p = PiecewiseLinearPath([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0]])
        assert segment_geometry(p).total_variation == pytest.approx(7.0)

    def test_slope_after_repeated_point(self):
        # the zero segment spans [0.3, 0.6]; the last slope spans [0.6, 1]
        p = PiecewiseLinearPath([[0, 0], [1, 0], [1, 0], [1, 1]],
                                [0.0, 0.3, 0.6, 1.0])
        geom = segment_geometry(p)
        slopes = np.diff(p.points, axis=0) / np.diff(p.times)[:, None]
        np.testing.assert_allclose(slopes[[0, 2]], [[1 / 0.3, 0.0], [0.0, 2.5]],
                                   rtol=1e-15)
        np.testing.assert_array_equal(geom.lengths, [1.0, 1.0])
        assert geom.angles[0] == pytest.approx(math.pi / 2, abs=1e-12)

    def test_reads_no_times(self):
        # a step of 1e-310 would overflow a slope; lengths and angles are
        # those of the same points on the default times
        p = PiecewiseLinearPath([[0, 0], [1, 0], [1, 1]], [0.0, 1e-310, 1.0])
        geom = segment_geometry(p)
        want = segment_geometry(PiecewiseLinearPath(p.points))
        np.testing.assert_array_equal(geom.lengths, want.lengths)
        np.testing.assert_array_equal(geom.angles, want.angles)
        assert (geom.total_variation, geom.min_angle) == \
            (want.total_variation, want.min_angle)
