import io
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siginvert import (
    AllocationCapError,
    PiecewiseLinearPath,
    TruncatedSignature,
    batch_signature,
    compare_recovery,
    depth_floor,
    graded_scale,
    path_signature,
    probe_slot,
    recovery_error_bound,
    residual_envelope_bound,
    set_allocation_cap,
)
from siginvert.fileio import read_signatures_json
from siginvert.tensor_algebra import (
    DEFAULT_MAX_COEFFS,
    check_allocation,
    check_count,
    get_allocation_cap,
)

from conftest import random_path
from oracles import (
    dumps_signatures,
    entry,
    euclidean_norm,
    linear_signature,
    multi_index_to_offset,
    offset_to_multi_index,
    permute,
    tensor_product,
)


class TestIndexing:
    @given(st.integers(1, 6), st.integers(0, 6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_offset_roundtrip(self, dim, degree, data):
        if dim**degree > 10**6:
            return
        offset = data.draw(st.integers(0, dim**degree - 1))
        idx = offset_to_multi_index(offset, dim, degree)
        assert multi_index_to_offset(idx, dim) == offset
        assert all(1 <= i <= dim for i in idx)

    def test_row_major_layout(self):
        # offset of (i1, ..., ik) is sum_j (i_j - 1) d^(k-j)
        assert multi_index_to_offset((1, 2), 2) == 1
        assert multi_index_to_offset((2, 1), 2) == 2
        assert multi_index_to_offset((3, 1, 2), 3) == 2 * 9 + 0 * 3 + 1

    def test_getitem(self, rng):
        a = rng.normal(size=3**2)
        assert entry(a, 3, (2, 3)) == a[1 * 3 + 2]


class TestTensorProduct:
    def test_basis_element(self):
        e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        out = tensor_product(e1, e2, 2)
        np.testing.assert_array_equal(out, [0.0, 1.0, 0.0, 0.0])

    def test_scalar_scaling(self):
        s, v = np.array([3.0]), np.array([1.0, 2.0])
        np.testing.assert_array_equal(tensor_product(s, v, 2), [3.0, 6.0])

    def test_matches_triple_loop_oracle(self, rng):
        a = rng.normal(size=2**2)
        b = rng.normal(size=2**1)
        out = tensor_product(a, b, 2)
        for idx_a in itertools.product((1, 2), repeat=2):
            for idx_b in ((1,), (2,)):
                assert entry(out, 2, idx_a + idx_b) == pytest.approx(
                    entry(a, 2, idx_a) * entry(b, 2, idx_b), abs=0.0
                )

    def test_bilinear(self, rng):
        a1, a2 = rng.normal(size=2**2), rng.normal(size=2**2)
        b = rng.normal(size=2**3)
        lhs = tensor_product(2.0 * a1 + a2, b, 2)
        rhs = 2.0 * tensor_product(a1, b, 2) + tensor_product(a2, b, 2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_dim_mismatch(self, rng):
        # a level over R^3 has no degree over R^2
        with pytest.raises(ValueError):
            tensor_product(rng.normal(size=2**1), rng.normal(size=3**1), 2)


class TestEuclideanNorm:
    def test_single_entry(self):
        assert euclidean_norm(np.array([0.5, 0, 0, 0])) == 0.5

    def test_zero(self):
        assert euclidean_norm(np.zeros(9)) == 0.0

    def test_multiplicative_over_products(self, rng):
        # admissible-norm law (ii)
        for _ in range(20):
            a = rng.normal(size=2 ** rng.integers(1, 4))
            b = rng.normal(size=2 ** rng.integers(1, 4))
            assert euclidean_norm(tensor_product(a, b, 2)) == pytest.approx(
                euclidean_norm(a) * euclidean_norm(b), abs=1e-12, rel=1e-12
            )


class TestPermute:
    def test_swap_is_transpose(self, rng):
        # positions swap: coefficient at (j1, j2) comes from (j2, j1)
        a = rng.normal(size=2**2)
        out = permute(a, 2, (2, 1))
        np.testing.assert_array_equal(out.reshape(2, 2), a.reshape(2, 2).T)

    def test_identity(self, rng):
        a = rng.normal(size=3**3)
        np.testing.assert_array_equal(permute(a, 3, (1, 2, 3)), a)

    def test_three_cycle(self, rng):
        a = rng.normal(size=2**3)
        sigma = (2, 3, 1)
        out = permute(a, 2, sigma)
        for idx in itertools.product((1, 2), repeat=3):
            # slot m of the result holds the source axis sigma(m)
            src = (idx[sigma[0] - 1], idx[sigma[1] - 1], idx[sigma[2] - 1])
            assert entry(out, 2, src) == entry(a, 2, idx)

    def test_norm_preserved(self, rng):
        # admissible-norm law (i)
        for _ in range(20):
            k = int(rng.integers(1, 5))
            a = rng.normal(size=2**k)
            sigma = tuple(rng.permutation(k) + 1)
            assert euclidean_norm(permute(a, 2, sigma)) == pytest.approx(
                euclidean_norm(a), abs=1e-12
            )

    def test_rejects_non_bijection(self, rng):
        with pytest.raises(ValueError):
            permute(rng.normal(size=2**2), 2, (1, 1))


class TestGradedScale:
    def test_alpha_one_is_identity(self, rng):
        s = linear_signature(rng.normal(size=2), 1.0, 3)
        t = graded_scale(s, 1.0)
        for k in range(4):
            np.testing.assert_array_equal(t.level(k), s.level(k))

    def test_definition(self):
        s = TruncatedSignature(2, [[1.0], [1.0, 2.0], [1.0, 0.0, 0.0, 1.0]])
        t = graded_scale(s, 2.0)
        np.testing.assert_array_equal(t.level(1), [2.0, 4.0])
        np.testing.assert_array_equal(t.level(2), [4.0, 0.0, 0.0, 4.0])

    def test_matches_signing_scaled_path(self, rng):
        path = random_path(rng, 3, 2)
        alpha = 1.7
        lhs = path_signature(path.scaled(alpha), 4)
        rhs = graded_scale(path_signature(path, 4), alpha)
        for k in range(5):
            np.testing.assert_allclose(lhs.level(k), rhs.level(k), atol=1e-10)

    @pytest.mark.parametrize("alpha", [1e-300, -0.3, 1.7, -1e20, 1e60])
    def test_finite_results_keep_their_bits(self, rng, alpha):
        s = path_signature(random_path(rng, 3, 2), 4)
        t = graded_scale(s, alpha)
        for k in range(5):
            assert t.level(k).tobytes() == (alpha**k * s.level(k)).tobytes()

    @pytest.mark.parametrize("alpha, levels", [
        (1e100, [[1.0], [1.0, 0.0], [0.5, 0.5, 0.0, 0.0], [1.0] * 8,
                 [1.0] * 16]),                         # alpha**4 overflows
        (-1e10, [[1.0], [1e300, 0.0]]),                # a product overflows
        (1e200, [[1.0], [0.0, 1.0], [0.0, 0.0, 0.0, 1e-300]]),  # 0 * inf
    ], ids=["power", "product", "zero-times-inf"])
    def test_scale_past_float64_is_refused(self, alpha, levels):
        s = TruncatedSignature(2, levels)
        with pytest.raises(ValueError, match="non-finite"):
            graded_scale(s, alpha)


class TestAllocationCap:
    def test_cap_refused_with_clear_error(self):
        set_allocation_cap(1000)
        try:
            with pytest.raises(AllocationCapError, match="cap"):
                check_allocation(10, 4)
        finally:
            set_allocation_cap(DEFAULT_MAX_COEFFS)

    def test_degree_up_to_2_pow_53_is_decided_at_once(self):
        # dim**degree is never built: at the largest cap, 2**53 coefficients
        # still pass and one more degree does not
        path = PiecewiseLinearPath([[0.0, 0.0], [1.0, 1.0]])
        previous = get_allocation_cap()
        try:
            set_allocation_cap(2**53)
            check_allocation(2, 53)
            check_allocation(1, 2**53)
            for dim, degree in [(2, 54), (2, 2**53), (3, 2**53)]:
                with pytest.raises(AllocationCapError, match="cap"):
                    check_allocation(dim, degree)
            with pytest.raises(AllocationCapError, match="cap"):
                path_signature(path, 2**53)
        finally:
            set_allocation_cap(previous)

    def test_depth_0_signature_claims_no_dim_past_the_cap(self):
        # signing and the constructor apply one size rule, which checks
        # level 1 at depth 0
        path = PiecewiseLinearPath([np.zeros(6), np.arange(1.0, 7.0)])
        previous = get_allocation_cap()
        try:
            set_allocation_cap(5)
            with pytest.raises(AllocationCapError, match=r"R\^6") as signed:
                path_signature(path, 0)
            with pytest.raises(AllocationCapError) as built:
                TruncatedSignature(6, [[1.0]])
            assert str(signed.value) == str(built.value)
            set_allocation_cap(6)
            assert path_signature(path, 0).dim == 6
            assert TruncatedSignature(6, [[1.0]]).dim == 6
        finally:
            set_allocation_cap(previous)

    def test_signature_validates_levels(self):
        for dim, levels in [(2, [[1.0], [1.0, 2.0, 3.0]]), (0, [[1.0]]),
                            (-2, [[1.0]]), (2, [])]:
            with pytest.raises(ValueError):
                TruncatedSignature(dim, levels)
        # a level of the right size but the wrong shape names both shapes
        with pytest.raises(ValueError, match=r"needs shape \(2,\), got \(2, 1\)"):
            TruncatedSignature(2, [[1.0], np.ones((2, 1))])


def _kept_cap(cap):
    previous = get_allocation_cap()
    try:
        set_allocation_cap(cap)
        return get_allocation_cap()
    finally:
        set_allocation_cap(previous)


def _kept_none(call):
    """The call, for an argument the library uses but does not keep."""
    def run(value):
        call(value)
    return run


_PATH = PiecewiseLinearPath([[0.0, 0.0], [1.0, 0.5], [0.5, 2.0]])

# Every count argument: the name its ValueError gives, its floor, whether
# check_count bounds it by 2**53 (the allocation cap bounds dim instead),
# and a call returning the count the library keeps, or None.
COUNT_ARGUMENTS = {
    "TruncatedSignature dim": (
        "dim", 1, False,
        lambda v: TruncatedSignature(v, [[1.0], [0.5, 0.5]]).dim),
    "set_allocation_cap": ("allocation cap", 1, True, _kept_cap),
    "batch_signature depth": (
        "depth", 0, True, lambda v: batch_signature([_PATH], v)[0].depth),
    "path_signature depth": (
        "depth", 0, True, lambda v: path_signature(_PATH, v).depth),
    "compare_recovery n": (
        "n", 1, True, _kept_none(lambda v: compare_recovery(_PATH, [v]))),
    "recovery_error_bound segments": (
        "segments", 1, True,
        _kept_none(lambda v: recovery_error_bound(1.0, v, 1.0, 0.5, 4))),
    "depth_floor segments": (
        "segments", 1, True, _kept_none(lambda v: depth_floor(v, 1.0, 0.5))),
    "recovery_error_bound n": (
        "n", 0, True,
        _kept_none(lambda v: recovery_error_bound(1.0, 2, 1.0, 0.5, v))),
    "residual_envelope_bound n": (
        "n", 0, True, _kept_none(lambda v: residual_envelope_bound(1.0, 0.5, v))),
    "probe_slot n": ("n", 0, True, _kept_none(lambda v: probe_slot(0.0, 0.5, v))),
}


class TestCountArguments:
    @pytest.mark.parametrize("entry", COUNT_ARGUMENTS)
    def test_refuses_non_counts(self, entry):
        name, floor, bounded, call = COUNT_ARGUMENTS[entry]
        bad = [True, 2.0, floor - 1] + ([2**53 + 1] if bounded else [])
        for value in bad:
            with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                call(value)

    @pytest.mark.parametrize("entry", COUNT_ARGUMENTS)
    def test_accepts_numpy_integer(self, entry):
        kept = COUNT_ARGUMENTS[entry][3](np.int64(2))
        assert kept is None or (type(kept) is int and kept == 2)

    def test_check_count(self):
        assert type(check_count("k", np.int64(3))) is int
        assert check_count("k", 2**53) == 2**53
        for value in (np.True_, np.float64(3.0), "3", None, 4):
            with pytest.raises(ValueError, match=r"^k must be an integer in \[0, 3\]"):
                check_count("k", value, high=3)

    def test_numpy_dim_round_trips_json(self):
        sig = TruncatedSignature(np.int64(2), [[1.0], [0.5, -0.25]])
        text = dumps_signatures([("a", sig)])
        assert '"dim": 2,' in text
        [(pid, back)] = read_signatures_json(io.StringIO(text))
        assert (pid, back.dim, back.depth) == ("a", 2, 1)
        np.testing.assert_array_equal(back.level(1), sig.level(1))


class TestConstructor:
    @pytest.mark.parametrize("how", ["batch-chunk", "batch-alone", "path",
                                     "graded-scale", "json"])
    def test_levels_are_read_only_float64(self, rng, how):
        # the three 3-segment paths share a chunk of batch_signature, and
        # the 5-segment path is signed alone
        paths = [random_path(rng, m, 2) for m in (3, 3, 3, 5)]
        sig = path_signature(paths[0], 4)
        text = dumps_signatures([("a", sig), ("b", sig)])
        sigs = {"batch-chunk": lambda: batch_signature(paths, 4)[:3],
                "batch-alone": lambda: batch_signature(paths, 4)[3:],
                "path": lambda: [sig],
                "graded-scale": lambda: [graded_scale(sig, 1.5)],
                "json": lambda: [s for _, s in read_signatures_json(io.StringIO(text))],
                }[how]()
        for s in sigs:
            assert (s.dim, s.depth) == (2, 4)
            for k, lvl in enumerate(s.levels):
                assert lvl.dtype == np.float64 and lvl.shape == (2**k,)
                assert not lvl.flags.writeable

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_refuses_non_finite_level(self, bad):
        with pytest.raises(ValueError, match="level 1 has a non-finite"):
            TruncatedSignature(2, [[1.0], [0.5, bad], [0.0] * 4])

    @pytest.mark.parametrize("levels, cap, error, message", [
        ([[1.0], [np.nan, 0.5], [0.0] * 3], None, ValueError,
         r"^a degree-2 tensor over R\^2 needs shape \(4,\), got \(3,\)$"),
        ([[1.0], [0.5], [0.0] * 4], 3, AllocationCapError,
         r"^a degree-2 tensor over R\^2 needs 2\*\*2 coefficients, "
         r"above the cap of 3;"),
        ([[1.0], ["x", 0.5], [0.0] * 4], 3, AllocationCapError, "cap"),
        ([[1.0], [0.5, 0.5], [0.0] * 4], 3, AllocationCapError, "cap"),
        ([[1.0], 0.5, [np.inf] * 4], None, ValueError, r"got \(\)$"),
        ([[1.0], "12", [np.inf] * 4], None, ValueError, r"got \(\)$"),
        ([[[1.0]], [0.5, 0.5]], None, ValueError, r"got \(1, 1\)$"),
        ([np.ones((1, 1)), [0.5, 0.5]], None, ValueError, r"got \(1, 1\)$"),
    ], ids=["non-finite-then-short", "short-then-past-cap",
            "unconvertible-then-past-cap", "past-cap", "scalar-level",
            "string-level", "nested-level-0", "array-level-0"])
    def test_first_bad_level_decides(self, levels, cap, error, message):
        # the size rule first, then each level's conversion and shape in
        # level order, then finiteness; a scalar or a string is never
        # spread over a level
        previous = get_allocation_cap()
        try:
            set_allocation_cap(cap or previous)
            with pytest.raises(error, match=message):
                TruncatedSignature(2, levels)
        finally:
            set_allocation_cap(previous)

    def test_outside_input_is_converted_and_copied_once(self, rng):
        # each level is converted once and the checked levels are copied
        # once into the buffer: two copies of the coefficients at most
        levels = [rng.standard_normal(3**k).tolist() for k in range(11)]
        size = sum(3**k for k in range(11))
        tracemalloc.start()
        try:
            TruncatedSignature(3, levels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.05 * 8 * size + 64 * 1024

    @pytest.mark.parametrize("how", ["lists", "arrays", "graded-scale", "json"])
    def test_levels_are_views_of_one_buffer(self, rng, how):
        sig = TruncatedSignature(2, [rng.standard_normal(2**k) for k in range(5)])
        text = dumps_signatures([("a", sig)])
        s = {"lists": lambda: TruncatedSignature(2, [l.tolist() for l in sig.levels]),
             "arrays": lambda: TruncatedSignature(2, sig.levels),
             "graded-scale": lambda: graded_scale(sig, 1.5),
             "json": lambda: read_signatures_json(io.StringIO(text))[0][1],
             }[how]()
        buffer = s.level(0).base
        assert buffer is not None and buffer.size == 31
        assert not buffer.flags.writeable
        assert all(lvl.base is buffer for lvl in s.levels)
        assert not np.shares_memory(buffer, sig.level(0).base)

    def test_caller_array_stays_writeable(self):
        x = np.array([0.5, 0.25])
        sig = TruncatedSignature(2, [[1.0], x])
        assert x.flags.writeable
        x[0] = 1.0
        assert sig.level(1).tolist() == [0.5, 0.25]

    def test_constructor_refuses_the_depth_signing_refuses(self):
        # over R^1 both count 17 coefficients a level against 4 times the cap
        path = PiecewiseLinearPath([[0.0], [1.0]])
        try:
            for cap in (5, 1000, 4321):
                set_allocation_cap(cap)
                depth = 4 * cap // 17 - 1
                sig = path_signature(path, depth)
                assert TruncatedSignature(1, sig.levels).depth == depth
                for make in (lambda: path_signature(path, depth + 1),
                             lambda: TruncatedSignature(1, sig.levels + ([0.0],))):
                    with pytest.raises(AllocationCapError, match="levels"):
                        make()
        finally:
            set_allocation_cap(DEFAULT_MAX_COEFFS)

    def test_dim_past_the_cap_refused_at_depth_0(self):
        set_allocation_cap(1000)
        try:
            with pytest.raises(AllocationCapError, match="cap"):
                TruncatedSignature(1001, [[1.0]])
            assert TruncatedSignature(1000, [[1.0]]).depth == 0
        finally:
            set_allocation_cap(DEFAULT_MAX_COEFFS)

    def test_equality_is_identity_and_hashable(self):
        a = TruncatedSignature(2, [[1.0], [0.5, 0.25]])
        b = TruncatedSignature(2, [[1.0], [0.5, 0.25]])
        assert a == a and a != b
        assert len({a, b, a}) == 2
