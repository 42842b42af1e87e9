import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siginvert import (
    AllocationCapError,
    TruncatedSignature,
    batch_signature,
    graded_scale,
    path_signature,
    set_allocation_cap,
)
from siginvert.fileio import read_signatures_json
from siginvert.tensor_algebra import DEFAULT_MAX_COEFFS, check_allocation

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


class TestAllocationCap:
    def test_cap_refused_with_clear_error(self):
        set_allocation_cap(1000)
        try:
            with pytest.raises(AllocationCapError, match="cap"):
                check_allocation(10, 4)
        finally:
            set_allocation_cap(DEFAULT_MAX_COEFFS)

    def test_signature_validates_levels(self):
        for dim, levels in [(2, [[1.0], [1.0, 2.0, 3.0]]), (0, [[1.0]]),
                            (-2, [[1.0]]), (2, [])]:
            with pytest.raises(ValueError):
                TruncatedSignature(dim, levels)


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
