import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siginvert import (
    AllocationCapError,
    TensorLevel,
    TruncatedSignature,
    graded_scale,
    linear_signature,
    path_signature,
    permute,
    set_allocation_cap,
    tensor_product,
)
from siginvert.tensor_algebra import DEFAULT_MAX_COEFFS, check_allocation

from conftest import random_path
from oracles import (
    entry,
    euclidean_norm,
    multi_index_to_offset,
    offset_to_multi_index,
    zero_level,
)


def random_level(rng, dim, degree):
    return TensorLevel(dim, degree, rng.normal(size=dim**degree))


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
        a = random_level(rng, 3, 2)
        assert entry(a, (2, 3)) == a.coeffs[1 * 3 + 2]


class TestTensorProduct:
    def test_basis_element(self):
        e1 = TensorLevel(2, 1, [1.0, 0.0])
        e2 = TensorLevel(2, 1, [0.0, 1.0])
        out = tensor_product(e1, e2)
        np.testing.assert_array_equal(out.coeffs, [0.0, 1.0, 0.0, 0.0])

    def test_scalar_scaling(self):
        s = TensorLevel.scalar(2, 3.0)
        v = TensorLevel(2, 1, [1.0, 2.0])
        np.testing.assert_array_equal(tensor_product(s, v).coeffs, [3.0, 6.0])

    def test_matches_triple_loop_oracle(self, rng):
        a = random_level(rng, 2, 2)
        b = random_level(rng, 2, 1)
        out = tensor_product(a, b)
        for idx_a in itertools.product((1, 2), repeat=2):
            for idx_b in ((1,), (2,)):
                assert entry(out, idx_a + idx_b) == pytest.approx(
                    entry(a, idx_a) * entry(b, idx_b), abs=0.0
                )

    def test_bilinear(self, rng):
        a1, a2 = random_level(rng, 2, 2), random_level(rng, 2, 2)
        b = random_level(rng, 2, 3)
        lhs = tensor_product(
            TensorLevel(2, 2, 2.0 * a1.coeffs + a2.coeffs), b
        ).coeffs
        rhs = 2.0 * tensor_product(a1, b).coeffs + tensor_product(a2, b).coeffs
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_dim_mismatch(self, rng):
        with pytest.raises(ValueError):
            tensor_product(random_level(rng, 2, 1), random_level(rng, 3, 1))


class TestEuclideanNorm:
    def test_single_entry(self):
        assert euclidean_norm(TensorLevel(2, 2, [0.5, 0, 0, 0])) == 0.5

    def test_zero(self):
        assert euclidean_norm(zero_level(3, 2)) == 0.0

    def test_multiplicative_over_products(self, rng):
        # admissible-norm law (ii)
        for _ in range(20):
            a = random_level(rng, 2, rng.integers(1, 4))
            b = random_level(rng, 2, rng.integers(1, 4))
            assert euclidean_norm(tensor_product(a, b)) == pytest.approx(
                euclidean_norm(a) * euclidean_norm(b), abs=1e-12, rel=1e-12
            )


class TestPermute:
    def test_swap_is_transpose(self, rng):
        # positions swap: coefficient at (j1, j2) comes from (j2, j1)
        a = random_level(rng, 2, 2)
        out = permute(a, (2, 1))
        np.testing.assert_array_equal(
            out.coeffs.reshape(2, 2), a.coeffs.reshape(2, 2).T
        )

    def test_identity(self, rng):
        a = random_level(rng, 3, 3)
        np.testing.assert_array_equal(permute(a, (1, 2, 3)).coeffs, a.coeffs)

    def test_three_cycle(self, rng):
        a = random_level(rng, 2, 3)
        sigma = (2, 3, 1)
        out = permute(a, sigma)
        for idx in itertools.product((1, 2), repeat=3):
            # slot m of the result holds the source axis sigma(m)
            src = (idx[sigma[0] - 1], idx[sigma[1] - 1], idx[sigma[2] - 1])
            assert entry(out, src) == entry(a, idx)

    def test_norm_preserved(self, rng):
        # admissible-norm law (i)
        for _ in range(20):
            k = int(rng.integers(1, 5))
            a = random_level(rng, 2, k)
            sigma = tuple(rng.permutation(k) + 1)
            assert euclidean_norm(permute(a, sigma)) == pytest.approx(
                euclidean_norm(a), abs=1e-12
            )

    def test_rejects_non_bijection(self, rng):
        with pytest.raises(ValueError):
            permute(random_level(rng, 2, 2), (1, 1))


class TestGradedScale:
    def test_alpha_one_is_identity(self, rng):
        s = linear_signature(rng.normal(size=2), 1.0, 3)
        t = graded_scale(s, 1.0)
        for k in range(4):
            np.testing.assert_array_equal(t.level(k), s.level(k))

    def test_definition(self):
        s = TruncatedSignature.from_arrays(
            2, [[1.0], [1.0, 2.0], [1.0, 0.0, 0.0, 1.0]]
        )
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
        with pytest.raises(ValueError):
            TruncatedSignature.from_arrays(2, [[1.0], [1.0, 2.0, 3.0]])
