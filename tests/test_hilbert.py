"""Tests for the multi-mode operator algebra, and for the tests' own
multi-mode toolkit in ``support``."""

import numpy as np
import pytest

from qretrodict.errors import DimensionMismatch, ValidationError
from qretrodict.hilbert import ModeDims, Operator
from support import (
    adjoint,
    identity,
    is_hermitian,
    is_psd,
    is_unitary,
    matrix_exp,
    partial_trace,
    tensor,
)


def random_operator(rng, dims):
    md = ModeDims(tuple(dims))
    d = md.total_dim
    mat = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return Operator(mat, md)


def random_anti_hermitian(rng, d):
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return Operator((x - x.conj().T) / 2.0)


class TestConstruction:
    def test_single_mode_dims_inferred(self):
        op = Operator(np.eye(3))
        assert op.dims.dims == (3,)
        assert op.total_dim == 3

    def test_repr_names_the_dims_and_the_matrix(self):
        op = Operator(np.diag([1.0, 2.0]), ModeDims((2,)))
        assert repr(op) == f"Operator(dims=(2,), mat=\n{op.mat})"

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            Operator(np.ones((2, 3)))

    def test_rejects_non_finite_entries(self):
        bad = np.eye(2, dtype=complex)
        bad[0, 1] = np.nan
        with pytest.raises(ValidationError):
            Operator(bad)
        bad2 = np.eye(2, dtype=complex)
        bad2[1, 0] = np.inf
        with pytest.raises(ValidationError):
            Operator(bad2)

    def test_rejects_dims_product_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Operator(np.eye(5), ModeDims((2, 3)))

    def test_rejects_empty_or_invalid_mode_dims(self):
        with pytest.raises(ValidationError):
            ModeDims(())
        with pytest.raises(ValidationError):
            ModeDims((2, 0))
        with pytest.raises(ValidationError):
            ModeDims((-1,))

    def test_matrix_is_immutable(self):
        op = Operator(np.eye(2))
        with pytest.raises(ValueError):
            op.mat[0, 0] = 5.0

    def test_input_array_is_copied(self):
        src = np.eye(2, dtype=complex)
        op = Operator(src)
        src[0, 0] = 7.0
        assert op.mat[0, 0] == 1.0

    def test_constructor_neither_freezes_nor_aliases_a_complex_input(self):
        src = np.eye(3, dtype=complex)
        op = Operator(src)
        assert src.flags.writeable
        assert not np.shares_memory(op.mat, src)
        assert not op.mat.flags.writeable

    def test_adopted_matrix_is_checked_and_frozen_without_a_copy(self):
        src = np.eye(3, dtype=complex)
        op = Operator._adopt(src, (3,))
        assert op.mat is src and not src.flags.writeable
        assert op.dims == ModeDims((3,))
        bad = np.eye(2, dtype=complex)
        bad[0, 1] = np.nan
        with pytest.raises(ValidationError):
            Operator._adopt(bad)


class TestTensor:
    def test_entrywise_against_index_formula(self):
        # (A (x) B)[2i+k, 2j+l] == A[i,j] * B[k,l] with the left factor major.
        rng = np.random.default_rng(7)
        a = random_operator(rng, [2])
        b = random_operator(rng, [2])
        t = tensor(a, b)
        assert t.dims.dims == (2, 2)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        expected = a.mat[i, j] * b.mat[k, l]
                        assert t.mat[2 * i + k, 2 * j + l] == pytest.approx(expected)

    def test_trace_multiplicativity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = random_operator(rng, [rng.integers(1, 5)])
            b = random_operator(rng, [rng.integers(1, 5)])
            lhs = np.trace(tensor(a, b).mat)
            rhs = np.trace(a.mat) * np.trace(b.mat)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_identity_tensor_identity(self):
        t = tensor(identity([2]), identity([3]))
        np.testing.assert_allclose(t.mat, np.eye(6))
        assert t.dims.dims == (2, 3)


class TestPartialTrace:
    def brute_force(self, op, mode_index):
        """Reference partial trace by explicit index summation."""
        dims = op.dims.dims
        n = len(dims)
        keep = [m for m in range(n) if m != mode_index]
        kept_dims = tuple(dims[m] for m in keep)
        d_out = int(np.prod(kept_dims)) if keep else 1
        out = np.zeros((d_out, d_out), dtype=complex)
        full = op.mat.reshape(dims + dims)
        for row in np.ndindex(*kept_dims):
            for col in np.ndindex(*kept_dims):
                total = 0.0
                for s in range(dims[mode_index]):
                    idx_r = list(row)
                    idx_c = list(col)
                    idx_r.insert(mode_index, s)
                    idx_c.insert(mode_index, s)
                    total += full[tuple(idx_r) + tuple(idx_c)]
                r = np.ravel_multi_index(row, kept_dims) if keep else 0
                c = np.ravel_multi_index(col, kept_dims) if keep else 0
                out[r, c] = total
        return out

    def test_matches_brute_force_index_sum(self):
        rng = np.random.default_rng(23)
        for dims in ([2, 3], [3, 2], [2, 2, 3], [4]):
            op = random_operator(rng, dims)
            for mode in range(len(dims)):
                got = partial_trace(op, mode)
                np.testing.assert_allclose(got.mat, self.brute_force(op, mode),
                                           atol=1e-12)

    def test_traces_out_known_product(self):
        rng = np.random.default_rng(31)
        a = random_operator(rng, [3])
        b = random_operator(rng, [2])
        ab = tensor(a, b)
        over_b = partial_trace(ab, 1)
        np.testing.assert_allclose(over_b.mat, a.mat * np.trace(b.mat), atol=1e-12)
        over_a = partial_trace(ab, 0)
        np.testing.assert_allclose(over_a.mat, b.mat * np.trace(a.mat), atol=1e-12)

    def test_preserves_total_trace(self):
        rng = np.random.default_rng(37)
        op = random_operator(rng, [2, 3, 2])
        for mode in range(3):
            reduced = partial_trace(op, mode)
            np.testing.assert_allclose(np.trace(reduced.mat), np.trace(op.mat),
                                       atol=1e-12)

    def test_only_mode_leaves_scalar_space(self):
        rng = np.random.default_rng(41)
        op = random_operator(rng, [4])
        reduced = partial_trace(op, 0)
        assert reduced.mat.shape == (1, 1)
        assert reduced.dims.dims == (1,)
        np.testing.assert_allclose(reduced.mat[0, 0], np.trace(op.mat), atol=1e-12)

    def test_rejects_out_of_range_mode(self):
        op = Operator(np.eye(6), ModeDims((2, 3)))
        with pytest.raises(DimensionMismatch):
            partial_trace(op, 2)
        with pytest.raises(DimensionMismatch):
            partial_trace(op, -1)


class TestAlgebra:
    def test_adjoint_reverses_products(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            a = random_operator(rng, [3])
            b = random_operator(rng, [3])
            lhs = adjoint(a @ b)
            rhs = adjoint(b) @ adjoint(a)
            np.testing.assert_allclose(lhs.mat, rhs.mat, atol=1e-12)

    def test_add_scale_matmul_mismatch_raises(self):
        a = Operator(np.eye(2))
        b = Operator(np.eye(3))
        with pytest.raises(DimensionMismatch):
            a + b
        with pytest.raises(DimensionMismatch):
            a - b
        with pytest.raises(DimensionMismatch):
            a @ b

    def test_mode_structure_mismatch_raises(self):
        # Same total size, different factorization: refuse to combine.
        a = Operator(np.eye(4), ModeDims((4,)))
        b = Operator(np.eye(4), ModeDims((2, 2)))
        with pytest.raises(DimensionMismatch):
            a + b
        with pytest.raises(DimensionMismatch):
            a @ b

    def test_operator_dunders_delegate(self):
        rng = np.random.default_rng(47)
        a = random_operator(rng, [2])
        b = random_operator(rng, [2])
        np.testing.assert_allclose((a + b).mat, a.mat + b.mat)
        np.testing.assert_allclose((a - b).mat, a.mat - b.mat)
        np.testing.assert_allclose((a @ b).mat, a.mat @ b.mat)
        np.testing.assert_allclose((2.5 * a).mat, 2.5 * a.mat)


class TestMatrixExp:
    def test_two_by_two_rotation_closed_form(self):
        # exp(i theta X) = cos(theta) I + i sin(theta) X for X = sigma_x.
        theta = 0.3
        sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
        got = matrix_exp(Operator(1j * theta * sigma_x))
        expected = np.cos(theta) * np.eye(2) + 1j * np.sin(theta) * sigma_x
        np.testing.assert_allclose(got.mat, expected, atol=1e-12)

    def test_exp_times_exp_of_negative_is_identity(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            a = random_anti_hermitian(rng, 6)
            prod = matrix_exp(a) @ matrix_exp(-1.0 * a)
            assert np.max(np.abs(prod.mat - np.eye(6))) <= 1e-10

    def test_anti_hermitian_exponential_is_unitary(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            u = matrix_exp(random_anti_hermitian(rng, 5))
            assert is_unitary(u, tol=1e-9)


class TestPredicates:
    def test_is_hermitian(self):
        assert is_hermitian(Operator(np.array([[1.0, 2 + 1j], [2 - 1j, 3.0]])))
        assert not is_hermitian(Operator(np.array([[0, 1], [0, 0]], dtype=complex)))

    def test_is_psd_accepts_gram_matrices(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            assert is_psd(Operator(x.conj().T @ x))

    def test_is_psd_rejects_negative_direction(self):
        assert not is_psd(Operator(np.diag([1.0, -0.5]).astype(complex)))

    def test_is_psd_rejects_non_hermitian(self):
        assert not is_psd(Operator(np.array([[1, 1], [0, 1]], dtype=complex)))

    def test_psd_tolerance_admits_tiny_negative_eigenvalue(self):
        op = Operator(np.diag([1.0, -1e-12]).astype(complex))
        assert is_psd(op)
        assert not is_psd(op, tol=1e-15)

    def test_is_unitary(self):
        assert is_unitary(identity([4]))
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]], dtype=complex)
        assert is_unitary(Operator(rot))
        assert not is_unitary(Operator(2 * np.eye(2, dtype=complex)))
