import numpy as np
import pytest

from spinamp.hilbert import (DensityMatrix, Operator, SpaceDims, eig_hermitian,
                             identity, kron, ladder)


def test_space_dims_product():
    dims = SpaceDims((2, 3, 4))
    assert dims.dim == 24
    assert dims.index(1, 0, 0) == 12


def test_space_dims_rejects_small_factors():
    with pytest.raises(ValueError):
        SpaceDims((2, 1))


class TestLadder:
    def test_d2_is_qubit_lowering(self):
        a = ladder(2)
        assert a.mat[0, 1] == 1.0
        assert np.count_nonzero(a.mat) == 1

    def test_d3_sqrt2_element(self):
        a = ladder(3)
        assert a.mat[1, 2] == pytest.approx(np.sqrt(2), abs=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 8, 16])
    def test_number_operator_eigenvalues(self, d):
        a = ladder(d)
        num = (a.dag() @ a).mat
        np.testing.assert_allclose(np.diag(num).real, np.arange(d), atol=1e-14)
        assert np.count_nonzero(num - np.diag(np.diag(num))) == 0

    def test_rejects_small_cutoff(self):
        with pytest.raises(ValueError):
            ladder(1)

    @pytest.mark.parametrize("d", [2, 3, 5, 12])
    def test_commutator_is_identity_below_cutoff(self, d):
        a = ladder(d)
        comm = a.mat @ a.mat.conj().T - a.mat.conj().T @ a.mat
        # the top diagonal entry carries the truncation artifact -(d-1)
        np.testing.assert_allclose(comm[:-1, :-1], np.eye(d - 1), atol=1e-13)
        assert comm[-1, -1] == pytest.approx(1 - d)


class TestKron:
    def test_identity(self):
        i2 = identity(SpaceDims((2,)))
        i3 = identity(SpaceDims((3,)))
        out = kron(i2, i3)
        np.testing.assert_array_equal(out.mat, np.eye(6))
        assert out.dims.factors == (2, 3)
        assert out.hermitian

    def test_sigma_z_block_structure(self):
        sz = Operator(SpaceDims((2,)), np.diag([-1.0, 1.0]), hermitian=True)
        i3 = identity(SpaceDims((3,)))
        out = kron(sz, i3).mat
        np.testing.assert_array_equal(out[:3, :3], -np.eye(3))
        np.testing.assert_array_equal(out[3:, 3:], np.eye(3))

    def test_flip_flop_maps_e0_to_g1(self):
        d = 3
        sm = ladder(2)  # |g><e|
        a = ladder(d)
        op = kron(sm, a.dag())
        dims = op.dims
        ket = np.zeros(dims.dim)
        ket[dims.index(1, 0)] = 1.0  # |e,0>
        out = op.mat @ ket
        expected = np.zeros(dims.dim)
        expected[dims.index(0, 1)] = 1.0  # |g,1>
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_associativity(self):
        # exactly representable entries, so the product association cannot
        # introduce rounding and equality is exact
        rng = np.random.default_rng(7)
        ops = []
        for d in (2, 3, 2):
            m = (rng.integers(-4, 5, size=(d, d))
                 + 1j * rng.integers(-4, 5, size=(d, d))).astype(complex)
            ops.append(Operator(SpaceDims((d,)), m))
        left = kron(kron(ops[0], ops[1]), ops[2])
        right = kron(ops[0], kron(ops[1], ops[2]))
        np.testing.assert_array_equal(left.mat, right.mat)
        assert left.dims == right.dims


class TestEigHermitian:
    def test_sigma_z(self):
        sz = Operator(SpaceDims((2,)), np.diag([-1.0, 1.0]), hermitian=True)
        w, _ = eig_hermitian(sz)
        np.testing.assert_allclose(w, [-1.0, 1.0])

    def test_sigma_x_vectors(self):
        sx = Operator(SpaceDims((2,)), np.array([[0.0, 1.0], [1.0, 0.0]]),
                      hermitian=True)
        w, v = eig_hermitian(sx)
        np.testing.assert_allclose(w, [-1.0, 1.0])
        np.testing.assert_allclose(np.abs(v), np.full((2, 2), 1 / np.sqrt(2)),
                                   atol=1e-12)

    def test_two_level_closed_form(self):
        delta, g = 3.7, 1.2
        m = Operator(SpaceDims((2,)), np.array([[delta / 2, g], [g, -delta / 2]]),
                     hermitian=True)
        w, _ = eig_hermitian(m)
        root = np.sqrt(delta**2 + 4 * g**2) / 2
        np.testing.assert_allclose(w, [-root, root], rtol=1e-14)

    def test_reconstruction_and_unitarity(self):
        rng = np.random.default_rng(11)
        for d in (4, 9, 16):
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            m = 0.5 * (m + m.conj().T)
            op = Operator(SpaceDims((d,)), m, hermitian=True)
            w, v = eig_hermitian(op)
            assert np.max(np.abs(m @ v - v @ np.diag(w))) < 1e-9
            assert np.max(np.abs(v.conj().T @ v - np.eye(d))) < 1e-10
            assert np.all(np.diff(w) >= 0)

    def test_rejects_unflagged(self):
        a = ladder(3)
        with pytest.raises(ValueError, match="Hermitian"):
            eig_hermitian(a)


def test_hermitian_flag_is_checked():
    with pytest.raises(ValueError, match="Hermitian"):
        Operator(SpaceDims((2,)), np.array([[0.0, 1.0], [0.0, 0.0]]),
                 hermitian=True)


def test_density_matrix_invariants_enforced():
    dims = SpaceDims((2,))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(dims, np.diag([0.5, 0.6]))
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(dims, np.array([[0.5, 0.3], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="eigenvalue"):
        DensityMatrix(dims, np.diag([1.5, -0.5]))


def test_operator_algebra_flags():
    sz = Operator(SpaceDims((2,)), np.diag([-1.0, 1.0]), hermitian=True)
    assert (sz + sz).hermitian
    assert (2.0 * sz).hermitian
    assert not (1j * sz).hermitian
    assert not (sz @ ladder(2)).hermitian
