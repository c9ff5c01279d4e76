import numpy as np
import pytest

from spinamp.analytic import jc_spectrum
from spinamp.hilbert import SpaceDims, eig_hermitian
from spinamp.model import (SystemParams, build_anc, build_dispersive, build_drive,
                           build_hc, collapse_ops)

TWO_PI = 2.0 * np.pi


def params_mhz(**kw):
    base = dict(nu_t=412.5, nu_bar=0.0, g=75.0, lambda_d=40.0, gamma=12.5)
    base.update(kw)
    return SystemParams.from_mhz(**base)


def test_matched_drive_resolution(fig_params):
    # omega_d = omega_bar + G^2/Delta
    chi = fig_params.g_collective**2 / fig_params.delta
    assert fig_params.omega_d == pytest.approx(fig_params.omega_bar + chi, rel=1e-15)


def test_explicit_drive():
    p = params_mhz(drive=100.0)
    assert p.omega_d == pytest.approx(TWO_PI * 100.0)


def test_drive_choice_errors():
    with pytest.raises(ValueError, match="detuning"):
        params_mhz(nu_t=5.0, nu_bar=5.0)
    with pytest.raises(ValueError, match="unknown"):
        params_mhz(drive="resonant")


def test_params_validation():
    with pytest.raises(ValueError, match="coupling"):
        params_mhz(g=-1.0)
    with pytest.raises(ValueError, match="rates"):
        params_mhz(gamma=-0.1)


class TestBuildHc:
    def test_decoupled_diagonal(self):
        # G -> 0 limit approximated with a tiny G, drive at the ensemble line
        p = SystemParams.from_mhz(nu_t=412.5, nu_bar=0.0, g=1e-12,
                                  lambda_d=0.0, gamma=0.0, drive=0.0)
        d = 5
        h = build_hc(p, d).mat
        np.testing.assert_allclose(h, np.diag(np.diag(h)), atol=1e-9)
        det_t = p.omega_t - p.omega_d
        for n in range(d):
            assert h[d + n, d + n].real == pytest.approx(det_t / 2, rel=1e-12)

    def test_flip_flop_matrix_element(self, fig_params):
        d = 6
        h = build_hc(fig_params, d)
        dims = SpaceDims((2, d))
        elem = h.mat[dims.index(1, 0), dims.index(0, 1)]  # <e,0|H|g,1>
        assert elem == pytest.approx(fig_params.g_collective, rel=1e-15)

    def test_hermitian_to_1e12(self, fig_params):
        for build in (build_hc, build_dispersive):
            h = build(fig_params, 8)
            assert np.max(np.abs(h.mat - h.mat.conj().T)) < 1e-12

    def test_conserves_total_excitation_exactly(self, fig_params):
        d = 8
        h = build_hc(fig_params, d).mat
        num = np.kron(np.eye(2), np.diag(np.arange(d)))
        qubit = np.kron(np.diag([0.0, 1.0]), np.eye(d))
        ntot = num + qubit
        comm = h @ ntot - ntot @ h
        assert np.count_nonzero(comm) == 0

    def test_block_eigenvalues_match_closed_form(self, fig_params):
        # numerical diagonalization oracle for the dressed doublets
        d = 14
        h = build_hc(fig_params, d)
        w, v = eig_hermitian(h)
        num = np.kron(np.eye(2), np.diag(np.arange(d)))
        qubit = np.kron(np.diag([0.0, 1.0]), np.eye(d))
        exc = np.real(np.einsum("ij,jk,ki->i", v.conj().T, num + qubit, v))
        for n in range(11):
            block = np.sort(w[np.abs(exc - (n + 1)) < 0.5])
            level = jc_spectrum(n, fig_params)
            assert block[0] == pytest.approx(level.omega_minus, rel=1e-9)
            assert block[1] == pytest.approx(level.omega_plus, rel=1e-9)


class TestBuildDrive:
    def test_zero_drive(self):
        p = params_mhz(lambda_d=0.0)
        assert np.count_nonzero(build_drive(p, 4).mat) == 0

    def test_matrix_element_is_half_lambda(self, fig_params):
        d = 5
        hd = build_drive(fig_params, d).mat
        dims = SpaceDims((2, d))
        for n in range(d):
            elem = hd[dims.index(1, n), dims.index(0, n)]
            assert elem == pytest.approx(TWO_PI * 20.0, rel=1e-15)

    def test_commutes_with_mode_number(self, fig_params):
        d = 5
        hd = build_drive(fig_params, d).mat
        num = np.kron(np.eye(2), np.diag(np.arange(d)))
        assert np.count_nonzero(hd @ num - num @ hd) == 0


class TestBuildDispersive:
    def test_diagonal(self, fig_params):
        h = build_dispersive(fig_params, 6).mat
        assert np.count_nonzero(h - np.diag(np.diag(h))) == 0

    def test_qubit_gap_per_fock_level(self, fig_params):
        d = 6
        h = build_dispersive(fig_params, d).mat
        dims = SpaceDims((2, d))
        chi = fig_params.g_collective**2 / fig_params.delta
        det_t = fig_params.omega_t - fig_params.omega_d
        for n in range(d):
            gap = (h[dims.index(1, n), dims.index(1, n)]
                   - h[dims.index(0, n), dims.index(0, n)]).real
            assert gap == pytest.approx(det_t + chi + 2 * n * chi, rel=1e-12)

    def test_matched_drive_excited_mode_coefficient_vanishes(self, fig_params):
        d = 6
        h = build_dispersive(fig_params, d).mat
        dims = SpaceDims((2, d))
        coef = (h[dims.index(1, 1), dims.index(1, 1)]
                - h[dims.index(1, 0), dims.index(1, 0)]).real
        assert abs(coef) < 1e-12

    def test_matched_drive_ground_mode_coefficient(self, fig_params):
        d = 6
        h = build_dispersive(fig_params, d).mat
        dims = SpaceDims((2, d))
        coef = (h[dims.index(0, 1), dims.index(0, 1)]
                - h[dims.index(0, 0), dims.index(0, 0)]).real
        expected = -2 * fig_params.g_collective**2 / fig_params.delta
        assert coef == pytest.approx(expected, rel=1e-12)
        assert coef == pytest.approx(-TWO_PI * 27.272727272727273, rel=1e-12)

    def test_agrees_with_hc_in_deep_dispersive_regime(self):
        # relative gap < (G/Delta)^2 per level for total excitation <= 1
        rng = np.random.default_rng(5)
        for _ in range(6):
            ratio = rng.uniform(20, 60)
            g = rng.uniform(10, 100)
            p = SystemParams.from_mhz(nu_t=ratio * g, nu_bar=0.0, g=g,
                                      lambda_d=0.0, gamma=0.0)
            d = 3
            dims = SpaceDims((2, d))
            h_hc = build_hc(p, d).mat
            h_disp = build_dispersive(p, d).mat
            i_g0, i_e0, i_g1 = dims.index(0, 0), dims.index(1, 0), dims.index(0, 1)
            # zero-excitation level is shared exactly
            pairs = [(h_hc[i_g0, i_g0].real, h_disp[i_g0, i_g0].real)]
            # one-excitation doublet of the coupled model vs the diagonal pair
            block = h_hc[np.ix_([i_e0, i_g1], [i_e0, i_g1])]
            w = np.linalg.eigvalsh(block)
            pairs.append((w[1], h_disp[i_e0, i_e0].real))
            pairs.append((w[0], h_disp[i_g1, i_g1].real))
            for a, b in pairs:
                assert abs(a - b) / max(abs(a), 1e-12) < (p.g_collective / p.delta) ** 2

    def test_rejects_zero_detuning(self):
        p = SystemParams.from_mhz(nu_t=0.0, nu_bar=0.0, g=75.0, lambda_d=0.0,
                                  gamma=0.0, drive=0.0)
        with pytest.raises(ValueError, match="Delta"):
            build_dispersive(p, 4)
        with pytest.raises(ValueError, match="Delta"):
            build_anc(p, "e", 4)


class TestBuildAnc:
    def test_excited_matched_is_pure_displacement_drive(self, fig_params):
        d = 6
        h = build_anc(fig_params, "e", d).mat
        lam_eff = 0.5 * fig_params.lambda_d * fig_params.g_collective / fig_params.delta
        a = np.diag(np.sqrt(np.arange(1, d)), 1)
        np.testing.assert_allclose(h, lam_eff * (a + a.conj().T), atol=1e-10)

    def test_ground_matched(self, fig_params):
        d = 6
        h = build_anc(fig_params, "g", d).mat
        chi = fig_params.g_collective**2 / fig_params.delta
        lam_eff = 0.5 * fig_params.lambda_d * fig_params.g_collective / fig_params.delta
        a = np.diag(np.sqrt(np.arange(1, d)), 1)
        expected = -2 * chi * np.diag(np.arange(d)) - lam_eff * (a + a.conj().T)
        np.testing.assert_allclose(h, expected, atol=1e-10)

    def test_zero_drive_pure_detuning(self):
        p = params_mhz(lambda_d=0.0)
        d = 5
        h = build_anc(p, "g", d).mat
        assert np.count_nonzero(h - np.diag(np.diag(h))) == 0

    def test_rejects_bad_state(self, fig_params):
        with pytest.raises(ValueError, match="qubit_state"):
            build_anc(fig_params, "x", 4)


class TestCollapseOps:
    def test_no_decay_no_ops(self):
        p = params_mhz(gamma=0.0)
        assert collapse_ops(p, 4) == []

    def test_norm_scales_as_sqrt_gamma_d(self, fig_params):
        d = 9
        (op,) = collapse_ops(fig_params, d)
        norm = np.linalg.norm(op.mat, ord=2)
        assert norm == pytest.approx(np.sqrt(fig_params.gamma) * np.sqrt(d - 1),
                                     rel=1e-12)

    def test_doubling_gamma_doubles_ldl(self):
        p1 = params_mhz(gamma=10.0)
        p2 = params_mhz(gamma=20.0)
        (l1,) = collapse_ops(p1, 5)
        (l2,) = collapse_ops(p2, 5)
        np.testing.assert_allclose(l2.mat.conj().T @ l2.mat,
                                   2 * (l1.mat.conj().T @ l1.mat), rtol=1e-12)

    def test_gamma_s_adds_channel(self):
        p = params_mhz(gamma_s=1.0)
        ops = collapse_ops(p, 4)
        assert len(ops) == 2

    def test_mode_only_space(self, fig_params):
        (op,) = collapse_ops(fig_params, 6, include_qubit=False)
        assert op.dims.factors == (6,)
