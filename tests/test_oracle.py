import numpy as np
import pytest
from scipy.stats import cauchy, kstest

from spinamp import dynamics, oracle
from spinamp.cli import envelope_deviation
from spinamp.hilbert import DensityMatrix, Operator, SpaceDims, identity, kron, ladder
from spinamp.model import SystemParams, build_drive, build_hc, collapse_ops
from spinamp.oracle import (EnsembleSample, arrowhead_norm, build_full_model,
                            full_model_evolve, lorentzian_ppf,
                            reduced_single_excitation, sample_frequencies,
                            single_excitation_evolve)

TWO_PI = 2.0 * np.pi


class TestSampling:
    def test_median_maps_to_center(self):
        assert lorentzian_ppf(0.5, 7.0, 3.0) == pytest.approx(7.0)

    def test_ks_distance_against_analytic_cdf(self, fig_params):
        s = sample_frequencies(100_000, fig_params.omega_bar, fig_params.gamma,
                               seed=2024, g_collective=fig_params.g_collective)
        stat = kstest(s.freqs, cauchy(loc=fig_params.omega_bar,
                                      scale=fig_params.gamma / 2).cdf).statistic
        assert stat < 0.01

    def test_half_width_splits_samples_evenly(self, fig_params):
        s = sample_frequencies(100_000, fig_params.omega_bar, fig_params.gamma,
                               seed=99, g_collective=fig_params.g_collective)
        frac = np.mean(np.abs(s.freqs - fig_params.omega_bar)
                       > fig_params.gamma / 2)
        assert frac == pytest.approx(0.5, abs=0.01)

    def test_seeded_determinism(self, fig_params):
        a = sample_frequencies(500, fig_params.omega_bar, fig_params.gamma,
                               seed=5, g_collective=fig_params.g_collective)
        b = sample_frequencies(500, fig_params.omega_bar, fig_params.gamma,
                               seed=5, g_collective=fig_params.g_collective)
        np.testing.assert_array_equal(a.freqs, b.freqs)
        np.testing.assert_array_equal(a.couplings, b.couplings)

    def test_truncation_window_enforced(self, fig_params):
        s = sample_frequencies(20_000, fig_params.omega_bar, fig_params.gamma,
                               seed=1, truncation_k=10,
                               g_collective=fig_params.g_collective)
        assert np.max(np.abs(s.freqs - fig_params.omega_bar)) <= 10 * fig_params.gamma

    @pytest.mark.parametrize("n, seed, k", [(2000, 11, 50.0), (2000, 17, 50.0),
                                            (37, 3, 10.0)])
    def test_one_sample_per_stratum(self, fig_params, n, seed, k):
        s = sample_frequencies(n, fig_params.omega_bar, fig_params.gamma,
                               seed=seed, truncation_k=k,
                               g_collective=fig_params.g_collective)
        cdf = cauchy(loc=fig_params.omega_bar, scale=fig_params.gamma / 2).cdf
        lo, hi = cdf(fig_params.omega_bar + np.array([-k, k]) * fig_params.gamma)
        strata = np.floor(n * (cdf(s.freqs) - lo) / (hi - lo)).astype(int)
        np.testing.assert_array_equal(np.bincount(strata, minlength=n),
                                      np.ones(n, dtype=int))

    @pytest.mark.parametrize("omega_bar", [0.0, TWO_PI * 1000.0])
    def test_stratum_edges_stay_inside_window(self, monkeypatch, fig_params,
                                              omega_bar):
        # uniform draws at the very ends of [0, 1) put the outer samples on
        # the window edges, where tan() rounds past +-truncation_k * gamma
        def edge_uniforms(seed, n):
            u = np.full(n, 0.5)
            u[0], u[-1] = 0.0, np.nextafter(1.0, 0.0)
            return u

        monkeypatch.setattr(oracle, "_uniforms", edge_uniforms)
        s = sample_frequencies(100, omega_bar, fig_params.gamma, seed=0,
                               g_collective=fig_params.g_collective)
        offsets = s.freqs[[0, -1]] - omega_bar
        assert np.all(np.abs(offsets) <= 50.0 * fig_params.gamma)
        np.testing.assert_allclose(offsets, [-50.0 * fig_params.gamma,
                                             50.0 * fig_params.gamma], rtol=1e-12)

    def test_uniform_couplings_hit_target(self, fig_params):
        s = sample_frequencies(137, fig_params.omega_bar, fig_params.gamma,
                               seed=3, g_collective=fig_params.g_collective)
        assert s.g_collective == pytest.approx(fig_params.g_collective, rel=1e-12)
        assert np.ptp(s.couplings) == 0.0

    def test_lognormal_couplings_renormalized(self, fig_params):
        s = sample_frequencies(137, fig_params.omega_bar, fig_params.gamma,
                               seed=3, g_collective=fig_params.g_collective,
                               coupling_sigma=0.5)
        assert s.g_collective == pytest.approx(fig_params.g_collective, rel=1e-12)
        assert np.ptp(s.couplings) > 0.0

    # g_j = G / sqrt(N) squares to below the smallest normal double from G
    # about 1e-154 on: the plain sum of squares underflows there, and only
    # there is the norm scaled by max |g_j|
    @pytest.mark.parametrize("coupling", ["default", "lognormal", "tiny", "tiny lognormal"])
    def test_collective_coupling_survives_underflow(self, fig_params, coupling):
        g = TWO_PI * 1e-300 if "tiny" in coupling else fig_params.g_collective
        s = sample_frequencies(2000, fig_params.omega_bar, fig_params.gamma, seed=11,
                               g_collective=g,
                               coupling_sigma=0.5 if "lognormal" in coupling else 0.0)
        assert abs(s.g_collective - g) <= 1e-15 * g
        if "tiny" in coupling:
            assert np.sum(s.couplings**2) < np.finfo(float).tiny
        else:  # the plain formula, to the bit
            assert s.g_collective == float(np.sqrt(np.sum(s.couplings**2)))

    def test_preconditions(self, fig_params):
        with pytest.raises(ValueError):
            sample_frequencies(0, 0.0, 1.0, seed=1)
        with pytest.raises(ValueError):
            sample_frequencies(5, 0.0, 0.0, seed=1)
        with pytest.raises(ValueError, match="truncation"):
            sample_frequencies(5, 0.0, 1.0, seed=1, truncation_k=5)

    def test_sample_invariants_checked(self):
        with pytest.raises(ValueError, match="truncation"):
            EnsembleSample(freqs=np.array([100.0]), couplings=np.array([1.0]),
                           seed=0, truncation=10.0, omega_bar=0.0, gamma=1.0)


class TestStream:
    """The sampler's draws are numpy's default_rng stream for the seed, taken
    without numpy.random."""

    @pytest.mark.parametrize("n", [1, 2, 2000])
    @pytest.mark.parametrize("seed", [0, 1, 11, 13, 17, 2**32 - 1, 2**32, 2**64 + 3,
                                      2**128 + 7])
    def test_uniforms_are_default_rngs_to_the_bit(self, seed, n):
        expected = np.random.default_rng(seed).random(n)
        got = oracle._uniforms(seed, n)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", [3, 11, 2**70 + 3])
    def test_lognormal_couplings_continue_numpys_stream(self, fig_params, seed):
        n, sigma = 137, 0.5
        s = sample_frequencies(n, fig_params.omega_bar, fig_params.gamma, seed=seed,
                               g_collective=fig_params.g_collective,
                               coupling_sigma=sigma)
        # the construction on one numpy generator: the n uniforms, then the
        # couplings
        rng = np.random.default_rng(seed)
        edge = np.arctan(2.0 * 50.0) / np.pi
        lo, hi = 0.5 - edge, 0.5 + edge
        u = lo + (hi - lo) * (np.arange(n) + rng.random(n)) / n
        freqs = lorentzian_ppf(u, fig_params.omega_bar, fig_params.gamma)
        outside = np.abs(freqs - fig_params.omega_bar) > 50.0 * fig_params.gamma
        while outside.any():
            freqs[outside] = np.nextafter(freqs[outside], fig_params.omega_bar)
            outside = np.abs(freqs - fig_params.omega_bar) > 50.0 * fig_params.gamma
        g = rng.lognormal(mean=0.0, sigma=sigma, size=n)
        g *= fig_params.g_collective / np.sqrt(np.sum(g**2))
        assert s.freqs.tobytes() == freqs.tobytes()
        assert s.couplings.tobytes() == g.tobytes()

    @pytest.mark.parametrize("seed, error", [(1.5, TypeError), (-1, ValueError)])
    def test_seeds_are_refused_as_numpy_refuses_them(self, seed, error):
        with pytest.raises(error):
            np.random.default_rng(seed)
        with pytest.raises(error):
            sample_frequencies(10, 0.0, 1.0, seed=seed)


def oracle_plan(s, delta_target, t_end, n_record):
    """validate's plan for the single-excitation solve: the Taylor plan on
    the arrowhead's 2-norm bound."""
    return dynamics.TimeGrid.taylor(arrowhead_norm(s, delta_target), 0.0, t_end, n_record)


class TestSingleExcitation:
    def test_resonant_vacuum_rabi(self):
        # one spin on resonance, no width: |c_e|^2 = cos^2(g t)
        g = TWO_PI * 10.0
        s = EnsembleSample(freqs=np.array([0.0]), couplings=np.array([g]),
                           seed=0, truncation=50.0, omega_bar=0.0, gamma=1.0)
        grid = oracle_plan(s, 0.0, 0.2, 200)
        res = single_excitation_evolve(s, 0.0, grid)
        np.testing.assert_allclose(np.abs(res.c_e) ** 2,
                                   np.cos(g * res.times) ** 2, atol=1e-8)

    def test_degenerate_ensemble_equals_two_level_closed_form(self, fig_params):
        # all spins at the center: exactly a detuned two-level problem with
        # coupling G
        n = 40
        g_j = fig_params.g_collective / np.sqrt(n)
        s = EnsembleSample(freqs=np.full(n, fig_params.omega_bar),
                           couplings=np.full(n, g_j), seed=0, truncation=50.0,
                           omega_bar=fig_params.omega_bar, gamma=fig_params.gamma)
        grid = oracle_plan(s, fig_params.delta, 0.02, 100)
        res = single_excitation_evolve(s, fig_params.delta, grid)
        delta, big_g = fig_params.delta, fig_params.g_collective
        omega = np.sqrt(delta**2 + 4 * big_g**2)
        t = res.times
        c_e = np.exp(-0.5j * delta * t) * (np.cos(omega * t / 2)
                                           - 1j * (delta / omega) * np.sin(omega * t / 2))
        np.testing.assert_allclose(np.abs(res.c_e) ** 2, np.abs(c_e) ** 2,
                                   atol=1e-8)

    def test_norm_conserved(self, fig_params):
        s = sample_frequencies(400, fig_params.omega_bar, fig_params.gamma,
                               seed=8, g_collective=fig_params.g_collective)
        grid = oracle_plan(s, fig_params.delta, 0.1, 250)
        res = single_excitation_evolve(s, fig_params.delta, grid)
        assert np.max(np.abs(res.norm - 1.0)) < 1e-8
        # without decay the drift is the distance from 1, to the bit
        assert res.norm_drift() == float(np.max(np.abs(res.norm - 1.0)))

    def test_norm_stays_in_the_decay_band(self, fig_params):
        gamma_s = TWO_PI * 20.0
        s = sample_frequencies(400, fig_params.omega_bar, fig_params.gamma,
                               seed=8, g_collective=fig_params.g_collective)
        grid = dynamics.TimeGrid.taylor(arrowhead_norm(s, fig_params.delta, gamma_s),
                                        0.0, 0.1, 250)
        res = single_excitation_evolve(s, fig_params.delta, grid, gamma_s)
        assert 1.0 - res.norm[-1] > 0.05
        assert res.norm_drift(gamma_s) < 1e-12
        assert res.norm_drift() > 0.05

    def test_stability_guard(self, fig_params):
        s = sample_frequencies(50, fig_params.omega_bar, fig_params.gamma,
                               seed=8, g_collective=fig_params.g_collective)
        grid = dynamics.TimeGrid(0.0, 1.0, 10, 10, 50)
        with pytest.raises(dynamics.StabilityError):
            single_excitation_evolve(s, fig_params.delta, grid)

    def test_reduced_reference_matches_lindblad(self, fig_params):
        # the exact 2x2 non-Hermitian reference reproduces the master-equation
        # qubit population in the single-excitation sector
        d = 2
        h = build_hc(fig_params, d)
        ops = collapse_ops(fig_params, d)
        num = kron(identity(SpaceDims((2,))), ladder(d).dag() @ ladder(d))
        proj = Operator(SpaceDims((2,)), np.diag([0.0, 1.0]))
        qubit = kron(proj, identity(SpaceDims((d,))))
        rho0 = DensityMatrix.basis(SpaceDims((2, d)), 1, 0)
        model = dynamics.Lindblad.build(h, ops)
        grid = dynamics.TimeGrid.taylor(model.norm, 0.0, 0.1, 100)
        traj = dynamics.evolve(model, rho0, grid, [num, qubit], gamma=fig_params.gamma)
        c_e, c_a = reduced_single_excitation(fig_params.delta,
                                             fig_params.g_collective,
                                             fig_params.gamma, traj.times)
        np.testing.assert_allclose(traj.qubit_excited, np.abs(c_e) ** 2,
                                   atol=1e-7)
        np.testing.assert_allclose(traj.collective_n, np.abs(c_a) ** 2,
                                   atol=1e-7)

    def test_traceout_envelope_smoke(self, fig_params):
        # one-seed version of the N=2000 collective-amplitude comparison over
        # gamma*t <= 3 (the acceptance suite runs three seeds)
        t_end = 3.0 / fig_params.gamma
        s = sample_frequencies(2000, fig_params.omega_bar, fig_params.gamma,
                               seed=11, g_collective=fig_params.g_collective)
        grid = oracle_plan(s, fig_params.delta, t_end, 400)
        res = single_excitation_evolve(s, fig_params.delta, grid)
        _, c_a = reduced_single_excitation(fig_params.delta,
                                           fig_params.g_collective,
                                           fig_params.gamma, res.times)
        dev = envelope_deviation(res.times, np.abs(res.collective), np.abs(c_a))
        assert dev < 0.05


class TestTaylorPlanOracle:
    def test_matches_arrowhead_eigendecomposition(self, fig_params):
        p = fig_params
        s = sample_frequencies(200, p.omega_bar, p.gamma, seed=11,
                               g_collective=p.g_collective)
        t_end = 3.0 / p.gamma
        # a plan on the row sum, larger than the bound the guard reads
        grid = dynamics.TimeGrid.taylor(arrowhead_row_sum(s, p.delta), 0.0, t_end, 100)
        res = single_excitation_evolve(s, p.delta, grid)

        arrow = np.diag(np.concatenate(([p.delta], s.freqs - s.omega_bar)))
        arrow[0, 1:] = arrow[1:, 0] = s.couplings
        w, v = np.linalg.eigh(arrow)
        c = (np.exp(-1j * np.outer(res.times, w)) * v[0]) @ v.T
        np.testing.assert_allclose(res.c_e, c[:, 0], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(res.collective, c[:, 1:] @ s.couplings / s.g_collective,
                                   rtol=0.0, atol=1e-12)
        assert np.max(np.abs(res.norm - 1.0)) < 1e-13


def dense_arrowhead(s, delta_target, gamma_s=0.0):
    """-i(D + C) of the single-excitation system, as a dense matrix."""
    arrow = np.diag(np.concatenate(([delta_target],
                                    s.freqs - s.omega_bar - 0.5j * gamma_s)))
    arrow[0, 1:] = arrow[1:, 0] = s.couplings
    return -1j * arrow


def arrowhead_row_sum(s, delta_target):
    """The largest absolute row sum of the single-excitation generator at
    gamma_s = 0, its exact 1-norm (it is complex symmetric): the coupling
    row alone adds G sqrt(N) for uniform couplings."""
    g = np.abs(s.couplings)
    return max(abs(delta_target) + float(np.sum(g)),
               float(np.max(np.abs(s.freqs - s.omega_bar) + g)))


class TestArrowheadNorm:
    @pytest.mark.parametrize("n", [1, 2, 50, 400])
    @pytest.mark.parametrize("seed", [3, 11, 17])
    @pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("gamma_s", [0.0, TWO_PI * 20.0])
    def test_bounds_the_spectral_norm(self, fig_params, n, seed, sigma, gamma_s):
        p = fig_params
        s = sample_frequencies(n, p.omega_bar, p.gamma, seed=seed,
                               g_collective=p.g_collective, coupling_sigma=sigma)
        exact = np.linalg.norm(dense_arrowhead(s, p.delta, gamma_s), 2)
        assert arrowhead_norm(s, p.delta, gamma_s) >= exact

    @pytest.mark.parametrize("gamma_s", [0.0, TWO_PI * 20.0])
    def test_bounds_the_spectral_norm_when_the_qubit_detuning_dominates(
            self, fig_params, gamma_s):
        p = fig_params
        s = sample_frequencies(50, p.omega_bar, p.gamma, seed=5,
                               g_collective=p.g_collective, truncation_k=10.0)
        delta = 100.0 * p.gamma
        bound = arrowhead_norm(s, delta, gamma_s)
        assert bound == pytest.approx(delta + p.g_collective, rel=1e-15)
        assert bound >= np.linalg.norm(dense_arrowhead(s, delta, gamma_s), 2)

    def test_guard_admits_a_plan_the_row_sum_rejects(self, fig_params):
        p = fig_params
        s = sample_frequencies(2000, p.omega_bar, p.gamma, seed=11,
                               g_collective=p.g_collective)
        grid = dynamics.TimeGrid.taylor(arrowhead_norm(s, p.delta), 0.0, 0.01, 20)
        assert grid.dt * arrowhead_row_sum(s, p.delta) > dynamics.TAYLOR_THETA[grid.degree]
        res = single_excitation_evolve(s, p.delta, grid)
        assert np.max(np.abs(res.norm - 1.0)) < 1e-12

    def test_guard_rejects_a_step_over_the_bound(self, fig_params):
        p = fig_params
        s = sample_frequencies(400, p.omega_bar, p.gamma, seed=11,
                               g_collective=p.g_collective)
        bound = arrowhead_norm(s, p.delta)
        t_end, m = 0.01, 12
        n = int(0.9 * t_end * bound / dynamics.TAYLOR_THETA[m])
        grid = dynamics.TimeGrid(0.0, t_end, n, n, degree=m)
        assert grid.dt * bound > dynamics.TAYLOR_THETA[m]
        with pytest.raises(dynamics.StabilityError,
                           match=r"dt\*norm = .* exceeds theta_12"):
            single_excitation_evolve(s, p.delta, grid)
        # the fewest steps within the bound
        need = int(np.ceil(t_end * bound / dynamics.TAYLOR_THETA[m]))
        ok = dynamics.TimeGrid(0.0, t_end, need, need, degree=m)
        assert ok.dt * bound <= dynamics.TAYLOR_THETA[m]
        single_excitation_evolve(s, p.delta, ok)

    def test_spectral_plan_matches_arrowhead_eigendecomposition(self, fig_params):
        p = fig_params
        s = sample_frequencies(200, p.omega_bar, p.gamma, seed=11,
                               g_collective=p.g_collective)
        t_end = 3.0 / p.gamma
        grid = dynamics.TimeGrid.taylor(arrowhead_norm(s, p.delta), 0.0, t_end, 100)
        row_sum = arrowhead_row_sum(s, p.delta)
        assert row_sum == pytest.approx(np.abs(dense_arrowhead(s, p.delta)).sum(axis=1).max(),
                                        rel=1e-14)
        row_sum_plan = dynamics.TimeGrid.taylor(row_sum, 0.0, t_end, 100)
        assert grid.applications < row_sum_plan.applications
        res = single_excitation_evolve(s, p.delta, grid)

        w, v = np.linalg.eigh(1j * dense_arrowhead(s, p.delta))
        c = (np.exp(-1j * np.outer(res.times, w)) * v[0]) @ v.T
        np.testing.assert_allclose(res.c_e, c[:, 0], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(res.collective, c[:, 1:] @ s.couplings / s.g_collective,
                                   rtol=0.0, atol=1e-12)
        assert np.max(np.abs(res.norm - 1.0)) < 1e-13

    @staticmethod
    def stopped_run_against_expm(p, gamma_s):
        """A 60-spin run over gamma t <= 3 whose steps stop early (the 2-norm
        stop on arrowhead_norm), checked within 1e-12 of the dense expm."""
        from scipy.linalg import expm

        s = sample_frequencies(60, p.omega_bar, p.gamma, seed=13,
                               g_collective=p.g_collective, coupling_sigma=0.5)
        grid = dynamics.TimeGrid.taylor(arrowhead_norm(s, p.delta, gamma_s), 0.0,
                                        3.0 / p.gamma, 40)
        res = single_excitation_evolve(s, p.delta, grid, gamma_s=gamma_s)
        assert res.products < grid.applications

        a = dense_arrowhead(s, p.delta, gamma_s)
        c = np.array([expm(a * t)[:, 0] for t in res.times])
        np.testing.assert_allclose(res.c_e, c[:, 0], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(res.collective, c[:, 1:] @ s.couplings / s.g_collective,
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(res.norm, np.sum(np.abs(c)**2, axis=1), rtol=0.0,
                                   atol=1e-12)
        return res

    def test_closed_spins_match_the_matrix_exponential(self, fig_params):
        self.stopped_run_against_expm(fig_params, 0.0)  # the norm stays 1 too

    def test_decaying_spins_match_the_matrix_exponential(self, fig_params):
        res = self.stopped_run_against_expm(fig_params, TWO_PI * 20.0)
        assert res.norm[-1] < 0.9  # the spins' decay shows

    def test_fused_right_hand_side_is_bitwise_the_plain_one(self, fig_params):
        # the plain form -i(delta c_e + g.c), -i(d_j c_j + g_j c_e); multiplying
        # by -1j only swaps and negates components, so with real d_j (gamma_s
        # = 0, as in validate) the fused form, which multiplies the entries by
        # -1j once, gives the same bits. With complex d_j the complex products
        # may round differently (fused multiply-add), and the expm test above
        # covers that case.
        p = fig_params
        s = sample_frequencies(300, p.omega_bar, p.gamma, seed=17,
                               g_collective=p.g_collective, coupling_sigma=0.5)
        grid = dynamics.TimeGrid.taylor(arrowhead_norm(s, p.delta), 0.0, 0.05, 50)
        res = single_excitation_evolve(s, p.delta, grid)

        g = s.couplings
        dj = (s.freqs - s.omega_bar) - 0.5j * 0.0

        def rhs(c):
            out = np.empty_like(c)
            out[0] = -1j * (p.delta * c[0] + g @ c[1:])
            out[1:] = -1j * (dj * c[1:] + g * c[0])
            return out

        c_e = np.empty(grid.n_record + 1, dtype=complex)
        coll = np.empty(grid.n_record + 1, dtype=complex)

        def record(first, cs, _):
            block = slice(first, first + len(cs))
            c_e[block] = cs[:, 0]
            coll[block] = (cs[:, 1:] @ g) / s.g_collective

        c0 = np.zeros(s.n + 1, dtype=complex)
        c0[0] = 1.0
        # the same 2-norm stop: each step ends where the oracle's does
        products = dynamics.taylor_steps(rhs, c0, grid, record,
                                         bound=arrowhead_norm(s, p.delta), ord=2)
        assert products == res.products < grid.applications
        np.testing.assert_array_equal(res.c_e, c_e)
        np.testing.assert_array_equal(res.collective, coll)


def pure_state_plan(h, t_end, n_record):
    """The Taylor plan of a full-model run at gamma_s = 0, on the norm its
    guard and its steps' stop read: dynamics.omega_max(h)."""
    return dynamics.TimeGrid.taylor(dynamics.omega_max(h), 0.0, t_end, n_record)


class TestFullModel:
    def small_params(self):
        return SystemParams.from_mhz(nu_t=412.5, nu_bar=0.0, g=75.0,
                                     lambda_d=0.0, gamma=12.5)

    def degenerate_sample(self, p, n):
        return EnsembleSample(freqs=np.full(n, p.omega_bar),
                              couplings=np.full(n, p.g_collective / np.sqrt(n)),
                              seed=0, truncation=50.0, omega_bar=p.omega_bar,
                              gamma=p.gamma)

    def spread_sample(self, p):
        return EnsembleSample(
            freqs=p.omega_bar + np.array([-p.gamma / 2, 0.0, p.gamma / 2]),
            couplings=np.full(3, p.g_collective / np.sqrt(3)), seed=0,
            truncation=50.0, omega_bar=p.omega_bar, gamma=p.gamma)

    def test_space_guard(self, fig_params):
        s = sample_frequencies(5, fig_params.omega_bar, fig_params.gamma,
                               seed=0, g_collective=fig_params.g_collective)
        with pytest.raises(ValueError, match="space-size guard"):
            build_full_model(s, fig_params, 3)

    def test_degenerate_only_bright_mode_couples(self):
        p = self.small_params()
        s = self.degenerate_sample(p, 3)
        h, bright, qubit, mode_nums, _ = build_full_model(s, p, 3)
        rec = full_model_evolve(s, 3, p, pure_state_plan(h, 0.05, 100))
        assert np.max(np.abs(rec.subradiant_n)) < 1e-10

    def test_undriven_conservation(self, fig_params):
        s = self.spread_sample(self.small_params())
        p = self.small_params()
        h, *_ = build_full_model(s, p, 3)
        rec = full_model_evolve(s, 3, p, pure_state_plan(h, 0.05, 100))
        total = rec.qubit_excited + rec.total_mode_n
        assert np.max(np.abs(total - total[0])) < 1e-8

    def test_spread_subradiant_growth_correlates_with_bright_mode(self):
        # discrete analogue of the continuum energy-flow identity: during the
        # first dephasing stage the subradiant growth rate tracks <A†A>,
        # once the fast JC beat is averaged out
        p = self.small_params()
        s = self.spread_sample(p)
        h, *_ = build_full_model(s, p, 3)
        t_end = 0.08  # about half the revival period 2*pi/(gamma/2)
        rec = full_model_evolve(s, 3, p, pure_state_plan(h, t_end, 1600))
        omega_jc = np.sqrt(p.delta**2 + 4 * p.g_collective**2)
        dt = rec.times[1] - rec.times[0]
        w = max(1, int(round(TWO_PI / omega_jc / dt)))
        kern = np.ones(w) / w
        bright = np.convolve(rec.bright_n, kern, mode="same")
        growth = np.convolve(np.gradient(rec.subradiant_n, rec.times), kern,
                             mode="same")
        sl = slice(w, len(rec.times) - w)
        r = np.corrcoef(growth[sl], bright[sl])[0, 1]
        assert r > 0.1
        assert rec.subradiant_n[-1] > 1e-4  # transfer actually happened

    def test_single_mode_matches_reduced_model(self, fig_params):
        # n=1 with the full cutoff is the same Hamiltonian as the reduced
        # model at gamma=0 (drive included)
        d = 12
        p = fig_params
        s = self.degenerate_sample(p, 1)
        p_driven = SystemParams.from_mhz(nu_t=412.5, nu_bar=0.0, g=75.0,
                                         lambda_d=40.0, gamma=12.5)
        h_red = build_hc(p_driven, d) + build_drive(p_driven, d)
        # the Lindblad plan of the same H, within the pure-state guard too
        model = dynamics.Lindblad.build(h_red, [])
        grid = dynamics.TimeGrid.taylor(model.norm, 0.0, 0.02, 100)
        assert grid.dt * dynamics.omega_max(h_red) <= dynamics.TAYLOR_THETA[grid.degree]
        rec = full_model_evolve(s, d, p_driven, grid)
        num = kron(identity(SpaceDims((2,))), ladder(d).dag() @ ladder(d))
        proj = Operator(SpaceDims((2,)), np.diag([0.0, 1.0]))
        qubit = kron(proj, identity(SpaceDims((d,))))
        rho0 = DensityMatrix.basis(SpaceDims((2, d)), 1, 0)
        traj = dynamics.evolve(model, rho0, grid, [num, qubit])
        assert np.max(np.abs(rec.bright_n - traj.collective_n)) < 1e-8
        assert np.max(np.abs(rec.qubit_excited - traj.qubit_excited)) < 1e-8

    def test_driven_amplification_is_state_dependent(self):
        # drive on: the excited branch pumps the modes, the ground branch not
        p = SystemParams.from_mhz(nu_t=412.5, nu_bar=0.0, g=75.0,
                                  lambda_d=40.0, gamma=12.5)
        s = EnsembleSample(
            freqs=p.omega_bar + np.array([-p.gamma / 4, p.gamma / 4]),
            couplings=np.full(2, p.g_collective / np.sqrt(2)), seed=0,
            truncation=50.0, omega_bar=p.omega_bar, gamma=p.gamma)
        h, *_ = build_full_model(s, p, 3)
        grid = pure_state_plan(h, 0.05, 100)
        rec_e = full_model_evolve(s, 3, p, grid, initial_qubit="e")
        rec_g = full_model_evolve(s, 3, p, grid, initial_qubit="g")
        assert rec_e.total_mode_n[-1] > 5 * rec_g.total_mode_n[-1]

    def test_gamma_s_lindblad_path(self):
        # with per-mode relaxation the total mode occupation decays
        p = SystemParams.from_mhz(nu_t=412.5, nu_bar=0.0, g=75.0, lambda_d=0.0,
                                  gamma=12.5, gamma_s=20.0)
        s = self.degenerate_sample(p, 2)
        h, *_, modes = build_full_model(s, p, 2)
        collapse = [np.sqrt(p.gamma_s) * aj for aj in modes]
        grid = dynamics.TimeGrid.auto(h, 0.0, 0.05, n_record=50, collapse=collapse)
        rec = full_model_evolve(s, 2, p, grid)
        total = rec.qubit_excited + rec.total_mode_n
        assert total[-1] < total[0] - 0.1

    def test_pure_state_stability_guard(self):
        p = self.small_params()  # gamma_s = 0: the pure-state branch
        s = self.spread_sample(p)
        h, *_ = build_full_model(s, p, 3)
        norm, theta = dynamics.omega_max(h), dynamics.TAYLOR_THETA[16]
        grid = dynamics.TimeGrid(0.0, 0.01, 10, 10, 16)
        with pytest.raises(dynamics.StabilityError,
                           match=r"^dt\*norm = \S+ exceeds theta_16 = 0\.781$"):
            full_model_evolve(s, 3, p, grid)
        # the fewest steps, with records at step ends, that the guard admits
        need = 10 * int(np.ceil(0.01 * norm / theta / 10))
        assert need > 10
        ok = dynamics.TimeGrid(0.0, 0.01, need, 10, 16)
        assert ok.dt * norm <= theta
        assert full_model_evolve(s, 3, p, ok).bright_n.shape == (11,)

    def test_pure_state_norm_is_the_exact_one_norm(self):
        # omega_max is the row sum of |H|, which for a Hermitian H is its
        # 1-norm and infinity norm exactly, and bounds its 2-norm
        p = SystemParams.from_mhz(nu_t=412.5, nu_bar=0.0, g=75.0, lambda_d=40.0,
                                  gamma=12.5)
        h, *_ = build_full_model(self.spread_sample(p), p, 3)
        norm = dynamics.omega_max(h)
        assert norm == pytest.approx(np.linalg.norm(h.mat, 1), rel=1e-15)
        assert norm == pytest.approx(np.linalg.norm(h.mat, np.inf), rel=1e-15)
        assert norm >= np.linalg.norm(h.mat, 2)

    def test_pure_state_steps_stop_early_and_match_expm(self, monkeypatch):
        # the pure-state steps stop on the 1-norm of H, so they apply fewer
        # products than the plan's cap and still meet exp(-iHt) to rounding
        from scipy.linalg import expm

        p = self.small_params()
        s = self.spread_sample(p)
        h, bright, qubit, *_ = build_full_model(s, p, 3)
        grid = pure_state_plan(h, 0.05, 20)
        runs = []
        stepper = dynamics.taylor_steps

        def counted(*args, **kwargs):
            runs.append(stepper(*args, **kwargs))
            return runs[-1]
        monkeypatch.setattr(dynamics, "taylor_steps", counted)
        rec = full_model_evolve(s, 3, p, grid)
        assert 0 < runs[0] < grid.applications
        psi0 = np.zeros(h.dim, dtype=complex)
        psi0[h.dims.index(1, 0, 0, 0)] = 1.0
        step = expm(-1j * (grid.times[1] - grid.times[0]) * h.mat)
        psis = [psi0]
        for _ in range(grid.n_record):
            psis.append(step @ psis[-1])
        psis = np.array(psis)
        for got, op in ((rec.bright_n, bright), (rec.qubit_excited, qubit)):
            want = np.einsum("ki,ij,kj->k", psis.conj(), op.mat, psis).real
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
