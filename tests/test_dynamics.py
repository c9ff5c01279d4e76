import tracemalloc
from math import factorial, isqrt

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm

from spinamp import dynamics
from spinamp.analytic import excited_population, ground_population
from spinamp.dynamics import (PLAN_MAX_DEGREE, POSITIVITY_TOL,
                              RECORD_BLOCK_BYTES, TAYLOR_THETA, IntegrationError,
                              StabilityError, TimeGrid,
                              check_stability, csr_sum, density_matrices, evolve,
                              generator_gap, hermitian_coords, liouvillian, norm_bound,
                              real_generator, readout_gain, taylor_steps)
from spinamp.hilbert import (DensityMatrix, Operator, SpaceDims, identity,
                             kron, ladder)
from spinamp.model import SystemParams, build_anc, build_drive, build_hc, collapse_ops

from conftest import expm_records, rk4, rk4_lindblad, rk4_steps

TWO_PI = 2.0 * np.pi


def joint_observables(d):
    a = ladder(d)
    num = kron(identity(SpaceDims((2,))), a.dag() @ a)
    proj = Operator(SpaceDims((2,)), np.diag([0.0, 1.0]))
    qubit = kron(proj, identity(SpaceDims((d,))))
    return num, qubit


def mode_number(d):
    a = ladder(d)
    return a.dag() @ a


def fewest_passing_steps(scale, t_end, limit, n_record):
    """The fewest steps over [0, t_end] with dt * scale <= limit and records
    at step ends: a multiple of n_record."""
    n = n_record * max(1, int(np.ceil(t_end * scale / limit / n_record)))
    while t_end / n * scale > limit:
        n += n_record
    return n


def scipy_csr(a):
    """A dynamics.CsrMatrix as scipy's CSR array, for products and arithmetic."""
    return sparse.csr_array((a.data, a.indices, a.indptr), shape=a.shape)


def canonical(a):
    """scipy's sparse a as a dynamics.CsrMatrix, through the canonicalising
    constructor."""
    coo = sparse.coo_array(a)
    return csr_sum([(coo.row, coo.col, coo.data)], a.shape)


def scipy_liouvillian(h, collapse):
    """L = K ⊗ I + I ⊗ conj(K) + sum_k J_k ⊗ conj(J_k) summed by scipy.sparse:
    the reference for the bits of ``liouvillian``."""
    k = -1j * h.mat
    for ell in collapse:
        k = k - 0.5 * (ell.mat.conj().T @ ell.mat)
    eye = sparse.eye_array(h.dim, dtype=complex, format="csr")
    lv = sparse.kron(k, eye) + sparse.kron(eye, k.conj())
    for ell in collapse:
        lv = lv + sparse.kron(ell.mat, ell.mat.conj())
    lv = sparse.csr_array(lv)
    lv.eliminate_zeros()  # scipy keeps the zeros of a dense factor's blocks
    return lv


def scipy_real_generator(lv):
    """R of a scipy Liouvillian: each entry of L in the column of the Re
    coordinate of its pair and, off the diagonal columns, the entry of the
    Im coordinate, summed and pruned by scipy: the reference for the bits of
    ``real_generator``."""
    dim = isqrt(lv.shape[0])
    coo = lv.tocoo()
    r, c, v = coo.row, coo.col, coo.data
    a, b = np.divmod(c, dim)
    upper = r // dim <= r % dim
    re, im = np.where(upper, v.real, -v.imag), np.where(upper, v.imag, v.real)
    low, high = np.minimum(a, b), np.maximum(a, b)
    off = a != b
    gen = sparse.csr_array((np.concatenate([re, (np.sign(a - b) * im)[off]]),
                            (np.concatenate([r, r[off]]),
                             np.concatenate([low * dim + high, (high * dim + low)[off]]))),
                           shape=lv.shape)
    gen.eliminate_zeros()
    return gen


class TestTimeGrid:
    def test_validation(self):
        with pytest.raises(ValueError, match="t_end"):
            TimeGrid(0.0, 0.0, 10, 10, 16)
        with pytest.raises(ValueError, match="n_steps"):
            TimeGrid(0.0, 1.0, 0, 10, 16)
        with pytest.raises(ValueError, match="n_record"):
            TimeGrid(0.0, 1.0, 10, 0, 16)
        with pytest.raises(TypeError, match="degree"):
            TimeGrid(0.0, 1.0, 10, 5)  # no default degree

    def test_times(self):
        grid = TimeGrid(0.0, 1.0, 10, 2, 16)
        np.testing.assert_allclose(grid.times, [0.0, 0.5, 1.0])
        assert grid.dt == 0.1

    def test_times_independent_of_step_count(self):
        # a run and its step-halving rerun: same window and record count,
        # different step counts; curves are compared pointwise
        fine = TimeGrid(0.0, 0.5, 920, 500, 50)
        coarse = TimeGrid(0.0, 0.5, 460, 500, 50)
        np.testing.assert_array_equal(fine.times, coarse.times)
        assert fine.times[-1] == 0.5

    def test_degree_4_is_refused_and_auto_is_the_taylor_plan(self, fig_params):
        # one propagator: no grid takes degree 4 (the classical RK4 map, kept
        # only as the tests' reference), TimeGrid.auto is the Taylor plan on
        # the norm evolve's guard reads, and every plan is of degree 5 or more
        with pytest.raises(ValueError, match="degree must be one of"):
            TimeGrid(0.0, 1.0, 10, 5, 4)
        assert min(TAYLOR_THETA) == 5
        h = build_hc(fig_params, 8) + build_drive(fig_params, 8)
        ops = collapse_ops(fig_params, 8)
        for t_end, n_record in [(1e-9, 1), (0.1, 50), (1.0, 500)]:
            grid = TimeGrid.auto(h, 0.0, t_end, n_record, ops)
            assert grid == TimeGrid.taylor(norm_bound(liouvillian(h, ops)), 0.0, t_end,
                                           n_record)
            assert grid.degree >= 5
        for span in (1e-300, 1e-3, 1.0, 1e3, 1e8):
            assert TimeGrid.taylor(span, 0.0, 1.0, 10).degree >= 5


class TestEvolve:
    def test_pure_decay(self, fig_params):
        d = 5
        dims = SpaceDims((d,))
        h = Operator(dims, np.zeros((d, d)))
        ops = collapse_ops(fig_params, d, include_qubit=False)
        rho0 = DensityMatrix.basis(dims, 1)
        grid = TimeGrid.auto(h, 0.0, 0.05, n_record=100, collapse=ops)
        traj = evolve(h, ops, rho0, grid, [mode_number(d)], gamma=fig_params.gamma)
        expected = np.exp(-fig_params.gamma * traj.times)
        np.testing.assert_allclose(traj.collective_n, expected, atol=1e-6)

    def test_excitation_conservation(self, fig_params):
        d = 8
        h = build_hc(fig_params, d)
        ops = collapse_ops(fig_params, d)
        num, qubit = joint_observables(d)
        rho0 = DensityMatrix.basis(SpaceDims((2, d)), 1, 0)
        grid = TimeGrid.auto(h, 0.0, 0.1, n_record=200, collapse=ops)
        traj = evolve(h, ops, rho0, grid, [num, qubit], gamma=fig_params.gamma)
        q = traj.qubit_excited + traj.collective_n + traj.subradiant_n
        assert np.max(np.abs(q - 1.0)) < 1e-6

    def test_anc_excited_matches_closed_form(self, fig_params):
        d = 12
        h = build_anc(fig_params, "e", d)
        ops = collapse_ops(fig_params, d, include_qubit=False)
        rho0 = DensityMatrix.basis(SpaceDims((d,)), 0)
        grid = TimeGrid.auto(h, 0.0, 0.15, n_record=150, collapse=ops)
        traj = evolve(h, ops, rho0, grid, [mode_number(d)], gamma=fig_params.gamma)
        np.testing.assert_allclose(traj.collective_n,
                                   excited_population(traj.times, fig_params),
                                   atol=1e-4)

    def test_anc_ground_matches_closed_form(self, fig_params):
        d = 8
        h = build_anc(fig_params, "g", d)
        ops = collapse_ops(fig_params, d, include_qubit=False)
        rho0 = DensityMatrix.basis(SpaceDims((d,)), 0)
        grid = TimeGrid.auto(h, 0.0, 0.15, n_record=150, collapse=ops)
        traj = evolve(h, ops, rho0, grid, [mode_number(d)], gamma=fig_params.gamma)
        np.testing.assert_allclose(traj.collective_n,
                                   ground_population(traj.times, fig_params),
                                   atol=1e-4)

    @pytest.mark.parametrize("state, closed_form", [("e", excited_population),
                                                    ("g", ground_population)])
    def test_anc_closed_forms_decay_at_gamma_plus_gamma_s(self, fig_params, state,
                                                          closed_form):
        # collapse_ops adds sqrt(gamma_s) A beside sqrt(gamma) A, so the mode
        # decays at gamma + gamma_s; on a unit-roundoff plan over 10/gamma the
        # run and the closed form agree to rounding
        p = SystemParams.from_mhz(nu_t=412.5, nu_bar=0.0, g=75.0, lambda_d=40.0,
                                  gamma=12.5, gamma_s=20.0)
        d = 12
        h = build_anc(p, state, d)
        ops = collapse_ops(p, d, include_qubit=False)
        assert len(ops) == 2
        grid = TimeGrid.taylor(norm_bound(liouvillian(h, ops)), 0.0, 10.0 / p.gamma, 50)
        traj = evolve(h, ops, DensityMatrix.basis(SpaceDims((d,)), 0), grid,
                      [mode_number(d)])
        np.testing.assert_allclose(traj.collective_n, closed_form(traj.times, p),
                                   rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("drive, gamma_s", [(0.0, 0.0), (20.0, 5.0)])
    @pytest.mark.parametrize("state, closed_form", [("e", excited_population),
                                                    ("g", ground_population)])
    def test_anc_closed_forms_follow_the_configured_drive(self, drive, gamma_s, state,
                                                          closed_form):
        # build_anc detunes the mode by wbar - w_d +- G^2/Delta at any drive,
        # and so do the closed forms: off the matched drive neither branch
        # sits on resonance
        p = SystemParams.from_mhz(nu_t=412.5, nu_bar=0.0, g=75.0, lambda_d=40.0,
                                  gamma=12.5, gamma_s=gamma_s, drive=drive)
        d = 12
        h = build_anc(p, state, d)
        ops = collapse_ops(p, d, include_qubit=False)
        grid = TimeGrid.taylor(norm_bound(liouvillian(h, ops)), 0.0, 10.0 / p.gamma, 50)
        traj = evolve(h, ops, DensityMatrix.basis(SpaceDims((d,)), 0), grid,
                      [mode_number(d)])
        np.testing.assert_allclose(traj.collective_n, closed_form(traj.times, p),
                                   rtol=0.0, atol=1e-12)

    def test_trajectory_bookkeeping_invariants(self, fig_params):
        d = 6
        h = build_hc(fig_params, d) + build_drive(fig_params, d)
        ops = collapse_ops(fig_params, d)
        num, qubit = joint_observables(d)
        rho0 = DensityMatrix.basis(SpaceDims((2, d)), 0, 0)
        grid = TimeGrid.auto(h, 0.0, 0.05, n_record=100, collapse=ops)
        traj = evolve(h, ops, rho0, grid, [num, qubit], gamma=fig_params.gamma)
        assert np.all(traj.collective_n >= -1e-8)
        assert np.all(np.diff(traj.subradiant_n) >= -1e-15)
        np.testing.assert_array_equal(traj.total_n,
                                      traj.collective_n + traj.subradiant_n)
        assert traj.trace_err.max() < 1e-7
        assert traj.min_eig.min() >= -1e-6

    def test_dimension_mismatch(self, fig_params):
        h = build_hc(fig_params, 4)
        rho0 = DensityMatrix.basis(SpaceDims((2, 5)), 0, 0)
        grid = TimeGrid(0.0, 0.01, 1000, 10, 16)
        with pytest.raises(ValueError, match="mismatch"):
            evolve(h, [], rho0, grid, [joint_observables(4)[0]])

    def test_stability_guard(self, fig_params):
        d = 6
        h = build_hc(fig_params, d)
        ops = collapse_ops(fig_params, d)
        rho0 = DensityMatrix.basis(SpaceDims((2, d)), 1, 0)
        num, _ = joint_observables(d)
        grid = TimeGrid(0.0, 1.0, 100, 10, 16)
        with pytest.raises(StabilityError,
                           match=r"^dt\*norm = \S+ exceeds theta_16 = 0\.781$"):
            evolve(h, ops, rho0, grid, [num])
        # the fewest steps the guard admits, and ten fewer, which it refuses
        norm = norm_bound(liouvillian(h, ops))
        need = fewest_passing_steps(norm, 1.0, TAYLOR_THETA[16], 10)
        assert need > 100
        check_stability(TimeGrid(0.0, 1.0, need, 10, 16), norm)
        with pytest.raises(StabilityError):
            check_stability(TimeGrid(0.0, 1.0, need - 10, 10, 16), norm)

    def test_requires_an_observable(self, fig_params):
        d = 4
        h = build_hc(fig_params, d)
        rho0 = DensityMatrix.basis(SpaceDims((2, d)), 0, 0)
        grid = TimeGrid(0.0, 0.001, 1000, 10, 16)
        with pytest.raises(ValueError, match="observable"):
            evolve(h, [], rho0, grid, [])

    # a certified run fails the block's Cholesky, measures the block and
    # names the same record with the same text as a measured run
    @pytest.mark.parametrize("positivity", ["measure", "certify"])
    def test_positivity_failure_names_the_first_bad_record_of_a_block(self, positivity):
        # a negative jump rate gives the non-physical rho_00(t) = expm1(-gamma t)
        # from |1><1|; one step holds records 1..19 as one block, and the
        # first record past -POSITIVITY_TOL is the 8th of them
        dims = SpaceDims((2,))
        gamma = -np.log1p(-POSITIVITY_TOL) / 0.375
        h = Operator(dims, np.zeros((2, 2)))
        jump = np.sqrt(gamma) * ladder(2)
        lv = scipy_csr(liouvillian(h, [jump])) - 2 * sparse.kron(jump.mat, jump.mat.conj())
        grid = TimeGrid(0.0, 1.0, 1, 20, degree=16)
        assert dynamics._block_rows(8 * 4) >= 19
        t = grid.times[8]
        with pytest.raises(IntegrationError,
                           match=f"positivity violated at t={t:.6g}: min eig "
                                 f"{np.expm1(-gamma * t):.3g}, trace err "):
            evolve(h, [jump], DensityMatrix.basis(dims, 1), grid, [mode_number(2)],
                   generator=real_generator(canonical(lv)), positivity=positivity)

    def test_certified_run_keeps_the_measured_curves(self, fig_params):
        d = 6
        h = build_hc(fig_params, d) + build_drive(fig_params, d)
        ops = collapse_ops(fig_params, d)
        rho0 = DensityMatrix.basis(SpaceDims((2, d)), 1, 0)
        grid = TimeGrid.taylor(norm_bound(liouvillian(h, ops)), 0.0, 0.005, 50)
        runs = {positivity: evolve(h, ops, rho0, grid, list(joint_observables(d)),
                                   gamma=fig_params.gamma, positivity=positivity)
                for positivity in ("measure", "certify")}
        for name in ("collective_n", "qubit_excited", "subradiant_n", "trace_err"):
            np.testing.assert_array_equal(getattr(runs["certify"], name),
                                          getattr(runs["measure"], name))
        assert runs["measure"].min_eig.min() >= -POSITIVITY_TOL
        assert runs["certify"].min_eig is None
        with pytest.raises(ValueError, match='positivity must be "measure" or "certify"'):
            evolve(h, ops, rho0, grid, list(joint_observables(d)), positivity="skip")


class TestConvergence:
    def test_step_halving_below_1e6(self, fig_params):
        d = 6
        h = build_hc(fig_params, d)
        ops = collapse_ops(fig_params, d)
        num, qubit = joint_observables(d)
        rho0 = DensityMatrix.basis(SpaceDims((2, d)), 1, 0)
        grid = TimeGrid.auto(h, 0.0, 0.1, n_record=100, collapse=ops)
        fine = TimeGrid(0.0, 0.1, 2 * grid.n_steps, grid.n_record, grid.degree)
        t1 = evolve(h, ops, rho0, grid, [num, qubit], gamma=fig_params.gamma)
        t2 = evolve(h, ops, rho0, fine, [num, qubit], gamma=fig_params.gamma)
        for a, b in ((t1.collective_n, t2.collective_n),
                     (t1.qubit_excited, t2.qubit_excited),
                     (t1.subradiant_n, t2.subradiant_n)):
            scale = max(np.max(np.abs(b)), 1e-300)
            assert np.max(np.abs(a - b)) / scale < 1e-6

    def test_rk4_order_ratio(self, fig_params):
        # the tests' RK4 reference is fourth order: deliberately coarse steps
        # so truncation error dominates roundoff
        d = 6
        h = build_hc(fig_params, d)
        ops = collapse_ops(fig_params, d)
        num, qubit = joint_observables(d)
        rho0 = DensityMatrix.basis(SpaceDims((2, d)), 1, 0)
        lv = liouvillian(h, ops)
        t_end = 0.05

        def run(step):
            n = rk4_steps(norm_bound(lv), t_end, 50, step)
            return rk4_lindblad(lv, rho0, num, qubit, fig_params.gamma, t_end, 50,
                                n)["collective_n"]

        coarse, half, ref = run(0.32), run(0.16), run(0.04)
        e1 = np.max(np.abs(coarse - ref))
        e2 = np.max(np.abs(half - ref))
        assert e1 / e2 == pytest.approx(16.0, rel=0.30)


class TestReadoutGain:
    def test_identical_trajectories_zero_gain(self, fig_params):
        d = 5
        h = build_hc(fig_params, d)
        ops = collapse_ops(fig_params, d)
        num, qubit = joint_observables(d)
        rho0 = DensityMatrix.basis(SpaceDims((2, d)), 1, 0)
        grid = TimeGrid.auto(h, 0.0, 0.02, n_record=40, collapse=ops)
        traj = evolve(h, ops, rho0, grid, [num, qubit], gamma=fig_params.gamma)
        np.testing.assert_array_equal(readout_gain(traj, traj), 0.0)

    def test_grid_mismatch(self, fig_params):
        d = 5
        h = build_hc(fig_params, d)
        ops = collapse_ops(fig_params, d)
        num, qubit = joint_observables(d)
        rho0 = DensityMatrix.basis(SpaceDims((2, d)), 1, 0)
        g1 = TimeGrid.auto(h, 0.0, 0.02, n_record=40, collapse=ops)
        g2 = TimeGrid.auto(h, 0.0, 0.04, n_record=40, collapse=ops)
        t1 = evolve(h, ops, rho0, g1, [num, qubit], gamma=fig_params.gamma)
        t2 = evolve(h, ops, rho0, g2, [num, qubit], gamma=fig_params.gamma)
        with pytest.raises(ValueError, match="grids"):
            readout_gain(t1, t2)

    def test_undriven_gain_bounded_by_single_quantum(self):
        # no drive: |g,0> is inert, the |e,0> branch carries one quantum
        p = SystemParams.from_mhz(nu_t=412.5, nu_bar=0.0, g=75.0,
                                  lambda_d=0.0, gamma=12.5)
        d = 5
        h = build_hc(p, d)
        ops = collapse_ops(p, d)
        num, qubit = joint_observables(d)
        grid = TimeGrid.auto(h, 0.0, 0.05, n_record=100, collapse=ops)
        traj_e = evolve(h, ops, DensityMatrix.basis(SpaceDims((2, d)), 1, 0),
                        grid, [num, qubit], gamma=p.gamma)
        traj_g = evolve(h, ops, DensityMatrix.basis(SpaceDims((2, d)), 0, 0),
                        grid, [num, qubit], gamma=p.gamma)
        assert np.max(np.abs(traj_g.total_n)) < 1e-9
        gain = readout_gain(traj_e, traj_g)
        assert np.all(gain <= 1.0 + 1e-9)
        assert np.all(gain >= -1e-9)


class TestRK4Core:
    """The tests' RK4 reference (``conftest.rk4``) on the scalar ODE
    y' = lam * y."""

    LAM = -3.0 + 40.0j

    def taylor4(self, dt):
        z = self.LAM * dt
        return 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24

    def run(self, n_steps, n_record, integrand=None):
        return rk4(lambda y: self.LAM * y, np.array([1.0 + 0.0j]), 0.01, n_steps,
                   n_record, integrand)

    def test_one_step_is_the_fourth_order_taylor_factor(self):
        ys, integrals = self.run(1, 1)
        assert ys.shape == (2, 1)
        assert ys[0, 0] == 1.0 and integrals[0] == 0.0
        factor = self.taylor4(0.01)
        assert abs(ys[1, 0] - factor) <= 4 * np.finfo(float).eps * abs(factor)
        assert integrals[1] == 0.0  # no integrand, no accumulation

    def test_accumulator_is_the_stage_weighted_sum(self):
        dt = 0.01
        z = self.LAM * dt
        y1 = 1.0
        y2 = 1 + z / 2 * y1
        y3 = 1 + z / 2 * y2
        y4 = 1 + z * y3
        expected = dt / 6 * (y1 + 2 * y2 + 2 * y3 + y4)
        # which is the exact integral of the step's degree-4 Taylor polynomial
        assert expected == pytest.approx(dt * (1 + z / 2 + z**2 / 6 + z**3 / 24),
                                         rel=1e-14)
        _, integrals = self.run(1, 1, integrand=lambda y: y[0])
        assert abs(integrals[1] - expected) <= 4 * np.finfo(float).eps * abs(expected)

    def test_records_every_record_every_steps(self):
        ys, _ = self.run(12, 3)
        factor = self.taylor4(0.01 / 12)
        assert len(ys) == 4
        for i in range(4):
            np.testing.assert_allclose(ys[i, 0], factor ** (4 * i), rtol=1e-13)
        with pytest.raises(ValueError, match="n_record must divide n_steps"):
            self.run(12, 5)


class TestLiouvillian:
    """The sparse vectorised generator against the matrix-form Lindblad map."""

    @staticmethod
    def lindblad(h, jumps, rho):
        out = -1j * (h @ rho - rho @ h)
        for j in jumps:
            jdj = j.conj().T @ j
            out += j @ rho @ j.conj().T - 0.5 * (jdj @ rho + rho @ jdj)
        return out

    def test_matches_commutator_form(self):
        rng = np.random.default_rng(3)
        dims = SpaceDims((3,))

        def cplx(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        x = cplx(3, 3)
        h = Operator(dims, x + x.conj().T)
        jumps = [Operator(dims, cplx(3, 3)) for _ in range(2)]
        rho = cplx(3, 3)  # neither Hermitian nor unit trace: L is linear
        lv = liouvillian(h, jumps)
        got = (scipy_csr(lv) @ rho.reshape(-1)).reshape(3, 3)
        expected = self.lindblad(h.mat, [j.mat for j in jumps], rho)
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("case", ["d=4", "d=16", "d=32", "dense, two jumps"])
    def test_generators_keep_the_bits_of_scipys_sums(self, case):
        # the driven model with gamma_s > 0 has two channels, whose products
        # sum with each other as K ⊗ I does with I ⊗ conj(K); a dense 3 x 3
        # model with two jumps sums every entry over all four terms, so the
        # order of the additions shows in the last bits
        if case.startswith("d="):
            _, h, jumps = driven_model(int(case[2:]))
        else:
            rng = np.random.default_rng(7)
            x, j1, j2 = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
            h = Operator(SpaceDims((3,)), x + x.conj().T)
            jumps = [Operator(h.dims, j1), Operator(h.dims, j2)]
        lv, ref = liouvillian(h, jumps), scipy_liouvillian(h, jumps)
        gen, gen_ref = real_generator(lv), scipy_real_generator(ref)
        for got, want in [(lv.data, ref.data), (lv.indices, ref.indices),
                          (lv.indptr, ref.indptr), (gen.data, gen_ref.data),
                          (gen.indices, gen_ref.indices), (gen.indptr, gen_ref.indptr)]:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        mod = abs(ref)
        columns, rows = dynamics._abs_sums(lv)
        assert columns.tobytes() == mod.sum(axis=0).tobytes()
        assert rows.tobytes() == mod.sum(axis=1).tobytes()
        assert norm_bound(lv) == np.sqrt(float(mod.sum(axis=0).max())
                                         * float(mod.sum(axis=1).max()))

    def test_evolve_matches_matrix_form_rk4(self):
        # a plan with two channels and an observable that is not diagonal,
        # against the tests' RK4 on the matrix form, with its stage-weighted
        # integral, on steps so short that its own error is below rounding
        p = SystemParams.from_mhz(nu_t=412.5, nu_bar=0.0, g=75.0, lambda_d=40.0,
                                  gamma=12.5, gamma_s=3.0)
        d = 4
        h = build_hc(p, d) + build_drive(p, d)
        ops = collapse_ops(p, d)
        assert len(ops) == 2
        a = ladder(d)
        quad = kron(identity(SpaceDims((2,))), a + a.dag())  # not diagonal
        _, qubit = joint_observables(d)
        rho0 = DensityMatrix.basis(SpaceDims((2, d)), 1, 0)
        grid = TimeGrid.auto(h, 0.0, 0.002, n_record=20, collapse=ops)
        traj = evolve(h, ops, rho0, grid, [quad, qubit], gamma=p.gamma)

        jumps = [j.mat for j in ops]
        n_steps = rk4_steps(norm_bound(liouvillian(h, ops)), 0.002, 20, step=0.004)
        rhos, integrals = rk4(lambda rho: self.lindblad(h.mat, jumps, rho), rho0.mat,
                              0.002, n_steps, 20,
                              integrand=lambda rho: np.trace(quad.mat @ rho).real)
        ref = {"collective_n": [np.trace(quad.mat @ rho).real for rho in rhos],
               "qubit_excited": [np.trace(qubit.mat @ rho).real for rho in rhos],
               "subradiant_n": p.gamma * integrals}
        for name, values in ref.items():
            np.testing.assert_allclose(getattr(traj, name), values,
                                       rtol=0.0, atol=1e-12, err_msg=name)


def random_hermitian(rng, dim):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return x + x.conj().T  # Hermitian to the last bit


class TestRealCoordinates:
    """The real Hermitian coordinates of rho and the real generator on them."""

    @pytest.mark.parametrize("dim", [2, 12, 64])
    def test_round_trips_are_exact(self, dim):
        rng = np.random.default_rng(dim)
        rho = random_hermitian(rng, dim)
        u = hermitian_coords(rho)
        assert u.shape == (dim * dim,) and u.dtype == float
        np.testing.assert_array_equal(density_matrices(u[None], dim)[0], rho)
        us = rng.normal(size=(3, dim * dim))
        back = np.array([hermitian_coords(r) for r in density_matrices(us, dim)])
        np.testing.assert_array_equal(back, us)

    @pytest.mark.parametrize("d", [4, 16, 32])
    def test_generator_is_the_liouvillian_on_the_coordinates(self, fig_params, d):
        # T R u = L T u on random Hermitian rho, to rounding, and on the
        # fixed probes of generator_gap
        h = build_hc(fig_params, d) + build_drive(fig_params, d)
        lv = liouvillian(h, collapse_ops(fig_params, d))
        gen = real_generator(lv)
        assert generator_gap(lv, gen) <= 1e-14
        lv, gen = scipy_csr(lv), scipy_csr(gen)
        assert gen.dtype == float and gen.shape == lv.shape
        rng = np.random.default_rng(d)
        for _ in range(3):
            rho = random_hermitian(rng, 2 * d)
            exact = (lv @ rho.reshape(-1)).reshape(2 * d, 2 * d)
            got = density_matrices((gen @ hermitian_coords(rho))[None], 2 * d)[0]
            assert np.max(np.abs(got - exact)) <= 1e-14 * np.max(np.abs(exact))

    def test_plan_bound_holds_for_the_real_generator(self, fig_params):
        # power iteration on RᵀR, plain and in the norm that gives u the
        # Frobenius norm of its rho (weights 1 on the diagonal and 2 off
        # it): both stay below the bound, and ||R||_1 lies well above it
        d = 16
        h = build_hc(fig_params, d) + build_drive(fig_params, d)
        lv = liouvillian(h, collapse_ops(fig_params, d))
        gen = scipy_csr(real_generator(lv))
        root = np.sqrt(np.where(np.eye(2 * d, dtype=bool), 1.0, 2.0)).reshape(-1)
        rng = np.random.default_rng(5)
        for weight in (np.ones_like(root), root):
            v = rng.normal(size=gen.shape[0])
            for _ in range(300):
                w = weight * (gen @ (v / weight))
                v = (gen.T @ (w / weight)) / weight
                v /= np.linalg.norm(v)
            norm2 = np.linalg.norm(weight * (gen @ (v / weight)))
            assert norm2 <= norm_bound(lv)
        assert float(abs(gen).sum(axis=0).max()) > 1.2 * norm_bound(lv)

    @pytest.mark.parametrize("kind", ["real generator", "complex Liouvillian"])
    def test_kernel_is_the_sparse_product_to_the_bit(self, fig_params, kind):
        # evolve calls scipy's private CSR kernel directly; it must give the
        # bits of the public product
        d = 8
        h = build_hc(fig_params, d) + build_drive(fig_params, d)
        lv = liouvillian(h, collapse_ops(fig_params, d))
        rho = random_hermitian(np.random.default_rng(1), 2 * d)
        a, x = ((real_generator(lv), hermitian_coords(rho)) if kind == "real generator"
                else (lv, rho.reshape(-1)))
        out = np.zeros(a.shape[0], dtype=a.data.dtype)
        dynamics.csr_matvec(a.shape[0], a.shape[1], a.indptr, a.indices, a.data, x, out)
        assert np.array_equal(out, scipy_csr(a) @ x)

    def test_non_hermitian_hamiltonian_is_refused(self, fig_params):
        d = 4
        h = build_hc(fig_params, d)
        skew = h + Operator(h.dims, 1e-6j * np.eye(2 * d))
        rho0 = DensityMatrix.basis(SpaceDims((2, d)), 1, 0)
        grid = TimeGrid(0.0, 0.001, 1, 1, degree=16)
        with pytest.raises(ValueError, match="Hamiltonian must be Hermitian"):
            evolve(skew, [], rho0, grid, [joint_observables(d)[0]])

    @pytest.mark.parametrize("extra", ["B rho", "i c rho", "Im rows negated"])
    def test_generator_that_breaks_hermiticity_is_refused(self, fig_params, extra):
        # L rho + B rho with a real upper-triangular B, which adds entries
        # without mirror entries, and L rho + 0.001i rho, which keeps the
        # pattern of L: neither is Hermitian for Hermitian rho, so R drops a
        # part of L; and the model's R with the sign of its Im rows slipped.
        # generator_gap reads max |T R u - L T u| / (||L||_inf max |T u|),
        # here from dense products, above HERMITICITY_TOL, where validate's
        # hermiticity check fails
        d = 4
        dim, n = 2 * d, (2 * d) ** 2
        h = build_hc(fig_params, d) + build_drive(fig_params, d)
        lv = scipy_csr(liouvillian(h, collapse_ops(fig_params, d)))
        if extra == "B rho":
            lv = lv + sparse.kron(np.triu(np.ones((dim, dim))), np.eye(dim))
        elif extra == "i c rho":
            lv = lv + 1e-3j * sparse.eye_array(n)
        gen = scipy_real_generator(lv)
        if extra == "Im rows negated":
            rows = np.arange(n)
            gen = sparse.diags_array(np.where(rows // dim > rows % dim, -1.0, 1.0)) @ gen
        dense, probes = lv.toarray(), np.stack([np.ones(n), np.arange(1, n + 1) / n])
        expected = max(np.abs(density_matrices((gen @ u)[None], dim)[0].reshape(-1)
                              - dense @ rho.reshape(-1)).max()
                       / (np.abs(dense).sum(axis=1).max() * np.abs(rho).max())
                       for u, rho in zip(probes, density_matrices(probes, dim)))
        got = generator_gap(canonical(lv), canonical(gen))
        assert got == pytest.approx(expected, rel=1e-12)
        assert got > dynamics.HERMITICITY_TOL

    def test_run_matches_the_matrix_exponential_with_complex_observables(self):
        # a real-coordinate run at d=4 against exp(tL) vec(rho0), read out
        # through the quadratures a + a† and i(a† - a), whose matrices are
        # real and imaginary
        p, h, ops = driven_model(4)
        a = kron(identity(SpaceDims((2,))), ladder(4))
        quads = [a + a.dag(), 1j * (a.dag() - a)]
        lv = liouvillian(h, ops)
        rho0 = DensityMatrix.basis(SpaceDims((2, 4)), 1, 0)
        t_end, n_record = 0.01, 20
        grid = TimeGrid.taylor(norm_bound(lv), 0.0, t_end, n_record)
        traj = evolve(h, ops, rho0, grid, [*joint_observables(4), *quads], gamma=p.gamma)
        step = expm(scipy_csr(lv).toarray() * (t_end / n_record))
        y = rho0.mat.reshape(-1)
        for i in range(n_record + 1):
            rho = y.reshape(8, 8)
            for j, op in enumerate(quads):
                assert abs(traj.extra[i, j] - np.trace(op.mat @ rho).real) <= 1e-12
            y = step @ y

    def test_run_on_a_shared_generator_is_the_run_that_builds_it(self, fig_params):
        # evolve takes R alone from a caller that built it, with the same bits
        d = 4
        h = build_hc(fig_params, d) + build_drive(fig_params, d)
        ops = collapse_ops(fig_params, d)
        lv = liouvillian(h, ops)
        rho0 = DensityMatrix.basis(SpaceDims((2, d)), 1, 0)
        grid = TimeGrid.taylor(norm_bound(lv), 0.0, 0.001, 10)
        obs = list(joint_observables(d))
        shared = evolve(h, ops, rho0, grid, obs, generator=real_generator(lv))
        built = evolve(h, ops, rho0, grid, obs)
        for name in ("collective_n", "qubit_excited", "trace_err", "min_eig"):
            np.testing.assert_array_equal(getattr(shared, name), getattr(built, name))
        assert shared.products == built.products


class TestTaylorCore:
    """The shared stepper on y' = lam * y, on an infinite bound, which
    proves nothing: every step takes its m terms."""

    LAM = -3.0 + 40.0j

    @pytest.mark.parametrize("degree", [6, 16, 55])
    def test_step_and_accumulator_are_the_taylor_sums(self, degree):
        grid = TimeGrid(0.0, 0.01, 1, 1, degree)
        dt = grid.dt
        z = self.LAM * dt
        factor = sum(z**k / factorial(k) for k in range(degree + 1))
        integral = dt * sum(z**k / factorial(k + 1) for k in range(degree))
        seen = {}

        def record(first, ys, integrals):
            for j, (y, acc) in enumerate(zip(ys, integrals)):
                seen[first + j] = (complex(y[0]), acc)

        taylor_steps(lambda y: self.LAM * y, np.array([1.0 + 0.0j]), grid, record,
                     integrand=lambda y: y[0], bound=np.inf)
        eps = np.finfo(float).eps
        assert abs(seen[1][0] - factor) <= 4 * eps * abs(factor)
        assert abs(seen[1][1] - integral) <= 4 * eps * abs(integral)

    # one step holding n_record - 1 records inside it, read off its kept
    # terms, in one block of records or in blocks of three
    @pytest.mark.parametrize("degree, n_record", [(6, 3), (6, 40), (16, 5), (16, 40),
                                                  (55, 7), (55, 80)])
    def test_records_inside_a_step_are_the_partial_taylor_sums(self, degree, n_record,
                                                               monkeypatch):
        grid = TimeGrid(0.0, 0.01, 1, n_record, degree)
        dt = grid.dt
        z = self.LAM * dt
        eps = np.finfo(float).eps
        inner = n_record - 1
        assert grid.buffer == degree + 1
        for block in (RECORD_BLOCK_BYTES, 3 * 16):
            monkeypatch.setattr(dynamics, "RECORD_BLOCK_BYTES", block)
            seen, blocks = {}, []

            def record(first, ys, integrals):
                blocks.append(len(ys))
                for j, (y, acc) in enumerate(zip(ys, integrals)):
                    seen[first + j] = (complex(y[0]), complex(acc))

            taylor_steps(lambda y: self.LAM * y, np.array([1.0 + 0.0j]), grid, record,
                         integrand=lambda y: y[0], bound=np.inf)
            assert sorted(seen) == list(range(n_record + 1))
            assert max(blocks) == min(inner, block // 16)
            for i in range(1, n_record + 1):
                x = i / n_record
                value = sum((x * z)**k / factorial(k) for k in range(degree + 1))
                integral = dt * sum(x**(k + 1) * z**k / factorial(k + 1)
                                    for k in range(degree))
                assert abs(seen[i][0] - value) <= 4 * eps * abs(value)
                assert abs(seen[i][1] - integral) <= 4 * eps * abs(integral)


def driven_model(d=6):
    p = SystemParams.from_mhz(nu_t=412.5, nu_bar=0.0, g=75.0, lambda_d=40.0,
                              gamma=12.5, gamma_s=3.0)
    h = build_hc(p, d) + build_drive(p, d)
    return p, h, collapse_ops(p, d)


def inner_records(n_steps, n_record):
    """The most records strictly inside one step, counted record by record."""
    k = np.arange(1, n_record)
    inside = (k * n_steps) % n_record != 0
    return int(np.bincount((k * n_steps // n_record)[inside]).max()) if inside.any() else 0


def plain_steps(rhs, y0, grid, integrand):
    """The records at step ends, {index: (y, integral)}, of the plain Taylor
    step taken term by term: term = (h / k) * rhs(term); y += term, with the
    integrand's gain summed in the same order."""
    h, m = grid.dt, grid.degree
    y, acc = np.array(y0, dtype=complex), 0.0
    ends = {0: (y.copy(), acc)}
    for step in range(1, grid.n_steps + 1):
        term, y = y, y.copy()
        gain = 0.0
        for k in range(1, m + 1):
            gain += integrand(term) / k
            term = (h / k) * rhs(term)
            y += term
        acc += h * gain
        if step * grid.n_record % grid.n_steps == 0:
            ends[step * grid.n_record // grid.n_steps] = (y, acc)
    return ends


class TestTaylorPlan:
    @pytest.mark.parametrize("n_steps, n_record", [
        (1, 1), (1, 7), (7, 1), (3, 10), (7, 3), (5, 50), (50, 5), (63, 1000),
        (14, 50), (12, 18), (1000, 1000), (999, 1000)])
    def test_step_buffer_counts_the_records_inside_a_step(self, n_steps, n_record):
        # the degree + 1 terms when some record falls inside a step, whatever
        # the state's size; none when every record falls on a step end
        inner = inner_records(n_steps, n_record)
        for degree in (5, 16, 50):
            grid = TimeGrid(0.0, 1.0, n_steps, n_record, degree)
            assert grid.buffer == (degree + 1 if inner else 0)

    def test_a_step_holds_at_most_its_terms(self):
        # 199 records inside one degree-50 step of 64 KiB states: the step
        # buffer is the 51 terms, not a row per record
        grid = TimeGrid(0.0, 1.0, 1, 200, 50)
        assert grid.buffer == 51
        y0 = np.ones(1 << 13)
        out = np.empty_like(y0)
        seen = []

        def record(first, ys, integrals):
            seen.append(first + len(ys))

        tracemalloc.start()
        try:
            taylor_steps(lambda y: np.multiply(y, -1.0, out=out), y0, grid, record,
                         bound=np.inf)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert seen[-1] == 201
        # the state and its terms, one block of records, and the records'
        # weights x^k with their small temporaries
        block = dynamics._block_rows(y0.nbytes) * y0.nbytes
        weights = 2 * grid.n_record * (grid.degree + 1) * 8
        assert peak <= (grid.degree + 2) * y0.nbytes + block + weights

    @pytest.mark.parametrize("norm, t_end, n_record", [
        (7870.65, 0.005, 50), (7870.65, 0.0025, 1000), (23700.0, 0.0382, 400),
        (11423.2, 0.5, 500), (1.0, 1e-6, 10), (5e5, 1.0, 3),
        (110.4, 1.0, 1)])  # fewest products (13, 50) beats fewest steps (12, 55)
    def test_fewest_products_at_unit_roundoff(self, norm, t_end, n_record):
        # over the whole window: no other degree and step count within the
        # bound has fewer products, whatever the records
        span = norm * t_end
        grid = TimeGrid.taylor(norm, 0.0, t_end, n_record)
        s, m = grid.n_steps, grid.degree
        assert grid.n_record == n_record and m <= PLAN_MAX_DEGREE
        assert s * TAYLOR_THETA[m] >= span
        # over the degrees a plan may take
        for other, theta in TAYLOR_THETA.items():
            if other > PLAN_MAX_DEGREE:
                continue
            for steps in range(max(1, int(np.ceil(span / theta))), m * s // other + 1):
                assert (other * steps, other) >= (m * s, m)

    def test_a_plan_past_the_product_budget_is_refused(self, monkeypatch):
        # the budget bounds the plan's m * s exactly: a plan at it is taken,
        # one product below it is refused
        plan = TimeGrid.taylor(11423.2, 0.0, 0.5, 500)
        monkeypatch.setattr(dynamics, "PLAN_MAX_PRODUCTS", plan.applications)
        assert TimeGrid.taylor(11423.2, 0.0, 0.5, 500) == plan
        monkeypatch.setattr(dynamics, "PLAN_MAX_PRODUCTS", plan.applications - 1)
        with pytest.raises(StabilityError, match="needs more than PLAN_MAX_PRODUCTS"):
            TimeGrid.taylor(11423.2, 0.0, 0.5, 500)

    @pytest.mark.parametrize("norm, t_end", [(3.44e101, 1.0), (4.6e3, 1e301), (4.6e3, 1e304)])
    def test_an_astronomical_plan_is_refused(self, norm, t_end):
        # finite spans whose plans would take 4e100 steps or more, the last
        # one so long that span / theta_5 overflows: refused before any step
        with pytest.raises(StabilityError, match=r"needs more than PLAN_MAX_PRODUCTS = 1e\+09"):
            TimeGrid.taylor(norm, 0.0, t_end, 500)

    @pytest.mark.parametrize("degree", [1, 3, 31, 56])
    def test_degree_outside_theta_table_rejected(self, degree):
        with pytest.raises(ValueError, match="degree"):
            TimeGrid(0.0, 1.0, 10, 10, degree)

    def test_guard_rejects_a_long_taylor_step(self):
        p, h, ops = driven_model()
        rho0 = DensityMatrix.basis(SpaceDims((2, 6)), 1, 0)
        num, _ = joint_observables(6)
        norm = norm_bound(liouvillian(h, ops))
        # 1.1 times the longest degree-16 step on the norm bound
        t_end = 11 * TAYLOR_THETA[16] / norm
        grid = TimeGrid(0.0, t_end, 10, 10, degree=16)
        assert TAYLOR_THETA[16] < grid.dt * norm
        with pytest.raises(StabilityError, match=r"exceeds theta_16 = \S+$"):
            evolve(h, ops, rho0, grid, [num])
        need = fewest_passing_steps(norm, t_end, TAYLOR_THETA[16], 10)
        assert need == 20
        ok = TimeGrid(0.0, t_end, need, 10, degree=16)
        evolve(h, ops, rho0, ok, [num])

    def check_against_expm(self, grid, t_end, n_record):
        p, h, ops = driven_model()
        num, qubit = joint_observables(6)
        rho0 = DensityMatrix.basis(SpaceDims((2, 6)), 1, 0)
        traj = evolve(h, ops, rho0, grid, [num, qubit], gamma=p.gamma)
        ref = expm_records(liouvillian(h, ops), rho0, num, qubit, p.gamma, t_end, n_record)
        for name, values in ref.items():
            np.testing.assert_allclose(getattr(traj, name), values,
                                       rtol=0.0, atol=1e-12, err_msg=name)

    def test_driven_run_matches_augmented_expm(self):
        _, h, ops = driven_model()
        t_end, n_record = 0.02, 40
        grid = TimeGrid.taylor(norm_bound(liouvillian(h, ops)), 0.0, t_end, n_record)
        self.check_against_expm(grid, t_end, n_record)

    @pytest.mark.parametrize("n_record", [40, 1000])
    def test_records_inside_steps_match_augmented_expm(self, n_record, monkeypatch):
        # records strictly inside the steps of a whole-window plan, read off
        # the kept terms, against Van Loan's exact propagation from record to
        # record: with 40 records a step's records come in one block; with
        # 1000 they fill several blocks of half the usual size, the last one
        # only in part
        monkeypatch.setattr(dynamics, "RECORD_BLOCK_BYTES", RECORD_BLOCK_BYTES // 2)
        _, h, ops = driven_model()
        lv = liouvillian(h, ops)
        nbytes = 8 * lv.shape[0]  # the real coordinates of rho
        t_end = 0.02
        grid = TimeGrid.taylor(norm_bound(lv), 0.0, t_end, n_record)
        assert grid.n_steps < n_record
        assert grid.buffer == grid.degree + 1
        inner = inner_records(grid.n_steps, n_record)
        if n_record == 40:
            assert 1 < inner <= dynamics._block_rows(nbytes)
        else:
            assert inner > dynamics._block_rows(nbytes)
            assert inner % dynamics._block_rows(nbytes)
        self.check_against_expm(grid, t_end, n_record)

    @pytest.mark.parametrize("case", ["one record per step"])
    def test_other_record_layouts_match_augmented_expm(self, case):
        # a step holding a single record inside it
        _, h, ops = driven_model()
        lv = liouvillian(h, ops)
        t_end, n_record = 0.02, 40
        plan = TimeGrid.taylor(norm_bound(lv), 0.0, t_end, n_record)
        grid = TimeGrid(0.0, t_end, n_record - 1, n_record, plan.degree)
        assert inner_records(grid.n_steps, n_record) == 1
        assert grid.buffer == grid.degree + 1
        self.check_against_expm(grid, t_end, n_record)

    @pytest.mark.parametrize("case", ["degree 5, records at step ends",
                                      "degree 50, records at step ends",
                                      "degree 50, records inside steps"])
    def test_step_end_records_keep_the_plain_step_bits(self, case):
        # the one term loop gives a record at a step end the bits of the
        # plain step, whether or not the step also holds records inside it
        # (an infinite bound: every step takes its m terms, as a plain one)
        _, h, ops = driven_model()
        lv = scipy_csr(liouvillian(h, ops))
        num_vec = joint_observables(6)[0].mat.T.reshape(-1)
        if case.startswith("degree 5,"):
            grid = TimeGrid(0.0, 0.002, 40, 10, degree=5)
        else:
            grid = TimeGrid(0.0, 0.02, 20, 10 if "ends" in case else 30, degree=50)
        y0 = DensityMatrix.basis(SpaceDims((2, 6)), 1, 0).mat.reshape(-1)
        assert grid.buffer == (0 if "inside" not in case else 51)
        seen = {}

        def rhs(y):
            return lv @ y

        def integrand(y):
            return float(np.dot(num_vec, y).real)

        def record(first, ys, integrals):
            for j, (y, integral) in enumerate(zip(ys, integrals)):
                seen[first + j] = (y.copy(), integral)

        taylor_steps(rhs, y0, grid, record, integrand, bound=np.inf)
        ends = plain_steps(rhs, y0, grid, integrand)
        assert sorted(seen) == list(range(grid.n_record + 1))
        # 20 steps over 30 records end on every third record
        assert len(ends) == (11 if "inside" in case else grid.n_record + 1)
        for i, (y, integral) in ends.items():
            assert np.array_equal(seen[i][0], y) and seen[i][1] == integral

    def test_guard_suggestion_on_a_grid_spanning_records(self):
        p, h, ops = driven_model()
        rho0 = DensityMatrix.basis(SpaceDims((2, 6)), 1, 0)
        num, _ = joint_observables(6)
        norm = norm_bound(liouvillian(h, ops))
        # three degree-16 steps over ten records, each step 1.1 times too long
        t_end = 3.3 * TAYLOR_THETA[16] / norm
        grid = TimeGrid(0.0, t_end, 3, 10, degree=16)
        with pytest.raises(StabilityError, match=r"exceeds theta_16 = \S+$"):
            evolve(h, ops, rho0, grid, [num])
        need = fewest_passing_steps(norm, t_end, TAYLOR_THETA[16], 10)
        assert need == 10  # records at step ends
        ok = TimeGrid(0.0, t_end, need, 10, degree=16)
        assert ok.dt * norm <= TAYLOR_THETA[16]
        evolve(h, ops, rho0, ok, [num])

    def test_plan_matches_the_rk4_production_grid(self, fig_params):
        # the figure-2 benchmark shape at the production cutoff: the plan
        # moves no curve by more than 1e-9 of its maximum
        d = 16
        h = build_hc(fig_params, d) + build_drive(fig_params, d)
        ops = collapse_ops(fig_params, d)
        num, qubit = joint_observables(d)
        rho0 = DensityMatrix.basis(SpaceDims((2, d)), 1, 0)
        lv = liouvillian(h, ops)
        plan = TimeGrid.taylor(norm_bound(lv), 0.0, 0.005, 50)
        n_rk4 = rk4_steps(norm_bound(lv), 0.005, 50)
        assert plan.applications < 4 * n_rk4
        a = evolve(h, ops, rho0, plan, [num, qubit], gamma=fig_params.gamma)
        b = rk4_lindblad(lv, rho0, num, qubit, fig_params.gamma, 0.005, 50, n_rk4)
        for name in ("collective_n", "qubit_excited", "subradiant_n"):
            x, y = getattr(a, name), b[name]
            assert np.max(np.abs(x - y)) <= 1e-9 * np.max(np.abs(y)), name


class TestEarlyStop:
    """``taylor_steps`` with a bound beta >= ||A|| ends a step after T_k once
    tail_k ||T_k|| <= 2^-53 ||y||, tail_k = sum_{i=1}^{m-k} (h beta)^i
    k! / (k + i)!, testing only where tail_k < 1, in the norm beta bounds:
    the infinity norm, or the 2-norm with ord=2."""

    @staticmethod
    def criterion(h_beta, m, ratio):
        """{k: tail_k ||T_k|| / (2^-53 ||y||)} for the k in 1..m-1 where tail_k
        < 1, when ||T_k|| / ||y|| = ratio(k), with the tails summed term by
        term: a step stops at the first k whose value is at most 1."""
        values = {}
        for k in range(1, m):
            tail = sum(h_beta**i * factorial(k) / factorial(k + i)
                       for i in range(1, m - k + 1))
            if tail < 1.0:
                values[k] = tail * ratio(k) / 2.0 ** -53
        return values

    # y' = lam y: ||T_k|| / ||y|| = |h lam|^k / k! on every step
    @pytest.mark.parametrize("lam, h, degree", [(-2.0, 0.5, 30), (-16.0, 0.5, 50),
                                                (3.0, 0.25, 20), (-40.0, 0.1, 45)])
    def test_scalar_step_stops_at_the_first_degree_the_bound_allows(self, lam, h, degree):
        values = self.criterion(abs(h * lam), degree,
                                lambda k: abs(h * lam)**k / factorial(k))
        k = min(j for j, value in values.items() if value <= 1.0)
        # far from a tie, so that rounding of the terms cannot move the stop
        assert values[k] < 0.9 and all(values[j] > 1.1 for j in values if j < k)
        grid = TimeGrid(0.0, 3 * h, 3, 3, degree)
        calls = []

        def rhs(y):
            calls.append(1)
            return lam * y

        runs = []
        for bound in (abs(lam), np.inf):
            seen = {}

            def record(first, ys, integrals):
                for j, (y, integral) in enumerate(zip(ys, integrals)):
                    seen[first + j] = (float(y[0]), integral)
            runs.append((taylor_steps(rhs, np.array([1.0]), grid, record,
                                      integrand=lambda y: y[0], bound=bound), seen))
        (stopped, seen), (full, seen_full) = runs
        assert stopped == 3 * k and full == grid.applications
        assert len(calls) == stopped + full
        # the terms a step drops are below unit roundoff of its starting state,
        # beside which the rounding of the sum's terms, up to e^(h |lam|) times
        # that state, is all that tells the runs apart
        assert seen[0] == seen_full[0]
        for i in range(1, 4):
            for j in range(2):  # the state and its integral
                scale = np.exp(h * abs(lam)) * max(abs(seen_full[i - 1][j]),
                                                   abs(seen_full[i][j]))
                assert abs(seen[i][j] - seen_full[i][j]) <= 4 * np.finfo(float).eps * scale

    def test_records_of_a_step_whose_degree_fell_read_only_its_terms(self):
        # y' = diag(-99, -1) y from (1e-3, 1): the fast part decays by e^-9.9
        # a step, relative to the slow part, so each step stops earlier than
        # the last; rows above a step's degree still hold the previous step's
        # terms, of order e^9.9 * 2^-53, which a record must not read
        rates = np.array([-99.0, -1.0])
        y0 = np.array([1e-3, 1.0])
        grid = TimeGrid(0.0, 0.4, 4, 200, degree=55)
        assert grid.buffer == 56
        calls, degrees = [0], []
        seen = {}

        def rhs(y):
            calls[0] += 1
            return rates * y

        def record(first, ys, integrals):
            for j, y in enumerate(ys):
                seen[first + j] = y.copy()
            if first + len(ys) - 1 in (50, 100, 150, 200):  # a step end
                degrees.append(calls[0] - sum(degrees))

        products = taylor_steps(rhs, y0, grid, record, bound=99.0)
        assert products == sum(degrees) < grid.applications
        assert all(a > b for a, b in zip(degrees, degrees[1:])), degrees
        assert sorted(seen) == list(range(201))
        for i, y in seen.items():
            np.testing.assert_allclose(y, np.exp(rates * grid.times[i]) * y0,
                                       rtol=0.0, atol=1e-13, err_msg=f"record {i}")

    def test_stopped_driven_run_matches_expm_and_the_full_plan(self, monkeypatch):
        p, h, ops = driven_model()
        num, qubit = joint_observables(6)
        rho0 = DensityMatrix.basis(SpaceDims((2, 6)), 1, 0)
        lv = liouvillian(h, ops)
        t_end, n_record = 0.02, 40
        grid = TimeGrid.taylor(norm_bound(lv), 0.0, t_end, n_record)
        stopped = evolve(h, ops, rho0, grid, [num, qubit], gamma=p.gamma)
        monkeypatch.setattr(dynamics, "taylor_steps", lambda *args, bound, **kwargs:
                            taylor_steps(*args, bound=np.inf, **kwargs))
        full = evolve(h, ops, rho0, grid, [num, qubit], gamma=p.gamma)
        assert stopped.products < full.products == grid.applications
        ref = expm_records(lv, rho0, num, qubit, p.gamma, t_end, n_record)
        for name, values in ref.items():
            np.testing.assert_allclose(getattr(stopped, name), values,
                                       rtol=0.0, atol=1e-12, err_msg=name)
            np.testing.assert_allclose(getattr(stopped, name), getattr(full, name),
                                       rtol=0.0, atol=1e-13, err_msg=name)

    def test_skew_hermitian_step_stops_at_the_first_degree_the_2_norm_allows(self):
        # A = -i Q diag(w) Q† is skew-Hermitian: ||A||_2 = max |w|, while its
        # row sums exceed it, and the steps keep |Q† y| = z, so ||T_k||_2 /
        # ||y||_2 = ||(h w)^k z|| / (k! ||z||) on every step
        rng = np.random.default_rng(5)
        w = np.array([-30.0, -4.0, 7.0, 18.0])
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        a = q @ np.diag(-1j * w) @ q.conj().T
        z = np.array([0.1, 1.0, 0.6, 0.3])
        h, beta, degree = 0.15, 30.0, 40  # h beta = 4.5 <= theta_40
        assert np.linalg.norm(a, 2) == pytest.approx(beta, rel=1e-14)
        values = self.criterion(h * beta, degree, lambda k: np.linalg.norm(
            np.abs(h * w)**k * z) / (factorial(k) * np.linalg.norm(z)))
        k = min(j for j, value in values.items() if value <= 1.0)
        assert values[k] < 0.9 and all(values[j] > 1.1 for j in values if j < k)
        grid = TimeGrid(0.0, 3 * h, 3, 12, degree)  # records inside steps too
        seen = {}

        def record(first, ys, _):
            for j, y in enumerate(ys):
                seen[first + j] = y.copy()

        y0 = q @ z
        products = taylor_steps(lambda y: a @ y, y0, grid, record, bound=beta, ord=2)
        assert products == 3 * k < grid.applications
        assert sorted(seen) == list(range(13))
        for i, y in seen.items():
            np.testing.assert_allclose(y, expm(grid.times[i] * a) @ y0, rtol=0.0,
                                       atol=1e-13, err_msg=f"record {i}")

    def test_the_stop_reads_the_norm_its_bound_is_in(self):
        # A = -i diag(w) with beta = 30 = ||A||_2 = ||A||_inf; from a flat
        # state, ||y||_2 = 10 ||y||_inf while the fast entry carries the late
        # terms in both norms, so the 2-norm test stops a degree earlier
        h, beta, degree = 0.15, 30.0, 40
        w = np.concatenate([[-beta], np.linspace(-3.0, 3.0, 99)])
        y0 = np.ones(100, dtype=complex)
        expected = {}
        for ord, size in ((2, np.linalg.norm), (np.inf, np.max)):
            values = self.criterion(h * beta, degree, lambda k: size(
                np.abs(h * w)**k) / (factorial(k) * size(np.abs(y0))))
            k = min(j for j, value in values.items() if value <= 1.0)
            assert values[k] < 0.9 and all(values[j] > 1.1 for j in values if j < k)
            expected[ord] = k
        assert expected == {2: 32, np.inf: 33}
        grid = TimeGrid(0.0, 3 * h, 3, 3, degree)
        for ord, k in expected.items():
            products = taylor_steps(lambda y: -1j * w * y, y0, grid, lambda *args: None,
                                    bound=beta, ord=ord)
            assert products == 3 * k, ord

    def test_two_norm_takes_no_temporary_the_size_of_the_state(self):
        v = np.random.default_rng(3).normal(size=(10**5, 2)) @ np.array([1.0, 1j])
        tracemalloc.start()
        try:
            value = dynamics._norm(v, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value == pytest.approx(np.linalg.norm(v), rel=1e-14)
        assert peak < v.nbytes // 100

    def test_a_state_whose_sum_of_squares_overflows_takes_every_term(self):
        # ||y||_2^2 = 2e320 is past the float range: the bound it would give
        # is infinite, so a step may not stop on it
        grid = TimeGrid(0.0, 1.0, 2, 2, degree=30)
        ends = {}

        def record(first, ys, _):
            ends[first] = ys[0].copy()

        y0 = np.full(2, 1e160)
        products = taylor_steps(lambda y: -4.0 * y, y0, grid, record, bound=4.0, ord=2)
        assert products == grid.applications
        np.testing.assert_allclose(ends[2], np.exp(-4.0) * y0, rtol=1e-14)

    def test_every_stepper_call_passes_its_bound(self):
        grid = TimeGrid(0.0, 1.0, 1, 1, degree=10)
        with pytest.raises(TypeError, match="bound"):
            taylor_steps(lambda y: -y, np.ones(2), grid, lambda *args: None)

    def test_an_unknown_norm_order_is_refused(self):
        grid = TimeGrid(0.0, 1.0, 1, 1, degree=10)
        with pytest.raises(ValueError, match="ord must be inf or 2"):
            taylor_steps(lambda y: -y, np.ones(2), grid, lambda *args: None, bound=1.0,
                         ord=1)
