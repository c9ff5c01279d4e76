from math import factorial

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm

from spinamp import dynamics
from spinamp.analytic import excited_population, ground_population
from spinamp.dynamics import (DT_FACTOR, PLAN_MAX_DEGREE, POSITIVITY_TOL,
                              RECORD_BLOCK_BYTES, STEP_BUFFER_BYTES, TAYLOR_THETA,
                              TERM_BLOCK, IntegrationError, StabilityError, TimeGrid,
                              evolve, liouvillian, norm1, omega_max, rk4, readout_gain)
from spinamp.hilbert import (DensityMatrix, Operator, SpaceDims, identity,
                             kron, ladder)
from spinamp.model import SystemParams, build_anc, build_drive, build_hc, collapse_ops

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


class TestTimeGrid:
    def test_validation(self):
        with pytest.raises(ValueError, match="t_end"):
            TimeGrid(0.0, 0.0, 10, 10)
        with pytest.raises(ValueError, match="n_steps"):
            TimeGrid(0.0, 1.0, 0, 10)
        with pytest.raises(ValueError, match="n_record"):
            TimeGrid(0.0, 1.0, 10, 0)

    def test_times(self):
        grid = TimeGrid(0.0, 1.0, 10, 2)
        np.testing.assert_allclose(grid.times, [0.0, 0.5, 1.0])
        assert grid.dt == 0.1

    def test_times_independent_of_step_count(self):
        # the figure-2 production and doubled-cutoff grids: same window and
        # record count, different step counts; curves are compared pointwise
        fine = TimeGrid(0.0, 0.5, 189_000, 500)
        coarse = TimeGrid(0.0, 0.5, 57_000, 500)
        np.testing.assert_array_equal(fine.times, coarse.times)
        assert fine.times[-1] == 0.5

    def test_auto_respects_factor(self, fig_params):
        h = build_hc(fig_params, 8)
        ops = collapse_ops(fig_params, 8)
        grid = TimeGrid.auto(h, 0.0, 0.1, n_record=50, collapse=ops)
        assert grid.dt * omega_max(h, ops) <= 0.015 + 1e-12
        assert grid.n_steps % 50 == 0


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
        assert traj.herm_err.max() < 1e-9
        assert traj.min_eig.min() >= -1e-6

    def test_dimension_mismatch(self, fig_params):
        h = build_hc(fig_params, 4)
        rho0 = DensityMatrix.basis(SpaceDims((2, 5)), 0, 0)
        grid = TimeGrid(0.0, 0.01, 1000, 10)
        with pytest.raises(ValueError, match="mismatch"):
            evolve(h, [], rho0, grid, [joint_observables(4)[0]])

    def test_stability_guard(self, fig_params):
        d = 6
        h = build_hc(fig_params, d)
        ops = collapse_ops(fig_params, d)
        rho0 = DensityMatrix.basis(SpaceDims((2, d)), 1, 0)
        num, _ = joint_observables(d)
        grid = TimeGrid(0.0, 1.0, 100, 10)
        with pytest.raises(StabilityError) as err:
            evolve(h, ops, rho0, grid, [num])
        need = err.value.required_n_steps
        assert need > 100 and need % 10 == 0
        # the suggested step count satisfies the guard
        ok = TimeGrid(0.0, 1.0, need, 10)
        assert ok.dt * omega_max(h, ops) <= 0.25 + 1e-12

    def test_requires_an_observable(self, fig_params):
        d = 4
        h = build_hc(fig_params, d)
        rho0 = DensityMatrix.basis(SpaceDims((2, d)), 0, 0)
        grid = TimeGrid(0.0, 0.001, 1000, 10)
        with pytest.raises(ValueError, match="observable"):
            evolve(h, [], rho0, grid, [])

    def test_positivity_failure_names_the_first_bad_record_of_a_block(self):
        # a negative jump rate gives the non-physical rho_00(t) = expm1(-gamma t)
        # from |1><1|; one step holds records 1..19 as one block, and the
        # first record past -POSITIVITY_TOL is the 8th of them
        dims = SpaceDims((2,))
        gamma = -np.log1p(-POSITIVITY_TOL) / 0.375
        h = Operator(dims, np.zeros((2, 2)))
        jump = np.sqrt(gamma) * ladder(2)
        lv = liouvillian(h, [jump]) - 2 * sparse.kron(jump.mat, jump.mat.conj())
        grid = TimeGrid(0.0, 1.0, 1, 20, degree=16)
        assert dynamics._block_rows(4) >= 19
        t = grid.times[8]
        with pytest.raises(IntegrationError,
                           match=f"positivity violated at t={t:.6g}: min eig "
                                 f"{np.expm1(-gamma * t):.3g}, trace err "):
            evolve(h, [jump], DensityMatrix.basis(dims, 1), grid, [mode_number(2)],
                   lv=sparse.csr_array(lv))


class TestConvergence:
    def test_step_halving_below_1e6(self, fig_params):
        d = 6
        h = build_hc(fig_params, d)
        ops = collapse_ops(fig_params, d)
        num, qubit = joint_observables(d)
        rho0 = DensityMatrix.basis(SpaceDims((2, d)), 1, 0)
        grid = TimeGrid.auto(h, 0.0, 0.1, n_record=100, collapse=ops)
        fine = TimeGrid(0.0, 0.1, 2 * grid.n_steps, grid.n_record)
        t1 = evolve(h, ops, rho0, grid, [num, qubit], gamma=fig_params.gamma)
        t2 = evolve(h, ops, rho0, fine, [num, qubit], gamma=fig_params.gamma)
        for a, b in ((t1.collective_n, t2.collective_n),
                     (t1.qubit_excited, t2.qubit_excited),
                     (t1.subradiant_n, t2.subradiant_n)):
            scale = max(np.max(np.abs(b)), 1e-300)
            assert np.max(np.abs(a - b)) / scale < 1e-6

    def test_rk4_order_ratio(self, fig_params):
        # deliberately coarse steps so truncation error dominates roundoff
        d = 6
        h = build_hc(fig_params, d)
        ops = collapse_ops(fig_params, d)
        num, qubit = joint_observables(d)
        rho0 = DensityMatrix.basis(SpaceDims((2, d)), 1, 0)
        wmax = omega_max(h, ops)
        t_end = 0.05

        def run(factor):
            n = int(np.ceil(t_end * wmax / factor))
            n = ((n + 49) // 50) * 50
            grid = TimeGrid(0.0, t_end, n, 50)
            return evolve(h, ops, rho0, grid, [num, qubit],
                          gamma=fig_params.gamma).collective_n

        coarse, half, ref = run(0.2), run(0.1), run(0.0125)
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
    """The shared RK4 driver on the scalar ODE y' = lam * y."""

    LAM = -3.0 + 40.0j

    def taylor4(self, dt):
        z = self.LAM * dt
        return 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24

    def run(self, grid, integrand=None):
        seen = {}

        def record(first, ys, integrals):
            for j, (y, integral) in enumerate(zip(ys, integrals)):
                seen[first + j] = (complex(y[0]), integral)

        rk4(lambda y: self.LAM * y, np.array([1.0 + 0.0j]), grid, record, integrand)
        return seen

    def test_one_step_is_the_fourth_order_taylor_factor(self):
        grid = TimeGrid(0.0, 0.01, 1, 1)
        seen = self.run(grid)
        assert sorted(seen) == [0, 1]
        assert seen[0] == (1.0, 0.0)
        factor = self.taylor4(grid.dt)
        assert abs(seen[1][0] - factor) <= 4 * np.finfo(float).eps * abs(factor)
        assert seen[1][1] == 0.0  # no integrand, no accumulation

    def test_accumulator_is_the_stage_weighted_sum(self):
        grid = TimeGrid(0.0, 0.01, 1, 1)
        dt = grid.dt
        z = self.LAM * dt
        y1 = 1.0
        y2 = 1 + z / 2 * y1
        y3 = 1 + z / 2 * y2
        y4 = 1 + z * y3
        expected = dt / 6 * (y1 + 2 * y2 + 2 * y3 + y4)
        seen = self.run(grid, integrand=lambda y: y[0])
        assert abs(seen[1][1] - expected) <= 4 * np.finfo(float).eps * abs(expected)

    def test_records_every_record_every_steps(self):
        grid = TimeGrid(0.0, 0.01, 12, 3)
        factor = self.taylor4(grid.dt)
        seen = self.run(grid)
        assert sorted(seen) == [0, 1, 2, 3]
        for i in range(4):
            np.testing.assert_allclose(seen[i][0], factor ** (4 * i), rtol=1e-13)


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
        got = (lv @ rho.reshape(-1)).reshape(3, 3)
        expected = self.lindblad(h.mat, [j.mat for j in jumps], rho)
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-13)

    def test_evolve_matches_matrix_form_rk4(self):
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
        grid = TimeGrid.auto(h, 0.0, 0.005, n_record=20, collapse=ops)
        traj = evolve(h, ops, rho0, grid, [quad, qubit], gamma=p.gamma)

        # classical RK4 on the matrix form, with the stage-weighted integral
        jumps = [j.mat for j in ops]

        def rhs(rho):
            return self.lindblad(h.mat, jumps, rho)

        def observe(rho, integral):
            ref["collective_n"].append(np.trace(quad.mat @ rho).real)
            ref["qubit_excited"].append(np.trace(qubit.mat @ rho).real)
            ref["subradiant_n"].append(p.gamma * integral)

        ref = {"collective_n": [], "qubit_excited": [], "subradiant_n": []}
        dt, rho, acc = grid.dt, rho0.mat.copy(), 0.0
        observe(rho, acc)
        for step in range(grid.n_steps):
            k1 = rhs(rho)
            r2 = rho + 0.5 * dt * k1
            k2 = rhs(r2)
            r3 = rho + 0.5 * dt * k2
            k3 = rhs(r3)
            r4 = rho + dt * k3
            k4 = rhs(r4)
            n = [np.trace(quad.mat @ r).real for r in (rho, r2, r3, r4)]
            acc += dt / 6 * (n[0] + 2 * n[1] + 2 * n[2] + n[3])
            rho = rho + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            if (step + 1) % (grid.n_steps // grid.n_record) == 0:
                observe(rho, acc)
        for name, values in ref.items():
            np.testing.assert_allclose(getattr(traj, name), values,
                                       rtol=0.0, atol=1e-12, err_msg=name)


class TestTaylorCore:
    """The shared stepper at degrees above 4, on y' = lam * y."""

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

        rk4(lambda y: self.LAM * y, np.array([1.0 + 0.0j]), grid, record,
            integrand=lambda y: y[0])
        eps = np.finfo(float).eps
        assert abs(seen[1][0] - factor) <= 4 * eps * abs(factor)
        assert abs(seen[1][1] - integral) <= 4 * eps * abs(integral)

    # one step holding n_record - 1 records inside it, read off the kept
    # terms (they fit the buffer) or, with no buffer to spare, through
    # per-record accumulators and a ring of TERM_BLOCK terms; in one block of
    # records or in blocks of three
    @pytest.mark.parametrize("degree, n_record", [(6, 3), (6, 40), (16, 5), (16, 40),
                                                  (55, 7), (55, 80)])
    def test_records_inside_a_step_are_the_partial_taylor_sums(self, degree, n_record,
                                                               monkeypatch):
        grid = TimeGrid(0.0, 0.01, 1, n_record, degree)
        dt = grid.dt
        z = self.LAM * dt
        eps = np.finfo(float).eps
        inner = n_record - 1
        for budget, block in [(STEP_BUFFER_BYTES, RECORD_BLOCK_BYTES), (0, 3 * 16)]:
            monkeypatch.setattr(dynamics, "STEP_BUFFER_BYTES", budget)
            monkeypatch.setattr(dynamics, "RECORD_BLOCK_BYTES", block)
            assert grid.buffer(1) == (degree + 1 if budget else inner + TERM_BLOCK)
            seen, blocks = {}, []

            def record(first, ys, integrals):
                blocks.append(len(ys))
                for j, (y, acc) in enumerate(zip(ys, integrals)):
                    seen[first + j] = (complex(y[0]), complex(acc))

            rk4(lambda y: self.LAM * y, np.array([1.0 + 0.0j]), grid, record,
                integrand=lambda y: y[0])
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


def accumulators(inner, size):
    """One accumulator per record and a ring of terms that fills the rest of
    the step buffer, or holds TERM_BLOCK terms where the buffer is too small
    for that."""
    return max(STEP_BUFFER_BYTES // (16 * size), inner + TERM_BLOCK)


def held(degree, inner, size):
    """No rows when every record falls on a step end; the degree + 1 terms
    when they fit the step buffer; otherwise the accumulators and the ring."""
    if not inner:
        return 0
    if (degree + 1) * 16 * size <= STEP_BUFFER_BYTES:
        return degree + 1
    return accumulators(inner, size)


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
        # for state vectors from one entry through the d=16 and d=32
        # Liouvillians and the N=2000 oracle to one too long for any buffer,
        # and to one too long for even a single vector of it
        inner = inner_records(n_steps, n_record)
        for degree in (4, 16, 50):
            grid = TimeGrid(0.0, 1.0, n_steps, n_record, degree)
            for size in (1, 1024, 2001, 4096, 1 << 16, 1 << 17):
                assert grid.buffer(size) == held(degree, inner, size)
                # a grid fits the buffer exactly when no record falls inside
                # a step, or the terms fit, or the accumulators leave room for
                # a ring of TERM_BLOCK terms
                room = STEP_BUFFER_BYTES // (16 * size)
                fits = not inner or degree + 1 <= room or inner + TERM_BLOCK <= room
                assert (grid.buffer(size) <= room) == fits

    @pytest.mark.parametrize("norm, t_end, n_record", [
        (7870.65, 0.005, 50), (7870.65, 0.0025, 1000), (23700.0, 0.0382, 400),
        (11423.2, 0.5, 500), (1.0, 1e-6, 10), (5e5, 1.0, 3),
        (110.4, 1.0, 1)])  # fewest products (13, 50) beats fewest steps (12, 55)
    def test_fewest_products_at_unit_roundoff(self, norm, t_end, n_record):
        # over the whole window, for state vectors from one entry (no buffer
        # limit) through the d=16 and d=32 Liouvillians and the N=2000 oracle
        # to one too long for any buffer, and one too long for even a single
        # vector of it, where steps end on records
        span = norm * t_end
        for size in (1, 1024, 2001, 4096, 1 << 16, 1 << 17):
            grid = TimeGrid.taylor(norm, 0.0, t_end, n_record, size=size)
            s, m = grid.n_steps, grid.degree
            assert grid.n_record == n_record and m <= PLAN_MAX_DEGREE
            assert s * TAYLOR_THETA[m] >= span
            assert grid.buffer(size) * 16 * size <= STEP_BUFFER_BYTES
            if size == 1 << 17:
                assert grid.n_steps % n_record == 0 and grid.buffer(size) == 0
            # no other plan within the bound and the buffer has fewer products
            for other, theta in TAYLOR_THETA.items():
                if other > PLAN_MAX_DEGREE:
                    continue
                for steps in range(max(1, int(np.ceil(span / theta))),
                                   m * s // other + 1):
                    if held(other, inner_records(steps, n_record), size) * 16 * size \
                            <= STEP_BUFFER_BYTES:
                        assert (other * steps, other) >= (m * s, m)

    @pytest.mark.parametrize("degree", [1, 3, 31, 56])
    def test_degree_outside_theta_table_rejected(self, degree):
        with pytest.raises(ValueError, match="degree"):
            TimeGrid(0.0, 1.0, 10, 10, degree)

    def test_guard_rejects_a_long_taylor_step(self):
        p, h, ops = driven_model()
        rho0 = DensityMatrix.basis(SpaceDims((2, 6)), 1, 0)
        num, _ = joint_observables(6)
        norm = norm1(liouvillian(h, ops))
        # 1.1 times the longest degree-16 step: too long for ||L||_1, though
        # not for the smaller row-sum bound omega_max
        t_end = 11 * TAYLOR_THETA[16] / norm
        grid = TimeGrid(0.0, t_end, 10, 10, degree=16)
        assert grid.dt * omega_max(h, ops) < TAYLOR_THETA[16] < grid.dt * norm
        with pytest.raises(StabilityError, match="theta_16") as err:
            evolve(h, ops, rho0, grid, [num])
        need = err.value.required_n_steps
        assert need > 10 and need % 10 == 0
        ok = TimeGrid(0.0, t_end, need, 10, degree=16)
        evolve(h, ops, rho0, ok, [num])

    @staticmethod
    def expm_records(lv, rho0, num, qubit, gamma, t_end, n_record):
        """Van Loan: exp(dt [[L, 0], [n, 0]]) carries [vec rho; int <n>] over
        one record interval exactly; the records of that propagation."""
        n_row = num.mat.T.reshape(-1)
        q_row = qubit.mat.T.reshape(-1)
        dim = lv.shape[0]
        aug = np.zeros((dim + 1, dim + 1), dtype=complex)
        aug[:dim, :dim] = lv.toarray()
        aug[dim, :dim] = n_row
        step = expm(aug * (t_end / n_record))
        z = np.append(rho0.mat.reshape(-1), 0.0)
        ref = {"collective_n": [], "qubit_excited": [], "subradiant_n": []}
        for _ in range(n_record + 1):
            ref["collective_n"].append((n_row @ z[:dim]).real)
            ref["qubit_excited"].append((q_row @ z[:dim]).real)
            ref["subradiant_n"].append(gamma * z[dim].real)
            z = step @ z
        return ref

    def check_against_expm(self, grid, t_end, n_record):
        p, h, ops = driven_model()
        num, qubit = joint_observables(6)
        rho0 = DensityMatrix.basis(SpaceDims((2, 6)), 1, 0)
        traj = evolve(h, ops, rho0, grid, [num, qubit], gamma=p.gamma)
        ref = self.expm_records(liouvillian(h, ops), rho0, num, qubit, p.gamma, t_end,
                                n_record)
        for name, values in ref.items():
            np.testing.assert_allclose(getattr(traj, name), values,
                                       rtol=0.0, atol=1e-12, err_msg=name)

    def test_driven_run_matches_augmented_expm(self):
        _, h, ops = driven_model()
        t_end, n_record = 0.02, 40
        grid = TimeGrid.taylor(norm1(liouvillian(h, ops)), 0.0, t_end, n_record)
        assert grid.degree > 4
        self.check_against_expm(grid, t_end, n_record)

    @pytest.mark.parametrize("n_record", [40, 1000])
    def test_records_inside_steps_match_augmented_expm(self, n_record):
        # records strictly inside the steps of a whole-window plan, read off
        # the kept terms, against Van Loan's exact propagation from record to
        # record: with 40 records the accumulators and the smallest ring would
        # be fewer vectors than the terms, which are kept as they fit; with
        # 1000 a step's records fill several blocks, the last one only in part
        _, h, ops = driven_model()
        lv = liouvillian(h, ops)
        dim = lv.shape[0]
        t_end = 0.02
        grid = TimeGrid.taylor(norm1(lv), 0.0, t_end, n_record, size=dim)
        assert grid.degree > 4 and grid.n_steps < n_record
        assert grid.buffer(dim) == grid.degree + 1
        inner = inner_records(grid.n_steps, n_record)
        if n_record == 40:
            assert inner + TERM_BLOCK < grid.degree + 1
        else:
            assert inner > dynamics._block_rows(dim)
            assert inner % dynamics._block_rows(dim)
        self.check_against_expm(grid, t_end, n_record)

    @pytest.mark.parametrize("case", ["one record per step", "accumulators",
                                      "accumulators, uneven steps"])
    def test_other_record_layouts_match_augmented_expm(self, case, monkeypatch):
        # a step holding a single record inside it; and a buffer too small
        # for the terms, so the records come through the accumulators in
        # blocks of two, with a ring of the rest of the buffer that a step's
        # terms fill several times; over 70 records, in blocks of three,
        # some steps hold fewer records than there are accumulators and end
        # on a block of two
        _, h, ops = driven_model()
        lv = liouvillian(h, ops)
        dim = lv.shape[0]
        t_end = 0.02
        n_record, block = (70, 3) if "uneven" in case else (40, 2)
        if case == "one record per step":
            plan = TimeGrid.taylor(norm1(lv), 0.0, t_end, n_record, size=dim)
            grid = TimeGrid(0.0, t_end, n_record - 1, n_record, plan.degree)
            assert inner_records(grid.n_steps, n_record) == 1
            assert grid.buffer(dim) == grid.degree + 1
        else:
            monkeypatch.setattr(dynamics, "STEP_BUFFER_BYTES", 20 * 16 * dim)
            monkeypatch.setattr(dynamics, "RECORD_BLOCK_BYTES", block * 16 * dim)
            grid = TimeGrid.taylor(norm1(lv), 0.0, t_end, n_record, size=dim)
            inner = inner_records(grid.n_steps, n_record)
            assert grid.buffer(dim) == 20 < grid.degree + 1
            assert TERM_BLOCK <= 20 - inner < (grid.degree + 1) // 2
            inside = [sum(j * n_record < k * grid.n_steps < (j + 1) * n_record
                          for k in range(n_record)) for j in range(grid.n_steps)]
            assert set(inside) == ({3} if n_record == 40 else {5, 6}) and inner == max(inside)
        self.check_against_expm(grid, t_end, n_record)

    @pytest.mark.parametrize("case", ["rk4 grid", "degree 50, records at step ends",
                                      "degree 50, records inside steps"])
    def test_step_end_records_keep_the_plain_step_bits(self, case):
        # the one term loop gives a record at a step end the bits of the
        # plain step, whether or not the step also holds records inside it
        _, h, ops = driven_model()
        lv = liouvillian(h, ops)
        num_vec = joint_observables(6)[0].mat.T.reshape(-1)
        if case == "rk4 grid":
            grid = TimeGrid.auto(h, 0.0, 0.002, n_record=10, collapse=ops)
        else:
            grid = TimeGrid(0.0, 0.02, 20, 10 if "ends" in case else 30, degree=50)
        assert grid.buffer(lv.shape[0]) == (0 if "inside" not in case else 51)
        y0 = DensityMatrix.basis(SpaceDims((2, 6)), 1, 0).mat.reshape(-1)
        seen = {}

        def rhs(y):
            return lv @ y

        def integrand(y):
            return float(np.dot(num_vec, y).real)

        def record(first, ys, integrals):
            for j, (y, integral) in enumerate(zip(ys, integrals)):
                seen[first + j] = (y.copy(), integral)

        rk4(rhs, y0, grid, record, integrand)
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
        norm = norm1(liouvillian(h, ops))
        # three degree-16 steps over ten records, each step 1.1 times too long
        t_end = 3.3 * TAYLOR_THETA[16] / norm
        grid = TimeGrid(0.0, t_end, 3, 10, degree=16)
        with pytest.raises(StabilityError, match="theta_16") as err:
            evolve(h, ops, rho0, grid, [num])
        need = err.value.required_n_steps
        assert need % 10 == 0  # records at step ends
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
        plan = TimeGrid.taylor(norm1(liouvillian(h, ops)), 0.0, 0.005, 50)
        rk = TimeGrid.auto(h, 0.0, 0.005, 50, ops, DT_FACTOR)
        assert plan.applications < rk.applications
        a = evolve(h, ops, rho0, plan, [num, qubit], gamma=fig_params.gamma)
        b = evolve(h, ops, rho0, rk, [num, qubit], gamma=fig_params.gamma)
        for name in ("collective_n", "qubit_excited", "subradiant_n"):
            x, y = getattr(a, name), getattr(b, name)
            assert np.max(np.abs(x - y)) <= 1e-9 * np.max(np.abs(y)), name
