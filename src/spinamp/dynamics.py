"""Fixed-step integration of the Lindblad master equation, and the Taylor
core every solver in the package shares.

Every generator here is constant, so one step of size h is the degree-m
truncated Taylor series of exp(hA) applied to y. ``rk4`` is that one loop;
at the default degree m = 4 it is the classical RK4 map. A grid's degree
picks the rule:

- degree 4: ``TimeGrid.auto``/``TimeGrid.sized`` size the step so that
  dt * omega_max <= dt_factor, and ``check_stability`` guards
  dt * omega_max <= STABILITY_LIMIT (the row-sum RK4 stability bound);
- degree m > 4: ``TimeGrid.taylor`` picks, over the whole window, the degree
  and step count with the fewest generator products such that
  dt * ||A|| <= TAYLOR_THETA[m], the unit-roundoff bound of Al-Mohy &
  Higham (SIAM J. Sci. Comput. 2011), which holds in any consistent norm
  (the 1-norm for a Liouvillian, a 2-norm bound for the arrowhead oracle);
  ``check_stability`` guards that bound.

Steps and records are independent. The theta_m bound holds at every point
inside a step, so ``rk4`` reads a record that falls inside a step off that
step's Taylor terms, with vector sums instead of generator products; a plan
spans as many records per step as its bound allows. The step buffer this
needs is bounded by STEP_BUFFER_BYTES, and ``TimeGrid.taylor`` plans within
it: a step keeps its m + 1 terms whenever they fit the buffer, and otherwise
adds them into one accumulator per record. Every ``cli`` run, the validate oracle included, is a Taylor plan; RK4
grids serve library callers that size steps on omega_max.

Records reach the caller in blocks: ``rk4`` hands its recorder a (k, size)
array of k consecutive records, k = 1 at a step end and up to
RECORD_BLOCK_BYTES of them inside a step, so the per-record work (readout,
traces, Hermiticity, eigenvalues) runs as batched array operations.

``evolve`` steps the row-major vectorised density matrix,
vec(rho) = rho.reshape(-1), with one sparse matvec per Taylor term on the
generator that ``liouvillian`` builds, once per run, from
vec(A rho B) = (A ⊗ Bᵀ) vec(rho). Expectation values are dots with vec(Aᵀ),
one matrix product per block of records, and the per-record hygiene checks
(trace, Hermiticity, eigenvalues) run on a reshaped view of the same block.

``evolve`` tracks, alongside the density matrix, the running integral
of the first observable, integrating each Taylor term exactly (at degree 4
these are the RK4 stage weights), up to a record inside a step too. For the
collective number operator and a sqrt(gamma)*A collapse channel this makes
the quanta bookkeeping

    <s+s->(t) + <A†A>(t) + gamma * int_0^t <A†A> dt'

exactly conserved along the *numerical* trajectory (the Lindblad trace
identity holds per stage), so the subradiant accounting is not limited by
any quadrature on the recording grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, gcd

import numpy as np
from scipy import sparse

from .hilbert import DensityMatrix, Operator

STABILITY_LIMIT = 0.25   # hard guard on dt * omega_max
DT_FACTOR = 0.015        # default accuracy target for production curves
TRACE_TOL = 1e-7
POSITIVITY_TOL = 1e-6
# the most memory one Taylor step may hold to read records off its terms
STEP_BUFFER_BYTES = 1 << 20
# the most memory one block of records handed to a recorder may take; the
# recorder's temporaries scale with it, so it stays a fraction of the buffer
RECORD_BLOCK_BYTES = STEP_BUFFER_BYTES // 8
TERM_BLOCK = 4           # terms an accumulating step adds into its records at once
# the highest degree a plan takes: at degree 55 the terms of a full step peak
# near e^9.9 ~ 2e4 times the state, and their cancellation shows above rounding
PLAN_MAX_DEGREE = 50

# theta_m: the largest ||hA||, in any consistent norm, for which the degree-m
# truncated Taylor series of exp(hA) has backward error below the
# double-precision unit roundoff
# (Higham, Functions of Matrices, 2008, Table A.3 for m <= 30; Al-Mohy &
# Higham, SIAM J. Sci. Comput. 2011, Table 3.1 for m >= 35)
TAYLOR_THETA = {
    4: 3.40e-4, 5: 2.40e-3, 6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2,
    10: 1.44e-1, 11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1,
    15: 6.41e-1, 16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43, 26: 2.64, 27: 2.86,
    28: 3.08, 29: 3.31, 30: 3.54, 35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}


class StabilityError(ValueError):
    """Grid too coarse for the stability guard; carries the passing n_steps."""

    def __init__(self, msg: str, required_n_steps: int):
        super().__init__(msg)
        self.required_n_steps = required_n_steps


class IntegrationError(RuntimeError):
    pass


def _inner_records(n_steps: int, n_record: int) -> int:
    """The most records that fall strictly inside one step, with records at
    k/n_record and steps at j/n_steps of the window: the multiples of n_steps
    in an open interval (j n_record, (j+1) n_record)."""
    return (n_record - gcd(n_steps, n_record) - 1) // n_steps + 1


def _held(degree: int, inner: int, size: int) -> int:
    """State vectors of `size` entries a step holds to read `inner` records
    off its terms: its degree + 1 terms when they fit STEP_BUFFER_BYTES or
    are no more than the accumulators; otherwise one accumulator per record,
    a block of TERM_BLOCK terms and the block's product with up to
    TERM_BLOCK records."""
    if not inner:
        return 0
    if (degree + 1) * 16 * size <= STEP_BUFFER_BYTES:
        return degree + 1
    return min(degree + 1, inner + TERM_BLOCK + min(inner, TERM_BLOCK))


def _block_rows(size: int) -> int:
    """Records of `size` entries in one block handed to a recorder."""
    return max(1, RECORD_BLOCK_BYTES // (16 * size))


@dataclass(frozen=True)
class TimeGrid:
    """Integration grid over [t_start, t_end]: n_steps Taylor steps of the
    given degree (4: classical RK4) and n_record + 1 records (the initial
    point included) at t_start + k (t_end - t_start) / n_record. The two
    counts are independent: a record that falls inside a step is read off
    that step's Taylor terms.

    The recorded times depend only on (t_start, t_end, n_record), not on
    n_steps, so two grids over the same window with the same number of
    records share bit-identical times whatever their step counts."""

    t_start: float
    t_end: float
    n_steps: int
    n_record: int
    degree: int = 4

    def __post_init__(self):
        if self.t_end <= self.t_start:
            raise ValueError("t_end must exceed t_start")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.n_record < 1:
            raise ValueError("n_record must be >= 1")
        if self.degree not in TAYLOR_THETA:
            raise ValueError(f"degree must be one of {sorted(TAYLOR_THETA)}, "
                             f"got {self.degree}")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / self.n_steps

    @property
    def applications(self) -> int:
        """Generator products over the whole grid: degree per step."""
        return self.degree * self.n_steps

    def buffer(self, size: int) -> int:
        """State vectors the step buffer of ``rk4`` holds on this grid for
        state vectors of `size` entries."""
        return _held(self.degree, _inner_records(self.n_steps, self.n_record), size)

    @property
    def times(self) -> np.ndarray:
        """Recorded times, including t_start and ending exactly at t_end."""
        return np.linspace(self.t_start, self.t_end, self.n_record + 1)

    @classmethod
    def auto(cls, h: Operator, t_start: float, t_end: float, n_record: int = 500,
             collapse: list[Operator] | None = None,
             dt_factor: float = DT_FACTOR) -> "TimeGrid":
        """Grid with dt chosen so dt * omega_max <= dt_factor, rounded up to a
        multiple of n_record."""
        return cls.sized(omega_max(h, collapse or []), t_start, t_end, n_record,
                         dt_factor)

    @classmethod
    def sized(cls, wmax: float, t_start: float, t_end: float, n_record: int,
              dt_factor: float) -> "TimeGrid":
        """Grid with dt * wmax <= dt_factor, rounded up to a multiple of n_record."""
        n = max(n_record, int(np.ceil((t_end - t_start) * wmax / dt_factor)))
        n = ((n + n_record - 1) // n_record) * n_record
        return cls(t_start, t_end, n, n_record)

    @classmethod
    def taylor(cls, norm: float, t_start: float, t_end: float, n_record: int,
               size: int = 1) -> "TimeGrid":
        """The unit-roundoff Taylor plan with the fewest generator products
        over the whole window: degree 4 <= m <= PLAN_MAX_DEGREE and s steps
        minimising m * s subject to s * TAYLOR_THETA[m] >= norm * (t_end -
        t_start), where norm bounds the generator in any consistent norm, and
        to the step buffer fitting STEP_BUFFER_BYTES for state vectors of
        `size` entries (ties go to the lower degree)."""
        span = norm * (t_end - t_start)
        room = STEP_BUFFER_BYTES // (16 * size)
        plans = []
        for m, theta in TAYLOR_THETA.items():
            if m > PLAN_MAX_DEGREE:
                break
            s = max(1, ceil(span / theta))
            # more steps hold fewer records each; with n_record | s none
            while _held(m, _inner_records(s, n_record), size) > room:
                s += 1
            plans.append((s, m))
        s, m = min(plans, key=lambda sm: (sm[0] * sm[1], sm[1]))
        return cls(t_start, t_end, s, n_record, m)


@dataclass(frozen=True)
class Trajectory:
    """Recorded expectation values and per-point diagnostics.

    total_n = collective_n + subradiant_n by construction; subradiant_n is
    gamma times the step-accumulated integral of collective_n.
    """

    times: np.ndarray
    collective_n: np.ndarray
    qubit_excited: np.ndarray
    subradiant_n: np.ndarray
    trace_err: np.ndarray
    min_eig: np.ndarray
    herm_err: np.ndarray
    extra: np.ndarray | None = None

    @property
    def total_n(self) -> np.ndarray:
        return self.collective_n + self.subradiant_n


def omega_max(h: Operator, collapse: list[Operator] | None = None) -> float:
    """Row-sum estimate of the fastest angular frequency, including the
    dissipative drift scale of the collapse channels."""
    w = float(np.max(np.sum(np.abs(h.mat), axis=1)))
    for ell in collapse or []:
        ldl = ell.mat.conj().T @ ell.mat
        w += float(np.max(np.sum(np.abs(ldl), axis=1)))
    return w


def check_stability(grid: TimeGrid, wmax: float, bound: float | None = None) -> None:
    """Raise StabilityError when the step is too long for the grid's degree:
    dt * wmax > STABILITY_LIMIT at degree 4 (RK4), or dt * bound >
    TAYLOR_THETA[m] at degree m > 4. bound is an upper bound on the
    generator in any consistent norm, since the theta_m backward-error bound
    holds in every such norm; it defaults to wmax, the row sum, which is the
    exact 1-norm of a Hermitian or complex-symmetric generator."""
    m = grid.degree
    if m == 4:
        name, scale, limit = "omega_max", wmax, STABILITY_LIMIT
    else:
        name, scale, limit = "norm", wmax if bound is None else bound, TAYLOR_THETA[m]
    if grid.dt * scale > limit:
        # the fewest passing steps that the record count divides
        need = TimeGrid.sized(scale, grid.t_start, grid.t_end, grid.n_record,
                              limit).n_steps
        bound = limit if m == 4 else f"theta_{m} = {limit}"
        raise StabilityError(
            f"dt*{name} = {grid.dt * scale:.3g} exceeds {bound}; "
            f"n_steps >= {need} required", required_n_steps=need)


def rk4(rhs, y0: np.ndarray, grid: TimeGrid, record, integrand=None) -> None:
    """Taylor steps of degree m = grid.degree for the linear dy/dt = rhs(y) = A y
    from y0 over grid: with h = grid.dt and the terms T_k = (hA)^k y / k!, a
    step maps y to sum_{k<=m} T_k, which at m = 4 is the classical RK4 map.

    record(first, ys, integrals) receives the recorded points in blocks of
    consecutive records: row j of the (k, size) array ys is record first + j
    (record 0 is y0) and integrals[j] its running integral. A record at a
    step end comes as a block of one, the records inside a step in blocks of
    at most RECORD_BLOCK_BYTES. ys may be a view of the step buffer, so the
    recorder copies what it keeps.

    The running integral is that of the linear scalar integrand(y): a step
    adds h * sum_{k<m} integrand(T_k) / (k + 1), the exact integral over the
    step of the Taylor polynomial (at m = 4, RK4's stage-weighted sum); 0
    without an integrand. A record at fraction x in (0, 1) of a step is read
    off the step's terms without further generator products: y = sum_k x^k
    T_k and integral + h * sum_{k<m} x^(k+1) integrand(T_k) / (k + 1), the
    same polynomial and its exact integral.
    """
    h, m = grid.dt, grid.degree
    n_steps, n_rec = grid.n_steps, grid.n_record
    y = np.array(y0, dtype=complex)
    acc = 0.0
    record(0, y[None], np.zeros(1))
    dense = _DenseOutput(grid, y.size)
    i = 1  # the next record
    for step in range(n_steps):
        first = i
        while i <= n_rec and i * n_steps < (step + 1) * n_rec:
            i += 1
        term = y
        y = y.copy()
        if i > first:
            gain = dense.step(rhs, integrand, y, step, first, i, record, acc)
        else:
            gain = 0.0
            for k in range(1, m + 1):
                if integrand is not None:
                    gain += integrand(term) / k
                term = (h / k) * rhs(term)
                y += term
        acc += h * gain
        if i <= n_rec and i * n_steps == (step + 1) * n_rec:
            record(i, y[None], np.array([acc]))
            i += 1


class _DenseOutput:
    """The records inside the steps of a grid, read off each step's terms as
    sum_k x^k T_k within a buffer of grid.buffer(size) vectors, and handed
    to the recorder in blocks of _block_rows(size) records. The step
    computes its terms into the buffer. When the buffer keeps all m + 1 of
    them (they fit STEP_BUFFER_BYTES, or the accumulators would be more),
    each block is one product of the records' weights with the terms;
    otherwise every TERM_BLOCK terms are added into one accumulator per
    record, and the blocks are slices of the accumulators."""

    def __init__(self, grid: TimeGrid, size: int):
        self.grid, m = grid, grid.degree
        self.chunk = _block_rows(size)
        buf = np.empty((grid.buffer(size), size), dtype=complex)
        self.keep = len(buf) == m + 1
        if self.keep:
            self.terms = buf
            self.rows, self.adds = list(buf), [False] * (m + 1)
        elif len(buf):
            inner = _inner_records(grid.n_steps, grid.n_record)
            self.block, self.sums = buf[:TERM_BLOCK], buf[len(buf) - inner:]
            self.product = buf[TERM_BLOCK:len(buf) - inner]
            self.rows = [self.block[k % TERM_BLOCK] for k in range(m + 1)]
            self.adds = [k % TERM_BLOCK == TERM_BLOCK - 1 or k == m for k in range(m + 1)]

    def step(self, rhs, integrand, y: np.ndarray, step: int, first: int, stop: int,
             record, acc: float) -> float:
        """Take the step from the state y, adding its terms into y in place in
        the order of ``rk4``'s plain step, and record first..stop - 1 off
        them (acc is the integral at the step start); return the step's
        integral gain over h."""
        grid = self.grid
        h, m = grid.dt, grid.degree
        n = stop - first
        x = (np.arange(first, stop) * grid.n_steps - step * grid.n_record) / grid.n_record
        self.powers = x[:, None] ** np.arange(m + 1)
        self.weights = self.powers.astype(complex)
        rows = self.rows
        rows[0][:] = y
        if not self.keep:
            self.sums[:n] = 0.0
        term = rows[0]
        gain = 0.0
        gains = []
        for k in range(1, m + 1):
            if integrand is not None:
                gains.append(integrand(term))
                gain += gains[-1] / k
            term = np.multiply(rhs(term), h / k, out=rows[k])
            y += term
            if self.adds[k]:
                self.add_block(k)
        integrals = (acc + h * ((self.powers[:, 1:] / np.arange(1, m + 1)) @ gains)
                     if gains else np.full(n, acc))
        for lo in range(0, n, self.chunk):
            hi = min(n, lo + self.chunk)
            ys = self.weights[lo:hi] @ self.terms if self.keep else self.sums[lo:hi]
            record(first + lo, ys, integrals[lo:hi])
        return gain

    def add_block(self, k: int) -> None:
        """Add the block of terms that ends with T_k into the accumulators."""
        lo, n = k - k % TERM_BLOCK, len(self.powers)
        for r in range(0, n, TERM_BLOCK):
            rows = slice(r, min(n, r + TERM_BLOCK))
            out = self.product[:rows.stop - r]
            np.matmul(self.weights[rows, lo:k + 1], self.block[:k + 1 - lo], out=out)
            self.sums[rows] += out


def liouvillian(h: Operator, collapse: list[Operator]) -> sparse.csr_array:
    """Sparse generator of drho/dt = -i[H,rho] + sum_k (J rho J† - {J†J, rho}/2)
    on the row-major vec(rho) = rho.reshape(-1):

        L = K ⊗ I + I ⊗ conj(K) + sum_k J_k ⊗ conj(J_k),  K = -iH - ½ sum_k J_k†J_k,

    from vec(A rho B) = (A ⊗ Bᵀ) vec(rho) applied to K rho, rho K† and J rho J†.
    """
    k = -1j * h.mat
    for ell in collapse:
        k = k - 0.5 * (ell.mat.conj().T @ ell.mat)
    eye = sparse.eye_array(h.dim, dtype=complex, format="csr")
    lv = sparse.kron(k, eye) + sparse.kron(eye, k.conj())
    for ell in collapse:
        lv = lv + sparse.kron(ell.mat, ell.mat.conj())
    return sparse.csr_array(lv)


def norm1(a: sparse.csr_array) -> float:
    """The 1-norm (max column sum) of a sparse generator, exactly."""
    return float(abs(a).sum(axis=0).max())


def evolve(h: Operator, collapse: list[Operator], rho0: DensityMatrix,
           grid: TimeGrid, observables: list[Operator],
           gamma: float = 0.0, lv: sparse.csr_array | None = None,
           norm: float | None = None) -> Trajectory:
    """Integrate drho/dt = -i[H,rho] + sum_k (L rho L† - {L†L, rho}/2).

    Parameters
    ----------
    h : Operator
        Hamiltonian (Hermitian-flagged).
    collapse : list of Operator
        Collapse channels L_k (rates folded into the operators).
    rho0 : DensityMatrix
        Initial state.
    grid : TimeGrid
        Fixed-step grid of any degree; rejected by ``check_stability``.
    observables : list of Operator
        observables[0] must be the collective number operator (it feeds the
        subradiant accumulator); observables[1], when present, the qubit
        excitation projector. Further entries land in Trajectory.extra.
    gamma : float
        Bookkeeping rate for the subradiant accounting,
        subradiant_n(t) = gamma * int_0^t <observables[0]> dt'.
    lv : sparse.csr_array, optional
        ``liouvillian(h, collapse)``, when the caller has built it already.
    norm : float, optional
        ``norm1(lv)``, when the caller has computed it already. The guard
        reads it above degree 4 and ``omega_max(h, collapse)`` at degree 4;
        only the one it reads is computed here.
    """
    if not observables:
        raise ValueError("need at least the collective number observable")
    for op in [h, *collapse, *observables]:
        if op.dims != rho0.dims:
            raise ValueError(
                f"dimension mismatch: {op.dims.factors} vs state {rho0.dims.factors}"
            )

    if lv is None:
        lv = liouvillian(h, collapse)
    wmax = omega_max(h, collapse) if grid.degree == 4 else None
    if grid.degree > 4 and norm is None:
        norm = norm1(lv)
    check_stability(grid, wmax, norm)
    # row k is vec(O_kᵀ), so readout @ vec(rho) = [Tr(O_k rho)]_k
    readout = np.array([op.mat.T.reshape(-1) for op in observables], dtype=complex)
    num_vec = readout[0]
    dim = rho0.dims.dim

    n_rec = grid.n_record
    n_extra = max(0, len(observables) - 2)
    rec = {
        "collective_n": np.empty(n_rec + 1),
        "qubit_excited": np.zeros(n_rec + 1),
        "subradiant_n": np.empty(n_rec + 1),
        "trace_err": np.empty(n_rec + 1),
        "min_eig": np.empty(n_rec + 1),
        "herm_err": np.empty(n_rec + 1),
    }
    extra = np.empty((n_rec + 1, n_extra)) if n_extra else None

    def record(first, ys, integrals):
        block = slice(first, first + len(ys))
        values = (ys @ readout.T).real
        rec["collective_n"][block] = values[:, 0]
        if len(observables) > 1:
            rec["qubit_excited"][block] = values[:, 1]
        if extra is not None:
            extra[block] = values[:, 2:]
        rec["subradiant_n"][block] = gamma * integrals
        rho = ys.reshape(-1, dim, dim)
        rho_h = rho.conj().transpose(0, 2, 1)
        rec["trace_err"][block] = np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0)
        rec["herm_err"][block] = np.max(np.abs(rho - rho_h), axis=(1, 2))
        min_eig = np.linalg.eigvalsh(0.5 * (rho + rho_h))[:, 0]
        rec["min_eig"][block] = min_eig
        bad = np.flatnonzero(min_eig < -POSITIVITY_TOL)
        if bad.size:
            i = first + int(bad[0])
            raise IntegrationError(
                f"positivity violated at t={grid.times[i]:.6g}: "
                f"min eig {rec['min_eig'][i]:.3g}, trace err {rec['trace_err'][i]:.3g}")

    rk4(lambda y: lv @ y, rho0.mat.reshape(-1), grid, record,
        integrand=lambda y: float(np.dot(num_vec, y).real))

    if rec["trace_err"][-1] > TRACE_TOL:
        raise IntegrationError(f"final trace error {rec['trace_err'][-1]:.3g} > {TRACE_TOL}")

    return Trajectory(times=grid.times, extra=extra, **rec)


def readout_gain(traj_e: Trajectory, traj_g: Trajectory) -> np.ndarray:
    """Excited-minus-ground difference of total ensemble excitation."""
    if not np.array_equal(traj_e.times, traj_g.times):
        raise ValueError("trajectories recorded on different grids")
    return traj_e.total_n - traj_g.total_n
