"""Fixed-step integration of the Lindblad master equation, and the Taylor
core every solver in the package shares.

Every generator here is constant, so one step of size h is the degree-m
truncated Taylor series of exp(hA) applied to y, and ``taylor_steps`` is
that one loop. ``TimeGrid.taylor`` picks, over the whole window, the degree
and step count with the fewest generator products such that dt * ||A|| <=
TAYLOR_THETA[m], the unit-roundoff bound of Al-Mohy & Higham (SIAM J. Sci.
Comput. 2011), which holds in any consistent norm (a 2-norm bound for the
Liouvillian and for the arrowhead oracle); ``check_stability`` guards that
bound, the one guard of every run. theta_m bounds the worst state, so m is
a cap: given beta >= ||A|| in the infinity norm or the 2-norm,
``taylor_steps`` ends a step after the term T_k once a proved bound on the
terms after it, tail_k ||T_k||, falls to unit roundoff of the state's ||y||,
in the norm beta bounds. ``evolve`` passes beta = ||R||_inf
(``Lindblad.stop``), and its runs stop at about half the plan's products;
the oracle passes its 2-norm bound ``arrowhead_norm``, and its steps stop
at 40-41 of 50 terms.

Steps and records are independent. The theta_m bound holds at every point
inside a step, so ``taylor_steps`` reads a record that falls inside a step
off that step's Taylor terms (those it took before it stopped), with vector
sums instead of generator products; a plan spans as many records per step
as its bound allows. A step with a record inside it keeps its terms, at
most m + 1, in the step buffer (``TimeGrid.buffer``), so step memory is
bounded by degree + 1 state vectors whatever the state's size.

Records reach the caller in blocks: ``taylor_steps`` hands its recorder a
(k, size) array of k consecutive records, k = 1 at a step end and up to
RECORD_BLOCK_BYTES of them inside a step, so the per-record work (readout,
traces, eigenvalues) runs as batched array operations. A step-end block is
a view of the state, which the next step overwrites, so a recorder copies
what it keeps. The block bound counts bytes of the state's own dtype:
the stepper keeps that dtype, real or complex.

``evolve`` steps rho in real Hermitian coordinates: the D² real numbers
u = (rho_ii, Re rho_ij, Im rho_ij for i < j), laid out as a row-major D x D
array whose diagonal and upper triangle hold rho_ii and Re rho_ij and whose
lower triangle holds Im rho_ij at (j, i) (``hermitian_coords``; rebuilding
rho is a pure scatter, ``density_matrices``). Every generator here maps
Hermitian rho to Hermitian rho, so the Lindblad map acts on u as a real
sparse matrix R (``real_generator``), built from the Liouvillian that
``liouvillian`` builds on the row-major vec(rho) = rho.reshape(-1), from
vec(A rho B) = (A ⊗ Bᵀ) vec(rho). Both are assembled in numpy as canonical
CSR arrays (``CsrMatrix``, ``csr_sum``), with the sums in the order and the
bits of scipy.sparse. ``Lindblad.build`` builds them once per model, keeps
R with its two norms and drops L; ``evolve`` runs that value, and runs of
one model share it. Each Taylor term is one product
with R through scipy's compiled CSR kernel, ``csr_matvec``, loaded from its
extension file alone, so that no scipy package module is imported.
Expectation values and the trace are real dot products with u, one matrix
product per block of records, and each block is rebuilt into rho once for
its positivity guard. A run either measures positivity (``eigvalsh`` on
every block, kept in ``Trajectory.min_eig``) or only certifies it (one
batched Cholesky of rho + POSITIVITY_TOL I per block, and min_eig None);
the guard refuses the same records either way (``evolve``). In ``cli`` the
runs written to a CSV and validate's conservation run measure, since the
sidecar's ``min_eig_min`` and validate's ``positivity`` read the value; the
convergence reruns and validate's other runs certify.

Plans and guards take ``norm_bound``, sqrt(||L||_1 ||L||_inf) >= ||L||_2.
It bounds R in the norm that gives u the Frobenius norm of the rho it
stands for, and theta_m holds in that norm too; ||R||_1 is about 1.3 times
||L||_1 and would cost as many more products. ``generator_gap`` asks
whether R is L on the coordinates, T R u = L T u, on fixed probes u: it is
rounding for every generator ``real_generator`` builds from ``liouvillian``,
and it flags both a generator that does not keep rho Hermitian, whose
non-Hermitian part the coordinates would drop, and a slip in R (validate's
hermiticity check reads it against HERMITICITY_TOL).

``evolve`` tracks, alongside the density matrix, the running integral
of the first observable, integrating each Taylor term exactly, up to a
record inside a step too, for a Taylor polynomial of whatever degree its
step stopped at. For the collective number operator and a sqrt(gamma)*A
collapse channel this makes the quanta bookkeeping

    <s+s->(t) + <A†A>(t) + gamma * int_0^t <A†A> dt'

exactly conserved along the *numerical* trajectory (the Lindblad trace
identity holds per stage), so the subradiant accounting is not limited by
any quadrature on the recording grid.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from math import ceil, isfinite, isqrt, sqrt

import numpy as np

from .hilbert import HERM_TOL, DensityMatrix, Operator

# validate's timestep_guard reads dt * norm / theta_m scaled by this, and
# passes up to it: exactly when the step is within theta_m
STABILITY_LIMIT = 0.25
TRACE_TOL = 1e-7
POSITIVITY_TOL = 1e-6
# the largest gap between the real generator and the Liouvillian on the
# coordinates (``generator_gap``), relative to ||L||_inf
HERMITICITY_TOL = 1e-9
# the most memory one block of records handed to a recorder may take; the
# recorder's temporaries (eigvalsh's among them) scale with it
RECORD_BLOCK_BYTES = 1 << 17
ENTRY_BLOCK = 2048       # entries of a Liouvillian read at a time by real_generator
# the highest degree a plan takes: at degree 55 the terms of a full step peak
# near e^9.9 ~ 2e4 times the state, and their cancellation shows above rounding
PLAN_MAX_DEGREE = 50
# the most generator products a plan may take: 1e9 products at the 10-36 us
# each of a d=16 or d=32 product is 3-10 hours, where the default 1 us runs
# plan 46,000 (d=16) and 66,950 (d=32)
PLAN_MAX_PRODUCTS = 10**9
# the double-precision unit roundoff, the size of the terms a step may drop
# relative to its state
UNIT_ROUNDOFF = 2.0 ** -53


def _load_sparsetools():
    """scipy's compiled sparse kernels, the extension file behind
    ``scipy.sparse._sparsetools``, loaded on its own: importing scipy.sparse
    for them would run scipy's array-API layer and more, about 0.2 s and
    20 MB. The module is registered as ``spinamp._sparsetools``; under
    scipy's own name it would stand in for the module that a later
    ``import scipy.sparse`` initialises."""
    scipy = importlib.util.find_spec("scipy")  # locates scipy without running it
    if scipy is None or scipy.origin is None:
        raise ImportError("scipy is not installed: spinamp needs its sparse kernels")
    directory = os.path.join(os.path.dirname(scipy.origin), "sparse")
    finder = importlib.machinery.FileFinder(
        directory, (importlib.machinery.ExtensionFileLoader,
                    importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec("spinamp._sparsetools")
    if spec is None:
        raise ImportError(f"no _sparsetools extension in {directory}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# y += A x for a CSR matrix A, the kernel behind scipy's A @ x
csr_matvec = _load_sparsetools().csr_matvec

# theta_m: the largest ||hA||, in any consistent norm, for which the degree-m
# truncated Taylor series of exp(hA) has backward error below the
# double-precision unit roundoff
# (Higham, Functions of Matrices, 2008, Table A.3 for m <= 30; Al-Mohy &
# Higham, SIAM J. Sci. Comput. 2011, Table 3.1 for m >= 35)
TAYLOR_THETA = {
    5: 2.40e-3, 6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44, 21: 1.62,
    22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43, 26: 2.64, 27: 2.86, 28: 3.08,
    29: 3.31, 30: 3.54, 35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}


class StabilityError(ValueError):
    """A step too long for the stability guard, or a generator norm times
    window that is not finite or needs more than PLAN_MAX_PRODUCTS products,
    so that no step count can be planned."""


class IntegrationError(RuntimeError):
    pass


def _block_rows(nbytes: int) -> int:
    """Records of `nbytes` bytes each in one block handed to a recorder."""
    return max(1, RECORD_BLOCK_BYTES // nbytes)


@dataclass(frozen=True)
class TimeGrid:
    """Integration grid over [t_start, t_end]: n_steps Taylor steps of the
    given degree, a key of TAYLOR_THETA, and n_record + 1 records (the
    initial point included) at t_start + k (t_end - t_start) / n_record. The
    two counts are independent: a record that falls inside a step is read
    off that step's Taylor terms.

    The recorded times depend only on (t_start, t_end, n_record), not on
    n_steps, so two grids over the same window with the same number of
    records share bit-identical times whatever their step counts."""

    t_start: float
    t_end: float
    n_steps: int
    n_record: int
    degree: int

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
        """Generator products over the whole grid at degree per step: the
        cap on what ``taylor_steps`` applies when its steps stop early."""
        return self.degree * self.n_steps

    @property
    def buffer(self) -> int:
        """State vectors in the step buffer of ``taylor_steps`` on this grid:
        the degree + 1 terms of a step when some record falls inside a step,
        else 0 (every record falls on a step end exactly when n_record
        divides n_steps)."""
        return self.degree + 1 if self.n_steps % self.n_record else 0

    @property
    def times(self) -> np.ndarray:
        """Recorded times, including t_start and ending exactly at t_end."""
        return np.linspace(self.t_start, self.t_end, self.n_record + 1)

    @classmethod
    def auto(cls, h: Operator, t_start: float, t_end: float, n_record: int = 500,
             collapse: list[Operator] | None = None) -> "TimeGrid":
        """The Taylor plan (``taylor``) of the Lindblad run of h and
        collapse, on norm_bound(liouvillian(h, collapse)), the norm that
        ``evolve``'s guard reads (``Lindblad.norm``). It builds a Liouvillian
        of its own, so a caller that holds the model plans on
        ``taylor(model.norm, ...)``; no CLI run calls it, and it stays because
        perfbench's tracing hook wraps it."""
        return cls.taylor(norm_bound(liouvillian(h, collapse or [])), t_start, t_end, n_record)

    @classmethod
    def taylor(cls, norm: float, t_start: float, t_end: float,
               n_record: int) -> "TimeGrid":
        """The unit-roundoff Taylor plan with the fewest generator products
        over the whole window: a degree m <= PLAN_MAX_DEGREE of TAYLOR_THETA
        and s steps minimising m * s subject to s * TAYLOR_THETA[m] >= norm *
        (t_end - t_start), where norm bounds the generator in any consistent
        norm (ties go to the lower degree). A StabilityError when norm times
        the window is not finite, or when that plan takes more than
        PLAN_MAX_PRODUCTS products."""
        span = norm * (t_end - t_start)
        if not isfinite(span):
            raise StabilityError(f"generator norm {norm:.3g} times window "
                                 f"[{t_start:.3g}, {t_end:.3g}] is not finite")
        # every plan takes more than span products (m > theta_m), so a span
        # past the budget is cut to it before span / theta could overflow
        span = min(span, PLAN_MAX_PRODUCTS)
        plans = [(max(1, ceil(span / theta)), m) for m, theta in TAYLOR_THETA.items()
                 if m <= PLAN_MAX_DEGREE]
        s, m = min(plans, key=lambda sm: (sm[0] * sm[1], sm[1]))
        if m * s > PLAN_MAX_PRODUCTS:
            raise StabilityError(f"generator norm {norm:.3g} times window [{t_start:.3g}, "
                                 f"{t_end:.3g}] needs more than PLAN_MAX_PRODUCTS = "
                                 f"{PLAN_MAX_PRODUCTS:.0e} generator products")
        return cls(t_start, t_end, s, n_record, m)


@dataclass(frozen=True)
class Trajectory:
    """Recorded expectation values and per-point diagnostics.

    total_n = collective_n + subradiant_n by construction; subradiant_n is
    gamma times the step-accumulated integral of collective_n. min_eig is
    the smallest eigenvalue of rho at each record on a measured run, and
    None on a certified one (``evolve``'s ``positivity``), whose records
    were only shown to lie above -POSITIVITY_TOL. products is the number of
    generator products the run applied, at most grid.applications
    (``taylor_steps``'s stop).
    """

    times: np.ndarray
    collective_n: np.ndarray
    qubit_excited: np.ndarray
    subradiant_n: np.ndarray
    trace_err: np.ndarray
    min_eig: np.ndarray | None
    products: int
    extra: np.ndarray | None = None

    @property
    def total_n(self) -> np.ndarray:
        return self.collective_n + self.subradiant_n


def omega_max(h: Operator) -> float:
    """The largest absolute row sum of H: the exact 1-norm, and infinity
    norm, of a Hermitian H and of -iH."""
    return float(np.max(np.sum(np.abs(h.mat), axis=1)))


def check_stability(grid: TimeGrid, norm: float) -> None:
    """Raise StabilityError when dt * norm > TAYLOR_THETA[m], the longest
    step of the grid's degree m at unit roundoff. norm is an upper bound on
    the generator in any consistent norm, since the theta_m backward-error
    bound holds in every such norm."""
    limit = TAYLOR_THETA[grid.degree]
    if grid.dt * norm > limit:
        raise StabilityError(f"dt*norm = {grid.dt * norm:.3g} exceeds "
                             f"theta_{grid.degree} = {limit}")


def _tails(h_bound: float, m: int) -> list[float]:
    """tail[k] = sum_{i=1}^{m-k} (h beta)^i k! / (k + i)! for k = 0..m, with
    h_bound = h beta: since ||T_{k+i}|| <= ||T_k|| (h beta)^i k! / (k + i)!
    for beta >= ||A||, the terms after T_k sum to at most tail[k] ||T_k||."""
    tail = [0.0] * (m + 1)
    for k in range(m - 1, -1, -1):
        tail[k] = h_bound / (k + 1) * (1.0 + tail[k + 1])
    return tail


def _norm(v: np.ndarray, ord: float) -> float:
    """||v|| of order `ord`: max |v_i| (inf), which is exact, or the 2-norm,
    the square root of the sum of squares of the float view of a contiguous
    v, real or complex, which einsum takes without a temporary the size of v
    and without BLAS."""
    if ord == 2:
        f = v.view(float)
        return sqrt(float(np.einsum("i,i->", f, f)))
    return float(np.max(np.abs(v)))


def taylor_steps(rhs, y0: np.ndarray, grid: TimeGrid, record, integrand=None, *,
                 bound: float, ord: float = np.inf) -> int:
    """Taylor steps of degree m = grid.degree for the linear dy/dt = rhs(y) = A y
    from y0 over grid: with h = grid.dt and the terms T_k = (hA)^k y / k!, a
    step maps y to sum_{k<=m} T_k. Returns the number of rhs products
    applied.

    bound = beta >= ||A|| makes m a cap: a step stops after the term T_k, at
    degree k, once tail_k ||T_k|| <= UNIT_ROUNDOFF ||y||, y the state at the
    step's start (``_tails``), so the terms it drops sum to at most unit
    roundoff of the state. The norm is the one beta bounds, of order `ord`:
    inf (max-abs values, which are exact) or 2 (the square root of a sum of
    squares, exact up to its own rounding). The proof holds in either, as
    ||A^i|| <= ||A||^i in any consistent norm. The test runs only where
    tail_k < 1, and neither norm calls BLAS, so the stop does not depend on
    the BLAS thread count. An infinite bound proves nothing, and every step
    takes its m terms.

    record(first, ys, integrals) receives the recorded points in blocks of
    consecutive records: row j of the (k, size) array ys is record first + j
    (record 0 is y0) and integrals[j] its running integral. A record at a
    step end comes as a block of one, a view of the state that the next step
    updates in place; the records inside a step come in blocks of at most
    RECORD_BLOCK_BYTES. The recorder copies what it keeps.

    The running integral is that of the linear scalar integrand(y): a step of
    degree m' (m, or where it stopped) adds h * sum_{k<m'} integrand(T_k) /
    (k + 1), the exact integral over the step of its Taylor polynomial; 0
    without an integrand. A record at fraction x in (0, 1) of a step is read
    off the step's terms without further generator products: y =
    sum_{k<=m'} x^k T_k and integral + h * sum_{k<m'} x^(k+1) integrand(T_k)
    / (k + 1), the same polynomial and its exact integral.

    A step with a record inside it writes T_k into row k of the m + 1 rows of
    the step buffer (``TimeGrid.buffer``), and each block of records is one
    product of their weights x^k with the step's m' + 1 rows (rows above m'
    hold an earlier step's terms); a step with none writes every term into
    one row. Either way each term is added into y in place,
    in the plain step's arithmetic: term = (h / k) * rhs(term); y += term.

    The state keeps the dtype of y0, float or complex. rhs may return a
    scratch array that its next call overwrites: each term is copied into
    the buffer as it is scaled.
    """
    if ord not in (2, np.inf):
        raise ValueError(f"ord must be inf or 2, got {ord!r}")
    h, m = grid.dt, grid.degree
    n_steps, n_rec = grid.n_steps, grid.n_record
    y = np.array(y0, dtype=complex if np.iscomplexobj(y0) else float)
    terms = np.empty((max(1, grid.buffer), y.size), dtype=y.dtype)
    # the same rows as floats: the weights x^k are real, so a block of
    # records costs real products on complex terms too
    terms_f = terms.view(float)
    r, chunk = len(terms), _block_rows(y.nbytes)
    tail = _tails(h * bound, m)
    # the first degree at which a step may stop; m (tail[m] = 0): none
    tested = next(k for k in range(1, m + 1) if tail[k] < 1.0)
    acc = 0.0
    products = 0
    record(0, y[None], np.zeros(1))
    i = 1  # the next record
    for step in range(n_steps):
        first = i
        while i <= n_rec and i * n_steps < (step + 1) * n_rec:
            i += 1
        n = i - first
        if tested < m:
            limit = UNIT_ROUNDOFF * _norm(y, ord)
            if not isfinite(limit):  # a sum of squares past the float range
                limit = 0.0          # bounds nothing: the step takes every term
        term = terms[0]
        term[:] = y
        gains = []
        deg = m
        for k in range(1, m + 1):
            if integrand is not None:
                gains.append(integrand(term))
            term = np.multiply(rhs(term), h / k, out=terms[k % r])
            y += term
            if tested <= k < m and tail[k] * _norm(term, ord) <= limit:
                deg = k
                break
        products += deg
        gain = sum(g / k for k, g in enumerate(gains, 1))
        if n:
            x = (np.arange(first, i) * n_steps - step * n_rec) / n_rec
            powers = x[:, None] ** np.arange(deg + 1)
            integrals = (acc + h * ((powers[:, 1:] / np.arange(1, deg + 1)) @ gains)
                         if gains else np.full(n, acc))
            for lo in range(0, n, chunk):
                hi = min(n, lo + chunk)
                record(first + lo, (powers[lo:hi] @ terms_f[:deg + 1]).view(y.dtype),
                       integrals[lo:hi])
        acc += h * gain
        if i <= n_rec and i * n_steps == (step + 1) * n_rec:
            record(i, y[None], np.array([acc]))
            i += 1
    return products


@dataclass(frozen=True)
class CsrMatrix:
    """A sparse matrix in canonical CSR form (``csr_sum``): row r holds the
    values data[indptr[r]:indptr[r + 1]] in the strictly increasing columns
    indices[indptr[r]:indptr[r + 1]], and no value is zero. indices and
    indptr share one integer dtype, as the CSR kernel needs."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]


def csr_sum(terms, shape: tuple[int, int]) -> CsrMatrix:
    """The canonical CSR matrix of the sum of `terms`, an iterable of
    (rows, cols, vals) triples of entries in which no (row, col) repeats.
    Each entry adds its terms' values in the order of the terms, as scipy
    adds canonical sparse matrices one after another, and the entries that
    sum to zero are dropped. Terms given by a generator are held only
    while they are needed."""
    n_rows, n_cols = shape
    index = np.int32 if n_rows * n_cols <= np.iinfo(np.int32).max else np.int64
    keyed = [(np.asarray(rows, index) * n_cols + np.asarray(cols, index), vals)
             for rows, cols, vals in terms]
    union = np.concatenate([key for key, _ in keyed])
    union.sort()
    first = np.ones(len(union), bool)
    first[1:] = union[1:] != union[:-1]
    union = union[first]
    data = np.zeros(len(union), np.result_type(*(vals for _, vals in keyed)))
    while keyed:  # each term is let go once added
        key, vals = keyed.pop(0)
        np.add.at(data, np.searchsorted(union, key), vals)
    keep = data != 0
    rows, cols = np.divmod(union[keep], n_cols)
    indptr = np.zeros(n_rows + 1, index)
    indptr[1:] = np.cumsum(np.bincount(rows, minlength=n_rows))
    return CsrMatrix(data[keep], cols, indptr, shape)


def liouvillian(h: Operator, collapse: list[Operator]) -> CsrMatrix:
    """Sparse generator of drho/dt = -i[H,rho] + sum_k (J rho J† - {J†J, rho}/2)
    on the row-major vec(rho) = rho.reshape(-1):

        L = K ⊗ I + I ⊗ conj(K) + sum_k J_k ⊗ conj(J_k),  K = -iH - ½ sum_k J_k†J_k,

    from vec(A rho B) = (A ⊗ Bᵀ) vec(rho) applied to K rho, rho K† and J rho J†.
    The terms are added in that order (``csr_sum``).
    """
    k = -1j * h.mat
    for ell in collapse:
        k = k - 0.5 * (ell.mat.conj().T @ ell.mat)
    eye = np.eye(h.dim, dtype=complex)
    pairs = [(k, eye), (eye, k.conj()), *((ell.mat, ell.mat.conj()) for ell in collapse)]
    return csr_sum((_kron_entries(a, b) for a, b in pairs), (h.dim ** 2, h.dim ** 2))


def _kron_entries(a: np.ndarray, b: np.ndarray) -> tuple:
    """(rows, cols, vals) of the nonzero products a_ij b_kl of the Kronecker
    product of two square arrays, each product taken as scipy.sparse.kron
    takes it, so that the sums keep its bits."""
    ia, ja = np.nonzero(a)
    ib, jb = np.nonzero(b)
    vals = np.repeat(a[ia, ja], len(ib)).reshape(len(ia), len(ib)) * b[ib, jb]
    return ((ia[:, None] * len(b) + ib).ravel(), (ja[:, None] * len(b) + jb).ravel(),
            vals.ravel())


def _abs_sums(a: CsrMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The column and row sums of |a|, each summed as scipy sums them."""
    mod = np.abs(a.data)
    columns = np.bincount(a.indices, mod, a.shape[1])
    rows = np.zeros(a.shape[0])
    full = np.diff(a.indptr) > 0
    rows[full] = np.add.reduceat(mod, a.indptr[:-1][full])
    return columns, rows


def norm_bound(a: CsrMatrix) -> float:
    """sqrt(||a||_1 ||a||_inf), exactly: an upper bound on ||a||_2, and so on
    the real generator of a Liouvillian in the norm of ``real_generator``."""
    columns, rows = _abs_sums(a)
    return sqrt(float(columns.max()) * float(rows.max()))


@lru_cache
def _scatter(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Where the real and imaginary parts of the entries of a dim x dim rho
    sit in its real coordinates u: rho.view(float).ravel() = u[index] * sign,
    with Re rho_ij at (min(i, j), max(i, j)) and Im rho_ij at (max(i, j),
    min(i, j)) with the sign of j - i."""
    at = np.arange(dim * dim).reshape(dim, dim)
    index = np.stack((np.minimum(at, at.T), np.maximum(at, at.T)), axis=-1)
    sign = np.stack((np.ones((dim, dim)), np.sign(at.T - at)), axis=-1)
    return index.ravel(), sign.ravel()


def hermitian_coords(rho: np.ndarray) -> np.ndarray:
    """The D² real coordinates of a D x D Hermitian rho, flattened from the
    D x D array whose diagonal and upper triangle hold rho_ii and Re rho_ij
    and whose entry (j, i) below the diagonal holds Im rho_ij (i < j)."""
    return (np.triu(rho.real) + np.tril(rho.imag.T, -1)).reshape(-1)


def density_matrices(us: np.ndarray, dim: int) -> np.ndarray:
    """The (k, dim, dim) Hermitian matrices of the k rows of coordinates us
    (``hermitian_coords``), by a scatter of each coordinate to its entries."""
    index, sign = _scatter(dim)
    rho = np.take(us, index, axis=1)
    rho *= sign
    return rho.view(complex).reshape(-1, dim, dim)


def real_generator(lv: CsrMatrix) -> CsrMatrix:
    """The real sparse generator R of the coordinates u (``hermitian_coords``)
    under the Liouvillian lv of a dim x dim rho.

    With T the map from u to vec(rho), column (a, b) of L T is column (a, b)
    of L for a = b; for a != b, column (a, b) of L feeds the coordinates of
    the pair {a, b}, Re rho_ab with weight 1 and Im rho_ab with weight i
    (a < b) or -i (a > b). Row (i, j) of R is Re of row (i, j) of L T for
    i <= j, and -Im of it for i > j, where coordinate (i, j) holds
    Im rho_ji = -Im rho_ij; each entry of R is an entry of L or the sum of
    two, and T R = L T when L keeps rho Hermitian (``generator_gap``).

    The entries of L are read ENTRY_BLOCK at a time, a block of whole rows,
    so that the build takes little memory beyond R's."""
    dim = isqrt(lv.shape[0])
    all_rows = _rows(lv.indptr)
    parts = []
    for lo, hi in _row_blocks(lv.indptr):
        entries = slice(lv.indptr[lo], lv.indptr[hi])
        rows, cols, v = all_rows[entries], lv.indices[entries], lv.data[entries]
        a, b = np.divmod(cols, dim)
        upper = rows // dim <= rows % dim
        re, im = np.where(upper, v.real, -v.imag), np.where(upper, v.imag, v.real)
        # each entry's part in its own column and, off the diagonal columns,
        # in the column of the other coordinate of its pair
        off = a != b
        parts.append(csr_sum([(rows, cols, np.where(a <= b, re, im)),
                              (rows[off], (b * dim + a)[off], np.where(a < b, -im, re)[off])],
                             lv.shape))
    # the blocks hold disjoint rows: their row pointers add up
    return CsrMatrix(np.concatenate([p.data for p in parts]),
                     np.concatenate([p.indices for p in parts]),
                     sum(p.indptr for p in parts), lv.shape)


def _rows(indptr: np.ndarray) -> np.ndarray:
    """The row of each entry of a CSR matrix with these row pointers."""
    return np.repeat(np.arange(len(indptr) - 1, dtype=indptr.dtype), np.diff(indptr))


def _row_blocks(indptr: np.ndarray):
    """(lo, hi) ranges of whole rows of about ENTRY_BLOCK entries each."""
    cuts = np.searchsorted(indptr, np.arange(ENTRY_BLOCK, indptr[-1], ENTRY_BLOCK))
    bounds = sorted({0, len(indptr) - 1, *cuts.tolist()})
    return zip(bounds[:-1], bounds[1:])


def generator_gap(lv: CsrMatrix, gen: CsrMatrix) -> float:
    """How far the real generator gen is from the Liouvillian lv on the
    coordinates: max |T R u - L T u| / (||L||_inf max |T u|) over the fixed
    probes u = 1 and u_k = (k + 1) / D², which touch every coordinate, with
    T u the rho of u (``density_matrices``). It is rounding, near 1e-16,
    when gen is ``real_generator(lv)`` and lv keeps rho Hermitian; a lv
    that does not, or a slip in gen, moves it. It takes no random numbers
    and calls no BLAS."""
    n = lv.shape[0]
    dim = isqrt(n)
    probes = np.stack([np.ones(n), np.arange(1, n + 1) / n])
    scale = float(_abs_sums(lv)[1].max())
    gap = 0.0
    for u, rho in zip(probes, density_matrices(probes, dim).reshape(len(probes), n)):
        ru, lrho = np.zeros(n), np.zeros(n, complex)
        csr_matvec(n, n, gen.indptr, gen.indices, gen.data, u, ru)
        csr_matvec(n, n, lv.indptr, lv.indices, lv.data, rho, lrho)
        diff = np.abs(density_matrices(ru[None], dim).reshape(n) - lrho).max()
        gap = max(gap, float(diff) / (scale * float(np.abs(rho).max())))
    return gap


@dataclass(frozen=True)
class Lindblad:
    """A Lindblad model in the form ``evolve`` runs it: the Hamiltonian h, its
    collapse channels, the real generator R of its Liouvillian L
    (``real_generator``), the plan-and-guard norm ``norm_bound(L)`` and the
    stop bound ||R||_inf, R's largest absolute row sum, on which each Taylor
    step ends. ``build`` makes it; runs of one model share it, and L is
    dropped once R and its norms are taken."""

    h: Operator
    collapse: tuple[Operator, ...]
    generator: CsrMatrix
    norm: float
    stop: float

    @classmethod
    def build(cls, h: Operator, collapse: list[Operator]) -> "Lindblad":
        """The model of drho/dt = -i[H,rho] + sum_k (L rho L† - {L†L, rho}/2),
        rates folded into the channels L_k; refused unless h reads
        ``h.hermitian`` and every channel acts on h's space."""
        if any(op.dims != h.dims for op in collapse):
            raise ValueError(f"dimension mismatch: a channel is off H's space {h.dims.factors}")
        if not h.hermitian:
            raise ValueError(f"the Hamiltonian must be Hermitian to {HERM_TOL:g}")
        lv = liouvillian(h, collapse)
        gen, norm = real_generator(lv), norm_bound(lv)
        del lv  # before the row sums' temporaries, which then take its memory
        stop = float(np.bincount(_rows(gen.indptr), np.abs(gen.data), gen.shape[0]).max())
        return cls(h, tuple(collapse), gen, norm, stop)


def evolve(model: Lindblad, rho0: DensityMatrix, grid: TimeGrid,
           observables: list[Operator], gamma: float = 0.0,
           positivity: str = "measure") -> Trajectory:
    """Integrate the Lindblad model in the real coordinates of rho
    (``hermitian_coords``), one product with its real generator R per Taylor
    term. The grid's degree is a cap: ``taylor_steps`` ends each step once
    its remaining terms fall below unit roundoff of the state, on the
    model's stop bound ||R||_inf, and Trajectory.products counts the
    products taken.

    Every record is guarded: a record with an eigenvalue of rho below
    -POSITIVITY_TOL ends the run with an IntegrationError that names the
    first such record.

    Parameters
    ----------
    model : Lindblad
        The model, ``Lindblad.build(h, collapse)``.
    rho0 : DensityMatrix
        Initial state, on the model's space.
    grid : TimeGrid
        Taylor grid, rejected by ``check_stability`` on model.norm.
    observables : list of Operator
        observables[0] must be the collective number operator (it feeds the
        subradiant accumulator); observables[1], when present, the qubit
        excitation projector. Further entries land in Trajectory.extra.
        Each reads Re Tr(O rho).
    gamma : float
        Bookkeeping rate for the subradiant accounting,
        subradiant_n(t) = gamma * int_0^t <observables[0]> dt'.
    positivity : {"measure", "certify"}
        How the guard reads each block of records. "measure" runs
        ``eigvalsh`` on every block and keeps the smallest eigenvalues in
        Trajectory.min_eig. "certify", for runs whose min_eig nothing reads,
        runs one batched Cholesky of rho + POSITIVITY_TOL I per block, which
        succeeds exactly when no eigenvalue lies below -POSITIVITY_TOL, up to
        rounding of order dim * eps * ||rho|| (Higham, Accuracy and Stability
        of Numerical Algorithms, 2002, ch. 10), about 1e-14 here; a block it
        fails on is measured with ``eigvalsh`` and raises as a measured run
        would. Trajectory.min_eig is then None.
    """
    if positivity not in ("measure", "certify"):
        raise ValueError(f'positivity must be "measure" or "certify", got {positivity!r}')
    if not observables:
        raise ValueError("need at least the collective number observable")
    if any(op.dims != model.h.dims for op in [rho0, *observables]):
        raise ValueError("dimension mismatch: the state or an observable is off the "
                         f"model's space {model.h.dims.factors}")
    check_stability(grid, model.norm)
    dim = rho0.dims.dim
    index, sign = _scatter(dim)
    diag = np.arange(dim) * (dim + 1)
    # row k holds Re Tr(O_k rho) = sum_ij Re((O_k)_ji) Re rho_ij - Im((O_k)_ji)
    # Im rho_ij on the coordinates
    readout = np.array([np.bincount(index, op.mat.T.conj().reshape(-1).view(float) * sign,
                                     dim * dim) for op in observables])
    num_vec = readout[0]

    n_rec = grid.n_record
    n_extra = max(0, len(observables) - 2)
    measure = positivity == "measure"
    rec = {
        "collective_n": np.empty(n_rec + 1),
        "qubit_excited": np.zeros(n_rec + 1),
        "subradiant_n": np.empty(n_rec + 1),
        "trace_err": np.empty(n_rec + 1),
        "min_eig": np.empty(n_rec + 1) if measure else None,
    }
    extra = np.empty((n_rec + 1, n_extra)) if n_extra else None

    def record(first, us, integrals):
        block = slice(first, first + len(us))
        values = us @ readout.T
        rec["collective_n"][block] = values[:, 0]
        if len(observables) > 1:
            rec["qubit_excited"][block] = values[:, 1]
        if extra is not None:
            extra[block] = values[:, 2:]
        rec["subradiant_n"][block] = gamma * integrals
        rec["trace_err"][block] = np.abs(us[:, diag].sum(axis=1) - 1.0)
        if not measure:
            shifted = density_matrices(us, dim)
            shifted.reshape(len(us), -1)[:, diag] += POSITIVITY_TOL  # in place
            try:
                np.linalg.cholesky(shifted)
                return  # no record of the block has an eigenvalue below -tol
            except np.linalg.LinAlgError:
                pass  # some record may have one: measure the block
        min_eig = np.linalg.eigvalsh(density_matrices(us, dim))[:, 0]
        if measure:
            rec["min_eig"][block] = min_eig
        bad = np.flatnonzero(min_eig < -POSITIVITY_TOL)
        if bad.size:
            i = int(bad[0])
            raise IntegrationError(
                f"positivity violated at t={grid.times[first + i]:.6g}: "
                f"min eig {min_eig[i]:.3g}, trace err {rec['trace_err'][first + i]:.3g}")

    generator = model.generator
    n = generator.shape[0]
    out = np.empty(n)

    def product(u):
        # scipy's kernel behind R @ u, into one scratch row: out += R u
        out.fill(0.0)
        csr_matvec(n, n, generator.indptr, generator.indices, generator.data, u, out)
        return out

    products = taylor_steps(product, hermitian_coords(rho0.mat), grid, record,
                            integrand=lambda u: float(np.dot(num_vec, u)),
                            bound=model.stop)

    if rec["trace_err"][-1] > TRACE_TOL:
        raise IntegrationError(f"final trace error {rec['trace_err'][-1]:.3g} > {TRACE_TOL}")

    return Trajectory(times=grid.times, extra=extra, products=products, **rec)


def readout_gain(traj_e: Trajectory, traj_g: Trajectory) -> np.ndarray:
    """Excited-minus-ground difference of total ensemble excitation."""
    if not np.array_equal(traj_e.times, traj_g.times):
        raise ValueError("trajectories recorded on different grids")
    return traj_e.total_n - traj_g.total_n
