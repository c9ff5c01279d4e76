"""Shared fixtures, and the references the Taylor plans are checked
against: the classical RK4 map (``rk4``), kept here as a short independent
integrator, and Van Loan's augmented matrix exponential (``expm_records``).
Test modules import them with ``from conftest import ...``."""

from math import ceil

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm

from spinamp.model import SystemParams

TWO_PI = 2.0 * np.pi
# dt * norm_bound(L) on the RK4 reference grids (``rk4_steps``)
RK4_STEP = 0.02


@pytest.fixture(scope="session")
def fig_params() -> SystemParams:
    """Matched-drive working point used throughout: gamma/2pi = 12.5,
    G/2pi = 75, Delta/2pi = 412.5, lambda_d/2pi = 40 MHz."""
    return SystemParams.from_mhz(nu_t=412.5, nu_bar=0.0, g=75.0,
                                 lambda_d=40.0, gamma=12.5)


def rk4(rhs, y0, t_end, n_steps, n_record, integrand=None):
    """The classical RK4 map for dy/dt = rhs(y) from y0 at t = 0, in n_steps
    equal steps over [0, t_end], recorded at the n_record + 1 step ends
    t_end * i / n_record (n_record divides n_steps). Returns the records as
    one array, and the running integral of the scalar integrand(y) at each,
    summed over a step with RK4's stage weights (zeros without one)."""
    if n_steps % n_record:
        raise ValueError("n_record must divide n_steps")
    h, every = t_end / n_steps, n_steps // n_record
    y, acc = np.array(y0), 0.0
    ys, integrals = [y], [acc]
    for step in range(1, n_steps + 1):
        k1 = rhs(y)
        y2 = y + h / 2 * k1
        k2 = rhs(y2)
        y3 = y + h / 2 * k2
        k3 = rhs(y3)
        y4 = y + h * k3
        k4 = rhs(y4)
        if integrand is not None:
            acc += h / 6 * (integrand(y) + 2 * integrand(y2) + 2 * integrand(y3)
                            + integrand(y4))
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if step % every == 0:
            ys.append(y)
            integrals.append(acc)
    return np.array(ys), np.array(integrals)


def rk4_steps(norm, t_end, n_record, step=RK4_STEP):
    """The fewest RK4 steps over [0, t_end] with dt * norm <= step, rounded
    up to a multiple of n_record."""
    return n_record * ceil(t_end * norm / step / n_record)


def _curves(ys, integrals, num, qubit, gamma):
    """``evolve``'s curves read off records of vec(rho) and the running
    integrals of <num> at them."""
    return {"collective_n": (ys @ num.mat.T.reshape(-1)).real,
            "qubit_excited": (ys @ qubit.mat.T.reshape(-1)).real,
            "subradiant_n": gamma * integrals.real}


def rk4_lindblad(lv, rho0, num, qubit, gamma, t_end, n_record, n_steps):
    """The RK4 reference of a Lindblad run: ``evolve``'s curves from RK4 on
    vec(rho) with the Liouvillian lv, in n_steps steps."""
    n_row = num.mat.T.reshape(-1)
    lv = sparse.csr_array((lv.data, lv.indices, lv.indptr), shape=lv.shape)
    ys, integrals = rk4(lambda y: lv @ y, rho0.mat.reshape(-1), t_end, n_steps, n_record,
                        integrand=lambda y: n_row @ y)
    return _curves(ys, integrals, num, qubit, gamma)


def expm_records(lv, rho0, num, qubit, gamma, t_end, n_record):
    """Van Loan: exp(dt [[L, 0], [n, 0]]) carries [vec rho; int <n>] over
    one record interval exactly; ``evolve``'s curves from that propagation."""
    dim = lv.shape[0]
    aug = np.zeros((dim + 1, dim + 1), dtype=complex)
    aug[:dim, :dim] = sparse.csr_array((lv.data, lv.indices, lv.indptr),
                                       shape=lv.shape).toarray()
    aug[dim, :dim] = num.mat.T.reshape(-1)
    step = expm(aug * (t_end / n_record))
    zs = [np.append(rho0.mat.reshape(-1), 0.0)]
    for _ in range(n_record):
        zs.append(step @ zs[-1])
    zs = np.array(zs)
    return _curves(zs[:, :dim], zs[:, dim], num, qubit, gamma)
