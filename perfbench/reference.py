"""Reference results computed apart from the program under test.

Nothing here imports ``spinamp``. The reduced model is rebuilt from its
definition with numpy and propagated exactly with ``scipy.linalg.expm``;
the single-excitation oracle is solved by a dense ``numpy.linalg.eigh`` of
the arrowhead matrix. The checks in ``checks.py`` compare the program's
artifacts against these arrays.

Units follow the program: config values are ordinary frequencies in MHz,
internally angular (rad/us), times in us.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Params:
    """Working point in angular units, with the matched drive
    omega_d = omega_bar + G^2 / Delta."""

    omega_t: float
    omega_bar: float
    g: float
    lambda_d: float
    gamma: float

    @classmethod
    def from_mhz(cls, nu_t, nu_bar, g, lambda_d, gamma) -> "Params":
        return cls(TWO_PI * nu_t, TWO_PI * nu_bar, TWO_PI * g,
                   TWO_PI * lambda_d, TWO_PI * gamma)

    @property
    def delta(self) -> float:
        return self.omega_t - self.omega_bar

    @property
    def omega_d(self) -> float:
        return self.omega_bar + self.g**2 / self.delta


# ---------------------------------------------------------------------------
# reduced qubit x collective-mode Lindblad model
# ---------------------------------------------------------------------------

def liouvillian(p: Params, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major vectorized generator of
    drho/dt = -i[H, rho] + C rho C† - {C†C, rho}/2 with C = sqrt(gamma) A,
    H = ((w_T - w_d)/2) sz + G(s+ A + s- A†) + (wbar - w_d) A†A + (l_d/2) sx
    on qubit (g, e) x Fock(d). Returns (L, number operator A†A)."""
    a = np.diag(np.sqrt(np.arange(1.0, d)), 1)
    i2, i_d = np.eye(2), np.eye(d)
    s_minus = np.array([[0.0, 1.0], [0.0, 0.0]])
    sz = np.diag([-1.0, 1.0])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    big_a = np.kron(i2, a)
    num = big_a.T @ big_a
    h = (0.5 * (p.omega_t - p.omega_d) * np.kron(sz, i_d)
         + p.g * (np.kron(s_minus.T, a) + np.kron(s_minus, a.T))
         + (p.omega_bar - p.omega_d) * num
         + 0.5 * p.lambda_d * np.kron(sx, i_d))
    c = np.sqrt(p.gamma) * big_a
    cdc = c.T @ c
    eye = np.eye(2 * d)
    # vec(X rho Y) = (X kron Y^T) vec(rho) for row-major vec
    gen = (-1j * (np.kron(h, eye) - np.kron(eye, h.T))
           + np.kron(c, c) - 0.5 * np.kron(cdc, eye) - 0.5 * np.kron(eye, cdc.T))
    return gen, num


def lindblad_records(p: Params, d: int, t_end: float, n_record: int):
    """<A†A> and gamma * int_0^t <A†A> dt' at t_k = k t_end / n_record for
    initial |e,0> and |g,0>, by Van Loan's augmented matrix
    [[L, 0], [vec(n^T)^T, 0]], whose exponential carries the integral in its
    last row. Returns {"e": (collective, subradiant), "g": (...)}."""
    gen, num = liouvillian(p, d)
    dim = gen.shape[0]
    aug = np.zeros((dim + 1, dim + 1), dtype=complex)
    aug[:dim, :dim] = gen
    aug[dim, :dim] = num.T.reshape(-1)
    step = sla.expm(aug * (t_end / n_record))
    x = np.zeros((dim + 1, 2), dtype=complex)
    x[d * 2 * d + d, 0] = 1.0   # |e,0><e,0| sits at row-major index (d, d)
    x[0, 1] = 1.0               # |g,0><g,0|
    # record k = i*block + j reads r P^j (P^block)^i x: block + n_record/block
    # products with the propagator instead of n_record
    block = int(np.ceil(np.sqrt(n_record + 1)))
    readouts = np.zeros((2, dim + 1), dtype=complex)
    readouts[0, :dim] = aug[dim, :dim]
    readouts[1, dim] = 1.0
    rows = []
    for _ in range(block):
        rows.append(readouts)
        readouts = readouts @ step
    jump = np.linalg.matrix_power(step, block)
    cols = []
    for _ in range(n_record // block + 1):
        cols.append(x)
        x = jump @ x
    # values[i, j, readout, branch] = rows[j] @ cols[i]
    values = np.real(np.einsum("jrk,ikb->ijrb", np.array(rows), np.array(cols)))
    values = values.reshape(-1, 2, 2)[:n_record + 1]
    return {"e": (values[:, 0, 0], p.gamma * values[:, 1, 0]),
            "g": (values[:, 0, 1], p.gamma * values[:, 1, 1])}


# ---------------------------------------------------------------------------
# closed forms for a frozen qubit under the matched drive
# ---------------------------------------------------------------------------

def closed_form_excited(t, p: Params):
    """(4 l_eff^2 / gamma^2) (1 - exp(-gamma t / 2))^2, l_eff = (l_d/2) G/Delta."""
    lam = 0.5 * p.lambda_d * p.g / p.delta
    return (2.0 * lam / p.gamma * (1.0 - np.exp(-0.5 * p.gamma * np.asarray(t)))) ** 2


def closed_form_ground(t, p: Params):
    """l_eff^2 / (chi2^2 + gamma^2/4) |1 - exp((i chi2 - gamma/2) t)|^2 with
    chi2 = 2 G^2 / Delta, the modulus form of the closed-form bracket."""
    lam = 0.5 * p.lambda_d * p.g / p.delta
    chi2 = 2.0 * p.g**2 / p.delta
    t = np.asarray(t, dtype=float)
    amp = 1.0 - np.exp((1j * chi2 - 0.5 * p.gamma) * t)
    return lam**2 / (chi2**2 + 0.25 * p.gamma**2) * np.abs(amp) ** 2


# ---------------------------------------------------------------------------
# single-excitation oracle
# ---------------------------------------------------------------------------

def stratified_lorentzian(n: int, omega_bar: float, gamma: float, seed: int,
                          truncation_k: float = 50.0) -> np.ndarray:
    """The program's documented discretization: the CDF image of the
    +-truncation_k*gamma window cut into n equal strata, one seeded uniform
    draw per stratum, mapped through the Lorentzian inverse CDF and kept
    inside the window."""
    rng = np.random.default_rng(seed)
    edge = np.arctan(2.0 * truncation_k) / np.pi
    lo, hi = 0.5 - edge, 0.5 + edge
    u = lo + (hi - lo) * (np.arange(n) + rng.random(n)) / n
    freqs = omega_bar + 0.5 * gamma * np.tan(np.pi * (u - 0.5))
    half_width = truncation_k * gamma
    while True:
        out = np.abs(freqs - omega_bar) > half_width
        if not out.any():
            return freqs
        freqs[out] = np.nextafter(freqs[out], omega_bar)


def arrowhead_collective(p: Params, n_spins: int, seed: int, times: np.ndarray):
    """|collective amplitude|(t) of the undriven single-excitation system from
    |e, vac> by exact diagonalization of the (n+1)-dim arrowhead matrix
    [[Delta, g^T], [g, diag(delta_j)]], g_j = G / sqrt(n)."""
    freqs = stratified_lorentzian(n_spins, p.omega_bar, p.gamma, seed)
    g = np.full(n_spins, p.g / np.sqrt(n_spins))
    h = np.diag(np.concatenate(([p.delta], freqs - p.omega_bar)))
    h[0, 1:] = g
    h[1:, 0] = g
    w, v = np.linalg.eigh(h)
    # c(t) = V exp(-i w t) V^T e_0; the collective amplitude is (g / G) . c[1:]
    weights = v[0, :] * ((g / p.g) @ v[1:, :])
    return np.abs(np.exp(-1j * np.outer(times, w)) @ weights)


def reduced_collective(p: Params, times: np.ndarray) -> np.ndarray:
    """|collective amplitude|(t) of the reduced 2x2 model with collective
    decay gamma/2, by the matrix exponential at each time."""
    m = np.array([[-1j * p.delta, -1j * p.g], [-1j * p.g, -0.5 * p.gamma]])
    return np.array([abs(sla.expm(m * t)[1, 0]) for t in times])


def envelope_deviation(times: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Largest relative gap between the upper envelopes of two oscillating
    nonnegative series: local maxima (>= left, > right neighbour) joined
    linearly and compared where both envelopes are defined."""
    def peaks(y):
        return np.array([i for i in range(1, len(y) - 1)
                         if y[i] >= y[i - 1] and y[i] > y[i + 1]], dtype=int)
    ia, ib = peaks(a), peaks(b)
    if len(ia) < 2 or len(ib) < 2:
        return float(np.max(np.abs(a - b)) / max(float(np.max(b)), 1e-300))
    lo = max(times[ia[0]], times[ib[0]])
    hi = min(times[ia[-1]], times[ib[-1]])
    t = times[(times >= lo) & (times <= hi)]
    env_a = np.interp(t, times[ia], a[ia])
    env_b = np.interp(t, times[ib], b[ib])
    return float(np.max(np.abs(env_a - env_b) / np.maximum(env_b, 1e-300)))


def oracle_traceout(p: Params, n_spins: int, seeds, n_record: int = 400) -> list[float]:
    """Envelope deviation between the sampled ensemble and the reduced model
    over gamma t <= 3, one value per seed."""
    times = np.linspace(0.0, 3.0 / p.gamma, n_record + 1)
    reduced = reduced_collective(p, times)
    return [envelope_deviation(times, arrowhead_collective(p, n_spins, s, times), reduced)
            for s in seeds]
