"""Brute-force checks of the reduced model against the many-spin system.

Two regimes: an exact single-excitation solver for large sampled ensembles
(N ~ thousands, closed (N+1)-dimensional Schrodinger system), and a full
product-space model for tiny ensembles (n <= 4 modes) including the drive.
Both run on the density-matrix integrator's Taylor core:
``dynamics.taylor_steps`` steps them and ``dynamics.check_stability`` guards
them, each on one norm that also bounds the steps' early stop.
Single-excitation plans take ``arrowhead_norm``, a 2-norm bound that does
not grow with N (the arrowhead's row sums grow as sqrt(N)), so each step
ends once its remaining terms fall below unit roundoff of the state in the
2-norm. The full model's pure-state runs take ``dynamics.omega_max``, the
exact 1-norm of its Hermitian H.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .hilbert import DensityMatrix, Operator, SpaceDims, identity, kron, ladder
from .model import SystemParams, sigma_minus, sigma_plus, sigma_x, sigma_z

FULL_MODEL_MAX_DIM = 162  # 2 * 3^4


def lorentzian_ppf(u, omega_bar: float, gamma: float):
    """Inverse CDF of the Lorentzian: omega_bar + (gamma/2) tan(pi (u - 1/2))."""
    return omega_bar + 0.5 * gamma * np.tan(np.pi * (np.asarray(u) - 0.5))


# numpy's SeedSequence mixing and PCG64 constants; NEP 19 fixes the stream
# they give for each seed
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _uniforms(seed, n: int) -> np.ndarray:
    """``np.random.default_rng(seed).random(n)`` to the bit, drawn with
    Python ints so that ``numpy.random`` (and the ``secrets`` and
    ``hashlib`` modules it loads) is never imported: SeedSequence(seed)
    mixes the seed's 32-bit words into a 4-word pool and hashes it into four
    64-bit words, which seed PCG64; each draw steps the 128-bit LCG, takes
    its XSL-RR output and keeps the top 53 bits. Seeds are refused as numpy
    refuses them: a non-integer raises TypeError, a negative one ValueError."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"expected non-negative integer seed, got {seed}")
    words = [(seed >> k) & _M32 for k in range(0, max(seed.bit_length(), 1), 32)]
    hash_a = _HASH_INIT_A

    def hashmix(value):
        nonlocal hash_a
        value ^= hash_a
        hash_a = hash_a * _HASH_MULT_A & _M32
        value = value * hash_a & _M32
        return value ^ (value >> 16)

    def mix(x, y):
        value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return value ^ (value >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_b, state = _HASH_INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ hash_b
        hash_b = hash_b * _HASH_MULT_B & _M32
        value = value * hash_b & _M32
        state.append(value ^ (value >> 16))
    # the 64-bit words are little-endian pairs; initstate = words 0:2 and
    # initseq = words 2:4, each high word first
    s0, s1, q0, q1 = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
    inc = ((q0 << 64 | q1) << 1 | 1) & _M128
    # one step from state 0 lands on inc; add initstate and step again
    x = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _M128
    top = []
    for _ in range(n):
        x = (x * _PCG_MULT + inc) & _M128
        word = ((x >> 64) ^ x) & _M64
        rot = x >> 122
        top.append(((word >> rot | word << (64 - rot)) & _M64) >> 11)
    return np.array(top, dtype=float) * 2.0**-53


@dataclass(frozen=True)
class EnsembleSample:
    """Sampled spin frequencies and couplings, G = sqrt(sum g_j^2)."""

    freqs: np.ndarray
    couplings: np.ndarray
    seed: int
    truncation: float
    omega_bar: float
    gamma: float

    def __post_init__(self):
        f = np.asarray(self.freqs, dtype=float)
        g = np.asarray(self.couplings, dtype=float)
        object.__setattr__(self, "freqs", f)
        object.__setattr__(self, "couplings", g)
        if f.shape != g.shape or f.ndim != 1:
            raise ValueError("freqs and couplings must be equal-length vectors")
        if self.g_collective <= 0:
            raise ValueError("derived collective coupling must be > 0")
        if np.any(np.abs(f - self.omega_bar) > self.truncation * self.gamma):
            raise ValueError("sampled frequency outside the truncation window")

    @property
    def n(self) -> int:
        return len(self.freqs)

    @property
    def g_collective(self) -> float:
        """sqrt(sum g_j^2); scaled by max |g_j| only where the plain sum of
        squares underflows (G below about 1e-154), so that it stays > 0."""
        g = self.couplings
        square = np.sum(g**2)
        if square >= np.finfo(float).tiny or not g.any():
            return float(np.sqrt(square))
        top = np.max(np.abs(g))
        return float(top * np.sqrt(np.sum((g / top)**2)))


def sample_frequencies(n: int, omega_bar: float, gamma: float, seed: int,
                       truncation_k: float = 50.0, g_collective: float = 1.0,
                       coupling_sigma: float = 0.0) -> EnsembleSample:
    """Discretize the Lorentzian into n spin frequencies by stratified
    inverse-CDF sampling, truncated to |omega - omega_bar| <= truncation_k * gamma.

    With [lo, hi] the CDF image of the truncation window, spin j (j = 0..n-1)
    takes u_j = lo + (hi - lo) (j + U_j) / n with U_j ~ U[0, 1) and
    omega_j = lorentzian_ppf(u_j). The U_j are the first n draws of
    ``np.random.default_rng(seed).random``, taken by ``_uniforms`` without
    importing ``numpy.random``. Each of the n equal-weight strata of the
    truncated CDF holds exactly one spin, so the frequencies come out sorted
    and the sampled spectral density follows the Lorentzian far more closely
    than n i.i.d. draws from its heavy tails.

    Couplings are uniform g_j = g_collective / sqrt(n) by default; a log-normal
    spread (coupling_sigma > 0) is renormalized back to the target G. Its
    draws continue numpy's stream after the n uniforms, so that path alone
    imports ``numpy.random``.
    """
    if n < 1:
        raise ValueError("need at least one spin")
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    if truncation_k < 10:
        raise ValueError("truncation window must be at least 10 gamma")
    half_width = truncation_k * gamma
    edge = np.arctan(2.0 * truncation_k) / np.pi   # CDF window is 1/2 -+ edge
    lo, hi = 0.5 - edge, 0.5 + edge
    u = lo + (hi - lo) * (np.arange(n) + _uniforms(seed, n)) / n
    freqs = lorentzian_ppf(u, omega_bar, gamma)
    # the window edges map to +-half_width only up to rounding: step any
    # sample that landed past them back toward the center
    outside = np.abs(freqs - omega_bar) > half_width
    while outside.any():
        freqs[outside] = np.nextafter(freqs[outside], omega_bar)
        outside = np.abs(freqs - omega_bar) > half_width
    if coupling_sigma > 0:
        # numpy's generator for this seed, past the n uniforms drawn above
        rng = np.random.default_rng(seed)
        rng.bit_generator.advance(n)
        g = rng.lognormal(mean=0.0, sigma=coupling_sigma, size=n)
        g *= g_collective / np.sqrt(np.sum(g**2))
    else:
        g = np.full(n, g_collective / np.sqrt(n))
    return EnsembleSample(freqs=freqs, couplings=g, seed=seed,
                          truncation=truncation_k, omega_bar=omega_bar, gamma=gamma)


@dataclass(frozen=True)
class SingleExcitationResult:
    """Amplitudes of the undriven single-excitation system (frame at omega_bar):
    c_e on the qubit, collective = (1/G) sum_j g_j c_j, and the total norm,
    with the number of generator products the run applied."""

    times: np.ndarray
    c_e: np.ndarray
    collective: np.ndarray
    norm: np.ndarray
    products: int

    def norm_drift(self, gamma_s: float = 0.0) -> float:
        """How far ||c(t)||^2 strays outside the band that decay at gamma_s
        allows, max over the records of
        max(0, ||c||^2 - 1, exp(-gamma_s t) - ||c||^2): the generator's
        Hermitian part is -(gamma_s/2) P_spins, so exp(-gamma_s t) <=
        ||c(t)||^2 <= 1. At gamma_s = 0 it is max |||c||^2 - 1|."""
        outside = np.maximum(self.norm - 1.0, np.exp(-gamma_s * self.times) - self.norm)
        return float(max(0.0, np.max(outside)))


def arrowhead_norm(sample: EnsembleSample, delta_target: float,
                   gamma_s: float = 0.0) -> float:
    """Upper bound on the 2-norm of the single-excitation generator, the norm
    its Taylor plans and their guard use:

        max(|delta_target|, max_j |delta_j - i gamma_s/2|) + G.

    The generator is -i(D + C) with D diagonal and C the coupling arrow
    (g in the first row and column). ||D||_2 is its largest entry modulus,
    and C = e_0 g^T + g e_0^T has eigenvalues +-||g||_2, so ||C||_2 = G
    exactly; the triangle inequality gives the bound. Planning in the 2-norm
    keeps unit-roundoff accuracy: Al-Mohy & Higham (SIAM J. Sci. Comput.
    2011, section 3; Higham, Functions of Matrices, 2008, section 10.3)
    state the backward-error bound behind theta_m,
    ||dA|| / ||A|| <= h~_{m+1}(||s^-1 A||) / ||s^-1 A||, for any consistent
    matrix norm: h~_{m+1} is a power series with non-negative coefficients,
    and ||X^k|| <= ||X||^k in every such norm.
    """
    deltas = sample.freqs - sample.omega_bar
    diag = max(abs(delta_target), float(np.max(np.abs(deltas - 0.5j * gamma_s))))
    return diag + sample.g_collective


def single_excitation_evolve(sample: EnsembleSample, delta_target: float,
                             grid: dynamics.TimeGrid,
                             gamma_s: float = 0.0) -> SingleExcitationResult:
    """Integrate the closed single-excitation system from |e, vac>:

        dc_e/dt = -i delta_target c_e - i sum_j g_j c_j
        dc_j/dt = -i (delta_j - i gamma_s/2) c_j - i g_j c_e

    with delta_j = omega_j - omega_bar (qubit and spins measured from the
    ensemble center; the overall frame only shifts a global phase). Each
    step stops once its remaining terms fall below unit roundoff of the
    state in the 2-norm, on ``arrowhead_norm``, and products counts the
    products taken.
    """
    g = sample.couplings
    bound = arrowhead_norm(sample, delta_target, gamma_s)
    dynamics.check_stability(grid, bound)
    # the generator's entries, complex once here rather than on every call
    ig = -1j * g
    idj = -1j * ((sample.freqs - sample.omega_bar) - 0.5j * gamma_s)
    i_delta = -1j * delta_target

    def rhs(c):
        out = np.empty_like(c)
        out[0] = i_delta * c[0] + ig @ c[1:]
        np.multiply(idj, c[1:], out=out[1:])
        out[1:] += ig * c[0]
        return out

    g_norm = sample.g_collective
    c0 = np.zeros(sample.n + 1, dtype=complex)
    c0[0] = 1.0
    n_rec = grid.n_record
    c_e = np.empty(n_rec + 1, dtype=complex)
    coll = np.empty(n_rec + 1, dtype=complex)
    norm = np.empty(n_rec + 1)

    def record(first, cs, _):
        block = slice(first, first + len(cs))
        c_e[block] = cs[:, 0]
        coll[block] = (cs[:, 1:] @ g) / g_norm
        norm[block] = np.sum(np.abs(cs) ** 2, axis=1)

    products = dynamics.taylor_steps(rhs, c0, grid, record, bound=bound, ord=2)
    return SingleExcitationResult(times=grid.times, c_e=c_e, collective=coll,
                                  norm=norm, products=products)


def reduced_single_excitation(delta_target: float, g_collective: float,
                              gamma: float, times: np.ndarray,
                              gamma_s: float = 0.0):
    """Exact reduced-model amplitudes in the single-excitation sector:
    the 2x2 non-Hermitian system with collective decay (gamma + gamma_s)/2,
    solved by eigendecomposition. Returns (c_e, c_collective)."""
    m = np.array([[-1j * delta_target, -1j * g_collective],
                  [-1j * g_collective, -0.5 * (gamma + gamma_s)]], dtype=complex)
    lam, v = np.linalg.eig(m)
    coef = np.linalg.solve(v, np.array([1.0, 0.0], dtype=complex))
    phases = np.exp(np.outer(np.asarray(times, dtype=float), lam))
    c = (phases * coef) @ v.T
    return c[:, 0], c[:, 1]


@dataclass(frozen=True)
class FullModelRecord:
    """Expectation values of the full product-space run (frame at omega_d)."""

    times: np.ndarray
    bright_n: np.ndarray
    qubit_excited: np.ndarray
    total_mode_n: np.ndarray
    per_mode_n: np.ndarray

    @property
    def subradiant_n(self) -> np.ndarray:
        return self.total_mode_n - self.bright_n


def build_full_model(sample: EnsembleSample, p: SystemParams, per_mode_cutoff: int):
    """Dense operators of the bosonized many-mode model: Hamiltonian with the
    drive, bright-mode number, qubit projector, and per-mode numbers."""
    n = sample.n
    dim_total = 2 * per_mode_cutoff**n
    if dim_total > FULL_MODEL_MAX_DIM:
        raise ValueError(
            f"space-size guard exceeded: 2*{per_mode_cutoff}^{n} = {dim_total} "
            f"> {FULL_MODEL_MAX_DIM}")
    a1 = ladder(per_mode_cutoff)
    idm = identity(SpaceDims((per_mode_cutoff,)))
    idq = identity(SpaceDims((2,)))

    def embed(op: Operator, pos: int) -> Operator:
        out = op if pos == 0 else idq
        for k in range(1, n + 1):
            out = kron(out, op if pos == k else idm)
        return out

    modes = [embed(a1, j + 1) for j in range(n)]
    h = ((p.omega_t - p.omega_d) / 2) * embed(sigma_z(), 0)
    sp = embed(sigma_plus(), 0)
    sm = embed(sigma_minus(), 0)
    for aj, wj, gj in zip(modes, sample.freqs, sample.couplings):
        h = h + (wj - p.omega_d) * (aj.dag() @ aj)
        h = h + gj * (sp @ aj + sm @ aj.dag())
    h = h + (p.lambda_d / 2) * embed(sigma_x(), 0)

    g_norm = sample.g_collective
    bright = (1.0 / g_norm) * modes[0] * sample.couplings[0]
    for aj, gj in zip(modes[1:], sample.couplings[1:]):
        bright = bright + (gj / g_norm) * aj
    bright_num = bright.dag() @ bright
    qubit_proj = embed(Operator(SpaceDims((2,)), np.diag([0.0, 1.0])), 0)
    mode_nums = [aj.dag() @ aj for aj in modes]
    return h, bright_num, qubit_proj, mode_nums, modes


def full_model_evolve(sample: EnsembleSample, per_mode_cutoff: int,
                      p: SystemParams, grid: dynamics.TimeGrid,
                      initial_qubit: str = "e") -> FullModelRecord:
    """Evolve the full model from |initial_qubit, vac>.

    Pure-state (Schrodinger) integration when gamma_s = 0, guarded and
    stopped on ``dynamics.omega_max(h)``; otherwise the density-matrix
    Lindblad core with a sqrt(gamma_s) a_j channel per mode.
    """
    if initial_qubit not in ("e", "g"):
        raise ValueError(f"initial_qubit must be 'e' or 'g', got {initial_qubit!r}")
    h, bright_num, qubit_proj, mode_nums, modes = build_full_model(
        sample, p, per_mode_cutoff)
    dims = h.dims
    q = 1 if initial_qubit == "e" else 0

    if p.gamma_s > 0:
        collapse = [np.sqrt(p.gamma_s) * aj for aj in modes]
        rho0 = DensityMatrix.basis(dims, q, *([0] * sample.n))
        obs = [bright_num, qubit_proj] + mode_nums
        traj = dynamics.evolve(dynamics.Lindblad.build(h, collapse), rho0, grid, obs)
        return FullModelRecord(times=traj.times, bright_n=traj.collective_n,
                               qubit_excited=traj.qubit_excited,
                               total_mode_n=traj.extra.sum(axis=1), per_mode_n=traj.extra)

    norm = dynamics.omega_max(h)
    dynamics.check_stability(grid, norm)
    m = -1j * h.mat
    psi0 = np.zeros(dims.dim, dtype=complex)
    psi0[dims.index(q, *([0] * sample.n))] = 1.0
    n_rec = grid.n_record
    bright = np.empty(n_rec + 1)
    qubit = np.empty(n_rec + 1)
    per_mode = np.empty((n_rec + 1, sample.n))

    def expect(op, psis):
        """<psi|op|psi> for each row psi of psis."""
        return np.sum(psis.conj() * (psis @ op.mat.T), axis=1).real

    def record(first, psis, _):
        block = slice(first, first + len(psis))
        bright[block] = expect(bright_num, psis)
        qubit[block] = expect(qubit_proj, psis)
        for j, op in enumerate(mode_nums):
            per_mode[block, j] = expect(op, psis)

    dynamics.taylor_steps(lambda psi: m @ psi, psi0, grid, record, bound=norm)
    return FullModelRecord(times=grid.times, bright_n=bright, qubit_excited=qubit,
                           total_mode_n=per_mode.sum(axis=1), per_mode_n=per_mode)
