"""Hamiltonians and collapse operators of the reduced qubit x collective-mode model.

Everything is built in the frame rotating at the drive frequency ``omega_d``,
with all internal frequencies angular (rad/us). Config layers supply ordinary
frequencies in MHz and convert via omega = 2*pi*nu (1 MHz = 1/us, so
nu in MHz -> omega in rad/us directly through the 2*pi factor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import Operator, SpaceDims, identity, kron, ladder

TWO_PI = 2.0 * np.pi


def sigma_minus() -> Operator:
    """Qubit lowering operator |g><e| (basis order g, e)."""
    return ladder(2)


def sigma_plus() -> Operator:
    return ladder(2).dag()


def sigma_z() -> Operator:
    return Operator(SpaceDims((2,)), np.diag([-1.0, 1.0]))


def sigma_x() -> Operator:
    return Operator(SpaceDims((2,)), np.array([[0.0, 1.0], [1.0, 0.0]]))


@dataclass(frozen=True)
class SystemParams:
    """Physical rates and frequencies of the readout protocol (rad/us).

    gamma is the Lorentzian FWHM of the ensemble's inhomogeneous broadening;
    gamma_s the (usually negligible) ancilla energy-relaxation rate.
    """

    omega_t: float
    omega_bar: float
    omega_d: float
    g_collective: float
    lambda_d: float
    gamma: float
    gamma_s: float = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value} rad/us")
        if self.g_collective <= 0:
            raise ValueError(f"collective coupling must be > 0, got {self.g_collective}")
        if self.gamma < 0 or self.gamma_s < 0:
            raise ValueError("decay rates must be >= 0")

    @property
    def delta(self) -> float:
        """Qubit-ensemble detuning Delta = omega_t - omega_bar."""
        return self.omega_t - self.omega_bar

    @classmethod
    def from_mhz(cls, nu_t: float, nu_bar: float, g: float, lambda_d: float,
                 gamma: float, gamma_s: float = 0.0,
                 drive: float | str = "matched") -> "SystemParams":
        """Build from ordinary frequencies in MHz; drive is a nu_d value in MHz
        or the string "matched"."""
        omega_t = TWO_PI * nu_t
        omega_bar = TWO_PI * nu_bar
        g_c = TWO_PI * g
        if not isinstance(drive, str):
            omega_d = TWO_PI * float(drive)
        elif drive != "matched":
            raise ValueError(f"unknown drive mode {drive!r}")
        elif omega_t == omega_bar:
            raise ValueError("matched drive requires a nonzero detuning")
        else:
            # the excited-state-shifted collective resonance omega_bar + G^2/Delta
            omega_d = omega_bar + g_c**2 / (omega_t - omega_bar)
        return cls(omega_t=omega_t, omega_bar=omega_bar, omega_d=omega_d,
                   g_collective=g_c, lambda_d=TWO_PI * lambda_d,
                   gamma=TWO_PI * gamma, gamma_s=TWO_PI * gamma_s)


def _qubit_mode_ops(d: int):
    a = ladder(d)
    idq = identity(SpaceDims((2,)))
    idm = identity(SpaceDims((d,)))
    return a, idq, idm


def build_hc(p: SystemParams, d: int) -> Operator:
    """Qubit-collective-mode Hamiltonian in the drive frame:
    ((w_T - w_d)/2) sz + G(A s+ + A† s-) + (wbar - w_d) A†A."""
    a, idq, idm = _qubit_mode_ops(d)
    num = a.dag() @ a
    mat = ((p.omega_t - p.omega_d) / 2) * kron(sigma_z(), idm).mat
    mat = mat + p.g_collective * (kron(sigma_plus(), a).mat
                                  + kron(sigma_minus(), a.dag()).mat)
    mat = mat + (p.omega_bar - p.omega_d) * kron(idq, num).mat
    return Operator(SpaceDims((2, d)), mat)


def build_drive(p: SystemParams, d: int) -> Operator:
    """Transverse qubit drive (lambda_d/2)(s+ + s-) on the joint space."""
    idm = identity(SpaceDims((d,)))
    return Operator(SpaceDims((2, d)), (p.lambda_d / 2) * kron(sigma_x(), idm).mat)


def build_dispersive(p: SystemParams, d: int) -> Operator:
    """Dispersive-regime Hamiltonian, diagonal in the product basis:
    ((w_T - w_d)/2) sz + (G^2/Delta) s+s- + (wbar - w_d + (G^2/Delta) sz) A†A."""
    if p.delta == 0.0:
        raise ValueError("dispersive Hamiltonian requires Delta != 0")
    a, idq, idm = _qubit_mode_ops(d)
    num = (a.dag() @ a).mat
    chi = p.g_collective**2 / p.delta
    proj_e = np.diag([0.0, 1.0])
    mat = ((p.omega_t - p.omega_d) / 2) * kron(sigma_z(), idm).mat
    mat = mat + chi * np.kron(proj_e, idm.mat)
    mat = mat + np.kron(np.diag([p.omega_bar - p.omega_d - chi,
                                 p.omega_bar - p.omega_d + chi]), num)
    return Operator(SpaceDims((2, d)), mat)


def build_anc(p: SystemParams, qubit_state: str, d: int) -> Operator:
    """Effective collective-mode Hamiltonian for a frozen target state:
    (wbar - w_d +- G^2/Delta) A†A +- lambda_eff (A + A†), upper signs for |e>.

    Acts on the d-dimensional mode space alone.
    """
    if p.delta == 0.0:
        raise ValueError("effective mode Hamiltonian requires Delta != 0")
    if qubit_state not in ("e", "g"):
        raise ValueError(f"qubit_state must be 'e' or 'g', got {qubit_state!r}")
    sign = 1.0 if qubit_state == "e" else -1.0
    chi = p.g_collective**2 / p.delta
    lam_eff = 0.5 * p.lambda_d * p.g_collective / p.delta
    a = ladder(d)
    num = (a.dag() @ a).mat
    mat = (p.omega_bar - p.omega_d + sign * chi) * num
    mat = mat + sign * lam_eff * (a.mat + a.mat.conj().T)
    return Operator(SpaceDims((d,)), mat)


def collapse_ops(p: SystemParams, d: int, include_qubit: bool = True) -> list[Operator]:
    """Collapse channels of the reduced model: sqrt(gamma) A for the
    inhomogeneous broadening and sqrt(gamma_s) A (collective-level
    approximation of per-spin energy relaxation), each when its rate is > 0.

    include_qubit=False builds them on the bare d-dimensional mode space,
    matching build_anc.
    """
    a = ladder(d)
    if include_qubit:
        a = kron(identity(SpaceDims((2,))), a)
    return [np.sqrt(rate) * a for rate in (p.gamma, p.gamma_s) if rate > 0]
