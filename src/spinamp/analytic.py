"""Closed-form results for the driven qubit + lossy collective-mode system.

All frequencies are angular (rad/us) and times are in us, matching the rest
of the library. Lorentzian width ``gamma`` is the FWHM of the ordinary
(non-angular) lineshape expressed in angular units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SystemParams


def lorentzian_pdf(omega, omega_bar: float, gamma: float):
    """(1/pi) * (gamma/2) / ((omega - omega_bar)^2 + (gamma/2)^2)."""
    if gamma <= 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    half = 0.5 * gamma
    return (half / np.pi) / ((np.asarray(omega) - omega_bar) ** 2 + half**2)


def lambda_eff(p: SystemParams) -> float:
    """Effective Rabi frequency of the collective mode, (lambda_d/2)(G/Delta)."""
    _require_detuned(p)
    return 0.5 * p.lambda_d * p.g_collective / p.delta


def dispersive_shift(p: SystemParams) -> float:
    """Qubit-state-dependent shift G^2/Delta of the collective-mode frequency."""
    _require_detuned(p)
    return p.g_collective**2 / p.delta


@dataclass(frozen=True)
class JcLevel:
    """Dressed doublet of the n-excitation block.

    omega_plus/omega_minus are the branch energies; phi_n the mixing angle,
    with eigenvectors (cos(phi_n/2), sin(phi_n/2)) and
    (-sin(phi_n/2), cos(phi_n/2)) on (|e,n>, |g,n+1>).
    """

    n: int
    omega_plus: float
    omega_minus: float
    phi_n: float

    @property
    def plus_vector(self) -> np.ndarray:
        return np.array([np.cos(self.phi_n / 2), np.sin(self.phi_n / 2)])

    @property
    def minus_vector(self) -> np.ndarray:
        return np.array([-np.sin(self.phi_n / 2), np.cos(self.phi_n / 2)])


def jc_spectrum(n: int, p: SystemParams) -> JcLevel:
    """Energies (n+1/2)(wbar-wd) +- sqrt(Delta^2 + 4G^2(n+1))/2 and mixing
    angle phi_n = atan(2G*sqrt(n+1)/Delta) of the n-excitation doublet."""
    if n < 0:
        raise ValueError(f"excitation index must be >= 0, got {n}")
    det_a = p.omega_bar - p.omega_d
    root = np.sqrt(p.delta**2 + 4.0 * p.g_collective**2 * (n + 1))
    base = (n + 0.5) * det_a
    # atan2 keeps phi in (0, pi) for Delta < 0 as well
    phi = float(np.arctan2(2.0 * p.g_collective * np.sqrt(n + 1.0), p.delta))
    return JcLevel(n=n, omega_plus=base + 0.5 * root, omega_minus=base - 0.5 * root,
                   phi_n=phi)


def excited_population(t, p: SystemParams):
    """<A†A>(t) for the target frozen in |e> (``model.build_anc``) at the
    configured drive, ``_population`` with sign +1 (delta = 0 when matched)."""
    return _population(t, p, 1.0)


def ground_population(t, p: SystemParams):
    """<A†A>(t) for the target frozen in |g> at the configured drive,
    ``_population`` with sign -1 (delta = -2G^2/Delta when matched)."""
    return _population(t, p, -1.0)


def _population(t, p: SystemParams, sign: float):
    """<A†A>(t) of the driven damped mode from vacuum, with detuning delta =
    wbar - w_d + sign G^2/Delta and the mode's decay rate Gamma = gamma +
    gamma_s (``model.collapse_ops``):

        lambda_eff^2 / (delta^2 + Gamma^2/4)
            * [1 - 2 cos(delta t) exp(-Gamma t/2) + exp(-Gamma t)],

    with the bracket summed as (1 - exp(-Gamma t/2))^2 + 4 exp(-Gamma t/2)
    sin^2(delta t/2): at delta = 0 that is the excited branch's matched-drive
    form, and no sum of terms near 1 cancels at small t. For delta = Gamma =
    0 the limit lambda_eff^2 t^2 is returned instead of raising, so sweep
    tooling can touch gamma = 0.
    """
    t = np.asarray(t, dtype=float)
    lam = lambda_eff(p)
    rate = p.gamma + p.gamma_s  # the sqrt(gamma) A and sqrt(gamma_s) A channels
    det = p.omega_bar - p.omega_d + sign * dispersive_shift(p)
    if det == 0.0 and rate == 0.0:
        return lam**2 * t**2
    decay = np.exp(-0.5 * rate * t)
    bracket = (1.0 - decay) ** 2 + 4.0 * decay * np.sin(0.5 * det * t) ** 2
    return lam**2 / (det**2 + (0.5 * rate) ** 2) * bracket


def _require_detuned(p: SystemParams):
    if p.delta == 0.0:
        raise ValueError("dispersive quantities require a nonzero qubit-ensemble detuning")
