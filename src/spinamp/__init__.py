"""Simulator for qubit readout by spin amplification through an
inhomogeneously broadened ancilla ensemble."""

__version__ = "0.1.0"

from .analytic import (JcLevel, dispersive_shift, excited_population,
                       ground_population, jc_spectrum, lambda_eff,
                       lorentzian_pdf)
from .dynamics import Lindblad, TimeGrid, Trajectory, evolve, readout_gain
from .hilbert import (DensityMatrix, Operator, SpaceDims, eig_hermitian,
                      identity, kron, ladder)
from .model import (SystemParams, build_anc, build_dispersive, build_drive,
                    build_hc, collapse_ops)
from .oracle import (EnsembleSample, full_model_evolve, sample_frequencies,
                     single_excitation_evolve)

__all__ = [
    "__version__",
    "DensityMatrix", "Operator", "SpaceDims", "eig_hermitian", "identity",
    "kron", "ladder",
    "SystemParams", "build_anc", "build_dispersive", "build_drive", "build_hc",
    "collapse_ops",
    "Lindblad", "TimeGrid", "Trajectory", "evolve", "readout_gain",
    "JcLevel", "dispersive_shift", "excited_population", "ground_population",
    "jc_spectrum", "lambda_eff", "lorentzian_pdf",
    "EnsembleSample", "full_model_evolve", "sample_frequencies",
    "single_excitation_evolve",
]
