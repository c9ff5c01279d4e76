"""Minimal dense operator algebra on truncated tensor-product Hilbert spaces.

Basis ordering is a stable contract: the qubit factor (when present) comes
first with index 0 = |g>, 1 = |e>, followed by Fock factors in declaration
order. A product basis state |q, n1, n2, ...> sits at the row given by
``numpy.ravel_multi_index``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

HERM_TOL = 1e-12       # Operator.hermitian
RHO_HERM_TOL = 1e-10   # density matrices
RHO_TRACE_TOL = 1e-9
RHO_EIG_TOL = 1e-8


@dataclass(frozen=True)
class SpaceDims:
    """Ordered factor dimensions of a truncated tensor-product space."""

    factors: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(int(f) for f in self.factors))
        if not self.factors:
            raise ValueError("need at least one factor")
        if any(f < 2 for f in self.factors):
            raise ValueError(f"every factor must be >= 2, got {self.factors}")

    @property
    def dim(self) -> int:
        return prod(self.factors)

    def index(self, *labels: int) -> int:
        """Row index of the product basis state with the given factor labels."""
        return int(np.ravel_multi_index(labels, self.factors))


@dataclass(frozen=True)
class Operator:
    """Dense complex matrix tagged with its space dimensions.

    ``hermitian`` is measured from the matrix, not declared: max elementwise
    deviation from M† at most ``HERM_TOL``.
    """

    dims: SpaceDims
    mat: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        object.__setattr__(self, "mat", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got {m.shape}")
        if m.shape[0] != self.dims.dim:
            raise ValueError(
                f"matrix size {m.shape[0]} does not match dims {self.dims.factors}"
            )

    @property
    def dim(self) -> int:
        return self.dims.dim

    @property
    def hermitian(self) -> bool:
        return bool(np.max(np.abs(self.mat - self.mat.conj().T)) <= HERM_TOL)

    def dag(self) -> "Operator":
        return Operator(self.dims, self.mat.conj().T)

    def __add__(self, other: "Operator") -> "Operator":
        self._check_dims(other)
        return Operator(self.dims, self.mat + other.mat)

    def __sub__(self, other: "Operator") -> "Operator":
        self._check_dims(other)
        return Operator(self.dims, self.mat - other.mat)

    def __mul__(self, scalar) -> "Operator":
        return Operator(self.dims, self.mat * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check_dims(other)
        return Operator(self.dims, self.mat @ other.mat)

    def _check_dims(self, other: "Operator"):
        if self.dims != other.dims:
            raise ValueError(
                f"dimension mismatch: {self.dims.factors} vs {other.dims.factors}"
            )


@dataclass(frozen=True)
class DensityMatrix:
    """Joint state on a truncated space; invariants checked, not enforced."""

    dims: SpaceDims
    mat: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        object.__setattr__(self, "mat", m)
        if m.shape != (self.dims.dim, self.dims.dim):
            raise ValueError(f"density matrix shape {m.shape} vs dims {self.dims.factors}")
        herm = np.max(np.abs(m - m.conj().T))
        if herm > RHO_HERM_TOL:
            raise ValueError(f"density matrix not Hermitian: |rho - rho†| = {herm:.3g}")
        tr = np.trace(m)
        if abs(tr - 1.0) > RHO_TRACE_TOL:
            raise ValueError(f"density matrix trace {tr:.12g} != 1")
        w = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
        if w.min() < -RHO_EIG_TOL:
            raise ValueError(f"density matrix min eigenvalue {w.min():.3g}")

    @classmethod
    def pure(cls, dims: SpaceDims, ket: np.ndarray) -> "DensityMatrix":
        ket = np.asarray(ket, dtype=complex)
        return cls(dims, np.outer(ket, ket.conj()))

    @classmethod
    def basis(cls, dims: SpaceDims, *labels: int) -> "DensityMatrix":
        """Product basis state |labels><labels| (e.g. basis(dims, 1, 0) = |e,0>)."""
        ket = np.zeros(dims.dim, dtype=complex)
        ket[dims.index(*labels)] = 1.0
        return cls.pure(dims, ket)


def ladder(d: int) -> Operator:
    """Lowering operator on a d-dimensional Fock space, <n-1|a|n> = sqrt(n)."""
    if d < 2:
        raise ValueError(f"Fock cutoff must be >= 2, got {d}")
    mat = np.diag(np.sqrt(np.arange(1, d)), 1)
    return Operator(SpaceDims((d,)), mat)


def identity(dims: SpaceDims) -> Operator:
    return Operator(dims, np.eye(dims.dim))


def kron(a: Operator, b: Operator) -> Operator:
    """Kronecker product; dims become the concatenated factor lists."""
    dims = SpaceDims(a.dims.factors + b.dims.factors)
    return Operator(dims, np.kron(a.mat, b.mat))


def eig_hermitian(m: Operator) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending, real) and unitary eigenvector matrix of a
    Hermitian operator (``m.hermitian``)."""
    if not m.hermitian:
        raise ValueError("eig_hermitian requires a Hermitian operator: "
                         f"|M - M†| exceeds {HERM_TOL:g}")
    w, v = np.linalg.eigh(m.mat)
    return w, v
