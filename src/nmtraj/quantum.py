"""Finite-dimensional quantum objects: model specification, density
operators, exact free propagators, and the eigen-decomposition of the
coupling observable that powers the path-sum engine.

Matrix exponentials always go through a Hermitian eigendecomposition, never
a truncated series; the machine-precision equivalence checks downstream
depend on that exactness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateState

HERMITIAN_TOL = 1e-12
STATE_NORM_TOL = 1e-12
DENSITY_TOL = 1e-10
#: Eigenvalue gap below which coupling eigenvalues are merged into one
#: projector.  Path weights depend only on the eigenvalue, so merging is
#: exact and prevents path-space blowup from spurious splitting.
DEGENERACY_TOL = 1e-9


def sigma_x() -> np.ndarray:
    return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def sigma_y() -> np.ndarray:
    return np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


def sigma_z() -> np.ndarray:
    return np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class ModelSpec:
    """System under measurement: Hamiltonian, coupling observable, and the
    initial pure state (hbar = 1)."""

    dim: int
    hamiltonian: np.ndarray
    coupling: np.ndarray
    initial_state: np.ndarray

    def __post_init__(self):
        H = np.asarray(self.hamiltonian, dtype=complex)
        X = np.asarray(self.coupling, dtype=complex)
        psi = np.asarray(self.initial_state, dtype=complex)
        object.__setattr__(self, "hamiltonian", H)
        object.__setattr__(self, "coupling", X)
        object.__setattr__(self, "initial_state", psi)
        d = self.dim
        if H.shape != (d, d) or X.shape != (d, d) or psi.shape != (d,):
            raise ValueError("operator/state shapes do not match dim")
        if np.max(np.abs(H - H.conj().T)) > HERMITIAN_TOL:
            raise ValueError("hamiltonian is not Hermitian")
        if np.max(np.abs(X - X.conj().T)) > HERMITIAN_TOL:
            raise ValueError("coupling is not Hermitian")
        if abs(np.linalg.norm(psi) - 1.0) > STATE_NORM_TOL:
            raise ValueError("initial state is not normalized")


def default_qubit() -> ModelSpec:
    """Smallest noncommuting model exercising every code path."""
    psi0 = np.array([1.0, 0.0], dtype=complex)
    return ModelSpec(dim=2, hamiltonian=sigma_x(), coupling=sigma_z(), initial_state=psi0)


def dephasing_qubit(omega: float = 0.0) -> ModelSpec:
    """Commuting model ([H, coupling] = 0): closed-form decoherence."""
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    H = omega * sigma_z()
    return ModelSpec(dim=2, hamiltonian=H, coupling=sigma_z(), initial_state=plus)


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite state."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if np.max(np.abs(m - m.conj().T)) > DENSITY_TOL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        if abs(np.trace(m).real - 1.0) > DENSITY_TOL:
            raise ValueError("density matrix trace differs from 1")
        if np.linalg.eigvalsh(m)[0] < -DENSITY_TOL:
            raise ValueError("density matrix has a significantly negative eigenvalue")

    @staticmethod
    def from_matrix(matrix: np.ndarray) -> "DensityOperator":
        """Hermitize and trace-normalize a numerically computed matrix."""
        m = np.asarray(matrix, dtype=complex)
        m = 0.5 * (m + m.conj().T)
        tr = np.trace(m).real
        if not (tr > 0.0 and np.all(np.isfinite(m))):
            raise DegenerateState(f"cannot normalize matrix with trace {tr}")
        return DensityOperator(matrix=m / tr)

    @staticmethod
    def from_state(psi: np.ndarray) -> "DensityOperator":
        psi = np.asarray(psi, dtype=complex)
        psi = psi / np.linalg.norm(psi)
        return DensityOperator(matrix=np.outer(psi, psi.conj()))

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    @property
    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


@dataclass(frozen=True)
class CouplingEigensystem:
    """Distinct eigenvalues of the coupling observable with their orthogonal
    projectors; degenerate levels share one projector."""

    eigenvalues: np.ndarray
    projectors: np.ndarray  # shape (m, d, d)

    @property
    def count(self) -> int:
        return len(self.eigenvalues)


def free_step(model: ModelSpec, epsilon: float) -> np.ndarray:
    """Unitary exp(-i * H * epsilon) via eigendecomposition of H."""
    evals, vecs = np.linalg.eigh(model.hamiltonian)
    phases = np.exp(-1j * evals * epsilon)
    return (vecs * phases[None, :]) @ vecs.conj().T


def eigendecompose_coupling(model: ModelSpec) -> CouplingEigensystem:
    evals, vecs = np.linalg.eigh(model.coupling)
    groups: list[list[int]] = [[0]]
    for i in range(1, len(evals)):
        if evals[i] - evals[groups[-1][0]] <= DEGENERACY_TOL:
            groups[-1].append(i)
        else:
            groups.append([i])
    eigenvalues = np.array([float(np.mean(evals[g])) for g in groups])
    projectors = np.stack([
        vecs[:, g] @ vecs[:, g].conj().T for g in groups
    ])
    return CouplingEigensystem(eigenvalues=eigenvalues, projectors=projectors)


def trace_distance(rho1: DensityOperator, rho2: DensityOperator) -> float:
    """Half the trace norm of the difference of two states."""
    diff = rho1.matrix - rho2.matrix
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))
