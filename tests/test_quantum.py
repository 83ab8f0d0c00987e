import numpy as np
import pytest

import nmtraj as nt
from nmtraj import DensityOperator


def _random_hermitian(d, seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (M + M.conj().T)


def test_model_validation():
    with pytest.raises(ValueError):
        nt.ModelSpec(dim=2, hamiltonian=np.array([[0, 1j], [1j, 0]]),
                     coupling=nt.sigma_z(),
                     initial_state=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        nt.ModelSpec(dim=2, hamiltonian=nt.sigma_x(), coupling=nt.sigma_z(),
                     initial_state=np.array([1.0, 1.0]))


def test_free_step_zero_hamiltonian():
    model = nt.ModelSpec(dim=2, hamiltonian=np.zeros((2, 2)), coupling=nt.sigma_z(),
                         initial_state=np.array([1.0, 0.0]))
    assert np.allclose(nt.free_step(model, 0.3), np.eye(2), atol=1e-15)


def test_free_step_diagonal():
    omega = 1.7
    model = nt.ModelSpec(dim=2, hamiltonian=np.diag([0.0, omega]), coupling=nt.sigma_z(),
                         initial_state=np.array([1.0, 0.0]))
    U = nt.free_step(model, 0.4)
    assert np.allclose(U, np.diag([1.0, np.exp(-1j * omega * 0.4)]), atol=1e-14)


def test_free_step_group_property(default_model):
    U1 = nt.free_step(default_model, 0.2)
    U2 = nt.free_step(default_model, 0.4)
    assert np.max(np.abs(U1 @ U1 - U2)) <= 1e-13


def test_free_step_unitarity(default_model):
    U = nt.free_step(default_model, 0.7)
    assert np.max(np.abs(U.conj().T @ U - np.eye(2))) <= 1e-12


def test_coupling_eigensystem_pauli_z(default_model):
    eig = nt.eigendecompose_coupling(default_model)
    assert set(np.round(eig.eigenvalues, 12)) == {1.0, -1.0}
    for P in eig.projectors:
        assert np.trace(P).real == pytest.approx(1.0, abs=1e-12)


def test_coupling_eigensystem_degenerate_merge():
    model = nt.ModelSpec(dim=2, hamiltonian=nt.sigma_x(), coupling=np.eye(2),
                         initial_state=np.array([1.0, 0.0]))
    eig = nt.eigendecompose_coupling(model)
    assert eig.count == 1
    assert np.allclose(eig.projectors[0], np.eye(2), atol=1e-14)


def test_coupling_eigensystem_reconstruction():
    for seed in range(4):
        X = _random_hermitian(4, seed)
        model = nt.ModelSpec(dim=4, hamiltonian=np.zeros((4, 4)), coupling=X,
                             initial_state=np.eye(4)[0].astype(complex))
        eig = nt.eigendecompose_coupling(model)
        rebuilt = sum(x * P for x, P in zip(eig.eigenvalues, eig.projectors))
        assert np.max(np.abs(rebuilt - X)) <= 1e-12
        total = sum(eig.projectors)
        assert np.max(np.abs(total - np.eye(4))) <= 1e-12
        for a, Pa in enumerate(eig.projectors):
            for b, Pb in enumerate(eig.projectors):
                expected = Pa if a == b else np.zeros((4, 4))
                assert np.max(np.abs(Pa @ Pb - expected)) <= 1e-12


def test_purity_and_trace_distance():
    pure = DensityOperator.from_state(np.array([1.0, 1.0]) / np.sqrt(2.0))
    assert pure.purity == pytest.approx(1.0, abs=1e-12)
    mixed = DensityOperator(matrix=0.5 * np.eye(2))
    assert mixed.purity == pytest.approx(0.5, abs=1e-12)
    assert nt.trace_distance(pure, pure) == pytest.approx(0.0, abs=1e-12)
    z_up = DensityOperator.from_state(np.array([1.0, 0.0]))
    z_dn = DensityOperator.from_state(np.array([0.0, 1.0]))
    assert nt.trace_distance(z_up, z_dn) == pytest.approx(1.0, abs=1e-12)


def test_density_operator_validation():
    with pytest.raises(ValueError):
        DensityOperator(matrix=np.array([[0.9, 0.3], [0.1, 0.1]]))
    with pytest.raises(ValueError):
        DensityOperator(matrix=np.array([[0.9, 0.0], [0.0, 0.3]]))
    with pytest.raises(ValueError):
        DensityOperator(matrix=np.array([[1.2, 0.0], [0.0, -0.2]]))
    normalized = DensityOperator.from_matrix(np.array([[2.0, 0.0], [0.0, 2.0]]))
    assert normalized.trace == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("matrix", [np.zeros((2, 2)), np.diag([np.inf, 1.0]),
                                    np.array([[1.0, np.nan], [np.nan, 1.0]])])
def test_from_matrix_degenerate_is_typed(matrix):
    with pytest.raises(nt.DegenerateState), np.errstate(invalid="ignore"):
        DensityOperator.from_matrix(matrix)
