"""Three-level model coverage: the chain and trajectory machinery is
dimension-generic, and the structural identities hold with three coupling
eigenvalues just as with two."""

import numpy as np
import pytest

import nmtraj as nt
from nmtraj import DensityOperator, NoiseRecord


@pytest.fixture(scope="module")
def qutrit():
    rng = np.random.default_rng(123)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    H = 0.5 * (M + M.conj().T)
    coupling = np.diag([-1.0, 0.0, 1.0]).astype(complex)
    psi0 = np.array([0.6, 0.48, 0.64], dtype=complex)
    psi0 /= np.linalg.norm(psi0)
    return nt.ModelSpec(dim=3, hamiltonian=H, coupling=coupling, initial_state=psi0)


@pytest.fixture(scope="module")
def setup(qutrit):
    grid = nt.TimeGrid(epsilon=0.1, n_steps=6)
    A = nt.build_kernel_matrix(nt.ExponentialKernel(rate=1.0), grid)
    return qutrit, grid, A


def test_qutrit_path_count_and_completeness(setup):
    model, grid, A = setup
    paths = nt.build_paths(model, grid, grid.full_window)
    assert paths.count == 3 ** 6
    U = np.linalg.matrix_power(nt.free_step(model, 0.1), 6)
    free = U @ model.initial_state
    assert np.max(np.abs(paths.amplitudes.sum(axis=0) - free)) <= 1e-10


def test_qutrit_reduced_state_valid(setup):
    model, grid, A = setup
    rho = nt.reduced_state(model, A, grid, 0.6)
    assert rho.trace == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-10


def test_qutrit_readout_equivalence(setup):
    model, grid, A = setup
    for rec in nt.sample_readout_prior(A, 10, seed=21):
        cond = nt.delayed_state(model, A, grid, 0.6, 0.0, rec)
        traj = nt.solve_unnormalized(model, A, grid, 0.6, rec)
        rho_psi = DensityOperator.from_state(traj.normalized_final_state)
        assert nt.trace_distance(cond.rho, rho_psi) <= 1e-10
        assert abs(cond.log_weight - nt.readout_pdf(traj, A)) <= 1e-10
        assert abs(cond.rho.purity - 1.0) <= 1e-10


def test_qutrit_pointer_state_mixed(qutrit):
    grid = nt.TimeGrid(epsilon=0.1, n_steps=8)
    A = nt.build_kernel_matrix(nt.ExponentialKernel(rate=1.0), grid)
    window = grid.window_before(0.4)
    rec_full = nt.sample_pointer_prior(A, 1, seed=22)[0]
    rec = NoiseRecord(window=window, values=rec_full.values[:4], kind="pointer")
    state = nt.conditional_state_pointer(qutrit, A, grid, 0.4, rec)
    assert state.rho.purity < 1.0 - 1e-6
    assert state.rho.trace == pytest.approx(1.0, abs=1e-10)


def test_qutrit_ensemble_matches_path_sum(setup):
    model, grid, A = setup
    est = nt.ensemble_average(model, A, grid, 0.6, n_samples=20000, seed=23)
    exact = nt.reduced_state(model, A, grid, 0.6)
    assert nt.trace_distance(est.rho, exact) <= 3.0 * est.pooled_rho_se
    assert est.mean_readout.sigma_units <= 3.0


def test_qutrit_delayed_partial_average(setup):
    model, grid, A = setup
    t, delay = 0.6, 0.1
    read = grid.window_before(t - delay)
    rec = nt.sample_readout_prior(nt.KernelMatrix(read, A.submatrix(read)), 1, seed=24)[0]
    delayed = nt.delayed_state(model, A, grid, t, delay, rec)

    window = grid.window_before(t)
    Aw = A.submatrix(window)
    nr = len(read)
    Arr, Afr, Aff = Aw[:nr, :nr], Aw[nr:, :nr], Aw[nr:, nr:]
    mu = Afr @ np.linalg.solve(Arr, rec.values)
    cov = Aff - Afr @ np.linalg.solve(Arr, Afr.T)
    nodes, weights = np.polynomial.hermite.hermgauss(32)
    acc = np.zeros((3, 3), dtype=complex)
    den = 0.0
    L = np.linalg.cholesky(cov)
    for node, weight in zip(nodes, weights):
        zf = mu + L @ (np.sqrt(2.0) * np.array([node]))
        full = NoiseRecord(window=window, values=np.concatenate([rec.values, zf]))
        traj = nt.solve_unnormalized(model, A, grid, t, full)
        psi = traj.final_state
        acc += (weight / np.sqrt(np.pi)) * np.outer(psi, psi.conj())
        den += (weight / np.sqrt(np.pi)) * traj.norms[-1] ** 2
    averaged = DensityOperator.from_matrix(acc)
    assert nt.trace_distance(delayed.rho, averaged) <= 1e-10
