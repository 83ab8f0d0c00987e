"""Property tests of the trajectory route over random models and kernels.

Hermitian models of dimension 2-4 (couplings drawn with repeated
eigenvalues, so degenerate levels merge) under exponential kernels and
positive mixtures of triangle kernels, on at most five steps.  Examples are
derandomized, so every run checks the same cases.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import nmtraj as nt
from nmtraj import DensityOperator, NoiseRecord

_SETTINGS = settings(derandomize=True, max_examples=30, deadline=None, database=None)

_unit = st.floats(-1.0, 1.0)


def _complex_matrix(draw, d):
    re = np.array(draw(st.lists(_unit, min_size=d * d, max_size=d * d))).reshape(d, d)
    im = np.array(draw(st.lists(_unit, min_size=d * d, max_size=d * d))).reshape(d, d)
    return re + 1j * im


@st.composite
def _cases(draw):
    d = draw(st.integers(2, 4))
    steps = draw(st.integers(1, 5))
    eps = draw(st.sampled_from([0.05, 0.1, 0.2]))
    grid = nt.TimeGrid(epsilon=eps, n_steps=steps)

    M = _complex_matrix(draw, d)
    H = 0.5 * (M + M.conj().T)
    Q, _ = np.linalg.qr(_complex_matrix(draw, d) + 2.0 * np.eye(d))
    levels = draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0]), min_size=d, max_size=d))
    X = Q @ np.diag(levels) @ Q.conj().T
    X = 0.5 * (X + X.conj().T)
    psi = _complex_matrix(draw, d)[0] + 1e-3
    model = nt.ModelSpec(dim=d, hamiltonian=H, coupling=X,
                         initial_state=psi / np.linalg.norm(psi))

    if draw(st.booleans()):
        kernel = nt.ExponentialKernel(rate=draw(st.floats(0.2, 5.0)))
    else:
        # Triangles are positive-definite functions, so any positive mixture
        # sampled on the grid lags is a PSD kernel matrix.
        n_tri = draw(st.integers(1, 3))
        widths = draw(st.lists(st.floats(0.5 * eps, 6 * eps), min_size=n_tri, max_size=n_tri))
        weights = draw(st.lists(st.floats(0.1, 3.0), min_size=n_tri, max_size=n_tri))
        lags = eps * np.arange(steps + 1)
        values = sum(c * np.clip(1.0 - lags / w, 0.0, None) for c, w in zip(weights, widths))
        kernel = nt.TabulatedKernel(lags=tuple(lags), values=tuple(values))
    A = nt.build_kernel_matrix(kernel, grid)
    return model, A, grid


@_SETTINGS
@given(case=_cases(), seed=st.integers(0, 2 ** 32 - 1))
def test_zero_delay_state_is_the_normalized_trajectory(case, seed):
    model, A, grid = case
    t = grid.n_steps * grid.epsilon
    rec = nt.sample_readout_prior(A, 1, seed=seed)[0]
    traj = nt.solve_unnormalized(model, A, grid, t, rec)
    cond = nt.delayed_state(model, A, grid, t, 0.0, rec)
    rho_psi = DensityOperator.from_state(traj.normalized_final_state)
    assert nt.trace_distance(cond.rho, rho_psi) <= 1e-10
    assert abs(cond.log_weight - nt.readout_pdf(traj, A)) <= 1e-10


@_SETTINGS
@given(case=_cases(), seed=st.integers(0, 2 ** 32 - 1))
def test_one_pass_retarded_matches_prefix_solves(case, seed):
    # Each prefix is solved on its own, and its conditional expectations are
    # taken from the exact readout derivatives, not from the solver's
    # couplings.
    model, A, grid = case
    eps = grid.epsilon
    rec = nt.sample_readout_prior(A, 1, seed=seed)[0]
    traj = nt.solve_unnormalized(model, A, grid, grid.n_steps * eps, rec)
    for k in range(1, grid.n_steps + 1):
        sub = NoiseRecord(window=range(0, k), values=rec.values[:k])
        psi = nt.solve_unnormalized(model, A, grid, k * eps, sub).final_state
        derivs = nt.readout_derivatives(model, A, grid, k * eps, sub)
        cond = (derivs @ psi.conj()).real / np.vdot(psi, psi).real
        row = A.entries[k - 1, :k]
        assert abs(traj.retarded[k - 1] - 2.0 * row @ cond) <= 1e-12 * 2.0 * np.sum(np.abs(row))


@_SETTINGS
@given(case=_cases())
def test_delay_over_the_whole_window_is_the_reduced_state(case):
    model, A, grid = case
    t = grid.n_steps * grid.epsilon
    delayed = nt.delayed_state(model, A, grid, t, t, NoiseRecord(window=range(0, 0),
                                                               values=np.zeros(0)))
    assert nt.trace_distance(delayed.rho, nt.reduced_state(model, A, grid, t)) <= 1e-12
