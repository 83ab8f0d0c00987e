"""Property tests of the chain and trajectory routes over random models and
kernels.

Hermitian models of dimension 2-4 (couplings drawn with repeated
eigenvalues, so degenerate levels merge) under exponential kernels and
positive mixtures of triangle kernels, on at most five steps; and qubits
and qutrits on 6-9 steps under triangle kernels whose support is shorter
than the grid, where the reduced states may take the memory-window
transfer.  Examples are derandomized, so every run checks the same cases.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import nmtraj as nt
from nmtraj import DensityOperator, NoiseRecord, chain

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
    assert nt.trace_distance(delayed.rho, nt.reduced_states(model, A, grid, t)[-1]) <= 1e-12


@st.composite
def _finite_support_cases(draw):
    """A qubit or qutrit with a possibly degenerate coupling, on 6-9 steps
    (6 when all three qutrit levels are distinct), under a positive mixture
    of triangles that vanishes from lag support * eps on."""
    d = draw(st.integers(2, 3))
    M = _complex_matrix(draw, d)
    Q, _ = np.linalg.qr(_complex_matrix(draw, d) + 2.0 * np.eye(d))
    levels = draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=d, max_size=d))
    X = Q @ np.diag(levels) @ Q.conj().T
    psi = _complex_matrix(draw, d)[0] + 1e-3
    model = nt.ModelSpec(dim=d, hamiltonian=0.5 * (M + M.conj().T),
                         coupling=0.5 * (X + X.conj().T), initial_state=psi / np.linalg.norm(psi))
    steps = 6 if len(set(levels)) == 3 else draw(st.integers(6, 9))
    eps = draw(st.sampled_from([0.05, 0.1, 0.2]))
    support = draw(st.integers(1, 4))
    widths = draw(st.lists(st.floats(0.5 * eps, support * eps), min_size=1, max_size=2))
    weights = draw(st.lists(st.floats(0.1, 3.0), min_size=len(widths), max_size=len(widths)))
    lags = eps * np.arange(support + 1)
    values = sum(c * np.clip(1.0 - lags / w, 0.0, None) for c, w in zip(weights, widths))
    grid = nt.TimeGrid(epsilon=eps, n_steps=steps)
    return model, nt.build_kernel_matrix(nt.TabulatedKernel(lags=tuple(lags),
                                                            values=tuple(values)), grid), grid


def test_finite_support_reduced_states_are_the_fully_delayed_states(monkeypatch):
    runs = []
    transfer = chain._transfer_states

    def counting(*args):
        runs.append(args)
        return transfer(*args)

    monkeypatch.setattr(chain, "_transfer_states", counting)

    @_SETTINGS
    @given(case=_finite_support_cases())
    def check(case):
        model, A, grid = case
        states = nt.reduced_states(model, A, grid, grid.n_steps * grid.epsilon)
        for k, rho in enumerate(states, 1):
            t = k * grid.epsilon
            delayed = nt.delayed_state(model, A, grid, t, t,
                                       NoiseRecord(window=range(0, 0), values=np.zeros(0)))
            assert np.max(np.abs(rho.matrix - delayed.rho.matrix)) <= 1e-12

    check()
    assert runs  # some drawn cases take the transfer


@st.composite
def _readouts(draw):
    """A case with a readout time k * eps, a delay of j <= k steps, a
    readout record on the first k - j steps and a pointer record on the
    first k."""
    model, A, grid = draw(_cases())
    k = draw(st.integers(1, grid.n_steps))
    j = draw(st.integers(0, k))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    read = range(0, k - j)
    z = nt.sample_readout_prior(A.restrict(read), 1, seed=seed)[0].values
    x = nt.sample_pointer_prior(A, 1, seed=seed)[0].values[:k]
    return model, A, grid, k, j, z, x


def _chain_states(model, A, grid, k, j, z, x):
    """The reduced state at every grid time, then the delayed and the
    pointer-conditioned state at time k * eps, with the two log weights."""
    eps = grid.epsilon
    delayed = nt.delayed_state(model, A, grid, k * eps, j * eps,
                               NoiseRecord(window=range(0, k - j), values=z))
    pointer = nt.conditional_state_pointer(model, A, grid, k * eps,
                                           NoiseRecord(window=range(0, k), values=x,
                                                       kind="pointer"))
    rhos = [rho.matrix for rho in nt.reduced_states(model, A, grid, grid.n_steps * eps)]
    return rhos + [delayed.rho.matrix, pointer.rho.matrix], [delayed.log_weight,
                                                             pointer.log_weight]


def _with(model, hamiltonian, coupling, initial_state):
    return nt.ModelSpec(dim=model.dim, hamiltonian=hamiltonian, coupling=coupling,
                        initial_state=initial_state)


@_SETTINGS
@given(draw=_readouts())
def test_every_chain_state_is_a_density_matrix(draw):
    for rho in _chain_states(*draw)[0]:
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-14
        assert np.linalg.eigvalsh(rho)[0] >= -1e-12


@_SETTINGS
@given(draw=_readouts(), perm_seed=st.integers(0, 2 ** 32 - 1))
def test_basis_relabelling_permutes_every_state(draw, perm_seed):
    model, A, grid, k, j, z, x = draw
    P = np.eye(model.dim)[np.random.default_rng(perm_seed).permutation(model.dim)]
    relabelled = _with(model, P @ model.hamiltonian @ P.T, P @ model.coupling @ P.T,
                       P @ model.initial_state)
    rhos, logs = _chain_states(model, A, grid, k, j, z, x)
    rhos_p, logs_p = _chain_states(relabelled, A, grid, k, j, z, x)
    for rho, rho_p in zip(rhos, rhos_p):
        assert np.max(np.abs(P @ rho @ P.T - rho_p)) <= 1e-12
    assert np.max(np.abs(np.subtract(logs, logs_p))) <= 1e-12
    t = k * grid.epsilon
    rec = NoiseRecord(window=range(0, k), values=x)  # any record will do
    psi = nt.solve_unnormalized(model, A, grid, t, rec).final_state
    psi_p = nt.solve_unnormalized(relabelled, A, grid, t, rec).final_state
    assert np.max(np.abs(P @ psi - psi_p)) <= 1e-12 * max(1.0, np.max(np.abs(psi)))


@_SETTINGS
@given(draw=_readouts())
def test_eigenvalue_reversal_with_flipped_records_changes_nothing(draw):
    # X -> -X with z -> -z (and x -> -x) keeps every path weight: z . X and
    # X . A X are even, and each projector keeps its history.
    model, A, grid, k, j, z, x = draw
    reversed_ = _with(model, model.hamiltonian, -model.coupling, model.initial_state)
    rhos, logs = _chain_states(model, A, grid, k, j, z, x)
    rhos_r, logs_r = _chain_states(reversed_, A, grid, k, j, -z, -x)
    for rho, rho_r in zip(rhos, rhos_r):
        assert np.max(np.abs(rho - rho_r)) <= 1e-12
    assert np.max(np.abs(np.subtract(logs, logs_r))) <= 1e-12
