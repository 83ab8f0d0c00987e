import tracemalloc

import numpy as np
import pytest
from scipy import integrate

import nmtraj as nt
from nmtraj import DensityOperator, NoiseRecord
from nmtraj.errors import DegenerateState, PathBudgetExceeded


def _plus():
    return np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def _h0_dephasing():
    return nt.ModelSpec(dim=2, hamiltonian=np.zeros((2, 2)), coupling=nt.sigma_z(),
                        initial_state=_plus())


def _gh_points(mean, cov, order):
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    dim = cov.shape[0]
    L = np.linalg.cholesky(cov)
    grids = np.meshgrid(*([nodes] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*([weights] * dim), indexing="ij")
    wts = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
    return mean[None, :] + (np.sqrt(2.0) * pts) @ L.T, wts / np.pi ** (dim / 2.0)


# ---------------------------------------------------------------- paths


def test_build_paths_single_step_plus_state():
    model = _h0_dephasing()
    grid = nt.TimeGrid(epsilon=0.1, n_steps=1)
    paths = nt.build_paths(model, grid, range(0, 1))
    assert paths.count == 2
    amps = {round(x, 12): v for x, v in zip(paths.eigenvalue_sequences[:, 0],
                                            paths.amplitudes)}
    assert np.allclose(amps[1.0], [1 / np.sqrt(2), 0.0], atol=1e-15)
    assert np.allclose(amps[-1.0], [0.0, 1 / np.sqrt(2)], atol=1e-15)


def test_build_paths_completeness(default_model, grid8):
    window = grid8.window_before(0.5)
    paths = nt.build_paths(default_model, grid8, window)
    assert paths.count == 2 ** 5
    U = nt.free_step(default_model, 0.1)
    free = np.linalg.matrix_power(U, 5) @ default_model.initial_state
    assert np.max(np.abs(paths.amplitudes.sum(axis=0) - free)) <= 1e-10


def test_build_paths_commuting_support():
    model = nt.dephasing_qubit(omega=0.9)
    grid = nt.TimeGrid(epsilon=0.1, n_steps=40)
    paths = nt.build_paths(model, grid, grid.full_window)
    # Only the constant eigenvalue histories survive at any depth.
    assert paths.count == 2
    assert np.all(paths.eigenvalue_sequences == paths.eigenvalue_sequences[:, :1])


def test_build_paths_budget(default_model):
    grid = nt.TimeGrid(epsilon=0.1, n_steps=8)
    with pytest.raises(PathBudgetExceeded):
        nt.build_paths(default_model, grid, grid.full_window, path_budget=100)


def _budget_calls(model, grid, budget):
    A = nt.build_kernel_matrix(nt.ExponentialKernel(rate=1.0), grid)
    rec = NoiseRecord(window=grid.full_window, values=np.zeros(grid.n_steps))
    t = grid.n_steps * grid.epsilon
    return {
        "build_paths": lambda: nt.build_paths(model, grid, grid.full_window, budget),
        "reduced_states": lambda: nt.reduced_states(model, A, grid, t, budget),
        "solve_unnormalized": lambda: nt.solve_unnormalized(model, A, grid, t, rec, budget),
    }


@pytest.mark.parametrize("call", ["build_paths", "reduced_states", "solve_unnormalized"])
def test_walk_budget_raises_before_branching(default_model, call):
    # A 40-step noncommuting request (2^40 histories) stops at the branching
    # step that would pass the budget, having held at most 2048 paths.
    run = _budget_calls(default_model, nt.TimeGrid(epsilon=0.1, n_steps=40), 4000)[call]
    tracemalloc.start()
    try:
        with pytest.raises(PathBudgetExceeded, match="^2048 surviving paths x 2 levels"):
            run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_pair_sum_holds_no_full_pair_array(default_model):
    # 11 steps give 2048 paths, so one float array over all path pairs is
    # 32 MiB; the pair sum builds its exponents one row chunk at a time.
    grid = nt.TimeGrid(epsilon=0.1, n_steps=11)
    A = nt.build_kernel_matrix(nt.ExponentialKernel(rate=1.0), grid)
    rec = nt.sample_readout_prior(A, 1, seed=3)[0]
    tracemalloc.start()
    try:
        state = nt.delayed_state(default_model, A, grid, 1.1, 0.0, rec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.rho.purity == pytest.approx(1.0, abs=1e-10)
    assert peak < 64 * 2 ** 20


# ---------------------------------------------------------------- reduced


def test_reduced_state_zero_coupling(zero_coupling_model, A8, grid8):
    rho = nt.reduced_state(zero_coupling_model, A8, grid8, 0.8)
    U = np.linalg.matrix_power(nt.free_step(zero_coupling_model, 0.1), 8)
    expected = DensityOperator.from_state(U @ zero_coupling_model.initial_state)
    assert nt.trace_distance(rho, expected) <= 1e-12


def test_reduced_state_dephasing_closed_form(A8, grid8):
    model = _h0_dephasing()
    rho = nt.reduced_state(model, A8, grid8, 0.8)
    expected = 0.5 * np.exp(-2.0 * np.sum(A8.entries))
    assert rho.matrix[0, 1].real == pytest.approx(expected, abs=1e-12)
    assert rho.matrix[0, 0].real == pytest.approx(0.5, abs=1e-12)


def test_reduced_state_markov_dephasing_matches_lindblad():
    # The lattice delta reproduces the exponential-decay solution exactly.
    model = _h0_dephasing()
    g = 1.3
    for eps, n in ((0.1, 8), (0.05, 16)):
        grid = nt.TimeGrid(epsilon=eps, n_steps=n)
        A = nt.build_kernel_matrix(nt.MarkovDeltaKernel(g=g), grid)
        rho = nt.reduced_state(model, A, grid, eps * n)
        expected = 0.5 * np.exp(-2.0 * g ** 2 * eps * n)
        assert rho.matrix[0, 1].real == pytest.approx(expected, abs=1e-12)


def test_reduced_state_is_valid_density(default_model, A8, grid8):
    rho = nt.reduced_state(default_model, A8, grid8, 0.8)
    assert rho.trace == pytest.approx(1.0, abs=1e-10)
    assert np.max(np.abs(rho.matrix - rho.matrix.conj().T)) <= 1e-12
    assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-10


@pytest.mark.parametrize("strength", [1.0, 60.0])
def test_reduced_state_strong_coupling_matches_unshifted_pair_sum(A8, grid8, strength):
    # Every reduced-state pair exponent -(Xa - Xb).A(Xa - Xb)/2 is <= 0, so
    # the plain double sum needs no shift; at coupling 60 a shift built from
    # separate maxima used to underflow every weight.
    model = nt.ModelSpec(dim=2, hamiltonian=nt.sigma_x(), coupling=strength * nt.sigma_z(),
                         initial_state=np.array([1.0, 0.0], dtype=complex))
    rho = nt.reduced_state(model, A8, grid8, 0.8)
    paths = nt.build_paths(model, grid8, grid8.full_window)
    delta = paths.eigenvalue_sequences[:, None, :] - paths.eigenvalue_sequences[None, :, :]
    W = np.exp(-0.5 * np.einsum("abk,kl,abl->ab", delta, A8.entries, delta))
    num = paths.amplitudes.T @ W @ paths.amplitudes.conj()
    expected = num / np.trace(num).real
    assert np.max(np.abs(rho.matrix - expected)) <= 1e-12
    assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-10


def _tabulated_setup(model):
    grid = nt.TimeGrid(epsilon=0.1, n_steps=8)
    kernel = nt.TabulatedKernel(lags=(0.0, 0.1, 0.2), values=(0.5, 0.2, 0.0))
    return model, grid, nt.build_kernel_matrix(kernel, grid)


def _qutrit_setup():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    model = nt.ModelSpec(dim=3, hamiltonian=0.5 * (M + M.conj().T),
                         coupling=np.diag([-1.0, 0.0, 1.0]),
                         initial_state=np.array([1.0, 0.0, 0.0], dtype=complex))
    grid = nt.TimeGrid(epsilon=0.1, n_steps=6)
    return model, grid, nt.build_kernel_matrix(nt.ExponentialKernel(rate=1.0), grid)


@pytest.mark.parametrize("case", ["default", "dephasing", "qutrit", "tabulated"])
def test_reduced_states_equal_per_time_reduced_state(case, default_model, A8, grid8):
    model, grid, A = {
        "default": lambda: (default_model, grid8, A8),
        "dephasing": lambda: (nt.dephasing_qubit(omega=0.7), grid8, A8),
        "qutrit": _qutrit_setup,
        "tabulated": lambda: _tabulated_setup(default_model),
    }[case]()
    t = grid.n_steps * grid.epsilon
    states = nt.reduced_states(model, A, grid, t)
    assert len(states) == grid.n_steps
    for k, rho in enumerate(states, 1):
        expected = nt.reduced_state(model, A, grid, k * grid.epsilon)
        assert np.array_equal(rho.matrix, expected.matrix)


def test_reduced_states_stop_at_t(default_model, A8, grid8):
    states = nt.reduced_states(default_model, A8, grid8, 0.3)
    assert len(states) == 3
    assert np.array_equal(states[-1].matrix,
                          nt.reduced_state(default_model, A8, grid8, 0.3).matrix)
    assert nt.reduced_states(default_model, A8, grid8, 0.0) == []


# ------------------------------------------------------ pointer readout


def test_pointer_state_zero_coupling(zero_coupling_model, A8, grid8):
    window = grid8.window_before(0.4)
    values = np.array([0.3, -0.1, 0.2, 0.05])
    rec = NoiseRecord(window=window, values=values, kind="pointer")
    state = nt.conditional_state_pointer(zero_coupling_model, A8, grid8, 0.4, rec)
    U = np.linalg.matrix_power(nt.free_step(zero_coupling_model, 0.1), 4)
    expected = DensityOperator.from_state(U @ zero_coupling_model.initial_state)
    assert nt.trace_distance(state.rho, expected) <= 1e-12
    prior = nt.pointer_prior(A8, window)
    assert state.log_weight == pytest.approx(prior.logpdf(values), abs=1e-10)


def test_pointer_state_single_step_matches_single_detector(default_model):
    # One grid step is a single impulsive measurement; the chain state sits
    # in the frame evolved to the readout time, the single-detector one in
    # the initial frame.
    grid = nt.TimeGrid(epsilon=0.1, n_steps=1)
    A = nt.build_kernel_matrix(nt.ExponentialKernel(rate=1.0), grid)
    sigma = nt.pointer_width_for(A)
    v = 0.6
    rec = NoiseRecord(window=range(0, 1), values=[v], kind="pointer")
    state = nt.conditional_state_pointer(default_model, A, grid, 0.1, rec)
    rho0 = DensityOperator.from_state(default_model.initial_state)
    detector = nt.SingleDetector(sigma=sigma)
    rho_vn, p_vn = nt.vn_measure(detector, default_model, 0.1, rho0, v)
    U = nt.free_step(default_model, 0.1)
    rotated = DensityOperator.from_matrix(U @ rho_vn.matrix @ U.conj().T)
    assert nt.trace_distance(state.rho, rotated) <= 1e-12
    assert state.log_weight == pytest.approx(np.log(p_vn), abs=1e-10)


def test_pointer_state_dephasing_two_branch_closed_form():
    # Commuting qubit: diagonal entries reweighted by shifted-Gaussian
    # likelihoods, off-diagonal additionally damped by the pair weight.
    model = _h0_dephasing()
    grid = nt.TimeGrid(epsilon=0.1, n_steps=4)
    A = nt.build_kernel_matrix(nt.ExponentialKernel(rate=1.0), grid)
    window = grid.window_before(0.2)
    values = np.array([0.4, -0.7])
    rec = NoiseRecord(window=window, values=values, kind="pointer")
    state = nt.conditional_state_pointer(model, A, grid, 0.2, rec)

    marginal = nt.pointer_prior(A, window)
    like_up = np.exp(marginal.logpdf(values - 1.0))
    like_dn = np.exp(marginal.logpdf(values + 1.0))
    damp = np.exp(-2.0 * np.sum(A.submatrix(window)))
    like_mid = np.exp(marginal.logpdf(values))
    p = 0.5 * (like_up + like_dn)
    expected = np.array([
        [0.5 * like_up, 0.5 * damp * like_mid],
        [0.5 * damp * like_mid, 0.5 * like_dn],
    ]) / p
    assert np.max(np.abs(state.rho.matrix - expected)) <= 1e-12
    assert state.log_weight == pytest.approx(np.log(p), abs=1e-10)


def test_pointer_state_mixed_for_noncommuting(default_model):
    grid = nt.TimeGrid(epsilon=0.1, n_steps=4)
    A = nt.build_kernel_matrix(nt.ExponentialKernel(rate=1.0), grid)
    window = grid.window_before(0.2)
    for rec in nt.sample_pointer_prior(A, 5, seed=2):
        sub = NoiseRecord(window=window, values=rec.values[:2], kind="pointer")
        state = nt.conditional_state_pointer(default_model, A, grid, 0.2, sub)
        assert state.rho.purity < 1.0 - 1e-6


# ------------------------------------------------------ readout records


def test_readout_state_zero_coupling(zero_coupling_model, A8, grid8):
    window = grid8.window_before(0.8)
    rec = nt.sample_readout_prior(A8, 1, seed=4)[0]
    state = nt.delayed_state(zero_coupling_model, A8, grid8, 0.8, 0.0, rec)
    U = np.linalg.matrix_power(nt.free_step(zero_coupling_model, 0.1), 8)
    expected = DensityOperator.from_state(U @ zero_coupling_model.initial_state)
    assert nt.trace_distance(state.rho, expected) <= 1e-12
    assert state.log_weight == pytest.approx(nt.readout_prior(A8).logpdf(rec.values), abs=1e-10)


def test_readout_state_purity_one(default_model, A8, grid8):
    for rec in nt.sample_readout_prior(A8, 20, seed=6):
        state = nt.delayed_state(default_model, A8, grid8, 0.8, 0.0, rec)
        assert abs(state.rho.purity - 1.0) <= 1e-10


def test_readout_state_single_step_closed_form():
    # One step, commuting: posterior branch weights are shifted-Gaussian
    # ratios exp(+-2z - 2a) around the prior.
    model = _h0_dephasing()
    grid = nt.TimeGrid(epsilon=0.1, n_steps=1)
    A = nt.build_kernel_matrix(nt.ExponentialKernel(rate=1.0), grid)
    a = A.entries[0, 0]
    z = 0.12
    rec = NoiseRecord(window=range(0, 1), values=[z])
    state = nt.delayed_state(model, A, grid, 0.1, 0.0, rec)
    w_up = np.exp(2 * z - 2 * a)
    w_dn = np.exp(-2 * z - 2 * a)
    assert state.rho.matrix[0, 0].real == pytest.approx(w_up / (w_up + w_dn), abs=1e-12)
    prior = np.exp(-z ** 2 / (2 * a)) / np.sqrt(2 * np.pi * a)
    p = prior * 0.5 * (w_up + w_dn)
    assert state.log_weight == pytest.approx(np.log(p), abs=1e-12)


# -------------------------------------------------- unraveling identities


@pytest.mark.parametrize("steps", [2, 3])
def test_readout_unraveling_by_quadrature(default_model, steps):
    grid = nt.TimeGrid(epsilon=0.1, n_steps=steps)
    A = nt.build_kernel_matrix(nt.ExponentialKernel(rate=1.0), grid)
    t = 0.1 * steps
    window = grid.window_before(t)
    prior = nt.readout_prior(nt.KernelMatrix(window, A.submatrix(window)))
    pts, wts = _gh_points(np.zeros(steps), A.submatrix(window), order=20)
    acc = np.zeros((2, 2), dtype=complex)
    total = 0.0
    for pt, wt in zip(pts, wts):
        rec = NoiseRecord(window=window, values=pt)
        state = nt.delayed_state(default_model, A, grid, t, 0.0, rec)
        like = np.exp(state.log_weight - prior.logpdf(pt))
        acc += wt * like * state.rho.matrix
        total += wt * like
    averaged = DensityOperator.from_matrix(acc / total)
    exact = nt.reduced_state(default_model, A, grid, t)
    assert nt.trace_distance(averaged, exact) <= 1e-10
    assert total == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("steps", [2, 3])
def test_pointer_unraveling_by_quadrature(default_model, steps):
    grid = nt.TimeGrid(epsilon=0.1, n_steps=steps + 2)
    A = nt.build_kernel_matrix(nt.ExponentialKernel(rate=1.0), grid)
    t = 0.1 * steps
    window = grid.window_before(t)
    marginal = nt.pointer_prior(A, window)
    pts, wts = _gh_points(np.zeros(steps), marginal.covariance, order=20)
    acc = np.zeros((2, 2), dtype=complex)
    total = 0.0
    for pt, wt in zip(pts, wts):
        rec = NoiseRecord(window=window, values=pt, kind="pointer")
        state = nt.conditional_state_pointer(default_model, A, grid, t, rec)
        like = np.exp(state.log_weight - marginal.logpdf(pt))
        acc += wt * like * state.rho.matrix
        total += wt * like
    averaged = DensityOperator.from_matrix(acc / total)
    exact = nt.reduced_state(default_model, A, grid, t)
    assert nt.trace_distance(averaged, exact) <= 1e-10
    assert total == pytest.approx(1.0, abs=1e-10)


# ----------------------------------------------------------- delayed


def test_delayed_state_full_delay_reduces_to_reduced(default_model, A8, grid8):
    rec = NoiseRecord(window=range(0, 0), values=np.zeros(0))
    delayed = nt.delayed_state(default_model, A8, grid8, 0.8, 0.8, rec)
    exact = nt.reduced_state(default_model, A8, grid8, 0.8)
    assert nt.trace_distance(delayed.rho, exact) <= 1e-12
    assert delayed.log_weight == pytest.approx(0.0, abs=1e-10)


def test_delayed_statistics_frozen_bound(default_model):
    # One-step delay with rate * delay = 10: every coupling between read
    # steps and later kicks sits at lags >= the delay, so the log-density
    # gap to the shorter zero-delay record obeys the frozen bound.
    grid = nt.TimeGrid(epsilon=0.1, n_steps=8)
    rate, delay, t = 100.0, 0.1, 0.8
    A = nt.build_kernel_matrix(nt.ExponentialKernel(rate=rate), grid)
    read = grid.window_before(t - delay)
    records = nt.sample_readout_prior(nt.KernelMatrix(read, A.submatrix(read)), 50, seed=31)
    gaps = []
    for rec in records:
        delayed = nt.delayed_state(default_model, A, grid, t, delay, rec)
        traj = nt.solve_unnormalized(default_model, A, grid, t - delay, rec)
        gaps.append(abs(delayed.log_weight - nt.readout_pdf(traj, A)))
    bound = 1.0 * grid.n_steps * np.exp(-rate * delay)
    assert max(gaps) <= bound


def test_delayed_state_partial_average_identity(default_model, A8, grid8):
    # Averaging pure trajectory states over the unread tail with the full
    # readout density reproduces the delayed state.
    t, delay = 0.8, 0.2
    read = grid8.window_before(t - delay)
    rec = nt.sample_readout_prior(nt.KernelMatrix(read, A8.submatrix(read)), 1, seed=12)[0]
    delayed = nt.delayed_state(default_model, A8, grid8, t, delay, rec)

    window = grid8.window_before(t)
    Aw = A8.submatrix(window)
    nr = len(read)
    Arr, Afr, Aff = Aw[:nr, :nr], Aw[nr:, :nr], Aw[nr:, nr:]
    mu = Afr @ np.linalg.solve(Arr, rec.values)
    cov = Aff - Afr @ np.linalg.solve(Arr, Afr.T)
    pts, wts = _gh_points(mu, cov, order=24)
    acc = np.zeros((2, 2), dtype=complex)
    den = 0.0
    for pt, wt in zip(pts, wts):
        full = NoiseRecord(window=window, values=np.concatenate([rec.values, pt]))
        traj = nt.solve_unnormalized(default_model, A8, grid8, t, full)
        psi = traj.final_state
        acc += wt * np.outer(psi, psi.conj())
        den += wt * traj.norms[-1] ** 2
    averaged = DensityOperator.from_matrix(acc)
    assert nt.trace_distance(delayed.rho, averaged) <= 1e-10


def test_delayed_state_validation(default_model, A8, grid8):
    rec = NoiseRecord(window=range(0, 6), values=np.zeros(6))
    with pytest.raises(ValueError):
        nt.delayed_state(default_model, A8, grid8, 0.8, 0.25, rec)
    with pytest.raises(ValueError):
        nt.delayed_state(default_model, A8, grid8, 0.8, 0.3, rec)


# ---------------------------------------------------------- vn_measure


def test_vn_measure_eigenstate_shifts_pointer_only(default_model):
    detector = nt.SingleDetector(sigma=0.5)
    rho0 = DensityOperator.from_state(np.array([1.0, 0.0]))
    # Coupling eigenvalue +1; measure at time zero so the frame is trivial.
    for x in (0.0, 0.4, 1.3):
        rho_x, p = nt.vn_measure(detector, default_model, 0.0, rho0, x)
        assert nt.trace_distance(rho_x, rho0) <= 1e-12
        expected = np.exp(-(x - 1.0) ** 2 / 0.5) / np.sqrt(2 * np.pi * 0.25)
        assert p == pytest.approx(expected, rel=1e-12)


def test_vn_measure_mixture_and_normalization(default_model):
    detector = nt.SingleDetector(sigma=0.8)
    rho0 = DensityOperator.from_state(_plus())
    xs = np.linspace(-3, 3, 7)
    for x in xs:
        _, p = nt.vn_measure(detector, default_model, 0.0, rho0, x)
        mix = 0.5 * (np.exp(-(x - 1) ** 2 / (2 * 0.64)) + np.exp(-(x + 1) ** 2 / (2 * 0.64)))
        assert p == pytest.approx(mix / np.sqrt(2 * np.pi * 0.64), rel=1e-12)
    total, _ = integrate.quad(
        lambda x: nt.vn_measure(detector, default_model, 0.0, rho0, x)[1], -12, 12,
        limit=200)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_vn_measure_projective_limit(default_model):
    detector = nt.SingleDetector(sigma=1e-3)
    rho0 = DensityOperator.from_state(_plus())
    rho_x, _ = nt.vn_measure(detector, default_model, 0.0, rho0, 1.0)
    collapsed = DensityOperator.from_state(np.array([1.0, 0.0]))
    assert nt.trace_distance(rho_x, collapsed) <= 1e-10


def test_single_detector_validation():
    with pytest.raises(ValueError):
        nt.SingleDetector(sigma=0.0)
