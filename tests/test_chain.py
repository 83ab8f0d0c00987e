import math
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

import nmtraj as nt
from nmtraj import DensityOperator, NoiseRecord, chain
from nmtraj.errors import DegenerateState, PathBudgetExceeded


def _plus():
    return np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def _h0_dephasing():
    return nt.ModelSpec(dim=2, hamiltonian=np.zeros((2, 2)), coupling=nt.sigma_z(),
                        initial_state=_plus())


def _pointer_reference(A, window):
    """Reference pointer marginal, independent of the chain's Schur route: the
    window block of the explicit inverse (A^-1 / 4)."""
    return nt.GaussianDensity(window, 0.25 * np.linalg.inv(A.entries)[np.ix_(window, window)])


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
    amps = {round(x, 12): v for x, v in zip(paths.eigenvalues[paths.histories[:, 0]],
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
    assert np.all(paths.histories == paths.histories[:, :1])


@pytest.mark.parametrize("case", ["qubit", "dephasing"])
def test_walk_links_every_history_to_its_parent(case, default_model, grid8):
    # Each history extends its parent by one level, and its amplitude is that
    # level's step split applied to the parent's.
    model = {"qubit": default_model, "dephasing": nt.dephasing_qubit(omega=0.9)}[case]
    eig = nt.eigendecompose_coupling(model)
    split = chain._step_split(model, grid8, eig).reshape(eig.count, model.dim, model.dim)
    walk = chain._walk_paths(model, grid8, 8, eig)
    prev_amps, prev_hist, parents = next(walk)
    assert parents.size == 0
    for amps, hist, parents in walk:
        assert np.array_equal(hist[:, :-1], prev_hist[parents])
        branch = split[hist[:, -1]] @ prev_amps[parents][:, :, None]
        assert np.max(np.abs(amps - branch[:, :, 0])) <= 1e-15
        prev_amps, prev_hist = amps, hist
    assert prev_hist.shape == ((256, 8) if case == "qubit" else (2, 8))


def test_build_paths_budget(default_model, monkeypatch):
    monkeypatch.setattr(chain, "PATH_BUDGET", 100)
    grid = nt.TimeGrid(epsilon=0.1, n_steps=8)
    with pytest.raises(PathBudgetExceeded):
        nt.build_paths(default_model, grid, grid.full_window)


def _budget_calls(model, grid):
    A = nt.build_kernel_matrix(nt.ExponentialKernel(rate=1.0), grid)
    rec = NoiseRecord(window=grid.full_window, values=np.zeros(grid.n_steps))
    t = grid.n_steps * grid.epsilon
    return {
        "build_paths": lambda: nt.build_paths(model, grid, grid.full_window),
        "reduced_states": lambda: nt.reduced_states(model, A, grid, t),
        "solve_unnormalized": lambda: nt.solve_unnormalized(model, A, grid, t, rec),
    }


@pytest.mark.parametrize("call", ["build_paths", "reduced_states", "solve_unnormalized"])
def test_walk_budget_raises_before_branching(call, monkeypatch):
    # A 40-step noncommuting request (2^40 histories) stops at the branching
    # step that would pass the budget, having held at most 2048 paths.  At
    # coupling 3 sigma_z no Taylor depth is certified, so the reduced states
    # have no route but the walk.
    monkeypatch.setattr(chain, "PATH_BUDGET", 4000)
    run = _budget_calls(_qubit_coupled(3.0), nt.TimeGrid(epsilon=0.1, n_steps=40))[call]
    tracemalloc.start()
    try:
        with pytest.raises(PathBudgetExceeded, match="^2048 surviving paths x 2 levels"):
            run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_reduced_walk_refuses_at_the_pair_budget():
    # 40 noncommuting steps on an exponential kernel at coupling 3 sigma_z: no
    # Taylor depth is certified and the window transfer's blocks pass the
    # block budget, so only the path sum could run.  Its pairs pass the pair
    # budget at 2^15 paths, where the walk refuses, short of the path
    # budget's 2^20.
    import time
    grid = nt.TimeGrid(epsilon=0.1, n_steps=40)
    A = nt.build_kernel_matrix(nt.ExponentialKernel(rate=1.0), grid)
    start = time.monotonic()
    with pytest.raises(PathBudgetExceeded, match="path pairs exceed the pair budget"):
        nt.reduced_states(_qubit_coupled(3.0), A, grid, 4.0)
    assert time.monotonic() - start < 0.1


def test_pair_sum_holds_no_full_pair_array(default_model):
    # 11 steps give 2048 paths, so one float array over all path pairs is
    # 32 MiB; the pair sum builds its exponents one row chunk at a time.
    # At delay 0 the histories form one group; with nothing read (delay t)
    # each history is its own group and all 2048^2 pairs are summed.
    grid = nt.TimeGrid(epsilon=0.1, n_steps=11)
    A = nt.build_kernel_matrix(nt.ExponentialKernel(rate=1.0), grid)
    rec = nt.sample_readout_prior(A, 1, seed=3)[0]
    for delay, record in ((0.0, rec), (1.1, NoiseRecord(window=range(0), values=np.zeros(0)))):
        tracemalloc.start()
        try:
            state = nt.delayed_state(default_model, A, grid, 1.1, delay, record)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        if not delay:
            assert state.rho.purity == pytest.approx(1.0, abs=1e-10)
        assert peak < 64 * 2 ** 20


# ---------------------------------------------------------------- reduced


def test_reduced_state_zero_coupling(zero_coupling_model, A8, grid8):
    rho = nt.reduced_states(zero_coupling_model, A8, grid8, 0.8)[-1]
    U = np.linalg.matrix_power(nt.free_step(zero_coupling_model, 0.1), 8)
    expected = DensityOperator.from_state(U @ zero_coupling_model.initial_state)
    assert nt.trace_distance(rho, expected) <= 1e-12


def test_reduced_state_dephasing_closed_form(A8, grid8):
    model = _h0_dephasing()
    rho = nt.reduced_states(model, A8, grid8, 0.8)[-1]
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
        rho = nt.reduced_states(model, A, grid, eps * n)[-1]
        expected = 0.5 * np.exp(-2.0 * g ** 2 * eps * n)
        assert rho.matrix[0, 1].real == pytest.approx(expected, abs=1e-12)


def test_reduced_state_is_valid_density(default_model, A8, grid8):
    rho = nt.reduced_states(default_model, A8, grid8, 0.8)[-1]
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
    rho = nt.reduced_states(model, A8, grid8, 0.8)[-1]
    paths = nt.build_paths(model, grid8, grid8.full_window)
    delta = paths.eigenvalues[paths.histories][:, None, :] - paths.eigenvalues[paths.histories][None, :, :]
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
        # A walk that stops at step k ends in the same state, bit for bit.
        expected = nt.reduced_states(model, A, grid, k * grid.epsilon)[-1]
        assert np.array_equal(rho.matrix, expected.matrix)


def test_reduced_states_stop_at_t(default_model, A8, grid8):
    states = nt.reduced_states(default_model, A8, grid8, 0.3)
    assert len(states) == 3
    assert np.array_equal(states[-1].matrix,
                          nt.reduced_states(default_model, A8, grid8, 0.8)[2].matrix)
    assert nt.reduced_states(default_model, A8, grid8, 0.0) == []


# -------------------------------------------------- memory-window transfer


def _tab(values, eps=0.1):
    return nt.TabulatedKernel(lags=tuple(eps * np.arange(len(values))), values=tuple(values))


def _routed(model, A, grid, monkeypatch):
    """Reduced states at every grid time and the arguments of the transfer runs
    that made them."""
    runs = []
    transfer = chain._transfer_states

    def counting(*args):
        runs.append(args)
        return transfer(*args)

    with monkeypatch.context() as patch:
        patch.setattr(chain, "_transfer_states", counting)
        states = nt.reduced_states(model, A, grid, grid.n_steps * grid.epsilon)
    return states, runs


def _path_sum(model, A, grid, monkeypatch):
    """Reduced states at every grid time with the transfer ruled out by its budget."""
    with monkeypatch.context() as patch:
        patch.setattr(chain, "BLOCK_BUDGET", 0)
        return nt.reduced_states(model, A, grid, grid.n_steps * grid.epsilon)


def _degenerate_qutrit():
    rng = np.random.default_rng(8)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return nt.ModelSpec(dim=3, hamiltonian=0.5 * (M + M.conj().T),
                        coupling=np.diag([1.0, 1.0, -1.0]),
                        initial_state=np.array([0.6, 0.0, 0.8], dtype=complex))


def _qubit_coupled(strength):
    return nt.ModelSpec(dim=2, hamiltonian=nt.sigma_x(), coupling=strength * nt.sigma_z(),
                        initial_state=np.array([1.0, 0.0], dtype=complex))


@pytest.mark.parametrize("case, band", [
    ("markov", 0), ("tab-L1", 1), ("tab-L2", 2), ("tab-L3", 3), ("qutrit", 1),
    ("degenerate", 2), ("coupling-60", 1)])
def test_transfer_matches_the_path_sum(case, band, default_model, monkeypatch):
    model, kernel, steps = {
        "markov": (default_model, nt.MarkovDeltaKernel(g=1.3), 10),
        "tab-L1": (default_model, _tab((0.5, 0.2, 0.0)), 12),
        "tab-L2": (default_model, _tab((0.5, 0.3, 0.1, 0.0)), 11),
        "tab-L3": (default_model, _tab((0.6, 0.3, 0.15, 0.05, 0.0)), 10),
        "qutrit": (_qutrit_setup()[0], _tab((0.5, 0.2, 0.0)), 7),
        "degenerate": (_degenerate_qutrit(), _tab((0.5, 0.3, 0.1, 0.0)), 7),
        "coupling-60": (_qubit_coupled(60.0), _tab((0.5, 0.2, 0.0)), 8),
    }[case]
    grid = nt.TimeGrid(epsilon=0.1, n_steps=steps)
    A = nt.build_kernel_matrix(kernel, grid)
    assert A.bandwidth == band
    routed, runs = _routed(model, A, grid, monkeypatch)
    path_sum = _path_sum(model, A, grid, monkeypatch)
    assert len(runs) == 1
    assert len(routed) == len(path_sum) == steps
    for rho, ref in zip(routed, path_sum):
        assert np.max(np.abs(rho.matrix - ref.matrix)) <= 1e-12


@pytest.mark.parametrize("case, transfer", [
    ("qubit-tab", True), ("qubit-exp", True), ("qutrit-exp", True),
    ("long-exp", True), ("long-tab", True), ("long-7-step-support", True),
    ("dephasing-0.1", True), ("dephasing-0.05", True), ("dephasing-0.025", True),
    ("2-step", True), ("3-sigma-z", False)])
def test_route_choice(case, transfer, default_model, monkeypatch):
    # The routes of the benchmark's evolve configs, verify's dephasing grids
    # (t = 0.8), a commuting qubit whose seven-step kernel support fits the
    # block budget, and a 2-step grid on which both transfers may run.  Every
    # exponential kernel with a certified depth takes the Taylor levels at
    # that depth, the 2-step grid and the 8-step dephasing grid too, though
    # their windows fit; the tabulated kernels take the memory window (no
    # depth is passed), whatever their path counts; and 3 sigma_z on 10 steps
    # certifies no depth and cannot hold its window, so only it walks the
    # history tree.  The transfer routes read no walk.
    dephasing = nt.dephasing_qubit(omega=0.7)
    model, kernel, eps, steps = {
        "qubit-tab": (default_model, _tab((0.5, 0.2, 0.0)), 0.1, 11),
        "qubit-exp": (default_model, nt.ExponentialKernel(rate=1.0), 0.1, 11),
        "qutrit-exp": (_qutrit_setup()[0], nt.ExponentialKernel(rate=1.0), 0.1, 7),
        "long-exp": (dephasing, nt.ExponentialKernel(rate=1.0), 0.01, 120),
        "long-tab": (dephasing, _tab((0.5, 0.2, 0.0), 0.01), 0.01, 120),
        "long-7-step-support": (dephasing, _tab(np.linspace(0.5, 0.05, 7), 0.01), 0.01, 120),
        "dephasing-0.1": (nt.dephasing_qubit(), nt.ExponentialKernel(rate=1.0), 0.1, 8),
        "dephasing-0.05": (nt.dephasing_qubit(), nt.ExponentialKernel(rate=1.0), 0.05, 16),
        "dephasing-0.025": (nt.dephasing_qubit(), nt.ExponentialKernel(rate=1.0), 0.025, 32),
        "2-step": (default_model, nt.ExponentialKernel(rate=1.0), 0.1, 2),
        "3-sigma-z": (_qubit_coupled(3.0), nt.ExponentialKernel(rate=1.0), 0.1, 10),
    }[case]
    grid = nt.TimeGrid(epsilon=eps, n_steps=steps)
    A = nt.build_kernel_matrix(kernel, grid)
    eig = nt.eigendecompose_coupling(model)
    if case == "long-7-step-support":
        assert A.bandwidth == 6
    if case in ("long-7-step-support", "dephasing-0.1", "2-step"):
        assert chain._window_may_run(eig, A, model.dim)
    if transfer:
        monkeypatch.setattr(chain, "_walk_paths", lambda *_: pytest.fail("the route walked"))
    states, runs = _routed(model, A, grid, monkeypatch)
    assert len(states) == steps
    depth = {"qubit-exp": 27, "qutrit-exp": 23, "long-exp": 30, "dephasing-0.1": 24,
             "dephasing-0.05": 25, "dephasing-0.025": 25, "2-step": 15}.get(case)
    assert [args[-1] for args in runs] == ([depth] if transfer else [])


def test_uncertified_grid_walks_only_to_t(monkeypatch):
    # No depth is certified for a 40-step qubit at coupling 3 sigma_z, and the
    # memory window cannot hold its bandwidth, so no transfer may run and the
    # walk stops at t instead of walking the grid to the path budget.
    walks = []
    walk = chain._walk_paths

    def counting(*args):
        walks.append(args[2])
        return walk(*args)

    monkeypatch.setattr(chain, "_walk_paths", counting)
    grid = nt.TimeGrid(epsilon=0.1, n_steps=40)
    A = nt.build_kernel_matrix(nt.ExponentialKernel(rate=1.0), grid)
    states = nt.reduced_states(_qubit_coupled(3.0), A, grid, 0.5)
    assert walks == [5] and len(states) == 5

def test_exponent_increments_sum_to_the_pair_exponent():
    rng = np.random.default_rng(4)
    n = 6
    A = nt.build_kernel_matrix(nt.ExponentialKernel(rate=0.7), nt.TimeGrid(0.2, n)).entries
    ket, bra = rng.choice([-1.0, 0.5, 2.0], size=(2, 3, n))
    total = sum(chain._exponent_increment(A[k, :k + 1], ket[:, :k + 1], bra[:, :k + 1])
                for k in range(n))
    delta = ket[:, None, :] - bra[None, :, :]
    expected = -0.5 * np.einsum("abk,kl,abl->ab", delta, A, delta)
    assert np.max(np.abs(total - expected)) <= 1e-14


def test_transfer_guard_refuses_a_large_exponent_bound(default_model):
    # Each corner of the two-step kernel holds one entry, A_{k,k-1} = 0.002,
    # so the local bound is B = (2c)^2 * 0.002 = 0.008 c^2 on any grid: 28.8
    # at coupling 60 on 40 steps (the whole-grid bound was 1123) and 720 at
    # coupling 300, which passes the cap.
    grid = nt.TimeGrid(epsilon=0.1, n_steps=40)
    A = nt.build_kernel_matrix(_tab((0.5, 0.2, 0.0)), grid)
    for strength, allowed in ((60.0, True), (300.0, False)):
        eig = nt.eigendecompose_coupling(_qubit_coupled(strength))
        assert chain._window_may_run(eig, A, 2) is allowed
    # The block array of bandwidth 9 for a qubit holds 2^22 entries.
    grid = nt.TimeGrid(epsilon=0.1, n_steps=12)
    A = nt.build_kernel_matrix(_tab(np.linspace(0.5, 0.05, 10)), grid)
    assert A.bandwidth == 9
    assert not chain._window_may_run(nt.eigendecompose_coupling(default_model), A, 2)


def test_local_exponent_bound_is_the_largest_corner(default_model, monkeypatch):
    # The guard's O(nL) bound against the corners summed entry by entry, on
    # a bandwidth-3 kernel with a negative lag value; corners near the grid's
    # ends hold fewer entries.
    n, band = 9, 3
    A = nt.build_kernel_matrix(_tab((0.6, 0.25, -0.05, 0.02, 0.0)), nt.TimeGrid(0.1, n))
    assert A.bandwidth == band
    corners = [sum(abs(A.entries[i, j]) for j in range(k)
                   for i in range(k, min(j + band, n - 1) + 1)) for k in range(n + 1)]
    bound = 4.0 * max(corners)  # sigma_z eigenvalues -1 and 1: Dmax^2 = 4
    eig = nt.eigendecompose_coupling(default_model)
    for cap, allowed in ((bound * (1 + 1e-9), True), (bound * (1 - 1e-9), False)):
        monkeypatch.setattr(chain, "_EXPONENT_CAP", cap)
        assert chain._window_may_run(eig, A, 2) == allowed


@pytest.mark.parametrize("strength, steps", [(60.0, 40), (30.0, 300), (10.0, 1000)])
def test_transfer_matches_an_extended_precision_run(strength, steps, monkeypatch):
    # Without renormalization the float64 transfer's off-diagonal pair weights
    # underflow at these couplings; the same step loop in 80-bit long double
    # (exponent range ~1e+-4932) is the oracle.
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("long double is not an extended-precision type here")
    kernel = nt.TabulatedKernel(lags=(0.0, 0.1, 0.2), values=(1.0, 0.5, 0.0))
    grid = nt.TimeGrid(epsilon=0.1, n_steps=steps)
    A = nt.build_kernel_matrix(kernel, grid)
    model = _qubit_coupled(strength)
    eig = nt.eigendecompose_coupling(model)
    assert chain._window_may_run(eig, A, 2)
    double = chain._transfer_states(model, A, grid, eig, steps)
    U = nt.free_step(model, grid.epsilon)
    monkeypatch.setattr(chain, "free_step", lambda *_: U.astype(np.clongdouble))
    eig_ld = nt.CouplingEigensystem(eigenvalues=eig.eigenvalues.astype(np.longdouble),
                                    projectors=eig.projectors.astype(np.clongdouble))
    A_ld = nt.KernelMatrix(A.window, A.column.astype(np.longdouble))
    extended = chain._transfer_states(model, A_ld, grid, eig_ld, steps)
    assert max(np.max(np.abs(a.matrix - b.matrix)) for a, b in zip(double, extended)) <= 1e-12


def test_memory_window_holds_no_dense_kernel_block(default_model):
    # The transfer reads its step increments off the kernel's column: on a
    # 2000-step grid it allocates less than one n x n float block.
    n = 2000
    grid = nt.TimeGrid(epsilon=0.1, n_steps=n)
    A = nt.build_kernel_matrix(
        nt.TabulatedKernel(lags=(0.0, 0.1, 0.2), values=(1.0, 0.5, 0.0)), grid)
    tracemalloc.start()
    try:
        states = nt.reduced_states(default_model, A, grid, n * grid.epsilon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(states) == n
    assert peak < 8 * n * n


# ------------------------------------------------- Taylor hierarchy (AR(1))


def _bench_qutrit(seed=1):
    """The exact-nc benchmark's qutrit at workload seed 1."""
    rng = np.random.default_rng([seed, 3])
    M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    return nt.ModelSpec(dim=3, hamiltonian=0.5 * (M + M.conj().T),
                        coupling=np.diag([-1.0, 0.0, 1.0]),
                        initial_state=np.array([1.0, 0.0, 0.0], dtype=complex))


def _levels(model, A, grid, depth):
    eig = nt.eigendecompose_coupling(model)
    return chain._transfer_states(model, A, grid, eig, grid.n_steps, depth)


def _depth_for(model, A, grid):
    """Certified depth of the grid's exponential kernel for the model."""
    spread = float(np.ptp(nt.eigendecompose_coupling(model).eigenvalues))
    return chain._certified_depth(*A.ar1, spread, grid.n_steps, model.dim)


@pytest.mark.parametrize("case", ["rate-0.5", "rate-1", "rate-5", "qutrit", "degenerate",
                                  "dephasing"])
def test_taylor_levels_match_the_path_sum(case, default_model, monkeypatch):
    model, rate, steps = {
        "rate-0.5": (default_model, 0.5, 12),
        "rate-1": (default_model, 1.0, 11),
        "rate-5": (default_model, 5.0, 12),
        "qutrit": (_bench_qutrit(), 1.0, 7),
        "degenerate": (_degenerate_qutrit(), 1.0, 7),
        "dephasing": (nt.dephasing_qubit(omega=0.7), 1.0, 12),
    }[case]
    grid = nt.TimeGrid(epsilon=0.1, n_steps=steps)
    A = nt.build_kernel_matrix(nt.ExponentialKernel(rate=rate), grid)
    routed, runs = _routed(model, A, grid, monkeypatch)
    path_sum = _path_sum(model, A, grid, monkeypatch)
    # The levels are also run directly at the certified depth the route takes.
    depth = _depth_for(model, A, grid)
    assert depth is not None and [args[-1] for args in runs] == [depth]
    levels = _levels(model, A, grid, depth)
    assert len(routed) == len(levels) == len(path_sum) == steps
    for rho, forced, ref in zip(routed, levels, path_sum):
        assert np.max(np.abs(rho.matrix - ref.matrix)) <= 1e-12
        assert np.max(np.abs(forced.matrix - ref.matrix)) <= 1e-12


def _bounds_for(model, A, steps):
    spread = float(np.ptp(nt.eigendecompose_coupling(model).eigenvalues))
    return chain._truncation_bounds(*A.ar1, spread, steps, model.dim)


def test_truncation_bound_dominates_the_matrix_error(default_model, monkeypatch):
    # The default qubit at depths the bound does not certify, N = 5 .. 8 on
    # 8 steps and 8 .. 11 on 11 steps, where the truncation error (3e-15 to
    # 6e-8) is measured against the path sum in trace norm: every
    # normalized state stays within the bound.
    for steps, depths in ((8, range(5, 9)), (11, range(8, 12))):
        grid = nt.TimeGrid(epsilon=0.1, n_steps=steps)
        A = nt.build_kernel_matrix(nt.ExponentialKernel(rate=1.0), grid)
        bounds = _bounds_for(default_model, A, steps)
        path_sum = _path_sum(default_model, A, grid, monkeypatch)
        worst = []
        for depth in depths:
            worst.append(max(np.sum(np.abs(np.linalg.eigvalsh(rho.matrix - ref.matrix)))
                             for rho, ref in zip(_levels(default_model, A, grid, depth), path_sum)))
            assert worst[-1] <= bounds[depth] < 1
        assert worst[0] > 1e-11  # a truncation error well above rounding


def test_truncation_bound_refuses_the_tail_rule(default_model, monkeypatch):
    # The tail rule |y|^(N+1)/(N+1)! < 1e-14 with |y| <= c Dmax r/(1 - r)
    # picks N = 8 on the 11-step qubit, whose states are then off by ~5e-11:
    # truncation errors grow over the kernel's memory.
    grid = nt.TimeGrid(epsilon=0.1, n_steps=11)
    A = nt.build_kernel_matrix(nt.ExponentialKernel(rate=1.0), grid)
    c, r = A.ar1
    y = 2.0 * c * r / (1.0 - r)
    assert [N for N in range(chain.DEPTH_CAP) if y ** (N + 1) / math.factorial(N + 1) < 1e-14][0] == 8
    assert _bounds_for(default_model, A, 11)[8] > 1e-14
    assert _depth_for(default_model, A, grid) == 27
    errors = [np.max(np.abs(rho.matrix - ref.matrix)) for rho, ref in
              zip(_levels(default_model, A, grid, 8), _path_sum(default_model, A, grid, monkeypatch))]
    assert max(errors) > 1e-11


@pytest.mark.parametrize("rate, eps, steps, strength, dim, depth", [
    (1.0, 0.1, 11, 1.0, 2, 27), (1.0, 0.1, 7, 1.0, 3, 23), (1e3, 0.1, 8, 1.0, 2, 0),
    (1.0, 0.1, 8, 10.0, 2, None), (1e-3, 0.1, 2000, 1.0, 2, None),
    (1.0, 0.1, 2000, 1.0, 2, 40), (1.0, 0.01, 2000, 1.0, 2, 41)],
    ids=["qubit-11", "qutrit-7", "rate-1e3", "10-sigma-z", "rate-1e-3-long", "qubit-2000",
         "qubit-2000-eps-0.01"])
def test_certified_depth_reads_only_the_kernel_and_coupling(rate, eps, steps, strength, dim,
                                                            depth, monkeypatch):
    # The depth is a function of (c, r, Dmax, n, d) alone: no walk, no path
    # count, and (c, r) read off a 2-step grid.  Coupling eigenvalues
    # +-strength (Dmax = 2 strength); the qutrit is the benchmark's, with
    # eigenvalues -1, 0, 1.
    monkeypatch.setattr(chain, "_walk_paths", lambda *_: pytest.fail("the depth walked"))
    c, r = nt.build_kernel_matrix(nt.ExponentialKernel(rate=rate), nt.TimeGrid(eps, 2)).ar1
    assert chain._certified_depth(c, r, 2.0 * strength, steps, dim) == depth


@pytest.mark.parametrize("case", ["10-sigma-z", "rate-1e-3", "rate-1e-3-long", "rate-1e3"])
def test_truncation_bound_at_extreme_kernels(case, monkeypatch):
    # pytest turns RuntimeWarnings into errors, so none of these may overflow
    # or divide by zero out loud (at rate 1e3, r^k underflows).  A strong
    # coupling certifies no depth, so its 8-step grid takes the memory window
    # (no depth is passed); a slow kernel (r -> 1) certifies a low one on a
    # short grid and none on a long one; a fast kernel (r -> 0) leaves no
    # memory, so depth 0.
    model, rate, steps, depth = {
        "10-sigma-z": (_qubit_coupled(10.0), 1.0, 8, None),
        "rate-1e-3": (_qubit_coupled(1.0), 1e-3, 8, 8),
        "rate-1e-3-long": (_qubit_coupled(1.0), 1e-3, 2000, None),
        "rate-1e3": (_qubit_coupled(1.0), 1e3, 8, 0),
    }[case]
    grid = nt.TimeGrid(epsilon=0.1, n_steps=steps)
    A = nt.build_kernel_matrix(nt.ExponentialKernel(rate=rate), grid)
    assert _bounds_for(model, A, steps).shape == (chain.DEPTH_CAP + 1,)
    assert _depth_for(model, A, grid) == depth
    assert np.all(np.isfinite(chain._taylor_matrix(20.0, *A.ar1, chain.DEPTH_CAP + 1)))
    if steps <= 8:
        routed, runs = _routed(model, A, grid, monkeypatch)
        assert [args[-1] for args in runs] == [depth]
        for rho, ref in zip(routed, _path_sum(model, A, grid, monkeypatch)):
            assert np.max(np.abs(rho.matrix - ref.matrix)) <= 1e-12


@pytest.mark.parametrize("model", [_qubit_coupled(1.0), _qubit_coupled(3.0), _qubit_coupled(10.0),
                                   _bench_qutrit(), _degenerate_qutrit()],
                         ids=["sigma-z", "3-sigma-z", "10-sigma-z", "qutrit", "degenerate"])
@pytest.mark.parametrize("rate", [1.0, 100.0])
@pytest.mark.parametrize("depth", [5, 12])
def test_truncated_step_contracts_in_the_level_norm(model, rate, depth):
    # One step of the hierarchy, levels 0 .. depth of d x d blocks, as a
    # matrix: level n of the new blocks is sum_(alpha, beta, l)
    # T^(x_alpha - x_beta)_nl P_alpha U rho^(l) U^dag P_beta.  In the norm
    # sum_n n! c^-n ||rho^(n)||_HS^2 its spectral norm is at most 1, the
    # contraction _truncation_bounds proves.
    c, r = nt.build_kernel_matrix(nt.ExponentialKernel(rate=rate), nt.TimeGrid(0.1, 2)).ar1
    eig = nt.eigendecompose_coupling(model)
    U, d, size = nt.free_step(model, 0.1), model.dim, depth + 1
    step = np.zeros((size, d, d, size, d, d), dtype=complex)
    for xa, Pa in zip(eig.eigenvalues, eig.projectors):
        for xb, Pb in zip(eig.eigenvalues, eig.projectors):
            split = np.einsum("ip,qj->ijpq", Pa @ U, U.conj().T @ Pb)
            step += np.einsum("nl,ijpq->nijlpq", chain._taylor_matrix(xa - xb, c, r, size), split)
    n = np.arange(size)
    scale = np.sqrt(np.array([math.factorial(k) for k in n], dtype=float) * c ** -n.astype(float))
    weighted = step * (scale[:, None, None, None, None, None] / scale[None, None, None, :, None, None])
    norm = np.linalg.norm(weighted.reshape(size * d * d, size * d * d), 2)
    assert 0.99 < norm <= 1.0 + 1e-13


# ------------------------------------------------------ pointer readout


def test_pointer_state_zero_coupling(zero_coupling_model, A8, grid8):
    window = grid8.window_before(0.4)
    values = np.array([0.3, -0.1, 0.2, 0.05])
    rec = NoiseRecord(window=window, values=values, kind="pointer")
    state = nt.conditional_state_pointer(zero_coupling_model, A8, grid8, 0.4, rec)
    U = np.linalg.matrix_power(nt.free_step(zero_coupling_model, 0.1), 4)
    expected = DensityOperator.from_state(U @ zero_coupling_model.initial_state)
    assert nt.trace_distance(state.rho, expected) <= 1e-12
    prior = _pointer_reference(A8, window)
    assert state.log_weight == pytest.approx(prior.logpdf(values), abs=1e-10)


def test_pointer_state_single_step_matches_single_detector(default_model):
    # One grid step is a single impulsive measurement; the chain state sits
    # in the frame evolved to the readout time, the single-detector one in
    # the initial frame.
    grid = nt.TimeGrid(epsilon=0.1, n_steps=1)
    A = nt.build_kernel_matrix(nt.ExponentialKernel(rate=1.0), grid)
    sigma = pointer_width_for(A)
    v = 0.6
    rec = NoiseRecord(window=range(0, 1), values=[v], kind="pointer")
    state = nt.conditional_state_pointer(default_model, A, grid, 0.1, rec)
    rho0 = DensityOperator.from_state(default_model.initial_state)
    detector = SingleDetector(sigma=sigma)
    rho_vn, p_vn = vn_measure(detector, default_model, 0.1, rho0, v)
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

    marginal = _pointer_reference(A, window)
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


def _exact_dephasing_pointer_state(A, k, x):
    """Exact (rational) reference for the dephasing qubit from |+>, whose two
    histories are all +1 and all -1: the Schur complement S of the unread steps
    by eliminating them one at a time, then e_++ and e_-- = -2 1.S.1 +- 4 1.S.x,
    e_+- = -2 1.A_ww.1 and log p(x) = -2 x.S.x + log det(4S) / 2 - k log(2 pi) / 2.
    Returns (log_weight, rho_00, |rho_01|)."""
    M = [[Fraction(v) for v in row] for row in A.entries]
    for j in range(A.size - 1, k - 1, -1):
        for r in range(j):
            f = M[r][j] / M[j][j]
            M[r][:j] = [a - f * b for a, b in zip(M[r][:j], M[j][:j])]
    S = [row[:k] for row in M[:k]]
    xs = [Fraction(v) for v in x]
    Sx = [sum(a * b for a, b in zip(row, xs)) for row in S]
    det, D = Fraction(1), [row[:] for row in S]
    for j in range(k):
        det *= D[j][j]
        for r in range(j + 1, k):
            f = D[r][j] / D[j][j]
            D[r] = [a - f * b for a, b in zip(D[r], D[j])]
    log_det = math.log(det.numerator) - math.log(det.denominator)
    log_p = (float(-2 * sum(a * b for a, b in zip(xs, Sx))) + k * math.log(2.0)
             + 0.5 * log_det - 0.5 * k * math.log(2.0 * math.pi))
    one_S_one, one_S_x = float(sum(map(sum, S))), float(sum(Sx))
    e_pp, e_mm = -2.0 * one_S_one + 4.0 * one_S_x, -2.0 * one_S_one - 4.0 * one_S_x
    e_pm = -2.0 * float(sum(Fraction(v) for v in A.entries[:k, :k].ravel()))
    top = max(e_pp, e_mm)
    trace = 0.5 * (math.exp(e_pp - top) + math.exp(e_mm - top))
    return (log_p + top + math.log(trace), 1.0 / (1.0 + math.exp(e_mm - e_pp)),
            0.5 * math.exp(e_pm - top) / trace)


@pytest.mark.parametrize("t", [0.8, 1.2])
@pytest.mark.parametrize("rate, accepted", [(1e-4, True), (1e-6, False)])
def test_pointer_guard_on_a_nearly_singular_kernel(t, rate, accepted, monkeypatch):
    # 12 steps of 0.1 at rate 1e-4 (cond A = 2.4e6) are within the guard, and
    # match the exact state; at rate 1e-6 (cond A = 2.4e8) the unread block
    # (t = 0.8) or S = A (t = 1.2) is refused before any path or pair sum.
    model = nt.dephasing_qubit(omega=0.7)
    grid = nt.TimeGrid(epsilon=0.1, n_steps=12)
    A = nt.build_kernel_matrix(nt.ExponentialKernel(rate=rate), grid)
    k = grid.steps_of(t)
    for seed in (1, 2, 3):
        x = nt.sample_pointer_prior(A, 1, seed=seed)[0].values[:k]
        rec = NoiseRecord(window=range(k), values=x, kind="pointer")
        if not accepted:
            with monkeypatch.context() as patch:
                for name in ("build_paths", "_conditional"):
                    patch.setattr(chain, name, lambda *_: pytest.fail("guard came too late"))
                with pytest.raises(nt.SingularWindow, match="condition number"):
                    nt.conditional_state_pointer(model, A, grid, t, rec)
            continue
        state = nt.conditional_state_pointer(model, A, grid, t, rec)
        log_weight, rho_00, rho_01 = _exact_dephasing_pointer_state(A, k, x)
        assert state.log_weight == pytest.approx(log_weight, rel=2e-13)
        assert abs(state.rho.matrix[0, 0].real - rho_00) <= 1e-14
        assert abs(abs(state.rho.matrix[0, 1]) - rho_01) <= 1e-14


@pytest.mark.parametrize("steps, rate", [(2, 1e-4), (3, 1e-4), (2, 1e-5)])
def test_pointer_log_weight_at_the_grid_end_matches_the_rational_reference(steps, rate):
    # S = A_ww has cond(S) of 2e6 to 2e7 on these grids; its log det, factored in
    # extended precision, keeps log_weight within 1e-13 of the exact value
    # (a float factor was off by up to 1e-11).
    model = nt.dephasing_qubit(omega=0.7)
    grid = nt.TimeGrid(epsilon=0.01, n_steps=steps)
    A = nt.build_kernel_matrix(nt.ExponentialKernel(rate=rate), grid)
    for seed in (1, 2, 3):
        x = nt.sample_pointer_prior(A, 1, seed=seed)[0].values
        rec = NoiseRecord(window=range(steps), values=x, kind="pointer")
        state = nt.conditional_state_pointer(model, A, grid, 0.01 * steps, rec)
        log_weight = _exact_dephasing_pointer_state(A, steps, x)[0]
        assert state.log_weight == pytest.approx(log_weight, rel=1e-13)


# ------------------------------------------- raw pointers: what C couples


def _dense_pointer_terms(model, A, grid, k):
    """Histories, amplitudes and the dense S and C = A_wu A_uu^-1 A_uw of a
    k-step read window, C from a solve with no entry of it assumed zero."""
    paths = nt.build_paths(model, grid, range(k))
    A_w, A_wu = A.entries[:k, :k], A.entries[:k, k:]
    C = A_wu @ np.linalg.solve(A.entries[k:, k:], A_wu.T) if k < A.size else np.zeros((k, k))
    return paths.eigenvalues[paths.histories], paths.amplitudes, A_w - C, C


def _dense_pointer_state(model, A, grid, k, x):
    """Reference raw-pointer state: every history pair of the window with
    the dense C, and log p(x) = log N(x; 0, S^-1 / 4)."""
    X, v, S, C = _dense_pointer_terms(model, A, grid, k)
    e = -0.5 * np.einsum("pk,pk->p", X, X @ (A.entries[:k, :k] + S)) + 2.0 * X @ (S @ x)
    E = e[:, None] + e[None, :] + X @ C @ X.T
    shift = np.max(E)
    num = v.T @ np.exp(E - shift) @ v.conj()
    trace = np.trace(num).real
    log_prior = (-2.0 * x @ S @ x + 0.5 * np.linalg.slogdet(4.0 * S)[1]
                 - 0.5 * k * np.log(2.0 * np.pi))
    return num / trace, np.log(trace) + shift + log_prior


def _qutrit_012():
    model = _qutrit_setup()[0]
    return nt.ModelSpec(dim=3, hamiltonian=model.hamiltonian, coupling=np.diag([0.0, 1.0, 2.0]),
                        initial_state=model.initial_state)


_POINTER_CASES = {  # model, kernel, grid steps, bandwidth of the kernel (None: exponential)
    "sigma-z": (nt.default_qubit, nt.ExponentialKernel(rate=1.0), 10, None),
    "3-sigma-z": (lambda: _qubit_coupled(3.0), nt.ExponentialKernel(rate=1.0), 10, None),
    "qutrit-012": (_qutrit_012, nt.ExponentialKernel(rate=1.0), 6, None),
    "degenerate": (_degenerate_qutrit, nt.ExponentialKernel(rate=1.0), 8, None),
    "rate-0.1": (nt.default_qubit, nt.ExponentialKernel(rate=0.1), 10, None),
    "rate-10": (nt.default_qubit, nt.ExponentialKernel(rate=10.0), 10, None),
    "tab-L1": (nt.default_qubit, _tab((0.5, 0.2, 0.0)), 10, 1),
    "tab-L2": (nt.default_qubit, _tab((0.5, 0.3, 0.1, 0.0)), 10, 2),
    "tab-L3": (nt.default_qubit, _tab((0.5, 0.3, 0.2, 0.1, 0.0)), 10, 3),
    "markov": (nt.default_qubit, nt.MarkovDeltaKernel(g=1.0), 10, 0),
}


@pytest.mark.parametrize("case", list(_POINTER_CASES))
def test_pointer_state_matches_the_dense_pair_sum(case, monkeypatch):
    # Interior t and the grid's end, against every history pair.  Finite
    # support sums m^(2L) group pairs (one, a pure state, for Markov and at
    # the end); the exponential kernel's rank-one levels cost P (N + 1) < P^2.
    make, kernel, n, band = _POINTER_CASES[case]
    model, grid = make(), nt.TimeGrid(epsilon=0.1, n_steps=n)
    A = nt.build_kernel_matrix(kernel, grid)
    m = nt.eigendecompose_coupling(model).count
    checked = []
    check = chain._check_pairs
    monkeypatch.setattr(chain, "_check_pairs", lambda pairs: checked.append(pairs) or check(pairs))
    for k in (n - 3, n):
        x = nt.sample_pointer_prior(A, 1, seed=21)[0].values[:k]
        checked.clear()
        state = nt.conditional_state_pointer(model, A, grid, 0.1 * k, NoiseRecord(
            window=range(k), values=x, kind="pointer"))
        rho, log_weight = _dense_pointer_state(model, A, grid, k, x)
        assert np.max(np.abs(state.rho.matrix - rho)) <= 1e-12
        assert state.log_weight == pytest.approx(log_weight, rel=1e-12)
        paths = nt.build_paths(model, grid, range(k)).count
        if band is None and k < n:
            assert len(checked) == 1 and checked[0] % paths == 0 and checked[0] < paths ** 2
        else:
            assert checked == [m ** (2 * (band if k < n else 0))]
        if band == 0 or k == n:
            assert state.rho.purity == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("case", ["3-sigma-z", "qutrit-012"])
def test_rank_one_tail_bound_dominates_the_truncation_error(case):
    # The levels past N sum to a PSD tail whose trace norm, measured against
    # the dense pair sum, stays under the bound at every depth N = 2 .. 8.
    # The bound holds in exact arithmetic; the dense sum's own rounding, a
    # few ulps of its trace, is the floor of the measured error: the qutrit
    # reaches it at N = 7, after a bound within a factor 2 of it at N = 2..6.
    make, kernel, n, _ = _POINTER_CASES[case]
    model, grid = make(), nt.TimeGrid(epsilon=0.1, n_steps=n)
    A = nt.build_kernel_matrix(kernel, grid)
    k = n - 3
    x = nt.sample_pointer_prior(A, 1, seed=22)[0].values[:k]
    X, v, S, C = _dense_pointer_terms(model, A, grid, k)
    c, r = A.ar1
    a = r ** np.arange(k, 0, -1)
    assert np.max(np.abs(C - c * np.outer(a, a))) <= 1e-15 * c  # C is rank one
    s = X @ a
    mu = 0.5 * (s.max() + s.min())
    e = -0.5 * np.einsum("pk,pk->p", X, X @ (A.entries[:k, :k] + S)) + 2.0 * X @ (S @ x)
    e += c * mu * (s - mu)
    w = np.exp(e - e.max())
    exact = v.T @ (np.outer(w, w) * np.exp(c * np.outer(s - mu, s - mu))) @ v.conj()
    num = np.zeros_like(exact)
    levels = chain._rank_one_levels(w[:, None] * v, s - mu, c)
    errors, rounding = [], 4.0 * np.finfo(float).eps * np.trace(exact).real
    for depth, (phi, log_tail) in zip(range(9), levels):
        num += np.outer(phi, phi.conj())
        if depth >= 2:
            errors.append(np.sum(np.abs(np.linalg.eigvalsh(exact - num))))
            assert errors[-1] <= np.exp(log_tail) + rounding
    assert errors[0] > 1e-8  # a truncation error well above rounding


def test_uncertified_pointer_levels_fall_back_to_the_pair_sum(monkeypatch):
    # At coupling 10 sigma_z no depth up to DEPTH_CAP is certified: every
    # level is drawn, then the pair sum runs over every history pair.
    _, kernel, n, _ = _POINTER_CASES["sigma-z"]
    model, grid = _qubit_coupled(10.0), nt.TimeGrid(epsilon=0.1, n_steps=n)
    A = nt.build_kernel_matrix(kernel, grid)
    checked, drawn = [], []
    check, levels = chain._check_pairs, chain._rank_one_levels
    monkeypatch.setattr(chain, "_check_pairs", lambda pairs: checked.append(pairs) or check(pairs))
    monkeypatch.setattr(chain, "_rank_one_levels",
                        lambda *args: (drawn.append(level) or level for level in levels(*args)))
    k = n - 3
    x = nt.sample_pointer_prior(A, 1, seed=23)[0].values[:k]
    state = nt.conditional_state_pointer(model, A, grid, 0.1 * k, NoiseRecord(
        window=range(k), values=x, kind="pointer"))
    assert len(drawn) == chain.DEPTH_CAP + 1 and checked == [4 ** k]
    rho, log_weight = _dense_pointer_state(model, A, grid, k, x)
    assert np.max(np.abs(state.rho.matrix - rho)) <= 1e-12
    assert state.log_weight == pytest.approx(log_weight, rel=1e-12)


# ------------------------------------------------- pair exponent (A, M, h)


def _pair_terms(state, monkeypatch):
    """The (A_w, M, h, support) that one chain state hands the pair sum."""
    seen = []
    pair_sum = chain._conditional

    def spying(paths, A_w, M, h, support, rank_one=None):
        seen.append((A_w, M, h, support))
        return pair_sum(paths, A_w, M, h, support, rank_one)

    with monkeypatch.context() as patch:
        patch.setattr(chain, "_conditional", spying)
        state()
    (terms,) = seen
    return terms


def _eight_steps(kernel):
    grid = nt.TimeGrid(epsilon=0.1, n_steps=8)
    kernel = nt.ExponentialKernel(rate=1.0) if kernel == "exponential" else _tab((0.5, 0.2, 0.0))
    return grid, nt.build_kernel_matrix(kernel, grid)


def _check_pair_terms(A_w, M, h, M_expected, h_expected):
    scale = np.max(np.abs(A_w))
    assert np.max(np.abs(M - M_expected)) <= 1e-12 * scale
    assert np.max(np.abs(h - h_expected), initial=0.0) <= 1e-12 * np.max(np.abs(h_expected))
    # A_w - M is PSD, which bounds every pair exponent by the diagonal ones.
    C = A_w - M
    assert np.linalg.eigvalsh(0.5 * (C + C.T))[0] >= -1e-12 * scale


@pytest.mark.parametrize("kernel", ["exponential", "tabulated"])
@pytest.mark.parametrize("delay_steps", [0, 3, 8])
def test_delayed_pair_terms_are_the_closed_form(kernel, delay_steps, default_model, monkeypatch):
    # Read block r and unread block u of the window:
    # M = [[A_rr, A_ru], [A_ur, A_ur A_rr^-1 A_ru]] and h = (z, A_ur A_rr^-1 z);
    # with nothing read, M = 0 and h = 0 bit for bit, as for the reduced state.
    grid, A = _eight_steps(kernel)
    r = 8 - delay_steps
    rec = NoiseRecord(window=range(r), values=np.random.default_rng(5).normal(0.0, 0.1, r))
    A_w, M, h, support = _pair_terms(
        lambda: nt.delayed_state(default_model, A, grid, 0.8, 0.1 * delay_steps, rec), monkeypatch)
    assert np.array_equal(A_w, A.entries)
    assert support == range(r, 8)  # C = A_w - M vanishes off the unread steps
    A_rr, A_ru, A_ur = A_w[:r, :r], A_w[:r, r:], A_w[r:, :r]
    gain = np.linalg.solve(A_rr, np.hstack([A_ru, rec.values[:, None]]))  # A_rr^-1 [A_ru, z]
    M_expected = np.block([[A_rr, A_ru], [A_ur, A_ur @ gain[:, :-1]]])
    _check_pair_terms(A_w, M, h, M_expected, np.concatenate([rec.values, A_ur @ gain[:, -1]]))
    if not r:
        assert not np.any(M) and not np.any(h)


@pytest.mark.parametrize("kernel", ["exponential", "tabulated"])
@pytest.mark.parametrize("steps", [5, 8])
def test_pointer_pair_terms_are_the_closed_form(kernel, steps, default_model, monkeypatch):
    # Unread detectors u past the window w: M = A_ww - A_wu A_uu^-1 A_uw and
    # h = 2 M x; at the grid's end nothing is unread and M = A_ww.
    grid, A = _eight_steps(kernel)
    x = nt.sample_pointer_prior(A, 1, seed=6)[0].values[:steps]
    rec = NoiseRecord(window=range(steps), values=x, kind="pointer")
    A_w, M, h, support = _pair_terms(
        lambda: nt.conditional_state_pointer(default_model, A, grid, 0.1 * steps, rec),
        monkeypatch)
    assert np.array_equal(A_w, A.submatrix(range(steps)))
    # C = A_w - M couples only the window steps A_uw reaches: every one on
    # the exponential kernel, the last one at bandwidth 1, none at the end.
    band = steps if kernel == "exponential" else 1
    assert support == range(steps - band if steps < 8 else steps, steps)
    A_wu, A_uu = A.entries[:steps, steps:], A.entries[steps:, steps:]
    M_expected = A_w - A_wu @ np.linalg.solve(A_uu, A_wu.T) if steps < 8 else A_w
    _check_pair_terms(A_w, M, h, M_expected, 2.0 * M_expected @ x)



# ------------------------------------------------------ grouped pair sum


def _dense_delayed_state(model, A, grid, t, delay, rec):
    """Reference delayed state: every history pair of the window, with the
    dense C = A_w - M, no entry of it assumed zero, and M, h from solves."""
    window, read = grid.window_before(t), grid.window_before(t - delay)
    paths = nt.build_paths(model, grid, window)
    X, v = paths.eigenvalues[paths.histories], paths.amplitudes
    A_w, A_rr, G = A.submatrix(window), A.submatrix(read), A.block(read, window)
    gain = np.linalg.solve(A_rr, np.hstack([G, rec.values[:, None]]))  # A_rr^-1 [G, z]
    M, h = G.T @ gain[:, :-1], G.T @ gain[:, -1]
    e = -0.5 * np.einsum("pk,pk->p", X, X @ (A_w + M)) + X @ h
    E = e[:, None] + e[None, :] + X @ (A_w - M) @ X.T
    shift = np.max(E)
    num = v.T @ np.exp(E - shift) @ v.conj()
    trace = np.trace(num).real
    log_prior = -0.5 * (rec.values @ gain[:, -1] + np.linalg.slogdet(2.0 * np.pi * A_rr)[1])
    return num / trace, np.log(trace) + shift + log_prior


@pytest.mark.parametrize("case", ["exponential", "tab-L1", "tab-L2", "qutrit", "degenerate",
                                  "3-sigma-z"])
def test_grouped_pair_sum_matches_the_dense_pair_sum(case, default_model):
    # Delays of 0, 1 and 2 steps, an interior one and t: the grouped sum over
    # the unread steps against every history pair, at purity 1 for delay 0.
    model, kernel, steps = {
        "exponential": (default_model, nt.ExponentialKernel(rate=1.0), 8),
        "tab-L1": (default_model, _tab((0.5, 0.2, 0.0)), 8),
        "tab-L2": (default_model, _tab((0.5, 0.3, 0.1, 0.0)), 8),
        "qutrit": (_qutrit_setup()[0], nt.ExponentialKernel(rate=1.0), 6),
        "degenerate": (_degenerate_qutrit(), _tab((0.5, 0.3, 0.1, 0.0)), 6),
        "3-sigma-z": (_qubit_coupled(3.0), nt.ExponentialKernel(rate=1.0), 8),
    }[case]
    grid = nt.TimeGrid(epsilon=0.1, n_steps=steps)
    A = nt.build_kernel_matrix(kernel, grid)
    t = grid.n_steps * grid.epsilon
    z = nt.sample_readout_prior(A, 1, seed=13)[0].values
    for delay_steps in (0, 1, 2, steps // 2 + 1, steps):
        rec = NoiseRecord(window=range(steps - delay_steps), values=z[:steps - delay_steps])
        state = nt.delayed_state(model, A, grid, t, delay_steps * grid.epsilon, rec)
        rho, log_weight = _dense_delayed_state(model, A, grid, t, delay_steps * grid.epsilon, rec)
        assert np.max(np.abs(state.rho.matrix - rho)) <= 1e-12
        assert state.log_weight == pytest.approx(log_weight, rel=1e-12)
        if not delay_steps:
            assert state.rho.purity == pytest.approx(1.0, abs=1e-12)


def test_pair_sum_counts_group_pairs(default_model, monkeypatch):
    # m^(2u) group pairs for u unread steps: 1 at delay 0; raw pointers on
    # the exponential kernel sum P (N + 1) for their N + 1 rank-one levels;
    # the reduced state's path-sum route couples every step, so P^2.  The
    # reduced route's walk first checks its running sum of P_k^2.
    checked, drawn = [], []
    check, levels = chain._check_pairs, chain._rank_one_levels

    def counting(pairs):
        checked.append(pairs)
        check(pairs)

    monkeypatch.setattr(chain, "_check_pairs", counting)
    monkeypatch.setattr(chain, "_rank_one_levels",
                        lambda *args: (drawn.append(level) or level for level in levels(*args)))
    grid, A = _eight_steps("exponential")
    z = nt.sample_readout_prior(A, 1, seed=14)[0].values
    qutrit, grid6, A6 = _qutrit_setup()
    for model, grid_m, A_m, m in ((default_model, grid, A, 2), (qutrit, grid6, A6, 3)):
        n = grid_m.n_steps
        for u in (0, 1, 2, n):
            checked.clear()
            rec = NoiseRecord(window=range(n - u), values=z[:n - u])
            nt.delayed_state(model, A_m, grid_m, 0.1 * n, 0.1 * u, rec)
            assert checked == [m ** (2 * u)]
    checked.clear()
    x = nt.sample_pointer_prior(A, 1, seed=14)[0].values[:6]
    nt.conditional_state_pointer(default_model, A, grid, 0.6,
                                 NoiseRecord(window=range(6), values=x, kind="pointer"))
    assert checked == [2 ** 6 * len(drawn)] and len(drawn) < 2 ** 6
    checked.clear()
    _path_sum(default_model, A, grid, monkeypatch)
    assert checked == [sum(4 ** j for j in range(1, k + 1)) for k in range(1, 9)] + [
        4 ** k for k in range(1, 9)]

def test_dephasing_readout_populations_on_a_long_grid():
    # A dephasing qubit from |+> has two histories, all +1 and all -1, with
    # equal amplitudes; at delay 0, h = z, so rho_00 = 1 / (1 + exp(-4 sum z))
    # whatever M.  The 120-step exponential kernel has condition number 1.7e4,
    # and the pair sum's precision solves must not amplify that into the state.
    model = nt.dephasing_qubit(omega=0.7)
    grid = nt.TimeGrid(epsilon=0.01, n_steps=120)
    A = nt.build_kernel_matrix(nt.ExponentialKernel(rate=1.0), grid)
    for rec in nt.sample_readout_prior(A, 6, seed=7):
        state = nt.delayed_state(model, A, grid, 1.2, 0.0, rec)
        expected = 1.0 / (1.0 + np.exp(-4.0 * np.sum(rec.values)))
        assert abs(state.rho.matrix[0, 0].real - expected) <= 5e-15
    # Raw pointers read to t = 0.96 have h = 2Sx, so rho_00 = 1 / (1 + exp(-8 sum Sx)),
    # S the Schur complement of the 24 unread steps, here eliminated in long double.
    S = A.entries.astype(np.longdouble)
    for j in range(119, 95, -1):
        S = S[:j, :j] - np.outer(S[:j, j], S[j, :j]) / S[j, j]
    for seed in (7, 8, 9):
        x = nt.sample_pointer_prior(A, 1, seed=seed)[0].values[:96]
        state = nt.conditional_state_pointer(model, A, grid, 0.96,
                                             NoiseRecord(range(96), x, kind="pointer"))
        expected = float(1.0 / (1.0 + np.exp(-8.0 * np.sum(S @ x))))
        assert abs(state.rho.matrix[0, 0].real - expected) <= 1e-15


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
    prior = nt.readout_prior(A.restrict(window))
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
    exact = nt.reduced_states(default_model, A, grid, t)[-1]
    assert nt.trace_distance(averaged, exact) <= 1e-10
    assert total == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("steps", [2, 3])
def test_pointer_unraveling_by_quadrature(default_model, steps):
    grid = nt.TimeGrid(epsilon=0.1, n_steps=steps + 2)
    A = nt.build_kernel_matrix(nt.ExponentialKernel(rate=1.0), grid)
    t = 0.1 * steps
    window = grid.window_before(t)
    marginal = _pointer_reference(A, window)
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
    exact = nt.reduced_states(default_model, A, grid, t)[-1]
    assert nt.trace_distance(averaged, exact) <= 1e-10
    assert total == pytest.approx(1.0, abs=1e-10)


# ----------------------------------------------------------- delayed


def test_delayed_state_full_delay_reduces_to_reduced(default_model, A8, grid8):
    rec = NoiseRecord(window=range(0, 0), values=np.zeros(0))
    delayed = nt.delayed_state(default_model, A8, grid8, 0.8, 0.8, rec)
    exact = nt.reduced_states(default_model, A8, grid8, 0.8)[-1]
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
    records = nt.sample_readout_prior(A.restrict(read), 50, seed=31)
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
    rec = nt.sample_readout_prior(A8.restrict(read), 1, seed=12)[0]
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


@dataclass(frozen=True)
class SingleDetector:
    """One Gaussian pointer, centered at zero: width of the initial density."""

    sigma: float

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")


def vn_measure(detector, model, tau, rho0, readout):
    """One impulsive pointer measurement of the coupling observable at time
    tau (Heisenberg picture), given the pointer's initial Gaussian: the
    single-detector oracle of the one-step chain.

    Returns the conditioned state and the readout probability density, a
    mixture of the pointer Gaussian centered on each eigenvalue.
    """
    eig = nt.eigendecompose_coupling(model)
    U = nt.free_step(model, tau)
    projectors = np.stack([U.conj().T @ P @ U for P in eig.projectors])
    var = detector.sigma ** 2
    # Pointer wave-function overlaps: exp(-((x-Xa)^2 + (x-Xb)^2) / (4 var)).
    expo = -((readout - eig.eigenvalues) ** 2) / (4.0 * var)
    expo = expo - np.max(expo)
    amp = np.exp(expo)
    num = np.einsum("a,b,aij,jk,bkl->il", amp, amp, projectors, rho0.matrix, projectors)
    probs = np.array([np.trace(P @ rho0.matrix).real for P in projectors])
    density = float(np.sum(probs * np.exp(-((readout - eig.eigenvalues) ** 2) / (2.0 * var)))
                    / np.sqrt(2.0 * np.pi * var))
    return DensityOperator.from_matrix(num), density


def pointer_width_for(A):
    """Width of the equivalent single detector for a one-step window."""
    if A.size != 1:
        raise ValueError("pointer width shortcut requires a one-step window")
    return float(0.5 / np.sqrt(A.entries[0, 0]))


def test_vn_measure_eigenstate_shifts_pointer_only(default_model):
    detector = SingleDetector(sigma=0.5)
    rho0 = DensityOperator.from_state(np.array([1.0, 0.0]))
    # Coupling eigenvalue +1; measure at time zero so the frame is trivial.
    for x in (0.0, 0.4, 1.3):
        rho_x, p = vn_measure(detector, default_model, 0.0, rho0, x)
        assert nt.trace_distance(rho_x, rho0) <= 1e-12
        expected = np.exp(-(x - 1.0) ** 2 / 0.5) / np.sqrt(2 * np.pi * 0.25)
        assert p == pytest.approx(expected, rel=1e-12)


def test_vn_measure_mixture_and_normalization(default_model):
    detector = SingleDetector(sigma=0.8)
    rho0 = DensityOperator.from_state(_plus())
    xs = np.linspace(-3, 3, 7)
    for x in xs:
        _, p = vn_measure(detector, default_model, 0.0, rho0, x)
        mix = 0.5 * (np.exp(-(x - 1) ** 2 / (2 * 0.64)) + np.exp(-(x + 1) ** 2 / (2 * 0.64)))
        assert p == pytest.approx(mix / np.sqrt(2 * np.pi * 0.64), rel=1e-12)
    total, _ = integrate.quad(
        lambda x: vn_measure(detector, default_model, 0.0, rho0, x)[1], -12, 12,
        limit=200)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_vn_measure_projective_limit(default_model):
    detector = SingleDetector(sigma=1e-3)
    rho0 = DensityOperator.from_state(_plus())
    rho_x, _ = vn_measure(detector, default_model, 0.0, rho0, 1.0)
    collapsed = DensityOperator.from_state(np.array([1.0, 0.0]))
    assert nt.trace_distance(rho_x, collapsed) <= 1e-10


def test_single_detector_validation():
    with pytest.raises(ValueError):
        SingleDetector(sigma=0.0)
