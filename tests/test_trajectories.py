import numpy as np
import pytest

import nmtraj as nt
from nmtraj import DensityOperator, NoiseRecord
from nmtraj.errors import DegenerateState, DegenerateWeights, PathBudgetExceeded
from nmtraj.kernels import KernelMatrix


def _h0_dephasing():
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    return nt.ModelSpec(dim=2, hamiltonian=np.zeros((2, 2)), coupling=nt.sigma_z(),
                        initial_state=plus)


def test_solve_zero_coupling_is_free_evolution(zero_coupling_model, A8, grid8):
    rec = nt.sample_readout_prior(A8, 1, seed=1)[0]
    traj = nt.solve_unnormalized(zero_coupling_model, A8, grid8, 0.8, rec)
    U = nt.free_step(zero_coupling_model, 0.1)
    psi = zero_coupling_model.initial_state.copy()
    for k in range(8):
        psi = U @ psi
        assert np.max(np.abs(traj.states[k + 1] - psi)) <= 1e-12
    assert np.allclose(traj.norms, 1.0, atol=1e-12)


def test_solve_dephasing_closed_form(A8, grid8):
    # Commuting case: each eigenbranch carries exp(sum z_k X - X^2 sum A).
    model = _h0_dephasing()
    rec = nt.sample_readout_prior(A8, 1, seed=2)[0]
    traj = nt.solve_unnormalized(model, A8, grid8, 0.8, rec)
    z = rec.values
    total_A = float(np.sum(A8.entries))
    up = np.exp(np.sum(z) - total_A) / np.sqrt(2.0)
    dn = np.exp(-np.sum(z) - total_A) / np.sqrt(2.0)
    assert traj.final_state[0] == pytest.approx(up, rel=1e-12)
    assert traj.final_state[1] == pytest.approx(dn, rel=1e-12)


def test_trajectory_invariants(default_model, A8, grid8):
    rec = nt.sample_readout_prior(A8, 1, seed=3)[0]
    traj = nt.solve_unnormalized(default_model, A8, grid8, 0.8, rec)
    assert np.array_equal(traj.states[0], default_model.initial_state)
    assert np.all(traj.norms > 0)
    assert abs(np.linalg.norm(traj.normalized_final_state) - 1.0) <= 1e-12


def test_solve_matches_chain_readout_states(default_model, A8, grid8):
    for rec in nt.sample_readout_prior(A8, 10, seed=4):
        traj = nt.solve_unnormalized(default_model, A8, grid8, 0.8, rec)
        rho_psi = DensityOperator.from_state(traj.normalized_final_state)
        cond = nt.delayed_state(default_model, A8, grid8, 0.8, 0.0, rec)
        assert nt.trace_distance(cond.rho, rho_psi) <= 1e-10
        assert abs(cond.log_weight - nt.readout_pdf(traj, A8)) <= 1e-10


def test_solve_budget(default_model):
    grid = nt.TimeGrid(epsilon=0.1, n_steps=10)
    A = nt.build_kernel_matrix(nt.ExponentialKernel(rate=1.0), grid)
    rec = NoiseRecord(window=grid.full_window, values=np.zeros(10))
    with pytest.raises(PathBudgetExceeded):
        nt.solve_unnormalized(default_model, A, grid, 1.0, rec, path_budget=64)


def test_readout_pdf_zero_coupling(zero_coupling_model, A8, grid8):
    rec = nt.sample_readout_prior(A8, 1, seed=5)[0]
    traj = nt.solve_unnormalized(zero_coupling_model, A8, grid8, 0.8, rec)
    assert nt.readout_pdf(traj, A8) == pytest.approx(
        nt.readout_prior(A8).logpdf(rec.values), abs=1e-12)


def test_readout_pdf_single_step_closed_form():
    model = _h0_dephasing()
    grid = nt.TimeGrid(epsilon=0.1, n_steps=1)
    A = nt.build_kernel_matrix(nt.ExponentialKernel(rate=1.0), grid)
    a = A.entries[0, 0]
    z = -0.23
    rec = NoiseRecord(window=range(0, 1), values=[z])
    traj = nt.solve_unnormalized(model, A, grid, 0.1, rec)
    prior = np.exp(-z ** 2 / (2 * a)) / np.sqrt(2 * np.pi * a)
    norm_sq = 0.5 * (np.exp(2 * z - 2 * a) + np.exp(-2 * z - 2 * a))
    assert nt.readout_pdf(traj, A) == pytest.approx(np.log(prior * norm_sq), abs=1e-12)


def test_readout_normalization_monte_carlo(default_model, A8, grid8):
    # E over the prior of |Psi|^2 is 1: the readout density is normalized.
    est = nt.ensemble_average(default_model, A8, grid8, 0.8, n_samples=20000, seed=6)
    w = est.sample_weights
    se = w.std() / np.sqrt(len(w))
    assert abs(w.mean() - 1.0) <= 4 * se


# ---------------------------------------------------------------- ensemble


def test_ensemble_zero_coupling_exact(zero_coupling_model, A8, grid8):
    est = nt.ensemble_average(zero_coupling_model, A8, grid8, 0.8,
                              n_samples=500, seed=7)
    assert np.allclose(est.sample_weights, 1.0, atol=1e-12)
    U = np.linalg.matrix_power(nt.free_step(zero_coupling_model, 0.1), 8)
    expected = DensityOperator.from_state(U @ zero_coupling_model.initial_state)
    assert nt.trace_distance(est.rho, expected) <= 1e-12


def test_ensemble_dephasing_matches_closed_form(A8, grid8):
    model = _h0_dephasing()
    est = nt.ensemble_average(model, A8, grid8, 0.8, n_samples=20000, seed=8)
    expected = 0.5 * np.exp(-2.0 * np.sum(A8.entries))
    dev = abs(est.rho.matrix[0, 1].real - expected)
    assert dev <= 3.0 * est.rho_se[0, 1]


def test_ensemble_noncommuting_matches_path_sum(default_model, A8, grid8):
    est = nt.ensemble_average(default_model, A8, grid8, 0.8, n_samples=20000, seed=9)
    exact = nt.reduced_state(default_model, A8, grid8, 0.8)
    assert nt.trace_distance(est.rho, exact) <= 3.0 * est.pooled_rho_se
    assert est.rho.trace == pytest.approx(1.0, abs=1e-12)


def test_ensemble_requires_minimum_samples(default_model, A8, grid8):
    with pytest.raises(ValueError):
        nt.ensemble_average(default_model, A8, grid8, 0.8, n_samples=50, seed=1)


def test_ensemble_degenerate_weights():
    # A huge kernel scale makes |Psi|^2 wildly dispersed and collapses the
    # effective sample size.
    model = _h0_dephasing()
    grid = nt.TimeGrid(epsilon=1.0, n_steps=2)
    A = KernelMatrix(window=range(0, 2), entries=50.0 * np.eye(2) + 10.0)
    with pytest.raises(DegenerateWeights):
        nt.ensemble_average(model, A, grid, 2.0, n_samples=100, seed=10)


def test_ensemble_seed_reproducibility(default_model, A8, grid8):
    a = nt.ensemble_average(default_model, A8, grid8, 0.8, n_samples=500, seed=11)
    b = nt.ensemble_average(default_model, A8, grid8, 0.8, n_samples=500, seed=11)
    assert np.array_equal(a.sample_weights, b.sample_weights)
    assert np.array_equal(a.rho.matrix, b.rho.matrix)


@pytest.mark.parametrize("steps", [11, 13])
def test_ensemble_memory_is_bounded_by_the_weight_block(default_model, steps):
    # 2000 samples over 2^11 or 2^13 paths: whole sample x path arrays would
    # take 31 or 125 MiB apiece; the evaluator's blocks hold 2^20 weights.
    import tracemalloc
    grid = nt.TimeGrid(epsilon=0.1, n_steps=steps)
    A = nt.build_kernel_matrix(nt.ExponentialKernel(rate=1.0), grid)
    tracemalloc.start()
    try:
        nt.ensemble_average(default_model, A, grid, steps * 0.1, n_samples=2000, seed=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


# ------------------------------------------------------------ mean readout


def test_mean_readout_zero_coupling(zero_coupling_model, A8, grid8):
    est = nt.ensemble_average(zero_coupling_model, A8, grid8, 0.8,
                              n_samples=2000, seed=12)
    cmp = est.mean_readout
    assert cmp.predicted == 0.0
    assert abs(cmp.estimated) <= 3.0 * cmp.estimated_se
    assert cmp.sigma_units <= 3.0


def test_mean_readout_dephasing_frozen_expectation(A8, grid8):
    # Initial coupling eigenstate: the conditional expectation stays +1, so
    # the predicted side is exactly twice the final kernel row sum.
    model = nt.ModelSpec(dim=2, hamiltonian=np.zeros((2, 2)), coupling=nt.sigma_z(),
                         initial_state=np.array([1.0, 0.0], dtype=complex))
    est = nt.ensemble_average(model, A8, grid8, 0.8, n_samples=20000, seed=13)
    cmp = est.mean_readout
    expected = 2.0 * float(np.sum(A8.entries[-1, :]))
    assert cmp.predicted == pytest.approx(expected, abs=1e-12)
    assert cmp.sigma_units <= 3.0


def test_mean_readout_noncommuting_two_sided(default_model, A8, grid8):
    est = nt.ensemble_average(default_model, A8, grid8, 0.8, n_samples=50000, seed=14)
    cmp = est.mean_readout
    assert cmp.sigma_units <= 3.0


# ------------------------------------------------------- retarded readout


def test_retarded_single_step():
    model = _h0_dephasing()
    grid = nt.TimeGrid(epsilon=0.1, n_steps=1)
    A = nt.build_kernel_matrix(nt.ExponentialKernel(rate=1.0), grid)
    rec = NoiseRecord(window=range(0, 1), values=[0.3])
    traj = nt.solve_unnormalized(model, A, grid, 0.1, rec)
    expected = 2.0 * A.entries[0, 0] * traj.cond_expectations[0]
    assert traj.retarded[-1] == pytest.approx(expected, rel=1e-12)


def test_retarded_eigenstate_constant_history(A8, grid8):
    model = nt.ModelSpec(dim=2, hamiltonian=np.zeros((2, 2)), coupling=nt.sigma_z(),
                         initial_state=np.array([1.0, 0.0], dtype=complex))
    rec = nt.sample_readout_prior(A8, 1, seed=15)[0]
    traj = nt.solve_unnormalized(model, A8, grid8, 0.8, rec)
    assert np.allclose(traj.cond_expectations, 1.0, atol=1e-12)
    expected = 2.0 * float(np.sum(A8.entries[-1, :]))
    assert traj.retarded[-1] == pytest.approx(expected, rel=1e-12)


def test_retarded_exponential_quadratures_agree_to_first_order():
    # The kernel-row sum is (eps times) a left-endpoint rule for the
    # exponentially weighted integral of the conditional expectations; the
    # gap to an independent trapezoid rule shrinks linearly with the step.
    model = nt.dephasing_qubit(omega=0.9)
    rate, t = 1.0, 0.8

    def gap(eps):
        n = int(round(t / eps))
        grid = nt.TimeGrid(epsilon=eps, n_steps=n)
        A = nt.build_kernel_matrix(nt.ExponentialKernel(rate=rate), grid)
        values = eps * 0.2 * np.cos(3.0 * grid.times)
        rec = NoiseRecord(window=grid.full_window, values=values)
        traj = nt.solve_unnormalized(model, A, grid, t, rec)
        discrete = traj.retarded[-1] / eps
        s = grid.times
        integrand = rate * np.exp(-rate * (t - eps - s)) * traj.cond_expectations
        trapezoid = np.trapezoid(integrand, dx=eps)
        return abs(discrete - trapezoid)

    g1, g2 = gap(0.1), gap(0.05)
    assert g1 / g2 == pytest.approx(2.0, abs=0.6)


def _retarded_cases(default_model, A8, grid8):
    tab_grid = nt.TimeGrid(epsilon=0.05, n_steps=10)
    tab_kernel = nt.TabulatedKernel(lags=(0.0, 0.05, 0.1), values=(0.5, 0.2, 0.0))
    return {
        "default": (default_model, A8, grid8),
        "dephasing": (nt.dephasing_qubit(omega=0.7), A8, grid8),
        "tabulated": (default_model, nt.build_kernel_matrix(tab_kernel, tab_grid), tab_grid),
    }


@pytest.mark.parametrize("case", ["default", "dephasing", "tabulated"])
def test_one_pass_retarded_matches_prefix_solves(case, default_model, A8, grid8):
    model, A, grid = _retarded_cases(default_model, A8, grid8)[case]
    n = grid.n_steps
    for rec in nt.sample_readout_prior(A, 3, seed=18):
        traj = nt.solve_unnormalized(model, A, grid, n * grid.epsilon, rec)
        assert traj.retarded.shape == (n,)
        for k in range(1, n + 1):
            sub = NoiseRecord(window=range(0, k), values=rec.values[:k])
            prefix = nt.solve_unnormalized(model, A, grid, k * grid.epsilon, sub)
            assert np.array_equal(prefix.states, traj.states[: k + 1])
            expected = prefix.retarded[-1]
            assert traj.retarded[k - 1] == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_one_pass_retarded_matches_readout_derivatives(default_model, A8, grid8):
    # Independent route: conditional expectations from the chain's path
    # enumeration and the exact readout derivatives of each prefix.
    rec = nt.sample_readout_prior(A8, 1, seed=19)[0]
    traj = nt.solve_unnormalized(default_model, A8, grid8, 0.8, rec)
    for k in range(1, 9):
        sub = NoiseRecord(window=range(0, k), values=rec.values[:k])
        derivs = nt.readout_derivatives(default_model, A8, grid8, k * 0.1, sub)
        psi = traj.states[k]
        cond = (derivs @ psi.conj()).real / np.vdot(psi, psi).real
        row = A8.entries[k - 1, :k]
        scale = 2.0 * np.sum(np.abs(row))
        assert abs(traj.retarded[k - 1] - 2.0 * row @ cond) <= 1e-13 * scale


@pytest.mark.parametrize("value", [1e308, 1e4, -1e4])
def test_solve_out_of_range_record_raises_degenerate_state(default_model, A8, grid8, value):
    rec = NoiseRecord(window=grid8.full_window, values=np.full(8, value))
    with pytest.raises(DegenerateState, match="norm overflowed or vanished"):
        nt.solve_unnormalized(default_model, A8, grid8, 0.8, rec)
    assert issubclass(DegenerateState, ValueError)


# ------------------------------------------------------------- residuals


def test_residual_zero_coupling(zero_coupling_model, A8, grid8):
    rec = NoiseRecord(window=grid8.full_window, values=np.zeros(8))
    # In the interaction frame the free dynamics drops out entirely.
    assert nt.residual_check(zero_coupling_model, A8, grid8, rec, 4) <= 1e-10


def test_residual_first_order_convergence():
    model = nt.dephasing_qubit(omega=0.7)
    t_total, t_at = 0.8, 0.4
    residuals = []
    for eps in (0.1, 0.05):
        n = int(round(t_total / eps))
        grid = nt.TimeGrid(epsilon=eps, n_steps=n)
        A = nt.build_kernel_matrix(nt.ExponentialKernel(rate=1.0), grid)
        values = eps * 0.3 * np.cos(2.0 * grid.times)
        rec = NoiseRecord(window=grid.full_window, values=values)
        residuals.append(nt.residual_check(model, A, grid, rec, int(round(t_at / eps))))
    slope = np.log2(residuals[0] / residuals[1])
    assert 0.8 <= slope <= 1.2


def test_residual_index_validation(default_model, A8, grid8):
    rec = NoiseRecord(window=grid8.full_window, values=np.zeros(8))
    with pytest.raises(ValueError):
        nt.residual_check(default_model, A8, grid8, rec, 0)
    with pytest.raises(ValueError):
        nt.residual_check(default_model, A8, grid8, rec, 8)


def test_readout_derivatives_match_finite_differences(default_model, A8, grid8):
    rec = nt.sample_readout_prior(A8, 1, seed=17)[0]
    derivs = nt.readout_derivatives(default_model, A8, grid8, 0.8, rec)
    h = 1e-5
    for j in range(8):
        vp, vm = rec.values.copy(), rec.values.copy()
        vp[j] += h
        vm[j] -= h
        tp = nt.solve_unnormalized(default_model, A8, grid8, 0.8,
                                   NoiseRecord(window=grid8.full_window, values=vp))
        tm = nt.solve_unnormalized(default_model, A8, grid8, 0.8,
                                   NoiseRecord(window=grid8.full_window, values=vm))
        fd = (tp.final_state - tm.final_state) / (2 * h)
        assert np.linalg.norm(fd - derivs[j]) <= 1e-8
