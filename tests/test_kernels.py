import numpy as np
import pytest

import nmtraj as nt
from nmtraj import KernelMatrix, kernels
from nmtraj.errors import ConfigError, NotPositiveDefinite, SingularWindow
from nmtraj.noise import GaussianDensity


def test_grid_validation():
    with pytest.raises(ValueError):
        nt.TimeGrid(epsilon=0.0, n_steps=4)
    with pytest.raises(ValueError):
        nt.TimeGrid(epsilon=0.1, n_steps=0)
    grid = nt.TimeGrid(epsilon=0.1, n_steps=5)
    assert np.allclose(grid.times, [0.0, 0.1, 0.2, 0.3, 0.4])
    assert grid.window_before(0.3) == range(0, 3)
    with pytest.raises(ValueError):
        grid.steps_of(0.35)
    with pytest.raises(ValueError):
        grid.steps_of(0.8)


def test_off_grid_times_are_refused_in_steps():
    # 5.4 and 3.3 steps of a 1e-12 grid; an absolute time tolerance took them.
    grid = nt.TimeGrid(epsilon=1e-12, n_steps=10)
    with pytest.raises(ValueError, match="not a multiple of epsilon"):
        grid.steps_of(5.4e-12)
    with pytest.raises(ValueError, match="not a multiple of epsilon"):
        grid.window_before(3.3e-12)
    # The times the CLI passes: the run length eps * n and t - delay, with
    # the delay as a product and as its decimal.
    for eps in (0.1, 0.01):
        for n in range(1, 301):
            grid = nt.TimeGrid(epsilon=eps, n_steps=n)
            t = eps * n
            assert grid.steps_of(t) == n
            for d in range(n):
                for delay in (d * eps, round(d * eps, 10)):
                    assert grid.window_before(t - delay) == range(0, n - d)


def _tabled(values):
    return nt.TabulatedKernel(lags=tuple(0.1 * np.arange(len(values))), values=tuple(values))


@pytest.mark.parametrize("kernel", [
    nt.ExponentialKernel(rate=1e-3), nt.ExponentialKernel(rate=1.0),
    nt.ExponentialKernel(rate=37.0), _tabled((1.0, 0.0, 0.3)), _tabled((1.0, 0.5, 0.0)),
    nt.MarkovDeltaKernel(g=1.3)],
    ids=["exp-1e-3", "exp-1", "exp-37", "tab-interior-zero", "tab-last-zero", "markov"])
@pytest.mark.parametrize("n", [1, 2, 11, 120])
def test_column_gathers_the_dense_matrix(kernel, n):
    # The dense eps^2 alpha(eps |i - j|), evaluated entry by entry.
    eps = 0.1
    lag = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    if kernel.kind == "markov":
        dense = eps * kernel.g ** 2 * np.eye(n)
    else:
        dense = eps ** 2 * kernel.alpha(eps * lag)
    A = nt.build_kernel_matrix(kernel, nt.TimeGrid(epsilon=eps, n_steps=n))
    assert A.column.shape == (n,)
    assert A.entries.tobytes() == dense.tobytes()
    assert A.block(range(0, n), range(0, n)).tobytes() == dense.tobytes()
    assert A.bandwidth == int(np.max(lag[dense != 0.0], initial=0))


@pytest.mark.parametrize("kernel", [nt.ExponentialKernel(rate=1.0), nt.MarkovDeltaKernel(g=1.0)])
def test_kernel_build_allocates_no_dense_matrix(kernel):
    # A 4000-step dense matrix is 122 MiB; its column is 31 KiB.
    import tracemalloc

    tracemalloc.start()
    try:
        A = nt.build_kernel_matrix(kernel, nt.TimeGrid(epsilon=0.01, n_steps=4000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert A.size == 4000
    assert peak < 2 ** 20


def test_exponential_diagonal_normalization():
    # rate 2 makes alpha(0) = 1 exactly.
    grid = nt.TimeGrid(epsilon=0.2, n_steps=3)
    A = nt.build_kernel_matrix(nt.ExponentialKernel(rate=2.0), grid)
    assert np.allclose(np.diag(A.entries), 0.2 ** 2)


def test_markov_delta_is_scaled_identity():
    grid = nt.TimeGrid(epsilon=0.1, n_steps=4)
    A = nt.build_kernel_matrix(nt.MarkovDeltaKernel(g=1.0), grid)
    assert np.array_equal(A.entries, 0.1 * np.eye(4))


def test_exponential_entries_match_scalar_evaluation():
    # Independent per-lag scalar evaluation of (rate/2) exp(-rate |lag|).
    eps, rate = 0.5, 1.0
    grid = nt.TimeGrid(epsilon=eps, n_steps=3)
    A = nt.build_kernel_matrix(nt.ExponentialKernel(rate=rate), grid)
    for i in range(3):
        for j in range(3):
            lag = abs(i - j) * eps
            expected = eps ** 2 * 0.5 * rate * np.exp(-rate * lag)
            assert A.entries[i, j] == pytest.approx(expected, abs=0.0, rel=1e-15)
    # entries / eps^2 follow the per-lag kernel values 0.5 e^{-lag}
    assert A.entries[0, 1] / eps ** 2 == pytest.approx(0.5 * np.exp(-0.5), rel=1e-15)
    assert A.entries[0, 2] / eps ** 2 == pytest.approx(0.5 * np.exp(-1.0), rel=1e-15)


def test_symmetry_and_toeplitz_exact():
    grid = nt.TimeGrid(epsilon=0.37, n_steps=6)
    A = nt.build_kernel_matrix(nt.ExponentialKernel(rate=1.7), grid)
    assert np.array_equal(A.entries, A.entries.T)
    for lag in range(6):
        diag = np.diagonal(A.entries, offset=lag)
        assert np.all(diag == diag[0])


def test_exponential_entries_decay_with_lag():
    grid = nt.TimeGrid(epsilon=0.2, n_steps=8)
    A = nt.build_kernel_matrix(nt.ExponentialKernel(rate=1.5), grid)
    first_row = A.entries[0]
    assert np.all(np.diff(first_row) < 0)


def test_exponential_entries_past_the_float_range_decay_to_zero():
    # rate * lag reaches 3.4e308 at the largest lag: exp(-inf), with no
    # overflow warning (which this suite turns into an exception).
    A = nt.build_kernel_matrix(nt.ExponentialKernel(rate=1.7e308),
                               nt.TimeGrid(epsilon=0.01, n_steps=200))
    assert np.array_equal(A.entries, A.entries[0, 0] * np.eye(200))


@pytest.mark.parametrize("kernel, eps", [
    (nt.MarkovDeltaKernel(g=1e200), 0.1),
    (nt.TabulatedKernel(lags=(0.0,), values=(1e308,)), 10.0),
    (nt.ExponentialKernel(rate=1.0), 1e200),
], ids=["markov-g", "tabulated-value", "exponential-epsilon"])
def test_kernel_entries_past_the_float_range_are_a_config_error(kernel, eps):
    # Library callers get the typed error too: no OverflowError from g ** 2
    # and no overflow warning (which this suite turns into an exception).
    with pytest.raises(ConfigError, match="^kernel: expected kernel-matrix entries"):
        nt.build_kernel_matrix(kernel, nt.TimeGrid(epsilon=eps, n_steps=2))


def test_tabulated_kernel_matches_exponential_at_nodes():
    eps, rate, n = 0.1, 1.3, 5
    lags = tuple(eps * k for k in range(n))
    values = tuple(0.5 * rate * np.exp(-rate * lag) for lag in lags)
    grid = nt.TimeGrid(epsilon=eps, n_steps=n)
    A_tab = nt.build_kernel_matrix(nt.TabulatedKernel(lags=lags, values=values), grid)
    A_exp = nt.build_kernel_matrix(nt.ExponentialKernel(rate=rate), grid)
    assert np.allclose(A_tab.entries, A_exp.entries, atol=1e-15)


def test_invalid_tabulated_kernel_raises():
    grid = nt.TimeGrid(epsilon=0.1, n_steps=4)
    bad = nt.TabulatedKernel(lags=(0.0, 0.1, 0.2), values=(1.0, -1.2, 0.5))
    with pytest.raises(NotPositiveDefinite):
        nt.build_kernel_matrix(bad, grid)


def _refuse_dense_check(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense eigvalsh called")
    monkeypatch.setattr(kernels.np.linalg, "eigvalsh", refuse)


@pytest.mark.parametrize("kernel", [nt.ExponentialKernel(rate=1.0), nt.ExponentialKernel(rate=1e-3),
                                    nt.ExponentialKernel(rate=1e3), nt.MarkovDeltaKernel(g=0.7)])
def test_closed_form_kernels_skip_the_dense_check(monkeypatch, kernel):
    # Markov and exponential matrices are PSD in closed form
    # (kernels._ar1_is_psd); a tabulated one still takes the dense check.
    _refuse_dense_check(monkeypatch)
    for eps, n in ((0.1, 1), (0.1, 12), (0.01, 300)):
        A = nt.build_kernel_matrix(kernel, nt.TimeGrid(epsilon=eps, n_steps=n))
        assert A.entries.shape == (n, n)
    table = nt.TabulatedKernel(lags=(0.0, 0.1, 0.2), values=(1.0, 0.5, 0.0))
    with pytest.raises(AssertionError, match="dense eigvalsh called"):
        nt.build_kernel_matrix(table, nt.TimeGrid(epsilon=0.1, n_steps=12))


@pytest.mark.parametrize("eps", [0.01, 0.1])
def test_exponential_matrices_pass_the_dense_check(eps):
    # The closed form skips only what the dense check would pass.
    for rate in 10.0 ** np.arange(-3, 4):
        for n in (2, 17, 120, 400):
            A = nt.build_kernel_matrix(nt.ExponentialKernel(rate=rate),
                                       nt.TimeGrid(epsilon=eps, n_steps=n))
            assert kernels._ar1_is_psd(A.ar1[0], rate)
            eigs = np.linalg.eigvalsh(A.entries)
            assert eigs[0] >= -kernels.PSD_RTOL * np.max(np.abs(eigs))


def test_tabulated_validation():
    with pytest.raises(ValueError):
        nt.TabulatedKernel(lags=(0.1, 0.1), values=(1.0, 1.0))
    with pytest.raises(ValueError):
        nt.TabulatedKernel(lags=(-0.1, 0.1), values=(1.0, 1.0))
    with pytest.raises(ValueError):
        nt.TabulatedKernel(lags=(0.0,), values=(1.0, 2.0))


def _precision(entries) -> np.ndarray:
    """Window precision (restricted inverse) of a covariance through its density."""
    entries = np.asarray(entries, dtype=float)
    density = GaussianDensity(window=range(0, entries.shape[0]), covariance=entries)
    return density.precision_apply(np.eye(entries.shape[0]))


class _UnitDraws:
    """Generator stand-in whose (n, n) normal draws are the identity, so a
    zero-mean GaussianDensity.sample(n, ...) returns the transposed factor."""

    def standard_normal(self, shape):
        return np.eye(*shape)


def _factor(entries) -> np.ndarray:
    entries = np.asarray(entries, dtype=float)
    n = entries.shape[0]
    density = GaussianDensity(window=range(0, n), covariance=entries)
    return density.sample(n, _UnitDraws()).T


def test_restricted_inverse_diagonal():
    assert np.allclose(_precision(2.5 * np.eye(3)), np.eye(3) / 2.5, atol=1e-15)


def test_restricted_inverse_two_by_two_closed_form():
    a, b = 1.0, 0.6
    entries = np.array([[a, b], [b, a]])
    inv = _precision(entries)
    closed = np.array([[a, -b], [-b, a]]) / (a ** 2 - b ** 2)
    assert np.allclose(inv, closed, atol=1e-14)
    # Independent route: a linear solve.
    assert np.allclose(inv, np.linalg.solve(entries, np.eye(2)), atol=1e-14)


def test_restricted_inverse_full_window_equals_full_inverse(A8):
    full = nt.readout_prior(A8).precision_apply(np.eye(8))
    sub = nt.readout_prior(A8).marginal(range(0, 8)).precision_apply(np.eye(8))
    assert np.array_equal(full, sub)


def test_restricted_inverse_residual(A8):
    for window in (range(0, 3), range(2, 7), range(0, 8)):
        eye = np.eye(len(window))
        inv = nt.readout_prior(A8).marginal(window).precision_apply(eye)
        assert np.max(np.abs(A8.submatrix(window) @ inv - eye)) <= 1e-10


def test_restricted_inverse_singular_window(default_model):
    # Read over the full window, the pointer state factors A itself.
    column = np.array([1.0, 1.0 - 1e-15])  # [[1, 1 - 1e-15], [1 - 1e-15, 1]]
    grid = nt.TimeGrid(epsilon=0.1, n_steps=2)
    record = nt.NoiseRecord(window=range(0, 2), values=[0.1, -0.2], kind="pointer")
    with pytest.raises(SingularWindow, match="condition number"):
        nt.conditional_state_pointer(default_model, KernelMatrix(window=range(0, 2), column=column),
                                     grid, 0.2, record)


def test_cholesky_identity():
    assert np.allclose(_factor(np.eye(3)), np.eye(3), atol=1e-15)


def test_cholesky_known_factor():
    entries = np.array([[4.0, 2.0], [2.0, 5.0]])
    L = _factor(entries)
    assert np.allclose(L, [[2.0, 0.0], [1.0, 2.0]], atol=1e-14)
    assert np.allclose(L @ L.T, entries, atol=1e-12)


def test_cholesky_markov():
    grid = nt.TimeGrid(epsilon=0.25, n_steps=4)
    A = nt.build_kernel_matrix(nt.MarkovDeltaKernel(g=1.5), grid)
    assert np.allclose(_factor(A.entries), np.sqrt(0.25) * 1.5 * np.eye(4), atol=1e-14)


def test_cholesky_singular_psd_with_jitter():
    # Spectral norm 2, so the diagonal jitter is PSD_RTOL * 2.
    entries = np.ones((2, 2))
    L = _factor(entries)
    assert np.max(np.abs(L @ L.T - entries)) <= 1e-10 * 2.0
    assert np.allclose(L @ L.T, entries + 2e-12 * np.eye(2), rtol=0.0, atol=1e-15)
    density = GaussianDensity(window=range(0, 2), covariance=entries)
    for evaluate in (density.logpdf, density.precision_apply):
        with pytest.raises(SingularWindow, match="covariance is not positive definite"):
            evaluate(np.zeros(2))


def test_cholesky_zero_matrix():
    assert np.array_equal(_factor(np.zeros((2, 2))), np.zeros((2, 2)))


def test_cholesky_indefinite_raises():
    with pytest.raises(SingularWindow):
        _factor(np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_window_and_block_access(A8):
    sub = A8.submatrix(range(2, 5))
    assert sub.shape == (3, 3)
    assert sub[0, 0] == A8.entries[2, 2]
    blk = A8.block(range(0, 2), range(5, 8))
    assert blk.shape == (2, 3)
    assert blk[1, 0] == A8.entries[1, 5]
    with pytest.raises(ValueError):
        A8.submatrix(range(0, 9))
    sub_matrix = A8.restrict(range(2, 5))
    assert sub_matrix.window == range(2, 5) and sub_matrix.ar1 == A8.ar1
    assert np.array_equal(sub_matrix.entries, sub)
    rows, cols = range(2, 4), range(4, 5)
    assert np.array_equal(sub_matrix.block(rows, cols), A8.block(rows, cols))
    with pytest.raises(ValueError):
        A8.restrict(range(0, 9))
    with pytest.raises(ValueError, match="column of 8 lags"):
        KernelMatrix(window=range(0, 8), column=A8.entries)


def test_exponential_kernel_records_its_ar1_structure():
    grid = nt.TimeGrid(epsilon=0.1, n_steps=12)
    A = nt.build_kernel_matrix(nt.ExponentialKernel(rate=0.7), grid)
    c, r = A.ar1
    lag = np.abs(np.subtract.outer(np.arange(12), np.arange(12)))
    assert np.max(np.abs(A.entries - c * r ** lag)) <= 1e-15 * c
    assert A.ar1 == pytest.approx((0.0035, np.exp(-0.07)), rel=1e-15)
    for kernel in (nt.MarkovDeltaKernel(g=1.0),
                   nt.TabulatedKernel(lags=(0.0, 0.1), values=(1.0, 0.5))):
        assert nt.build_kernel_matrix(kernel, grid).ar1 is None
