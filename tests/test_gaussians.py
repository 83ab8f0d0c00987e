import ast
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import nmtraj as nt
from nmtraj import KernelMatrix
from nmtraj.noise import GaussianDensity


def _density(entries):
    entries = np.asarray(entries, dtype=float)
    return GaussianDensity(window=range(0, entries.shape[0]), covariance=entries)


def _matrix(column):
    """Toeplitz kernel matrix with the given first column."""
    return KernelMatrix(window=range(0, len(column)), column=np.asarray(column, dtype=float))


def _log_shift_ratio(density, shift, values):
    # logpdf(v - shift) - logpdf(v) as the exact quadratic form
    # v . Sigma^{-1} shift - shift . Sigma^{-1} shift / 2.
    a = density.precision_apply(np.asarray(shift, dtype=float))
    return float(np.dot(np.asarray(values, dtype=float), a)
                 - 0.5 * np.dot(shift, a))


def test_readout_scalar_density():
    a, v = 0.37, 0.8
    expected = -v ** 2 / (2 * a) - 0.5 * np.log(2 * np.pi * a)
    assert _density([[a]]).logpdf(np.array([v])) == pytest.approx(expected, rel=1e-14)


def test_readout_mode_is_maximum(A8):
    density = nt.readout_prior(A8)
    at_zero = density.logpdf(np.zeros(8))
    expected = -0.5 * float(np.linalg.slogdet(2 * np.pi * A8.entries)[1])
    assert at_zero == pytest.approx(expected, rel=1e-12)
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert density.logpdf(0.05 * rng.standard_normal(8)) < at_zero


def test_readout_marginal_vs_quadrature():
    # Integrate the 2-step density over the second component numerically.
    entries = np.array([[0.5, 0.2], [0.2, 0.4]])
    density = _density(entries)
    z0 = 0.3

    def joint(z1):
        return np.exp(density.logpdf(np.array([z0, z1])))

    marginal, err = integrate.quad(joint, -20, 20, limit=200)
    direct = np.exp(_density([[0.5]]).logpdf(np.array([z0])))
    assert marginal == pytest.approx(direct, rel=1e-9)


def test_marginal_closure_nested_windows(A8, grid8):
    # Marginal of the window prior equals the prior built directly on the
    # sub-window, for any nesting.
    full = nt.readout_prior(A8)
    sub_window = range(1, 5)
    direct = nt.readout_prior(A8.restrict(sub_window))
    marginal = full.marginal(sub_window)
    rng = np.random.default_rng(7)
    for _ in range(10):
        v = 0.3 * rng.standard_normal(4)
        assert abs(direct.logpdf(v) - marginal.logpdf(v)) <= 1e-10


def test_pointer_sample_covariance_within_four_se(A8):
    n = 100_000
    records = nt.sample_pointer_prior(A8, n, seed=123)
    values = np.stack([r.values for r in records])
    cov_hat = values.T @ values / n
    target = 0.25 * np.linalg.inv(A8.entries)
    se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target ** 2) / n)
    assert np.max(np.abs(cov_hat - target) / se) <= 4.0


def test_change_of_variables_jacobian(A8, grid8, zero_coupling_model):
    # Mapping x -> 2 A x carries the pointer density onto the readout density
    # up to the constant log-Jacobian log det(2A).  Without coupling the chain
    # state's log weight is the pointer density of the full-window record.
    rng = np.random.default_rng(3)
    _, logdet = np.linalg.slogdet(2.0 * A8.entries)
    for _ in range(5):
        x = 0.5 * rng.standard_normal(8)
        record = nt.NoiseRecord(window=A8.window, values=x, kind="pointer")
        lhs = nt.conditional_state_pointer(zero_coupling_model, A8, grid8, 0.8, record).log_weight
        z = 2.0 * A8.entries @ x
        rhs = nt.readout_prior(A8).logpdf(z)
        assert lhs == pytest.approx(rhs + logdet, rel=1e-12)


def test_sampler_identity_covariance():
    A = _matrix([1.0, 0.0, 0.0, 0.0])
    records = nt.sample_readout_prior(A, 100_000, seed=42)
    values = np.stack([r.values for r in records])
    cov_hat = values.T @ values / len(values)
    se = np.sqrt((np.outer(np.ones(4), np.ones(4)) + np.eye(4)) / len(values))
    assert np.max(np.abs(cov_hat - np.eye(4)) / se) <= 4.0
    assert np.max(np.abs(values.mean(axis=0))) <= 4.0 / np.sqrt(len(values))


def test_sampler_empty_and_deterministic(A8):
    assert nt.sample_readout_prior(A8, 0, seed=1) == []
    a = nt.sample_readout_prior(A8, 5, seed=99)
    b = nt.sample_readout_prior(A8, 5, seed=99)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.values, rb.values)
    c = nt.sample_readout_prior(A8, 5, seed=100)
    assert not np.array_equal(a[0].values, c[0].values)


def _philox(seed, stream):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, stream))))


def test_samplers_draw_through_the_window_factor(A8):
    # Readout records are the 0x7A Philox stream times L^T, pointer records
    # L^{-T} times the 0x78 stream over 2, with L the Cholesky factor of A.
    L = np.linalg.cholesky(A8.entries)
    readout = np.stack([r.values for r in nt.sample_readout_prior(A8, 5, seed=99)])
    assert np.array_equal(readout, _philox(99, 0x7A).standard_normal((5, 8)) @ L.T)
    pointer = np.stack([r.values for r in nt.sample_pointer_prior(A8, 5, seed=99)])
    xi = _philox(99, 0x78).standard_normal((5, 8))
    assert np.array_equal(pointer, 0.5 * np.linalg.solve(L.T, xi.T).T)


def test_singular_prior_samples_with_jitter():
    # Rank one, spectral norm 2: the factor is that of ones + 2e-12 * I.
    A = _matrix([1.0, 1.0])
    got = np.stack([r.values for r in nt.sample_readout_prior(A, 4, seed=5)])
    L = np.linalg.cholesky(np.ones((2, 2)) + 2e-12 * np.eye(2))
    assert np.array_equal(got, _philox(5, 0x7A).standard_normal((4, 2)) @ L.T)


def test_shift_ratio_zero_shift(A8):
    density = nt.readout_prior(A8)
    assert _log_shift_ratio(density, np.zeros(8), 0.3 * np.ones(8)) == 0.0


def test_shift_ratio_scalar_formula():
    a, v, z = 0.4, 0.25, 0.7
    density = _density([[a]])
    ratio = _log_shift_ratio(density, np.array([v]), np.array([z]))
    assert ratio == pytest.approx((z * v - v ** 2 / 2) / a, rel=1e-13)


def test_shift_ratio_matches_two_evaluation_paths(A8):
    density = nt.readout_prior(A8)
    rng = np.random.default_rng(11)
    for _ in range(10):
        z = 0.3 * rng.standard_normal(8)
        s = 0.2 * rng.standard_normal(8)
        ratio = _log_shift_ratio(density, s, z)
        direct = density.logpdf(z - s) - density.logpdf(z)
        assert ratio == pytest.approx(direct, abs=1e-12)


def test_shift_ratio_moment_identity(A8):
    # E over prior samples of exp(shift ratio) is 1 for any fixed shift.
    density = nt.readout_prior(A8)
    shift = 0.15 * np.ones(8)
    records = nt.sample_readout_prior(A8, 50_000, seed=17)
    vals = np.exp([_log_shift_ratio(density, shift, r.values) for r in records])
    se = vals.std() / np.sqrt(len(vals))
    assert abs(vals.mean() - 1.0) <= 4.0 * se


def test_record_validation():
    with pytest.raises(ValueError):
        nt.NoiseRecord(window=range(0, 3), values=[1.0, 2.0])
    with pytest.raises(ValueError):
        nt.NoiseRecord(window=range(0, 1), values=[1.0], kind="other")


def test_empty_window_density():
    density = GaussianDensity(window=range(0, 0), covariance=np.zeros((0, 0)))
    assert density.logpdf(np.zeros(0)) == 0.0
    assert _log_shift_ratio(density, np.zeros(0), np.zeros(0)) == 0.0


def test_density_rejects_nonpositive_covariance():
    with pytest.raises(nt.SingularWindow):
        GaussianDensity(window=range(0, 2), covariance=np.array([[1.0, 2.0], [2.0, 1.0]]))


def _cholesky_sites(node, module, scope, sites):
    # (module, enclosing definition) of every reference to a name "cholesky":
    # calls, attribute chains and imports alike.
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        if isinstance(child, ast.Attribute):
            names = [child.attr]
        elif isinstance(child, ast.Name):
            names = [child.id]
        elif isinstance(child, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rsplit(".", 1)[-1] for alias in child.names]
        else:
            names = []
        if "cholesky" in names:
            sites.add((module, inner))
        _cholesky_sites(child, module, inner, sites)
    return sites


def test_cholesky_only_in_the_density_and_the_quadrature():
    # GaussianDensity is the one factorization of a window covariance; the
    # verify quadrature keeps its own reference factor.
    sites = set()
    for path in Path(nt.__file__).parent.glob("*.py"):
        _cholesky_sites(ast.parse(path.read_text()), path.stem, "", sites)
    assert sites == {("noise", "GaussianDensity.__post_init__"), ("verify", "_gh_grid")}
