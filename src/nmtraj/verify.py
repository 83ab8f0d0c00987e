"""Built-in verification suite.

Each criterion runs a frozen desk-scale configuration and reports measured
values against pinned tolerances.  The same functions back the command-line
``verify`` subcommand and the acceptance test module; every numeric entering
a report is a pure function of the seed, so two runs with the same seed
serialize to identical bytes.
"""

from __future__ import annotations

import json

import numpy as np

from . import chain, kernels, noise, trajectories
from .kernels import ExponentialKernel, MarkovDeltaKernel, TimeGrid, build_kernel_matrix
from .noise import GaussianDensity, NoiseRecord
from .quantum import DensityOperator, default_qubit, dephasing_qubit, trace_distance

DEFAULT_VERIFY_SEED = 20260809

#: Frozen constant of the delayed-statistics bound: the log-density gap is
#: capped by C * steps * alpha(delay) / alpha(0) once the delay covers the
#: kernel's correlation time (measured 0.47 at the frozen configuration).
DELAYED_STATS_C = 1.0

_DEFAULT_EPS = 0.1
_DEFAULT_STEPS = 8
_DEFAULT_RATE = 1.0
_T_FINAL = 0.8


def _default_setup():
    model = default_qubit()
    grid = TimeGrid(epsilon=_DEFAULT_EPS, n_steps=_DEFAULT_STEPS)
    A = build_kernel_matrix(ExponentialKernel(rate=_DEFAULT_RATE), grid)
    return model, grid, A


def _check(name: str, measured: float, tolerance: float, kind: str = "max") -> dict:
    """kind 'max': pass when measured <= tolerance; 'min': measured >= tolerance."""
    measured = float(measured)
    passed = measured <= tolerance if kind == "max" else measured >= tolerance
    return {"name": name, "measured": measured, "tolerance": float(tolerance),
            "kind": kind, "passed": bool(passed)}


def _criterion(cid: int, name: str, checks: list[dict]) -> dict:
    return {"id": cid, "name": name, "checks": checks,
            "passed": bool(all(c["passed"] for c in checks))}


def criterion_readout_equivalence(seed: int) -> dict:
    """Chain-conditioned readout states equal the normalized trajectory
    solutions, record by record, and their log readout densities agree."""
    model, grid, A = _default_setup()
    records = noise.sample_readout_prior(A, 100, seed=seed)
    tds, dlogs = [], []
    for rec in records:
        cond = chain.delayed_state(model, A, grid, _T_FINAL, 0.0, rec)
        traj = trajectories.solve_unnormalized(model, A, grid, _T_FINAL, rec)
        rho_psi = DensityOperator.from_state(traj.normalized_final_state)
        tds.append(trace_distance(cond.rho, rho_psi))
        dlogs.append(abs(cond.log_weight - trajectories.readout_pdf(traj, A)))
    return _criterion(1, "readout-equivalence", [
        _check("max trace distance", max(tds), 1e-10),
        _check("max |d log density|", max(dlogs), 1e-10),
    ])


def _shared_ensemble(seed: int):
    model, grid, A = _default_setup()
    est = trajectories.ensemble_average(model, A, grid, _T_FINAL,
                                        n_samples=100_000, seed=seed)
    return model, grid, A, est


def criterion_ensemble_unraveling(est_bundle) -> dict:
    model, grid, A, est = est_bundle
    exact = chain.reduced_state(model, A, grid, _T_FINAL)
    td = trace_distance(est.rho, exact)
    return _criterion(2, "ensemble-unraveling", [
        _check("trace distance / (3 pooled SE)", td / (3.0 * est.pooled_rho_se), 1.0),
    ])


def criterion_mean_readout_law(est_bundle) -> dict:
    est = est_bundle[3]
    return _criterion(3, "readout-mean-law", [
        _check("two-sided discrepancy in SE units", est.mean_readout.sigma_units, 3.0),
    ])


def _dephasing_offdiag(eps: float, t: float, rate: float) -> tuple[float, float]:
    """Path-sum off-diagonal and the exact discrete closed form."""
    model = dephasing_qubit()
    n = int(round(t / eps))
    grid = TimeGrid(epsilon=eps, n_steps=n)
    A = build_kernel_matrix(ExponentialKernel(rate=rate), grid)
    rho = chain.reduced_state(model, A, grid, t)
    closed = 0.5 * float(np.exp(-2.0 * np.sum(A.entries)))
    return float(rho.matrix[0, 1].real), closed


def criterion_dephasing_oracle(seed: int) -> dict:
    """Commuting model: the exact discrete identity and first-order
    convergence to the continuum decoherence integral."""
    rate = _DEFAULT_RATE
    t = _T_FINAL
    got, closed = _dephasing_offdiag(_DEFAULT_EPS, t, rate)
    q_cont = t - (1.0 - np.exp(-rate * t)) / rate
    continuum = 0.5 * float(np.exp(-2.0 * q_cont))
    errors = []
    for eps in (0.1, 0.05, 0.025):
        off, _ = _dephasing_offdiag(eps, t, rate)
        errors.append(abs(off - continuum))
    slopes = [float(np.log2(errors[i] / errors[i + 1])) for i in range(2)]
    checks = [_check("path sum vs closed form", abs(got - closed), 1e-12)]
    for i, s in enumerate(slopes):
        checks.append(_check(f"convergence slope {i + 1} (lower)", s, 0.8, kind="min"))
        checks.append(_check(f"convergence slope {i + 1} (upper)", s, 1.2))
    return _criterion(4, "dephasing-oracle", checks)


def criterion_markov_limit(seed: int) -> dict:
    """Memoryless kernel reproduces exponential dephasing, and the pointer
    readout's purity dichotomy: near pure once the correlation time drops
    below the step, visibly mixed for a correlation time of order one."""
    g = 1.0
    t = _T_FINAL
    model = dephasing_qubit()
    grid = TimeGrid(epsilon=_DEFAULT_EPS, n_steps=_DEFAULT_STEPS)
    A = build_kernel_matrix(MarkovDeltaKernel(g=g), grid)
    rho = chain.reduced_state(model, A, grid, t)
    err = abs(float(rho.matrix[0, 1].real) - 0.5 * float(np.exp(-2.0 * g ** 2 * t)))
    bound = 2.0 * g ** 4 * t * _DEFAULT_EPS

    grid16 = TimeGrid(epsilon=_DEFAULT_EPS, n_steps=2 * _DEFAULT_STEPS)
    window = grid16.window_before(t)
    nc_model = default_qubit()

    def purities(rate: float) -> list[float]:
        Af = build_kernel_matrix(ExponentialKernel(rate=rate), grid16)
        full_records = noise.sample_pointer_prior(Af, 20, seed=seed + 5)
        out = []
        for rec in full_records:
            sub = NoiseRecord(window=window, values=rec.values[: len(window)],
                              kind="pointer")
            cond = chain.conditional_state_pointer(nc_model, Af, grid16, t, sub)
            out.append(cond.rho.purity)
        return out

    fast = purities(40.0)   # correlation time 0.025 < eps
    slow = purities(_DEFAULT_RATE)
    return _criterion(5, "markov-limit-and-pointer-purity", [
        _check("memoryless dephasing error", err, bound),
        _check("min pointer purity, short memory", min(fast), 0.99, kind="min"),
        _check("max pointer purity, long memory", max(slow), 1.0 - 1e-4),
    ])


def criterion_readout_purity(seed: int) -> dict:
    """Readout-conditioned states are pure for every record."""
    model, grid, A = _default_setup()
    records = noise.sample_readout_prior(A, 100, seed=seed)
    devs = []
    for rec in records:
        cond = chain.delayed_state(model, A, grid, _T_FINAL, 0.0, rec)
        devs.append(abs(cond.rho.purity - 1.0))
    return _criterion(6, "readout-purity", [
        _check("max |purity - 1|", max(devs), 1e-10),
    ])


def _gh_grid(cov: np.ndarray, mean: np.ndarray, order: int):
    """Gauss-Hermite nodes and weights for a correlated Gaussian."""
    dim = cov.shape[0]
    nodes1, weights1 = np.polynomial.hermite.hermgauss(order)
    L = np.linalg.cholesky(cov)
    grids = np.meshgrid(*([nodes1] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*([weights1] * dim), indexing="ij")
    wts = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
    return mean[None, :] + (np.sqrt(2.0) * pts) @ L.T, wts / np.pi ** (dim / 2.0)


def criterion_delayed_readout(seed: int) -> dict:
    """Delay statistics match the shorter zero-delay record once the delay
    covers the memory, and the delayed state equals the weighted average of
    pure trajectory states over the still-unread components."""
    # Statistics: one-step delay with rate * delay = 10, so every coupling
    # between read steps and later kicks sits at lags >= the delay.
    grid = TimeGrid(epsilon=_DEFAULT_EPS, n_steps=_DEFAULT_STEPS)
    rate = 10.0 / _DEFAULT_EPS
    delay = _DEFAULT_EPS
    t = _T_FINAL
    model = default_qubit()
    A = build_kernel_matrix(ExponentialKernel(rate=rate), grid)
    read = grid.window_before(t - delay)
    A_read = build_kernel_matrix(ExponentialKernel(rate=rate), grid, read)
    records = noise.sample_readout_prior(A_read, 100, seed=seed + 7)
    gaps = []
    for rec in records:
        delayed = chain.delayed_state(model, A, grid, t, delay, rec)
        traj = trajectories.solve_unnormalized(model, A, grid, t - delay, rec)
        gaps.append(abs(delayed.log_weight - trajectories.readout_pdf(traj, A)))
    ratio = float(np.exp(-rate * delay))
    stats_bound = DELAYED_STATS_C * _DEFAULT_STEPS * ratio

    # Partial-average identity at an order-one memory and a two-step delay.
    model2, grid2, A2 = _default_setup()
    delay2 = 2 * _DEFAULT_EPS
    read2 = grid2.window_before(t - delay2)
    A2_read = build_kernel_matrix(ExponentialKernel(rate=_DEFAULT_RATE), grid2, read2)
    rec2 = noise.sample_readout_prior(A2_read, 1, seed=seed + 9)[0]
    delayed2 = chain.delayed_state(model2, A2, grid2, t, delay2, rec2)
    window = grid2.window_before(t)
    Aw = A2.submatrix(window)
    nr, nf = len(read2), len(window) - len(read2)
    Arr = Aw[:nr, :nr]
    Afr = Aw[nr:, :nr]
    Aff = Aw[nr:, nr:]
    mu_c = Afr @ np.linalg.solve(Arr, rec2.values)
    cov_c = Aff - Afr @ np.linalg.solve(Arr, Afr.T)
    pts, wts = _gh_grid(cov_c, mu_c, order=24)
    num = np.zeros((model2.dim, model2.dim), dtype=complex)
    den = 0.0
    for pt, wt in zip(pts, wts):
        full = NoiseRecord(window=window, values=np.concatenate([rec2.values, pt]))
        traj = trajectories.solve_unnormalized(model2, A2, grid2, t, full)
        psi = traj.final_state
        num += wt * np.outer(psi, psi.conj())
        den += wt * traj.norms[-1] ** 2
    rho_avg = DensityOperator.from_matrix(num)
    prior_read = GaussianDensity(window=read2, mean=np.zeros(nr), covariance=Arr)
    log_marginal = prior_read.logpdf(rec2.values) + float(np.log(den))
    return _criterion(7, "delayed-readout", [
        _check("max |d log density|, delay stats", max(gaps), 1e-3),
        _check("delay stats vs frozen bound", max(gaps), stats_bound),
        _check("partial-average trace distance", trace_distance(delayed2.rho, rho_avg), 1e-10),
        _check("partial-average |d log density|",
               abs(log_marginal - delayed2.log_weight), 1e-10),
    ])


def criterion_equation_residual(seed: int) -> dict:
    """Finite-step residual of the stochastic equation decays at first order
    in the step, and the path derivative matches a central difference."""
    model = dephasing_qubit(omega=0.7)
    t_total, t_at = 0.8, 0.4
    residuals = []
    for eps in (0.1, 0.05, 0.025):
        n = int(round(t_total / eps))
        grid = TimeGrid(epsilon=eps, n_steps=n)
        A = build_kernel_matrix(ExponentialKernel(rate=_DEFAULT_RATE), grid)
        values = eps * 0.3 * np.cos(2.0 * grid.times)
        rec = NoiseRecord(window=grid.full_window, values=values)
        residuals.append(trajectories.residual_check(model, A, grid, rec,
                                                     int(round(t_at / eps))))
    slopes = [float(np.log2(residuals[i] / residuals[i + 1])) for i in range(2)]

    nc_model, grid8, A8 = _default_setup()
    rec = noise.sample_readout_prior(A8, 1, seed=seed + 13)[0]
    derivs = trajectories.readout_derivatives(nc_model, A8, grid8, _T_FINAL, rec)
    h = 1e-5
    window = grid8.full_window
    fd_errs = []
    for j in range(len(window)):
        vp, vm = rec.values.copy(), rec.values.copy()
        vp[j] += h
        vm[j] -= h
        tp = trajectories.solve_unnormalized(
            nc_model, A8, grid8, _T_FINAL, NoiseRecord(window=window, values=vp))
        tm = trajectories.solve_unnormalized(
            nc_model, A8, grid8, _T_FINAL, NoiseRecord(window=window, values=vm))
        fd = (tp.final_state - tm.final_state) / (2.0 * h)
        fd_errs.append(float(np.linalg.norm(fd - derivs[j])))
    checks = []
    for i, s in enumerate(slopes):
        checks.append(_check(f"residual slope {i + 1} (lower)", s, 0.8, kind="min"))
        checks.append(_check(f"residual slope {i + 1} (upper)", s, 1.2))
    checks.append(_check("path derivative vs central difference", max(fd_errs), 1e-8))
    return _criterion(8, "equation-residual", checks)


def criterion_gaussian_machinery(seed: int, est_bundle=None) -> dict:
    """Sampler covariance, marginalization closure, restricted-inverse
    residual, and the normalization of the readout density."""
    model, grid, A = _default_setup()
    n_samples = 100_000
    records = noise.sample_readout_prior(A, n_samples, seed=seed + 17)
    values = np.stack([r.values for r in records])
    cov_hat = values.T @ values / n_samples
    se = np.sqrt((np.outer(np.diag(A.entries), np.diag(A.entries))
                  + A.entries ** 2) / n_samples)
    cov_sigma = float(np.max(np.abs(cov_hat - A.entries) / se))

    sub = range(2, 6)
    direct = noise.readout_prior(kernels.build_kernel_matrix(
        ExponentialKernel(rate=_DEFAULT_RATE), grid, sub))
    marginal = noise.readout_prior(A).marginal(sub)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0x4D))))
    probe = marginal.sample(10, rng)
    closure = max(abs(direct.logpdf(p) - marginal.logpdf(p)) for p in probe)

    inv = marginal.precision_apply(np.eye(len(sub)))
    resid = float(np.max(np.abs(A.submatrix(sub) @ inv - np.eye(len(sub)))))

    if est_bundle is None:
        est_bundle = _shared_ensemble(seed)
    est = est_bundle[3]
    w = est.sample_weights
    norm_sigma = abs(float(np.mean(w)) - 1.0) / (float(np.std(w)) / np.sqrt(len(w)))
    return _criterion(9, "gaussian-machinery", [
        _check("sampler covariance, max |dev| / SE", cov_sigma, 4.0),
        _check("marginalization closure", closure, 1e-10),
        _check("restricted-inverse residual", resid, 1e-10),
        _check("readout normalization, |E[w]-1| / SE", norm_sigma, 4.0),
    ])


def _run_once(seed: int, timings: dict | None = None) -> list[dict]:
    import time as _time

    def timed(name, fn, *args):
        start = _time.monotonic()
        result = fn(*args)
        if timings is not None:
            timings[name] = _time.monotonic() - start
        return result

    results = [timed("readout-equivalence", criterion_readout_equivalence, seed)]
    start = _time.monotonic()
    bundle = _shared_ensemble(seed)
    results.append(criterion_ensemble_unraveling(bundle))
    if timings is not None:
        timings["ensemble-unraveling"] = _time.monotonic() - start
    results.append(timed("readout-mean-law", criterion_mean_readout_law, bundle))
    results.append(timed("dephasing-oracle", criterion_dephasing_oracle, seed))
    results.append(timed("markov-limit-and-pointer-purity", criterion_markov_limit, seed))
    results.append(timed("readout-purity", criterion_readout_purity, seed))
    results.append(timed("delayed-readout", criterion_delayed_readout, seed))
    results.append(timed("equation-residual", criterion_equation_residual, seed))
    results.append(timed("gaussian-machinery", criterion_gaussian_machinery, seed, bundle))
    return results


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def run_report(seed: int = DEFAULT_VERIFY_SEED, check_determinism: bool = True,
               timings: dict | None = None) -> dict:
    """Run the verification suite and return the machine-readable report.

    With ``check_determinism`` the criteria are evaluated a second time and
    the two serialized payloads must match byte for byte.  ``timings``, when
    given, collects per-criterion wall-clock seconds; timing never enters
    the report, which must be a pure function of the seed.
    """
    criteria = _run_once(seed, timings)
    if check_determinism:
        again = _run_once(seed)
        identical = canonical_json(criteria) == canonical_json(again)
        criteria.append(_criterion(10, "determinism", [
            {"name": "repeat run serializes identically", "measured": float(not identical),
             "tolerance": 0.0, "kind": "max", "passed": bool(identical)},
        ]))
    report = {
        "suite": "nmtraj-verify",
        "version": "0.1.0",
        "seed": int(seed),
        "criteria": criteria,
        "passed": bool(all(c["passed"] for c in criteria)),
    }
    return report
