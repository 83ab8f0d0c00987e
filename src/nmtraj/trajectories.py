"""Per-realization trajectory engine for the colored-noise stochastic
Schroedinger dynamics, plus Monte Carlo unraveling.

For a readout record z over the window the unnormalized conditional state
has the explicit time-ordered form

    Psi[z] = sum_paths  v_p * exp( z . X_p  -  X_p . A_w X_p )

with v_p the path amplitudes and X_p the eigenvalue history (note the full
double sum over the window square in the quadratic term, no 1/2).  The
readout density is the Gaussian window prior times |Psi|^2, which is exactly
of importance-sampling form: the ensemble estimator draws records from the
prior and weights states by their squared norm.

Step ordering (free unitary first, kick at the right endpoint) and the
kernel-matrix convention match the detector chain exactly; the chain's
readout-conditioned state equals Psi Psi^dagger normalized, and that
agreement is the package's central cross-check.

Derivatives of Psi with respect to a readout component are exact path sums
(differentiation inserts the step's eigenvalue into each path weight); they
feed both the finite-step residual of the stochastic equation of motion and
its finite-difference oracle.  The boundary term at the current step is
fixed by the discrete weight itself: Psi after k steps does not depend on
z_k, so the equal-time derivative vanishes identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateState, DegenerateWeights
from .kernels import KernelMatrix, TimeGrid
from .noise import NoiseRecord, readout_prior, _generator
from .quantum import DensityOperator, ModelSpec, eigendecompose_coupling, free_step
from .chain import DEFAULT_PATH_BUDGET, _walk_paths, build_paths

_STREAM_ENSEMBLE = 0x45
_ENSEMBLE_CHUNK = 8192
_MIN_EFFECTIVE_SAMPLES = 10.0
#: Most path weights (records x paths) one evaluator block holds.
_WEIGHT_BLOCK = 2 ** 20


@dataclass(frozen=True)
class Trajectory:
    """One noise realization: per-step unnormalized states and summaries.

    ``states[k]`` is the unnormalized state after k steps (states[0] is the
    initial state); ``norms[k]`` its norm.  ``cond_expectations[j]`` is the
    conditional expectation at the final time of the coupling observable
    attached to step j, evaluated as the normalized real overlap of the
    final state with its derivative in the step's readout component.  That
    time-ordered reading is the one under which the readout-mean law is an
    exact identity of the discrete weights (the bare operator transported to
    the final time differs at first order in the kernel weights for
    noncommuting models, and measurably fails the law); for commuting models
    the two readings coincide.  ``retarded[k - 1]`` is the retarded readout
    after k steps: twice the kernel row of step k - 1 against the
    conditional expectations of the record cut after k steps, taken from the
    same walk.  For the exponential kernel it is (eps times) the
    left-endpoint discretization of rate * integral exp(-rate (t - s)) <X_s> ds.
    """

    record: NoiseRecord
    states: np.ndarray            # (steps + 1, dim) complex
    norms: np.ndarray             # (steps + 1,)
    cond_expectations: np.ndarray  # (steps,)
    retarded: np.ndarray          # (steps,)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def normalized_final_state(self) -> np.ndarray:
        return self.states[-1] / self.norms[-1]


@dataclass(frozen=True)
class EnsembleEstimate:
    """Importance-sampled estimate of the open-system state, with
    per-component standard errors, the readout-mean law on the same
    weighted samples, and the samples' weights."""

    n_samples: int
    seed: int
    rho: DensityOperator
    rho_se: np.ndarray            # (dim, dim) combined re/im standard errors
    effective_sample_size: float
    mean_readout: MeanReadoutComparison
    sample_weights: np.ndarray = field(repr=False)

    @property
    def pooled_rho_se(self) -> float:
        return float(np.sqrt(np.sum(self.rho_se ** 2)))


@dataclass(frozen=True)
class MeanReadoutComparison:
    """Two-sided readout-mean law at the final step, on one ensemble."""

    estimated: float
    estimated_se: float
    predicted: float
    predicted_se: float
    difference: float
    difference_se: float

    @property
    def sigma_units(self) -> float:
        if self.difference_se == 0.0:
            return 0.0 if self.difference == 0.0 else float("inf")
        return abs(self.difference) / self.difference_se


def _path_weights(Z: np.ndarray, Xs: np.ndarray, A_w: np.ndarray) -> np.ndarray:
    """Direct path weights W_sa = exp(z_s . X_a - X_a . A_w X_a) of every
    record row z_s of Z and eigenvalue history X_a (row of Xs)."""
    quad = np.einsum("pk,pk->p", Xs, Xs @ A_w)
    return np.exp(Z @ Xs.T - quad[None, :])


def _evaluate(Z: np.ndarray, Xs: np.ndarray, amps: np.ndarray,
              A_w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """States psi_s = sum_a W_sa v_a of the record rows of Z, and their
    weighted couplings c_sj = Re sum_a W_sa X_aj <psi_s|v_a>, that is
    Re <psi_s | d psi_s / d z_j>, so no record is divided by its weight.

    Works in row blocks of at most _WEIGHT_BLOCK weights.
    """
    psi = np.empty((Z.shape[0], amps.shape[1]), dtype=complex)
    coupling = np.empty(Z.shape)
    rows = max(1, _WEIGHT_BLOCK // amps.shape[0])
    for lo in range(0, Z.shape[0], rows):
        W = _path_weights(Z[lo:lo + rows], Xs, A_w)
        psi[lo:lo + rows] = W @ amps
        overlap = psi[lo:lo + rows].conj() @ amps.T
        overlap *= W
        coupling[lo:lo + rows] = overlap.real @ Xs
        del W, overlap  # free this block before the next one is weighed
    return psi, coupling


def solve_unnormalized(model: ModelSpec, A: KernelMatrix, grid: TimeGrid, t: float,
                       record: NoiseRecord,
                       path_budget: int = DEFAULT_PATH_BUDGET) -> Trajectory:
    """Solve one noise realization over [0, t) by the exact path sum, in one
    walk over the grid that yields every prefix state and its retarded value.

    Raises DegenerateState when a state norm overflows or vanishes.
    """
    window = grid.window_before(t)
    if record.kind != "readout" or record.window != window:
        raise ValueError("expected a readout record on the window [0, t)")
    n = len(window)
    eig = eigendecompose_coupling(model)
    A_w = A.submatrix(window)
    z = record.values

    states = np.empty((n + 1, model.dim), dtype=complex)
    conds = []  # per prefix, conditional expectations times the squared norm
    with np.errstate(over="ignore", invalid="ignore"):  # checked on the norms below
        for k, (amps, hist) in enumerate(_walk_paths(model, grid, n, path_budget, eig)):
            psi, coupling = _evaluate(z[None, :k], eig.eigenvalues[hist.astype(int)], amps,
                                      A_w[:k, :k])
            states[k] = psi[0]
            conds.append(coupling[0])

    norms = np.linalg.norm(states, axis=1)
    if not np.all((norms > 0.0) & (norms < np.inf)):
        raise DegenerateState("trajectory state norm overflowed or vanished; the record "
                              "values are out of the range this path sum can represent")
    conds = [c / norms[k] ** 2 for k, c in enumerate(conds)]
    retarded = np.array([2.0 * A_w[k - 1, :k] @ conds[k] for k in range(1, n + 1)])
    return Trajectory(record=record, states=states, norms=norms, cond_expectations=conds[-1],
                      retarded=retarded)


def readout_pdf(trajectory: Trajectory, A: KernelMatrix) -> float:
    """Log density of the trajectory's record: window prior plus log |Psi|^2."""
    window = trajectory.record.window
    prior = readout_prior(KernelMatrix(window, A.submatrix(window)))
    return prior.logpdf(trajectory.record.values) + 2.0 * float(np.log(trajectory.norms[-1]))


def readout_derivatives(model: ModelSpec, A: KernelMatrix, grid: TimeGrid, t: float,
                        record: NoiseRecord,
                        path_budget: int = DEFAULT_PATH_BUDGET) -> np.ndarray:
    """Exact derivative of the final unnormalized state with respect to each
    readout component: differentiating the path weight inserts that step's
    eigenvalue into every path."""
    window = grid.window_before(t)
    paths = build_paths(model, grid, window, path_budget)
    Xs = paths.eigenvalue_sequences
    w = _path_weights(record.values[None, :], Xs, A.submatrix(window))[0]
    return (Xs * w[:, None]).T @ paths.amplitudes


def residual_check(model: ModelSpec, A: KernelMatrix, grid: TimeGrid,
                   record: NoiseRecord, t_index: int,
                   path_budget: int = DEFAULT_PATH_BUDGET) -> float:
    """Finite-step residual of the stochastic equation of motion at one step.

    Works in the interaction frame (states transported back by the free
    unitary), where the equation has no Hamiltonian term:

        dPsi/dt = z(t) X_t Psi - 2 X_t sum_{j<k} eps alpha(t_k - t_j) dPsi/dz_j

    with z(t_k) = z_k / eps (per-step values integrate the readout), X_t the
    transported coupling observable of the current kick, and the equal-time
    derivative dropped because the discrete weight does not contain it.  The
    residual decays at first order in the step size.
    """
    window = record.window
    n = len(window)
    if not 1 <= t_index < n:
        raise ValueError("t_index must lie in [1, steps)")
    eps = grid.epsilon
    k = t_index
    traj = solve_unnormalized(model, A, grid, n * eps, record, path_budget)

    sub = range(window.start, window.start + k)
    sub_record = NoiseRecord(window=sub, values=record.values[:k])
    derivs = readout_derivatives(model, A, grid, k * eps, sub_record, path_budget)

    back_k = free_step(model, -(k * eps))
    back_k1 = free_step(model, -((k + 1) * eps))
    psi_k = back_k @ traj.states[k]
    psi_k1 = back_k1 @ traj.states[k + 1]
    # Coupling observable of the k-th kick, acting at time (k+1)*eps.
    fwd = free_step(model, (k + 1) * eps)
    x_heis = fwd.conj().T @ model.coupling @ fwd

    A_w = A.submatrix(window)
    memory = (A_w[k, :k] @ derivs) if k else np.zeros(model.dim, dtype=complex)
    memory = back_k @ ((2.0 / eps) * memory)
    residual = ((psi_k1 - psi_k) / eps
                - (record.values[k] / eps) * (x_heis @ psi_k)
                + x_heis @ memory)
    return float(np.linalg.norm(residual))


def ensemble_average(model: ModelSpec, A: KernelMatrix, grid: TimeGrid, t: float,
                     n_samples: int, seed: int,
                     path_budget: int = DEFAULT_PATH_BUDGET) -> EnsembleEstimate:
    """Unravel the open-system state by importance sampling.

    Records are drawn from the window prior and each pure state enters with
    weight |Psi|^2, so the weighted mean of normalized projectors is exactly
    the sum of unnormalized outer products over the sum of weights.  The
    estimator's trace is 1 by construction.  The same weighted samples give
    the readout-mean law at the final step: the mean readout against the
    kernel-weighted mean of conditional coupling expectations.  Raises
    DegenerateWeights when the weight sums leave the float range or the
    effective sample size drops below 10.
    """
    if n_samples < 100:
        raise ValueError("n_samples must be at least 100")
    window = grid.window_before(t)
    A_w = A.submatrix(window)
    prior = readout_prior(KernelMatrix(window, A_w))
    paths = build_paths(model, grid, window, path_budget)
    last_row = 2.0 * A_w[-1, :]

    rng = _generator(seed, _STREAM_ENSEMBLE)
    d = model.dim
    weights = np.empty(n_samples)
    # The readout-mean law's two sides per sample, both times the weight:
    # w z_{n-1} and c . 2 A_w[n-1, :].
    lhs_w = np.empty(n_samples)
    rhs_w = np.empty(n_samples)
    proj_all = np.empty((n_samples, d, d), dtype=complex)
    num = np.zeros((d, d), dtype=complex)
    for lo in range(0, n_samples, _ENSEMBLE_CHUNK):
        hi = min(lo + _ENSEMBLE_CHUNK, n_samples)
        z = prior.sample(hi - lo, rng)
        psi, coupling = _evaluate(z, paths.eigenvalue_sequences, paths.amplitudes, A_w)
        w = np.einsum("si,si->s", psi, psi.conj()).real
        weights[lo:hi] = w
        lhs_w[lo:hi] = w * z[:, -1]
        rhs_w[lo:hi] = coupling @ last_row
        num += psi.T @ psi.conj()
        proj_all[lo:hi] = np.einsum("si,sj->sij", psi, psi.conj())

    total = float(np.sum(weights))
    total_sq = float(np.sum(weights ** 2))
    if not (0.0 < total < np.inf and 0.0 < total_sq < np.inf):
        raise DegenerateWeights(
            f"importance weights sum to {total:.3e} with squares summing to {total_sq:.3e}; "
            "they are out of the floating-point range")
    ess = total ** 2 / total_sq
    if ess < _MIN_EFFECTIVE_SAMPLES:
        raise DegenerateWeights(
            f"effective sample size {ess:.2f} below {_MIN_EFFECTIVE_SAMPLES}")

    rho = DensityOperator.from_matrix(num)
    rho_se = np.sqrt(
        _ratio_se(weights, proj_all.real.reshape(n_samples, -1), rho.matrix.real.ravel()) ** 2
        + _ratio_se(weights, proj_all.imag.reshape(n_samples, -1), rho.matrix.imag.ravel()) ** 2
    ).reshape(d, d)
    # The per-sample difference carries the comparison, so shared Monte Carlo
    # fluctuations cancel and its standard error is that of the discrepancy.
    sides = (lhs_w, rhs_w, lhs_w - rhs_w)
    means = [float(np.sum(v) / total) for v in sides]
    ses = [float(_ratio_se(weights, v[:, None], np.array([m]))[0]) for v, m in zip(sides, means)]
    comparison = MeanReadoutComparison(
        estimated=means[0], estimated_se=ses[0], predicted=means[1], predicted_se=ses[1],
        difference=means[2], difference_se=ses[2])
    return EnsembleEstimate(
        n_samples=n_samples, seed=seed, rho=rho, rho_se=rho_se,
        effective_sample_size=float(ess), mean_readout=comparison, sample_weights=weights)


def _ratio_se(weights: np.ndarray, weighted: np.ndarray, ratio: np.ndarray) -> np.ndarray:
    """Linearized standard error of the ratio sum(w v) / sum(w), columnwise,
    from the weighted values w v."""
    dev = weighted - weights[:, None] * ratio[None, :]
    return np.sqrt(np.sum(dev ** 2, axis=0)) / np.sum(weights)
