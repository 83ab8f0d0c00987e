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

The trajectory walks the history tree once, carrying each history's exponent
from its parent's, so the walk's step convention (free unitary first, kick at
the right endpoint; chain._step_split) is the detector chain's by
construction; the chain's readout-conditioned state equals Psi Psi^dagger
normalized, and that agreement is the package's central cross-check.  The
exponent is the trajectory's own, read off the kernel column, never the
chain's precision solves, so the two routes stay independent.

Derivatives of Psi with respect to a readout component are exact path sums
(differentiation inserts the step's eigenvalue into each path weight); they
feed the finite-step residual of the stochastic equation of motion and its
finite-difference oracle.  Psi after k steps does not depend on z_k, so the
equal-time derivative vanishes.  One kernel row b of them is read as
Re <Psi | sum_j b_j dPsi/dz_j> = Re <Psi | sum_p w_p (X_p . b) v_p>, with w_p
the path weights: the trajectory's retarded readout and the ensemble's
readout-mean law.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateState, DegenerateWeights, SampleBudgetExceeded
from .kernels import KernelMatrix, TimeGrid
from .noise import NoiseRecord, readout_prior, _generator
from .quantum import DensityOperator, ModelSpec, eigendecompose_coupling, free_step
from .chain import _walk_paths, build_paths

_STREAM_ENSEMBLE = 0x45
_ENSEMBLE_CHUNK = 8192
_MIN_EFFECTIVE_SAMPLES = 10.0
#: Most path weights (records x paths) one evaluator block holds.  At 2^16
#: the block's weights (0.5 MiB) stay in cache, where 2^20 weights (8 MiB)
#: fault in fresh pages on every ensemble call.
_WEIGHT_BLOCK = 2 ** 16
#: Most floats an ensemble keeps per sample, summed over its samples: its
#: weight (1 GiB).
SAMPLE_BUDGET = 2 ** 27


@dataclass(frozen=True)
class Trajectory:
    """One noise realization: per-step unnormalized states and summaries.

    ``states[k]`` is the unnormalized state after k steps (states[0] is the
    initial state); ``norms[k]`` its norm.  ``retarded[k - 1]`` is the
    retarded readout after k steps: twice the kernel row of step k - 1
    against the conditional expectations of the record cut after k steps.
    The conditional expectation of the coupling observable attached to step
    j is the normalized real overlap of the state with its derivative in the
    step's readout component: the time-ordered reading under which the
    readout-mean law is an exact identity of the discrete weights (the bare
    operator transported to the final time differs at first order in the
    kernel weights for noncommuting models, and measurably fails the law).
    For the exponential kernel the retarded readout is (eps times) the
    left-endpoint discretization of rate * integral exp(-rate (t - s)) <X_s> ds.
    """

    record: NoiseRecord
    states: np.ndarray            # (steps + 1, dim) complex
    norms: np.ndarray             # (steps + 1,)
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


def _evaluate(Z: np.ndarray, Xs: np.ndarray, amps: np.ndarray, A_w: np.ndarray,
              row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ensemble's batch evaluator: states psi_s = sum_a W_sa v_a of the
    record rows of Z over one window, and the kernel row's contraction with
    their weighted couplings, Re <psi_s | sum_a W_sa y_a v_a> with y = Xs @ row,
    so no record is divided by its weight.

    Works in row blocks of at most _WEIGHT_BLOCK weights.  Each block takes
    two real products of its weights, with v and with y v viewed as real
    (paths x 2 dim), into the states and into a buffer reused across blocks,
    like the weights: fresh block-sized arrays would be faulted in again on
    every block.
    """
    v = amps.view(float)
    yv = (Xs @ row)[:, None] * v
    psi = np.empty((Z.shape[0], amps.shape[1]), dtype=complex)
    contraction = np.empty(Z.shape[0])
    rows = max(1, _WEIGHT_BLOCK // amps.shape[0])
    quad = np.einsum("pk,pk->p", Xs, Xs @ A_w)  # X_a . A_w X_a
    weights = np.empty((min(rows, Z.shape[0]), amps.shape[0]))
    phi = np.empty((weights.shape[0], v.shape[1]))
    for lo in range(0, Z.shape[0], rows):
        hi = min(lo + rows, Z.shape[0])
        # Direct path weights W_sa = exp(z_s . X_a - X_a . A_w X_a).
        W = np.matmul(Z[lo:hi], Xs.T, out=weights[:hi - lo])
        W -= quad[None, :]
        block = np.matmul(np.exp(W, out=W), v, out=psi[lo:hi].view(float))
        # Re <psi|phi> is the real dot product of the two re/im float rows.
        contraction[lo:hi] = np.einsum("sk,sk->s", block, np.matmul(W, yv, out=phi[:hi - lo]))
    return psi, contraction


def solve_unnormalized(model: ModelSpec, A: KernelMatrix, grid: TimeGrid, t: float,
                       record: NoiseRecord) -> Trajectory:
    """Solve one noise realization over [0, t) by the exact path sum, in one
    walk over the grid that yields every prefix state and its retarded value.

    Each history carries its direct exponent z.X - X.A.X along the walk's
    parent links: with x = X_(k-1) and y = X . 2 A[k - 1, :k], the kernel row
    read off A's column, prefix k has log w = log w[parent] + x (z_(k-1) - y +
    A_00 x), and its retarded value times its squared norm is
    Re <psi | sum_a w_a y_a v_a>.  That is O(P k) per prefix for P histories.

    Raises DegenerateState when a state norm overflows or vanishes.
    """
    window = grid.window_before(t)
    if record.kind != "readout" or record.window != window:
        raise ValueError("expected a readout record on the window [0, t)")
    n = len(window)
    eig = eigendecompose_coupling(model)
    z = record.values

    states = np.empty((n + 1, model.dim), dtype=complex)
    # Per prefix k >= 1, the retarded readout times the squared norm.
    contractions = np.empty(n)
    states[0] = model.initial_state
    walk = _walk_paths(model, grid, n, eig)
    next(walk)  # the empty history
    log_w = np.zeros(1)
    with np.errstate(over="ignore", invalid="ignore"):  # checked on the norms below
        for k, (amps, hist, parents) in enumerate(walk, 1):
            Xs = eig.eigenvalues[hist]
            y = Xs @ (2.0 * A.column[k - 1::-1])
            x = Xs[:, -1]
            log_w = log_w[parents] + x * (z[k - 1] - y + A.column[0] * x)
            w = np.exp(log_w)
            v = amps.view(float)
            psi = w @ v
            # Re <psi|phi> is the real dot product of the two re/im float rows.
            contractions[k - 1] = psi @ ((w * y) @ v)
            states[k] = psi.view(complex)
        norms = np.linalg.norm(states, axis=1)
    if not np.all((norms > 0.0) & (norms < np.inf)):
        raise DegenerateState("trajectory state norm overflowed or vanished; the record "
                              "values are out of the range this path sum can represent")
    retarded = contractions / norms[1:] ** 2
    return Trajectory(record=record, states=states, norms=norms, retarded=retarded)


def readout_pdf(trajectory: Trajectory, A: KernelMatrix) -> float:
    """Log density of the trajectory's record: window prior plus log |Psi|^2."""
    window = trajectory.record.window
    prior = readout_prior(A.restrict(window))
    return prior.logpdf(trajectory.record.values) + 2.0 * float(np.log(trajectory.norms[-1]))


def readout_derivatives(model: ModelSpec, A: KernelMatrix, grid: TimeGrid, t: float,
                        record: NoiseRecord) -> np.ndarray:
    """Exact derivative of the final unnormalized state with respect to each
    readout component: differentiating the path weight inserts that step's
    eigenvalue into every path."""
    window = grid.window_before(t)
    paths = build_paths(model, grid, window)
    Xs = paths.eigenvalues[paths.histories]
    w = np.exp(Xs @ record.values - np.einsum("pk,pk->p", Xs, Xs @ A.submatrix(window)))
    return (Xs * w[:, None]).T @ paths.amplitudes


def residual_check(model: ModelSpec, A: KernelMatrix, grid: TimeGrid,
                   record: NoiseRecord, t_index: int) -> float:
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
    traj = solve_unnormalized(model, A, grid, n * eps, record)

    sub = range(window.start, window.start + k)
    sub_record = NoiseRecord(window=sub, values=record.values[:k])
    derivs = readout_derivatives(model, A, grid, k * eps, sub_record)

    back_k = free_step(model, -(k * eps))
    back_k1 = free_step(model, -((k + 1) * eps))
    psi_k = back_k @ traj.states[k]
    psi_k1 = back_k1 @ traj.states[k + 1]
    # Coupling observable of the k-th kick, acting at time (k+1)*eps.
    fwd = free_step(model, (k + 1) * eps)
    x_heis = fwd.conj().T @ model.coupling @ fwd

    memory = A.column[k:0:-1] @ derivs
    memory = back_k @ ((2.0 / eps) * memory)
    residual = ((psi_k1 - psi_k) / eps
                - (record.values[k] / eps) * (x_heis @ psi_k)
                + x_heis @ memory)
    return float(np.linalg.norm(residual))


def ensemble_average(model: ModelSpec, A: KernelMatrix, grid: TimeGrid, t: float,
                     n_samples: int, seed: int) -> EnsembleEstimate:
    """Unravel the open-system state by importance sampling.

    Records are drawn from the window prior and each pure state enters with
    weight |Psi|^2, so the weighted mean of normalized projectors is exactly
    the sum of unnormalized outer products over the sum of weights.  The
    estimator's trace is 1 by construction.  The same weighted samples give
    the readout-mean law at the final step: the mean readout against the
    kernel-weighted mean of conditional coupling expectations.  Raises
    SampleBudgetExceeded, before any allocation, when the weights, the one
    per-sample array, would pass SAMPLE_BUDGET floats, and DegenerateWeights
    when the weight sums leave the float range or the effective sample size
    drops below 10.
    """
    if n_samples < 100:
        raise ValueError("n_samples must be at least 100")
    if n_samples > SAMPLE_BUDGET:
        raise SampleBudgetExceeded(
            f"{n_samples} samples keep {n_samples} floats, one weight each, "
            f"over the sample budget {SAMPLE_BUDGET}; reduce the sample count")
    window = grid.window_before(t)
    A_w = A.submatrix(window)
    prior = readout_prior(A.restrict(window))
    paths = build_paths(model, grid, window)
    Xs = paths.eigenvalues[paths.histories]
    last_row = 2.0 * A_w[-1, :]

    rng = _generator(seed, _STREAM_ENSEMBLE)
    weights = np.empty(n_samples)
    num = np.zeros((model.dim, model.dim), dtype=complex)
    sides_sum = np.zeros(3)
    chunks = []  # per chunk, the centered sums the standard errors need
    for lo in range(0, n_samples, _ENSEMBLE_CHUNK):
        hi = min(lo + _ENSEMBLE_CHUNK, n_samples)
        z = prior.sample(hi - lo, rng)
        # Per sample, the projector entries and the readout-mean law's sides,
        # all times the weight: w z_{n-1}, c . 2 A_w[n-1, :] and their
        # difference, which carries the comparison, so shared Monte Carlo
        # fluctuations cancel and its standard error is that of the discrepancy.
        psi, predicted = _evaluate(z, Xs, paths.amplitudes, A_w, last_row)
        w = np.einsum("si,si->s", psi, psi.conj()).real
        weights[lo:hi] = w
        num += psi.T @ psi.conj()
        estimated = w * z[:, -1]
        sides = np.stack([estimated, predicted, estimated - predicted], axis=1)
        sides_sum += np.sum(sides, axis=0)
        projectors = np.einsum("si,sj->sij", psi, psi.conj()).reshape(hi - lo, -1)
        chunks.append(_centered_sums(w, np.hstack([projectors, sides])))

    total = float(np.sum(weights))
    total_sq = sum(Q for *_, Q in chunks)
    if not (0.0 < total < np.inf and 0.0 < total_sq < np.inf):
        raise DegenerateWeights(
            f"importance weights sum to {total:.3e} with squares summing to {total_sq:.3e}; "
            "they are out of the floating-point range")
    ess = total ** 2 / total_sq
    if ess < _MIN_EFFECTIVE_SAMPLES:
        raise DegenerateWeights(
            f"effective sample size {ess:.2f} below {_MIN_EFFECTIVE_SAMPLES}")

    rho = DensityOperator.from_matrix(num)
    means = sides_sum / total
    ratio = np.concatenate([rho.matrix.ravel(), means])
    # sum_s |u_s - w_s r|^2 over all samples from the chunks' centered sums:
    # u - w r = (u - w r_c) + w (r_c - r) within chunk c.  The sum is a sum of
    # squares, so a negative value is rounding around zero.
    dev_sq = sum(S + 2.0 * (np.conj(r_c - ratio) * T).real + np.abs(r_c - ratio) ** 2 * Q
                 for r_c, S, T, Q in chunks)
    ses = np.sqrt(np.maximum(dev_sq, 0.0)) / total
    d2 = model.dim ** 2
    comparison = MeanReadoutComparison(
        estimated=float(means[0]), estimated_se=float(ses[d2]),
        predicted=float(means[1]), predicted_se=float(ses[d2 + 1]),
        difference=float(means[2]), difference_se=float(ses[d2 + 2]))
    return EnsembleEstimate(
        n_samples=n_samples, seed=seed, rho=rho, rho_se=ses[:d2].reshape(model.dim, model.dim),
        effective_sample_size=float(ess), mean_readout=comparison, sample_weights=weights)


def _centered_sums(w: np.ndarray, u: np.ndarray):
    """One chunk's ratios r_c = sum u / sum w of the weighted values u (one
    row per sample, one column per estimated quantity), with the sums
    centered on them that the estimator's standard errors need:
    S_c = sum |u - w r_c|^2, T_c = sum w (u - w r_c) and Q_c = sum w^2.
    Centering on the chunk's own ratios keeps the merge free of the
    cancellation raw moments suffer."""
    w_sum = float(np.sum(w))
    u_sum = np.sum(u, axis=0)
    r_c = u_sum / w_sum if w_sum > 0.0 else np.zeros_like(u_sum)
    dev = u - w[:, None] * r_c
    return r_c, np.sum(np.abs(dev) ** 2, axis=0), w @ dev, float(np.sum(w * w))
