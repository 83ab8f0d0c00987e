"""Exact discrete chain of correlated pointer detectors.

One detector sits at every grid step.  Their pointers start in a jointly
correlated Gaussian whose precision is four times the kernel matrix, and the
detector at step k receives an impulsive kick that shifts its pointer by the
system's coupling observable.  Inserting the coupling eigenprojectors at
every step turns each time-ordered superoperator into a plain number along a
pair of eigenvalue histories, so all pointer Gaussian integrals can be done
analytically and the chain becomes an exact finite computation:

* averaging over every pointer gives the reduced (open-system) state as a
  double path sum with pairwise decoherence weights
  exp(-(Xa - Xb) . A (Xa - Xb) / 2);
* conditioning on read pointers multiplies each pair by a shifted-Gaussian
  likelihood ratio whose center is the symmetrized history (Xa + Xb) / 2.

Conventions fixed here and mirrored bit-for-bit by the trajectory solver:
within one step the free unitary acts first and the detector kick acts at
the step's right endpoint; windows are left-endpoint, {k : t_k < t}.

Path enumeration prunes branches whose amplitude is exactly zero (this is
what keeps commuting models O(d) wide at any depth) and refuses, rather than
truncates, when the surviving branch count would exceed the path budget or
the pair sums would evaluate more than PAIR_BUDGET pair exponents.

All values are immutable after construction; enumeration and pairwise
accumulation are pure, so callers may partition the history index space
across workers and merge partial Hermitian sums in any associative order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateState, PathBudgetExceeded
from .kernels import KernelMatrix, TimeGrid
from .noise import GaussianDensity, NoiseRecord, pointer_prior
from .quantum import (
    CouplingEigensystem,
    DensityOperator,
    ModelSpec,
    eigendecompose_coupling,
    free_step,
)

DEFAULT_PATH_BUDGET = 2 ** 20

#: Most pair exponents one call may evaluate, summed over its pair sums.
PAIR_BUDGET = 2 ** 30

#: Pair blocks are accumulated in row chunks of this many paths to bound
#: peak memory at large path counts.
_PAIR_CHUNK = 1024


@dataclass(frozen=True)
class PathEnsemble:
    """All surviving eigenvalue histories over a window.

    ``amplitudes[p]`` is the unnormalized state vector obtained by applying,
    for each step of the window, the free unitary followed by the projector
    selected by history p.  Summing amplitudes over histories recovers the
    freely evolved state (projector completeness).
    """

    histories: np.ndarray       # (paths, steps) int8 indices into eigenvalues
    amplitudes: np.ndarray      # (paths, dim) complex
    eigenvalues: np.ndarray     # (levels,) distinct coupling eigenvalues
    eigenvalue_sequences: np.ndarray  # (paths, steps) float

    @property
    def count(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True)
class ConditionalState:
    """Post-readout state with the log readout density of its record."""

    rho: DensityOperator
    log_weight: float


@dataclass(frozen=True)
class SingleDetector:
    """One Gaussian pointer: center and width of the initial density."""

    sigma: float
    center: float = 0.0

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")


def _walk_paths(model: ModelSpec, grid: TimeGrid, steps: int, path_budget: int,
                eig: CouplingEigensystem):
    """Walk the history tree one step at a time, yielding the surviving
    (amplitudes, histories) after 0, 1, ..., steps steps.

    Raises PathBudgetExceeded before a branching step whose branch count
    would pass ``path_budget``; exact zero-amplitude branches are dropped.
    """
    U = free_step(model, grid.epsilon)
    m = eig.count
    amps = model.initial_state[None, :].astype(complex)
    hist = np.zeros((1, 0), dtype=np.int8)
    yield amps, hist
    for _ in range(steps):
        if amps.shape[0] * m > path_budget:
            raise PathBudgetExceeded(
                f"{amps.shape[0]} surviving paths x {m} levels exceeds budget {path_budget}; "
                "reduce the step count or Hilbert dimension, or raise the budget")
        evolved = amps @ U.T
        branches = np.stack([evolved @ eig.projectors[a].T for a in range(m)], axis=1)
        new_amps = branches.reshape(-1, model.dim)
        new_hist = np.concatenate(
            [np.repeat(hist, m, axis=0),
             np.tile(np.arange(m, dtype=np.int8), amps.shape[0])[:, None]], axis=1)
        alive = np.einsum("pi,pi->p", new_amps, new_amps.conj()).real > 0.0
        amps = new_amps[alive]
        hist = new_hist[alive]
        yield amps, hist


def build_paths(model: ModelSpec, grid: TimeGrid, window: range,
                path_budget: int = DEFAULT_PATH_BUDGET) -> PathEnsemble:
    """Enumerate the eigenvalue histories over ``window`` with their vector
    amplitudes, by walking the history tree to the window's end."""
    eig = eigendecompose_coupling(model)
    for amps, hist in _walk_paths(model, grid, len(window), path_budget, eig):
        pass
    return PathEnsemble(histories=hist, amplitudes=amps,
                        eigenvalues=eig.eigenvalues,
                        eigenvalue_sequences=eig.eigenvalues[hist.astype(int)])


def _check_pairs(pairs: int) -> None:
    if pairs > PAIR_BUDGET:
        raise PathBudgetExceeded(
            f"{pairs} path pairs exceed the pair budget {PAIR_BUDGET}; "
            "reduce the step count or Hilbert dimension")


def _pair_accumulate(amps: np.ndarray, path_log: np.ndarray, left: np.ndarray,
                     right: np.ndarray):
    """Accumulate the pairwise sum

        num = sum_ab exp(e_a + e_b + K_ab) |v_a><v_b|,   K_ab = left_a . right_b,

    with a global exponent shift for stability, one row chunk of K at a time
    so no array spans all path pairs.  Returns (num, trace, shift) where the
    true values are num * exp(shift) and trace * exp(shift); trace = tr num
    equals sum_ab exp(e_a + e_b + K_ab) <v_b|v_a>.

    Every chain state's pair-weight matrix is positive semidefinite (a rank-one
    factor times exp(Xa S Xb) with S = A or a Schur complement of A), so its
    largest entry lies on the diagonal and the shift bounds every exponent.
    """
    p, d = amps.shape
    _check_pairs(p * p)
    shift = float(np.max(2.0 * path_log + np.einsum("pk,pk->p", left, right))) if p else 0.0
    num = np.zeros((d, d), dtype=complex)
    for lo in range(0, p, _PAIR_CHUNK):
        hi = min(lo + _PAIR_CHUNK, p)
        W = np.exp(path_log[lo:hi, None] + path_log[None, :] + left[lo:hi] @ right.T - shift)
        num += amps[lo:hi].T @ (W @ amps.conj())
    return num, float(np.trace(num).real), shift


def _conditional(paths: PathEnsemble, A_w: np.ndarray, density: GaussianDensity,
                 centers: np.ndarray, values: np.ndarray) -> ConditionalState:
    """Shared pairwise machinery for all conditioned states.

    ``centers[p]`` is the vector by which history p shifts the read record's
    Gaussian; pair (a, b) then carries the shifted likelihood with shift
    centers[a] + centers[b] on top of the decoherence weight.  The shift
    ratio is evaluated through the density's precision solves, keeping this
    route numerically independent of the trajectory solver's direct
    exponents.
    """
    Xs = paths.eigenvalue_sequences
    XA = Xs @ A_w
    path_log = -0.5 * np.einsum("pk,pk->p", Xs, XA)
    left, right = XA, Xs
    if density.dim:
        u = density.precision_apply(values - density.mean)
        Z = density.precision_apply(centers.T).T
        path_log = path_log + centers @ u - 0.5 * np.einsum("pk,pk->p", centers, Z)
        # Cross term Xa.A.Xb - (Ca.Zb + Za.Cb) / 2 as one inner product.
        left = np.hstack([XA, -0.5 * centers, -0.5 * Z])
        right = np.hstack([Xs, Z, centers])
    num, trace, shift = _pair_accumulate(paths.amplitudes, path_log, left, right)
    if not 0.0 < trace < np.inf:
        raise DegenerateState(f"conditional state has weight {trace}; the record values "
                              "are out of the range this path sum can represent")
    log_weight = density.logpdf(values) + float(np.log(trace)) + shift
    return ConditionalState(rho=DensityOperator.from_matrix(num), log_weight=log_weight)


def _reduced(amps: np.ndarray, Xs: np.ndarray, A_w: np.ndarray) -> DensityOperator:
    """Double path sum with pairwise decoherence weights
    exp(-(Xa - Xb).A(Xa - Xb)/2), split into per-path and cross terms."""
    XA = Xs @ A_w
    num, _, _ = _pair_accumulate(amps, -0.5 * np.einsum("pk,pk->p", Xs, XA), XA, Xs)
    return DensityOperator.from_matrix(num)


def reduced_state(model: ModelSpec, A: KernelMatrix, grid: TimeGrid, t: float,
                  path_budget: int = DEFAULT_PATH_BUDGET) -> DensityOperator:
    """Open-system state at time t: the pointer-averaged chain.

    Every pointer is integrated out, which cancels the Gaussian prior and
    leaves the double path sum with pairwise decoherence weights only.
    """
    window = grid.window_before(t)
    paths = build_paths(model, grid, window, path_budget)
    return _reduced(paths.amplitudes, paths.eigenvalue_sequences, A.submatrix(window))


def reduced_states(model: ModelSpec, A: KernelMatrix, grid: TimeGrid, t: float,
                   path_budget: int = DEFAULT_PATH_BUDGET) -> list[DensityOperator]:
    """Open-system states at every grid time in (0, t], from one walk over
    the history tree: entry k - 1 equals reduced_state at time k * epsilon."""
    eig = eigendecompose_coupling(model)
    # The whole walk runs first, so both budgets are checked before any pair sum.
    prefixes = list(_walk_paths(model, grid, len(grid.window_before(t)), path_budget, eig))
    _check_pairs(sum(amps.shape[0] ** 2 for amps, _ in prefixes[1:]))
    return [_reduced(amps, eig.eigenvalues[hist.astype(int)], A.submatrix(range(hist.shape[1])))
            for amps, hist in prefixes[1:]]


def conditional_state_pointer(model: ModelSpec, A: KernelMatrix, grid: TimeGrid, t: float,
                              record: NoiseRecord,
                              path_budget: int = DEFAULT_PATH_BUDGET) -> ConditionalState:
    """State conditioned on raw pointer values read over [0, t).

    The detectors in A.window beyond the readout window stay unread but
    correlated, so the record's prior marginal carries the Schur-complement
    covariance (A^{-1}/4 restricted) and the conditioned state is generically
    mixed; it becomes pure only when those correlations vanish (memoryless
    kernels, or a window covering all of A).
    """
    window = grid.window_before(t)
    if record.kind != "pointer" or record.window != window:
        raise ValueError("expected a pointer record on the window [0, t)")
    paths = build_paths(model, grid, window, path_budget)
    A_w = A.submatrix(window)
    density = pointer_prior(A, window)
    centers = 0.5 * paths.eigenvalue_sequences
    return _conditional(paths, A_w, density, centers, record.values)


def delayed_state(model: ModelSpec, A: KernelMatrix, grid: TimeGrid, t: float,
                  delay: float, record: NoiseRecord,
                  path_budget: int = DEFAULT_PATH_BUDGET) -> ConditionalState:
    """State at time t when each readout is collected ``delay`` after its
    own step, so only the record on [0, t - delay) has been read; the
    chain's one state conditioned on the kernel-smeared readout record.

    The record's prior marginal has covariance equal to the read-window
    submatrix of A, and history pair (a, b) shifts it by
    A_{read, window} (Xa + Xb).  With delay 0 the whole window is read and
    the state is pure for every record; with delay t nothing is read and it
    is the reduced state.  In between it equals the zero-delay state
    averaged over the still-unread components under the full readout
    density.  log_weight is the log readout density of the record.
    """
    grid.steps_of(delay)  # validates that the delay sits on the grid
    if delay < 0 or delay > t:
        raise ValueError("delay must lie in [0, t]")
    window = grid.window_before(t)
    read = grid.window_before(t - delay)
    if record.kind != "readout" or record.window != read:
        raise ValueError("expected a readout record on the window [0, t - delay)")
    paths = build_paths(model, grid, window, path_budget)
    A_w = A.submatrix(window)
    density = GaussianDensity(window=read, mean=np.zeros(len(read)),
                              covariance=A.submatrix(read))
    centers = paths.eigenvalue_sequences @ A.block(read, window).T
    return _conditional(paths, A_w, density, centers, record.values)


def vn_measure(detector: SingleDetector, model: ModelSpec, tau: float,
               rho0: DensityOperator, readout: float) -> tuple[DensityOperator, float]:
    """One impulsive pointer measurement of the coupling observable at time
    tau (Heisenberg picture), given the pointer's initial Gaussian.

    Returns the conditioned state and the readout probability density, a
    mixture of the pointer Gaussian centered on each eigenvalue.
    """
    eig = eigendecompose_coupling(model)
    U = free_step(model, tau)
    projectors = np.stack([U.conj().T @ P @ U for P in eig.projectors])
    x = readout - detector.center
    var = detector.sigma ** 2
    # Pointer wave-function overlaps: exp(-((x-Xa)^2 + (x-Xb)^2) / (4 var)).
    expo = -((x - eig.eigenvalues) ** 2) / (4.0 * var)
    expo = expo - np.max(expo)
    amp = np.exp(expo)
    num = np.einsum("a,b,aij,jk,bkl->il", amp, amp, projectors, rho0.matrix, projectors)
    probs = np.array([np.trace(P @ rho0.matrix).real for P in projectors])
    density = float(np.sum(probs * np.exp(-((x - eig.eigenvalues) ** 2) / (2.0 * var)))
                    / np.sqrt(2.0 * np.pi * var))
    return DensityOperator.from_matrix(num), density


def pointer_width_for(A: KernelMatrix) -> float:
    """Width of the equivalent single detector for a one-step window."""
    if A.size != 1:
        raise ValueError("pointer width shortcut requires a one-step window")
    return float(0.5 / np.sqrt(A.entries[0, 0]))
