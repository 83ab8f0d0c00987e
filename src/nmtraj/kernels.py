"""Uniform time grids and discretized memory kernels.

Everything downstream works on a uniform grid t_k = k*epsilon.  A stationary
real correlation kernel alpha(tau), even in tau, is discretized into the
symmetric matrix

    A[i, j] = epsilon**2 * alpha(t_i - t_j)

so that continuum double integrals become plain double sums and single
integrals against the readout become plain sums over per-step integrated
readout values (z_k plays the role of epsilon * z(t_k)).  With this
convention the Gaussian identities used by the detector chain and the
trajectory solver hold exactly at finite step size, which is what lets the
equivalence tests demand machine precision.

The delta-correlated (memoryless) kernel is discretized with the standard
lattice rule delta(0) -> 1/epsilon, giving A = epsilon * g**2 * I.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import KernelBudgetExceeded, NotPositiveDefinite

#: Relative tolerance on the smallest eigenvalue of a kernel matrix.
PSD_RTOL = 1e-12

#: Condition-number cap for window inversions.
CONDITION_CAP = 1e12

#: Residual demanded of inverses and Cholesky reconstructions.
INVERSE_RTOL = 1e-10

#: Most entries one kernel matrix may hold: a 4096-step window, 128 MiB.
KERNEL_ENTRY_BUDGET = 2 ** 24


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k * epsilon, k = 0 .. n_steps - 1."""

    epsilon: float
    n_steps: int

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def times(self) -> np.ndarray:
        return self.epsilon * np.arange(self.n_steps)

    @property
    def full_window(self) -> range:
        return range(0, self.n_steps)

    def steps_of(self, t: float) -> int:
        """Number of whole steps before time t; t must sit on the grid."""
        k = int(round(t / self.epsilon))
        if abs(t - k * self.epsilon) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"time {t} is not a multiple of epsilon={self.epsilon}")
        if k < 0 or k > self.n_steps:
            raise ValueError(f"time {t} lies outside the grid (n_steps={self.n_steps})")
        return k

    def window_before(self, t: float) -> range:
        """Left-endpoint window {k : t_k < t} as a range of grid indices."""
        return range(0, self.steps_of(t))


@dataclass(frozen=True)
class ExponentialKernel:
    """alpha(tau) = (rate/2) * exp(-rate*|tau|); unit total weight."""

    rate: float

    kind = "exponential"

    def __post_init__(self):
        if not self.rate > 0.0:
            raise ValueError("rate must be positive")

    def alpha(self, lag):
        return 0.5 * self.rate * np.exp(-self.rate * np.abs(lag))


@dataclass(frozen=True)
class MarkovDeltaKernel:
    """Memoryless kernel alpha = g**2 * delta(tau)."""

    g: float

    kind = "markov"

    def __post_init__(self):
        if not self.g > 0.0:
            raise ValueError("g must be positive")


@dataclass(frozen=True)
class TabulatedKernel:
    """Kernel sampled at non-negative lags; linear interpolation in |tau|,
    zero beyond the last tabulated lag."""

    lags: tuple
    values: tuple

    kind = "tabulated"

    def __post_init__(self):
        lags = np.asarray(self.lags, dtype=float)
        if lags.ndim != 1 or lags.size == 0:
            raise ValueError("lags must be a non-empty 1-d sequence")
        if np.any(np.diff(lags) <= 0) or lags[0] < 0:
            raise ValueError("lags must be non-negative and strictly increasing")
        if len(self.values) != lags.size:
            raise ValueError("lags and values must have equal length")

    def alpha(self, lag):
        return np.interp(np.abs(lag), np.asarray(self.lags, dtype=float),
                         np.asarray(self.values, dtype=float), right=0.0)


@dataclass(frozen=True)
class KernelMatrix:
    """Discretized kernel over a contiguous index window of the grid.

    ``entries[i - window.start, j - window.start]`` holds
    epsilon**2 * alpha(t_i - t_j); exact symmetry and (for stationary
    kernels) the Toeplitz property follow from building entries out of
    integer index differences.
    """

    window: range
    entries: np.ndarray

    @property
    def size(self) -> int:
        return len(self.window)

    def _relative(self, window: range) -> np.ndarray:
        if window.start < self.window.start or window.stop > self.window.stop:
            raise ValueError(f"window {window} not contained in {self.window}")
        return np.arange(window.start - self.window.start,
                         window.stop - self.window.start)

    def submatrix(self, window: range) -> np.ndarray:
        """Square block over a sub-window (absolute grid indices)."""
        rel = self._relative(window)
        return self.entries[np.ix_(rel, rel)]

    def block(self, rows: range, cols: range) -> np.ndarray:
        """Rectangular block, e.g. the coupling between read and unread steps."""
        return self.entries[np.ix_(self._relative(rows), self._relative(cols))]


def build_kernel_matrix(kernel, grid: TimeGrid, window: range | None = None) -> KernelMatrix:
    """Discretize a memory kernel over a grid window.

    Raises KernelBudgetExceeded, before any allocation, if the window needs
    more than KERNEL_ENTRY_BUDGET entries, and NotPositiveDefinite if the
    smallest eigenvalue falls below -PSD_RTOL times the spectral norm (the
    signature of an invalid tabulated kernel).
    """
    if window is None:
        window = grid.full_window
    if window.start < 0 or window.stop > grid.n_steps or window.step != 1:
        raise ValueError(f"window {window} not contained in the grid")
    n = len(window)
    if n * n > KERNEL_ENTRY_BUDGET:
        raise KernelBudgetExceeded(
            f"a {n}-step window needs {n * n} kernel entries, over the budget "
            f"{KERNEL_ENTRY_BUDGET}; reduce the step count")
    eps = grid.epsilon
    if kernel.kind == "markov":
        entries = (eps * kernel.g ** 2) * np.eye(n)
    else:
        idx = np.arange(n)
        # |i - j| keeps the matrix exactly symmetric and Toeplitz.
        lag = eps * np.abs(idx[:, None] - idx[None, :])
        entries = eps ** 2 * kernel.alpha(lag)
    if n == 0:
        return KernelMatrix(window=window, entries=entries.reshape(0, 0))
    eigs = np.linalg.eigvalsh(entries)
    norm = float(np.max(np.abs(eigs)))
    min_eig = float(eigs[0])
    if norm > 0.0 and min_eig < -PSD_RTOL * norm:
        raise NotPositiveDefinite(
            f"kernel matrix has eigenvalue {min_eig:.3e} below -{PSD_RTOL:.0e} * norm "
            f"({norm:.3e}); the kernel is not positive semidefinite")
    return KernelMatrix(window=window, entries=entries)
