"""Uniform time grids and discretized memory kernels.

Everything downstream works on a uniform grid t_k = k*epsilon.  A stationary
real correlation kernel alpha(tau), even in tau, is discretized into the
symmetric Toeplitz matrix

    A[i, j] = epsilon**2 * alpha(t_i - t_j),

stored as its first column, so that continuum double integrals become plain
double sums and single integrals against the readout become plain sums over
per-step integrated readout values (z_k plays the role of epsilon * z(t_k)).
With this convention the Gaussian identities used by the detector chain and
the trajectory solver hold exactly at finite step size, which is what lets
the equivalence tests demand machine precision.

The delta-correlated (memoryless) kernel is discretized with the standard
lattice rule delta(0) -> 1/epsilon, giving A = epsilon * g**2 * I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, KernelBudgetExceeded, NotPositiveDefinite

#: Relative tolerance on the smallest eigenvalue of a kernel matrix.
PSD_RTOL = 1e-12

#: Condition-number cap for the blocks the pointer state factors.
CONDITION_CAP = 1e12

#: Residual demanded of Cholesky reconstructions (see also chain._guarded).
INVERSE_RTOL = 1e-10

#: Most entries a whole-grid dense block may hold: a 4096-step window, 128 MiB.
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
        """Number of whole steps before time t; t must sit on the grid, to
        1e-9 of a step."""
        steps = t / self.epsilon
        k = round(steps)
        if not abs(steps - k) <= 1e-9:
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
        with np.errstate(over="ignore"):  # rate * lag past the float range: exp(-inf) = 0
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
    """Discretized stationary kernel over a contiguous index window of the grid,
    stored as its first column: ``column[k]`` = epsilon**2 * alpha(k * epsilon).
    Every block is the one gather column[|i - j|] over absolute grid indices,
    exactly symmetric and Toeplitz.

    ``ar1`` is the kernel's structure (c, r) when every entry is
    c * r**|i - j| (an exponential kernel: c = epsilon**2 * rate / 2 and
    r = exp(-rate * epsilon)), else None.  A pair's memory term is then one
    scalar, which the chain's Taylor hierarchy carries in place of a window
    of past steps; the structure comes from the kernel, never from the
    entries.
    """

    window: range
    column: np.ndarray
    ar1: tuple[float, float] | None = None

    def __post_init__(self):
        if np.shape(self.column) != (len(self.window),):
            raise ValueError(f"expected a column of {len(self.window)} lags for {self.window}")

    @property
    def size(self) -> int:
        return len(self.window)

    @property
    def bandwidth(self) -> int:
        """Largest lag with a nonzero entry (0 for a diagonal or zero matrix)."""
        return int(np.max(np.flatnonzero(self.column), initial=0))

    @property
    def entries(self) -> np.ndarray:
        """The dense size x size matrix, built on each read."""
        return self.submatrix(self.window)

    def _check(self, window: range) -> None:
        if window.start < self.window.start or window.stop > self.window.stop:
            raise ValueError(f"window {window} not contained in {self.window}")

    def restrict(self, window: range) -> KernelMatrix:
        """The kernel matrix over a sub-window (absolute grid indices)."""
        self._check(window)
        return KernelMatrix(window, self.column[:len(window)], self.ar1)

    def submatrix(self, window: range) -> np.ndarray:
        """Square block over a sub-window (absolute grid indices)."""
        return self.block(window, window)

    def block(self, rows: range, cols: range) -> np.ndarray:
        """Rectangular block, e.g. the coupling between read and unread steps."""
        self._check(rows)
        self._check(cols)
        lags = np.arange(rows.start, rows.stop)[:, None] - np.arange(cols.start, cols.stop)
        return self.column[np.abs(lags)]


def build_kernel_matrix(kernel, grid: TimeGrid) -> KernelMatrix:
    """Discretize a memory kernel over the whole grid: one kernel value per lag.

    Raises ConfigError if the largest entry leaves the floating-point range,
    KernelBudgetExceeded, before any allocation, if the grid's dense
    matrix would pass KERNEL_ENTRY_BUDGET entries, and NotPositiveDefinite if
    the smallest eigenvalue falls below -PSD_RTOL times the spectral norm (the
    signature of an invalid tabulated kernel).  Markov and exponential
    matrices pass that test in closed form (see _ar1_is_psd) and skip the
    dense eigenvalue check.
    """
    eps = grid.epsilon
    # The largest entry, as products (** would raise OverflowError).
    largest = eps * (kernel.g * kernel.g) if kernel.kind == "markov" else eps * eps * (
        0.5 * kernel.rate if kernel.kind == "exponential" else max(map(abs, kernel.values)))
    if not math.isfinite(largest):
        raise ConfigError("kernel: expected kernel-matrix entries (epsilon^2 alpha, "
                          "or epsilon g^2 for markov) within the floating-point range")
    window = grid.full_window
    n = len(window)
    if n * n > KERNEL_ENTRY_BUDGET:
        raise KernelBudgetExceeded(
            f"a {n}-step window needs {n * n} kernel entries, over the budget "
            f"{KERNEL_ENTRY_BUDGET}; reduce the step count")
    ar1 = None
    if kernel.kind == "markov":
        column = np.zeros(n)
        column[0] = eps * kernel.g ** 2
        # A nonnegative diagonal: its eigenvalues are its entries.
        proved = column[0] < np.inf
    else:
        column = eps ** 2 * kernel.alpha(eps * np.arange(n))
        if kernel.kind == "exponential":
            ar1 = (eps ** 2 * (0.5 * kernel.rate), float(np.exp(-kernel.rate * eps)))
        proved = ar1 is not None and _ar1_is_psd(ar1[0], kernel.rate)
    matrix = KernelMatrix(window=window, column=column, ar1=ar1)
    if not proved:
        eigs = np.linalg.eigvalsh(matrix.entries)
        norm = float(np.max(np.abs(eigs)))
        min_eig = float(eigs[0])
        if norm > 0.0 and min_eig < -PSD_RTOL * norm:
            raise NotPositiveDefinite(
                f"kernel matrix has eigenvalue {min_eig:.3e} below -{PSD_RTOL:.0e} * norm "
                f"({norm:.3e}); the kernel is not positive semidefinite")
    return matrix


def _ar1_is_psd(c: float, rate: float) -> bool:
    """Whether the computed exponential matrix, c = eps^2 rate / 2, is proved
    to pass the PSD test (smallest eigenvalue at least -PSD_RTOL ||A||_2)
    without computing its spectrum.  The proof asks that c and rate / 2 lie
    in [2^-960, 2^1000], far from underflow and overflow; outside it the
    dense check runs.

    The exact matrix T_ij = c r^|i - j|, r = exp(-rate eps) < 1, is the
    Kac-Murdock-Szego matrix.  Its symbol c (1 - r^2) / (1 - 2 r cos w + r^2)
    is at least c (1 - r) / (1 + r), so lambda_min(T) > 0 at every size.

    The computed A = T + E.  Entry (i, j), with x = rate eps |i - j|, is
    eps**2 * (rate / 2 * exp(-(rate * (eps * |i - j|)))): the exponent
    carries two roundings (relative 2u + u^2, u = 2^-53), the rest at most
    11u (exp within 4 ulp, three products), and on underflow every operation
    errs by at most 2^-1072 absolute (4 subnormal ulp, for exp).  Hence
      - where x <= 700, |E_ij| <= rho T_ij + tau with
        rho = exp(700 (2u + u^2)) (1 + 11u) - 1 < 1.6e-13;
      - where x > 700, T_ij and A_ij are both below 1e-304 c, plus tau;
      - tau <= 2^-1071 (c + eps^2 + 1) <= 2^-1071 (1 + 2^961) c < 1e-33 c,
        since eps^2 = c / (rate / 2) and both lie in the range above.
    As ||E||_2 <= || |E| ||_2 and a nonnegative symmetric matrix has
    ||F||_2 <= max row sum, ||E||_2 <= rho ||T||_2 + 2n (1e-304 + 1e-33) c,
    below rho ||T||_2 + 1e-29 c over the n <= 4096 steps KERNEL_ENTRY_BUDGET
    allows.  With ||T||_2 >= T_00 = c this is ||E||_2 <= rho' ||T||_2,
    rho' < 1.6e-13 + 1e-29, and ||A||_2 >= (1 - rho') ||T||_2, so

        lambda_min(A) >= lambda_min(T) - ||E||_2 > -rho' / (1 - rho') ||A||_2
                      > -1.7e-13 ||A||_2,

    about six times inside -PSD_RTOL ||A||_2 at every size in the budget.
    """
    return 2.0 ** -960 <= min(c, 0.5 * rate) and c <= 2.0 ** 1000
