"""Gaussian machinery for pointer and readout records.

Two families of Gaussians drive the detector chain:

* the *readout* prior over integrated readout records z, whose covariance is
  exactly the kernel matrix A of the window, and
* the *pointer* prior over raw pointer records x, whose precision is 4*A, so
  covariance A^{-1}/4.

These are a Fourier pair; the linear map z = 2*A*x carries one into the
other, Cov(z) = 4 A (A^{-1}/4) A = A.  Densities are always handled in
log-space so the unnormalized prefactors of the underlying functionals
cancel in every physical ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularWindow
from .kernels import KernelMatrix, cholesky_factor, restricted_inverse

_LOG_2PI = float(np.log(2.0 * np.pi))

# Stream labels keep the independent samplers on disjoint Philox streams
# derived from one master seed.
_STREAM_READOUT = 0x7A
_STREAM_POINTER = 0x78


def _generator(seed: int, stream: int) -> np.random.Generator:
    # Counter-based bit generator: a fixed (seed, stream) pair always yields
    # the same byte stream, and parallel workers can slice sample rows.
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((int(seed), stream))))


@dataclass
class GaussianDensity:
    """Multivariate normal over a grid window, evaluated via Cholesky.

    The mode (the mean) maximizes the log-density; marginals keep the
    covariance submatrix.
    """

    window: range
    mean: np.ndarray
    covariance: np.ndarray
    _chol: np.ndarray = field(init=False, repr=False)
    _log_norm: float = field(init=False, repr=False)

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.covariance = np.asarray(self.covariance, dtype=float)
        n = len(self.window)
        if self.mean.shape != (n,) or self.covariance.shape != (n, n):
            raise ValueError("mean/covariance shapes do not match the window")
        if n == 0:
            self._chol = self.covariance.reshape(0, 0)
            self._log_norm = 0.0
            return
        try:
            self._chol = np.linalg.cholesky(self.covariance)
        except np.linalg.LinAlgError as exc:
            raise SingularWindow("covariance is not positive definite") from exc
        self._log_norm = -float(np.sum(np.log(np.diag(self._chol)))) - 0.5 * n * _LOG_2PI

    @property
    def dim(self) -> int:
        return len(self.window)

    def logpdf(self, values: np.ndarray) -> float:
        if self.dim == 0:
            return 0.0
        u = np.linalg.solve(self._chol, np.asarray(values, dtype=float) - self.mean)
        return float(-0.5 * np.dot(u, u) + self._log_norm)

    def precision_apply(self, vectors: np.ndarray) -> np.ndarray:
        """Sigma^{-1} @ vectors for a vector or a stack of column vectors."""
        if self.dim == 0:
            return np.asarray(vectors, dtype=float)
        y = np.linalg.solve(self._chol, np.asarray(vectors, dtype=float))
        return np.linalg.solve(self._chol.T, y)

    def marginal(self, window: range) -> "GaussianDensity":
        """Marginal onto a sub-window: mean and covariance submatrices."""
        if window.start < self.window.start or window.stop > self.window.stop:
            raise ValueError(f"window {window} not contained in {self.window}")
        rel = np.arange(window.start - self.window.start, window.stop - self.window.start)
        return GaussianDensity(window=window, mean=self.mean[rel],
                               covariance=self.covariance[np.ix_(rel, rel)])

    def shift_log_ratio(self, shift: np.ndarray):
        """Return f(v) = logpdf(v - shift) - logpdf(v).

        Evaluates the exact quadratic form (v - mean) . Sigma^{-1} shift
        - shift . Sigma^{-1} shift / 2; no normalization constant enters.
        """
        shift = np.asarray(shift, dtype=float)
        a = self.precision_apply(shift)
        b = 0.5 * float(np.dot(shift, a))

        def ratio(values: np.ndarray) -> float:
            return float(np.dot(np.asarray(values, dtype=float) - self.mean, a) - b)

        return ratio

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        xi = rng.standard_normal((count, self.dim))
        return self.mean[None, :] + xi @ self._chol.T


@dataclass(frozen=True)
class NoiseRecord:
    """A pointer or readout record over a grid window.

    ``kind`` is "readout" for kernel-smeared integrated readout values and
    "pointer" for raw pointer coordinates.  The schedule tags how the record
    was (or is to be) read out: immediately ("zero-delay"), with a fixed lag
    ("delayed", together with ``delay``), or all at once at the final time
    ("all-in-one").
    """

    window: range
    values: np.ndarray
    kind: str = "readout"
    schedule: str = "zero-delay"
    delay: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.shape != (len(self.window),):
            raise ValueError("record length does not match its window")
        if self.kind not in ("readout", "pointer"):
            raise ValueError(f"unknown record kind {self.kind!r}")
        if self.schedule not in ("zero-delay", "delayed", "all-in-one"):
            raise ValueError(f"unknown schedule {self.schedule!r}")


def readout_prior(A: KernelMatrix) -> GaussianDensity:
    """Zero-mean Gaussian over readout records with covariance A."""
    return GaussianDensity(window=A.window, mean=np.zeros(A.size), covariance=A.entries)


def pointer_prior(A: KernelMatrix) -> GaussianDensity:
    """Zero-mean Gaussian over pointer records with precision 4*A."""
    inv = restricted_inverse(A, A.window).entries
    return GaussianDensity(window=A.window, mean=np.zeros(A.size), covariance=0.25 * inv)


def readout_logdensity(record: NoiseRecord, A: KernelMatrix) -> float:
    """Log-density of a readout record under the window prior.

    The record window must match A's window; marginalization onto a
    sub-window is the same as building A directly on that sub-window.
    """
    if record.window != A.window:
        raise ValueError("record window does not match the kernel window")
    return readout_prior(A).logpdf(record.values)


def pointer_logdensity(record: NoiseRecord, A: KernelMatrix) -> float:
    """Log-density of a raw pointer record under the precision-4A prior."""
    if record.window != A.window:
        raise ValueError("record window does not match the kernel window")
    return pointer_prior(A).logpdf(record.values)


def sample_readout_prior(A: KernelMatrix, count: int, seed: int) -> list[NoiseRecord]:
    """Draw readout records from the window prior; deterministic in seed."""
    L = cholesky_factor(A)
    rng = _generator(seed, _STREAM_READOUT)
    xi = rng.standard_normal((count, A.size))
    values = xi @ L.T
    return [NoiseRecord(window=A.window, values=values[i], kind="readout")
            for i in range(count)]


def sample_pointer_prior(A: KernelMatrix, count: int, seed: int) -> list[NoiseRecord]:
    """Draw raw pointer records (covariance A^{-1}/4); deterministic in seed."""
    L = cholesky_factor(A)
    rng = _generator(seed, _STREAM_POINTER)
    xi = rng.standard_normal((count, A.size))
    # x = L^{-T} xi / 2 has covariance (L L^T)^{-1} / 4 = A^{-1} / 4.
    values = 0.5 * np.linalg.solve(L.T, xi.T).T if A.size else xi
    return [NoiseRecord(window=A.window, values=values[i], kind="pointer")
            for i in range(count)]
