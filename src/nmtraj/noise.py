"""Gaussian machinery for pointer and readout records.

Two families of Gaussians drive the detector chain:

* the *readout* prior over integrated readout records z, whose covariance is
  exactly the kernel matrix A of the window, and
* the *pointer* prior over raw pointer records x, whose precision is 4*A, so
  covariance A^{-1}/4.

These are a Fourier pair; the linear map z = 2*A*x carries one into the
other, Cov(z) = 4 A (A^{-1}/4) A = A, and the density of x is that of 2Ax times
det(2A); a pointer marginal is such a pair for the unread steps' Schur complement
(chain.conditional_state_pointer).  Densities are always handled in log-space so
the unnormalized prefactors of the underlying functionals cancel in every ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularWindow
from .kernels import INVERSE_RTOL, PSD_RTOL, KernelMatrix

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

    This is the package's one factorization of a window covariance.  A
    singular positive-semidefinite covariance is factored with a diagonal
    jitter of PSD_RTOL times its spectral norm, so it can still be sampled,
    but its density and precision do not exist and raise SingularWindow.
    ``residual`` is the factor's reconstruction error max |LL^T - covariance|.
    Every density here has mean zero; marginals keep the covariance
    submatrix.
    """

    window: range
    covariance: np.ndarray
    _chol: np.ndarray = field(init=False, repr=False)
    residual: float = field(init=False, repr=False)
    _log_norm: float = field(init=False, repr=False)
    _singular: bool = field(init=False, repr=False)

    def __post_init__(self):
        self.covariance = np.asarray(self.covariance, dtype=float)
        n = len(self.window)
        if self.covariance.shape != (n, n):
            raise ValueError("covariance shape does not match the window")
        self._singular = False
        self._log_norm = self.residual = 0.0
        if n == 0:
            self._chol = self.covariance.reshape(0, 0)
            return
        try:
            self._chol = np.linalg.cholesky(self.covariance)
            scale = float(np.max(np.diagonal(self.covariance)))  # <= the spectral norm
        except np.linalg.LinAlgError as exc:
            # Singular PSD (or indefinite, which the jittered factor still rejects).
            self._singular = True
            scale = float(np.max(np.abs(np.linalg.eigvalsh(self.covariance))))
            try:
                self._chol = (np.linalg.cholesky(self.covariance + (PSD_RTOL * scale) * np.eye(n))
                              if scale else np.zeros_like(self.covariance))
            except np.linalg.LinAlgError:
                raise SingularWindow("covariance is not positive definite") from exc
        self.residual = resid = float(np.max(np.abs(self._chol @ self._chol.T - self.covariance)))
        if resid > INVERSE_RTOL * scale:
            raise SingularWindow(f"Cholesky reconstruction residual {resid:.3e} exceeds tolerance")
        if not self._singular:
            self._log_norm = -float(np.sum(np.log(np.diag(self._chol)))) - 0.5 * n * _LOG_2PI

    def _require_definite(self):
        if self._singular:
            raise SingularWindow("covariance is not positive definite")

    @property
    def dim(self) -> int:
        return len(self.window)

    def logpdf(self, values: np.ndarray) -> float:
        self._require_definite()
        if self.dim == 0:
            return 0.0
        u = np.linalg.solve(self._chol, np.asarray(values, dtype=float))
        return float(-0.5 * np.dot(u, u) + self._log_norm)

    def precision_apply(self, vectors: np.ndarray) -> np.ndarray:
        """Sigma^{-1} @ vectors for a vector or a stack of column vectors."""
        self._require_definite()
        if self.dim == 0:
            return np.asarray(vectors, dtype=float)
        y = np.linalg.solve(self._chol, np.asarray(vectors, dtype=float))
        return np.linalg.solve(self._chol.T, y)

    def marginal(self, window: range) -> "GaussianDensity":
        """Marginal onto a sub-window: the covariance submatrix."""
        if window.start < self.window.start or window.stop > self.window.stop:
            raise ValueError(f"window {window} not contained in {self.window}")
        rel = np.arange(window.start - self.window.start, window.stop - self.window.start)
        return GaussianDensity(window=window, covariance=self.covariance[np.ix_(rel, rel)])

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        xi = rng.standard_normal((count, self.dim))
        return xi @ self._chol.T


@dataclass(frozen=True)
class NoiseRecord:
    """A pointer or readout record over a grid window.

    ``kind`` is "readout" for kernel-smeared integrated readout values and
    "pointer" for raw pointer coordinates.  How the record is read out
    (immediately, with a delay, or as raw pointers) is fixed by the chain
    function it is conditioned with.
    """

    window: range
    values: np.ndarray
    kind: str = "readout"

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.shape != (len(self.window),):
            raise ValueError("record length does not match its window")
        if self.kind not in ("readout", "pointer"):
            raise ValueError(f"unknown record kind {self.kind!r}")


def readout_prior(A: KernelMatrix) -> GaussianDensity:
    """Zero-mean Gaussian over readout records with covariance A."""
    return GaussianDensity(window=A.window, covariance=A.entries)


def sample_readout_prior(A: KernelMatrix, count: int, seed: int) -> list[NoiseRecord]:
    """Draw readout records from the window prior; deterministic in seed."""
    values = readout_prior(A).sample(count, _generator(seed, _STREAM_READOUT))
    return [NoiseRecord(window=A.window, values=values[i], kind="readout")
            for i in range(count)]


def sample_pointer_prior(A: KernelMatrix, count: int, seed: int) -> list[NoiseRecord]:
    """Draw raw pointer records (covariance A^{-1}/4); deterministic in seed.

    A singular A has no pointer prior and raises SingularWindow.
    """
    prior = readout_prior(A)
    prior._require_definite()
    L = prior._chol
    xi = _generator(seed, _STREAM_POINTER).standard_normal((count, A.size))
    # x = L^{-T} xi / 2 has covariance (L L^T)^{-1} / 4 = A^{-1} / 4.
    values = 0.5 * np.linalg.solve(L.T, xi.T).T if A.size else xi
    return [NoiseRecord(window=A.window, values=values[i], kind="pointer")
            for i in range(count)]
