"""Exception types shared across the package."""


class NmtrajError(Exception):
    """Base class for all package errors."""


class NotPositiveDefinite(NmtrajError):
    """A kernel matrix failed its positive-(semi)definiteness check."""


class SingularWindow(NmtrajError):
    """A window covariance is indefinite, is singular where its density or
    precision is needed, or is too ill-conditioned to invert reliably."""


class PathBudgetExceeded(NmtrajError):
    """The projector path enumeration would exceed the configured budget.

    Reduce the number of steps, the Hilbert dimension, or raise the budget.
    """


class KernelBudgetExceeded(NmtrajError):
    """A kernel matrix would hold more entries than KERNEL_ENTRY_BUDGET."""


class DegenerateWeights(NmtrajError):
    """Importance weights collapsed onto too few samples (tiny effective
    sample size); the ensemble estimate would be unreliable."""


class DegenerateState(NmtrajError, ValueError):
    """A state's weight vanished, overflowed or stopped being finite, so it
    cannot be normalized; typically the record values are out of range."""


class ConfigError(NmtrajError):
    """A run configuration failed validation.  The message carries the
    offending field path (and line number for JSON syntax errors)."""
