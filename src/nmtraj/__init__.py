"""Finite-step simulator for continuous quantum measurement with memory.

A chain of correlated Gaussian pointer detectors realizes the open-system
dynamics generated by a stationary memory kernel; conditioning on different
readout schedules yields the pointer-, readout-, and delayed-readout states,
and an exact path-sum trajectory solver reproduces the readout-conditioned
states one noise realization at a time.
"""

from .errors import (
    ConfigError,
    DegenerateState,
    DegenerateWeights,
    KernelBudgetExceeded,
    NmtrajError,
    NotPositiveDefinite,
    PathBudgetExceeded,
    SampleBudgetExceeded,
    SingularWindow,
)
from .kernels import (
    ExponentialKernel,
    KernelMatrix,
    MarkovDeltaKernel,
    TabulatedKernel,
    TimeGrid,
    build_kernel_matrix,
)
from .noise import (
    GaussianDensity,
    NoiseRecord,
    readout_prior,
    sample_pointer_prior,
    sample_readout_prior,
)
from .quantum import (
    CouplingEigensystem,
    DensityOperator,
    ModelSpec,
    default_qubit,
    dephasing_qubit,
    eigendecompose_coupling,
    free_step,
    sigma_x,
    sigma_z,
    trace_distance,
)
from .chain import (
    ConditionalState,
    PathEnsemble,
    build_paths,
    conditional_state_pointer,
    delayed_state,
    reduced_states,
)
from .trajectories import (
    EnsembleEstimate,
    MeanReadoutComparison,
    Trajectory,
    ensemble_average,
    readout_derivatives,
    readout_pdf,
    residual_check,
    solve_unnormalized,
)

__version__ = "0.1.0"
