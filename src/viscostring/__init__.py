"""Boundary-control laboratory for a viscoelastic string with memory.

The package simulates a string whose dynamics carry a convolution memory
kernel, synthesises boundary controls that steer coefficient pairs of the
state at a fixed time, and numerically verifies the asymptotic estimates
the construction rests on.  See the README for the model and the CLI.
"""

from .errors import (
    CrossCheckError,
    ElasticDegeneracyError,
    ExceptionalIndexError,
    NearSingularGramError,
    ViscostringError,
)
from .kernels import DerivedKernelSet, KernelFamily, MemoryKernel, derive_kernels
from .moments import (
    ClosenessReport,
    FrameBoundsReport,
    GramSystem,
    MomentTarget,
    RoundtripReport,
    SynthesisReport,
    build_family,
    finite_pair_control,
    frame_bounds,
    gram,
    quadratic_closeness,
    synthesize_control,
)
from .spectral import (
    CoefficientNorms,
    ControlSignal,
    ModeParams,
    SpectralState,
    coefficient_norms,
    mode_params,
    reconstruct_field,
    simulate_coefficients,
)
from .verify import (
    AsymptoticReport,
    TrendVerdict,
    check_convolution_asymptotics,
    check_mode_asymptotics,
    check_mode_derivative_asymptotics,
    check_resolvent_identity,
    check_stress_deformation_gap,
    closed_loop_roundtrip,
)
from .volterra import (
    ModeFamily,
    TimeGrid,
    TrajectoryKind,
    assemble_moment_kernel,
    convolve,
    convolve_transpose,
    mode_derivative,
    oracle_exponential_mode,
    solve_mode,
    solve_modes,
    solve_moment_kernel,
    solve_moment_kernels,
    solve_volterra_second_kind,
)

__version__ = "0.1.0"
