"""Heat kernels and Gaussian-bound diagnostics for degenerate operators
on the half-space.

The package computes the semigroup kernel of generators of the form
Tr(A D^2) + (v . grad)/y under natural boundary conditions at y = 0,
reduces general coefficient data to the normal form
Laplacian_x + 2 a . grad_x D_y + D_yy + (c/y) D_y, and checks the
computed kernels against the two-sided Gaussian envelopes, conservation
and invariance identities, Nash-type log-kernel diagnostics, Poincare
ratios, and the weighted integral-operator boundedness criterion.
"""

from .errors import (
    DomainError,
    FitUnderdeterminedError,
    HalfheatError,
    ParameterError,
    SolveFailure,
    StructuralError,
    WrongOperatorError,
)
from .geometry import (
    EnvelopeParams,
    ball_volume,
    boundary_weight,
    doubling_check,
    envelope_equivalence_window,
    envelope_eval,
    gradient_envelope,
    unit_ball_volume,
)
from .kernels import (
    KernelSlice,
    bessel_heat_kernel,
    exact_slice,
    product_kernel,
    tensor_kernel,
    write_csv,
)
from .operators import (
    GeneralOperatorSpec,
    ModelOperatorSpec,
    ReductionResult,
    ValidationReport,
    inverse_map_point,
    map_kernel_value,
    map_point,
    reduce_to_model,
    shear_transform,
    validate_general,
)
from .solver import (
    DiscreteOperator,
    Field,
    GridSpec,
    KernelRequest,
    assemble,
    assemble_divergence_form,
    discrete_gradient,
    kernel_columns,
    kernel_request,
    kernel_slices,
)
from .special import bessel_i_scaled, log_gamma

__version__ = "0.1.0"
