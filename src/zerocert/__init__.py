"""Existence certificates for zeros of residual maps.

Given F: R^n -> R^m, this package checks a two-condition certificate on a
closed ball (gradient domination of the least-squares functional plus a
residual bound at the center) that guarantees a zero of F inside the ball,
relaxes failing certificates by rescaling the dependent or independent
variables, and locates the certified zero by ball-constrained descent.
"""

from .certificate import (
    METHOD_CLOSED_FORM,
    METHOD_SAMPLED,
    Ball,
    Certificate,
    SamplingConfig,
    certify,
    domination_constant_sampled,
    quadratic_domination_constant,
    sample_ball,
    transformed_certificate_quadratic,
)
from .descent import (
    DescentConfig,
    DescentResult,
    solve,
    verify_solution,
)
from .exceptions import (
    ConfigError,
    InputShapeError,
    InvalidConfigurationError,
    ZerocertError,
)
from .functional import (
    GradientCheckReport,
    check_gradient,
    grad_phi,
    phi,
    residual_norm,
)
from .problems import (
    ResidualProblem,
    bvp_forcing,
    eval_jacobian,
    eval_residual,
    finite_difference_jacobian,
    make_bvp,
    make_quadratic,
)
from .transforms import (
    SweepPoint,
    Transform,
    TransformSearchResult,
    apply_dependent,
    build_mu_grid,
    cubic_perturbation,
    linear_scale,
    pull_back_zero,
    recover_problem_independent,
    scale,
    search_mu,
)

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "Certificate",
    "ConfigError",
    "DescentConfig",
    "DescentResult",
    "GradientCheckReport",
    "InputShapeError",
    "InvalidConfigurationError",
    "METHOD_CLOSED_FORM",
    "METHOD_SAMPLED",
    "ResidualProblem",
    "SamplingConfig",
    "SweepPoint",
    "Transform",
    "TransformSearchResult",
    "ZerocertError",
    "apply_dependent",
    "build_mu_grid",
    "bvp_forcing",
    "certify",
    "check_gradient",
    "cubic_perturbation",
    "domination_constant_sampled",
    "eval_jacobian",
    "eval_residual",
    "finite_difference_jacobian",
    "grad_phi",
    "linear_scale",
    "make_bvp",
    "make_quadratic",
    "phi",
    "pull_back_zero",
    "quadratic_domination_constant",
    "recover_problem_independent",
    "residual_norm",
    "sample_ball",
    "scale",
    "search_mu",
    "solve",
    "transformed_certificate_quadratic",
    "verify_solution",
]
