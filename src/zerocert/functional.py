"""Least-squares functional phi(v) = ||F(v)||^2 / 2 and its gradient.

The gradient is the adjoint Jacobian applied to the residual, DF(v)^T F(v)
(with the problem's diagonal codomain weights folded in when present).  Its
global minima at value zero are exactly the zeros of F, which is what the
certificate and descent modules exploit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problems import FD_STEP_SCALE, ResidualProblem, eval_jacobian, eval_residual


@dataclass(frozen=True)
class GradientCheckReport:
    """Comparison of the analytic gradient against central differences of phi.

    ``max_relative_error`` is max_i |a_i - g_i| / (1 + |g_i|) where a is the
    analytic and g the numeric gradient.
    """

    point: np.ndarray
    analytic_gradient: np.ndarray
    numeric_gradient: np.ndarray
    max_relative_error: float


def _weights(problem: ResidualProblem) -> np.ndarray | float:
    return 1.0 if problem.weights is None else problem.weights


def _weighted_square_sum(problem: ResidualProblem, r: np.ndarray) -> float:
    # compensated summation: plain accumulation noise on stiff problems is
    # large enough to corrupt finite differences of phi
    try:
        return math.fsum(_weights(problem) * r * r)
    except OverflowError:  # finite terms whose sum overflows
        return math.inf


def residual_norm(problem: ResidualProblem, v) -> float:
    """Codomain norm ||F(v)||, weighted when the problem carries weights.

    When the sum of squares overflows although every entry is finite, the
    norm is computed as s*||F(v)/s|| with s = max|F_i|, so it stays finite
    while it is representable.
    """
    r = eval_residual(problem, v)
    square_sum = _weighted_square_sum(problem, r)
    if square_sum == math.inf and np.isfinite(r).all():
        s = float(np.max(np.abs(r)))
        return s * math.sqrt(_weighted_square_sum(problem, r / s))
    return math.sqrt(square_sum)


def phi(problem: ResidualProblem, v) -> float:
    """Value of the least-squares functional ||F(v)||^2 / 2."""
    return 0.5 * _weighted_square_sum(problem, eval_residual(problem, v))


def grad_phi(problem: ResidualProblem, v) -> np.ndarray:
    """Gradient of phi at v, computed as DF(v)^T (w * F(v))."""
    r = eval_residual(problem, v)
    jac = eval_jacobian(problem, v)
    return jac.T @ (_weights(problem) * r)


def _phi_reference(problem: ResidualProblem, v_ext: np.ndarray) -> np.longdouble:
    # reference value for differencing, accumulated in extended precision;
    # built-in residuals propagate the wider dtype, others degrade gracefully
    r = np.asarray(problem.residual(v_ext))
    terms = _weights(problem) * r * r
    return np.longdouble(0.5) * np.sum(terms, dtype=np.longdouble)


def check_gradient(problem: ResidualProblem, v) -> GradientCheckReport:
    """Validate grad_phi against central finite differences of phi.

    The reference differences are evaluated in extended precision: at large
    residual scales the difference quotient would otherwise be dominated by
    the rounding of phi rather than by the gradient being checked.
    """
    v = np.asarray(v, dtype=float)
    analytic = grad_phi(problem, v)
    v_ext = v.astype(np.longdouble)
    numeric = np.empty_like(analytic)
    for i in range(problem.n):
        h = FD_STEP_SCALE * (1.0 + abs(v[i]))
        vp = v_ext.copy()
        vm = v_ext.copy()
        vp[i] += h
        vm[i] -= h
        diff = _phi_reference(problem, vp) - _phi_reference(problem, vm)
        numeric[i] = float(diff / np.longdouble(2.0 * h))
    err = float(np.max(np.abs(analytic - numeric) / (1.0 + np.abs(numeric))))
    return GradientCheckReport(
        point=v,
        analytic_gradient=analytic,
        numeric_gradient=numeric,
        max_relative_error=err,
    )
