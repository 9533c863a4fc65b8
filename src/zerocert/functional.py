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

from .problems import (
    FD_STEP_SCALE,
    ResidualProblem,
    block_rows,
    eval_residual,
    residual_rows,
    vjp_rows,
)

CHECK_DIRECTIONS = 16  # check_gradient differentiates phi along at most this many directions


@dataclass(frozen=True)
class GradientCheckReport:
    """Comparison of the analytic gradient against central differences of phi.

    ``directions`` is the (k, n) matrix D whose rows d_j the check
    differentiates along: the identity when n <= CHECK_DIRECTIONS, else
    CHECK_DIRECTIONS fixed +-1 vectors.  ``numeric_derivatives`` holds the k
    difference quotients g_j, so it is the numeric gradient when D is the
    identity.  ``max_relative_error`` is max_j |d_j . a - g_j| / (1 + |g_j|)
    where a is the analytic gradient.
    """

    point: np.ndarray
    directions: np.ndarray
    analytic_gradient: np.ndarray
    numeric_derivatives: np.ndarray
    max_relative_error: float


def _weighted(problem: ResidualProblem, r: np.ndarray) -> np.ndarray:
    # r itself when unweighted: 1.0 * r would be a copy with r's bits
    return r if problem.weights is None else problem.weights * r


def _compensated_sum(terms) -> float:
    # compensated summation: plain accumulation noise on stiff problems is
    # large enough to corrupt finite differences of phi
    try:
        return math.fsum(terms)
    except OverflowError:  # finite terms whose sum overflows
        return math.inf


def _weighted_square_sum(problem: ResidualProblem, r: np.ndarray) -> float:
    return _compensated_sum((_weighted(problem, r) * r).tolist())


def norm_of_residual(problem: ResidualProblem, r: np.ndarray) -> float:
    """The codomain norm of a residual vector r, as :func:`residual_norm` reports it."""
    square_sum = _weighted_square_sum(problem, r)
    if not 2.0**-1022 <= square_sum < math.inf:  # overflowed, or underflowed past normal
        s = float(np.max(np.abs(r)))
        if 0.0 < s < math.inf:
            return s * math.sqrt(_weighted_square_sum(problem, r / s))
    return math.sqrt(square_sum)


def phi_of_residual(problem: ResidualProblem, r: np.ndarray) -> float:
    """||r||^2 / 2 for a residual vector r, as :func:`phi` reports it."""
    return 0.5 * _weighted_square_sum(problem, r)


def residual_norm(problem: ResidualProblem, v) -> float:
    """Codomain norm ||F(v)||, weighted when the problem carries weights.

    When the sum of squares overflows, or falls below 2**-1022, although
    every entry is finite and one is nonzero, the norm is computed as
    s*||F(v)/s|| with s = max|F_i|: it stays finite while it is
    representable, and a tiny residual keeps a nonzero norm.
    """
    return norm_of_residual(problem, eval_residual(problem, v))


def phi(problem: ResidualProblem, v) -> float:
    """Value of the least-squares functional ||F(v)||^2 / 2."""
    return phi_of_residual(problem, eval_residual(problem, v))


def grad_phi(problem: ResidualProblem, v) -> np.ndarray:
    """Gradient of phi at v, computed as DF(v)^T (w * F(v)): one row of :func:`vjp_rows`."""
    v = np.asarray(v, dtype=float)
    return vjp_rows(problem, v[None], _weighted(problem, eval_residual(problem, v))[None])[0]


def _phi_references(problem: ResidualProblem, V_ext: np.ndarray) -> np.ndarray:
    # reference values for differencing, accumulated in extended precision;
    # built-in residuals propagate the wider dtype, others degrade gracefully
    R = residual_rows(problem, V_ext)
    return np.longdouble(0.5) * np.sum(_weighted(problem, R) * R, axis=1, dtype=np.longdouble)


def check_gradient(problem: ResidualProblem, v) -> GradientCheckReport:
    """Validate grad_phi against central differences of phi along the rows d_j of D.

    grad_phi comes from :func:`vjp_rows`: for a problem with ``vjp_batch``, the
    ``jacobian`` hook that Gauss-Newton reads without ``newton_solve`` goes unchecked.

    D is the identity when n <= CHECK_DIRECTIONS, so every coordinate is
    checked; above that, it is CHECK_DIRECTIONS fixed +-1 vectors that depend
    on n alone.  Row j is differenced with the step
    h_j = FD_STEP_SCALE*(1 + max_i |D_ji v_i|), which is FD_STEP_SCALE*(1+|v_j|)
    for the identity, and compared with d_j . grad_phi.  The check therefore
    evaluates at most 2*CHECK_DIRECTIONS perturbed points, whatever n is.

    The reference differences are evaluated in extended precision: at large
    residual scales the difference quotient would otherwise be dominated by
    the rounding of phi rather than by the gradient being checked.  The
    perturbed points go through :func:`residual_rows` in blocks of at most
    :func:`block_rows` rows.
    """
    v = np.asarray(v, dtype=float)
    analytic = grad_phi(problem, v)
    n = problem.n
    # a fixed seed: the directions depend on n alone, never on a run's seed
    D = np.eye(n) if n <= CHECK_DIRECTIONS else np.random.default_rng(0).choice(
        [-1.0, 1.0], size=(CHECK_DIRECTIONS, n))
    h = FD_STEP_SCALE * (1.0 + np.max(np.abs(D * v), axis=1))
    v_ext = v.astype(np.longdouble)
    numeric = np.empty(len(D))
    per_block = max(1, block_rows(problem) // 2)
    for start in range(0, len(D), per_block):
        block = slice(start, start + per_block)
        # rows 0..k-1 step +h_j d_j, rows k..2k-1 step -h_j d_j
        steps = h[block, None] * D[block]
        refs = _phi_references(problem, np.concatenate([v_ext + steps, v_ext - steps]))
        k = len(steps)
        numeric[block] = (refs[:k] - refs[k:]) / (2.0 * h[block]).astype(np.longdouble)
    err = float(np.max(np.abs(D @ analytic - numeric) / (1.0 + np.abs(numeric))))
    return GradientCheckReport(
        point=v,
        directions=D,
        analytic_gradient=analytic,
        numeric_derivatives=numeric,
        max_relative_error=err,
    )
