"""Ball-constrained descent on the least-squares functional.

Locates the zero a passing certificate promises: starting from the ball
center, iterate v <- P(v - t * grad phi(v)) with a backtracking line search,
where P keeps iterates in the closed ball.  A Gauss-Newton direction is
available as an accelerator under the same line-search safeguard and ball
policy.  Every failure mode is a status, not an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificate import Ball
from .exceptions import InvalidConfigurationError
from .functional import grad_phi, phi, residual_norm
from .problems import ResidualProblem, eval_jacobian, eval_residual

STEP_UNDERFLOW = 1e-16
CONTAINMENT_TOL = 1e-12

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERATIONS = "max_iterations"
STATUS_STALLED = "stalled"

CLIP_TO_BALL = "clip_to_ball"
REJECT_OUTSIDE = "reject_outside"


@dataclass(frozen=True)
class DescentConfig:
    """Iteration controls for :func:`solve`.

    ``ball_policy`` chooses what happens to a trial step landing outside the
    ball: "clip_to_ball" radially projects it onto the sphere (default),
    "reject_outside" treats it as a failed trial and shrinks the step.
    ``direction`` is "steepest" (gradient flow of phi, the default) or
    "gauss_newton" (least-squares model step, falling back to steepest
    whenever it is not a descent direction).
    """

    residual_tolerance: float = 1e-10
    max_iterations: int = 10000
    initial_step: float = 1.0
    backtrack_factor: float = 0.5
    sufficient_decrease: float = 1e-4
    ball_policy: str = CLIP_TO_BALL
    direction: str = "steepest"

    def __post_init__(self):
        if not self.residual_tolerance > 0.0:
            raise InvalidConfigurationError("residual_tolerance must be positive")
        if self.max_iterations < 0:
            raise InvalidConfigurationError("max_iterations must be nonnegative")
        if not self.initial_step > 0.0:
            raise InvalidConfigurationError("initial_step must be positive")
        if not 0.0 < self.backtrack_factor < 1.0:
            raise InvalidConfigurationError("backtrack_factor must lie in (0, 1)")
        if not 0.0 < self.sufficient_decrease < 1.0:
            raise InvalidConfigurationError("sufficient_decrease must lie in (0, 1)")
        if self.ball_policy not in (CLIP_TO_BALL, REJECT_OUTSIDE):
            raise InvalidConfigurationError(f"unknown ball_policy {self.ball_policy!r}")
        if self.direction not in ("steepest", "gauss_newton"):
            raise InvalidConfigurationError(f"unknown direction {self.direction!r}")


@dataclass(frozen=True)
class DescentResult:
    """Where descent ended up.

    status "converged" guarantees residual_norm <= residual_tolerance and
    in_ball; "stalled" means the accepted step size underflowed (typically:
    no zero reachable inside the ball); "max_iterations" is the budget.
    ``trace`` holds (k, phi, grad_norm, step) rows when requested.
    """

    u: np.ndarray
    residual_norm: float
    iterations: int
    in_ball: bool
    status: str
    trace: tuple | None = None


def _gauss_newton_direction(problem: ResidualProblem, v: np.ndarray) -> np.ndarray | None:
    f = eval_residual(problem, v)
    jac = eval_jacobian(problem, v)
    if problem.weights is not None:
        rw = np.sqrt(problem.weights)
        f = rw * f
        jac = rw[:, None] * jac
    d, *_ = np.linalg.lstsq(jac, -f, rcond=None)
    if not np.all(np.isfinite(d)):
        return None
    return d


def solve(
    problem: ResidualProblem,
    ball: Ball,
    config: DescentConfig | None = None,
    record_trace: bool = False,
) -> DescentResult:
    """Descend on phi from the ball center, keeping iterates in the ball.

    Steps are accepted once phi at the trial point is finite and decreases
    by at least sufficient_decrease * t * |<grad phi, direction>| (for
    steepest descent that is the classical sufficient_decrease * t *
    ||grad phi||^2); the trial step shrinks by backtrack_factor until then.
    Termination: residual below tolerance (converged), iteration budget, or
    accepted step size underflowing 1e-16 (stalled).  May be run without a certificate, in
    which case the result carries no existence guarantee.
    """
    cfg = config or DescentConfig()
    v = ball.center.astype(float)
    trace: list[tuple] | None = [] if record_trace else None

    k = 0
    rn = residual_norm(problem, v)
    status = None
    while True:
        if rn <= cfg.residual_tolerance:
            status = STATUS_CONVERGED
            break
        if k >= cfg.max_iterations:
            status = STATUS_MAX_ITERATIONS
            break

        g = grad_phi(problem, v)
        grad_norm = float(np.linalg.norm(g))
        if grad_norm == 0.0:
            status = STATUS_STALLED
            break
        d = None
        if cfg.direction == "gauss_newton":
            d = _gauss_newton_direction(problem, v)
            if d is not None and float(g @ d) >= 0.0:
                d = None
        if d is None:
            d = -g
        slope = float(g @ d)

        phi_v = phi(problem, v)
        t = cfg.initial_step
        accepted = False
        candidate = v
        while t >= STEP_UNDERFLOW:
            trial = v + t * d
            if not ball.contains(trial):
                if cfg.ball_policy == REJECT_OUTSIDE:
                    t *= cfg.backtrack_factor
                    continue
                offset = trial - ball.center
                trial = ball.center + offset * (ball.radius / float(np.linalg.norm(offset)))
            phi_trial = phi(problem, trial)
            # inf <= inf would accept a step that lowers nothing
            if math.isfinite(phi_trial) and phi_trial <= phi_v + cfg.sufficient_decrease * t * slope:
                accepted = True
                candidate = trial
                break
            t *= cfg.backtrack_factor
        if not accepted:
            status = STATUS_STALLED
            break

        if trace is not None:
            trace.append((k, phi_v, grad_norm, t))
        v = candidate
        rn = residual_norm(problem, v)
        k += 1

    return DescentResult(
        u=v,
        residual_norm=rn,
        iterations=k,
        in_ball=ball.contains(v, tol=CONTAINMENT_TOL),
        status=status,
        trace=tuple(trace) if trace is not None else None,
    )


def verify_solution(problem: ResidualProblem, u, ball: Ball, tolerance: float) -> bool:
    """True iff ||F(u)|| <= tolerance and u lies in the ball (tol 1e-12)."""
    u = np.asarray(u, dtype=float)
    return residual_norm(problem, u) <= tolerance and ball.contains(u, tol=CONTAINMENT_TOL)
