"""Ball-constrained descent on the least-squares functional.

Locates the zero a passing certificate promises: starting from the ball
center, iterate v <- P(v - t * grad phi(v)) with a backtracking line search,
where P keeps iterates in the closed ball.  A Gauss-Newton direction is
available as an accelerator under the same line-search safeguard and ball
policy.  Every failure mode is a status, not an exception.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .certificate import Ball
from .exceptions import InvalidConfigurationError
from .functional import (_compensated_sum, _weighted, grad_of_residual, norm_of_residual,
                         phi_of_residual, residual_norm)
from .problems import (
    ResidualProblem,
    block_rows,
    checked_output,
    eval_jacobian,
    eval_residual,
    residual_rows,
)

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
    "gauss_newton" (least-squares model step, through the problem's
    ``newton_solve`` when it has one, falling back to steepest whenever it
    is not a descent direction).
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
    in_ball; "stalled" means that no trial step lowered phi strictly
    (typically: no zero reachable inside the ball, or the residual at its
    rounding floor); "max_iterations" is the budget.
    ``trace`` holds (k, phi, grad_norm, step) rows when requested.
    """

    u: np.ndarray
    residual_norm: float
    iterations: int
    in_ball: bool
    status: str
    trace: tuple | None = None


def _gauss_newton_direction(problem: ResidualProblem, v: np.ndarray, f: np.ndarray) -> np.ndarray | None:
    if problem.newton_solve is not None:
        # J is square and nonsingular: the weighted least-squares step is the Newton step
        if not np.isfinite(f).all():
            return None
        d = checked_output(problem, "newton_solve", problem.newton_solve(v, -f), (problem.n,))
    else:
        jac = eval_jacobian(problem, v)
        if problem.weights is not None:
            rw = np.sqrt(problem.weights)
            f = rw * f
            jac = rw[:, None] * jac
        if not (np.isfinite(f).all() and np.isfinite(jac).all()):  # lstsq would raise
            return None
        d, *_ = np.linalg.lstsq(jac, -f, rcond=None)
    if not np.all(np.isfinite(d)):
        return None
    return d


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Each row's norm in one call, bit for bit np.linalg.norm(row) as Ball.contains takes it."""
    return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])


def _line_search(problem: ResidualProblem, ball: Ball, cfg: DescentConfig, ladder: list,
                 v: np.ndarray, d: np.ndarray, slope: float, phi_v: float,
                 size: int) -> tuple | None:
    """The first ladder entry whose trial passes, as (index, trial, F(trial), phi(trial)).

    The ladder is searched in blocks, the first of ``size`` entries, each
    later one twice as long, none longer than :func:`block_rows`; ``ladder``
    grows by the same repeated multiplication until its last entry falls
    below STEP_UNDERFLOW.  None when no entry above it passes.  A trial whose
    float sum of squares proves phi(trial) >= phi(v) is rejected without its
    compensated sum; every other trial's phi is the compensated sum.
    """
    max_rows = block_rows(problem)
    size = min(size, max_rows)
    # A row is skipped soundly: the float sum S of its m nonnegative terms has |S - E| <=
    # gamma_{m-1} E <= 2(m-1)u E, u = 2^-53, for their exact sum E (Higham 2002, 4.2; an
    # addition below 2^-1022 is exact).  1 + 8mu is exact, and limit >= 2 phi_v (1 + 8mu)(1 - u)
    # >= 2 phi_v (1 + 2(m-1)u) while normal; below 2^-1022, limit >= 2 phi_v and S is exact or
    # >= 2^-1022 > 2 phi_v (1 + 8mu).  So S > limit gives E > 2 phi_v: fsum / 2 >= phi_v.
    limit = 2.0 * phi_v * (1.0 + 4 * problem.m * 2.0**-52)
    j = 0
    while True:
        while len(ladder) < j + size and ladder[-1] >= STEP_UNDERFLOW:
            ladder.append(ladder[-1] * cfg.backtrack_factor)
        steps = ladder[j:min(j + size, len(ladder) - (ladder[-1] < STEP_UNDERFLOW))]
        if not steps:
            return None
        # rows past the first passing one are speculative: they may overflow
        # where the sequential ladder would never have evaluated them
        with np.errstate(all="ignore") if len(steps) > 1 else contextlib.nullcontext():
            trials = v + np.array(steps)[:, None] * d
            offsets = trials - ball.center
            norms = _row_norms(offsets)
            inside = norms <= ball.radius
            clip = cfg.ball_policy == CLIP_TO_BALL
            if clip and np.count_nonzero(inside) < len(inside):
                trials = np.where(inside[:, None], trials,
                                  ball.center + offsets * (ball.radius / norms)[:, None])
            # a trial equal to v has phi(v) and cannot pass: only the others are evaluated
            moved = (trials != v).any(axis=1)
            keep = moved if clip else moved & inside
            rows = trials if np.count_nonzero(keep) == len(keep) else trials[keep]
            if len(rows):
                kept = range(len(rows)) if rows is trials else keep.nonzero()[0]
                R = np.asarray(residual_rows(problem, rows), dtype=float)
                terms = _weighted(problem, R) * R
                with np.errstate(over="ignore"):  # silent, as the compensated sum's inf is
                    sums = terms.sum(axis=1)
                for row in (~(np.isfinite(sums) & (sums > limit))).nonzero()[0]:
                    phi_trial = 0.5 * _compensated_sum(terms[row].tolist())
                    i = kept[row]
                    bound = phi_v + cfg.sufficient_decrease * steps[i] * slope
                    if phi_trial < phi_v and phi_trial <= bound:
                        return j + int(i), trials[i], R[row], phi_trial
        j += len(steps)
        size = min(2 * size, max_rows)


def solve(
    problem: ResidualProblem,
    ball: Ball,
    config: DescentConfig | None = None,
    record_trace: bool = False,
) -> DescentResult:
    """Descend on phi from the ball center, keeping iterates in the ball.

    A trial step is accepted iff phi_trial < phi(v) and phi_trial <= phi(v)
    + sufficient_decrease * t * <grad phi, direction>: a trial that does not
    move, or whose phi is NaN or infinite, never passes.  The steps t run
    down the ladder initial_step * backtrack_factor^j, and the first one
    whose trial passes is accepted.  Termination: residual below tolerance
    (converged), iteration budget, or no trial passing before t falls below
    1e-16 (stalled); a slope that is zero, infinite or NaN lets no trial
    pass, so it stalls without evaluating one.  Without a certificate the
    result carries no existence guarantee.

    A problem with ``vjp_batch`` has its ladder evaluated in blocks of
    trials, one batched ``residual`` call each: the first block holds
    ladder entries 0 ... 2a + 1, where a is the index the previous
    iteration accepted, each later block is twice as long, and none exceeds
    :func:`residual_rows`'s element bound.  The first passing trial in
    ladder order is the one the sequential search accepts, so the iterates
    are bit-identical to it.  Any other problem evaluates one trial at a
    time.  A trial whose float sum of squares proves phi_trial >= phi(v) is
    rejected without the compensated sum; every other phi_trial, and so the
    accepted one, is that sum.  The accepted trial's residual gives the next
    iterate's gradient and Gauss-Newton step, and its phi, where above
    2^-1022, the norm.
    """
    cfg = config or DescentConfig()
    v = ball.center.astype(float)
    trace: list[tuple] | None = [] if record_trace else None
    ladder = [cfg.initial_step]
    accepted = 0  # the ladder index of the last accepted step

    k = 0
    r = eval_residual(problem, v)
    rn = norm_of_residual(problem, r)
    phi_v = phi_of_residual(problem, r)
    status = STATUS_CONVERGED
    while not rn <= cfg.residual_tolerance:  # a NaN norm has not converged
        if k >= cfg.max_iterations:
            status = STATUS_MAX_ITERATIONS
            break

        g = grad_of_residual(problem, v, r)
        gg = float(g @ g)
        d = _gauss_newton_direction(problem, v, r) if cfg.direction == "gauss_newton" else None
        slope = 0.0 if d is None else float(g @ d)
        if slope >= 0.0:  # steepest, whose slope g @ -g is -(g @ g) bit for bit
            d, slope = -g, -gg
        if not -math.inf < slope < 0.0:
            status = STATUS_STALLED
            break

        found = _line_search(problem, ball, cfg, ladder, v, d, slope, phi_v, 2 * (accepted + 1))
        if found is None:
            status = STATUS_STALLED
            break

        if trace is not None:  # np.linalg.norm(g) bit for bit: its own 1-D formula
            trace.append((k, phi_v, math.sqrt(gg), ladder[found[0]]))
        accepted, v, r, phi_v = found  # above 2^-1022, phi is exactly half the sum of squares:
        rn = math.sqrt(2.0 * phi_v) if phi_v > 2.0**-1022 else norm_of_residual(problem, r)
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
