"""Ball-constrained descent on the least-squares functional.

Locates the zero a passing certificate promises: starting from the ball
center, iterate v <- P(v - t * grad phi(v)) with a backtracking line search,
where P keeps iterates in the closed ball.  A Gauss-Newton direction is
available as an accelerator under the same line-search safeguard and ball
policy.  Every failure mode is a status, not an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .certificate import Ball
from .exceptions import InvalidConfigurationError
from .functional import (_compensated_sum, _weighted, norm_of_residual, phi_of_residual,
                         residual_norm)
from .problems import (TAIL_ELEMENTS, ResidualProblem, block_rows, checked_output, eval_jacobian,
                       eval_residual, residual_rows, vjp_rows)

STEP_UNDERFLOW = 1e-16
MAX_LADDER = 10**6  # steps from initial_step to the first below STEP_UNDERFLOW: 8 MB
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
    # the ladder initial_step * backtrack_factor^j, one product after another, down to
    # the last entry >= STEP_UNDERFLOW; read-only, and built here once
    steps: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.residual_tolerance < math.inf:  # an infinite one proves nothing
            raise InvalidConfigurationError("residual_tolerance must lie in (0, inf)")
        if not (isinstance(self.max_iterations, (int, np.integer)) and self.max_iterations >= 0):
            raise InvalidConfigurationError("max_iterations must be an integer >= 0")
        if not STEP_UNDERFLOW <= self.initial_step < math.inf:  # else no step, or no end
            raise InvalidConfigurationError(f"initial_step must lie in [{STEP_UNDERFLOW:g}, inf)")
        if not 0.0 < self.backtrack_factor < 1.0:
            raise InvalidConfigurationError("backtrack_factor must lie in (0, 1)")
        # the rounded logs count the entries down to the first below STEP_UNDERFLOW to
        # within one (one short at 2.5711008708143844e+45 and 0.5), so the products run one
        # entry past that count, which they then make exact
        ladder = math.floor((math.log(STEP_UNDERFLOW) - math.log(self.initial_step))
                            / math.log(self.backtrack_factor)) + 2
        if ladder <= MAX_LADDER + 1:  # else the count is too long to keep, to within one
            steps = np.full(ladder + 1, self.backtrack_factor)
            steps[0] = self.initial_step
            steps = np.multiply.accumulate(steps)  # non-increasing, as 0 < factor < 1
            steps = steps[:np.count_nonzero(steps >= STEP_UNDERFLOW)]
            ladder = len(steps) + 1
        if ladder > MAX_LADDER:
            raise InvalidConfigurationError(
                f"backtrack_factor {self.backtrack_factor!r} needs {ladder} steps from "
                f"initial_step down to {STEP_UNDERFLOW:g}, more than {MAX_LADDER}")
        steps.flags.writeable = False
        object.__setattr__(self, "steps", steps)
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


def _line_search(problem: ResidualProblem, ball: Ball, cfg: DescentConfig, v: np.ndarray,
                 d: np.ndarray, slope: float, phi_v: float, size: int) -> tuple | None:
    """The first ``cfg.steps`` entry whose trial passes, as (index, trial, F(trial), phi(trial)).

    The ladder is searched in blocks, the first of ``size`` entries, each
    later one twice as long, none longer than :func:`block_rows`.  None when
    no entry passes.  A trial whose float sum of squares is NaN, infinite or
    proves phi(trial) >= phi(v) is rejected without its compensated sum;
    every other trial's phi is the compensated sum.  Rows past the first
    passing one are speculative: they may overflow where the sequential
    ladder would never evaluate them, so the caller, :func:`solve`, runs the
    search with numpy's floating-point errors ignored.
    """
    steps, max_rows = cfg.steps, block_rows(problem)
    size = min(size, max_rows)
    # A row is skipped soundly: the float sum S of its m nonnegative terms has |S - E| <=
    # gamma_{m-1} E <= 2(m-1)u E, u = 2^-53, for their exact sum E (Higham 2002, 4.2; an
    # addition below 2^-1022 is exact).  1 + 8mu is exact, and limit >= 2 phi_v (1 + 8mu)(1 - u)
    # >= 2 phi_v (1 + 2(m-1)u) while normal; below 2^-1022, limit >= 2 phi_v and S is exact or
    # >= 2^-1022 > 2 phi_v (1 + 8mu).  So S > limit gives E > 2 phi_v: fsum / 2 >= phi_v.  The
    # bound holds where a partial sum overflows too; an infinite or NaN term gives fsum inf or NaN.
    limit = 2.0 * phi_v * (1.0 + 4 * problem.m * 2.0**-52)
    clip = cfg.ball_policy == CLIP_TO_BALL
    j = 0
    while j < len(steps):
        trials = v + steps[j:j + size, None] * d
        offsets = trials - ball.center
        norms = _row_norms(offsets)
        inside = norms <= ball.radius
        if clip and np.count_nonzero(inside) < len(inside):
            offsets *= (ball.radius / norms)[:, None]
            offsets += ball.center
            np.copyto(offsets, trials, where=inside[:, None])
            trials = offsets
        # a trial equal to v has phi(v) and cannot pass: only the others are evaluated
        moved = (trials != v).any(axis=1)
        keep = moved if clip else moved & inside
        rows = trials if np.count_nonzero(keep) == len(keep) else trials[keep]
        if len(rows):
            kept = range(len(rows)) if rows is trials else keep.nonzero()[0]
            R = np.asarray(residual_rows(problem, rows), dtype=float)
            terms = _weighted(problem, R) * R
            for row in (terms.sum(axis=1) <= limit).nonzero()[0]:
                phi_trial = 0.5 * _compensated_sum(terms[row].tolist())
                i = kept[row]
                bound = phi_v + cfg.sufficient_decrease * steps[j + i] * slope
                if phi_trial < phi_v and phi_trial <= bound:
                    return j + int(i), trials[i], R[row], phi_trial
        j += size
        size = min(2 * size, max_rows)
    return None


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
    whose trial passes is accepted; the ladder is ``config.steps``, built
    once by :class:`DescentConfig`.  Termination: residual below tolerance
    (converged), iteration budget, or no trial passing before t falls below
    1e-16 (stalled); a slope that is zero, infinite or NaN lets no trial
    pass, so it stalls without evaluating one.  Without a certificate the
    result carries no existence guarantee.

    A problem with ``vjp_batch`` has its ladder evaluated in blocks of
    trials, one batched ``residual`` call each: the first block holds
    ladder entries 0 ... a + s, where a is the index the previous iteration
    accepted and the speculative tail s = max(2, 64 // n) shrinks as rows
    get dearer (``problems.TAIL_ELEMENTS``), each later block is twice as
    long, and none exceeds :func:`residual_rows`'s element bound.  The first passing trial in
    ladder order is the one the sequential search accepts, so the iterates
    are bit-identical to it.  Any other problem evaluates one trial at a
    time.  A trial whose float sum of squares is NaN, infinite or proves
    phi_trial >= phi(v) is rejected without the compensated sum; every
    other phi_trial, and so the accepted one, is that sum.  The accepted
    trial's residual gives the next iterate's gradient and Gauss-Newton
    step, and its phi, where above 2^-1022, the norm.  Everything runs with
    numpy's floating-point errors ignored, set once per solve: an overflow or
    a NaN is a value that ends in a status, never a warning.
    """
    cfg = config or DescentConfig()
    v = ball.center.astype(float)
    trace: list[tuple] | None = [] if record_trace else None
    # the ladder index the last line search accepted, and how many entries past it the next
    # search's first block speculates: fewer as a row of n entries costs more
    accepted, tail = 0, max(2, TAIL_ELEMENTS // problem.n)

    k = 0
    status = STATUS_CONVERGED
    with np.errstate(all="ignore"):  # an overflow or a NaN is a value, and then a status
        r = eval_residual(problem, v)
        rn = norm_of_residual(problem, r)
        phi_v = phi_of_residual(problem, r)
        while not rn <= cfg.residual_tolerance:  # a NaN norm has not converged
            if k >= cfg.max_iterations:
                status = STATUS_MAX_ITERATIONS
                break

            g = vjp_rows(problem, v[None], _weighted(problem, r)[None])[0]
            gg = float(g @ g)
            d = _gauss_newton_direction(problem, v, r) if cfg.direction == "gauss_newton" else None
            slope = 0.0 if d is None else float(g @ d)
            if slope >= 0.0:  # steepest, whose slope g @ -g is -(g @ g) bit for bit
                d, slope = -g, -gg
            if not -math.inf < slope < 0.0:
                status = STATUS_STALLED
                break

            found = _line_search(problem, ball, cfg, v, d, slope, phi_v, accepted + 1 + tail)
            if found is None:
                status = STATUS_STALLED
                break

            if trace is not None:  # np.linalg.norm(g) bit for bit: its own 1-D formula
                trace.append((k, phi_v, math.sqrt(gg), float(cfg.steps[found[0]])))
            accepted, v, r, phi_v = found  # above 2^-1022, phi is exactly half the sum of squares:
            rn = math.sqrt(2.0 * phi_v) if phi_v > 2.0**-1022 else norm_of_residual(problem, r)
            k += 1

        return DescentResult(u=v, residual_norm=rn, iterations=k,
                             in_ball=ball.contains(v, tol=CONTAINMENT_TOL), status=status,
                             trace=tuple(trace) if trace is not None else None)


def verify_solution(problem: ResidualProblem, u, ball: Ball, tolerance: float) -> bool:
    """True iff ||F(u)|| <= tolerance and u lies in the ball (tol 1e-12)."""
    u = np.asarray(u, dtype=float)
    return residual_norm(problem, u) <= tolerance and ball.contains(u, tol=CONTAINMENT_TOL)
