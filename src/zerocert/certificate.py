"""Existence certificates for zeros of a residual map on a closed ball.

A certificate checks two conditions on the ball B_r(x):

  1. a gradient-domination constant c >= 0 with
     ||grad phi(v)|| >= c * ||F(v)||   for v in B_r(x), and
  2. ||F(x)|| <= r * c.

When both hold, a zero of F exists inside the ball.  There is a built-in
tension between them: growing the ball usually shrinks the largest valid c
while the right-hand side r*c needs to stay large; the certificate records
the slack r*c - ||F(x)|| to quantify how the conflict resolved.

Two estimators for c are provided: the exact closed form for the quadratic
family, and a sampled minimum of ||grad phi|| / ||F||, scaled by a safety
factor.  The sampled points are a uniform grid in dimension 1 and, in higher
dimensions, the centre x and a few deterministic probes at distances r and
r/2 from it along the directions in which F changes least there: the right
singular vectors of W^(1/2) J(x) with the smallest singular values.  A
sampled minimum is an upper bound on the infimum over the ball, so sampled
certificates are advisory (an estimate, not a proven bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import InputShapeError, InvalidConfigurationError
from .functional import _weighted, residual_norm
from .problems import ResidualProblem, block_rows, eval_jacobian, residual_rows, vjp_rows

METHOD_CLOSED_FORM = "closed_form_quadratic"
METHOD_SAMPLED = "sampled"

PROBE_DIRECTIONS = 8  # in dimension n >= 2, probes lie along the min(8, n) weakest directions


def check_seed(seed: int) -> None:
    """Raise InvalidConfigurationError unless ``seed`` lies in [0, 2**32)."""
    if not 0 <= seed < 2**32:
        raise InvalidConfigurationError(f"seed must lie in [0, 2**32), got {seed}")


@dataclass(frozen=True)
class Ball:
    """Closed ball of radius r centered at the vector x (Euclidean norm on the domain)."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        if center.ndim != 1:
            raise InputShapeError(f"ball center must be a vector, got shape {center.shape}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))
        if not self.radius > 0.0:
            raise InvalidConfigurationError("radius must be positive")

    @property
    def n(self) -> int:
        return self.center.shape[0]

    def contains(self, v, tol: float = 0.0) -> bool:
        v = np.asarray(v, dtype=float)
        return float(np.linalg.norm(v - self.center)) <= self.radius + tol


@dataclass(frozen=True)
class SamplingConfig:
    """Settings for the sampled domination-constant estimator.

    Points with ||F(v)|| <= residual_floor are excluded from the infimum
    (the domination inequality is vacuous there and the ratio is ill
    conditioned).  ``safety`` in (0, 1] shrinks the estimate to hedge
    against the sampled infimum overshooting the true one.
    ``samples_per_axis`` is the size of the grid in dimension 1; in higher
    dimensions the probes do not depend on it.
    """

    samples_per_axis: int = 1001
    residual_floor: float = 1e-12
    safety: float = 0.9

    def __post_init__(self):
        if self.samples_per_axis < 2:
            raise InvalidConfigurationError("samples_per_axis must be at least 2")
        if not self.residual_floor > 0.0:
            raise InvalidConfigurationError("residual_floor must be positive")
        if not 0.0 < self.safety <= 1.0:
            raise InvalidConfigurationError("safety must lie in (0, 1]")


@dataclass(frozen=True)
class Certificate:
    """Verdict of the two ball conditions, with slack.

    ``lhs`` is ||F(x)||, ``rhs`` is r*c, ``passed`` is the non-strict
    comparison lhs <= rhs (ties pass), and ``slack = rhs - lhs``.  A passed
    certificate asserts a zero of F exists in the ball; when the method is
    "sampled" the constant is an estimate and the certificate is advisory
    (``advisory`` is set from ``method``).  Build one with :meth:`judge`,
    which holds the verdict rule.
    """

    ball: Ball
    c: float
    lhs: float
    rhs: float
    slack: float
    passed: bool
    method: str
    sample_count: int = 0
    advisory: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "advisory", self.method == METHOD_SAMPLED)

    @classmethod
    def judge(cls, ball: Ball, c: float, lhs: float, method: str,
              sample_count: int = 0) -> Certificate:
        """The verdict on ``ball`` for constant ``c`` and ``lhs = ||F(x)||``.

        A NaN or infinite ``lhs`` or ``c`` fails: ``inf <= inf`` proves nothing.
        """
        rhs, slack, passed = _verdict(ball.radius, c, lhs)
        return cls(ball=ball, c=c, lhs=lhs, rhs=rhs, slack=slack, passed=passed,
                   method=method, sample_count=sample_count)


def _verdict(radius, c, lhs):
    """The verdict rule: ``rhs = radius * c``, ``slack = rhs - lhs``, and ``passed`` when lhs
    and c are finite and ``lhs <= rhs``.  For floats, and alike for columns of c and lhs over
    a mu grid, whose overflow and inf - inf the caller's np.errstate keeps silent."""
    rhs = radius * c
    return rhs, rhs - lhs, (abs(lhs) < math.inf) & (abs(c) < math.inf) & (lhs <= rhs)


def quadratic_domination_constant(lam: float, x: float, r: float) -> float:
    """Largest domination constant for F(u) = lam*u**2 - 1 on [x-r, x+r].

    Away from zeros of F the domination inequality reduces to 2|lam*v| >= c,
    so the largest valid c is 2|lam| times the distance from the origin to
    the interval: zero when the ball straddles the origin, else 2|lam|(x-r)
    for balls right of it and 2|lam|(-x-r) for balls left of it.
    """
    if not r > 0.0:
        raise InvalidConfigurationError("ball radius must be positive")
    lam = float(lam)
    x = float(x)
    r = float(r)
    if x - r <= 0.0 <= x + r:
        return 0.0
    if x - r >= 0.0:
        return 2.0 * abs(lam) * (x - r)
    return 2.0 * abs(lam) * (-x - r)


def transformed_certificate_quadratic(lam: float, mu: float, x: float, r: float) -> Certificate:
    """Closed-form certificate for the mu-rescaled quadratic problem.

    Rescaling the domain by B(v) = mu*v turns F(u) = lam*u**2 - 1 into
    G(v) = (lam/mu**2)*v**2 - 1, whose certificate on B_r(x) has the same
    closed form with coefficient lam/mu**2.  Both sides of that comparison
    are reported multiplied by mu**2 (lhs = |lam*x**2 - mu**2|, rhs = r times
    the original problem's constant), which leaves the verdict unchanged,
    makes slacks comparable across mu, and at mu = 1 is :func:`certify`'s
    closed form: |lam*x**2 - 1| is ||F(x)||.  Only this original-scale form
    is evaluated, and the verdict is :meth:`Certificate.judge`'s.  This is
    the one-mu case of :func:`_quadratic_lhs`, which a sweep evaluates over
    its whole grid at once.
    """
    mu = float(mu)
    if mu == 0.0:
        raise InvalidConfigurationError("mu must be nonzero")
    lam = float(lam)
    x = float(x)
    r = float(r)
    c = quadratic_domination_constant(lam, x, r)
    return Certificate.judge(Ball(np.array([x]), r), c, _quadratic_lhs(lam, x, mu),
                             METHOD_CLOSED_FORM)


def _quadratic_lhs(lam: float, x: float, mu):
    """|lam*x**2 - mu**2| for a float mu, or for each mu of an array.  Float arithmetic
    overflows without a warning; for an array the caller's np.errstate keeps it silent."""
    return abs(lam * x * x - mu * mu)


def _sample_count(n: int, samples_per_axis: int) -> int:
    """How many points :func:`_sample_points` takes per mu in dimension ``n``: a grid of
    ``samples_per_axis`` points, at most 10**6, in dimension 1, else the centre and
    4 * min(8, n) probes."""
    return min(samples_per_axis, 10**6) if n == 1 else 4 * min(PROBE_DIRECTIONS, n) + 1


def _sample_points(problem: ResidualProblem, ball: Ball, samples_per_axis: int,
                   mus: np.ndarray) -> np.ndarray:
    """The points of the sampled estimate on ``ball`` of G(v) = F(v/mu), one (count, n) set
    for each mu in ``mus`` (F's own at mu = 1.0), as a (len(mus), count, n) array.

    Dimension 1 takes the uniform grid with both ends, the same for every mu.  Otherwise
    the points are the centre x, where a critical point of phi that is no zero gives c = 0,
    and the probes x +- r*v and x +- (r/2)*v over the k = min(8, n) right singular vectors
    v of W^(1/2) J with the smallest singular values, where J = eval_jacobian(F, x/mu) *
    (1.0/mu) is G's Jacobian at x as :func:`recover_problem_independent` computes it, each
    v rounded to float32.  A J that is not finite gives NaN points, at which F, and so
    every ratio, is NaN.
    """
    x, r, count = ball.center, ball.radius, _sample_count(problem.n, samples_per_axis)
    if problem.n == 1:
        grid = np.linspace(x[0] - r, x[0] + r, count)
        return np.broadcast_to(grid[:, None], (len(mus), count, 1))
    m, n, k = problem.m, problem.n, count // 4
    points = np.full((len(mus), count, n), np.nan)
    for out, mu in zip(points, mus):
        jac = eval_jacobian(problem, x / mu) * (1.0 / mu)
        if problem.weights is not None:
            jac *= np.sqrt(problem.weights)[:, None]
        if np.isfinite(jac).all():  # the rows of vh past m (m < n) span J's null space
            # rounded to float32, so that no probe hangs on the last bits the BLAS kernel
            # gives the SVD: a config gives the same report on every CPU
            weakest = np.linalg.svd(jac, full_matrices=m < n)[2][-k:].astype(np.float32)
            offsets = np.concatenate([weakest, -weakest], dtype=float)
            out[:] = x + np.concatenate([np.zeros((1, n)), r * offsets, (0.5 * r) * offsets])
    return points


def domination_constant_sampled(
    problem: ResidualProblem,
    ball: Ball,
    samples_per_axis: int = 1001,
    residual_floor: float = 1e-12,
    safety: float = 0.9,
) -> float:
    """Estimate the domination constant as a sampled infimum over the ball.

    Returns safety * min ||grad phi(v)|| / ||F(v)|| over the points of
    :func:`_sample_points` with ||F(v)|| above the floor: in dimension 1 a
    uniform grid of ``samples_per_axis`` points (at most 10^6) including both
    endpoints, in higher dimensions the centre and 4 * min(8, n) probes along
    the directions in which F changes least there, where points spread over
    the ball overshoot the infimum by orders of magnitude once n is large.
    For a square J each probe ratio is at least the smallest singular value
    of W^(1/2) J at the probe.  The estimate is still an upper bound on the
    infimum, not a proof: in low dimension the probes can miss a critical
    point of phi off the centre that points spread over the ball would find.
    Returns 0 when every point sits at the floor (the infimum is
    undetermined) or when any residual norm or ratio is NaN or infinite (the
    norm is infinite where the squares of F overflow, and every ratio is NaN
    where the Jacobian at the centre is not finite); both yield a
    conservative certificate.  A ball of another dimension than the
    problem's raises InputShapeError (:func:`check_dimension`).
    """
    check_dimension(problem, ball)
    cfg = SamplingConfig(samples_per_axis, residual_floor, safety)
    return _sampled_infimum(problem, ball, cfg, [1.0])[0]


def _sampled_infimum(problem: ResidualProblem, ball: Ball, cfg: SamplingConfig,
                     mus: np.ndarray | list[float]) -> list[float]:
    """:func:`domination_constant_sampled` on ``ball``, with ``cfg``'s settings, of
    G(v) = F(v/mu) for each mu in ``mus`` (at mu = 1.0, F's own: v/1.0 is v).

    One pass: the rows v/mu go through :func:`residual_rows` and :func:`vjp_rows` in blocks
    of :func:`block_rows` rows at most, each the points of several whole mu, or a run of the
    points of one; a block's points are taken from :func:`_sample_points` as it starts.  A
    row's gradient is F's divided by its mu.  A norm sqrt(sum(w * F * F)) that is infinite
    makes its ratio 0 or NaN, and a ratio that is not finite gives its mu c = 0.
    """
    n, count, size = problem.n, _sample_count(problem.n, cfg.samples_per_axis), block_rows(problem)
    per, step = max(1, size // count), min(size, count)  # mu and points of one block
    mus = np.asarray(mus, dtype=float)
    best = np.full(len(mus), math.inf)
    with np.errstate(all="ignore"):
        for k in range(0, len(mus), per):
            points = _sample_points(problem, ball, cfg.samples_per_axis, mus[k:k + per])
            mu = mus[k:k + per, None, None]
            for lo in range(0, count, step):
                W = (points[:, lo:lo + step] / mu).reshape(-1, n)
                R = np.asarray(residual_rows(problem, W), dtype=float)
                wR = _weighted(problem, R)
                rn = np.sqrt(np.sum(wR * R, axis=1))
                keep = rn > cfg.residual_floor  # a row at the floor needs no gradient
                G = vjp_rows(problem, W, wR) if keep.any() else np.zeros_like(W)
                ratio = np.linalg.norm(G.reshape(len(mu), -1, n) / mu, axis=2).ravel() / rn
                ratio[~np.isfinite(ratio)] = -math.inf  # which gives c = 0
                ratio[rn <= cfg.residual_floor] = math.inf  # a point at the floor is left out
                best[k:k + per] = np.minimum(best[k:k + per], ratio.reshape(len(mu), -1).min(1))
    return [cfg.safety * c if math.isfinite(c) else 0.0 for c in best.tolist()]


def check_dimension(problem: ResidualProblem, ball: Ball) -> None:
    """Raise InputShapeError unless the ball lies in the problem's domain R^n."""
    if ball.n != problem.n:
        raise InputShapeError(f"ball center has dimension {ball.n}, problem expects {problem.n}")


def check_method(problem: ResidualProblem, method: str) -> None:
    """Raise InvalidConfigurationError unless ``method`` can certify ``problem``.

    ``closed_form_quadratic`` is only valid for the quadratic built-in family.
    """
    if method not in (METHOD_CLOSED_FORM, METHOD_SAMPLED):
        raise InvalidConfigurationError(
            f"unknown method {method!r}, expected {METHOD_CLOSED_FORM!r} or {METHOD_SAMPLED!r}"
        )
    if method == METHOD_CLOSED_FORM and not problem.is_quadratic:
        raise InvalidConfigurationError(
            f"method {method!r} requires the quadratic problem, got {problem.name!r}"
        )


def certify(
    problem: ResidualProblem,
    ball: Ball,
    method: str = METHOD_SAMPLED,
    sampling: SamplingConfig | None = None,
) -> Certificate:
    """Check both ball conditions and report the verdict with slack.

    ``method`` must pass :func:`check_method`; the closed form is
    :func:`transformed_certificate_quadratic` at mu = 1.  The verdict follows
    :meth:`Certificate.judge`: ties lhs == rhs pass, a NaN or infinite lhs
    or c fails.
    """
    check_dimension(problem, ball)
    check_method(problem, method)
    if method == METHOD_CLOSED_FORM:
        return transformed_certificate_quadratic(problem.params["lambda"], 1.0, ball.center[0],
                                                 ball.radius)
    cfg = sampling or SamplingConfig()
    c = domination_constant_sampled(problem, ball, cfg.samples_per_axis, cfg.residual_floor,
                                    cfg.safety)
    with np.errstate(over="ignore", invalid="ignore"):  # F may overflow at the centre: lhs inf
        return Certificate.judge(ball, c, residual_norm(problem, ball.center), method,
                                 _sample_count(problem.n, cfg.samples_per_axis))
