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
family, and a conservative sampled infimum of ||grad phi|| / ||F|| over the
ball.  Sampled certificates are advisory (an estimate, not a proven bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import InputShapeError, InvalidConfigurationError, InvalidMethodError
from .functional import _weights, grad_phi, residual_norm
from .problems import ResidualProblem, checked_output

METHOD_CLOSED_FORM = "closed_form_quadratic"
METHOD_SAMPLED = "sampled"

SAMPLE_CAP = 10**6  # hard cap on sampled points in every dimension
SCREEN_CHUNK = 4096  # rows per batched evaluation: bounds the screen's temporaries

# Relative margin of the batched screen.  Batched norms and ratios are summed
# in another order than the per-point path's, so they differ from it in the
# last bits: over 567 250 sampled points (BVP n = 4, 10, 16, plain and
# weighted, two balls each, and the quadratic) 186 182 ratios differed, by
# at most 6.5e-16 relative.  A screened value alone would therefore change
# report bytes; the screen only narrows the points and the per-point path
# recomputes every candidate, which keeps c bit-identical.  1e-6 leaves
# about 10^9 times the observed difference as headroom; it would not cover a
# gradient J^T F that cancels to 1e-10 of its terms, whose batched and
# per-point values can then differ by more than the margin.
SCREEN_MARGIN = 1e-6


def check_seed(seed: int) -> None:
    """Raise InvalidConfigurationError unless ``seed`` lies in [0, 2**32)."""
    if not 0 <= seed < 2**32:
        raise InvalidConfigurationError(f"seed must lie in [0, 2**32), got {seed}")


@dataclass(frozen=True)
class Ball:
    """Closed ball of radius r centered at x (Euclidean norm on the domain)."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
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
    """

    samples_per_axis: int = 1001
    residual_floor: float = 1e-12
    safety: float = 0.9
    seed: int = 42

    def __post_init__(self):
        if self.samples_per_axis < 2:
            raise InvalidConfigurationError("samples_per_axis must be at least 2")
        if not self.residual_floor > 0.0:
            raise InvalidConfigurationError("residual_floor must be positive")
        if not 0.0 < self.safety <= 1.0:
            raise InvalidConfigurationError("safety must lie in (0, 1]")
        check_seed(self.seed)


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
        rhs = ball.radius * c
        passed = math.isfinite(lhs) and math.isfinite(c) and lhs <= rhs
        return cls(ball=ball, c=c, lhs=lhs, rhs=rhs, slack=rhs - lhs, passed=passed,
                   method=method, sample_count=sample_count)


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


def _first_primes(k: int) -> list[int]:
    primes: list[int] = []
    cand = 2
    while len(primes) < k:
        if all(cand % p for p in primes):
            primes.append(cand)
        cand += 1
    return primes


def _radical_inverse(indices: np.ndarray, base: int) -> np.ndarray:
    """Van der Corput radical inverse of each index in the given base."""
    i = indices.astype(np.int64)
    f = 1.0
    out = np.zeros(len(i))
    while np.any(i > 0):
        f /= base
        out += f * (i % base)
        i //= base
    return out


def sample_ball(center: np.ndarray, radius: float, count: int, seed: int = 42) -> np.ndarray:
    """Deterministic low-discrepancy points uniform in a ball.

    Halton points feed Box-Muller pairs to get quasi-random directions; one
    extra Halton dimension gives the radius via the u**(1/n) law.  ``seed``
    offsets the start of the Halton sequence, so runs are reproducible; it
    must pass :func:`check_seed`.
    """
    check_seed(seed)
    center = np.asarray(center, dtype=float)
    n = center.shape[0]
    pairs = (n + 1) // 2
    bases = _first_primes(2 * pairs + 1)
    # disjoint index windows per seed, so different seeds share no points
    start = 1 + seed * count
    idx = np.arange(start, start + count)
    u = np.column_stack([_radical_inverse(idx, b) for b in bases])
    z = np.empty((count, 2 * pairs))
    for p in range(pairs):
        rho = np.sqrt(-2.0 * np.log(u[:, 2 * p]))
        ang = 2.0 * np.pi * u[:, 2 * p + 1]
        z[:, 2 * p] = rho * np.cos(ang)
        z[:, 2 * p + 1] = rho * np.sin(ang)
    z = z[:, :n]
    norms = np.linalg.norm(z, axis=1)
    norms[norms == 0.0] = 1.0
    radii = radius * u[:, -1] ** (1.0 / n)
    return center + z / norms[:, None] * radii[:, None]


def _sample_count(n: int, samples_per_axis: int) -> int:
    """How many points :func:`_sample_points` draws in dimension ``n``."""
    return min(samples_per_axis**n, SAMPLE_CAP)


def _sample_points(problem: ResidualProblem, ball: Ball, samples_per_axis: int, seed: int) -> np.ndarray:
    count = _sample_count(problem.n, samples_per_axis)
    if problem.n == 1:
        x = ball.center[0]
        return np.linspace(x - ball.radius, x + ball.radius, count)[:, None]
    return sample_ball(ball.center, ball.radius, count, seed)


def _screen(problem: ResidualProblem, points: np.ndarray, floor: float) -> np.ndarray | slice:
    """The points that can attain the sampled infimum, found in batches of points.

    Keeps points clearly above the residual floor whose batched ratio is
    within SCREEN_MARGIN of the least such ratio, and points within
    SCREEN_MARGIN of the floor itself.  Keeps every point (``slice(None)``)
    when a batched residual norm, or a ratio not clearly below the floor, is
    NaN or infinite, so the per-point path decides those cases.
    """
    w = _weights(problem)
    rn = np.empty(len(points))
    ratio = np.empty(len(points))
    with np.errstate(all="ignore"):
        for start in range(0, len(points), SCREEN_CHUNK):
            rows = slice(start, start + SCREEN_CHUNK)
            V = points[rows]
            R = checked_output(problem, "residual", problem.residual(V), (len(V), problem.m))
            G = checked_output(problem, "vjp_batch", problem.vjp_batch(V, w * R),
                               (len(V), problem.n))
            rn[rows] = np.sqrt(np.sum(w * R * R, axis=1))
            ratio[rows] = np.linalg.norm(G, axis=1) / rn[rows]
    below = rn < floor * (1.0 - SCREEN_MARGIN)
    if not (np.isfinite(rn).all() and np.isfinite(ratio[~below]).all()):
        return slice(None)
    keep = np.abs(rn - floor) <= SCREEN_MARGIN * floor
    above = rn > floor * (1.0 + SCREEN_MARGIN)
    if above.any():
        keep |= above & (ratio <= ratio[above].min() * (1.0 + SCREEN_MARGIN))
    return np.flatnonzero(keep)


def domination_constant_sampled(
    problem: ResidualProblem,
    ball: Ball,
    samples_per_axis: int = 1001,
    residual_floor: float = 1e-12,
    safety: float = 0.9,
    seed: int = 42,
) -> float:
    """Estimate the domination constant as a sampled infimum over the ball.

    Returns safety * min ||grad phi(v)|| / ||F(v)|| over sampled points with
    ||F(v)|| above the floor, at most 10^6 of them.  In dimension 1 the
    samples are a uniform grid including both endpoints; in higher
    dimensions a deterministic low-discrepancy sequence in the ball.  Returns 0
    when every sampled point sits at the floor (the infimum is undetermined)
    or when any sampled residual norm or ratio is NaN or infinite; both
    yield a conservative certificate.

    A problem with a ``vjp_batch`` has its points screened first
    (:func:`_screen`); only the candidates go through the per-point loop,
    which gives the same value as running it on every point.
    """
    cfg = SamplingConfig(samples_per_axis, residual_floor, safety, seed)
    points = _sample_points(problem, ball, cfg.samples_per_axis, cfg.seed)
    if problem.vjp_batch is not None:
        points = points[_screen(problem, points, cfg.residual_floor)]
    best = np.inf
    for v in points:
        rn = residual_norm(problem, v)
        if rn <= cfg.residual_floor:
            continue
        ratio = float(np.linalg.norm(grad_phi(problem, v))) / rn
        if not math.isfinite(ratio):
            return 0.0
        if ratio < best:
            best = ratio
    if not np.isfinite(best):
        return 0.0
    return cfg.safety * best


def check_method(problem: ResidualProblem, method: str) -> None:
    """Raise InvalidMethodError unless ``method`` can certify ``problem``.

    ``closed_form_quadratic`` is only valid for the quadratic built-in family.
    """
    if method not in (METHOD_CLOSED_FORM, METHOD_SAMPLED):
        raise InvalidMethodError(
            f"unknown method {method!r}, expected {METHOD_CLOSED_FORM!r} or {METHOD_SAMPLED!r}"
        )
    if method == METHOD_CLOSED_FORM and not problem.is_quadratic:
        raise InvalidMethodError(
            f"method {method!r} requires the quadratic problem, got {problem.name!r}"
        )


def certify(
    problem: ResidualProblem,
    ball: Ball,
    method: str = METHOD_SAMPLED,
    sampling: SamplingConfig | None = None,
) -> Certificate:
    """Check both ball conditions and report the verdict with slack.

    ``method`` must pass :func:`check_method`.  The verdict follows
    :meth:`Certificate.judge`: ties lhs == rhs pass, a NaN or infinite lhs
    or c fails.
    """
    if ball.n != problem.n:
        raise InputShapeError(
            f"ball center has dimension {ball.n}, problem expects {problem.n}"
        )
    check_method(problem, method)
    if method == METHOD_CLOSED_FORM:
        c = quadratic_domination_constant(
            problem.params["lambda"], ball.center[0], ball.radius
        )
        count = 0
    else:
        cfg = sampling or SamplingConfig()
        c = domination_constant_sampled(
            problem, ball, cfg.samples_per_axis, cfg.residual_floor, cfg.safety, cfg.seed
        )
        count = _sample_count(problem.n, cfg.samples_per_axis)
    return Certificate.judge(ball, c, residual_norm(problem, ball.center), method, count)
