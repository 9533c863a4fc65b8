"""Variable transforms that relax failing certificates.

Two invertible transform families rewrite F(u) = 0 in equivalent forms:

- dependent transforms A (:func:`linear_scale`, :func:`cubic_perturbation`)
  act on the codomain with A(0) = 0; :func:`apply_dependent` gives A o F,
  whose zeros are F's because A is invertible and fixes 0.
- the independent transform B(v) = mu*v (:func:`scale`) reparameterizes the
  domain; writing F = G o B, :func:`recover_problem_independent` gives
  G = F o B^-1, whose zeros are the B-images of F's, and
  :func:`pull_back_zero` maps a zero v* of G to the zero B^-1(v*) of F.

The certificate conditions change under either rewrite, and the transform
parameter is a knob: sweeping it can turn a failing certificate into a
passing one.  :func:`search_mu` performs that sweep over mu, judged as columns
by the certificate module's ``certify_columns``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .certificate import (
    METHOD_CLOSED_FORM,
    METHOD_SAMPLED,
    Ball,
    Certificate,
    SamplingConfig,
    certify_columns,
)
from .exceptions import InvalidConfigurationError
from .problems import ResidualProblem, eval_jacobian

CUBIC_INVERSE_TOL = 1e-14
ZERO_EXCLUSION_FRACTION = 1e-3  # half-width of the mu-grid hole around 0, relative


@dataclass(frozen=True)
class Transform:
    """Invertible componentwise map with its derivative and inverse.

    A dependent transform A acts on the codomain and fixes 0; an independent
    transform B reparameterizes the domain.  ``forward``, ``derivative`` and
    ``inverse`` accept scalars or arrays and operate elementwise.  The
    independent family ``scale`` has constant nonzero derivative, so
    bijectivity holds by construction.
    """

    family: str
    params: dict
    forward: Callable
    derivative: Callable
    inverse: Callable


def _linear(family: str, name: str, a: float) -> Transform:
    """The map y -> a*y, a != 0, as transform ``family`` with parameter ``name``."""
    a = float(a)
    if a == 0.0:
        raise InvalidConfigurationError(f"{family} needs {name} != 0")
    return Transform(
        family=family,
        params={name: a},
        forward=lambda y: a * np.asarray(y, dtype=float),
        derivative=lambda y: np.full_like(np.asarray(y, dtype=float), a),
        inverse=lambda y: np.asarray(y, dtype=float) / a,
    )


def linear_scale(alpha: float) -> Transform:
    """Dependent transform A(y) = alpha*y, alpha != 0."""
    return _linear("linear_scale", "alpha", alpha)


def _cubic_inverse(w, beta: float) -> np.ndarray:
    """Solve y + beta*y**3 = w elementwise by safeguarded Newton.

    The map is odd and strictly increasing for beta >= 0, so the root is
    bracketed by [0, w]; Newton steps leaving the bracket fall back to
    bisection.  Converges to |A(y) - w| <= 1e-14*(1 + |w|).
    """
    w = np.asarray(w, dtype=float)
    if beta == 0.0:
        return w.copy()
    lo = np.minimum(w, 0.0)
    hi = np.maximum(w, 0.0)
    y = w / (1.0 + beta * w * w)
    for _ in range(200):
        f = y + beta * y**3 - w
        if np.all(np.abs(f) <= CUBIC_INVERSE_TOL * (1.0 + np.abs(w))):
            break
        lo = np.where(f < 0.0, y, lo)
        hi = np.where(f > 0.0, y, hi)
        step = f / (1.0 + 3.0 * beta * y * y)
        y_new = y - step
        outside = (y_new < lo) | (y_new > hi)
        y = np.where(outside, 0.5 * (lo + hi), y_new)
    return y


def cubic_perturbation(beta: float) -> Transform:
    """Dependent transform A(y) = y + beta*y**3, beta >= 0.

    Restricting beta >= 0 keeps A'(y) = 1 + 3*beta*y**2 > 0 everywhere, so A
    is globally invertible; the inverse is computed numerically.
    """
    beta = float(beta)
    if beta < 0.0:
        raise InvalidConfigurationError("cubic_perturbation needs beta >= 0")
    return Transform(
        family="cubic_perturbation",
        params={"beta": beta},
        forward=lambda y: np.asarray(y, dtype=float) + beta * np.asarray(y, dtype=float) ** 3,
        derivative=lambda y: 1.0 + 3.0 * beta * np.asarray(y, dtype=float) ** 2,
        inverse=lambda y: _cubic_inverse(y, beta),
    )


def scale(mu: float) -> Transform:
    """Independent transform B(v) = mu*v, mu != 0."""
    return _linear("scale", "mu", mu)


def apply_dependent(transform: Transform, problem: ResidualProblem) -> ResidualProblem:
    """Compose on the codomain: the problem v -> A(F(v)).

    Zeros are preserved in both directions (A(0) = 0 and A invertible).  The
    Jacobian picks up the row scaling A'(F(v)).
    """

    def residual(v: np.ndarray) -> np.ndarray:
        return np.asarray(transform.forward(problem.residual(v)), dtype=float)

    def jacobian(v: np.ndarray) -> np.ndarray:
        f = np.asarray(problem.residual(v), dtype=float)
        scale_rows = np.asarray(transform.derivative(f), dtype=float)
        return scale_rows[:, None] * eval_jacobian(problem, v)

    vjp_batch = None
    if problem.vjp_batch is not None:
        def vjp_batch(V: np.ndarray, Y: np.ndarray) -> np.ndarray:
            scale_rows = np.asarray(transform.derivative(problem.residual(V)), dtype=float)
            return problem.vjp_batch(V, scale_rows * Y)

    return ResidualProblem(
        name=f"{transform.family}({problem.name})",
        n=problem.n,
        m=problem.m,
        residual=residual,
        jacobian=jacobian,
        weights=problem.weights,
        vjp_batch=vjp_batch,
    )


def recover_problem_independent(transform: Transform, problem_f: ResidualProblem) -> ResidualProblem:
    """Peel an independent transform off F: the problem G with F = G o B.

    G(v) = F(B^-1(v)), evaluated literally as that composition so that
    F(pull_back_zero(B, v*)) and G(v*) are the same computation, value for
    value.  G carries no family parameters, whatever F and B are.
    """

    def residual(v: np.ndarray) -> np.ndarray:
        return np.asarray(problem_f.residual(np.asarray(transform.inverse(v), dtype=float)), dtype=float)

    def jacobian(v: np.ndarray) -> np.ndarray:
        w = np.asarray(transform.inverse(v), dtype=float)
        inv_deriv = 1.0 / np.asarray(transform.derivative(w), dtype=float)
        return eval_jacobian(problem_f, w) * inv_deriv[None, :]

    vjp_batch = None
    if problem_f.vjp_batch is not None:
        def vjp_batch(V: np.ndarray, Y: np.ndarray) -> np.ndarray:
            W = np.asarray(transform.inverse(V), dtype=float)
            return problem_f.vjp_batch(W, Y) / np.asarray(transform.derivative(W), dtype=float)

    # J_G(v) = J_F(w) diag(1/B'(w)) with w = B^-1(v), so J_G(v)^-1 y = B'(w) * J_F(w)^-1 y
    newton_solve = None
    if problem_f.newton_solve is not None:
        def newton_solve(v: np.ndarray, y: np.ndarray) -> np.ndarray:
            w = np.asarray(transform.inverse(v), dtype=float)
            return np.asarray(transform.derivative(w), dtype=float) * problem_f.newton_solve(w, y)

    return ResidualProblem(
        name=f"{problem_f.name}o{transform.family}^-1",
        n=problem_f.n,
        m=problem_f.m,
        residual=residual,
        jacobian=jacobian,
        weights=problem_f.weights,
        vjp_batch=vjp_batch,
        newton_solve=newton_solve,
    )


def pull_back_zero(transform: Transform, v_star) -> np.ndarray:
    """Map a zero v* of G = F o B^-1 back to the zero B^-1(v*) of F.

    Since F = G o B as computations, ||F(pull_back_zero(B, v*))|| equals
    ||G(v*)|| exactly as a value, not just up to tolerance.
    """
    return np.atleast_1d(np.asarray(transform.inverse(np.asarray(v_star, dtype=float)), dtype=float))


@dataclass(frozen=True)
class SweepPoint:
    """One entry of a transform-parameter sweep."""

    mu: float
    c: float
    lhs: float
    rhs: float
    slack: float
    passed: bool


@dataclass(frozen=True)
class TransformSearchResult:
    """Outcome of a parameter sweep over the scaling transform.

    ``certificate`` is the certificate at ``best_parameter``; when any entry
    passed, the best entry is passing (maximum slack, ties broken by least
    distortion |mu - 1|, then by smaller mu).
    """

    best_parameter: float
    any_passed: bool
    zero_exclusion: float | None
    certificate: Certificate
    sweep: list[SweepPoint]


def _branch_grid(lo: float, hi: float, count: int, spacing: str) -> np.ndarray:
    if spacing == "geometric":
        return np.geomspace(lo, hi, count)
    return np.linspace(lo, hi, count)


def build_mu_grid(
    mu_range: tuple[float, float],
    grid_size: int,
    spacing: str = "linear",
) -> tuple[np.ndarray, float | None]:
    """Parameter grid over mu_range with a hole punched around mu = 0.

    Ranges touching or straddling 0 are shrunk away from it by a relative
    margin (returned as the second element so callers can report the
    exclusion); ranges on one side of 0 are used as given.  The grid has
    exactly ``grid_size`` values, split between the branches either side of
    0 by width.  Spacing is "linear" or "geometric" per branch.
    """
    lo, hi = float(mu_range[0]), float(mu_range[1])
    if not lo <= hi:
        raise InvalidConfigurationError(f"mu_min {lo} exceeds mu_max {hi}")
    if grid_size < 1:
        raise InvalidConfigurationError("grid_size must be at least 1")
    if spacing not in ("linear", "geometric"):
        raise InvalidConfigurationError(
            f"unknown spacing {spacing!r}, expected 'linear' or 'geometric'"
        )

    if lo > 0.0 or hi < 0.0:
        return _branch_grid(lo, hi, grid_size, spacing), None

    eps = ZERO_EXCLUSION_FRACTION * max(abs(lo), abs(hi))
    if eps == 0.0:
        raise InvalidConfigurationError(
            "mu range contains only 0" if lo == hi
            else f"mu range [{lo}, {hi}] lies too close to 0 to leave out a hole around it"
        )
    branches = []
    if lo <= -eps:
        branches.append((lo, -eps))
    if hi >= eps:
        branches.append((eps, hi))
    counts = [grid_size]
    if len(branches) == 2:
        # the narrower branch (the negative one on a tie) gets its rounded share, at least
        # 1 unless grid_size is 1, and the wider one the rest; the ratio of the widths
        # cannot overflow where their sum can
        widths = [b_hi - b_lo for b_lo, b_hi in branches]
        narrow = int(widths[1] < widths[0])
        ratio = widths[narrow] / widths[1 - narrow]
        share = min(max(1, round(grid_size * ratio / (1.0 + ratio))), grid_size - 1)
        counts = [grid_size - share] * 2
        counts[narrow] = share
    grid = np.concatenate([
        _branch_grid(b_lo, b_hi, cnt, spacing) for (b_lo, b_hi), cnt in zip(branches, counts)
    ])
    return grid, eps


def search_mu(
    problem: ResidualProblem,
    ball: Ball,
    mu_range: tuple[float, float],
    grid_size: int,
    method: str | None = None,
    sampling: SamplingConfig | None = None,
    spacing: str = "linear",
) -> TransformSearchResult:
    """Sweep the scaling parameter mu looking for a passing certificate.

    For each grid mu the problem is rewritten as G = F o B^-1 with B(v) = mu*v and certified
    on the given ball by :func:`certify_columns`, whose mu = 1 case is :func:`certify`; only
    the best entry becomes a Certificate.  No G is built: each entry is :func:`certify` on
    ``recover_problem_independent(scale(mu), F)`` up to the rounding of F's gradient divided
    by mu, bit for bit for a problem with batched hooks, and for every problem when mu is a
    power of two.  The best entry maximizes slack among passing entries (ties: least
    distortion |mu - 1|, then smaller mu); when nothing passes the same ordering is applied
    to all entries.
    """
    if method is None:
        method = METHOD_CLOSED_FORM if problem.is_quadratic else METHOD_SAMPLED
    grid, zero_exclusion = build_mu_grid(mu_range, grid_size, spacing)
    (mus, cs, lhss, rhss, slacks, passes), count = certify_columns(problem, ball, method,
                                                                   sampling, grid)
    pool = [i for i, passed in enumerate(passes) if passed]
    best = min(pool or range(len(mus)), key=lambda i: (-slacks[i], abs(mus[i] - 1.0), mus[i]))
    return TransformSearchResult(
        best_parameter=mus[best],
        any_passed=bool(pool),
        zero_exclusion=zero_exclusion,
        certificate=Certificate.judge(ball, cs[best], lhss[best], method, count),
        sweep=list(map(SweepPoint, mus, cs, lhss, rhss, slacks, passes)),
    )
