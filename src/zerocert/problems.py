"""Residual-map problems: F maps n-vectors to m-vectors and we look for F(u) = 0.

A problem bundles the residual evaluation, an (optional) analytic Jacobian,
and metadata naming the built-in family it came from.  Problems are immutable
value objects; evaluation is pure and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .exceptions import InputShapeError, InvalidConfigurationError

FD_STEP_SCALE = 1e-6  # per-coordinate central-difference step is FD_STEP_SCALE*(1+|v_i|)
BLOCK_ELEMENTS = 1 << 13  # rows * n of one batched residual evaluation: bounds its temporaries


@dataclass(frozen=True)
class ResidualProblem:
    """A residual map F: R^n -> R^m with optional analytic Jacobian.

    When ``jacobian`` is None, Jacobian queries fall back to central finite
    differences and ``has_analytic_jacobian`` is False.  ``weights`` are
    optional positive diagonal quadrature weights for the codomain norm
    (default unweighted Euclidean).  ``params`` records the construction
    parameters of built-in families ("quadratic", "bvp") so that closed-form
    code paths can recognize them.

    ``vjp_batch`` is an optional batched form: ``vjp_batch(V, Y)`` returns the
    (k, n) array whose row i is DF(V[i])^T Y[i].  A problem that sets it promises
    that ``residual`` also maps a (k, n) array of points to the (k, m) array of
    their residuals, and that row i of ``residual(V)`` equals ``residual(V[i])``
    bit for bit, a NaN's bits aside.  The sampled domination constant, the
    descent line search and the gradient check evaluate their points in blocks of
    :func:`block_rows` rows, one :func:`residual_rows` call each; every gradient
    of phi is a :func:`vjp_rows` call.  Without ``vjp_batch`` a block is one row,
    and :func:`eval_jacobian` gives its gradient.

    ``newton_solve`` is an optional linear solve: ``newton_solve(v, y)``
    returns J(v)^-1 y, the length-n vector x with DF(v) x = y.  A problem
    that sets it promises m == n and that DF(v) is the Jacobian ``jacobian``
    returns, and it raises nothing and writes no warning: where the solve
    breaks down (a zero pivot) it returns NaN entries, and an overflow or a
    NaN propagates as a value.
    Gauss-Newton descent then takes the Newton step through it and builds
    no Jacobian; without it every step is a dense least-squares solve.
    """

    name: str
    n: int
    m: int
    residual: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None
    weights: np.ndarray | None = None
    params: Mapping[str, object] = field(default_factory=dict)
    vjp_batch: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    newton_solve: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    @property
    def has_analytic_jacobian(self) -> bool:
        return self.jacobian is not None

    @property
    def is_quadratic(self) -> bool:
        return self.name == "quadratic" and "lambda" in self.params


def _check_vector(problem: ResidualProblem, v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (problem.n,):
        raise InputShapeError(
            f"problem {problem.name!r} expects a vector of length {problem.n}, "
            f"got shape {v.shape}"
        )
    return v


def checked_output(problem: ResidualProblem, hook: str, out, shape: tuple,
                   dtype=float) -> np.ndarray:
    """``out`` as an array of ``dtype`` (None keeps its own); InputShapeError when the
    ``hook`` returned another shape."""
    out = np.asarray(out, dtype=dtype)
    if out.shape != shape:
        raise InputShapeError(
            f"{hook} of {problem.name!r} returned shape {out.shape}, expected {shape}"
        )
    return out


def eval_residual(problem: ResidualProblem, v) -> np.ndarray:
    """Evaluate F(v) as a length-m vector."""
    v = _check_vector(problem, v)
    return checked_output(problem, "residual", problem.residual(v), (problem.m,))


def block_rows(problem: ResidualProblem) -> int:
    """How many points one :func:`residual_rows` call should take: 1 without ``vjp_batch``."""
    return max(1, BLOCK_ELEMENTS // problem.n) if problem.vjp_batch is not None else 1


def residual_rows(problem: ResidualProblem, V: np.ndarray) -> np.ndarray:
    """F at each row of the (k, n) array V, as a (k, m) array in the dtype F returns.

    A problem with ``vjp_batch`` evaluates V in one call, which its batch
    promise makes bit-identical to one call per row; any other problem is
    called once per row, with a length-n point.  The dtype is kept, so an
    extended-precision V stays extended where F propagates it.
    """
    if problem.vjp_batch is not None:
        return checked_output(problem, "residual", problem.residual(V), (len(V), problem.m), None)
    return np.array([checked_output(problem, "residual", problem.residual(v), (problem.m,), None)
                     for v in V])


def vjp_rows(problem: ResidualProblem, V: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """DF(V[i])^T Y[i] for each row i of the (k, n) array V and the (k, m) array Y, as a
    (k, n) array: one ``vjp_batch`` call, or, without it, one :func:`eval_jacobian` per row."""
    if problem.vjp_batch is not None:
        return checked_output(problem, "vjp_batch", problem.vjp_batch(V, Y), V.shape)
    return np.array([eval_jacobian(problem, v).T @ y for v, y in zip(V, Y)])


def finite_difference_jacobian(problem: ResidualProblem, v) -> np.ndarray:
    """Central-difference Jacobian with step FD_STEP_SCALE*(1+|v_i|) per coordinate."""
    v = _check_vector(problem, v)
    jac = np.empty((problem.m, problem.n))
    for i in range(problem.n):
        h = FD_STEP_SCALE * (1.0 + abs(v[i]))
        vp = v.copy()
        vm = v.copy()
        vp[i] += h
        vm[i] -= h
        jac[:, i] = (eval_residual(problem, vp) - eval_residual(problem, vm)) / (2.0 * h)
    return jac


def eval_jacobian(problem: ResidualProblem, v) -> np.ndarray:
    """Evaluate DF(v) as an m-by-n matrix.

    Uses the analytic Jacobian when the problem declares one, otherwise a
    central finite-difference approximation (``problem.has_analytic_jacobian``
    tells which one you got).
    """
    v = _check_vector(problem, v)
    if problem.jacobian is None:
        return finite_difference_jacobian(problem, v)
    return checked_output(problem, "jacobian", problem.jacobian(v), (problem.m, problem.n))


def make_quadratic(lam: float) -> ResidualProblem:
    """Scalar problem F(u) = lam*u**2 - 1 with analytic derivative 2*lam*u.

    Zeros sit at +-1/sqrt(lam) for lam > 0; lam = 0 gives the zero-free
    constant map F = -1.
    """
    lam = float(lam)
    if not np.isfinite(lam):
        raise InvalidConfigurationError("lambda must be finite")

    # one formula for a point (shape (1,)) and for a batch of points (shape (k, 1))
    def residual(v: np.ndarray) -> np.ndarray:
        return lam * v * v - 1.0

    def jacobian(v: np.ndarray) -> np.ndarray:
        return np.array([[2.0 * lam * v[0]]])

    return ResidualProblem(
        name="quadratic",
        n=1,
        m=1,
        residual=residual,
        jacobian=jacobian,
        params={"lambda": lam},
        vjp_batch=lambda V, Y: 2.0 * lam * V * Y,
    )


def bvp_forcing(name: str, gamma: float = 0.0) -> Callable[[np.ndarray], np.ndarray]:
    """Named forcing terms for the built-in boundary-value problem.

    - "zero": f = 0, so v = 0 solves the homogeneous problem.
    - "sin_pi": f(t) = pi^2*sin(pi*t), the forcing whose gamma=0 solution is sin(pi*t).
    - "manufactured_sin": f(t) = pi^2*sin(pi*t) + gamma*sin(pi*t)^3, which makes
      sin(pi*t) the exact continuum solution for any gamma.
    """
    if name == "zero":
        return lambda t: np.zeros_like(np.asarray(t, dtype=float))
    if name == "sin_pi":
        return lambda t: np.pi**2 * np.sin(np.pi * np.asarray(t, dtype=float))
    if name == "manufactured_sin":
        def forcing(t):
            s = np.sin(np.pi * np.asarray(t, dtype=float))
            return np.pi**2 * s + gamma * s**3
        return forcing
    raise InvalidConfigurationError(
        f"unknown forcing {name!r}, expected 'zero', 'sin_pi' or 'manufactured_sin'"
    )


def make_bvp(
    grid_points: int,
    nonlinearity_coefficient: float,
    forcing: Callable[[np.ndarray], np.ndarray] | str = "zero",
    quadrature_weights: bool = False,
) -> ResidualProblem:
    """Second-order central-difference discretization of a two-point BVP.

    Discretizes -u''(t) + gamma*u(t)^3 = f(t) on [0, 1] with u(0) = u(1) = 0
    on N interior points t_i = i*h, h = 1/(N+1).  The residual at v is

        -(v[i-1] - 2 v[i] + v[i+1])/h^2 + gamma*(v[i]*v[i]*v[i]) - f(t_i)

    with boundary values 0, so F maps R^N to R^N.  The Jacobian is
    tridiagonal: -1/h^2 off the diagonal and ``diagonal(v)`` = 2/h^2 +
    3*gamma*v^2 on it, one function that ``jacobian``, ``vjp_batch`` and
    ``newton_solve`` (a Thomas solve, whose pivots start from it) all read.
    ``residual`` and ``vjp_batch`` take the stencil on shifted slices, no Jacobian.

    ``forcing`` is a vectorized callable t -> f(t) or the name of a built-in
    (see :func:`bvp_forcing`).  ``quadrature_weights=True`` attaches diagonal
    weights h to the codomain norm so that it approximates the L2 norm.
    """
    n = int(grid_points)
    if n < 2:
        raise InvalidConfigurationError("grid_points must be at least 2")
    gamma = float(nonlinearity_coefficient)
    forcing_name = forcing if isinstance(forcing, str) else "custom"
    if isinstance(forcing, str):
        forcing = bvp_forcing(forcing, gamma)

    h = 1.0 / (n + 1)
    t = h * np.arange(1, n + 1)
    f_vals = np.asarray(forcing(t), dtype=float)
    if f_vals.shape != (n,):
        raise InvalidConfigurationError(
            f"forcing must map the grid to shape ({n},), got {f_vals.shape}"
        )
    inv_h2 = 1.0 / (h * h)

    def diagonal(v: np.ndarray) -> np.ndarray:
        return 2.0 * inv_h2 + 3.0 * gamma * v**2

    # a point (n,) or points (k, n) as one flat row, whose row ends are then redone as
    # 0.0 - 2 v[0] and left + 0.0: the padded formula's operations, signed zeros included
    def residual(v: np.ndarray) -> np.ndarray:
        second = np.multiply(2.0, v, order="C")
        left = np.empty_like(second)  # v[i-1] - 2 v[i]
        flat_second, flat_left, flat_v = second.reshape(-1), left.reshape(-1), v.reshape(-1)
        np.subtract(flat_v[:-1], flat_second[1:], out=flat_left[1:])
        np.subtract(0.0, second[..., :1], out=left[..., :1])
        np.add(flat_left[:-1], flat_v[1:], out=flat_second[:-1])
        np.add(left[..., -1:], 0.0, out=second[..., -1:])
        return -(second * inv_h2) + gamma * (v * v * v) - f_vals

    def jacobian(v: np.ndarray) -> np.ndarray:
        jac = np.diag(diagonal(v))
        jac.flat[1::n + 1] = -inv_h2  # the superdiagonal
        jac.flat[n::n + 1] = -inv_h2  # the subdiagonal
        return jac

    def vjp_batch(V: np.ndarray, Y: np.ndarray) -> np.ndarray:
        neighbours, y = np.empty(Y.shape, Y.dtype), Y.reshape(-1)
        np.add(y[:-2], y[2:], out=neighbours.reshape(-1)[1:-1])
        np.add(0.0, Y[:, 1:2], out=neighbours[:, :1])
        np.add(Y[:, -2:-1], 0.0, out=neighbours[:, -1:])
        return diagonal(V) * Y - neighbours * inv_h2

    # Thomas elimination on tridiag(-1/h^2, diagonal(v), -1/h^2), in Python
    # floats: O(n), and an overflow or a NaN propagates without a warning
    def newton_solve(v: np.ndarray, y: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            pivots = diagonal(v).tolist()
        z = y.tolist()
        x = [0.0] * n
        try:
            for i in range(1, n):
                factor = inv_h2 / pivots[i - 1]
                pivots[i] -= factor * inv_h2
                z[i] += factor * z[i - 1]
            x[-1] = z[-1] / pivots[-1]
            for i in range(n - 2, -1, -1):
                x[i] = (z[i] + inv_h2 * x[i + 1]) / pivots[i]
        except ZeroDivisionError:  # a zero pivot: no step from this point
            return np.full(n, np.nan)
        return np.array(x)

    return ResidualProblem(
        name="bvp",
        n=n,
        m=n,
        residual=residual,
        jacobian=jacobian,
        weights=h * np.ones(n) if quadrature_weights else None,
        params={"grid_points": n, "gamma": gamma, "forcing": forcing_name},
        vjp_batch=vjp_batch,
        newton_solve=newton_solve,
    )
