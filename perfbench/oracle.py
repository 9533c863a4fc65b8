"""Independent oracle for the benchmark's problems.

Nothing here calls into zerocert.  Quadratic zeros come from the closed form
+-1/sqrt(lambda).  The zero of the BVP -u'' + gamma*u^3 = f (manufactured_sin
forcing, gamma >= 0, so F is monotone and the zero is unique) comes from a
Newton iteration with a tridiagonal (Thomas) solve, whose residual is
accumulated in extended precision so that the zero is accurate to rounding
rather than to the grid's condition number.
"""

from __future__ import annotations

import math

import numpy as np


class OracleError(RuntimeError):
    """A generated input does not have the ground truth its workload needs."""


def quadratic_zeros(lam: float) -> list[np.ndarray]:
    if lam <= 0.0:
        return []
    root = 1.0 / math.sqrt(lam)
    return [np.array([root]), np.array([-root])]


def _bvp_forcing(t, gamma: float):
    s = np.sin(np.pi * t)
    return np.pi**2 * s + gamma * s**3


def bvp_residual(u, gamma: float) -> np.ndarray:
    """-(u[i-1] - 2u[i] + u[i+1])/h^2 + gamma*u^3 - f, in u's own dtype."""
    n = len(u)
    dtype = u.dtype
    h = dtype.type(1) / dtype.type(n + 1)
    t = h * np.arange(1, n + 1, dtype=dtype)
    padded = np.concatenate((np.zeros(1, dtype), u, np.zeros(1, dtype)))
    second = (padded[:-2] - 2 * padded[1:-1] + padded[2:]) / (h * h)
    f = _bvp_forcing(t, dtype.type(gamma))
    return -second + dtype.type(gamma) * u**3 - f


def _thomas(lower: float, diag: np.ndarray, upper: float, rhs: np.ndarray) -> np.ndarray:
    """Solve a tridiagonal system with constant off-diagonals."""
    n = len(diag)
    c = np.empty(n)
    d = np.empty(n)
    c[0] = upper / diag[0]
    d[0] = rhs[0] / diag[0]
    for i in range(1, n):
        denom = diag[i] - lower * c[i - 1]
        c[i] = upper / denom
        d[i] = (rhs[i] - lower * d[i - 1]) / denom
    x = np.empty(n)
    x[-1] = d[-1]
    for i in range(n - 2, -1, -1):
        x[i] = d[i] - c[i] * x[i + 1]
    return x


def bvp_zero(n: int, gamma: float) -> np.ndarray:
    """The unique zero of the n-point BVP with manufactured_sin forcing."""
    if gamma < 0.0:
        raise OracleError("the BVP oracle needs gamma >= 0 (monotone F)")
    h = 1.0 / (n + 1)
    inv_h2 = 1.0 / (h * h)
    u = np.sin(np.pi * h * np.arange(1, n + 1)).astype(np.longdouble)
    for _ in range(60):
        r = bvp_residual(u, gamma).astype(float)
        uf = u.astype(float)
        step = _thomas(-inv_h2, 2.0 * inv_h2 + 3.0 * gamma * uf * uf, -inv_h2, r)
        u = u - step.astype(np.longdouble)
        if np.max(np.abs(step)) <= 1e-17 * (1.0 + np.max(np.abs(uf))):
            break
    else:
        raise OracleError(f"BVP oracle Newton did not settle at n={n}")
    return u.astype(float)


def bvp_lambda_min(n: int) -> float:
    """Smallest eigenvalue of the unweighted difference operator."""
    return 4.0 * (n + 1) ** 2 * math.sin(math.pi / (2 * (n + 1))) ** 2


class Oracle:
    """Zeros and error bounds for the problem specs a workload uses.

    A spec is ("quadratic", lam) or ("bvp", n, gamma).  Zeros are computed
    once per spec and cached, outside any timed region.
    """

    def __init__(self):
        self._zeros: dict[tuple, list[np.ndarray]] = {}

    def zeros(self, spec: tuple) -> list[np.ndarray]:
        if spec not in self._zeros:
            if spec[0] == "quadratic":
                self._zeros[spec] = quadratic_zeros(spec[1])
            elif spec[0] == "bvp":
                self._zeros[spec] = [bvp_zero(spec[1], spec[2])]
            else:
                raise OracleError(f"no oracle for {spec!r}")
        return self._zeros[spec]

    def nearest_zero(self, spec: tuple, point) -> tuple[np.ndarray | None, float]:
        point = np.asarray(point, dtype=float)
        best, dist = None, math.inf
        for z in self.zeros(spec):
            d = float(np.linalg.norm(z - point))
            if d < dist:
                best, dist = z, d
        return best, dist

    def zero_in_ball(self, spec: tuple, center, radius: float) -> bool:
        """Whether a zero lies in the closed ball; refuses a borderline ball."""
        _, dist = self.nearest_zero(spec, center)
        if abs(dist - radius) <= 1e-9 * (1.0 + radius):
            raise OracleError(f"zero sits on the sphere of the ball (d={dist}, r={radius})")
        return dist <= radius

    def solution_tolerance(self, spec: tuple, residual_tolerance: float) -> float:
        """Distance to the zero implied by ||F(u)|| <= residual_tolerance.

        ||u - u*|| <= ||F(u)|| / sigma, with sigma a lower bound on |F'|
        near the zero: lambda_min(L) for the monotone BVP, sqrt(lambda) for
        the quadratic (|F'(u)| = 2 lambda |u| >= sqrt(lambda) once
        |u| >= |u*| / 2).  A factor 10 and a rounding term cover the oracle.
        """
        zero = self.zeros(spec)[0]
        sigma = math.sqrt(spec[1]) if spec[0] == "quadratic" else bvp_lambda_min(spec[1])
        return 10.0 * residual_tolerance / sigma + 1e-9 * (1.0 + float(np.linalg.norm(zero)))

    def residual_floor(self, spec: tuple) -> float:
        """||F(fl(u*))|| in double precision: the best residual a solver can reach."""
        zero = self.zeros(spec)[0]
        if spec[0] == "quadratic":
            return abs(spec[1] * zero[0] * zero[0] - 1.0)
        return float(np.linalg.norm(bvp_residual(zero, spec[2])))
