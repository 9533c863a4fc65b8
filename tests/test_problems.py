import numpy as np
import pytest

from zerocert import (
    InputShapeError,
    InvalidConfigurationError,
    ResidualProblem,
    bvp_forcing,
    eval_jacobian,
    eval_residual,
    finite_difference_jacobian,
    make_bvp,
    make_quadratic,
)


def rel_entry_error(a, b):
    return np.max(np.abs(a - b) / (1.0 + np.abs(b)))


def test_quadratic_residual_values():
    assert eval_residual(make_quadratic(1.0), [2.0]) == pytest.approx([3.0])
    assert eval_residual(make_quadratic(1.0), [1.0]) == pytest.approx([0.0], abs=0.0)
    assert eval_residual(make_quadratic(2.0), [0.0]) == pytest.approx([-1.0])


def test_quadratic_accepts_params_object():
    p = make_quadratic(4.0)
    assert eval_residual(p, [0.5]) == pytest.approx([0.0], abs=1e-15)
    assert p.params["lambda"] == 4.0


def test_quadratic_jacobian_values():
    assert eval_jacobian(make_quadratic(1.0), [2.0])[0, 0] == 4.0
    assert eval_jacobian(make_quadratic(1.0), [0.0])[0, 0] == 0.0


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 4.0])
def test_quadratic_zeros(lam):
    p = make_quadratic(lam)
    for u in (1.0 / np.sqrt(lam), -1.0 / np.sqrt(lam)):
        assert abs(eval_residual(p, [u])[0]) <= 1e-12


def test_quadratic_lambda_zero_has_no_zeros():
    p = make_quadratic(0.0)
    for u in np.linspace(-5, 5, 21):
        assert eval_residual(p, [u])[0] == -1.0


def test_residual_shape_errors():
    p = make_quadratic(1.0)
    with pytest.raises(InputShapeError):
        eval_residual(p, [1.0, 2.0])
    with pytest.raises(InputShapeError):
        eval_jacobian(p, np.zeros(3))


def test_bvp_zero_forcing_zero_solution():
    p = make_bvp(16, 0.0, "zero")
    assert np.all(eval_residual(p, np.zeros(16)) == 0.0)


@pytest.mark.parametrize("gamma,forcing", [(0.0, "sin_pi"), (1.0, "manufactured_sin")])
def test_bvp_manufactured_solution(gamma, forcing):
    n = 64
    p = make_bvp(n, gamma, forcing)
    t = np.arange(1, n + 1) / (n + 1)
    u = np.sin(np.pi * t)
    f = bvp_forcing(forcing, gamma)(t)
    # only second-order truncation error should remain
    assert np.linalg.norm(eval_residual(p, u)) <= 1e-2 * np.linalg.norm(f)


def test_bvp_rejects_tiny_grid():
    with pytest.raises(InvalidConfigurationError):
        make_bvp(1, 0.0, "zero")


def test_bvp_rejects_unknown_forcing():
    with pytest.raises(InvalidConfigurationError):
        make_bvp(8, 0.0, "ramp")


def test_quadratic_rejects_non_finite_coefficient():
    with pytest.raises(InvalidConfigurationError):
        make_quadratic(float("inf"))


@pytest.mark.parametrize(
    "problem",
    [
        make_quadratic(1.0),
        make_quadratic(2.0),
        make_bvp(16, 1.0, "manufactured_sin"),
        make_bvp(64, 0.0, "sin_pi"),
    ],
    ids=["quadratic-1", "quadratic-2", "bvp-16", "bvp-64"],
)
def test_analytic_jacobian_matches_finite_differences(problem):
    rng = np.random.default_rng(7)
    for _ in range(100):
        v = rng.uniform(-2.0, 2.0, size=problem.n)
        analytic = eval_jacobian(problem, v)
        numeric = finite_difference_jacobian(problem, v)
        assert rel_entry_error(analytic, numeric) <= 1e-6


@pytest.mark.parametrize("n", [2, 3, 16, 257])
@pytest.mark.parametrize("gamma", [-1.0, 0.0, 1.0])
def test_bvp_jacobian_is_the_tridiagonal_matrix_bit_for_bit(n, gamma):
    # the matrix written entry by entry into zeros, each diagonal by its own index write
    p = make_bvp(n, gamma, "manufactured_sin")
    h = 1.0 / (n + 1)
    inv_h2 = 1.0 / (h * h)
    for v in (np.zeros(n), np.linspace(-2.0, 2.0, n), np.random.default_rng(n).normal(size=n)):
        expected = np.zeros((n, n))
        idx = np.arange(n)
        expected[idx, idx] = 2.0 * inv_h2 + 3.0 * gamma * v**2
        expected[idx[:-1], idx[:-1] + 1] = -inv_h2
        expected[idx[1:], idx[1:] - 1] = -inv_h2
        jac = eval_jacobian(p, v)
        assert jac.shape == expected.shape and jac.tobytes() == expected.tobytes()


def test_finite_difference_fallback():
    base = make_quadratic(3.0)
    p = ResidualProblem(name="fd_only", n=1, m=1, residual=base.residual)
    assert not p.has_analytic_jacobian
    assert eval_jacobian(p, [2.0])[0, 0] == pytest.approx(12.0, rel=1e-8)


def test_problems_are_immutable():
    p = make_quadratic(1.0)
    with pytest.raises(AttributeError):
        p.n = 2


def _padded(v):  # v with its zero boundary values on the last axis: the reference stencil's copy
    zero = np.zeros(v.shape[:-1] + (1,))
    return np.concatenate((zero, v, zero), axis=-1)


def _reference_residual(v, gamma, f_vals, inv_h2):
    u = _padded(v)
    second = (u[..., :-2] - 2.0 * u[..., 1:-1] + u[..., 2:]) * inv_h2
    return -second + gamma * (v * v * v) - f_vals


def _reference_vjp(V, Y, gamma, inv_h2):
    neighbours = _padded(Y)
    return (2.0 * inv_h2 + 3.0 * gamma * V**2) * Y - (neighbours[:, :-2] + neighbours[:, 2:]) * inv_h2


def assert_same_floats(a, b):
    """a is b bit for bit, signed zeros included, except for the bits of a NaN.

    Where both operands of an addition are NaN, IEEE 754 leaves open which one the sum
    returns, and numpy's loops differ: np.add over 15 entries of +nan and -nan returns both
    signs, by whether an entry falls in the vector body or the scalar tail.  So a NaN's sign
    depends on its position in the array, not on its operands, and only NaN-ness is compared.
    """
    assert a.shape == b.shape and a.dtype == b.dtype
    nan = np.isnan(b)
    assert np.array_equal(np.isnan(a), nan)
    assert np.array_equal(a[~nan], b[~nan])
    assert np.array_equal(np.signbit(a[~nan]), np.signbit(b[~nan]))


def _stencil_inputs(n):
    # rows mixing signed zeros, subnormals, huge, infinite and NaN entries (either sign of NaN),
    # with every special value at both boundary entries, next to them and in the interior
    special = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1030, 1e200, -1e200, np.inf, -np.inf, np.nan,
               -np.nan, 1.5, -2.5]
    rng = np.random.default_rng(11)
    rows = [np.full(n, a) for a in special]
    rows += [rng.choice(special, size=n) for _ in range(200)]
    rows += [rng.normal(size=n) for _ in range(20)]
    return np.array(rows)


@pytest.mark.parametrize("n", [2, 3, 4, 16])
@pytest.mark.parametrize("gamma", [-1.0, 0.0, 1.0])
def test_bvp_stencil_on_shifted_slices_matches_the_padded_formula(n, gamma):
    forcing = "zero" if gamma == 0.0 else "manufactured_sin"
    p, h = make_bvp(n, gamma, forcing), 1.0 / (n + 1)
    f_vals, inv_h2 = bvp_forcing(forcing, gamma)(h * np.arange(1, n + 1)), 1.0 / (h * h)
    V = _stencil_inputs(n)
    Y = V[np.random.default_rng(12).permutation(len(V))]
    with np.errstate(all="ignore"):
        for X in (V, np.asfortranarray(V), V[::2], V[:, ::-1]):  # C order, F order, strided
            assert_same_floats(p.residual(X), _reference_residual(X, gamma, f_vals, inv_h2))
        for v in V:
            assert_same_floats(p.residual(v), _reference_residual(v, gamma, f_vals, inv_h2))
        for k in (0, 1, len(V)):
            assert_same_floats(p.vjp_batch(V[:k], Y[:k]), _reference_vjp(V[:k], Y[:k], gamma, inv_h2))
        assert_same_floats(p.vjp_batch(V, np.asfortranarray(Y)), _reference_vjp(V, Y, gamma, inv_h2))
        # the gradient check's extended-precision rows
        L = V.astype(np.longdouble) * np.longdouble(1 + 2.0**-60)
        assert_same_floats(p.residual(L), _reference_residual(L, gamma, f_vals, inv_h2))


def test_bvp_cube_is_v_times_v_times_v():
    # two roundings, the same on every SIMD dispatch; np.power's last bit is not
    n = 8
    V = np.random.default_rng(3).normal(scale=3.0, size=(64, n))
    stencil_term = make_bvp(n, 0.0).residual(V)
    assert make_bvp(n, 1.0).residual(V).tobytes() == (stencil_term + V * V * V).tobytes()
    assert make_bvp(n, -2.0).residual(V).tobytes() == (stencil_term + -2.0 * (V * V * V)).tobytes()
