import dataclasses

import numpy as np
import pytest
from test_batched import HOOKED

from zerocert import (
    InputShapeError,
    check_gradient,
    eval_jacobian,
    eval_residual,
    grad_phi,
    make_bvp,
    make_quadratic,
    phi,
    residual_norm,
)
from zerocert.problems import FD_STEP_SCALE, block_rows, residual_rows


def test_phi_values():
    q = make_quadratic(1.0)
    assert phi(q, [2.0]) == pytest.approx(4.5)
    assert phi(q, [1.0]) == 0.0
    assert phi(q, [0.0]) == pytest.approx(0.5)


def test_phi_shape_error():
    with pytest.raises(InputShapeError):
        phi(make_quadratic(1.0), [1.0, 2.0])


def test_grad_phi_values():
    assert grad_phi(make_quadratic(1.0), [2.0]) == pytest.approx([12.0])
    assert grad_phi(make_quadratic(1.0), [1.0]) == pytest.approx([0.0], abs=0.0)
    assert grad_phi(make_quadratic(2.0), [-1.0]) == pytest.approx([-4.0])


def test_phi_nonnegative_and_vanishes_only_at_zeros():
    rng = np.random.default_rng(3)
    q = make_quadratic(2.0)
    for _ in range(200):
        v = rng.uniform(-2.0, 2.0, size=1)
        value = phi(q, v)
        assert value >= 0.0
        rn = np.linalg.norm(eval_residual(q, v))
        if rn <= 1e-12:
            assert value <= 1e-24
        if value <= 1e-24:
            assert rn <= 1.5e-12


def test_check_gradient_quadratic():
    rep = check_gradient(make_quadratic(1.0), [2.0])
    assert rep.max_relative_error <= 1e-6


def test_check_gradient_bvp_random_point():
    rng = np.random.default_rng(11)
    p = make_bvp(16, 1.0, "manufactured_sin")
    rep = check_gradient(p, rng.uniform(-1.0, 1.0, size=16))
    assert rep.max_relative_error <= 1e-6


def test_gradient_vanishes_at_zero_of_residual():
    rep = check_gradient(make_quadratic(4.0), [0.5])
    assert np.max(np.abs(rep.analytic_gradient)) <= 1e-10


def test_dimension_one_gradient_equals_jacobian_times_residual():
    rng = np.random.default_rng(9)
    q = make_quadratic(1.7)
    for _ in range(50):
        v = rng.uniform(-3.0, 3.0, size=1)
        direct = eval_jacobian(q, v)[0, 0] * eval_residual(q, v)[0]
        assert grad_phi(q, v)[0] == direct


def test_weighted_norm_gradient_consistent():
    p = make_bvp(12, 1.0, "manufactured_sin", quadrature_weights=True)
    assert p.weights is not None
    rng = np.random.default_rng(13)
    rep = check_gradient(p, rng.uniform(-1.0, 1.0, size=12))
    assert rep.max_relative_error <= 1e-6


def test_residual_norm_survives_an_overflowing_square():
    # F = 1.44e154: F**2 overflows, ||F|| does not
    with np.errstate(over="ignore"):
        assert residual_norm(make_quadratic(1.0), [1.2e77]) == pytest.approx(1.44e154, rel=1e-15)
    # four finite squares near 1e308 whose sum overflows inside math.fsum
    bvp = make_bvp(4, 1.0)
    v = np.full(4, 2.2e51)
    expected = np.linalg.norm(eval_residual(bvp, v) / 1e154) * 1e154
    assert residual_norm(bvp, v) == pytest.approx(expected, rel=1e-15)
    weighted = make_bvp(4, 1.0, quadrature_weights=True)
    assert residual_norm(weighted, v) == pytest.approx(expected * np.sqrt(0.2), rel=1e-15)
    # squares that underflow: F = [2.5e-169, 0, 0, 2.5e-169] summed to 0 and read as a zero
    tiny = residual_norm(bvp, np.full(4, 1e-170))
    assert tiny == pytest.approx(2.5e-169 * np.sqrt(2), rel=1e-15, abs=0.0)


def test_residual_norm_of_a_non_finite_residual_stays_non_finite():
    with np.errstate(all="ignore"):
        assert residual_norm(make_bvp(4, 1.0), np.full(4, 1e110)) == np.inf


def coordinate_check(problem, v):
    """The numeric gradient and the error of a check along every coordinate, with
    2n points: the reference that check_gradient must equal when n <= 16."""
    v = np.asarray(v, dtype=float)
    analytic = grad_phi(problem, v)
    weights = 1.0 if problem.weights is None else problem.weights
    v_ext = v.astype(np.longdouble)
    h = FD_STEP_SCALE * (1.0 + np.abs(v))
    numeric = np.empty_like(analytic)
    points = max(1, block_rows(problem) // 2)
    for start in range(0, problem.n, points):
        idx = np.arange(start, min(start + points, problem.n))
        k = len(idx)
        V = np.tile(v_ext, (2 * k, 1))
        V[np.arange(k), idx] += h[idx]
        V[np.arange(k, 2 * k), idx] -= h[idx]
        R = residual_rows(problem, V)
        refs = [np.longdouble(0.5) * np.sum(row, dtype=np.longdouble) for row in weights * R * R]
        for i, plus, minus in zip(idx, refs[:k], refs[k:]):
            numeric[i] = float((plus - minus) / np.longdouble(2.0 * h[i]))
    err = float(np.max(np.abs(analytic - numeric) / (1.0 + np.abs(numeric))))
    return numeric, err


SMALL = {
    **HOOKED,
    **{f"bvp16{'-weighted' if w else ''}": make_bvp(16, 1.0, "manufactured_sin", w)
       for w in (False, True)},
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_check_up_to_16_unknowns_is_the_coordinate_check_bit_for_bit(name):
    p = SMALL[name]
    rng = np.random.default_rng(5)
    for v in (np.zeros(p.n), np.full(p.n, 0.3), np.linspace(-2.0, 2.0, p.n),
              *rng.uniform(-1.0, 1.0, size=(3, p.n))):
        rep = check_gradient(p, v)
        numeric, err = coordinate_check(p, v)
        assert rep.directions.tobytes() == np.eye(p.n).tobytes()
        assert rep.numeric_derivatives.tobytes() == numeric.tobytes()
        assert rep.max_relative_error == err


@pytest.mark.parametrize("n", [64, 384])
def test_check_above_16_unknowns_differentiates_along_16_fixed_signs(n):
    p = make_bvp(n, 1.0, "manufactured_sin")
    # points where the coordinate differences themselves hold to 1e-6; near
    # np.linspace(-2, 2, n) at n = 384 they are off by 7e-4
    rng = np.random.default_rng(6)
    for v in (np.zeros(n), *rng.uniform(-1.0, 1.0, size=(3, n))):
        rep = check_gradient(p, v)
        assert rep.directions.shape == (16, n) and set(np.unique(rep.directions)) == {-1.0, 1.0}
        numeric, _ = coordinate_check(p, v)
        np.testing.assert_allclose(rep.numeric_derivatives, rep.directions @ numeric, rtol=1e-6)
    # the directions are data of n alone: the same for every point and every call
    assert rep.directions.tobytes() == check_gradient(p, np.ones(n)).directions.tobytes()


def with_jacobian_error(problem, entry, factor):
    """``problem`` whose analytic Jacobian has its ``entry`` multiplied by ``factor``."""
    def jacobian(v):
        J = problem.jacobian(v).copy()
        J[entry] *= factor
        return J
    return dataclasses.replace(problem, jacobian=jacobian)


def with_vjp_error(problem, entry, factor):
    """``problem`` whose ``vjp_batch`` has output entry ``entry`` of each row multiplied
    by ``factor``."""
    def vjp_batch(V, Y):
        G = problem.vjp_batch(V, Y).copy()
        G[:, entry] *= factor
        return G
    return dataclasses.replace(problem, vjp_batch=vjp_batch)


@pytest.mark.parametrize("n", [64, 384])
@pytest.mark.parametrize("weighted", [False, True])
def test_directional_check_passes_the_bvp_and_catches_one_wrong_entry(n, weighted):
    # the check reads the gradient that descent takes: vjp_batch on the BVP, and the
    # Jacobian on its twin without that hook
    p = make_bvp(n, 1.0, "manufactured_sin", quadrature_weights=weighted)
    dense = dataclasses.replace(p, vjp_batch=None)
    k = n // 2 + 3  # outside the first 16 coordinates
    wrong = [with_jacobian_error(dense, (k, k), 1.0 + 1e-3),
             with_jacobian_error(dense, (k, k + 1), -1.0),
             with_vjp_error(p, k, 1.0 + 1e-3),
             with_vjp_error(p, k, -1.0)]
    for v in np.random.default_rng(17).uniform(-1.0, 1.0, size=(20, n)):
        assert check_gradient(p, v).max_relative_error <= 1e-6
        assert check_gradient(dense, v).max_relative_error <= 1e-6
        for problem in wrong:
            assert check_gradient(problem, v).max_relative_error > 1e-6


def test_gradient_check_catches_a_wrong_vjp():
    # the check reads vjp_batch, the gradient that descent and certificates use
    p = make_bvp(8, 1.0, "manufactured_sin")
    halved = dataclasses.replace(p, vjp_batch=lambda V, Y: 0.5 * p.vjp_batch(V, Y))
    assert check_gradient(halved, np.full(8, 0.3)).max_relative_error > 1e-6
