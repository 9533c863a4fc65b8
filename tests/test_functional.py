import numpy as np
import pytest

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


def test_residual_norm_of_a_non_finite_residual_stays_non_finite():
    with np.errstate(all="ignore"):
        assert residual_norm(make_bvp(4, 1.0), np.full(4, 1e110)) == np.inf
