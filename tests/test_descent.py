import json

import numpy as np
import pytest

from zerocert import (
    Ball,
    DescentConfig,
    InvalidConfigurationError,
    ResidualProblem,
    certify,
    eval_residual,
    make_bvp,
    make_quadratic,
    pull_back_zero,
    recover_problem_independent,
    report,
    scale,
    search_mu,
    solve,
    verify_solution,
)


def test_solve_locates_zero_in_certified_ball():
    result = solve(make_quadratic(1.0), Ball(np.array([1.2]), 0.5))
    assert result.status == "converged"
    assert result.in_ball
    assert result.residual_norm <= 1e-10
    assert abs(result.u[0] - 1.0) <= 1e-8


def test_solve_zero_iterations_when_center_is_a_zero():
    g = recover_problem_independent(scale(2.0), make_quadratic(1.0))
    result = solve(g, Ball(np.array([2.0]), 0.5))
    assert result.status == "converged"
    assert result.iterations == 0
    assert result.u[0] == 2.0


def test_solve_reports_failure_when_no_zero_in_ball():
    result = solve(make_quadratic(1.0), Ball(np.array([0.3]), 0.2))
    assert result.status in ("stalled", "max_iterations")
    assert result.residual_norm > 0.0
    assert result.in_ball


def test_solve_stalls_on_flat_gradient():
    # constant residual -1: grad phi is identically zero
    result = solve(make_quadratic(0.0), Ball(np.array([1.0]), 2.0))
    assert result.status == "stalled"
    assert result.iterations == 0
    assert result.residual_norm == 1.0


def test_descent_is_monotone_and_steps_recorded():
    result = solve(make_quadratic(4.0), Ball(np.array([0.75]), 0.5), record_trace=True)
    assert result.status == "converged"
    assert result.trace
    phis = [row[1] for row in result.trace]
    assert all(a >= b for a, b in zip(phis, phis[1:]))
    assert all(row[3] > 0.0 for row in result.trace)


def test_iterates_stay_in_ball_even_when_stalled():
    ball = Ball(np.array([0.3]), 0.2)
    for policy in ("clip_to_ball", "reject_outside"):
        result = solve(make_quadratic(1.0), ball, DescentConfig(ball_policy=policy))
        assert np.linalg.norm(result.u - ball.center) <= ball.radius + 1e-12


def test_clip_to_ball_stalls_at_the_sphere_instead_of_taking_null_steps():
    # the clipped trial equals v and the Armijo term is below half an ulp of
    # phi: the test passed with equality and the budget went on null steps
    result = solve(make_quadratic(1.0), Ball(np.array([0.3]), 0.2),
                   DescentConfig(max_iterations=50), record_trace=True)
    assert result.status == "stalled"
    assert result.iterations < 50
    assert result.u.tolist() == [0.5]
    phis = [row[1] for row in result.trace]
    assert all(a > b for a, b in zip(phis, phis[1:]))


def test_gauss_newton_stops_at_the_rounding_floor():
    # the default tolerance 1e-10 is below this BVP's rounding floor: the
    # solve reached the floor and then ran to max_iterations
    result = solve(make_bvp(384, 1.0, "manufactured_sin"), Ball(np.zeros(384), 30.0),
                   DescentConfig(direction="gauss_newton", max_iterations=20))
    assert result.status == "stalled"
    assert result.iterations < 20
    assert result.residual_norm <= 2e-10


def test_gauss_newton_falls_back_on_a_non_finite_system():
    # F and J overflow at this centre: lstsq raised "SVD did not converge"
    with np.errstate(all="ignore"):
        result = solve(make_bvp(4, 1.0), Ball(np.full(4, 1e160), 0.5),
                       DescentConfig(direction="gauss_newton"))
    assert result.status == "stalled"
    assert result.iterations == 0


def test_nan_residual_never_counts_as_converged():
    nan = ResidualProblem(name="nan", n=1, m=1, residual=lambda v: np.full(1, np.nan),
                          jacobian=lambda v: np.ones((1, 1)))
    result = solve(nan, Ball(np.array([0.0]), 1.0))
    assert result.status == "stalled"
    assert result.iterations == 0


def test_reject_outside_policy_converges_for_interior_zero():
    result = solve(make_quadratic(1.0), Ball(np.array([1.2]), 0.5),
                   DescentConfig(ball_policy="reject_outside"))
    assert result.status == "converged"
    assert abs(result.u[0] - 1.0) <= 1e-8


def test_gauss_newton_accelerates_bvp():
    p = make_bvp(16, 1.0, "manufactured_sin")
    result = solve(p, Ball(np.zeros(16), 10.0), DescentConfig(direction="gauss_newton"))
    assert result.status == "converged"
    assert result.iterations <= 20
    t = np.arange(1, 17) / 17.0
    assert np.max(np.abs(result.u - np.sin(np.pi * t))) <= 1e-2


def test_weighted_gauss_newton_finds_the_unweighted_solution():
    # quadrature weights change the norm, not the zero: for square J the
    # weighted least-squares step is the Newton step
    cfg = DescentConfig(direction="gauss_newton")
    ball = Ball(np.zeros(16), 10.0)
    weighted = solve(make_bvp(16, 1.0, "manufactured_sin", quadrature_weights=True), ball, cfg)
    plain = solve(make_bvp(16, 1.0, "manufactured_sin"), ball, cfg)
    assert weighted.status == "converged" and weighted.iterations == 4
    assert np.max(np.abs(weighted.u - plain.u)) <= 1e-14


def test_certified_pipeline_end_to_end():
    q = make_quadratic(1.0)
    ball = Ball(np.array([2.0]), 0.5)
    raw = certify(q, ball, "closed_form_quadratic")
    assert not raw.passed
    found = search_mu(q, ball, (0.5, 3.0), 26)
    assert found.any_passed
    assert found.best_parameter == pytest.approx(2.0, abs=1e-12)
    transform = scale(found.best_parameter)
    g = recover_problem_independent(transform, q)
    result = solve(g, ball)
    assert result.status == "converged"
    assert abs(eval_residual(g, result.u)[0]) <= 1e-10
    u = pull_back_zero(transform, result.u)
    assert eval_residual(q, u)[0] == eval_residual(g, result.u)[0]
    assert abs(eval_residual(q, u)[0]) <= 1e-10


def test_verify_solution():
    q = make_quadratic(1.0)
    assert verify_solution(q, [1.0], Ball(np.array([1.2]), 0.5), 1e-10)
    assert not verify_solution(q, [1.0], Ball(np.array([2.0]), 0.5), 1e-10)
    assert not verify_solution(q, [2.0], Ball(np.array([2.0]), 0.5), 1e-10)


def test_descent_config_validation():
    with pytest.raises(InvalidConfigurationError):
        DescentConfig(residual_tolerance=0.0)
    with pytest.raises(InvalidConfigurationError):
        DescentConfig(backtrack_factor=1.0)
    with pytest.raises(InvalidConfigurationError):
        DescentConfig(sufficient_decrease=0.0)
    with pytest.raises(InvalidConfigurationError):
        DescentConfig(ball_policy="bounce")
    with pytest.raises(InvalidConfigurationError):
        DescentConfig(direction="newton")


def test_result_serializes():
    result = solve(make_quadratic(1.0), Ball(np.array([1.2]), 0.5))
    d = json.loads(report.dumps(result))
    assert d["status"] == "converged"
    assert d["in_ball"] is True
    assert isinstance(d["u"], list)
