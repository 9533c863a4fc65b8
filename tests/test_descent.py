import dataclasses
import json
import math

import numpy as np
import pytest

from zerocert import descent
from zerocert import (
    Ball,
    DescentConfig,
    InvalidConfigurationError,
    ResidualProblem,
    certify,
    check_gradient,
    eval_residual,
    make_bvp,
    make_quadratic,
    pull_back_zero,
    recover_problem_independent,
    report,
    residual_norm,
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


def test_a_clipped_trial_equal_to_the_iterate_is_not_evaluated(monkeypatch):
    # the stalling line search clipped every trial back to the iterate 0.5: 54 of the
    # 55 rows sent to residual_rows were that iterate, whose phi cannot pass.  The first
    # search's t = 1 and t = 1/2 both clip from 0.3 to 0.5, and both are evaluated
    tried_from, rows = [], []
    line_search, original = descent._line_search, descent.residual_rows
    monkeypatch.setattr(descent, "_line_search", lambda problem, ball, cfg, ladder, v, *rest: (
        tried_from.append(v.tolist()) or line_search(problem, ball, cfg, ladder, v, *rest)))
    monkeypatch.setattr(descent, "residual_rows", lambda problem, V: (
        rows.extend((tried_from[-1], row) for row in V.tolist()) or original(problem, V)))
    result = solve(make_quadratic(1.0), Ball(np.array([0.3]), 0.2))
    assert (result.status, result.iterations, result.u.tolist()) == ("stalled", 1, [0.5])
    assert [row for _, row in rows] == [[0.5], [0.5]]
    assert all(row != v for v, row in rows)


def test_gauss_newton_stops_at_the_rounding_floor():
    # the default tolerance 1e-10 is below this BVP's rounding floor: the
    # solve reached the floor and then ran to max_iterations
    result = solve(make_bvp(384, 1.0, "manufactured_sin"), Ball(np.zeros(384), 30.0),
                   DescentConfig(direction="gauss_newton", max_iterations=20))
    assert result.status == "stalled"
    assert result.iterations < 20
    assert result.residual_norm <= 2e-10


def fail(name):
    def raise_(*args, **kwargs):
        raise AssertionError(f"{name} called")
    return raise_


def test_gauss_newton_falls_back_on_a_non_finite_system(monkeypatch):
    # F and J overflow at this centre: lstsq used to raise "SVD did not
    # converge"; the BVP's Newton solve and the dense twin's guard both
    # return no direction, and neither reaches lstsq
    monkeypatch.setattr(np.linalg, "lstsq", fail("lstsq"))
    p = make_bvp(4, 1.0)
    for problem in (p, dataclasses.replace(p, newton_solve=None)):
        with np.errstate(all="ignore"):
            result = solve(problem, Ball(np.full(4, 1e160), 0.5),
                           DescentConfig(direction="gauss_newton"))
        assert result.status == "stalled"
        assert result.iterations == 0


def test_gauss_newton_on_the_bvp_builds_no_jacobian_and_calls_no_lstsq(monkeypatch):
    # nor does steepest descent, nor the gradient check: the gradient comes from
    # vjp_batch and the Newton step from newton_solve, so the jacobian hook never runs
    monkeypatch.setattr(np.linalg, "lstsq", fail("lstsq"))
    monkeypatch.setattr(descent, "eval_jacobian", fail("eval_jacobian"))
    ball = Ball(np.zeros(64), 10.0)
    for weighted in (False, True):
        p = dataclasses.replace(make_bvp(64, 1.0, "manufactured_sin", quadrature_weights=weighted),
                                jacobian=fail("jacobian"))
        result = solve(p, ball, DescentConfig(direction="gauss_newton"))
        assert result.status == "converged"
        result = solve(p, ball, DescentConfig(max_iterations=50))
        assert result.status == "max_iterations"
        assert check_gradient(p, result.u).max_relative_error <= 1e-6


def test_gauss_newton_without_newton_solve_takes_the_dense_path(monkeypatch):
    calls = []
    original = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or original(*a, **k))
    p = make_bvp(16, 1.0, "manufactured_sin")
    cfg = DescentConfig(direction="gauss_newton")
    dense = solve(dataclasses.replace(p, newton_solve=None), Ball(np.zeros(16), 10.0), cfg)
    assert dense.status == "converged" and len(calls) == dense.iterations == 4
    fast = solve(p, Ball(np.zeros(16), 10.0), cfg)
    assert len(calls) == 4
    assert fast.iterations == 4 and np.max(np.abs(fast.u - dense.u)) <= 1e-14


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


def test_zero_slope_stalls_without_evaluating_a_trial():
    # F = -1 everywhere: grad phi = 0, so no trial can pass the Armijo test;
    # the ladder used to evaluate phi 55 times at the centre before stalling
    calls = []
    q = make_quadratic(0.0)
    counted = dataclasses.replace(q, residual=lambda v: calls.append(1) or q.residual(v))
    result = solve(counted, Ball(np.array([1.0]), 2.0), record_trace=True)
    assert (result.status, result.iterations, result.residual_norm) == ("stalled", 0, 1.0)
    assert result.u.tolist() == [1.0] and result.trace == ()
    assert len(calls) <= 2


@pytest.mark.parametrize("weight", [None, 1.9])
@pytest.mark.parametrize("start", [2.0**-500, 1.9e154])
def test_solve_takes_the_residual_norm_of_each_iterate_bit_for_bit(start, weight):
    # F(v) = v/2, with steepest steps toward 0.  From 2**-500, phi falls through 2**-1022,
    # below which 2 phi is not the exact sum of squares, until the slope underflows; from
    # 1.9e154 it starts within a factor 4 of overflow.  solve's norm is residual_norm's
    half = ResidualProblem("half", 1, 1, residual=lambda v: 0.5 * v,
                           jacobian=lambda v: np.array([[0.5]]),
                           weights=None if weight is None else np.array([weight]),
                           vjp_batch=lambda V, Y: 0.5 * Y)
    ball = Ball(np.array([start]), start)
    phis = []
    for k in range(80):
        result = solve(half, ball, DescentConfig(max_iterations=k, residual_tolerance=5e-324))
        assert result.residual_norm == residual_norm(half, result.u)
        phis.append(descent.phi_of_residual(half, eval_residual(half, result.u)))
        if result.iterations < k:  # stalled
            break
    assert min(phis) < 2.0**-1022 < max(phis) if start < 1.0 else max(phis) > 2.0**1020


def test_solve_takes_the_residual_norm_where_half_the_sum_rounds_up_to_2_pow_minus_1022():
    # The accepted trial's weighted sum of squares is S = 2**-1021 - 2**-1074 exactly, the
    # largest double below 2**-1021: 0.5 * S is a tie that rounds to 2**-1022, and
    # sqrt(2 * phi) would be one ulp above residual_norm's sqrt(S)
    S = 2.0**-1021 - 2.0**-1074
    w = S / 2.0**-1022  # 2 - 2**-52, so that w * (2**-511)**2 == S
    step = ResidualProblem("step", 1, 1,
                           residual=lambda v: np.array([1.0 if v[0] == 1.0 else 2.0**-511]),
                           jacobian=lambda v: np.array([[1.0]]), weights=np.array([w]))
    result = solve(step, Ball(np.array([1.0]), 2.0), DescentConfig(max_iterations=1))
    assert result.iterations == 1 and result.u.tolist() != [1.0]
    assert 0.5 * S == descent.phi_of_residual(step, eval_residual(step, result.u)) == 2.0**-1022
    assert result.residual_norm == residual_norm(step, result.u) == math.sqrt(S)
