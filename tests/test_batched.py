"""The optional hooks of a problem and the code that uses them.

The sampled domination constant evaluates its points in blocks through the
hooks, and one point at a time on a copy of the problem whose hooks are
removed.  Both sum in another order than the textbook per-point formula, so
each is compared with that formula, computed here, to 1e-15 relative.
Descent, whose line search evaluates its ladder of steps in blocks, is
compared exactly with the same problem searched one trial at a time, so
that both take the gradient from ``vjp_batch``.
The gradient check's difference quotients are compared exactly with the
copy without hooks, and its analytic gradient, ``vjp_batch`` against the
Jacobian, to 1e-12 relative.  ``newton_solve`` is compared with a dense
solve of the analytic Jacobian.
"""

import dataclasses
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from zerocert import (
    Ball,
    DescentConfig,
    InputShapeError,
    ResidualProblem,
    SamplingConfig,
    apply_dependent,
    certify,
    cubic_perturbation,
    domination_constant_sampled,
    eval_jacobian,
    eval_residual,
    grad_phi,
    linear_scale,
    make_bvp,
    make_quadratic,
    recover_problem_independent,
    residual_norm,
    scale,
    search_mu,
    solve,
)
from zerocert import certificate, cli, descent, transforms
from zerocert.functional import check_gradient

GOLDEN = Path(__file__).resolve().parent / "golden"
SIN_CENTER = {n: np.sin(np.pi * np.arange(1, n + 1) / (n + 1)) for n in (4, 10)}


def per_point(problem):
    return dataclasses.replace(problem, vjp_batch=None)


HOOKED = {
    "quadratic": make_quadratic(1.5),
    "quadratic-negative": make_quadratic(-0.5),
    **{
        f"bvp-gamma{gamma:g}{'-weighted' if weighted else ''}": make_bvp(
            6, gamma, "manufactured_sin", quadrature_weights=weighted
        )
        for gamma in (-1.0, 0.0, 1.0)
        for weighted in (False, True)
    },
    "independent-scale": recover_problem_independent(scale(-2.5), make_bvp(5, 1.0, "sin_pi")),
    "dependent-linear": apply_dependent(linear_scale(-3.0), make_bvp(5, 1.0, "sin_pi", True)),
    "dependent-cubic": apply_dependent(cubic_perturbation(0.5), make_bvp(5, -1.0, "sin_pi")),
}


@pytest.mark.parametrize("name", sorted(HOOKED))
def test_batched_hooks_match_per_point_evaluation(name):
    p = HOOKED[name]
    rng = np.random.default_rng(7)
    V = rng.normal(scale=2.0, size=(9, p.n))
    Y = rng.normal(size=(9, p.m))
    R = p.residual(V)
    G = p.vjp_batch(V, Y)
    assert R.shape == (9, p.m) and G.shape == (9, p.n)
    for v, y, r, g in zip(V, Y, R, G):
        np.testing.assert_array_equal(r, eval_residual(p, v))
        jac = eval_jacobian(p, v)
        assert np.all(np.abs(g - jac.T @ y) <= 1e-13 * (np.abs(jac).T @ np.abs(y)))


def test_problems_without_hooks_keep_none_through_transforms():
    plain = dataclasses.replace(make_bvp(4, 1.0), vjp_batch=None, newton_solve=None)
    for p in (
        recover_problem_independent(scale(2.0), plain),
        apply_dependent(cubic_perturbation(1.0), plain),
    ):
        assert p.vjp_batch is None and p.newton_solve is None


def test_batched_output_shapes_are_checked():
    q = make_quadratic(1.0)
    ball = Ball(np.array([2.0]), 0.5)
    wrong_residual = dataclasses.replace(q, residual=lambda V: V[..., 0])
    with pytest.raises(InputShapeError, match=r"residual of 'quadratic' returned shape \(11,\)"):
        domination_constant_sampled(wrong_residual, ball, samples_per_axis=11)
    wrong_vjp = dataclasses.replace(q, vjp_batch=lambda V, Y: Y[:-1])
    with pytest.raises(InputShapeError, match="vjp_batch"):
        domination_constant_sampled(wrong_vjp, ball, samples_per_axis=11)


SAME_C = [
    *[
        (f"bvp{n}{'-weighted' if w else ''}-{where}", make_bvp(n, 1.0, "manufactured_sin", w),
         Ball(center, radius), spa)
        for n, spa in ((4, 6), (10, 2))
        for w in (False, True)
        for where, center, radius in (("origin", np.zeros(n), 0.5),
                                      ("sin", SIN_CENTER[n], 0.1))
    ],
    ("quadratic", make_quadratic(1.0), Ball(np.array([2.0]), 0.5), 1001),
    # the grid 0.5, 0.501, ..., 1.5 holds the zero 1.0 exactly: it sits
    # below the residual floor and is excluded on both paths
    ("quadratic-zero-on-grid", make_quadratic(1.0), Ball(np.array([1.0]), 0.5), 1001),
    ("quadratic-negative", make_quadratic(-2.0), Ball(np.array([-0.3]), 0.2), 401),
    ("scaled-bvp", recover_problem_independent(scale(0.75), make_bvp(4, 1.0, "sin_pi")),
     Ball(np.zeros(4), 0.5), 6),
    ("cubic-bvp", apply_dependent(cubic_perturbation(0.1), make_bvp(4, -1.0, "sin_pi", True)),
     Ball(SIN_CENTER[4], 0.3), 6),
]


def per_point_reference(problem, ball, spa, seed, floor=1e-12, safety=0.9, mu=1.0):
    """safety * min ||grad phi(v/mu)|| / (|mu| ||F(v/mu)||) over the sampled points v with
    ||F(v/mu)|| > floor: the constant of F(v/mu), F's own at mu = 1.0."""
    points = certificate._sample_points(problem, ball, spa, seed)
    return safety * min(float(np.linalg.norm(grad_phi(problem, v / mu))) / (abs(mu) * rn)
                        for v in points if (rn := residual_norm(problem, v / mu)) > floor)


@pytest.mark.parametrize("name,problem,ball,spa", SAME_C, ids=[case[0] for case in SAME_C])
@pytest.mark.parametrize("seed", [1, 42])
def test_sampled_constant_matches_the_per_point_reference(name, problem, ball, spa, seed):
    reference = per_point_reference(problem, ball, spa, seed)
    for p in (problem, per_point(problem)):
        c = domination_constant_sampled(p, ball, spa, seed=seed)
        assert c > 0.0
        assert abs(c - reference) <= 1e-15 * reference


def test_residual_floor_excludes_the_same_points_on_both_paths():
    # a floor inside the range of sampled norms: the points excluded and
    # kept by it must match the per-point decision exactly
    q = make_quadratic(1.0)
    ball = Ball(np.array([1.0]), 0.5)
    for floor in (0.01, 0.25, 1.0 - 0.75**2):
        batched = domination_constant_sampled(q, ball, 1001, residual_floor=floor)
        assert batched == domination_constant_sampled(per_point(q), ball, 1001, residual_floor=floor)


def test_non_finite_batch_gives_zero_on_both_paths():
    p = make_bvp(4, 1.0, "manufactured_sin")
    ball = Ball(np.full(4, 1e110), 0.5)
    with np.errstate(all="ignore"):
        batched = domination_constant_sampled(p, ball, 6)
        looped = domination_constant_sampled(per_point(p), ball, 6)
    assert batched == looped == 0.0


def test_sampled_certify_takes_no_per_point_gradient():
    # 65 536 points, all through vjp_batch: no Jacobian, where the per-point
    # loop over all of them takes seconds
    jacobians = []
    bvp = make_bvp(16, 1.0, "manufactured_sin")
    p = dataclasses.replace(bvp, jacobian=lambda v: jacobians.append(1) or bvp.jacobian(v))
    cert = certify(p, Ball(np.zeros(16), 0.5), "sampled", SamplingConfig(samples_per_axis=2))
    assert cert.sample_count == 65536
    assert cert.c > 0.0
    assert jacobians == []


def test_user_problem_without_hooks_takes_the_per_point_path():
    jacobians = []
    user = ResidualProblem(
        name="user", n=1, m=1,
        residual=lambda v: np.array([v[0] ** 2 - 1.0]),
        jacobian=lambda v: jacobians.append(1) or np.array([[2.0 * v[0]]]),
    )
    c = domination_constant_sampled(user, Ball(np.array([2.0]), 0.5), samples_per_axis=101)
    assert c == pytest.approx(2.7)
    assert len(jacobians) == 101


def counting(problem, calls):
    """``problem`` whose residual appends the number of points of each call to ``calls``."""
    def residual(V):
        calls.append(len(V) if np.ndim(V) == 2 else 1)
        return problem.residual(V)
    return dataclasses.replace(problem, residual=residual)


def sequential_residual_count(searches, ball, cfg):
    """Residual calls of a one-trial-at-a-time ladder under clip_to_ball.

    One call at the centre, and per line search one per trial down to the
    accepted step (the whole ladder for a stall), whose residual the gradient
    and the Gauss-Newton direction reuse.  A trial that clips or rounds back
    to v has phi(v), cannot pass and is not evaluated.  ``searches`` holds
    each line search's (v, d, accepted ladder index, or None for a stall).
    """
    ladder = [cfg.initial_step]
    while ladder[-1] * cfg.backtrack_factor >= 1e-16:
        ladder.append(ladder[-1] * cfg.backtrack_factor)
    count = 1
    for v, d, index in searches:
        for t in ladder if index is None else ladder[:index + 1]:
            trial = v + t * d
            offset = trial - ball.center
            norm = np.linalg.norm(offset)
            if not norm <= ball.radius:
                trial = ball.center + offset * (ball.radius / norm)
            count += bool((trial != v).any())
    return count


DESCENT_BALLS = (0.5, 3.0)  # radii around 0.3 * ones: the sphere stops descent, and a zero inside


@pytest.mark.parametrize("name", sorted(HOOKED))
@pytest.mark.parametrize("policy", ["clip_to_ball", "reject_outside"])
@pytest.mark.parametrize("direction", ["steepest", "gauss_newton"])
def test_block_line_search_matches_the_sequential_ladder(name, policy, direction, monkeypatch):
    p = HOOKED[name]
    cfg = DescentConfig(ball_policy=policy, direction=direction, max_iterations=60)
    line_search = descent._line_search

    def recorded(problem, ball, cfg, ladder, v, d, *rest):
        found = line_search(problem, ball, cfg, ladder, v, d, *rest)
        searches.append((v, d, None if found is None else found[0]))
        return found

    for radius in DESCENT_BALLS:
        ball = Ball(np.full(p.n, 0.3), radius)
        calls, searches = [], []
        with np.errstate(all="ignore"):
            blocks = solve(p, ball, cfg, record_trace=True)
            with monkeypatch.context() as patched:
                patched.setattr(descent, "_line_search", recorded)
                patched.setattr(descent, "block_rows", lambda problem: 1)
                looped = solve(counting(p, calls), ball, cfg, record_trace=True)
            expected = sequential_residual_count(searches, ball, cfg)
        assert blocks.u.tobytes() == looped.u.tobytes()
        assert (blocks.status, blocks.iterations, blocks.residual_norm) == (
            looped.status, looped.iterations, looped.residual_norm)
        assert blocks.trace == looped.trace
        assert set(calls) == {1}
        if policy == "clip_to_ball":
            assert len(calls) == expected


@pytest.mark.parametrize("name", sorted(HOOKED))
def test_gradient_check_in_blocks_matches_the_per_point_check(name):
    p = HOOKED[name]
    for x in (np.full(p.n, 0.3), np.linspace(-2.0, 2.0, p.n)):
        blocks = check_gradient(p, x)
        looped = check_gradient(per_point(p), x)
        assert blocks.numeric_derivatives.tobytes() == looped.numeric_derivatives.tobytes()
        # vjp_batch and the Jacobian's product differ only in rounding
        np.testing.assert_allclose(blocks.analytic_gradient, looped.analytic_gradient,
                                   rtol=1e-12)


def test_line_search_and_gradient_check_bound_their_blocks():
    # n = 1024: 8 rows per batched residual call, so the gradient check
    # holds 8 x 1024 extended-precision entries at a time, and it evaluates
    # 2 x 16 perturbed points along its 16 directions, not 2n
    p = make_bvp(1024, 1.0, "manufactured_sin")
    calls = []
    counted = counting(p, calls)
    check_gradient(counted, np.zeros(1024))
    assert max(calls) == 8 and sum(calls) == 1 + 2 * 16
    calls.clear()
    solve(counted, Ball(np.zeros(1024), 0.5), DescentConfig(max_iterations=3))
    assert max(calls) <= 8


def test_sampled_constant_bounds_its_blocks():
    # n = 16: 512 rows per batched residual call, 128 calls for 65 536 points
    calls = []
    counted = counting(make_bvp(16, 1.0, "manufactured_sin"), calls)
    domination_constant_sampled(counted, Ball(np.zeros(16), 0.5), samples_per_axis=2)
    assert max(calls) == 512 and calls.count(512) == 128


def golden_case(config):
    """The config of a golden case with its problem and ball, built as the CLI builds them."""
    cfg = cli.load_config(GOLDEN / config)
    problem = cli.build_problem(cfg)
    return cfg, problem, cli.build_ball(cfg, problem)


@pytest.mark.parametrize("config, residual_calls, jacobian_calls", [
    ("bvp16_steepest_clip.json", 297, 0),  # 293 iterations, then a stall
    ("bvp16_gauss_newton.json", 5, 0),  # 4 iterations
])
def test_descent_evaluates_f_once_per_iterate(config, residual_calls, jacobian_calls):
    # the gradient and the Gauss-Newton step reuse the residual of the accepted trial, so
    # F is evaluated once at the centre and then once per line-search block: one block for
    # each line search that accepts a step, three for the steepest case's stall.  The
    # gradient comes from vjp_batch and the Gauss-Newton step from newton_solve: no Jacobian
    cfg, problem, ball = golden_case(config)
    calls, jacobians = [], []
    counted = dataclasses.replace(counting(problem, calls),
                                  jacobian=lambda v: jacobians.append(1) or problem.jacobian(v))
    solve(counted, ball, cli.build_descent_config(cfg))
    assert (len(calls), len(jacobians)) == (residual_calls, jacobian_calls)


def test_row_norms_are_the_norms_ball_contains_takes():
    # the clip and the reject screen compare these with the radius, as Ball.contains
    # compares np.linalg.norm; an einsum norm sums in another order and moves the
    # bvp16_steepest_clip golden
    rng = np.random.default_rng(17)
    for n in [*range(1, 81), 256, 1024]:
        for size in (1e-8, 1.0, 1e8):
            for k in (1, 2, 21, 64):
                rows = size * rng.normal(size=(k, n))
                expected = np.array([np.linalg.norm(row) for row in rows])
                assert descent._row_norms(rows).tobytes() == expected.tobytes()


def identity_problem(m):
    """F(v) = v on R^m, batched: a trial's squares are its entries squared."""
    return ResidualProblem(name="identity", n=m, m=m, residual=lambda V: 1.0 * V,
                           jacobian=lambda v: np.eye(m), vjp_batch=lambda V, Y: 1.0 * Y)


def test_line_search_accepts_a_trial_whose_float_sum_alone_would_reject_it():
    # rows whose float sum S of squares lies above 2 phi_v while their compensated
    # sum lies below it: the screen's margin must keep them, and the line search
    # accepts the first of a block of four such trials with its compensated phi
    m = 64
    rng = np.random.default_rng(2024)
    rows = rng.normal(size=(4000, m)) * np.exp(rng.uniform(-2.0, 2.0, size=(4000, m)))
    squares = rows * rows
    float_sums = squares.sum(axis=1)
    cases = [i for i in range(len(rows))
             if math.fsum(squares[i].tolist()) < np.nextafter(float_sums[i], 0.0)][:4]
    assert cases
    for i in cases:
        phi_v = 0.5 * np.nextafter(float_sums[i], 0.0)
        phi_trial = 0.5 * math.fsum(squares[i].tolist())
        assert phi_trial < phi_v < 0.5 * float_sums[i]
        # from v = 0 along d = rows[i], so the step t = 1 lands on rows[i] exactly
        found = descent._line_search(identity_problem(m), Ball(rows[i], 1.0), DescentConfig(),
                                     [1.0], np.zeros(m), rows[i], -1e-300, phi_v, 4)
        assert found is not None
        index, trial, r, phi = found
        assert index == 0 and phi == phi_trial
        assert trial.tobytes() == r.tobytes() == rows[i].tobytes()


def test_line_search_takes_few_compensated_sums(monkeypatch):
    # the float-sum screen leaves under 2 compensated sums per iteration on the
    # clipped BVP golden: 540 for its 293 iterations and the stall
    cfg, problem, ball = golden_case("bvp16_steepest_clip.json")
    calls, active = [], []
    fsum, line_search = math.fsum, descent._line_search

    def counted_fsum(terms):
        calls.extend(active)
        return fsum(terms)

    def counted_line_search(*args):
        active.append(1)
        try:
            return line_search(*args)
        finally:
            active.clear()

    monkeypatch.setattr(math, "fsum", counted_fsum)
    monkeypatch.setattr(descent, "_line_search", counted_line_search)
    result = solve(problem, ball, cli.build_descent_config(cfg))
    assert result.iterations == 293
    assert len(calls) <= 4 * result.iterations


def test_a_one_row_block_whose_sum_of_squares_overflows_writes_no_warning():
    # each square at the trial is 1e308, their sum overflows: the compensated sum
    # makes it inf without a warning, and the float sum of the screen must too
    p = ResidualProblem(name="twice", n=1, m=2,
                        residual=lambda V: np.concatenate([V, V], axis=-1),
                        jacobian=lambda v: np.ones((2, 1)),
                        vjp_batch=lambda V, Y: Y.sum(axis=1, keepdims=True))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = descent._line_search(p, Ball(np.zeros(1), 1e155), DescentConfig(), [1.0],
                                     np.zeros(1), np.array([1e154]), -1.0, 1.0, 1)
    assert found is None


def test_sampled_sweep_draws_its_points_once(monkeypatch):
    # every mu is judged on the same points, as certify on its recovered problem judges it;
    # drawing them for every mu called sample_ball 6 times
    calls = []
    original = certificate.sample_ball
    monkeypatch.setattr(certificate, "sample_ball",
                        lambda *args, **kwargs: calls.append(1) or original(*args, **kwargs))
    cfg, problem, ball = golden_case("bvp_weighted_geometric.json")
    method, sampling = cli.build_certificate_settings(cfg, problem, cfg["seed"])
    found = search_mu(problem, ball, method=method, sampling=sampling,
                      **cli.build_transform_settings(cfg, True))
    assert len(calls) == 1
    assert len(found.sweep) == 6
    for point in found.sweep:
        cert = certify(recover_problem_independent(scale(point.mu), problem), ball, method, sampling)
        assert (point.c, point.lhs, point.rhs, point.passed) == (cert.c, cert.lhs, cert.rhs,
                                                                 cert.passed)


def assert_sweep_is_certify_on_each_recovered_problem(problem, ball, mu_range, grid_size,
                                                      sampling, spacing="linear"):
    found = search_mu(problem, ball, mu_range, grid_size, "sampled", sampling, spacing)
    for point in found.sweep:
        cert = certify(recover_problem_independent(scale(point.mu), problem), ball, "sampled",
                       sampling)
        assert (point.c, point.lhs, point.rhs, point.slack, point.passed) == (
            cert.c, cert.lhs, cert.rhs, cert.slack, cert.passed), point.mu
    return found.sweep


def floored_quadratic(nan_above=math.inf, zero_above=math.inf):
    """F(v) = v**2 - 1 with a vjp_batch that is NaN where v > nan_above, and F = 0 where
    v > zero_above."""
    def residual(V):
        return np.where(V > zero_above, 0.0, V * V - 1.0)

    return ResidualProblem(name="floored", n=1, m=1, residual=residual,
                           jacobian=lambda v: np.array([[2.0 * v[0]]]),
                           vjp_batch=lambda V, Y: np.where(V > nan_above, np.nan, 2.0 * V * Y))


@pytest.mark.parametrize("problem, ball, mu_range, grid_size, spa, spacing", [
    (make_bvp(4, 1.0, "manufactured_sin"), Ball(SIN_CENTER[4], 0.3), (-2.0, 3.0), 7, 4,
     "linear"),
    (make_bvp(4, -1.0, "sin_pi", quadrature_weights=True), Ball(SIN_CENTER[4], 0.3),
     (0.4, 3.0), 6, 4, "geometric"),
    # 1024 points of dimension 10 take two blocks of at most 819 rows for every mu
    (make_bvp(10, 1.0, "manufactured_sin"), Ball(np.zeros(10), 0.5), (0.5, 2.0), 3, 2,
     "linear"),
    (per_point(make_bvp(4, 1.0, "manufactured_sin")), Ball(SIN_CENTER[4], 0.3), (-2.0, 3.0), 4,
     3, "linear"),
], ids=["across-zero", "weighted", "mu-over-several-blocks", "without-vjp-batch"])
def test_sampled_sweep_is_certify_on_each_recovered_problem(problem, ball, mu_range, grid_size,
                                                           spa, spacing):
    sampling = SamplingConfig(samples_per_axis=spa)
    if problem.vjp_batch is not None:
        sweep = assert_sweep_is_certify_on_each_recovered_problem(
            problem, ball, mu_range, grid_size, sampling, spacing)
    else:
        # a row's gradient (J_F^T w F)/mu rounds like the recovered problem's
        # (J_F (1/mu))^T w F where mu is a power of two; elsewhere it is within 1e-15
        for mu in (-4.0, -0.5, 0.5, 2.0, 4.0):
            assert_sweep_is_certify_on_each_recovered_problem(problem, ball, (mu, mu), 1, sampling)
        sweep = search_mu(problem, ball, mu_range, grid_size, "sampled", sampling, spacing).sweep
        for point in sweep:
            reference = per_point_reference(problem, ball, spa, sampling.seed, mu=point.mu)
            assert abs(point.c - reference) <= 1e-15 * reference, point.mu
    assert all(point.c > 0.0 for point in sweep)


def test_sampled_sweep_without_vjp_batch_builds_no_problem_per_mu(monkeypatch):
    built = []
    original = transforms.recover_problem_independent
    monkeypatch.setattr(transforms, "recover_problem_independent",
                        lambda t, p: built.append(t) or original(t, p))
    problem = per_point(make_bvp(4, 1.0, "manufactured_sin"))
    found = search_mu(problem, Ball(SIN_CENTER[4], 0.3), (-2.0, 3.0), 4, "sampled",
                      SamplingConfig(samples_per_axis=3))
    assert len(found.sweep) == 4
    assert built == []


def test_a_nan_ratio_zeroes_only_its_own_mu():
    # all three mu share one block; at mu = 0.5 the points v/mu lie in [3, 5], half past 4
    sweep = assert_sweep_is_certify_on_each_recovered_problem(
        floored_quadratic(nan_above=4.0), Ball(np.array([2.0]), 0.5), (0.5, 1.5), 3,
        SamplingConfig(samples_per_axis=101))
    assert sweep[0].c == 0.0 and sweep[1].c == 2.7 and sweep[2].c > 0.0


def test_a_mu_with_every_point_under_the_floor_gets_c_zero():
    # at mu = 0.5 every F(v/mu) is 0
    sweep = assert_sweep_is_certify_on_each_recovered_problem(
        floored_quadratic(zero_above=2.9), Ball(np.array([2.0]), 0.5), (0.5, 1.5), 3,
        SamplingConfig(samples_per_axis=101))
    assert sweep[0].c == 0.0 and sweep[1].c > 0.0 and sweep[2].c > 0.0


def test_sampled_sweep_takes_one_residual_block_for_all_its_mu():
    # 6 mu x 216 points of dimension 3 fit one block: 1 batched call, where each mu took its own;
    # the 6 centres x/mu, whose norms are the lhs, take a second
    cfg, problem, ball = golden_case("bvp_weighted_geometric.json")
    blocks = []
    original = problem.residual
    counted = dataclasses.replace(
        problem, residual=lambda V: blocks.extend([len(V)] * (np.ndim(V) == 2)) or original(V))
    method, sampling = cli.build_certificate_settings(cfg, counted, cfg["seed"])
    found = search_mu(counted, ball, method=method, sampling=sampling,
                      **cli.build_transform_settings(cfg, True))
    assert len(found.sweep) == 6
    assert blocks == [6 * 216, 6]


def test_sampled_sweep_memory_stays_within_its_blocks():
    # 51 mu x 20 736 points of dimension 4 as one array would take 34 MB
    problem, ball = make_bvp(4, 1.0, "manufactured_sin"), Ball(SIN_CENTER[4], 0.3)
    sampling = SamplingConfig(samples_per_axis=12)
    peaks = []
    for run in (lambda: certify(problem, ball, "sampled", sampling),
                lambda: search_mu(problem, ball, (0.5, 3.0), 51, "sampled", sampling)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0]


NEWTON = {
    **{
        f"bvp{n}-gamma{gamma:g}{'-weighted' if weighted else ''}": make_bvp(
            n, gamma, "manufactured_sin", quadrature_weights=weighted
        )
        for n in (2, 8, 384)
        for gamma in (1.0, 0.0, -1.0, -5.0)
        for weighted in (False, True)
    },
    **{
        f"independent-scale{mu:g}{'-weighted' if weighted else ''}": recover_problem_independent(
            scale(mu), make_bvp(8, gamma, "sin_pi", quadrature_weights=weighted)
        )
        for mu, gamma in ((1.7, 1.0), (-0.8, -5.0))
        for weighted in (False, True)
    },
}


@pytest.mark.parametrize("name", sorted(NEWTON))
def test_newton_solve_matches_the_dense_solve(name):
    p = NEWTON[name]
    rng = np.random.default_rng(11)
    for _ in range(3):
        v = rng.normal(scale=2.0, size=p.n)
        y = rng.normal(size=p.n)
        jac = eval_jacobian(p, v)
        dense = np.linalg.solve(jac, y)
        x = p.newton_solve(v, y)
        assert x.shape == (p.n,)
        bound = 1e-14 * np.linalg.cond(jac) * np.linalg.norm(dense)
        assert np.linalg.norm(x - dense) <= bound


@pytest.mark.parametrize("gamma, v, y", [
    # the first pivot 2/h^2 + 3*gamma*v[0]^2 = 18 - 18 is exactly zero
    (-6.0, [1.0, 0.0], [1.0, 1.0]),
    # the last pivot 4.5 - 81/18 is exactly zero
    (-4.5, [0.0, 1.0], [1.0, 1.0]),
    (1.0, [np.nan, 0.0], [1.0, 1.0]),
    (1.0, [1e160, 1e160], [np.inf, 1.0]),
], ids=["zero-first-pivot", "zero-last-pivot", "nan-point", "overflow"])
def test_newton_solve_breaks_down_to_nan_without_a_warning(gamma, v, y):
    p = make_bvp(2, gamma)
    with np.errstate(all="raise"):
        x = p.newton_solve(np.array(v), np.array(y))
    assert x.shape == (2,) and np.isnan(x).any()


@pytest.mark.parametrize("name", sorted(HOOKED))
def test_sweep_lhs_is_each_centres_residual_norm_bit_for_bit(name):
    # every lhs comes from one residual_rows call over the centres x/mu
    p = HOOKED[name]
    ball = Ball(np.linspace(-0.7, 0.9, p.n), 0.4)
    sampling = SamplingConfig(samples_per_axis=3 if p.n > 1 else 31)
    for q in (p, per_point(p)):
        found = search_mu(q, ball, (-2.5, 3.0), 9, "sampled", sampling, spacing="geometric")
        assert len(found.sweep) == 9
        for entry in found.sweep:
            assert entry.lhs == residual_norm(q, ball.center / entry.mu)


def test_sampled_constant_takes_no_jacobian_at_floored_points():
    # a user quadratic without hooks on B0.5(1.0): |v^2 - 1| <= 0.25 on about half the points,
    # whose ratios the floor leaves out; each Jacobian call is one point's gradient
    calls = []
    q = ResidualProblem("user-quadratic", 1, 1, residual=lambda v: v * v - 1.0,
                        jacobian=lambda v: calls.append(1) or np.array([[2.0 * v[0]]]))
    ball, floor = Ball(np.array([1.0]), 0.5), 0.25
    c = domination_constant_sampled(q, ball, 1001, residual_floor=floor)
    points = np.linspace(0.5, 1.5, 1001)
    assert len(calls) == np.count_nonzero(np.abs(points * points - 1.0) > floor) < 1001
    assert c == domination_constant_sampled(make_quadratic(1.0), ball, 1001, residual_floor=floor)
