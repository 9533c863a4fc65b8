"""Acceptance gate: one test per criterion, at the stated tolerance and
runtime budget.  Each prints an ACCEPTANCE pass/fail line (visible with -s).
"""

import time
from contextlib import contextmanager

import numpy as np

from zerocert import (
    Ball,
    DescentConfig,
    apply_dependent,
    certify,
    cubic_perturbation,
    eval_residual,
    linear_scale,
    make_bvp,
    make_quadratic,
    pull_back_zero,
    quadratic_domination_constant,
    recover_problem_independent,
    scale,
    solve,
    transformed_certificate_quadratic,
)
from zerocert.selftest import (
    EQUIVALENCE_GRID,
    suite_closed_form_vs_sampled,
    suite_equivalence_grid,
    suite_gradient_checks,
)


@contextmanager
def criterion(num, name, budget_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.2f}s, budget {budget_s}s"
    print(f"ACCEPTANCE {num} {name}: PASS ({elapsed:.2f}s)")


def test_criterion_1_closed_form_constant_vs_brute_force():
    with criterion(1, "closed-form constant vs brute-force minimization", 1.0):
        for lam in EQUIVALENCE_GRID["lam"]:
            for x in EQUIVALENCE_GRID["x"]:
                for r in EQUIVALENCE_GRID["r"]:
                    c = quadratic_domination_constant(lam, x, r)
                    v = np.linspace(x - r, x + r, 100_000)
                    brute = float(np.min(2.0 * abs(lam) * np.abs(v)))
                    if x - r <= 0.0 <= x + r:
                        assert c == 0.0
                        assert brute <= 2.0 * abs(lam) * (2.0 * r / 99_999)
                    else:
                        assert abs(c - brute) <= 1e-4


def test_criterion_2_transformed_certificate_equivalence():
    with criterion(2, "equivalence of transformed certificate forms", 1.0):
        result = suite_equivalence_grid()
        assert result.ok and result.passed == 180, result


def test_criterion_3_worked_latitude_example():
    with criterion(3, "worked latitude example", 1.0):
        q = make_quadratic(1.0)
        ball = Ball(np.array([2.0]), 0.5)

        raw = certify(q, ball, "closed_form_quadratic")
        assert not raw.passed
        assert raw.lhs == 3.0 and raw.rhs == 1.5

        relaxed = transformed_certificate_quadratic(1.0, 2.0, 2.0, 0.5)
        assert relaxed.passed
        assert relaxed.slack == 1.5

        transform = scale(2.0)
        g = recover_problem_independent(transform, q)
        result = solve(g, ball)
        assert result.status == "converged"
        u = pull_back_zero(transform, result.u)
        assert abs(eval_residual(q, u)[0]) <= 1e-10
        assert abs(u[0] - 1.0) <= 1e-8


def test_criterion_4_sampled_constant_vs_closed_form():
    with criterion(4, "sampled constant within 1% of closed form", 5.0):
        result = suite_closed_form_vs_sampled(42, cases=50)
        assert result.ok and result.passed == 50, result


def test_criterion_5_gradient_correctness():
    with criterion(5, "gradient vs finite differences on built-ins", 10.0):
        problems = [make_quadratic(1.0), make_quadratic(2.0)]
        for gamma, forcing in ((0.0, "sin_pi"), (1.0, "manufactured_sin")):
            for n in (16, 64):
                problems.append(make_bvp(n, gamma, forcing))
        result = suite_gradient_checks(42, problems=problems, points=100)
        assert result.ok and result.passed == 600, result


def test_criterion_6_certificate_soundness():
    with criterion(6, "passing certificates yield converged descent", 10.0):
        rng = np.random.default_rng(42)
        solved = 0
        while solved < 200:
            lam = rng.uniform(0.25, 4.0)
            x = rng.uniform(-3.0, 3.0)
            r = rng.uniform(0.1, 1.0)
            ball = Ball(np.array([x]), r)
            problem = make_quadratic(lam)
            if not certify(problem, ball, "closed_form_quadratic").passed:
                continue
            result = solve(problem, ball)
            assert result.status == "converged"
            assert result.residual_norm <= 1e-8
            assert np.linalg.norm(result.u - ball.center) <= r + 1e-9
            solved += 1


def test_criterion_7_zero_correspondence():
    with criterion(7, "zero correspondence under transforms", 1.0):
        rng = np.random.default_rng(42)
        for trial in range(100):
            lam = rng.uniform(0.25, 4.0)
            problem = make_quadratic(lam)
            u = np.array([rng.choice([-1.0, 1.0]) / np.sqrt(lam)])
            if trial % 3 == 2:
                # dependent transforms fix zeros in place
                if trial % 2:
                    transform = linear_scale(rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0]))
                else:
                    transform = cubic_perturbation(rng.uniform(0.0, 2.0))
                mapped = apply_dependent(transform, problem)
                assert abs(eval_residual(mapped, u)[0]) <= 1e-10
            else:
                mu = rng.uniform(0.3, 3.0) * rng.choice([-1.0, 1.0])
                transform = scale(mu)
                g = recover_problem_independent(transform, problem)
                assert abs(eval_residual(g, transform.forward(u))[0]) <= 1e-10
                v_star = rng.uniform(-3.0, 3.0, size=1)
                pulled = pull_back_zero(transform, v_star)
                assert eval_residual(problem, pulled)[0] == eval_residual(g, v_star)[0]


def test_criterion_8_linear_scale_verdict_invariance():
    with criterion(8, "verdict invariance under linear codomain scaling", 5.0):
        from zerocert import SamplingConfig
        rng = np.random.default_rng(42)
        cfg = SamplingConfig(samples_per_axis=301)
        for _ in range(20):
            lam = rng.uniform(0.25, 4.0)
            x = rng.uniform(-3.0, 3.0)
            r = rng.uniform(0.1, 1.0)
            ball = Ball(np.array([x]), r)
            problem = make_quadratic(lam)
            base = certify(problem, ball, "sampled", cfg)
            for alpha in (-2.0, 0.5, 3.0):
                rescaled = apply_dependent(linear_scale(alpha), problem)
                assert certify(rescaled, ball, "sampled", cfg).passed == base.passed


def test_criterion_9_bvp_end_to_end():
    with criterion(9, "nonlinear BVP solved and matches manufactured solution", 5.0):
        n = 64
        problem = make_bvp(n, 1.0, "manufactured_sin")
        result = solve(problem, Ball(np.zeros(n), 10.0),
                       DescentConfig(direction="gauss_newton"))
        assert result.status == "converged"
        assert result.residual_norm <= 1e-8
        t = np.arange(1, n + 1) / (n + 1)
        assert np.max(np.abs(result.u - np.sin(np.pi * t))) <= 1e-2
