import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from zerocert import certificate
from zerocert import (
    Ball,
    InputShapeError,
    InvalidConfigurationError,
    ResidualProblem,
    SamplingConfig,
    apply_dependent,
    build_mu_grid,
    certify,
    cubic_perturbation,
    domination_constant_sampled,
    eval_jacobian,
    make_bvp,
    make_quadratic,
    quadratic_domination_constant,
    recover_problem_independent,
    report,
    residual_norm,
    scale,
    search_mu,
    transformed_certificate_quadratic,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_closed_form_cases():
    assert quadratic_domination_constant(1.0, 2.0, 0.5) == 3.0
    assert quadratic_domination_constant(1.0, 0.5, 1.0) == 0.0
    assert quadratic_domination_constant(2.0, -3.0, 1.0) == 8.0


def test_closed_form_rejects_bad_radius():
    with pytest.raises(InvalidConfigurationError):
        quadratic_domination_constant(1.0, 2.0, 0.0)


def test_sampled_constant_matches_closed_form_off_origin():
    q = make_quadratic(1.0)
    c = domination_constant_sampled(q, Ball(np.array([2.0]), 0.5),
                                    samples_per_axis=1001, safety=1.0)
    assert 2.99 <= c <= 3.0


def test_sampled_constant_near_zero_ball():
    q = make_quadratic(1.0)
    c = domination_constant_sampled(q, Ball(np.array([0.5]), 1.0),
                                    samples_per_axis=1001, safety=1.0)
    assert c <= 0.01


def test_sampled_constant_positive_when_gradient_bounded_below():
    q = make_quadratic(1.0)
    c = domination_constant_sampled(q, Ball(np.array([3.0]), 0.5), samples_per_axis=101)
    assert c > 0.0


def test_sampled_constant_returns_zero_when_residual_floor_excludes_everything():
    flat = ResidualProblem(
        name="flat", n=1, m=1,
        residual=lambda v: np.zeros(1),
        jacobian=lambda v: np.zeros((1, 1)),
    )
    ball = Ball(np.array([0.0]), 1.0)
    assert domination_constant_sampled(flat, ball, samples_per_axis=11) == 0.0
    cert = certify(flat, ball, "sampled")
    # c = 0 certificates pass exactly when the center residual vanishes
    assert cert.c == 0.0 and cert.lhs == 0.0 and cert.passed


def test_non_finite_sample_gives_zero_constant():
    # F > 0 wherever it is defined, but the NaN samples at v < 0 used to be
    # skipped, leaving c = 0.45 and a PASS; the hooked twin evaluates its
    # points in blocks through the batched residual and vjp_batch
    root = ResidualProblem(
        name="sqrt", n=1, m=1,
        residual=lambda v: np.sqrt(v) + 0.1,
        jacobian=lambda v: np.array([[0.5 / np.sqrt(v[0])]]),
    )
    hooked = dataclasses.replace(root, vjp_batch=lambda V, Y: 0.5 / np.sqrt(V) * Y)
    ball = Ball(np.array([0.0]), 1.0)
    for problem in (root, hooked):
        with np.errstate(invalid="ignore", divide="ignore"):
            c = domination_constant_sampled(problem, ball, samples_per_axis=101)
            cert = certify(problem, ball, "sampled", SamplingConfig(samples_per_axis=101))
        assert c == 0.0
        assert cert.c == 0.0 and not cert.passed


def test_residual_whose_squares_overflow_gives_zero_constant():
    # ||F|| = 1e160 is representable and the true ratio is 1, but the sum
    # of squares overflows, so the sampled norm is inf and c = 0
    big = ResidualProblem(
        name="big", n=1, m=1,
        residual=lambda v: v + 1e160,
        jacobian=lambda v: np.ones((1, 1)),
    )
    hooked = dataclasses.replace(big, vjp_batch=lambda V, Y: Y)
    for problem in (big, hooked):
        assert domination_constant_sampled(problem, Ball(np.array([0.0]), 1.0), 11) == 0.0


def test_sampled_monotone_in_radius():
    q = make_quadratic(1.0)
    values = [
        domination_constant_sampled(q, Ball(np.array([2.0]), r), samples_per_axis=501)
        for r in (0.1, 0.25, 0.5, 1.0)
    ]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_certify_worked_failure():
    cert = certify(make_quadratic(1.0), Ball(np.array([2.0]), 0.5), "closed_form_quadratic")
    assert (cert.lhs, cert.rhs, cert.passed) == (3.0, 1.5, False)
    assert cert.slack == -1.5
    assert cert.sample_count == 0 and not cert.advisory


def test_certify_worked_pass():
    cert = certify(make_quadratic(1.0), Ball(np.array([1.2]), 0.5), "closed_form_quadratic")
    assert cert.c == pytest.approx(1.4)
    assert cert.lhs == pytest.approx(0.44)
    assert cert.rhs == pytest.approx(0.7)
    assert cert.passed


def test_certify_center_at_zero_passes_for_any_constant():
    cert = certify(make_quadratic(1.0), Ball(np.array([1.0]), 0.25), "sampled",
                   SamplingConfig(samples_per_axis=101))
    assert cert.lhs == 0.0 and cert.passed


def test_certify_tie_counts_as_passed():
    # lhs = |0.5*4 - 1| = 1 equals rhs = 1 * 2*0.5*(2-1) = 1 exactly
    cert = certify(make_quadratic(0.5), Ball(np.array([2.0]), 1.0), "closed_form_quadratic")
    assert cert.lhs == cert.rhs == 1.0
    assert cert.passed and cert.slack == 0.0


def test_overflowing_certificate_fails():
    # lambda*x**2 and c overflow: inf <= inf used to pass, and so did a
    # finite lhs = 1e308 against rhs = r*inf, where the true r*c is 1.98e306
    with np.errstate(over="ignore", invalid="ignore"):
        certs = [
            certify(make_quadratic(1e308), Ball(np.array([1e10]), 0.5), "closed_form_quadratic"),
            transformed_certificate_quadratic(1e308, 1.0, 1e10, 0.5),
            transformed_certificate_quadratic(1e308, 1.0, 1.0, 0.01),
        ]
    assert certs[0].lhs == certs[1].lhs == np.inf and certs[2].lhs == 1e308
    for cert in certs:
        assert cert.c == cert.rhs == np.inf
        assert cert.passed is False


def test_certify_rejects_closed_form_on_non_quadratic():
    p = make_bvp(8, 0.0, "zero")
    with pytest.raises(InvalidConfigurationError):
        certify(p, Ball(np.zeros(8), 1.0), "closed_form_quadratic")
    with pytest.raises(InvalidConfigurationError):
        certify(p, Ball(np.zeros(8), 1.0), "newton")


@pytest.mark.parametrize("problem, ball", [
    # the sampled constant used to sample the first coordinate alone and return 2.7
    (make_quadratic(1.0), Ball([2.0, 5.0], 0.5)),
    # and to fail inside numpy with a broadcasting ValueError
    (make_bvp(4, 1.0), Ball(np.zeros(3), 0.5)),
], ids=["quadratic-2d-ball", "bvp4-3d-ball"])
def test_ball_of_another_dimension_is_rejected(problem, ball):
    match = f"ball center has dimension {ball.n}, problem expects {problem.n}"
    with pytest.raises(InputShapeError, match=match):
        domination_constant_sampled(problem, ball, samples_per_axis=101)
    with pytest.raises(InputShapeError, match=match):
        certify(problem, ball)
    with pytest.raises(InputShapeError, match=match):
        search_mu(problem, ball, (0.5, 2.0), 3)


def test_conflict_between_constant_and_radius():
    # growing the ball shrinks the constant while the bound r*c moves the other way
    cs = [quadratic_domination_constant(1.0, 2.0, r) for r in (0.5, 1.0)]
    assert cs == [3.0, 2.0]
    assert [r * c for r, c in zip((0.5, 1.0), cs)] == [1.5, 2.0]


def test_passed_sampled_certificates_are_sound():
    # spot-check: wherever the sampled certificate passes, descent finds the zero
    from zerocert import solve
    rng = np.random.default_rng(21)
    cfg = SamplingConfig(samples_per_axis=301)
    passed = 0
    while passed < 10:
        lam = rng.uniform(0.25, 4.0)
        ball = Ball(np.array([rng.uniform(-3.0, 3.0)]), rng.uniform(0.1, 1.0))
        problem = make_quadratic(lam)
        cert = certify(problem, ball, "sampled", cfg)
        if not cert.passed:
            continue
        result = solve(problem, ball)
        assert result.status == "converged"
        assert result.residual_norm <= 1e-8
        assert np.linalg.norm(result.u - ball.center) <= ball.radius + 1e-9
        passed += 1


def test_sampled_certificate_is_advisory_and_serializes():
    cert = certify(make_quadratic(1.0), Ball(np.array([2.0]), 0.5), "sampled",
                   SamplingConfig(samples_per_axis=101))
    assert cert.advisory
    d = json.loads(report.dumps(cert))
    assert d["method"] == "sampled" and d["advisory"] is True
    assert d["ball"] == {"center": [2.0], "radius": 0.5}
    assert d["sample_count"] == 101


def test_sample_count_is_capped_in_dimension_one():
    # dimension 1 skipped the cap: 10^13 samples per axis died in np.linspace
    cert = certify(make_quadratic(1.0), Ball(np.array([2.0]), 0.5), "sampled",
                   SamplingConfig(samples_per_axis=10**7))
    assert cert.sample_count == 10**6


def test_certificate_with_quadrature_weights_is_self_consistent():
    p = make_bvp(6, 1.0, "manufactured_sin", quadrature_weights=True)
    ball = Ball(0.1 * np.ones(6), 0.5)
    cert = certify(p, ball, "sampled", SamplingConfig(samples_per_axis=4))
    assert cert.slack == cert.rhs - cert.lhs
    assert cert.passed == (cert.lhs <= cert.rhs)
    assert cert.c >= 0.0 and cert.lhs >= 0.0


def test_ball_center_must_be_a_vector():
    # a (1, 2) center used to make a ball of dimension 1, on which the sampled
    # constant of the quadratic sampled around both 2 and 5 and returned 2.7
    for center in (np.array([[2.0, 5.0]]), np.zeros((2, 2))):
        with pytest.raises(InputShapeError, match=r"ball center must be a vector, got shape"):
            Ball(center, 0.5)
    assert Ball(2.0, 0.5).center.shape == (1,)


def test_ball_requires_positive_radius():
    with pytest.raises(InvalidConfigurationError):
        Ball(np.array([0.0]), 0.0)


def test_sampling_config_validation():
    with pytest.raises(InvalidConfigurationError):
        SamplingConfig(samples_per_axis=1)
    with pytest.raises(InvalidConfigurationError):
        SamplingConfig(safety=0.0)
    with pytest.raises(InvalidConfigurationError):
        SamplingConfig(residual_floor=0.0)


def user_problem(n, m, jacobian=None):
    """F: R^n -> R^m without hooks, F_i(v) = v_i**3 + v_(i+1 mod n) - 1, from its
    finite-difference Jacobian unless one is given."""
    rows = np.arange(m) % n
    return ResidualProblem(name=f"user{n}x{m}", n=n, m=m, jacobian=jacobian,
                           residual=lambda v: v[rows] ** 3 + v[(rows + 1) % n] - 1.0)


PROBED = {
    "bvp2": (make_bvp(2, 1.0, "manufactured_sin"), Ball(np.array([0.3, -0.2]), 0.5)),
    "bvp3-weighted": (make_bvp(3, 1.0, "sin_pi", True), Ball(np.array([0.5, 0.7, 0.5]), 0.5)),
    "bvp8": (make_bvp(8, 2.0, "zero"), Ball(np.linspace(-1.0, 1.0, 8), 2.0)),
    "bvp9-weighted": (make_bvp(9, 0.0, "sin_pi", True), Ball(np.zeros(9), 0.25)),
    "bvp64": (make_bvp(64, 1.0, "manufactured_sin"), Ball(np.zeros(64), 1.0)),
    # fewer equations than unknowns: the weakest directions span J's null space
    "user3x2": (user_problem(3, 2), Ball(np.array([0.5, 1.0, -0.5]), 0.3)),
    "user2x3": (user_problem(2, 3), Ball(np.array([1.0, 0.5]), 0.3)),
    "user10x10": (user_problem(10, 10), Ball(np.full(10, 0.5), 0.1)),
    "scaled-bvp": (recover_problem_independent(scale(-2.5), make_bvp(5, 1.0, "sin_pi", True)),
                   Ball(np.full(5, 0.3), 0.4)),
    "cubic-bvp": (apply_dependent(cubic_perturbation(0.5), make_bvp(12, -1.0, "sin_pi")),
                  Ball(np.full(12, -0.3), 0.4)),
}


@pytest.mark.parametrize("name", sorted(PROBED))
def test_probes_are_deterministic_and_lie_on_the_sphere_or_the_half_radius_sphere(name):
    problem, ball = PROBED[name]
    x, r, k = ball.center, ball.radius, min(8, problem.n)
    points = certificate._sample_points(problem, ball, 2, [1.0])[0]
    assert points.shape == (4 * k + 1, problem.n)
    assert points.tobytes() == certificate._sample_points(problem, ball, 2, [1.0])[0].tobytes()
    assert np.array_equal(points[0], x)  # the centre, then the probes
    offsets = points[1:] - x
    np.testing.assert_allclose(np.linalg.norm(offsets, axis=1), np.repeat([r, r, r / 2, r / 2], k),
                               rtol=1e-6)
    ulp = 2.0**-52 * (np.max(np.abs(x)) + r)  # the rounding of x + offset
    np.testing.assert_allclose(offsets[k:2 * k], -offsets[:k], rtol=0.0, atol=2 * ulp)
    np.testing.assert_allclose(offsets[2 * k:3 * k], offsets[:k] / 2, rtol=0.0, atol=2 * ulp)
    np.testing.assert_allclose(offsets[3 * k:], -offsets[:k] / 2, rtol=0.0, atol=2 * ulp)
    # k orthonormal directions (to float32 rounding) along the smallest singular values
    V = offsets[:k] / r
    np.testing.assert_allclose(V @ V.T, np.eye(k), atol=1e-6)
    A = eval_jacobian(problem, x)
    if problem.weights is not None:
        A = np.sqrt(problem.weights)[:, None] * A
    sigma = np.concatenate([np.linalg.svd(A, compute_uv=False), np.zeros(problem.n)])[:problem.n]
    np.testing.assert_allclose(np.sort(np.linalg.norm(A @ V.T, axis=0)), np.sort(sigma)[:k],
                               rtol=1e-5, atol=1e-6 * sigma[0])
    assert certify(problem, ball).sample_count == 4 * k + 1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 10, 16, 17, 64])
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_a_sweeps_probes_are_each_recovered_problems_bit_for_bit(n, weighted):
    # G = F o B^-1 takes its probes from eval_jacobian(F, x/mu) * (1.0/mu), as
    # recover_problem_independent's Jacobian is built, and several mu at once are each mu alone
    problem = make_bvp(n, 1.0, "manufactured_sin", weighted)
    ball = Ball(np.linspace(-1.0, 2.0, n), 0.75)
    mus = build_mu_grid((-2.5, 3.0), 9, "geometric")[0]
    sweep = certificate._sample_points(problem, ball, 2, mus)
    for points, mu in zip(sweep, mus.tolist()):
        alone = certificate._sample_points(problem, ball, 2, [mu])[0]
        recovered = recover_problem_independent(scale(mu), problem)
        own = certificate._sample_points(recovered, ball, 2, [1.0])[0]
        assert points.tobytes() == alone.tobytes() == own.tobytes(), mu


# the x86 CPU flags each OpenBLAS kernel needs: a kernel the CPU lacks may die of an
# illegal instruction rather than fall back
BLAS_KERNELS = {
    "Prescott": {"pni"},
    "Nehalem": {"ssse3", "sse4_2"},
    "Sandybridge": {"avx"},
    "Haswell": {"avx2", "fma"},
    "SkylakeX": {"avx512f", "avx512cd", "avx512bw", "avx512dq", "avx512vl"},
}


def cpu_flags():
    """The flags of the first CPU in /proc/cpuinfo, empty where there is none (not Linux/x86)."""
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return next((set(line.split(":", 1)[1].split()) for line in text.splitlines()
                 if line.startswith("flags")), set())


PROBE_DIGEST = ("import hashlib, numpy as np; from zerocert import Ball, certificate, make_bvp; "
                "p = make_bvp(16, 1.0, 'manufactured_sin', True); "
                "ball = Ball(np.linspace(-1, 1, 16), 0.5); "
                "pts = certificate._sample_points(p, ball, 2, [1.0, 0.7]); "
                "print(hashlib.sha256(pts.tobytes()).hexdigest())")


@pytest.mark.parametrize("core", sorted(BLAS_KERNELS))
def test_probes_do_not_hang_on_the_blas_kernel(core):
    # the directions are rounded to float32, so the last bits an SVD kernel gives them change
    # no probe: an OpenBLAS built for several CPUs takes the kernel OPENBLAS_CORETYPE names,
    # and its probes must be those of the kernel this process chose.  A kernel is forced only
    # where the CPU has its flags
    if not BLAS_KERNELS[core] <= cpu_flags():
        pytest.skip(f"this CPU lacks {sorted(BLAS_KERNELS[core] - cpu_flags())} for {core}")
    own = io.StringIO()
    with contextlib.redirect_stdout(own):
        exec(PROBE_DIGEST, {})
    env = {**os.environ, "OPENBLAS_CORETYPE": core,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", PROBE_DIGEST], env=env, capture_output=True,
                         text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == own.getvalue()


def bvp_ball(n, center, radius, weighted=False):
    p = make_bvp(n, 1.0, "manufactured_sin", weighted)
    x = np.zeros(n) if center == "0" else np.sin(np.pi * np.arange(1, n + 1) / (n + 1))
    return p, Ball(x, radius)


@pytest.mark.parametrize("n, center, radius, passed", [
    (10, "0", 0.5, False), (4, "0", 0.5, False), (16, "0", 0.5, False), (64, "0", 1.0, False),
    (10, "sin", 0.1, True), (16, "0", 5.0, True),
    (2, "0", 0.5, False), (2, "0", 5.0, True), (3, "0", 0.5, False), (3, "sin", 0.1, True),
])
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_sampled_certificate_follows_the_zero_on_bvp_balls(n, center, radius, passed, weighted):
    # the BVP with gamma = 1 has one zero, near sin(pi t), of norm above 1; the balls around 0
    # with radius 0.5 or 1 hold none, yet 1 024, 65 536 and 10^6 Halton points gave c = 192,
    # 475 and 10 120 and passed three of them, where sigma_min(J) is about 9.8.  Weights h
    # scale c and ||F(x)|| alike by sqrt(h), so they leave each verdict as it is.  c never
    # falls below 0.9 sqrt(h) lambda_min(L), the rigorous constant times the safety, and each
    # verdict is already the one that constant gives; at n <= 8 the probes run along every
    # direction
    problem, ball = bvp_ball(n, center, radius, weighted)
    cert = certify(problem, ball)
    scale = math.sqrt(1.0 / (n + 1)) if weighted else 1.0
    rigorous = 0.9 * scale * bvp_lambda_min(n)
    assert cert.passed is passed
    assert rigorous * (1.0 - 1e-12) <= cert.c < 11.0 * scale
    assert (cert.lhs <= radius * rigorous) is passed


def bvp_lambda_min(n):
    """The smallest eigenvalue of L = tridiag(-1, 2, -1) / h**2, h = 1/(n+1)."""
    return 4.0 * (n + 1) ** 2 * math.sin(math.pi / (2 * (n + 1))) ** 2


@pytest.mark.parametrize("n", [4, 16, 64])
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("draw", range(8))
def test_probe_constant_is_at_least_the_rigorous_constant(n, weighted, draw):
    # gamma >= 0 makes J(v) = L + 3 gamma diag(v^2) >= L, so every probe ratio
    # ||J^T w F|| / ||w^(1/2) F|| is at least sqrt(w) lambda_min(L): the estimate, an upper
    # bound on the infimum over the ball, never falls below this lower bound on it.  One
    # seeded ball per draw, around a centre of size 0.05 to 1 with radius 0.05 to 3
    rng = np.random.default_rng([n, weighted, draw])
    forcing = ("zero", "sin_pi", "manufactured_sin")[rng.integers(3)]
    problem = make_bvp(n, rng.uniform(0.0, 5.0), forcing, weighted)
    ball = Ball(rng.normal(scale=rng.choice([0.05, 0.3, 1.0]), size=n), rng.uniform(0.05, 3.0))
    c = domination_constant_sampled(problem, ball, safety=1.0)
    w = 1.0 / (n + 1) if weighted else 1.0
    assert c >= math.sqrt(w) * bvp_lambda_min(n) * (1.0 - 1e-12), (problem.params, ball)


@pytest.mark.parametrize("center", [1e160, -1e200])
def test_a_bvp_jacobian_that_overflows_at_the_centre_gives_c_zero_silently(center):
    # 3 gamma v^2 overflows on the diagonal at x/mu for every mu; the probes' SVD is never
    # taken (||F(x/mu)||, a sweep's lhs, is the test below's)
    problem, ball = make_bvp(4, 1.0, "manufactured_sin"), Ball(np.full(4, center), 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            c = domination_constant_sampled(problem, ball)
            swept = certificate._sampled_infimum(problem, ball, SamplingConfig(), [0.5, 1.0, 2.0])
    assert c == 0.0 and swept == [0.0] * 3


def test_certify_and_search_mu_fail_silently_where_f_overflows_at_the_centre():
    # F overflows at x = 1e160 * ones and at every x/mu: certify's lhs ||F(x)|| and the sweep's
    # lhs rows F(x/mu) were taken outside any np.errstate, and the library's own calls warned
    # "overflow encountered in multiply"; every lhs is inf, and every verdict a FAIL
    problem, ball = make_bvp(4, 1.0, "manufactured_sin"), Ball(np.full(4, 1e160), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = certify(problem, ball)
        found = search_mu(problem, ball, (0.5, 1.5), 3)
    assert (cert.passed, cert.lhs, cert.slack) == (False, math.inf, -math.inf)
    with np.errstate(over="ignore"):
        assert cert.lhs == residual_norm(problem, ball.center)
    assert not found.any_passed and not found.certificate.passed
    assert [(p.passed, p.lhs) for p in found.sweep] == [(False, math.inf)] * 3


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_jacobian_not_finite_at_the_centre_gives_c_zero_silently(bad):
    # F(v) = (v0^2 + 1, v1 + 2) without hooks, whose Jacobian hook reads `bad` at the centre
    # 0: its SVD would raise "SVD did not converge", and every mu of a sweep has that centre
    def jacobian(v):
        return np.full((2, 2), bad) if not v.any() else np.array([[2.0 * v[0], 0.0], [0.0, 1.0]])

    problem = ResidualProblem(name="user", n=2, m=2, jacobian=jacobian,
                              residual=lambda v: np.array([v[0] ** 2 + 1.0, v[1] + 2.0]))
    ball = Ball(np.zeros(2), 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = certify(problem, ball)
        found = search_mu(problem, ball, (0.5, 2.0), 3)
    assert (cert.c, cert.passed, cert.sample_count) == (0.0, False, 9)
    assert [point.c for point in found.sweep] == [0.0] * 3 and not found.any_passed


@pytest.mark.parametrize("n", [2, 3, 12])
@pytest.mark.parametrize("shift", [0.0, 1.5])
def test_a_critical_point_at_the_centre_gives_c_zero(n, shift):
    # F(u) = (u - a)^2 + 1, entrywise, has no zero, and grad phi(a) = J(a)^T F(a) = 0 with
    # J(a) = 0.  The probes x +- r v and x +- (r/2) v alone gave c = 0.9 * 4 / sqrt(5), about
    # 1.61, at n = 2 and passed B_2(a) with rhs 3.22 >= ||F(a)|| = sqrt(2) (c = 3 and a PASS
    # at n = 12); the centre, a probe too, gives c = 0.  A sweep's centre a/mu is critical
    # for G(v) = F(v/mu) at a = 0 alone
    a = np.full(n, shift)
    problem = ResidualProblem(name="user", n=n, m=n, residual=lambda v: (v - a) ** 2 + 1.0,
                              jacobian=lambda v: np.diag(2.0 * (v - a)))
    ball = Ball(a, 2.0)
    cert = certify(problem, ball)
    assert (cert.c, cert.passed) == (0.0, False)
    if shift == 0.0:
        found = search_mu(problem, ball, (0.5, 2.0), 3)
        assert [point.c for point in found.sweep] == [0.0] * 3 and not found.any_passed


def test_a_sampled_certificate_at_n_512_evaluates_33_points(monkeypatch):
    # the Halton sampler took 10^6 points of dimension 512, 4 GB; the probes take one
    # 512 x 512 Jacobian and its SVD
    calls = []
    problem, ball = bvp_ball(512, "0", 30.0)
    original = problem.residual
    counted = dataclasses.replace(problem, residual=lambda V: calls.append(len(V)) or original(V))
    tracemalloc.start()
    try:
        cert = certify(counted, ball)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.sample_count == 33 and cert.passed
    assert sum(calls) == 33 + 1  # blocks of 16, 16 and 1 of the 33 points, then x as one row
    assert peak < 20 * 2**20


def test_certify_closed_form_is_the_sweep_closed_form_at_mu_one():
    # |lam*x**2 - 1| is ||F(x)|| on the quadratic, including where lam*x**2 overflows
    rng = np.random.default_rng(0)
    for _ in range(300):
        lam, x = rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(-300.0, 300.0, 2)
        # the first ball straddles 0 whenever its radius reaches |x|
        for r in (abs(x) * rng.uniform(0.5, 2.0), 10.0 ** rng.uniform(-300.0, 300.0)):
            problem, ball = make_quadratic(lam), Ball([x], r)
            cert = certify(problem, ball, "closed_form_quadratic")
            closed = transformed_certificate_quadratic(lam, 1.0, x, r)
            assert report.dumps(cert) == report.dumps(closed)
            with np.errstate(over="ignore"):
                assert cert.lhs == residual_norm(problem, ball.center)


def test_sampled_constant_multidimensional():
    p = make_bvp(4, 1.0, "zero")
    ball = Ball(0.5 * np.ones(4), 0.25)
    c1 = domination_constant_sampled(p, ball, samples_per_axis=8)
    c2 = domination_constant_sampled(p, ball, samples_per_axis=8)
    assert c1 == c2 > 0.0
