import math
import struct
import warnings

import numpy as np
import pytest

from zerocert import (
    Ball,
    Certificate,
    InvalidConfigurationError,
    ResidualProblem,
    SamplingConfig,
    apply_dependent,
    build_mu_grid,
    certify,
    cubic_perturbation,
    domination_constant_sampled,
    eval_residual,
    linear_scale,
    make_bvp,
    make_quadratic,
    pull_back_zero,
    recover_problem_independent,
    scale,
    search_mu,
    transformed_certificate_quadratic,
)
from zerocert.functional import norm_of_residual
from zerocert.selftest import suite_gradient_checks


@pytest.mark.parametrize(
    "transform",
    [linear_scale(3.0), linear_scale(-2.0), cubic_perturbation(0.0), cubic_perturbation(1.5)],
    ids=["scale3", "scale-2", "cubic0", "cubic1.5"],
)
def test_dependent_transform_group_membership(transform):
    ys = np.linspace(-10.0, 10.0, 101)
    assert abs(float(np.asarray(transform.forward(0.0)))) <= 1e-15
    round_trip = transform.forward(transform.inverse(ys))
    assert np.max(np.abs(round_trip - ys)) <= 1e-10
    assert np.all(np.asarray(transform.derivative(ys)) != 0.0)


@pytest.mark.parametrize(
    "transform",
    [scale(2.0), scale(-0.5)],
    ids=["mu2", "mu-0.5"],
)
def test_independent_transform_group_membership(transform):
    vs = np.linspace(-10.0, 10.0, 101)
    round_trip = transform.forward(transform.inverse(vs))
    assert np.max(np.abs(round_trip - vs)) <= 1e-10
    d = np.asarray(transform.derivative(vs))
    assert np.all(d == d[0]) and d[0] != 0.0


def test_transform_parameter_validation():
    with pytest.raises(InvalidConfigurationError):
        linear_scale(0.0)
    with pytest.raises(InvalidConfigurationError):
        cubic_perturbation(-0.1)
    with pytest.raises(InvalidConfigurationError):
        scale(0.0)


def test_cubic_inverse_accuracy():
    t = cubic_perturbation(2.5)
    ys = np.linspace(-50.0, 50.0, 201)
    back = t.forward(t.inverse(ys))
    assert np.max(np.abs(back - ys)) <= 1e-10 * (1.0 + np.max(np.abs(ys)))


def test_apply_dependent_values():
    q = make_quadratic(1.0)
    assert eval_residual(apply_dependent(linear_scale(3.0), q), [2.0]) == pytest.approx([9.0])
    assert eval_residual(apply_dependent(cubic_perturbation(1.0), q), [2.0]) == pytest.approx([30.0])
    # zeros are fixed points of any admissible transform
    for t in (linear_scale(-2.0), cubic_perturbation(0.7)):
        assert eval_residual(apply_dependent(t, q), [1.0]) == pytest.approx([0.0], abs=1e-14)


def test_apply_dependent_jacobian_consistent():
    q = make_quadratic(1.5)
    problems = [apply_dependent(t, q) for t in (linear_scale(-2.0), cubic_perturbation(0.5))]
    result = suite_gradient_checks(2, problems=problems, points=20)
    assert result.ok and result.passed == 40, result


def test_dependent_transforms_apply_componentwise():
    from zerocert import make_bvp
    p = make_bvp(8, 1.0, "manufactured_sin")
    t = cubic_perturbation(0.5)
    mapped = apply_dependent(t, p)
    v = np.linspace(0.1, 0.8, 8)
    f = eval_residual(p, v)
    assert np.allclose(eval_residual(mapped, v), f + 0.5 * f**3, rtol=1e-14)


def test_recover_problem_independent_values():
    q = make_quadratic(1.0)
    g = recover_problem_independent(scale(2.0), q)
    assert eval_residual(g, [2.0]) == pytest.approx([0.0], abs=0.0)
    assert eval_residual(g, [1.0]) == pytest.approx([-0.75])


def test_recover_problem_independent_identity():
    q = make_quadratic(1.0)
    g = recover_problem_independent(scale(1.0), q)
    rng = np.random.default_rng(6)
    for _ in range(100):
        v = rng.uniform(-3.0, 3.0, size=1)
        assert abs(eval_residual(g, v)[0] - eval_residual(q, v)[0]) <= 1e-12


def test_recover_problem_independent_jacobian_consistent():
    q = make_quadratic(2.0)
    problems = [recover_problem_independent(t, q) for t in (scale(2.0), scale(-1.5))]
    result = suite_gradient_checks(8, problems=problems, points=20)
    assert result.ok and result.passed == 40, result


def test_pull_back_zero_values():
    assert pull_back_zero(scale(2.0), [2.0]) == pytest.approx([1.0])
    assert pull_back_zero(scale(1.0), [0.37]) == pytest.approx([0.37], abs=0.0)


def test_pull_back_preserves_residual_value_exactly():
    q = make_quadratic(1.3)
    t = scale(1.7)
    g = recover_problem_independent(t, q)
    rng = np.random.default_rng(10)
    for _ in range(100):
        v_star = rng.uniform(-3.0, 3.0, size=1)
        u = pull_back_zero(t, v_star)
        assert eval_residual(q, u)[0] == eval_residual(g, v_star)[0]


def test_zero_correspondence_for_scalings():
    rng = np.random.default_rng(12)
    for _ in range(100):
        lam = rng.uniform(0.25, 4.0)
        mu = rng.uniform(0.3, 3.0) * rng.choice([-1.0, 1.0])
        q = make_quadratic(lam)
        t = scale(mu)
        g = recover_problem_independent(t, q)
        u = rng.choice([-1.0, 1.0]) / np.sqrt(lam)
        mapped = t.forward(np.array([u]))
        assert abs(eval_residual(g, mapped)[0]) <= 1e-10


def test_transformed_certificate_worked_pass():
    cert = transformed_certificate_quadratic(1.0, 2.0, 2.0, 0.5)
    assert cert.lhs == 0.0 and cert.rhs == 1.5
    assert cert.passed and cert.slack == 1.5


def test_transformed_certificate_identity_matches_plain():
    plain = certify(make_quadratic(1.0), Ball(np.array([2.0]), 0.5), "closed_form_quadratic")
    cert = transformed_certificate_quadratic(1.0, 1.0, 2.0, 0.5)
    assert (cert.c, cert.lhs, cert.rhs, cert.passed) == (plain.c, plain.lhs, plain.rhs, plain.passed)
    assert not cert.passed


def test_transformed_certificate_near_optimal_mu():
    cert = transformed_certificate_quadratic(1.0, 1.9, 2.0, 0.5)
    assert cert.passed
    assert cert.lhs == pytest.approx(0.39)


def test_transformed_certificate_rejects_zero_mu():
    with pytest.raises(InvalidConfigurationError):
        transformed_certificate_quadratic(1.0, 0.0, 2.0, 0.5)


def test_group_closure_of_scalings():
    q = make_quadratic(1.0)
    rng = np.random.default_rng(16)
    for _ in range(20):
        mu1 = rng.uniform(0.3, 3.0)
        mu2 = rng.uniform(0.3, 3.0)
        stacked = recover_problem_independent(scale(mu2), recover_problem_independent(scale(mu1), q))
        direct = recover_problem_independent(scale(mu1 * mu2), q)
        v = rng.uniform(-3.0, 3.0, size=1)
        assert abs(eval_residual(stacked, v)[0] - eval_residual(direct, v)[0]) <= 1e-12


def test_linear_dependent_scale_rescales_certificate_sides():
    rng = np.random.default_rng(18)
    cfg = SamplingConfig(samples_per_axis=301)
    for _ in range(5):
        lam = rng.uniform(0.5, 2.0)
        x = rng.uniform(1.0, 3.0)
        r = rng.uniform(0.1, 0.9)
        q = make_quadratic(lam)
        ball = Ball(np.array([x]), r)
        base = certify(q, ball, "sampled", cfg)
        for alpha in (-2.0, 0.5, 3.0):
            scaled = certify(apply_dependent(linear_scale(alpha), q), ball, "sampled", cfg)
            assert scaled.passed == base.passed
            assert scaled.lhs == pytest.approx(abs(alpha) * base.lhs, rel=1e-12, abs=1e-12)
            assert scaled.rhs == pytest.approx(abs(alpha) * base.rhs, rel=1e-12, abs=1e-12)


def test_build_mu_grid_excludes_zero():
    grid, exclusion = build_mu_grid((-1.0, 1.0), 20)
    assert exclusion == pytest.approx(1e-3)
    assert np.all(np.abs(grid) >= exclusion - 1e-15)
    assert grid.min() < 0.0 < grid.max()
    grid, exclusion = build_mu_grid((0.5, 3.0), 10)
    assert exclusion is None and len(grid) == 10
    # a range across 0 has grid_size values; each branch's share was rounded half to
    # even, so (-1, 1) gave 4 values for grid_size 5 and 8 for 9, and (-1, 2) 2 for 1
    for mu_range, grid_size, negatives in [
        ((-1.0, 1.0), 5, 2), ((-1.0, 1.0), 9, 4), ((-1.0, 1.0), 2, 1), ((-1.0, 1.0), 1, 0),
        ((-1.0, 2.0), 1, 0), ((-3.0, 1.0), 1, 1), ((-1.0, 2.0), 10, 3), ((-1.0, 3.0), 7, 2),
        ((-1e308, 1.5e308), 10, 4),
    ]:
        for spacing in ("linear", "geometric"):
            grid, _ = build_mu_grid(mu_range, grid_size, spacing)
            assert len(grid) == grid_size and np.all(np.diff(grid) > 0.0)
            assert np.count_nonzero(grid < 0.0) == negatives, (mu_range, grid_size)


def test_build_mu_grid_geometric_spacing():
    grid, _ = build_mu_grid((0.1, 10.0), 5, spacing="geometric")
    ratios = grid[1:] / grid[:-1]
    assert np.allclose(ratios, ratios[0])


def test_build_mu_grid_rejects_degenerate_ranges():
    with pytest.raises(InvalidConfigurationError):
        build_mu_grid((0.0, 0.0), 5)
    with pytest.raises(InvalidConfigurationError):
        build_mu_grid((1.0, 0.5), 5)
    with pytest.raises(InvalidConfigurationError):
        build_mu_grid((0.5, 3.0), 0)


def test_search_mu_finds_optimal_scaling():
    q = make_quadratic(1.0)
    result = search_mu(q, Ball(np.array([2.0]), 0.5), (0.5, 3.0), 26)
    assert result.any_passed
    assert result.best_parameter == pytest.approx(2.0, abs=1e-12)
    assert result.certificate.slack == pytest.approx(1.5, abs=1e-12)
    assert result.certificate.passed
    mus = [p.mu for p in result.sweep]
    assert result.best_parameter in mus
    assert len(mus) == 26


def test_search_mu_hopeless_ball_never_passes():
    q = make_quadratic(1.0)
    result = search_mu(q, Ball(np.array([0.5]), 1.0), (0.6, 3.0), 25)
    assert not result.any_passed
    assert all(not p.passed for p in result.sweep)
    assert not result.certificate.passed


def test_search_mu_single_point_grid_is_plain_certificate():
    q = make_quadratic(1.0)
    ball = Ball(np.array([2.0]), 0.5)
    result = search_mu(q, ball, (1.0, 1.0), 1)
    plain = certify(q, ball, "closed_form_quadratic")
    assert result.best_parameter == 1.0
    cert = result.certificate
    assert (cert.c, cert.lhs, cert.rhs, cert.passed) == (plain.c, plain.lhs, plain.rhs, plain.passed)


def test_search_mu_sampled_path():
    q = make_quadratic(1.0)
    result = search_mu(q, Ball(np.array([2.0]), 0.5), (0.5, 3.0), 26,
                       method="sampled", sampling=SamplingConfig(samples_per_axis=201))
    assert result.any_passed
    assert result.best_parameter == pytest.approx(2.0, abs=1e-12)


def test_search_mu_generic_path_on_bvp():
    # non-quadratic problems go through the sampled estimator on G = F o B^-1
    from zerocert import DescentConfig, make_bvp, solve
    n = 8
    p = make_bvp(n, 1.0, "manufactured_sin")
    t = np.arange(1, n + 1) / (n + 1)
    center = np.sin(np.pi * t)
    result = search_mu(p, Ball(center, 2.0), (0.8, 1.25), 5,
                       method="sampled", sampling=SamplingConfig(samples_per_axis=2))
    assert result.any_passed
    transform = scale(result.best_parameter)
    g = recover_problem_independent(transform, p)
    located = solve(g, Ball(result.best_parameter * center, 2.0),
                    DescentConfig(direction="gauss_newton"))
    assert located.status == "converged"
    u = pull_back_zero(transform, located.u)
    assert np.array_equal(eval_residual(p, u), eval_residual(g, located.u))
    assert np.linalg.norm(eval_residual(p, u)) <= 1e-10


def test_search_mu_rejects_methods_certify_rejects():
    # an unknown method used to fall through to the sampled estimator
    q = make_quadratic(1.0)
    with pytest.raises(InvalidConfigurationError):
        search_mu(q, Ball(np.array([2.0]), 0.5), (0.5, 3.0), 5, method="bogus")
    from zerocert import make_bvp
    with pytest.raises(InvalidConfigurationError):
        search_mu(make_bvp(4, 0.0), Ball(np.zeros(4), 1.0), (0.5, 3.0), 5,
                  method="closed_form_quadratic")


def test_search_mu_tie_breaks_toward_least_distortion():
    # grid [-3, -0.003, 0.003, 3]: the +-0.003 pair has bitwise-equal slack
    # (slack depends on mu^2 only) and nothing passes, so the tie-break on
    # |mu - 1| must pick the positive branch
    q = make_quadratic(1.0)
    result = search_mu(q, Ball(np.array([2.0]), 0.5), (-3.0, 3.0), 4)
    mus = [p.mu for p in result.sweep]
    assert -3.0 in mus and 3.0 in mus and len(mus) == 4
    assert not result.any_passed
    pos_small = min(m for m in mus if m > 0.0)
    paired = [p.slack for p in result.sweep if abs(p.mu) == pos_small]
    assert paired[0] == paired[1]
    assert result.best_parameter == pos_small


def test_an_overflowing_sweep_stays_silent():
    # mu**2 overflows from the second mu on; the closed form's float arithmetic never warned,
    # and the grid form must not either
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        found = search_mu(make_quadratic(1.0), Ball(np.array([2.0]), 0.5), (1e150, 1e200), 5)
    assert found.best_parameter == 1e150 and not found.any_passed
    assert [p.lhs for p in found.sweep] == [abs(4.0 - 1e150 * 1e150)] + [math.inf] * 4
    assert found.sweep[0].lhs == pytest.approx(1e300)
    assert [p.slack for p in found.sweep[1:]] == [-math.inf] * 4


def bits(*values):
    return [struct.pack("<d", v) for v in values]


def assert_sweep_is_the_scalar_reference(found, certs):
    """Every entry of ``found`` is ``certs``' entry at its mu, bit for bit, in Python floats and
    bools, and the best entry is the one the per-mu certificates order first."""
    mus = [point.mu for point in found.sweep]
    assert len(mus) == len(certs)
    for point, cert in zip(found.sweep, certs):
        assert {type(getattr(point, name)) for name in ("mu", "c", "lhs", "rhs", "slack")} == {float}
        assert type(point.passed) is bool
        assert (bits(point.c, point.lhs, point.rhs, point.slack), point.passed) == (
            bits(cert.c, cert.lhs, cert.rhs, cert.slack), cert.passed), point.mu
    entries = list(zip(mus, certs))
    pool = [entry for entry in entries if entry[1].passed] or entries
    best_mu, best = min(pool, key=lambda e: (-e[1].slack, abs(e[0] - 1.0), e[0]))
    cert = found.certificate
    assert bits(found.best_parameter) == bits(best_mu)
    assert found.any_passed == any(c.passed for c in certs)
    assert (bits(cert.c, cert.lhs, cert.rhs, cert.slack), cert.passed, cert.method,
            cert.sample_count, cert.advisory) == (bits(best.c, best.lhs, best.rhs, best.slack),
                                                  best.passed, best.method, best.sample_count,
                                                  best.advisory)
    assert bits(*cert.ball.center, cert.ball.radius) == bits(*best.ball.center, best.ball.radius)


# lam, x, r, mu_range, grid_size, spacing
CLOSED_SWEEPS = {
    "linear": (1.0, 2.0, 0.5, (0.5, 3.0), 26, "linear"),
    "geometric": (1.0, 2.0, 0.5, (0.1, 1e3), 17, "geometric"),
    # +-0.003 tie on slack, nothing passes
    "across-zero-tie": (1.0, 2.0, 0.5, (-3.0, 3.0), 4, "linear"),
    # +-1.8756249999999999 both pass with equal slack
    "across-zero-passing-tie": (1.0, 2.0, 0.5, (-2.5, 2.5), 10, "linear"),
    "across-zero-geometric": (2.0, -1.5, 0.5, (-2.5, 3.0), 9, "geometric"),
    "one-mu": (1.0, 2.0, 0.5, (1.0, 1.0), 1, "linear"),
    "one-negative-mu": (0.5, -3.0, 1.0, (-2.0, -2.0), 1, "linear"),
    "negative-lambda": (-1.0, 2.0, 0.5, (0.5, 3.0), 26, "linear"),
    "zero-lambda": (0.0, 2.0, 0.5, (0.5, 3.0), 5, "linear"),
    "ball-over-the-origin": (1.0, 0.2, 0.5, (0.1, 2.0), 7, "linear"),
    "inf-lhs": (1.0, 2.0, 0.5, (1e150, 1e200), 5, "linear"),
    # lam*x**2 is inf, and so is mu**2 from about 1.3e154 on: inf - inf
    "nan-lhs": (1.0, 1e200, 1.0, (1e100, 1e200), 7, "geometric"),
    # 2*lam overflows, so c, rhs and slack are inf while lhs is finite
    "inf-c": (1e308, 0.9, 0.1, (0.5, 3.0), 4, "linear"),
}


@pytest.mark.parametrize("name", sorted(CLOSED_SWEEPS))
def test_closed_form_sweep_is_the_scalar_reference_bit_for_bit(name):
    lam, x, r, mu_range, grid_size, spacing = CLOSED_SWEEPS[name]
    found = search_mu(make_quadratic(lam), Ball(np.array([x]), r), mu_range, grid_size,
                      spacing=spacing)
    certs = [transformed_certificate_quadratic(lam, mu, x, r) for mu in
             build_mu_grid(mu_range, grid_size, spacing)[0].tolist()]
    assert_sweep_is_the_scalar_reference(found, certs)
    if name == "inf-c":  # lhs <= rhs = inf holds, but an infinite c proves nothing
        assert not found.any_passed and {p.rhs for p in found.sweep} == {math.inf}


def non_finite_quadratic():
    """F(v) = v**2 - 1, but inf where v > 3 and NaN where v < -3."""
    return ResidualProblem(
        name="non-finite", n=1, m=1,
        residual=lambda V: np.where(V > 3.0, np.inf, np.where(V < -3.0, np.nan, V * V - 1.0)),
        jacobian=lambda v: np.array([[2.0 * v[0]]]), vjp_batch=lambda V, Y: 2.0 * V * Y)


SIN4 = np.sin(np.pi * np.arange(1, 5) / 5)

# problem, ball, mu_range, grid_size, spacing, samples_per_axis
SAMPLED_SWEEPS = {
    "linear": (make_quadratic(1.0), Ball(np.array([2.0]), 0.5), (0.5, 3.0), 26, "linear", 101),
    "across-zero-geometric": (make_quadratic(1.0), Ball(np.array([2.0]), 0.5), (-2.5, 3.0), 9,
                              "geometric", 31),
    # F is even and the points symmetric about 0: each +-mu pair ties
    "negative-lambda-ties": (make_quadratic(-1.0), Ball(np.array([0.0]), 0.5), (-2.0, 2.0), 6,
                             "linear", 101),
    "one-mu": (make_bvp(4, 1.0, "manufactured_sin"), Ball(SIN4, 0.3), (1.0, 1.0), 1, "linear",
               3),
    "bvp-geometric": (make_bvp(4, 1.0, "manufactured_sin"), Ball(SIN4, 0.3), (0.5, 2.0), 5,
                      "geometric", 3),
    "non-finite-lhs": (non_finite_quadratic(), Ball(np.array([2.0]), 0.5), (-4.0, 4.0), 8,
                       "linear", 31),
}


@pytest.mark.parametrize("name", sorted(SAMPLED_SWEEPS))
def test_sampled_sweep_is_the_scalar_reference_bit_for_bit(name):
    problem, ball, mu_range, grid_size, spacing, spa = SAMPLED_SWEEPS[name]
    sampling = SamplingConfig(samples_per_axis=spa)
    found = search_mu(problem, ball, mu_range, grid_size, "sampled", sampling, spacing)
    certs = []
    for mu in build_mu_grid(mu_range, grid_size, spacing)[0].tolist():
        c = domination_constant_sampled(recover_problem_independent(scale(mu), problem), ball,
                                        spa)
        lhs = norm_of_residual(problem, eval_residual(problem, ball.center / mu))
        certs.append(Certificate.judge(ball, c, lhs, "sampled", spa**problem.n))
    assert_sweep_is_the_scalar_reference(found, certs)
    if name == "non-finite-lhs":  # x/mu is -500 at the NaN and 500 at the inf
        lhs = [p.lhs for p in found.sweep]
        assert sum(map(math.isnan, lhs)) == 1 and lhs.count(math.inf) == 1
