import dataclasses
import json

import numpy as np
import pytest

from zerocert import certificate
from zerocert import (
    Ball,
    InputShapeError,
    InvalidConfigurationError,
    ResidualProblem,
    SamplingConfig,
    certify,
    domination_constant_sampled,
    make_bvp,
    make_quadratic,
    quadratic_domination_constant,
    report,
    residual_norm,
    sample_ball,
    search_mu,
    transformed_certificate_quadratic,
)


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
    for seed in (-1, 2**32):
        with pytest.raises(InvalidConfigurationError):
            SamplingConfig(seed=seed)


@pytest.mark.parametrize("seed", [-1, 2**32])
def test_sample_ball_rejects_seed_outside_uint32_range(seed):
    # -1 used to return all-NaN points; 2**32 sampled past the seed range
    with pytest.raises(InvalidConfigurationError, match=r"\[0, 2\*\*32\)"):
        sample_ball(np.zeros(2), 1.0, 3, seed=seed)


def test_sample_ball_points_inside_and_deterministic():
    center = np.array([1.0, -2.0, 0.5])
    pts = sample_ball(center, 2.0, 500, seed=42)
    assert pts.shape == (500, 3)
    assert np.all(np.linalg.norm(pts - center, axis=1) <= 2.0 + 1e-12)
    again = sample_ball(center, 2.0, 500, seed=42)
    assert np.array_equal(pts, again)
    shifted = sample_ball(center, 2.0, 500, seed=43)
    assert not np.array_equal(pts, shifted)


def digit_loop_radical_inverse(indices, base):
    """The radical inverse one digit at a time over every index, stopping when all are 0."""
    i = indices.astype(np.int64)
    f = 1.0
    out = np.zeros(len(i))
    while np.any(i > 0):
        f /= base
        out += f * (i % base)
        i //= base
    return out


def per_pair_sample_ball(center, radius, count, seed):
    """sample_ball with its Box-Muller step written as a loop over the pairs of columns."""
    n = len(center)
    pairs = (n + 1) // 2
    idx = np.arange(1 + seed * count, 1 + seed * count + count)
    bases = certificate._first_primes(2 * pairs + 1)
    u = np.column_stack([digit_loop_radical_inverse(idx, b) for b in bases])
    z = np.empty((count, 2 * pairs))
    for p in range(pairs):
        rho = np.sqrt(-2.0 * np.log(u[:, 2 * p]))
        ang = 2.0 * np.pi * u[:, 2 * p + 1]
        z[:, 2 * p] = rho * np.cos(ang)
        z[:, 2 * p + 1] = rho * np.sin(ang)
    z = z[:, :n]
    norms = np.linalg.norm(z, axis=1)
    norms[norms == 0.0] = 1.0
    radii = radius * u[:, -1] ** (1.0 / n)
    return center + z / norms[:, None] * radii[:, None]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 10, 16, 17, 64])
@pytest.mark.parametrize("seed", [0, 42, 2**32 - 1])
def test_sample_ball_transforms_all_pairs_at_once_bit_for_bit(n, seed):
    center = np.linspace(-1.0, 2.0, n)
    pts = sample_ball(center, 0.75, 257, seed)
    assert pts.tobytes() == per_pair_sample_ball(center, 0.75, 257, seed).tobytes()


@pytest.mark.parametrize("base", certificate._first_primes(65))
def test_radical_inverse_from_tables_is_the_digit_loop_bit_for_bit(base):
    # counts on both sides of each table size base**K; starts past 2**32 * count reach
    # many digits above the table's
    for count in sorted({1, 2, base - 1, base, base + 1, base**2 - 1, base**2 + 1,
                         625, 1024, 4096}):
        for start in {0, 1} | {1 + seed * count for seed in (0, 700, 2**32 - 1)}:
            got = certificate._radical_inverse(start, count, base)
            want = digit_loop_radical_inverse(np.arange(start, start + count), base)
            assert got.tobytes() == want.tobytes(), (start, count)


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
    c1 = domination_constant_sampled(p, ball, samples_per_axis=8, seed=42)
    c2 = domination_constant_sampled(p, ball, samples_per_axis=8, seed=42)
    assert c1 == c2 > 0.0
