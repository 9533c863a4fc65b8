"""Built-in oracle suites behind the ``selftest`` subcommand.

Each suite pits a computed quantity against an independent reference: the
sampled domination constant against the quadratic closed form, the two
equivalent transformed-certificate formulations against each other, and the
analytic gradient against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .certificate import Ball, check_seed, domination_constant_sampled, quadratic_domination_constant
from .functional import check_gradient
from .problems import ResidualProblem, make_bvp, make_quadratic
from .transforms import transformed_certificate_quadratic

EQUIVALENCE_GRID = {
    "lam": (0.5, 1.0, 2.0),
    "mu": (0.5, 1.0, 2.0, 3.0),
    "x": (-3.0, -1.0, 0.4, 1.2, 2.0),
    "r": (0.25, 0.5, 1.0),
}


@dataclass(frozen=True)
class SuiteResult:
    """Case counts of one suite; ``first_failure`` describes its first failing case."""

    name: str
    passed: int
    failed: int
    first_failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.failed == 0


def suite_closed_form_vs_sampled(seed: int = 42, cases: int = 10) -> SuiteResult:
    """Sampled constant (safety 1, 1001 samples) within 1% of the closed form, on ``cases`` balls."""
    rng = np.random.default_rng(seed)
    passed = failed = 0
    first_failure = None
    while passed + failed < cases:
        lam = rng.uniform(0.25, 4.0)
        x = rng.uniform(-3.0, 3.0)
        r = rng.uniform(0.1, 1.0)
        exact = quadratic_domination_constant(lam, x, r)
        if exact <= 0.0:
            continue
        sampled = domination_constant_sampled(
            make_quadratic(lam), Ball(np.array([x]), r),
            samples_per_axis=1001, safety=1.0, seed=seed,
        )
        if abs(sampled - exact) <= 0.01 * exact:
            passed += 1
        else:
            failed += 1
            first_failure = first_failure or f"lam={lam} x={x} r={r}: sampled {sampled} vs {exact}"
    return SuiteResult("closed_form_vs_sampled", passed, failed, first_failure)


def suite_equivalence_grid() -> SuiteResult:
    """Transformed-problem and original-scale certificate forms agree."""
    passed = failed = 0
    first_failure = None
    for lam in EQUIVALENCE_GRID["lam"]:
        for mu in EQUIVALENCE_GRID["mu"]:
            for x in EQUIVALENCE_GRID["x"]:
                for r in EQUIVALENCE_GRID["r"]:
                    lam_g = lam / mu**2
                    direct = abs(lam_g * x * x - 1.0) <= r * quadratic_domination_constant(lam_g, x, r)
                    if transformed_certificate_quadratic(lam, mu, x, r).passed == direct:
                        passed += 1
                    else:
                        failed += 1
                        first_failure = first_failure or f"lam={lam} mu={mu} x={x} r={r}"
    return SuiteResult("equivalence_grid", passed, failed, first_failure)


def suite_gradient_checks(
    seed: int = 42, problems: Sequence[ResidualProblem] | None = None, points: int = 20,
) -> SuiteResult:
    """Analytic gradient vs finite differences at ``points`` random points per problem."""
    rng = np.random.default_rng(seed)
    if problems is None:
        problems = [
            make_quadratic(1.0),
            make_quadratic(2.0),
            make_bvp(16, 0.0, "sin_pi"),
            make_bvp(16, 1.0, "manufactured_sin"),
        ]
    passed = failed = 0
    first_failure = None
    for problem in problems:
        for point in range(points):
            v = rng.uniform(-2.0, 2.0, size=problem.n)
            if check_gradient(problem, v).max_relative_error <= 1e-6:
                passed += 1
            else:
                failed += 1
                first_failure = first_failure or f"{problem.name} {problem.params} point {point}"
    return SuiteResult("gradient_checks", passed, failed, first_failure)


def run_selftest(seed: int = 42) -> int:
    """Run all suites, print a pass/fail table, return 0 iff everything passed.

    ``seed`` must pass :func:`check_seed`.
    """
    check_seed(seed)
    suites = [
        suite_closed_form_vs_sampled(seed),
        suite_equivalence_grid(),
        suite_gradient_checks(seed),
    ]
    width = max(len(s.name) for s in suites)
    print(f"{'suite':<{width}}  pass  fail")
    for s in suites:
        print(f"{s.name:<{width}}  {s.passed:>4}  {s.failed:>4}")
    ok = all(s.ok for s in suites)
    print("selftest: " + ("OK" if ok else "FAILED"))
    return 0 if ok else 1
