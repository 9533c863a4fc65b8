"""Built-in oracle suites behind the ``selftest`` subcommand.

Each suite pits a computed quantity against an independent reference: the
sampled domination constant against the quadratic closed form, the two
equivalent transformed-certificate formulations against each other, and the
analytic gradient against finite differences.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .certificate import (Ball, check_seed, domination_constant_sampled,
                          quadratic_domination_constant, transformed_certificate_quadratic)
from .functional import check_gradient
from .problems import ResidualProblem, make_bvp, make_quadratic

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


def _tally(name: str, outcomes: Iterable[tuple[bool, str]]) -> SuiteResult:
    """Count a suite's (ok, label) outcomes; ``first_failure`` is the first failing label."""
    outcomes = list(outcomes)
    failures = [label for ok, label in outcomes if not ok]
    return SuiteResult(name, len(outcomes) - len(failures), len(failures), next(iter(failures), None))


def suite_closed_form_vs_sampled(seed: int = 42, cases: int = 10) -> SuiteResult:
    """Sampled constant (safety 1, 1001 samples) within 1% of the closed form, on ``cases`` balls."""
    rng = np.random.default_rng(seed)

    def outcomes():  # endless: balls with a zero constant are drawn again
        while True:
            lam, x, r = rng.uniform(0.25, 4.0), rng.uniform(-3.0, 3.0), rng.uniform(0.1, 1.0)
            exact = quadratic_domination_constant(lam, x, r)
            if exact > 0.0:
                sampled = domination_constant_sampled(
                    make_quadratic(lam), Ball(np.array([x]), r),
                    samples_per_axis=1001, safety=1.0, seed=seed,
                )
                yield (abs(sampled - exact) <= 0.01 * exact,
                       f"lam={lam} x={x} r={r}: sampled {sampled} vs {exact}")

    return _tally("closed_form_vs_sampled", itertools.islice(outcomes(), max(cases, 0)))


def suite_equivalence_grid() -> SuiteResult:
    """Transformed-problem and original-scale certificate forms agree."""

    def outcome(lam, mu, x, r):
        lam_g = lam / mu**2
        direct = abs(lam_g * x * x - 1.0) <= r * quadratic_domination_constant(lam_g, x, r)
        return (transformed_certificate_quadratic(lam, mu, x, r).passed == direct,
                f"lam={lam} mu={mu} x={x} r={r}")

    return _tally("equivalence_grid",
                  itertools.starmap(outcome, itertools.product(*EQUIVALENCE_GRID.values())))


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
    return _tally("gradient_checks", (
        (check_gradient(problem, rng.uniform(-2.0, 2.0, size=problem.n)).max_relative_error <= 1e-6,
         f"{problem.name} {problem.params} point {point}")
        for problem in problems for point in range(points)))


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
