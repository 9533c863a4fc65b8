"""The benchmark's workloads: fixed lists of zerocert CLI commands.

Each workload is generated from the benchmark seed, which picks the
sampling seed passed to the CLI.  That changes the sampled points but not
how many there are, so runs with different seeds cost the same.  Ball
centers and descent start points do not depend on the seed: moving them
moves descent iteration counts by several percent, and moves sampled
verdicts near a ball's edge from one seed to the next.

Every command is kept short (about 0.005-0.25 s) so that the fastest of its
many timings in a run is steady on a host whose cores other guests share.

``quick`` shrinks every case to a size that runs in milliseconds, for the
benchmark's own smoke test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from oracle import Oracle, OracleError

README_CONFIG = {
    "problem": {"name": "quadratic", "lambda": 1.0},
    "ball": {"center": [2.0], "radius": 0.5},
    "certificate": {"method": "closed_form_quadratic"},
    "transform": {"family": "scale", "mu_min": 0.5, "mu_max": 3.0, "grid_size": 26},
    "descent": {"direction": "steepest"},
}

WHY = {
    "certify-sampled": (
        "sampled certify on BVP and quadratic balls: the per-point "
        "certificate->functional->problems loop does the work; one ball "
        "without a zero passes today"
    ),
    "search-sweep": (
        "mu sweeps with sweep CSVs: sampling behind composed transform "
        "closures, with identical sample_ball calls repeated for every mu"
    ),
    "solve-interior": (
        "descent to a zero: dense Gauss-Newton at n=256 and n=384, "
        "per-iteration overhead of steepest descent at n=8, the README pipeline"
    ),
    "solve-boundary": (
        "descent on balls without a zero: projection and line-search "
        "exhaustion, including the clip_to_ball null-step stall"
    ),
}


@dataclass
class Case:
    """One CLI command of a workload, with what the oracle needs to judge it."""

    name: str
    command: str
    config: dict
    spec: tuple
    csv: str | None = None
    readme: bool = False


def _bvp(n: int) -> dict:
    return {"name": "bvp", "grid_points": n, "gamma": 1.0, "forcing": "manufactured_sin"}


def _sin_center(n: int) -> list[float]:
    """sin(pi t) on the grid: the continuum solution, near the discrete zero."""
    return [float(x) for x in np.sin(np.pi * np.arange(1, n + 1) / (n + 1))]


def _readme(**changes) -> dict:
    cfg = {k: dict(v) for k, v in README_CONFIG.items()}
    for section, values in changes.items():
        cfg[section] = {**cfg[section], **values}
    return cfg


def certify_sampled(quick: bool) -> list[Case]:
    n = 6 if quick else 10  # 2^n points per ball
    spa_n4 = 3 if quick else 5  # 5^4 = 625 points
    return [
        Case(f"bvp{n}-origin-r0.5", "certify", {
            "problem": _bvp(n),
            "ball": {"center": [0.0] * n, "radius": 0.5},
            "certificate": {"method": "sampled", "samples_per_axis": 2},
        }, ("bvp", n, 1.0)),
        Case(f"bvp{n}-sin-r0.1", "certify", {
            "problem": _bvp(n),
            "ball": {"center": _sin_center(n), "radius": 0.1},
            "certificate": {"method": "sampled", "samples_per_axis": 2},
        }, ("bvp", n, 1.0)),
        Case("bvp4-origin-r0.5", "certify", {
            "problem": _bvp(4),
            "ball": {"center": [0.0] * 4, "radius": 0.5},
            "certificate": {"method": "sampled", "samples_per_axis": spa_n4},
        }, ("bvp", 4, 1.0)),
        Case("readme-closed-form", "certify", _readme(), ("quadratic", 1.0), readme=True),
        Case("readme-sampled", "certify", _readme(
            certificate={"method": "sampled", "samples_per_axis": 51 if quick else 1001},
        ), ("quadratic", 1.0)),
    ]


def search_sweep(quick: bool) -> list[Case]:
    return [
        Case("readme-closed-form", "search", _readme(), ("quadratic", 1.0),
             csv="sweep", readme=True),
        Case("quadratic-sampled", "search", _readme(
            certificate={"method": "sampled", "samples_per_axis": 51 if quick else 101},
        ), ("quadratic", 1.0), csv="sweep"),
        Case("bvp4-sin-r0.1", "search", {
            "problem": _bvp(4),
            "ball": {"center": _sin_center(4), "radius": 0.1},
            "certificate": {"method": "sampled", "samples_per_axis": 3 if quick else 4},
            # mu = 0.5, 0.75, 1, 1.25, 1.5; at 0.9 the sampled estimate passes
            # for some seeds although the pulled-back ball holds no zero
            "transform": {"family": "scale", "mu_min": 0.5, "mu_max": 1.5, "grid_size": 5},
        }, ("bvp", 4, 1.0), csv="sweep"),
    ]


def solve_interior(quick: bool) -> list[Case]:
    gn_n, small = (64, 4) if quick else (256, 8)
    # from about n=384 the default tolerance 1e-10 is below the BVP's rounding floor
    floor_n = 64 if quick else 384
    return [
        Case(f"gauss-newton-bvp{gn_n}", "solve", {
            "problem": _bvp(gn_n),
            "ball": {"center": [0.0] * gn_n, "radius": 30.0},
            "descent": {"direction": "gauss_newton", "residual_tolerance": 1e-7},
        }, ("bvp", gn_n, 1.0), csv="trace"),
        Case(f"steepest-bvp{small}", "solve", {
            "problem": _bvp(small),
            "ball": {"center": _sin_center(small), "radius": 0.1},
            "descent": {"direction": "steepest", "residual_tolerance": 1e-2},
        }, ("bvp", small, 1.0), csv="trace"),
        Case("readme-pipeline", "solve", _readme(), ("quadratic", 1.0),
             csv="trace", readme=True),
        Case(f"gauss-newton-bvp{floor_n}-default-tol", "solve", {
            "problem": _bvp(floor_n),
            "ball": {"center": [0.0] * floor_n, "radius": 30.0},
            "descent": {"direction": "gauss_newton", "max_iterations": 5},
        }, ("bvp", floor_n, 1.0), csv="trace"),
    ]


def solve_boundary(quick: bool) -> list[Case]:
    quad = {"problem": {"name": "quadratic", "lambda": 1.0},
            "ball": {"center": [0.3], "radius": 0.2}}
    return [
        Case("quadratic-clip", "solve", {
            **quad, "descent": {"ball_policy": "clip_to_ball",
                                "max_iterations": 50 if quick else 100},
        }, ("quadratic", 1.0), csv="trace"),
        Case("quadratic-reject", "solve", {
            **quad, "descent": {"ball_policy": "reject_outside"},
        }, ("quadratic", 1.0), csv="trace"),
        Case("steepest-bvp16-origin", "solve", {
            "problem": _bvp(16),
            "ball": {"center": [0.0] * 16, "radius": 0.5},
            "descent": {"direction": "steepest", **({"max_iterations": 50} if quick else {})},
        }, ("bvp", 16, 1.0), csv="trace"),
    ]


BUILDERS = {
    "certify-sampled": certify_sampled,
    "search-sweep": search_sweep,
    "solve-interior": solve_interior,
    "solve-boundary": solve_boundary,
}

# Whether the config's own ball holds a zero, as each case is designed.
# Checked against the oracle when the cases are generated.
ZERO_IN_BALL = {
    "certify-sampled": [False, True, False, False, False],
    "search-sweep": [False, False, True],
    "solve-interior": [True, True, False, True],
    "solve-boundary": [False, False, False],
}


def build(workload: str, seed: int, quick: bool, oracle: Oracle) -> tuple[list[Case], int]:
    """The workload's cases and the sampling seed handed to the CLI."""
    # a narrow seed range keeps the Halton start index, and so the cost of
    # sample_ball's digit loop, the same for every benchmark seed
    cli_seed = int(np.random.default_rng(seed).integers(512, 1024))
    cases = BUILDERS[workload](quick)
    for case, want in zip(cases, ZERO_IN_BALL[workload], strict=True):
        ball = case.config["ball"]
        if oracle.zero_in_ball(case.spec, ball["center"], ball["radius"]) != want:
            raise OracleError(f"{workload}/{case.name}: ball does not match its design")
    return cases, cli_seed
