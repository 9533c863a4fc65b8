"""Command-line frontend: certify, search, solve, selftest.

One run is driven by one JSON config file and produces one JSON report (plus
optional CSV artifacts); certify, search and solve share one pipeline,
:func:`run_command`.  A config means the same under every command: every
section present is checked, kinds and value ranges alike (the latter by the
constructors ``make_bvp``, ``Ball``, ``SamplingConfig``, ``build_mu_grid``,
``DescentConfig``, ...), whether or not the command reads it, so an
``output.sweep_csv`` under certify or a ``descent`` block under search is
checked and otherwise unused.  The command only chooses which stages run.
Exit codes: 0 = ran to completion (verdicts may still be FAIL), 1 = selftest
failure, 2 = config error (including out-of-range values, any NaN or
infinite number, any key the schema below does not list and a problem key
of the other family; caught before any stage runs), 3 = runtime error
(including running out of memory).

Config file schema (defaults in parentheses):

    {
      "problem":     {"name": "quadratic", "lambda": 1.0}
                   | {"name": "bvp", "grid_points": 64, "gamma": 1.0,
                      "forcing": "manufactured_sin" ("zero"),
                      "quadrature_weights": false},
      "ball":        {"center": [2.0], "radius": 0.5},
      "certificate": {"method": "sampled" | "closed_form_quadratic" ("sampled"),
                      "samples_per_axis": 1001, "residual_floor": 1e-12,
                      "safety": 0.9},                                  # optional
      "transform":   {"family": "scale", "mu_min": 0.5, "mu_max": 3.0,
                      "grid_size": 51, "spacing": "linear"},           # optional
      "descent":     {"residual_tolerance": 1e-10, "max_iterations": 10000,
                      "initial_step": 1.0, "backtrack_factor": 0.5,
                      "sufficient_decrease": 1e-4,
                      "ball_policy": "clip_to_ball",
                      "direction": "steepest"},                        # optional
      "output":      {"report": "...", "sweep_csv": "...",
                      "trace_csv": "..."},                             # optional
      "seed":        42                                                # optional
    }
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import report as report_io
from .certificate import METHOD_SAMPLED, Ball, SamplingConfig, certify, check_method
from .descent import DescentConfig, solve, verify_solution
from .exceptions import ConfigError, InvalidConfigurationError, ZerocertError
from .functional import check_gradient, residual_norm
from .problems import ResidualProblem, make_bvp, make_quadratic
from .selftest import check_seed, run_selftest
from .transforms import (
    build_mu_grid,
    pull_back_zero,
    recover_problem_independent,
    scale,
    search_mu,
)

EXIT_OK = 0
EXIT_SELFTEST_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_RUNTIME_ERROR = 3

_KINDS = {
    "number": (int, float),
    "int": (int,),
    "string": (str,),
    "bool": (bool,),
    "dict": (dict,),
    "list": (list,),
}


# every key a config section may set, with the kind of its value; "" is the top level
_SCHEMA = {
    "": {"problem": "dict", "ball": "dict", "certificate": "dict", "transform": "dict",
         "descent": "dict", "output": "dict", "seed": "int"},
    "problem": {"name": "string", "lambda": "number", "grid_points": "int", "gamma": "number",
                "forcing": "string", "quadrature_weights": "bool"},
    "ball": {"center": "list", "radius": "number"},
    "certificate": {"method": "string", "samples_per_axis": "int", "residual_floor": "number",
                    "safety": "number"},
    "transform": {"family": "string", "mu_min": "number", "mu_max": "number", "grid_size": "int",
                  "spacing": "string"},
    "descent": {"residual_tolerance": "number", "max_iterations": "int", "initial_step": "number",
                "backtrack_factor": "number", "sufficient_decrease": "number",
                "ball_policy": "string", "direction": "string"},
    "output": {"report": "string", "sweep_csv": "string", "trace_csv": "string"},
}

# the problem keys each family reads
_FAMILIES = {"quadratic": ("name", "lambda"),
             "bvp": ("name", "grid_points", "gamma", "forcing", "quadrature_weights")}


def _dotted(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _check(cfg: dict) -> None:
    """Raise ConfigError at the first key, top-level or in a section, that the schema does not
    list, that the problem's family does not read, whose value has the wrong kind, or that
    sets an empty output path."""
    sections = [("", cfg)] + [(name, cfg[name]) for name in _SCHEMA[""]
                              if isinstance(cfg.get(name), dict)]
    for path, section in sections:
        name = section.get("name") if path == "problem" else None
        family = _FAMILIES.get(name) if isinstance(name, str) else None
        for key, value in section.items():
            dotted = _dotted(path, key)
            if key not in _SCHEMA[path]:
                raise ConfigError(f"{dotted}: unknown key")
            if family is not None and key not in family:
                raise ConfigError(f"{dotted}: unknown key for problem {name!r}")
            kind = _SCHEMA[path][key]
            expected = f"expected {'an' if kind == 'int' else 'a'} {kind}"
            if kind in ("number", "int") and isinstance(value, bool):
                raise ConfigError(f"{dotted}: {expected}, got a bool")
            if not isinstance(value, _KINDS[kind]):
                raise ConfigError(f"{dotted}: {expected}, got {type(value).__name__}")
            if path == "output" and value == "":
                raise ConfigError(f"{dotted}: empty path")


def _required(section: dict, key: str, path: str):
    if key not in section:
        raise ConfigError(f"{_dotted(path, key)}: missing required key")
    return section[key]


def _finite_number(token: str, convert=float):
    """``convert(token)``, or a ConfigError when a float cannot hold the number."""
    if not math.isfinite(float(token)):
        shown = token if len(token) <= 32 else f"{token[:16]}... ({len(token)} characters)"
        raise ConfigError(f"non-finite number {shown} is not allowed")
    return convert(token)


def load_config(path: str | Path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        cfg = json.loads(text, parse_float=_finite_number, parse_constant=_finite_number,
                         parse_int=lambda token: _finite_number(token, int))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


@contextmanager
def _section(name: str):
    """Report a constructor's rejection of a value as a config error in ``name``."""
    try:
        yield
    except InvalidConfigurationError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def build_problem(cfg: dict) -> ResidualProblem:
    pcfg = _required(cfg, "problem", "")
    name = _required(pcfg, "name", "problem")
    if name not in _FAMILIES:
        raise ConfigError(f"problem.name: unknown problem {name!r}")
    with _section("problem"):
        if name == "quadratic":
            return make_quadratic(float(_required(pcfg, "lambda", "problem")))
        return make_bvp(
            _required(pcfg, "grid_points", "problem"),
            float(pcfg.get("gamma", 0.0)),
            pcfg.get("forcing", "zero"),
            quadrature_weights=pcfg.get("quadrature_weights", False),
        )


def build_ball(cfg: dict, problem: ResidualProblem) -> Ball:
    bcfg = _required(cfg, "ball", "")
    center = _required(bcfg, "center", "ball")
    radius = _required(bcfg, "radius", "ball")
    if not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in center):
        raise ConfigError("ball.center: entries must be numbers")
    if len(center) != problem.n:
        raise ConfigError(
            f"ball.center: expected {problem.n} entries for problem "
            f"{problem.name!r}, got {len(center)}"
        )
    with _section("ball"):
        return Ball(np.asarray(center, dtype=float), float(radius))


def build_certificate_settings(cfg: dict, problem: ResidualProblem):
    settings = dict(cfg.get("certificate", {}))
    method = settings.pop("method", METHOD_SAMPLED)
    with _section("certificate"):
        check_method(problem, method)
        sampling = SamplingConfig(**settings)
    return method, sampling


def build_transform_settings(cfg: dict, required: bool):
    if "transform" not in cfg and not required:
        return None
    tcfg = _required(cfg, "transform", "")
    family = tcfg.get("family", "scale")
    if family != "scale":
        raise ConfigError(f"transform.family: only 'scale' is searchable, got {family!r}")
    settings = {
        "mu_range": (float(_required(tcfg, "mu_min", "transform")),
                     float(_required(tcfg, "mu_max", "transform"))),
        "grid_size": tcfg.get("grid_size", 51),
        "spacing": tcfg.get("spacing", "linear"),
    }
    with _section("transform"):
        build_mu_grid(**settings)
    return settings


def build_descent_config(cfg: dict) -> DescentConfig:
    with _section("descent"):
        return DescentConfig(**cfg.get("descent", {}))


def _problem_summary(problem: ResidualProblem) -> dict:
    return {
        "name": problem.name,
        "n": problem.n,
        "m": problem.m,
        "params": dict(problem.params),
        "has_analytic_jacobian": problem.has_analytic_jacobian,
    }


def _gradient_check_summary(problem: ResidualProblem, ball: Ball) -> dict:
    rep = check_gradient(problem, ball.center)
    return {
        "point": rep.point,
        "max_relative_error": rep.max_relative_error,
    }


_fmt = report_io.format_float


def _print_point(label: str, u: np.ndarray) -> str:
    if len(u) <= 4:
        return f"{label}=[" + ", ".join(_fmt(x) for x in u) + "]"
    return f"{label}=<{len(u)}-dim vector, norm={_fmt(float(np.linalg.norm(u)))}>"


def run_command(command: str, cfg: dict, args) -> None:
    """Run the stages of the pipeline that ``command`` asks for; write the report.

    Every section present is built, and so validated, and every output path
    and the seed are chosen, before any stage runs, whatever the command.
    The stages, in order: the certificate (certify; solve with a
    ``certificate`` block), the mu search (search; solve with a ``transform``
    block) and descent (solve), on the problem the search relaxed when it
    found a passing mu.
    """
    _check(cfg)
    seed = cfg.get("seed", 42) if args.seed is None else args.seed
    with _section("seed" if args.seed is None else "--seed"):
        check_seed(seed)
    output = {"report": f"{command}_report.json", **cfg.get("output", {})}
    paths = {}
    for key in _SCHEMA["output"]:
        flag = getattr(args, key, None)
        if flag == "":
            raise ConfigError(f"--{key.replace('_', '-')}: empty path")
        paths[key] = output.get(key) if flag is None else flag
    problem = build_problem(cfg)
    ball = build_ball(cfg, problem)
    method, sampling = build_certificate_settings(cfg, problem)
    tset = build_transform_settings(cfg, required=command == "search")
    descent_cfg = build_descent_config(cfg)
    solving = command == "solve"
    report = {"command": command, "config": cfg, "seed": seed,
              "problem": _problem_summary(problem),
              "gradient_check": _gradient_check_summary(problem, ball)}
    if solving:
        report.update(certificate=None, transform_search=None)
    timings: dict[str, float] = {}

    if command == "certify" or (solving and "certificate" in cfg):
        t0 = time.perf_counter()
        certificate = certify(problem, ball, method, sampling)
        timings["certify_s"] = time.perf_counter() - t0
        print(f"{'PASS' if certificate.passed else 'FAIL'} lhs={_fmt(certificate.lhs)} "
              f"rhs={_fmt(certificate.rhs)} slack={_fmt(certificate.slack)} "
              f"c={_fmt(certificate.c)} method={certificate.method}")
        report["certificate"] = certificate

    found = None
    if command != "certify" and tset is not None:
        t0 = time.perf_counter()
        found = search_mu(problem, ball, method=method, sampling=sampling, **tset)
        timings["search_s"] = time.perf_counter() - t0
        if found.zero_exclusion is not None:
            print(f"note: excluded mu in (-{_fmt(found.zero_exclusion)}, {_fmt(found.zero_exclusion)})")
        word = "PASS" if found.any_passed else "FAIL"
        print(f"{word} best mu={_fmt(found.best_parameter)} slack={_fmt(found.certificate.slack)}")
        if paths["sweep_csv"]:
            report_io.write_sweep_csv(paths["sweep_csv"], found.sweep)
        report["transform_search"] = found

    if solving:
        transform = scale(found.best_parameter) if found is not None and found.any_passed else None
        target = recover_problem_independent(transform, problem) if transform else problem
        t0 = time.perf_counter()
        result = solve(target, ball, descent_cfg, record_trace=bool(paths["trace_csv"]))
        timings["descent_s"] = time.perf_counter() - t0
        if paths["trace_csv"]:
            report_io.write_trace_csv(paths["trace_csv"], result.trace or ())
        u = pull_back_zero(transform, result.u) if transform else result.u
        verified = verify_solution(target, result.u, ball, descent_cfg.residual_tolerance)
        final_residual = residual_norm(problem, u)
        print(f"{result.status} iterations={result.iterations} "
              f"residual={_fmt(final_residual)} {_print_point('u', u)} "
              f"{'VERIFIED' if verified else 'FAIL'}")
        descent = {f.name: getattr(result, f.name) for f in fields(result) if f.name != "trace"}
        descent.update(u_pulled_back=u, original_residual_norm=final_residual)
        report.update(descent=descent, verified=verified)
    report["timings"] = timings
    report_io.write_json(paths["report"], report)


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The ``zerocert`` argument parser, built once per process on the first call.

    Only a process that calls ``main`` more than once (tests, in-process timing) reuses it;
    the ``zerocert`` console script calls ``main`` once and builds it once either way."""
    parser = argparse.ArgumentParser(
        prog="zerocert",
        description="Existence certificates for zeros of residual maps, "
                    "transform relaxation, and ball-constrained descent.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    csv_help = {"sweep": "CSV output for transform sweeps",
                "trace": "CSV output for the descent iteration log"}
    # the CSV artifacts each command writes; selftest reads no config and writes no file
    for name, csvs in (
        ("certify", ()), ("search", ("sweep",)), ("solve", ("sweep", "trace")), ("selftest", None),
    ):
        p = sub.add_parser(name)
        if csvs is not None:
            p.add_argument("--config", required=True, help="path to the JSON run config")
            p.add_argument("--report", default=None, help="JSON report output path")
        for kind in csvs or ():
            p.add_argument(f"--{kind}-csv", dest=f"{kind}_csv", default=None, help=csv_help[kind])
        p.add_argument("--seed", type=int, default=None,
                       help="seed in [0, 2**32) (default 42): selftest draws its cases "
                            "from it; certify, search and solve check and report it")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    # an overflow or invalid operation is a value (inf, nan) that the verdicts and
    # statuses already account for, so a command writes no warning for it
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if args.command == "selftest":
                with _section("selftest"):
                    return run_selftest(args.seed if args.seed is not None else 42)
            run_command(args.command, load_config(args.config), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (ZerocertError, ValueError, OSError, MemoryError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
