import csv
import errno
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from zerocert import SweepPoint, cli
from zerocert.report import write_sweep_csv, write_trace_csv
from test_golden import CASES, GOLDEN, _without_timings, run_case


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(tmp_path, command, cfg, extra=()):
    cfg_path = write_config(tmp_path, cfg)
    report_path = tmp_path / "report.json"
    rc = cli.main([command, "--config", cfg_path, "--report", str(report_path), *extra])
    report = json.loads(report_path.read_text()) if report_path.exists() else None
    return rc, report


QUAD_FAIL = {
    "problem": {"name": "quadratic", "lambda": 1.0},
    "ball": {"center": [2.0], "radius": 0.5},
    "certificate": {"method": "closed_form_quadratic"},
}


def test_certify_worked_failure(tmp_path, capsys):
    rc, report = run(tmp_path, "certify", QUAD_FAIL)
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("FAIL lhs=3 rhs=1.5")
    assert report["certificate"]["passed"] is False
    assert report["certificate"]["c"] == 3.0
    assert report["gradient_check"]["max_relative_error"] <= 1e-6
    assert report["seed"] == 42


def test_certify_center_at_zero_passes(tmp_path, capsys):
    cfg = {
        "problem": {"name": "quadratic", "lambda": 1.0},
        "ball": {"center": [1.0], "radius": 0.5},
    }
    rc, report = run(tmp_path, "certify", cfg)
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("PASS lhs=0")
    assert report["certificate"]["method"] == "sampled"
    assert report["certificate"]["advisory"] is True


def test_missing_radius_is_a_config_error(tmp_path, capsys):
    cfg = {
        "problem": {"name": "quadratic", "lambda": 1.0},
        "ball": {"center": [2.0]},
    }
    rc, _ = run(tmp_path, "certify", cfg)
    assert rc == 2
    assert "ball.radius" in capsys.readouterr().err


def test_invalid_json_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc = cli.main(["certify", "--config", str(path)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_problem_is_a_config_error(tmp_path, capsys):
    cfg = {"problem": {"name": "cubic"}, "ball": {"center": [0.0], "radius": 1.0}}
    rc, _ = run(tmp_path, "certify", cfg)
    assert rc == 2
    assert "problem.name" in capsys.readouterr().err


def test_wrong_center_dimension_is_a_config_error(tmp_path, capsys):
    cfg = {
        "problem": {"name": "quadratic", "lambda": 1.0},
        "ball": {"center": [1.0, 2.0], "radius": 0.5},
    }
    rc, _ = run(tmp_path, "certify", cfg)
    assert rc == 2
    assert "ball.center" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, bad", [
    ("ball", "radius", 0.0),
    ("problem", "grid_points", 1),
    ("problem", "forcing", "ramp"),
    ("certificate", "method", "newton"),
    ("certificate", "method", "closed_form_quadratic"),
    ("certificate", "samples_per_axis", 1),
    ("transform", "spacing", "cubic"),
    ("transform", "grid_size", 0),
    ("descent", "backtrack_factor", 2.0),
    ("descent", "backtrack_factor", 1.0 - 2.0**-52),  # its ladder used to grow out of memory
    ("descent", "initial_step", 1e-20),  # used to stall at iteration 0 without a trial
    ("descent", "ball_policy", "bounce"),
])
def test_out_of_range_values_are_config_errors_naming_section_and_key(
        tmp_path, capsys, section, key, bad):
    cfg = {
        "problem": {"name": "bvp", "grid_points": 2, "forcing": "zero"},
        "ball": {"center": [0.0, 0.0], "radius": 1.0},
        "certificate": {"samples_per_axis": 2},
        "transform": {"mu_min": 0.5, "mu_max": 2.0, "grid_size": 3},
        "descent": {},
    }
    cfg[section][key] = bad
    # certify and search used to ignore the descent block, certify the transform block
    for command in ("certify", "search", "solve"):
        rc, report = run(tmp_path, command, cfg)
        out, err = capsys.readouterr()
        assert rc == 2 and report is None and out == "", command
        assert section in err and key in err, command


@pytest.mark.parametrize("command, section, key", [
    ("solve", "", "certficate"),
    ("solve", "problem", "lamda"),
    ("solve", "ball", "centre"),
    ("solve", "certificate", "samples_per_axes"),
    ("solve", "transform", "gridsize"),
    ("solve", "descent", "max_iteration"),
    ("solve", "output", "reprot"),
    ("certify", "descent", "max_iteration"),
])
def test_unknown_keys_are_config_errors(tmp_path, capsys, command, section, key):
    # a misspelled key used to be ignored and its default used instead
    cfg = {
        "problem": {"name": "quadratic", "lambda": 1.0},
        "ball": {"center": [2.0], "radius": 0.5},
        "certificate": {"method": "closed_form_quadratic"},
        "transform": {"mu_min": 0.5, "mu_max": 3.0, "grid_size": 3},
        "descent": {"max_iterations": 5},
        "output": {},
    }
    (cfg[section] if section else cfg)[key] = 5
    rc, report = run(tmp_path, command, cfg)
    out, err = capsys.readouterr()
    dotted = f"{section}.{key}" if section else key
    assert rc == 2 and report is None and out == ""
    assert err == f"config error: {dotted}: unknown key\n"


@pytest.mark.parametrize("edit", [
    lambda text: text.replace('"center": [2.0]', '"center": [NaN]'),
    lambda text: text.replace('"radius": 0.5', '"radius": 1e400'),
    lambda text: text.replace('"lambda": 1.0', '"lambda": Infinity'),
    lambda text: text[:-1] + ', "note": NaN}',
    lambda text: text.replace('"lambda": 1.0', '"lambda": 1' + "0" * 400),
    lambda text: text.replace('"lambda": 1.0', '"lambda": 1' + "0" * 5000),
], ids=["center-nan", "radius-1e400", "lambda-infinity", "unused-key-nan",
        "lambda-401-digit-int", "lambda-5001-digit-int"])
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, edit):
    # used to run the whole command, print a verdict and then fail with exit 3;
    # integers too large for a float died with a traceback (exit 1) or exit 3
    path = tmp_path / "config.json"
    path.write_text(edit(json.dumps(QUAD_FAIL)))
    rc = cli.main(["certify", "--config", str(path), "--report", str(tmp_path / "r.json")])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert "config error" in err and "non-finite" in err
    assert len(err) < 200
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("seed", ["-1", "99999999999999999999"])
def test_seed_outside_uint32_range_is_a_config_error(tmp_path, capsys, seed):
    # -1 used to sample only NaN points and report c=0; a huge seed overflowed
    cfg = {
        "problem": {"name": "bvp", "grid_points": 3, "gamma": 1.0},
        "ball": {"center": [0.5, 0.5, 0.5], "radius": 0.25},
        "certificate": {"method": "sampled", "samples_per_axis": 3},
    }
    # a config seed was reported under the certificate section, which need not exist
    for source, edit, extra in (("--seed", {}, ("--seed", seed)), ("seed", {"seed": int(seed)}, ())):
        rc, report = run(tmp_path, "certify", {**cfg, **edit}, extra=extra)
        out, err = capsys.readouterr()
        assert rc == 2 and out == "" and report is None
        assert err == f"config error: {source}: seed must lie in [0, 2**32), got {seed}\n"


@pytest.mark.parametrize("seed", ["-1", "4294967296"])
def test_selftest_seed_outside_uint32_range_is_a_config_error(capsys, seed):
    # -1 died with a numpy ValueError traceback, 2**32 with an uncaught
    # InvalidConfigurationError; both exited 1, the selftest-failure code
    rc = cli.main(["selftest", "--seed", seed])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == f"config error: selftest: seed must lie in [0, 2**32), got {seed}\n"


def test_reversed_mu_range_fails_before_any_stage(tmp_path, capsys):
    cfg = dict(QUAD_FAIL)
    cfg["transform"] = {"family": "scale", "mu_min": 3.0, "mu_max": 1.0}
    rc, _ = run(tmp_path, "solve", cfg)
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert "transform" in err and "mu_min" in err


def test_search_finds_optimal_mu_and_writes_sweep(tmp_path, capsys):
    cfg = dict(QUAD_FAIL)
    cfg["transform"] = {"family": "scale", "mu_min": 0.5, "mu_max": 3.0, "grid_size": 26}
    sweep_path = tmp_path / "sweep.csv"
    rc, report = run(tmp_path, "search", cfg, extra=("--sweep-csv", str(sweep_path)))
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS best mu=2 " in out
    assert report["transform_search"]["any_passed"] is True
    assert report["transform_search"]["best_parameter"] == 2.0

    with open(sweep_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["mu", "c", "lhs", "rhs", "slack", "passed"]
    assert len(rows) == 27
    best = [r for r in rows if r[0] == "2"]
    assert best and best[0][5] == "true"


def test_search_single_point_grid_matches_certify(tmp_path, capsys):
    base_rc, base_report = run(tmp_path, "certify", QUAD_FAIL)
    cfg = dict(QUAD_FAIL)
    cfg["transform"] = {"family": "scale", "mu_min": 1.0, "mu_max": 1.0, "grid_size": 1}
    rc, report = run(tmp_path, "search", cfg)
    capsys.readouterr()
    assert base_rc == rc == 0
    searched = report["transform_search"]["certificate"]
    plain = base_report["certificate"]
    for key in ("c", "lhs", "rhs", "slack", "passed"):
        assert searched[key] == plain[key]


def test_search_excludes_zero_from_mu_range(tmp_path, capsys):
    cfg = dict(QUAD_FAIL)
    cfg["transform"] = {"family": "scale", "mu_min": -1.0, "mu_max": 1.0, "grid_size": 10}
    rc, report = run(tmp_path, "search", cfg)
    out = capsys.readouterr().out
    assert rc == 0
    assert "excluded mu in" in out
    assert report["transform_search"]["zero_exclusion"] == pytest.approx(1e-3)
    # nothing passes, so descent runs on the original problem; keep it short
    rc, _ = run(tmp_path, "solve", {**cfg, "descent": {"max_iterations": 5}})
    assert rc == 0
    assert "excluded mu in" in capsys.readouterr().out


def test_search_passes_on_an_exact_tie(tmp_path, capsys):
    # at mu = 1.4 lhs == rhs exactly; the search used to exit 3 because a
    # second, rescaled evaluation of the same certificate rounded the other way
    cfg = {
        "problem": {"name": "quadratic", "lambda": 0.5},
        "ball": {"center": [-2.8], "radius": 1.4},
        "certificate": {"method": "closed_form_quadratic"},
        "transform": {"family": "scale", "mu_min": 0.5, "mu_max": 1.4, "grid_size": 10},
    }
    rc, report = run(tmp_path, "search", cfg)
    capsys.readouterr()
    assert rc == 0
    found = report["transform_search"]
    assert found["any_passed"] is True
    assert found["best_parameter"] == pytest.approx(1.4, abs=1e-15)
    assert found["certificate"]["slack"] == 0.0


def test_search_requires_transform_block(tmp_path, capsys):
    rc, _ = run(tmp_path, "search", QUAD_FAIL)
    assert rc == 2
    assert "transform" in capsys.readouterr().err


def test_solve_with_transform_pipeline(tmp_path, capsys):
    cfg = dict(QUAD_FAIL)
    cfg["transform"] = {"family": "scale", "mu_min": 0.5, "mu_max": 3.0, "grid_size": 26}
    rc, report = run(tmp_path, "solve", cfg)
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL lhs=3" in out          # raw certificate
    assert "PASS best mu=2" in out      # relaxed certificate
    assert "VERIFIED" in out
    assert report["verified"] is True
    assert report["descent"]["status"] == "converged"
    u = report["descent"]["u_pulled_back"]
    assert abs(u[0] - 1.0) <= 1e-8
    assert report["descent"]["original_residual_norm"] <= 1e-10


def test_solve_bvp_gauss_newton(tmp_path, capsys):
    cfg = {
        "problem": {"name": "bvp", "grid_points": 64, "gamma": 1.0,
                    "forcing": "manufactured_sin"},
        "ball": {"center": [0.0] * 64, "radius": 10.0},
        "descent": {"direction": "gauss_newton"},
    }
    rc, report = run(tmp_path, "solve", cfg)
    capsys.readouterr()
    assert rc == 0
    assert report["descent"]["status"] == "converged"
    assert report["descent"]["residual_norm"] <= 1e-8
    assert report["verified"] is True


def test_solve_without_zeros_reports_failure_with_exit_zero(tmp_path, capsys):
    cfg = {
        "problem": {"name": "quadratic", "lambda": 0.0},
        "ball": {"center": [1.0], "radius": 2.0},
    }
    rc, report = run(tmp_path, "solve", cfg)
    out = capsys.readouterr().out
    assert rc == 0
    assert report["descent"]["status"] in ("stalled", "max_iterations")
    assert report["verified"] is False
    assert "FAIL" in out


def test_solve_writes_descent_trace(tmp_path, capsys):
    cfg = {
        "problem": {"name": "quadratic", "lambda": 1.0},
        "ball": {"center": [1.2], "radius": 0.5},
    }
    trace_path = tmp_path / "trace.csv"
    rc, _ = run(tmp_path, "solve", cfg, extra=("--trace-csv", str(trace_path)))
    capsys.readouterr()
    assert rc == 0
    with open(trace_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "phi", "grad_norm", "step"]
    assert len(rows) > 1


def test_reports_are_deterministic_modulo_timings(tmp_path, capsys):
    cfg = {
        "problem": {"name": "quadratic", "lambda": 1.0},
        "ball": {"center": [2.0], "radius": 0.5},
        "certificate": {"method": "sampled", "samples_per_axis": 201},
    }
    cfg_path = write_config(tmp_path, cfg)
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        assert cli.main(["certify", "--config", cfg_path, "--report", str(p)]) == 0
    capsys.readouterr()

    def stable_lines(path):
        return [ln for ln in path.read_text().splitlines() if '_s":' not in ln]

    assert stable_lines(paths[0]) == stable_lines(paths[1])


def test_output_paths_from_config_block(tmp_path, capsys):
    report_path = tmp_path / "from_config.json"
    sweep_path = tmp_path / "from_config_sweep.csv"
    cfg = dict(QUAD_FAIL)
    cfg["transform"] = {"family": "scale", "mu_min": 0.5, "mu_max": 3.0, "grid_size": 11}
    cfg["output"] = {"report": str(report_path), "sweep_csv": str(sweep_path)}
    cfg_path = write_config(tmp_path, cfg)
    rc = cli.main(["search", "--config", cfg_path])
    capsys.readouterr()
    assert rc == 0
    assert report_path.exists() and sweep_path.exists()
    report = json.loads(report_path.read_text())
    assert report["transform_search"]["any_passed"] is True


def test_unwritable_report_is_a_runtime_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path, QUAD_FAIL)
    rc = cli.main(["certify", "--config", cfg_path,
                   "--report", str(tmp_path / "no_such_dir" / "report.json")])
    assert rc == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
@pytest.mark.parametrize("flag", ["--report", "--sweep-csv"])
def test_an_output_path_that_cannot_be_opened_exits_3_with_its_errno(tmp_path, capsys, where, flag):
    cfg = {**QUAD_FAIL, "transform": {"mu_min": 0.5, "mu_max": 3.0, "grid_size": 3}}
    path = tmp_path / "out" if where == "directory" else tmp_path / "no_such_dir" / "out"
    code = errno.EISDIR if where == "directory" else errno.ENOENT
    if where == "directory":
        path.mkdir()
    # a flag given twice takes its last value, so the path replaces the report or joins it
    rc = cli.main(["search", "--config", write_config(tmp_path, cfg),
                   "--report", str(tmp_path / "report.json"), flag, str(path)])
    assert rc == 3
    assert capsys.readouterr().err == f"error: [Errno {code}] {os.strerror(code)}: {str(path)!r}\n"


def test_selftest_passes_and_prints_suites(capsys):
    rc = cli.main(["selftest"])
    out = capsys.readouterr().out
    assert rc == 0
    for suite in ("closed_form_vs_sampled", "equivalence_grid", "gradient_checks"):
        assert suite in out
    assert "selftest: OK" in out


def test_selftest_detects_corrupted_constant(capsys, monkeypatch):
    import zerocert.selftest as st
    monkeypatch.setattr(st, "quadratic_domination_constant", lambda lam, x, r: 999.0)
    rc = cli.main(["selftest"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "selftest: FAILED" in out and "lam=" not in out
    # each suite names its first failing case, which the acceptance gate prints
    lam, x, r = np.random.default_rng(42).uniform([0.25, -3.0, 0.1], [4.0, 3.0, 1.0])
    sampled = st.suite_closed_form_vs_sampled(42, cases=3)
    assert (sampled.passed, sampled.failed) == (0, 3)
    assert sampled.first_failure.startswith(f"lam={lam} x={x} r={r}: sampled ")
    assert st.suite_equivalence_grid().first_failure == "lam=0.5 mu=0.5 x=-3.0 r=0.25"
    monkeypatch.setattr(st, "check_gradient", lambda problem, v: SimpleNamespace(
        max_relative_error=1.0 if problem.name == "bvp" else 0.0))
    gradients = st.suite_gradient_checks(42, points=3)
    assert (gradients.passed, gradients.failed) == (6, 6)
    assert gradients.first_failure == (
        "bvp {'grid_points': 16, 'gamma': 0.0, 'forcing': 'sin_pi'} point 0")


@pytest.mark.parametrize("case", ["bvp10_sampled_certify", "bvp_weighted_geometric_search",
                                  "bvp16_gauss_newton_solve"])
def test_the_seed_changes_no_output_but_its_own(tmp_path, capsys, case):
    # the probes are deterministic: two seeds give the same stdout, CSV and report bytes
    # apart from the report's "seed" line, on a sampled certify, search and solve
    command, config, csv_kind = CASES[case]
    outputs = []
    for seed in ("1", "2"):
        argv = [command, "--config", str(GOLDEN / config), "--report", str(tmp_path / "r.json"),
                "--seed", seed]
        if csv_kind:
            argv += [f"--{csv_kind}-csv", str(tmp_path / "out.csv")]
        assert cli.main(argv) == 0
        report = _without_timings((tmp_path / "r.json").read_bytes())
        assert report.count(f'\n  "seed": {seed},\n'.encode()) == 1
        outputs.append((report.replace(f'"seed": {seed},'.encode(), b'"seed": S,'),
                        capsys.readouterr().out,
                        (tmp_path / "out.csv").read_bytes() if csv_kind else None))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("problem,center,lhs", [
    ({"name": "quadratic", "lambda": 1.0}, [1.2e77], "1.4399999999999997e+154"),
    ({"name": "quadratic", "lambda": 1.0}, [1e100], "9.9999999999999997e+199"),
    ({"name": "bvp", "grid_points": 4, "gamma": 1.0}, [2.2e51] * 4, "2.1296e+154"),
], ids=["quadratic-1.2e77", "quadratic-1e100", "bvp-sum-overflow"])
def test_certify_reports_a_residual_norm_whose_square_overflows(tmp_path, capsys, problem,
                                                                center, lhs):
    # ||F(x)|| is representable but its square is not: the quadratic used to
    # exit 3 with "non-finite value inf in report", the BVP to die with an
    # OverflowError traceback from math.fsum
    cfg = {"problem": problem, "ball": {"center": center, "radius": 0.5},
           "certificate": {"method": "sampled", "samples_per_axis": 2 if len(center) > 1 else 101}}
    with np.errstate(all="ignore"):
        rc, report = run(tmp_path, "certify", cfg)
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith(f"FAIL lhs={lhs} rhs=0 ")
    assert report["certificate"]["lhs"] == float(lhs)


def test_solve_stalls_where_phi_overflows(tmp_path, capsys):
    # phi's sum of squares overflows at this centre: descent died with an
    # "intermediate overflow in fsum" traceback from math.fsum (exit 1)
    cfg = {"problem": {"name": "bvp", "grid_points": 4, "gamma": 1.0},
           "ball": {"center": [2.2e51] * 4, "radius": 0.5},
           "descent": {"max_iterations": 5}}
    with np.errstate(all="ignore"):
        rc, report = run(tmp_path, "solve", cfg)
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("stalled iterations=0 residual=2.1296e+154 ")
    assert out.rstrip().endswith(" FAIL")
    assert report["descent"]["status"] == "stalled" and report["verified"] is False


@pytest.mark.parametrize("trace", [False, True], ids=["no-trace", "trace-csv"])
def test_solve_never_accepts_a_step_where_phi_is_infinite(tmp_path, capsys, trace):
    # phi is inf at and around this centre: the line search read inf <= inf
    # and ran to max_iterations on null steps; with a trace CSV the inf
    # reached the report and the run exited 3
    cfg = {"problem": {"name": "quadratic", "lambda": 1e-240},
           "ball": {"center": [1e200], "radius": 0.5},
           "descent": {"max_iterations": 5}}
    extra = ("--trace-csv", str(tmp_path / "trace.csv")) if trace else ()
    with np.errstate(all="ignore"):
        rc, report = run(tmp_path, "solve", cfg, extra=extra)
    out = capsys.readouterr().out
    assert rc == 0
    assert out == ("stalled iterations=0 residual=9.9999999999999985e+159 "
                   "u=[9.9999999999999997e+199] FAIL\n")
    assert report["descent"]["status"] == "stalled" and report["verified"] is False


@pytest.mark.parametrize("problem, key", [
    ({"name": "quadratic", "lambda": 1.0, "grid_points": 4}, "grid_points"),
    ({"name": "quadratic", "lambda": 1.0, "gamma": 3.0}, "gamma"),
    ({"name": "quadratic", "lambda": 1.0, "forcing": "zero"}, "forcing"),
    ({"name": "quadratic", "lambda": 1.0, "quadrature_weights": True}, "quadrature_weights"),
    ({"name": "bvp", "grid_points": 1, "lambda": 1.0}, "lambda"),
], ids=["quadratic-grid_points", "quadratic-gamma", "quadratic-forcing",
        "quadratic-quadrature_weights", "bvp-lambda"])
def test_problem_keys_of_the_other_family_are_config_errors(tmp_path, capsys, problem, key):
    # a key of the other family used to be dropped silently
    cfg = {"problem": problem, "ball": {"center": [2.0], "radius": 0.5}}
    rc, report = run(tmp_path, "certify", cfg)
    out, err = capsys.readouterr()
    assert rc == 2 and report is None and out == ""
    assert err == f"config error: problem.{key}: unknown key for problem {problem['name']!r}\n"


@pytest.mark.parametrize("argv", [
    ["certify", "--config", "c.json", "--sweep-csv", "s.csv"],
    ["certify", "--config", "c.json", "--trace-csv", "t.csv"],
    ["search", "--config", "c.json", "--trace-csv", "t.csv"],
    ["selftest", "--report", "r.json"],
    ["selftest", "--sweep-csv", "s.csv"],
    ["selftest", "--trace-csv", "t.csv"],
], ids=["certify-sweep", "certify-trace", "search-trace", "selftest-report",
        "selftest-sweep", "selftest-trace"])
def test_commands_reject_flags_they_do_not_read(capsys, argv):
    # each of these flags used to be accepted and ignored
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


def test_sampled_search_survives_a_huge_mu(tmp_path, capsys):
    # the recovered problem was renamed a quadratic with lambda rescaled by mu,
    # computed in Python floats: OverflowError traceback past |mu| ~ 1.34e154
    cfg = {"problem": {"name": "quadratic", "lambda": 1.0},
           "ball": {"center": [2.0], "radius": 0.5},
           "transform": {"family": "scale", "mu_min": 0.5, "mu_max": 1e155, "grid_size": 5}}
    rc, report = run(tmp_path, "search", cfg)
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("FAIL best mu=")
    assert report["transform_search"]["sweep"][-1]["mu"] == 1e155
    assert report["transform_search"]["any_passed"] is False


def strict_report(tmp_path):
    """The report, parsed as strict JSON: NaN and Infinity tokens are rejected."""
    def reject(token):
        raise ValueError(f"{token} is not strict JSON")
    return json.loads((tmp_path / "report.json").read_text(), parse_constant=reject)


@pytest.mark.parametrize("command, out", [
    ("certify", "FAIL lhs=inf rhs=0 slack=-inf c=0 method=sampled\n"),
    ("solve", "FAIL lhs=inf rhs=0 slack=-inf c=0 method=sampled\n"
              "stalled iterations=0 residual=inf u=[1e+160, 1e+160, 1e+160, 1e+160] FAIL\n"),
], ids=["certify", "solve"])
def test_an_infinite_residual_norm_reaches_stdout_and_report(tmp_path, capsys, command, out):
    # ||F(x)|| overflows to inf here: both commands exited 3 with "non-finite
    # value inf in report", printed no verdict and wrote no report
    cfg = {"problem": {"name": "bvp", "grid_points": 4, "gamma": 1.0},
           "ball": {"center": [1e160] * 4, "radius": 0.5},
           "certificate": {"method": "sampled", "samples_per_axis": 2},
           "descent": {"max_iterations": 5}}
    with np.errstate(all="ignore"):
        rc, _ = run(tmp_path, command, cfg)
    assert rc == 0
    assert capsys.readouterr().out == out
    report = strict_report(tmp_path)
    assert report["certificate"]["lhs"] == "inf" and report["certificate"]["slack"] == "-inf"
    assert report["certificate"]["passed"] is False
    if command == "solve":
        assert report["descent"]["residual_norm"] == "inf" and report["verified"] is False


def test_closed_form_search_reports_an_infinite_lhs(tmp_path, capsys):
    # mu**2 overflows at mu = 1e155: the verdict printed, then the run exited 3
    # with "Out of range float values are not JSON compliant: inf" and no report
    cfg = {**QUAD_FAIL,
           "transform": {"family": "scale", "mu_min": 0.5, "mu_max": 1e155, "grid_size": 5}}
    sweep_csv = tmp_path / "sweep.csv"
    rc, _ = run(tmp_path, "search", cfg, extra=("--sweep-csv", str(sweep_csv)))
    assert rc == 0
    assert capsys.readouterr().out == "FAIL best mu=0.5 slack=-2.25\n"
    last = strict_report(tmp_path)["transform_search"]["sweep"][-1]
    assert (last["mu"], last["lhs"], last["slack"], last["passed"]) == (1e155, "inf", "-inf", False)
    assert sweep_csv.read_text().splitlines()[-1] == "1e+155,3,inf,1.5,-inf,false"


@pytest.mark.parametrize("value, text", [
    (True, "true"), (np.True_, "true"), (False, "false"), (3, "3"), (np.int64(3), "3"),
    (0.1, "0.10000000000000001"), (np.float64(0.1), "0.10000000000000001"),
    (np.float32(0.1), "0.10000000149011612"), (float("inf"), "inf"), (float("-inf"), "-inf"),
    (float("nan"), "nan"), (-0.0, "-0"), ("x", "x"),
])
def test_csv_cells_keep_their_spelling(value, text, tmp_path):
    # the spellings of csv.writer with one str() per cell: true/false (and any text) in a
    # sweep's passed column, a number in every column of a trace
    path = tmp_path / "cells.csv"
    if isinstance(value, (bool, np.bool_, str)):
        write_sweep_csv(path, [SweepPoint(1.0, 2.0, 3.0, 4.0, 5.0, value)])
        cells = ["1", "2", "3", "4", "5", text]
    else:
        write_trace_csv(path, [(value,) * 4])
        cells = [text] * 4
    assert path.read_bytes().split(b"\r\n")[1:] == [",".join(cells).encode(), b""]


OVERFLOW = Path(__file__).resolve().parent / "bvp_overflow.json"
UNDERFLOW = Path(__file__).resolve().parent / "bvp_underflow.json"


def test_an_underflowing_residual_fails(tmp_path, capsys):
    # F(x) = [2.5e-169, 0, 0, 2.5e-169]: its squares summed to 0, and 0 <= r*0 passed,
    # although the only zero, u = 0, lies 2e-170 from the centre, outside the ball
    assert cli.main(["certify", "--config", str(UNDERFLOW),
                     "--report", str(tmp_path / "report.json")]) == 0
    assert capsys.readouterr().out == (
        "FAIL lhs=3.5355339059327373e-169 rhs=0 slack=-3.5355339059327373e-169 c=0 method=sampled\n")


@pytest.mark.parametrize("command, out", [
    ("certify", "FAIL lhs=inf rhs=0 slack=-inf c=0 method=sampled\n"),
    ("solve", "FAIL lhs=inf rhs=0 slack=-inf c=0 method=sampled\n"
              "stalled iterations=0 residual=inf u=[1e+160, 1e+160, 1e+160, 1e+160] FAIL\n"),
], ids=["certify", "solve"])
def test_an_overflowing_run_writes_no_warning(tmp_path, command, out):
    # F overflows at this centre: numpy's RuntimeWarnings went to stderr, and
    # under -W error::RuntimeWarning the run died with a traceback and exit 1
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "zerocert.cli", command,
         "--config", str(OVERFLOW), "--report", str(tmp_path / "report.json")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, cwd=tmp_path,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", out)
    assert strict_report(tmp_path)["certificate"]["passed"] is False


@pytest.mark.parametrize("command, text, extra, message", [
    ("certify", json.dumps({**QUAD_FAIL, "ball": {"center": [2.0], "radius": "0.5"}}), (),
     "ball.radius: expected a number, got str"),
    ("certify", json.dumps({**QUAD_FAIL, "certificate": {"samples_per_axis": True}}), (),
     "certificate.samples_per_axis: expected an int, got a bool"),
    ("certify", "[1, 2]", (), "config root must be a JSON object"),
    ("certify", None, (), "cannot read config file "),
    ("certify", json.dumps({**QUAD_FAIL, "ball": {"center": ["2"], "radius": 0.5}}), (),
     "ball.center: entries must be numbers"),
    ("search", json.dumps({**QUAD_FAIL, "transform": {"family": "affine", "mu_min": 0.5,
                                                       "mu_max": 3.0}}), (),
     "transform.family: only 'scale' is searchable, got 'affine'"),
    # an empty path ran every stage and then exited 3 with "Is a directory",
    # or (from a flag) fell back to the config's path
    ("solve", json.dumps({**QUAD_FAIL, "output": {"report": ""}}), (),
     "output.report: empty path"),
    ("certify", json.dumps({**QUAD_FAIL, "output": {"sweep_csv": ""}}), (),
     "output.sweep_csv: empty path"),
    ("certify", json.dumps(QUAD_FAIL), ("--report", ""), "--report: empty path"),
    ("solve", json.dumps(QUAD_FAIL), ("--trace-csv", ""), "--trace-csv: empty path"),
], ids=["string-for-number", "bool-for-int", "non-object-root", "unreadable-path",
        "non-number-center", "search-family-affine", "empty-output-report",
        "empty-output-sweep_csv-unread", "empty-report-flag", "empty-trace-csv-flag"])
def test_config_errors_say_what_is_wrong(tmp_path, capsys, command, text, extra, message):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    rc = cli.main([command, "--config", str(path), "--report", str(tmp_path / "r.json"), *extra])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith(f"config error: {message}")
    assert not (tmp_path / "r.json").exists()


README = json.loads((Path(__file__).resolve().parent / "golden" / "readme.json").read_text())


@pytest.mark.parametrize("command, edit, extra, message", [
    ("solve", {"output": {"report": 5}}, (), "output.report: expected a string, got int"),
    ("search", {"output": {"sweep_csv": 7}}, (), "output.sweep_csv: expected a string, got int"),
    ("certify", {"descent": {"max_iterations": "5"}}, (),
     "descent.max_iterations: expected an int, got str"),
    ("certify", {"seed": "x"}, ("--seed", "3"), "seed: expected an int, got str"),
], ids=["solve-output-report", "search-output-sweep_csv", "certify-descent-unread",
        "seed-under-flag"])
def test_every_kind_is_checked_before_any_stage(tmp_path, capsys, command, edit, extra, message):
    # each used to be read only by the stage that needed it, after the stages
    # before it had printed their verdicts, or never
    rc, report = run(tmp_path, command, {**README, **edit}, extra)
    out, err = capsys.readouterr()
    assert rc == 2 and out == "" and report is None
    assert err == f"config error: {message}\n"


def test_out_of_memory_is_a_runtime_error(tmp_path, capsys, monkeypatch):
    # a huge grid_size or grid_points died in numpy with a traceback and exit 1
    def allocate(*args, **kwargs):
        raise MemoryError("Unable to allocate 72.8 TiB for an array")

    monkeypatch.setattr(cli, "search_mu", allocate)
    rc, report = run(tmp_path, "search", README)
    out, err = capsys.readouterr()
    assert rc == 3 and out == "" and report is None
    assert err == "error: Unable to allocate 72.8 TiB for an array\n"


@pytest.mark.parametrize("mu_min, message", [
    (0.0, "mu range contains only 0"),
    (-5e-324, "mu range [-5e-324, 0.0] lies too close to 0 to leave out a hole around it"),
], ids=["only-zero", "subnormal"])
def test_mu_range_hugging_zero_is_a_config_error(tmp_path, capsys, mu_min, message):
    cfg = {**README, "transform": {"mu_min": mu_min, "mu_max": 0.0, "grid_size": 3}}
    rc, report = run(tmp_path, "search", cfg)
    out, err = capsys.readouterr()
    assert rc == 2 and out == "" and report is None
    assert err == f"config error: transform: {message}\n"


def test_the_parser_is_built_once_and_survives_a_usage_error(tmp_path, capsys):
    assert cli.make_parser() is cli.make_parser()
    with pytest.raises(SystemExit) as exc:
        cli.main(["certify"])  # --config missing
    assert exc.value.code == 2
    capsys.readouterr()
    for suffix, data in run_case("bvp10_sampled_certify", tmp_path).items():
        assert data == (GOLDEN / f"bvp10_sampled_certify.{suffix}").read_bytes()
