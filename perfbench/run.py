#!/usr/bin/env python3
"""zerocert benchmark: drives ``zerocert.cli.main(argv)`` in-process on
generated configs, checks every output against an independent oracle, and
prints the metrics.

    python3 perfbench/run.py --workload certify-sampled --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --quick

Run it from the root of a checkout; it imports zerocert from ``src/`` of the
checkout it lives in and nowhere else.  One process, one closed-loop client:
each command starts when the previous one has returned.  BLAS threads are
capped at the number of CPUs this process may use.

``--trace 0`` repeats passes over the workload's commands for ``--seconds``
and reports the end-to-end metrics.  ``--trace 1`` spends half the time on
untraced passes and half on traced ones, and reports the per-layer metrics
plus the tracing overhead.  ``--quick`` runs every workload at a tiny size,
both ways, for the benchmark's own test.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.  A fuller record
(environment, per-command outcomes and times, spans) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# Kept out of every tuning run; a later change confirms its claim on it.
HELD_OUT_SEED = 7919

SETUP_REPEATS = 7

# Fastest time of calibrate() on the host the benchmark was defined on
# (2-vCPU KVM guest, Intel Xeon, Python 3.11, numpy 2.4).  wall_s is scaled
# by it over the run's own fastest calibrate() time.
REFERENCE_CALIBRATION_S = 0.014

# name, unit, better
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sound_share", "share", "higher"),
    ("oracle_agree_share", "share", "higher"),
)

# Fresh interpreter: time from before ``import zerocert`` to the end of one
# warm-up command.  argv: src dir, then the CLI arguments.
SETUP_CODE = r"""
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import contextlib, io, pathlib
import zerocert.cli
if pathlib.Path(sys.argv[1]).resolve() not in pathlib.Path(zerocert.__file__).resolve().parents:
    sys.exit(97)
with contextlib.redirect_stdout(io.StringIO()):
    rc = zerocert.cli.main(sys.argv[2:])
print(repr(time.perf_counter() - t0))
sys.exit(rc)
"""


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def cap_blas_threads(nproc: int) -> int:
    """Cap BLAS/OpenMP threads at nproc before numpy is imported."""
    threads = nproc
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            threads = min(threads, int(os.environ.get(var, nproc)))
        except ValueError:
            pass
    threads = max(threads, 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def import_program():
    """Import zerocert from this checkout's src/, refusing any other copy."""
    if not (SRC / "zerocert" / "cli.py").is_file():
        raise BenchmarkError(f"no zerocert sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import zerocert
    import zerocert.cli
    import_s = time.perf_counter() - t0
    if SRC.resolve() not in Path(zerocert.__file__).resolve().parents:
        raise BenchmarkError(f"imported zerocert from {zerocert.__file__}, not {SRC}")
    return zerocert, import_s


# -- executing and checking one command ---------------------------------------

@dataclass
class Execution:
    seconds: float
    exit_code: int
    stdout: str
    stderr: str


@dataclass
class Checked:
    """What the benchmark concluded about one execution."""

    verdicts: list[tuple[str, str]] = field(default_factory=list)  # (kind, class)
    failures: list[str] = field(default_factory=list)
    digest: str = ""
    points: int = 0
    notes: dict = field(default_factory=dict)


def execute(cli, argv: list[str]) -> Execution:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed command, not the end of the run
            traceback.print_exc(file=err)
            code = -1
        seconds = time.perf_counter() - t0
    return Execution(seconds, code, out.getvalue(), err.getvalue())


def _classify(zero_inside: bool, claimed: bool) -> str:
    if claimed:
        return "true_pass" if zero_inside else "false_pass"
    return "missed" if zero_inside else "true_fail"


def _pulled_back(ball: dict, mu: float) -> tuple[list[float], float]:
    return [c / mu for c in ball["center"]], ball["radius"] / abs(mu)


def _check_certificate(cert: dict, failures: list[str]) -> None:
    if cert["passed"] != (cert["lhs"] <= cert["rhs"]):
        failures.append("certificate.passed disagrees with lhs <= rhs")
    if cert["slack"] != cert["rhs"] - cert["lhs"]:
        failures.append("certificate.slack is not rhs - lhs")


def _search_verdict(case, search: dict, oracle) -> tuple[str, str]:
    ball = search["certificate"]["ball"]
    center, radius = _pulled_back(ball, search["best_parameter"])
    inside = oracle.zero_in_ball(case.spec, center, radius)
    return ("search", _classify(inside, search["any_passed"]))


def _readme_checks(case, report: dict, failures: list[str]) -> None:
    """The README example: FAIL 3 > 1.5, PASS at mu=2 with slack 1.5, u=1."""
    cert = report.get("certificate")
    search = report.get("transform_search")
    if case.command in ("certify", "solve"):
        if not (cert and cert["passed"] is False and cert["lhs"] == 3.0 and cert["rhs"] == 1.5):
            failures.append("README oracle: certificate is not FAIL lhs=3 rhs=1.5")
    if case.command in ("search", "solve"):
        if not (search and search["any_passed"] and search["best_parameter"] == 2.0
                and search["certificate"]["slack"] == 1.5):
            failures.append("README oracle: search is not PASS mu=2 slack=1.5")
    if case.command == "solve":
        if not (report["verified"] and report["descent"]["u_pulled_back"] == [1.0]):
            failures.append("README oracle: solve is not VERIFIED u=[1]")


def check(case, exe: Execution, paths: dict, oracle) -> Checked:
    """Judge one execution against the oracle and the report's own rules."""
    res = Checked()
    if exe.exit_code != 0:
        res.failures.append(f"exit code {exe.exit_code}: {exe.stderr.strip()[-300:]}")
        return res
    try:
        report = json.loads(Path(paths["report"]).read_text(encoding="utf-8"))
        csv_text = Path(paths["csv"]).read_text(encoding="utf-8") if case.csv else ""
    except (OSError, json.JSONDecodeError) as exc:
        res.failures.append(f"unreadable output: {exc}")
        return res
    report.pop("timings", None)
    res.digest = hashlib.sha256(
        json.dumps([exe.stdout, report, csv_text], sort_keys=True).encode()).hexdigest()
    csv_rows = max(csv_text.count("\n") - 1, 0)
    lines = [line for line in exe.stdout.splitlines() if line and not line.startswith("note:")]
    printed = [line.split()[0] for line in lines]
    f = res.failures

    cert = report.get("certificate")
    search = report.get("transform_search")
    if cert is not None:
        _check_certificate(cert, f)
        inside = oracle.zero_in_ball(case.spec, cert["ball"]["center"], cert["ball"]["radius"])
        res.verdicts.append(("certificate", _classify(inside, cert["passed"])))
        res.points += cert["sample_count"]
    if search is not None:
        _check_certificate(search["certificate"], f)
        res.verdicts.append(_search_verdict(case, search, oracle))
        res.points += search["certificate"]["sample_count"] * len(search["sweep"])
        if case.csv == "sweep" and csv_rows != len(search["sweep"]):
            f.append(f"sweep CSV has {csv_rows} rows for {len(search['sweep'])} mu")
        res.notes["sweep_false_pass"] = sum(
            1 for p in search["sweep"] if p["passed"] and not oracle.zero_in_ball(
                case.spec, *_pulled_back(search["certificate"]["ball"], p["mu"])))
    expected_words = ["PASS" if v[1] in ("true_pass", "false_pass") else "FAIL"
                      for v in res.verdicts]

    if case.command == "solve":
        descent = report["descent"]
        tol = case.config.get("descent", {}).get("residual_tolerance", 1e-10)
        if search is not None and search["any_passed"]:
            center, radius = _pulled_back(case.config["ball"], search["best_parameter"])
        else:
            center, radius = case.config["ball"]["center"], case.config["ball"]["radius"]
        inside = oracle.zero_in_ball(case.spec, center, radius)
        _, dist = oracle.nearest_zero(case.spec, descent["u_pulled_back"])
        if report["verified"]:
            near = dist <= oracle.solution_tolerance(case.spec, tol)
            res.verdicts.append(("solve", "verified" if near and inside else "false_verified"))
        else:
            res.verdicts.append(("solve", "missed" if inside else "true_fail"))
        expected_words.append("VERIFIED" if report["verified"] else "FAIL")
        if lines:  # "<status> iterations=... VERIFIED|FAIL"
            printed[-1] = lines[-1].split()[-1]
        if csv_rows != descent["iterations"]:
            f.append(f"trace CSV has {csv_rows} rows for {descent['iterations']} iterations")
        res.notes.update(status=descent["status"], iterations=descent["iterations"],
                         residual=descent["original_residual_norm"],
                         residual_floor=oracle.residual_floor(case.spec),
                         distance_to_zero=dist)
    if printed != expected_words:
        f.append(f"printed verdicts {printed} do not match the report {expected_words}")
    if case.readme:
        _readme_checks(case, report, f)
    return res


# -- running a workload -------------------------------------------------------

def calibrate() -> float:
    """Time a fixed mix of Python calls and small numpy operations."""
    import numpy as np

    v = np.linspace(0.1, 1.0, 12)
    t0 = time.perf_counter()
    for _ in range(2000):
        padded = np.concatenate(([0.0], v, [0.0]))
        second = padded[:-2] - 2.0 * padded[1:-1] + padded[2:]
        math.fsum(second * second)
        np.linalg.norm(second)
    return time.perf_counter() - t0

def measure_setup(argv: list[str]) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up run failed ({proc.returncode}): {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def environment(np, seed: int, cli_seed: int, nproc: int, blas_threads: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "zerocert").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc, "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_name, "blas_threads": blas_threads, "git_commit": commit,
        "source_sha256": digest.hexdigest(), "platform": platform.platform(),
        "seed": seed, "cli_seed": cli_seed,
    }


class WorkloadRun:
    """Passes over one workload's commands, with every output checked."""

    def __init__(self, program, workload: str, seed: int, quick: bool, tmp: Path):
        from oracle import Oracle
        import workloads

        self.cli = program.cli
        self.oracle = Oracle()
        self.cases, self.cli_seed = workloads.build(workload, seed, quick, self.oracle)
        self.argvs, self.paths = [], []
        for i, case in enumerate(self.cases):
            cfg_path = tmp / f"case{i}.json"
            cfg_path.write_text(json.dumps(case.config), encoding="utf-8")
            paths = {"report": tmp / f"case{i}.report.json", "csv": tmp / f"case{i}.csv"}
            argv = [case.command, "--config", str(cfg_path), "--report", str(paths["report"]),
                    "--seed", str(self.cli_seed)]
            if case.csv:
                argv += [f"--{case.csv}-csv", str(paths["csv"])]
            self.argvs.append(argv)
            self.paths.append(paths)
        readme = workloads.README_CONFIG
        warm = tmp / "warmup.json"
        warm.write_text(json.dumps(readme), encoding="utf-8")
        self.warmup_argv = ["certify", "--config", str(warm),
                            "--report", str(tmp / "warmup.report.json")]
        self.times: list[list[float]] = [[] for _ in self.cases]
        self.traced_times: list[list[float]] = [[] for _ in self.cases]
        self.checked: list[list[Checked]] = [[] for _ in self.cases]
        self.attempted = 0
        self.failed = 0
        self.calibration: list[float] = []

    def warm_up(self) -> None:
        if execute(self.cli, self.warmup_argv).exit_code != 0:
            raise BenchmarkError("warm-up command failed")

    def one_pass(self, tracer=None) -> None:
        for i, case in enumerate(self.cases):
            if tracer is not None:
                tracer.command = i
            exe = execute(self.cli, self.argvs[i])
            res = check(case, exe, self.paths[i], self.oracle)
            if self.checked[i] and res.digest != self.checked[i][0].digest:
                res.failures.append("outputs differ from the first pass (timings excluded)")
            self.checked[i].append(res)
            (self.times if tracer is None else self.traced_times)[i].append(exe.seconds)
            self.attempted += 1
            self.failed += bool(res.failures)

    def passes(self, budget: float, minimum: int) -> int:
        """Run passes until the next would end after ``budget`` seconds."""
        start = time.perf_counter()
        durations: list[float] = []
        while len(durations) < minimum or (
                time.perf_counter() - start + statistics.median(durations) <= budget):
            t0 = time.perf_counter()
            self.one_pass()
            self.calibration.append(calibrate())
            durations.append(time.perf_counter() - t0)
        return len(durations)

    def raw_wall_s(self, traced: bool = False) -> float:
        """One pass: the sum over commands of each command's fastest time.

        The fastest time, not the median: on a host whose cores other
        guests share, a command's median follows how busy they were.
        """
        times = self.traced_times if traced else self.times
        return sum(min(t) for t in times)

    def speed_scale(self) -> float:
        """Reference over this run's fastest calibration: 1 on the reference host."""
        return REFERENCE_CALIBRATION_S / min(self.calibration)

    def wall_s(self, traced: bool = False) -> float:
        """raw_wall_s at the reference host's speed, as calibrate() measures it.

        The host's speed drifts by a quarter from one run to the next;
        calibrate(), timed in the same run, drifts with it.
        """
        return self.raw_wall_s(traced) * self.speed_scale()

    def verdict_counts(self) -> dict[str, int]:
        """Verdict classes of one pass; later passes must repeat it exactly."""
        counts = dict.fromkeys(
            ("true_pass", "false_pass", "true_fail", "missed", "verified", "false_verified"), 0)
        for results in self.checked:
            for _, cls in results[0].verdicts:
                counts[cls] += 1
        return counts

    def quality(self) -> dict[str, float]:
        c = self.verdict_counts()
        total = sum(c.values())
        false_claims = c["false_pass"] + c["false_verified"]
        right = c["true_pass"] + c["true_fail"] + c["verified"]
        return {"sound_share": 1.0 - false_claims / total, "oracle_agree_share": right / total}

    def per_command(self) -> list[dict]:
        rows = []
        for case, times, traced, results in zip(
                self.cases, self.times, self.traced_times, self.checked):
            first = results[0]
            row = {"name": case.name, "command": case.command, "runs": len(times),
                   "min_s": min(times), "median_s": statistics.median(times),
                   "times_s": times, "traced_times_s": traced,
                   "verdicts": [f"{k}:{v}" for k, v in first.verdicts],
                   "points": first.points, **first.notes}
            failures = sorted({msg for res in results for msg in res.failures})
            if failures:
                row["failures"] = failures
            rows.append(row)
        return rows

    def points_per_s(self) -> float | None:
        """Sampled points per second of the sampling commands' fastest times."""
        points = sum(r[0].points for r in self.checked)
        secs = sum(min(t) for t, r in zip(self.times, self.checked) if r[0].points)
        return points / secs if points and secs else None


def run_workload(program, np, workload: str, seed: int, seconds: float, trace: bool,
                 quick: bool, env_base: dict) -> tuple[dict, dict]:
    """One benchmark run; returns the printed metrics and the full record."""
    from tracer import PER_LAYER, Tracer, layer_metrics, median_metrics

    OUT.mkdir(parents=True, exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}-{workload}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        run = WorkloadRun(program, workload, seed, quick, tmp)
        record = {"workload": workload, "quick": quick, "trace": trace,
                  "environment": environment(np, seed, run.cli_seed, **env_base)}
        metrics: dict[str, dict] = {}
        setup = []
        if not trace or quick:
            setup = [measure_setup(run.warmup_argv) for _ in range(1 if quick else SETUP_REPEATS)]
        run.warm_up()
        untraced_budget = seconds / 2 if trace else seconds
        record["passes"] = run.passes(untraced_budget, 1 if trace else 2)
        if not trace or quick:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values = {"wall_s": run.wall_s(), "setup_s": statistics.median(setup),
                      "peak_rss_mb": rss_mb, **run.quality()}
            metrics.update({name: {"value": values[name], "unit": unit}
                            for name, unit, _ in END_TO_END})
            record["setup_samples_s"] = setup
            record["raw_wall_s"] = run.raw_wall_s()
        if trace:
            tracer = Tracer(program)
            tracer.install()
            try:
                per_pass = []
                start = time.perf_counter()
                while not per_pass or time.perf_counter() - start < seconds / 2:
                    first_span = len(tracer.spans)
                    run.one_pass(tracer)
                    per_pass.append(layer_metrics(tracer.spans[first_span:]))
            finally:
                tracer.uninstall()
            layers = median_metrics(per_pass)
            layers["trace.overhead_s"] = run.wall_s(traced=True) - run.wall_s()
            metrics.update({name: {"value": layers[name], "unit": unit}
                            for name, unit, _ in PER_LAYER})
            record["traced_passes"] = len(per_pass)
            record["untraced_functions"] = tracer.missing
            spans_path = OUT / f"spans-{workload}-seed{seed}.json"
            tracer.write(spans_path)
            record["spans_file"] = str(spans_path.relative_to(ROOT))
        counts = run.verdict_counts()
        record.update(
            calibration_s=run.calibration, speed_scale=run.speed_scale(),
            attempted=run.attempted, failed=run.failed,
            verdict_counts=counts,
            false_pass=counts["false_pass"], true_pass=counts["true_pass"],
            verified=counts["verified"], error_rate=run.failed / run.attempted,
            points_per_s=run.points_per_s(), commands=run.per_command(),
            metrics={k: v["value"] for k, v in metrics.items()},
        )
        return metrics, record
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def parse_args(argv):
    from workloads import BUILDERS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(BUILDERS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="every workload once at a tiny size, untraced and traced")
    args = p.parse_args(argv)
    if not args.quick and args.workload is None:
        p.error("--workload is required unless --quick is given")
    return args


def main(argv=None) -> int:
    nproc = len(os.sched_getaffinity(0))
    blas_threads = cap_blas_threads(nproc)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    args = parse_args(argv)
    from oracle import OracleError

    try:
        program, import_s = import_program()
        import numpy as np

        env_base = {"nproc": nproc, "blas_threads": blas_threads}
        if args.quick:
            from workloads import BUILDERS

            metrics, attempted, failed, records = {}, 0, 0, []
            for workload in BUILDERS:
                m, rec = run_workload(program, np, workload, args.seed, 0.0, True, True, env_base)
                metrics.update({f"{workload}/{k}": v for k, v in m.items()})
                attempted += rec["attempted"]
                failed += rec["failed"]
                records.append(rec)
            record = {"quick": records}
        else:
            metrics, record = run_workload(program, np, args.workload, args.seed, args.seconds,
                                           bool(args.trace), False, env_base)
            attempted, failed = record["attempted"], record["failed"]
        record["import_s"] = import_s
    except (BenchmarkError, OracleError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    name = "quick" if args.quick else f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record_path = OUT / f"run-{name}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    if not args.quick:
        for row in record["commands"]:
            print(json.dumps({k: v for k, v in row.items() if not k.endswith("times_s")}))
        print(json.dumps({k: record[k] for k in (
            "false_pass", "true_pass", "verified", "error_rate", "points_per_s")}))
        print(json.dumps({"environment": record["environment"]}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
