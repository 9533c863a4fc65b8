"""Golden outputs: byte-for-byte pins of what the CLI writes on fixed configs.

Each case runs one command on a config under ``tests/golden/`` and compares
the report (without its wall-clock ``timings`` block), the CSV artifact and
stdout with the committed files.  After an intentional output change,
regenerate them with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

from zerocert import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

# case -> (command, config file, CSV kind written by --<kind>-csv, or None)
CASES = {
    "readme_certify": ("certify", "readme.json", None),
    "readme_search": ("search", "readme.json", "sweep"),
    "readme_solve": ("solve", "readme.json", "trace"),
    # the one sampled certificate: the centre and 32 probes along the weakest directions of
    # J there
    "bvp10_sampled_certify": ("certify", "bvp10_sampled.json", None),
    "bvp16_gauss_newton_solve": ("solve", "bvp16_gauss_newton.json", "trace"),
    # the one case with more than 16 unknowns
    "bvp64_gauss_newton_solve": ("solve", "bvp64_gauss_newton.json", "trace"),
    "bvp_weighted_geometric_search": ("search", "bvp_weighted_geometric.json", "sweep"),
    # descent on balls without a zero: steepest with clipped trials on the sphere, and
    # reject_outside, each until it stalls
    "bvp16_steepest_clip_solve": ("solve", "bvp16_steepest_clip.json", "trace"),
    "quadratic_reject_solve": ("solve", "quadratic_reject.json", "trace"),
    # the clip_to_ball null-step stall: the first step clips to the sphere, and every
    # later trial clips back onto that iterate, so none is evaluated
    "quadratic_clip_solve": ("solve", "quadratic_clip.json", "trace"),
}


def _without_timings(report: bytes) -> bytes:
    """The report up to its final ``timings`` key, closed as a JSON object."""
    head, sep, tail = report.partition(b',\n  "timings": ')
    if not sep or b'\n  "' in tail:
        raise AssertionError("report does not end with its timings block")
    return head + b"\n}\n"


def run_case(name: str, tmp: Path) -> dict[str, bytes]:
    """Run one case in ``tmp`` and return its outputs keyed by golden-file suffix."""
    command, config, csv_kind = CASES[name]
    report = tmp / "report.json"
    argv = [command, "--config", str(GOLDEN / config), "--report", str(report)]
    if csv_kind:
        argv += [f"--{csv_kind}-csv", str(tmp / "out.csv")]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main(argv)
    if rc != 0:
        raise AssertionError(f"{name}: exit code {rc}")
    outputs = {
        "report.json": _without_timings(report.read_bytes()),
        "stdout.txt": stdout.getvalue().encode("utf-8"),
    }
    if csv_kind:
        outputs[f"{csv_kind}.csv"] = (tmp / "out.csv").read_bytes()
    return outputs


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden_files(name, tmp_path):
    for suffix, data in run_case(name, tmp_path).items():
        golden = GOLDEN / f"{name}.{suffix}"
        assert data == golden.read_bytes(), f"{golden.name} differs"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            for suffix, data in run_case(case, Path(tmp)).items():
                (GOLDEN / f"{case}.{suffix}").write_bytes(data)
