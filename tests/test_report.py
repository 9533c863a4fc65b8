"""The report writers against the json and csv modules they replace, byte for byte.

``report.dumps`` spells a report in one join; ``reference_dumps`` below is the
writer it replaced: the report made plain, then ``json.dumps(indent=2)``.  The
CSV writers format each row with one ``%`` format; ``reference_csv`` is
``csv.writer`` with one ``str`` spelling per cell.
"""

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np
import pytest

from zerocert import (
    Ball,
    DescentConfig,
    SweepPoint,
    TransformSearchResult,
    cli,
    report,
    transformed_certificate_quadratic,
)
from test_golden import CASES, GOLDEN


def _plain(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else report.format_float(obj)
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj) if f.repr}
    if isinstance(obj, (np.ndarray, np.generic)):
        return _plain(obj.tolist())
    return obj


def reference_dumps(obj) -> str:
    return json.dumps(_plain(obj), indent=2, allow_nan=False) + "\n"


def _cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return report.format_float(v)
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def reference_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def report_object(name, tmp_path, monkeypatch):
    """The object the CLI hands to ``write_json`` for golden case ``name``."""
    command, config, _ = CASES[name]
    written = []
    monkeypatch.setattr(cli.report_io, "write_json", lambda path, obj: written.append(obj))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([command, "--config", str(GOLDEN / config),
                         "--report", str(tmp_path / "report.json")]) == 0
    return written[0]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_reports_are_spelled_as_json_dumps_spells_them(name, tmp_path, monkeypatch):
    obj = report_object(name, tmp_path, monkeypatch)
    assert report.dumps(obj) == reference_dumps(obj)
    # the committed report, read back as plain lists and with its lists of floats as arrays
    golden = json.loads((GOLDEN / f"{name}.report.json").read_text())
    as_arrays = json.loads((GOLDEN / f"{name}.report.json").read_text(), object_hook=lambda d: {
        k: np.array(v) if isinstance(v, list) and v and all(type(x) is float for x in v) else v
        for k, v in d.items()})
    for loaded in (golden, as_arrays):
        assert report.dumps(loaded) == reference_dumps(loaded)


@dataclass(frozen=True)
class Hidden:
    """A dataclass whose only field the writer leaves out."""

    secret: int = field(default=1, repr=False)


POINT = SweepPoint(0.626875, 3.0, 3.607027984375, 1.5, -2.107027984375, False)
CERTIFICATE = transformed_certificate_quadratic(1.0, 2.0, 2.0, 0.5)

VALUES = {
    "empty containers": {"a": {}, "b": [], "c": (), "d": [{}, [], ()], "e": {"f": {"g": []}}},
    "arrays": [np.zeros((2, 3)), np.empty(0), np.empty((0, 2)), np.arange(3), np.array(2.5),
               np.array([True, False]), np.array([0.1, -0.0], dtype=np.float32)],
    "strings": ['say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f", "café μ \U0001f600", ""],
    "scalars": [None, True, False, np.True_, np.False_, np.int64(-7), np.float32(0.1),
                np.float64(0.1), 0.1, -0.0, 5e-324, 1e308, 2**70, 0],
    "non-finite scalars": [math.inf, -math.inf, math.nan, np.float64("inf"), np.float32("nan")],
    "non-finite arrays": [np.array([1.0, math.inf, -math.inf, math.nan]),
                          np.array([[math.nan], [0.5]])],
    "keys": {1: "int", 2.5: "float", -0.0: "negative zero", False: "bool", None: "none",
             np.float64(0.1): "np.float64", "s": "str"},
    "certificate": CERTIFICATE,
    "ball": Ball(np.array([1.0, math.inf]), 0.5),
    "nested": {"sweep": [SweepPoint(1.0, math.nan, 2.0, -math.inf, 0.0, np.True_)],
               "tuple": (1, (2.0, ("x",)))},
    # one class's rows at two indents, each with its own template
    "rows at two depths": {"rows": [POINT, POINT], "deeper": [[POINT], {"row": [POINT]}]},
    "rows of two classes": [POINT, Ball(np.array([0.5]), 2.0), POINT, Hidden(), POINT],
    "rows of special values": [
        SweepPoint(np.float64(0.1), math.nan, math.inf, -math.inf, -0.0, np.bool_(True)),
        SweepPoint(-0.0, np.float64(math.nan), np.float64(-math.inf), 5e-324, 1e308,
                   np.False_),
    ],
    "empty sweep": TransformSearchResult(2.0, True, None, CERTIFICATE, []),
    "sweep in a result": TransformSearchResult(2.0, True, 0.003, CERTIFICATE, [POINT] * 3),
    "repr=False fields": [DescentConfig(backtrack_factor=0.9), Hidden()],
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_values_are_spelled_as_json_dumps_spells_them(name):
    assert report.dumps(VALUES[name]) == reference_dumps(VALUES[name])


def test_a_descent_config_is_spelled_without_its_ladder():
    # steps is declared repr=False: 54 entries by default, 368 396 at backtrack_factor 0.9999
    for config in (DescentConfig(), DescentConfig(backtrack_factor=0.9999)):
        assert list(json.loads(report.dumps(config))) == [
            f.name for f in fields(DescentConfig) if f.init]
    assert len(json.loads(report.dumps(DescentConfig()))) == 7


@pytest.mark.parametrize("obj, error", [
    ({math.nan: 1}, ValueError), ({np.int64(1): 1}, TypeError), ({(1, 2): 1}, TypeError),
    (object(), TypeError), ({1, 2}, TypeError), (1j, TypeError),
])
def test_what_json_dumps_refuses_is_refused(obj, error):
    with pytest.raises(error):
        reference_dumps(obj)
    with pytest.raises(error):
        report.dumps(obj)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


TRACES = sorted(name for name, case in CASES.items() if case[2] == "trace")
SWEEPS = sorted(name for name, case in CASES.items() if case[2] == "sweep")
SPECIAL = [math.inf, -math.inf, math.nan, -0.0, np.float32(0.1), np.float64(0.1), np.int64(3)]


@pytest.mark.parametrize("name", TRACES)
def test_golden_traces_are_written_as_csv_writer_writes_them(name, tmp_path):
    rows = [(int(k), *map(float, rest)) for k, *rest in read_rows(GOLDEN / f"{name}.trace.csv")]
    report.write_trace_csv(tmp_path / "new.csv", rows)
    reference_csv(tmp_path / "old.csv", ("k", "phi", "grad_norm", "step"), rows)
    golden = (GOLDEN / f"{name}.trace.csv").read_bytes()
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes() == golden


@pytest.mark.parametrize("name", SWEEPS)
def test_golden_sweeps_are_written_as_csv_writer_writes_them(name, tmp_path):
    sweep = [SweepPoint(*map(float, cells[:5]), cells[5] == "true")
             for cells in read_rows(GOLDEN / f"{name}.sweep.csv")]
    columns = ("mu", "c", "lhs", "rhs", "slack", "passed")
    report.write_sweep_csv(tmp_path / "new.csv", sweep)
    reference_csv(tmp_path / "old.csv", columns,
                  [[getattr(point, column) for column in columns] for point in sweep])
    golden = (GOLDEN / f"{name}.sweep.csv").read_bytes()
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes() == golden


def test_special_values_are_written_as_csv_writer_writes_them(tmp_path):
    trace = [(k, v, w, 1.0) for k, (v, w) in enumerate(zip(SPECIAL, SPECIAL[::-1]))]
    trace.append((np.int64(7), *SPECIAL[:3]))
    report.write_trace_csv(tmp_path / "new.csv", trace)
    reference_csv(tmp_path / "old.csv", ("k", "phi", "grad_norm", "step"), trace)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    sweep = [SweepPoint(*SPECIAL[i:i + 5], passed)
             for i, passed in zip(range(3), (np.True_, False, np.False_))]
    columns = ("mu", "c", "lhs", "rhs", "slack", "passed")
    report.write_sweep_csv(tmp_path / "new.csv", sweep)
    reference_csv(tmp_path / "old.csv", columns,
                  [[getattr(point, column) for column in columns] for point in sweep])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert (tmp_path / "new.csv").read_bytes().split(b"\r\n")[1:] == [
        b"inf,-inf,nan,-0,0.10000000149011612,true",
        b"-inf,nan,-0,0.10000000149011612,0.10000000000000001,false",
        b"nan,-0,0.10000000149011612,0.10000000000000001,3,false",
        b"",
    ]


SHORT = {"status": "converged", "u": [1.0]}
LONG = {"status": "stalled", "u": np.linspace(0.0, 1.0, 40), "note": "x" * 300}


@pytest.mark.parametrize("old, new", [(LONG, SHORT), (SHORT, LONG)], ids=["shrink", "grow"])
def test_a_report_over_an_existing_one_is_its_own_bytes(old, new, tmp_path):
    # the writer opens without truncating and cuts the file at its end: a shorter
    # report leaves no tail of the longer one
    path = tmp_path / "report.json"
    report.write_json(path, old)
    report.write_json(path, new)
    assert path.read_bytes() == report.dumps(new).encode("utf-8")


def test_a_csv_over_a_longer_file_keeps_its_crlf(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_bytes(b"old\nbytes\n" * 100)
    report.write_trace_csv(path, [(0, 4.5, 3.0, 1.0), (1, 0.5, 1.0, 0.5)])
    assert path.read_bytes() == b"k,phi,grad_norm,step\r\n0,4.5,3,1\r\n1,0.5,1,0.5\r\n"


def test_a_new_file_gets_the_mode_write_text_gives(tmp_path):
    umask = os.umask(0o027)
    try:
        (tmp_path / "reference.json").write_text("{}\n", encoding="utf-8")
        report.write_json(tmp_path / "report.json", {})
        report.write_sweep_csv(tmp_path / "sweep.csv", ())
    finally:
        os.umask(umask)
    names = ("reference.json", "report.json", "sweep.csv")
    modes = [(tmp_path / name).stat().st_mode for name in names]
    assert modes == modes[:1] * 3


def test_a_symlinked_path_writes_through_to_its_target(tmp_path):
    target = tmp_path / "target.json"
    target.write_text("x" * 1000)
    (tmp_path / "link.json").symlink_to(target)
    report.write_json(tmp_path / "link.json", SHORT)
    assert (tmp_path / "link.json").is_symlink()
    assert target.read_bytes() == report.dumps(SHORT).encode("utf-8")


def test_the_null_device_takes_every_output():
    # /dev/null has no length to cut; truncating it would raise
    report.write_json(os.devnull, LONG)
    report.write_sweep_csv(os.devnull, [SweepPoint(1.0, 2.0, 3.0, 4.0, 1.0, True)])
    report.write_trace_csv(os.devnull, [(0, 1.0, 2.0, 1.0)])
