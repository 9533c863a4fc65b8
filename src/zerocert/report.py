"""Machine-readable run reports: JSON and CSV.

The JSON report is written by ``json.dumps``, whose floats take Python's
shortest spelling that round-trips; the CSVs (like stdout) print floats with
17 significant digits, which round-trip too.  A result dataclass is written
as the object of its fields in declaration order, and a numpy array or
scalar as its list or number.  A non-finite value has one spelling
everywhere, the one ``format(v, ".17g")`` gives: ``inf``, ``-inf`` or
``nan``, printed bare on stdout and in CSV cells and written as a JSON
string, so the report stays strict JSON.  Given a fixed config (and seed)
the emitted bytes are deterministic apart from the timing fields.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import fields, is_dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np


def format_float(v: float) -> str:
    return format(float(v), ".17g")


def _plain(obj):
    """``obj`` with dataclasses as dicts of their fields, numpy values as lists
    or numbers, and non-finite floats as their :func:`format_float` text."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else format_float(obj)
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    # shallow on purpose: dataclasses.asdict would deep-copy every array first
    if is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, (np.ndarray, np.generic)):
        return _plain(obj.tolist())
    return obj


def dumps(obj) -> str:
    return json.dumps(_plain(obj), indent=2, allow_nan=False) + "\n"


def write_json(path: str | Path, obj) -> None:
    Path(path).write_text(dumps(obj), encoding="utf-8")


def _cell(v) -> str:
    if isinstance(v, (float, np.floating)):  # the common cell first: no bool is a float
        return format_float(v)
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _write_csv(path: str | Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def write_sweep_csv(path: str | Path, sweep) -> None:
    """Transform sweep as fixed columns (mu, c, lhs, rhs, slack, passed)."""
    columns = ("mu", "c", "lhs", "rhs", "slack", "passed")
    _write_csv(path, columns, map(attrgetter(*columns), sweep))


def write_trace_csv(path: str | Path, trace) -> None:
    """Descent iteration log as columns (k, phi, grad_norm, step)."""
    _write_csv(path, ("k", "phi", "grad_norm", "step"), trace)
