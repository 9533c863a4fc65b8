"""Machine-readable run reports: JSON and CSV.

The JSON report is written by ``json.dumps``, whose floats take Python's
shortest spelling that round-trips; the CSVs (like stdout) print floats with
17 significant digits, which round-trip too.  A result dataclass is written
as the object of its fields in declaration order, and a numpy array or
scalar as its list or number.  Given a fixed config (and seed)
the emitted bytes are deterministic apart from the timing fields, and a NaN
or infinite value is an error, never written.
"""

from __future__ import annotations

import csv
import json
from dataclasses import fields, is_dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np


def format_float(v: float) -> str:
    v = float(v)
    if not np.isfinite(v):
        raise ValueError(f"non-finite value {v!r} in report")
    return format(v, ".17g")


def _plain(obj):
    # shallow on purpose: dataclasses.asdict would deep-copy every array first
    if is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False, default=_plain) + "\n"


def write_json(path: str | Path, obj) -> None:
    Path(path).write_text(dumps(obj), encoding="utf-8")


def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format_float(v)
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
