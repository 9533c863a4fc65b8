"""Machine-readable run reports: JSON and CSV.

The JSON report is spelled exactly as ``json.dumps(..., indent=2)`` would
spell it, by this module's own writer in one join: floats take Python's
shortest spelling that round-trips.  The CSVs (like stdout) print floats
with 17 significant digits, which round-trip too, one ``%`` format per row.
A result dataclass is written as the object of its fields in declaration
order, and a numpy array or scalar as its list or number.  A non-finite
value has one spelling everywhere, the one ``format(v, ".17g")`` gives:
``inf``, ``-inf`` or ``nan``, printed bare on stdout and in CSV cells and
written as a JSON string, so the report stays strict JSON.  Given a fixed
config (and seed) the emitted bytes are deterministic apart from the timing
fields.  An output is written over any existing file and then cut to its
length, not truncated to zero first, which on ext4 costs tens of microseconds
more.  Neither way is atomic: a crash mid-write can leave old and new bytes.
"""

from __future__ import annotations

import json
import math
import os
import stat
from dataclasses import fields, is_dataclass
from json.encoder import encode_basestring_ascii as _string
from pathlib import Path

import numpy as np


def format_float(v: float) -> str:
    return format(float(v), ".17g")


def _key(key) -> str:
    # a key that is not a str, coerced as json coerces it: an int, float, bool or None
    if key is None or isinstance(key, (int, float)):
        return _string(json.dumps(key, allow_nan=False))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _spell(obj, indent: str) -> str:
    """``obj`` as ``json.dumps(..., indent=2)`` spells it at ``indent``, with dataclasses as
    objects of their fields, numpy values as lists or numbers, and non-finite floats as
    their :func:`format_float` text."""
    if isinstance(obj, float):  # np.float64 too; float.__repr__ spells it as a float
        return float.__repr__(obj) if math.isfinite(obj) else _string(format_float(obj))
    if isinstance(obj, str):
        return _string(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, dict) or is_dataclass(obj):
        # shallow on purpose: dataclasses.asdict would deep-copy every array first
        items = obj.items() if isinstance(obj, dict) else [
            (f.name, getattr(obj, f.name)) for f in fields(obj)]
        parts = [f"{_string(k) if isinstance(k, str) else _key(k)}: {_spell(v, inner)}"
                 for k, v in items]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        parts = [_spell(v, inner) for v in obj]
        brackets = "[]"
    elif isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.ndim == 1 and \
            np.isfinite(obj).all():
        parts = list(map(float.__repr__, obj.tolist()))
        brackets = "[]"
    elif isinstance(obj, (np.ndarray, np.generic)):
        return _spell(obj.tolist(), indent)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    joined = f",\n{inner}".join(parts)
    return f"{brackets[0]}\n{inner}{joined}\n{indent}{brackets[1]}" if parts else brackets


def dumps(obj) -> str:
    return _spell(obj, "") + "\n"


def _write_over(path: str | Path, text: str, newline: str | None = None) -> None:
    """Write ``text`` as ``Path.write_text`` would, over the old bytes, then cut to length."""
    # no O_TRUNC; 0o666 is the mode open() itself passes, so a new file's mode is the same
    with open(path, "w", encoding="utf-8", newline=newline,
              opener=lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666)) as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):  # /dev/null, a FIFO or a tty has no length
            fh.truncate()


def write_json(path: str | Path, obj) -> None:
    _write_over(path, dumps(obj))


def _write_csv(path: str | Path, header, row_format: str, rows) -> None:
    # every cell is a number or true/false, so none needs csv's quoting
    text = "".join([",".join(header) + "\r\n", *(row_format % row for row in rows)])
    _write_over(path, text, newline="")


def write_sweep_csv(path: str | Path, sweep) -> None:
    """Transform sweep as fixed columns (mu, c, lhs, rhs, slack, passed)."""
    rows = ((p.mu, p.c, p.lhs, p.rhs, p.slack, str(p.passed).lower()) for p in sweep)
    _write_csv(path, ("mu", "c", "lhs", "rhs", "slack", "passed"),
               "%.17g,%.17g,%.17g,%.17g,%.17g,%s\r\n", rows)


def write_trace_csv(path: str | Path, trace) -> None:
    """Descent iteration log as columns (k, phi, grad_norm, step)."""
    _write_csv(path, ("k", "phi", "grad_norm", "step"), "%.17g,%.17g,%.17g,%.17g\r\n", trace)
