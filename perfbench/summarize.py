#!/usr/bin/env python3
"""Summarize benchmark run records into one baseline document.

    python3 perfbench/summarize.py perfbench/out/run-*-seed*-trace*.json > perfbench/baseline.json

For every workload and end-to-end metric it gives the median, the quartiles
and the spread (quartile distance over median) across the untraced runs;
for every per-layer metric the median across the traced runs; and the
verdict counts and per-command outcomes of the first untraced run.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def _summary(values: list[float]) -> dict:
    values = sorted(values)
    med = statistics.median(values)
    row = {"median": med, "runs": len(values), "min": values[0], "max": values[-1]}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        row.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
    return row


def main(paths: list[str]) -> int:
    records = defaultdict(lambda: {"untraced": [], "traced": []})
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        records[rec["workload"]]["traced" if rec["trace"] else "untraced"].append(rec)
    out = {}
    for workload, runs in records.items():
        untraced, traced = runs["untraced"], runs["traced"]
        entry: dict = {}
        if untraced:
            first = untraced[0]
            entry["seeds"] = [r["environment"]["seed"] for r in untraced]
            entry["end_to_end"] = {
                name: _summary([r["metrics"][name] for r in untraced])
                for name in first["metrics"]}
            entry["verdict_counts"] = first["verdict_counts"]
            entry["points_per_s"] = _summary(
                [r["points_per_s"] for r in untraced if r["points_per_s"]] or [0.0])
            entry["commands"] = [
                {k: v for k, v in row.items() if not k.endswith("times_s")}
                for row in first["commands"]]
            entry["environment"] = first["environment"]
        if traced:
            entry["trace_seeds"] = [r["environment"]["seed"] for r in traced]
            entry["per_layer"] = {
                name: statistics.median(r["metrics"][name] for r in traced)
                for name in traced[0]["metrics"]}
        out[workload] = entry
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
