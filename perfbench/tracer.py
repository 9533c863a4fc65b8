"""Per-layer tracing of zerocert from outside the package.

The tracer wraps public functions of each zerocert module in place,
including every other module's binding of the same function object (so
``zerocert.functional.grad_phi`` and ``zerocert.certificate.grad_phi`` are
both wrapped).  Coarse calls get one span each: name, start, end, parent
span and command id.  Functions called per sample point or per line-search
trial are aggregated into their innermost span as call counts and times,
not recorded one span per call.  A span's self time is its duration minus
its child spans and its outermost aggregated calls.

A function the package no longer has is left out (its metrics read 0), so a
refactor of zerocert does not break the traced run.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import time
from dataclasses import dataclass, field

SPANNED = (
    "cli.main",
    "cli.build_problem",
    "cli.build_ball",
    "cli.build_certificate_settings",
    "cli.build_transform_settings",
    "cli.build_descent_config",
    "certificate.certify",
    "certificate.domination_constant_sampled",
    "certificate.sample_ball",
    "functional.check_gradient",
    "transforms.search_mu",
    "descent.solve",
    "descent.verify_solution",
    "report.write_json",
    "report.write_sweep_csv",
    "report.write_trace_csv",
)

AGGREGATED = (
    "problems.eval_residual",
    "problems.eval_jacobian",
    "functional.grad_phi",
    "functional.phi",
    "functional.residual_norm",
)

# name, unit, better; the metrics a traced pass reports, in output order
PER_LAYER = (
    ("certificate.sample_ball.s", "s", "lower"),
    ("certificate.sample_ball.points", "count", "lower"),
    ("certificate.sample_ball.us_per_point", "us", "lower"),
    ("certificate.domination.s", "s", "lower"),
    ("certificate.domination.us_per_point", "us", "lower"),
    ("certificate.certify.calls", "count", "lower"),
    ("problems.eval_residual.calls", "count", "lower"),
    ("problems.eval_residual.us", "us", "lower"),
    ("problems.eval_jacobian.calls", "count", "lower"),
    ("problems.eval_jacobian.us", "us", "lower"),
    ("problems.jacobian_bytes", "B_computed", "lower"),
    ("functional.grad_phi.calls", "count", "lower"),
    ("functional.grad_phi.us", "us", "lower"),
    ("functional.phi.calls", "count", "lower"),
    ("functional.residual_norm.calls", "count", "lower"),
    ("functional.residual_norm.us", "us", "lower"),
    ("functional.check_gradient.s", "s", "lower"),
    ("transforms.search_mu.s", "s", "lower"),
    ("transforms.mu_evaluated", "count", "lower"),
    ("transforms.s_per_mu", "s", "lower"),
    ("transforms.sample_repeat_share", "share", "lower"),
    ("descent.solve.s", "s", "lower"),
    ("descent.iterations", "count", "lower"),
    ("descent.ms_per_iteration", "ms", "lower"),
    ("descent.trials_per_iteration", "count", "lower"),
    ("descent.accept_ratio", "share", "higher"),
    ("descent.flat_steps", "count", "lower"),
    ("descent.self_s", "s", "lower"),
    ("report.write_json.s", "s", "lower"),
    ("report.json_bytes", "B", "lower"),
    ("report.write_csv.s", "s", "lower"),
    ("report.csv_rows", "count", "lower"),
    ("cli.build.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    command: int
    end: float = 0.0
    child_s: float = 0.0
    agg: dict = field(default_factory=dict)  # name -> [calls, inclusive seconds]
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "command": self.command,
                "self_s": self.seconds - self.child_s, "agg": self.agg, "info": self.info}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Wraps zerocert's functions while installed and records spans in memory."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self.command = -1
        self._stack: list[int] = []
        self._agg_depth = 0
        self._patches: list[tuple] = []
        self._sample_keys: dict[int, set] = {}
        self._sample_cap = getattr(package.certificate, "SAMPLE_CAP", 10**6)
        self.missing: list[str] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        prefix = self.package.__name__
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == prefix or name.startswith(prefix + ".")]
        for qualified in SPANNED + AGGREGATED:
            mod_name, fn_name = qualified.split(".")
            original = getattr(getattr(self.package, mod_name, None), fn_name, None)
            if original is None:
                self.missing.append(qualified)
                continue
            if qualified in AGGREGATED:
                wrapper = self._aggregate(qualified, original)
            else:
                wrapper = self._span(qualified, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- wrappers -----------------------------------------------------------

    def _aggregate(self, name, fn):
        perf = time.perf_counter
        jacobian = name == "problems.eval_jacobian"

        def wrapper(*args, **kwargs):
            outermost = self._agg_depth == 0
            self._agg_depth += 1
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                self._agg_depth -= 1
                span = self.spans[self._stack[-1]]
                entry = span.agg.get(name)
                if entry is None:
                    entry = span.agg[name] = [0, 0.0]
                entry[0] += 1
                entry[1] += dt
                if outermost:
                    span.child_s += dt
                if jacobian:
                    problem = args[0] if args else kwargs["problem"]
                    span.info["jacobian_bytes"] = (
                        span.info.get("jacobian_bytes", 0) + problem.m * problem.n * 8)

        return wrapper

    def _span(self, name, fn):
        perf = time.perf_counter
        post = getattr(self, "_post_" + name.split(".")[1], None)
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, 0.0, parent, self.command)
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            span.start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].child_s += span.seconds
            if post is not None:
                post(index, signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    # -- per-call details, taken after the span has ended ---------------------

    def _enclosing(self, index: int, name: str) -> int | None:
        parent = self.spans[index].parent
        while parent is not None and self.spans[parent].name != name:
            parent = self.spans[parent].parent
        return parent

    def _post_sample_ball(self, index, args, result):
        info = self.spans[index].info
        info["points"] = len(result)
        search = self._enclosing(index, "transforms.search_mu")
        if search is not None:
            keys = self._sample_keys.setdefault(search, set())
            key = repr(sorted((k, v.tobytes() if hasattr(v, "tobytes") else v)
                              for k, v in args.items()))
            info["repeat"] = key in keys
            keys.add(key)

    def _post_domination_constant_sampled(self, index, args, result):
        n = args["problem"].n
        spa = args.get("samples_per_axis", 1001)
        self.spans[index].info["points"] = spa if n == 1 else min(spa**n, self._sample_cap)

    def _post_search_mu(self, index, args, result):
        self.spans[index].info["mu"] = len(result.sweep)

    def _post_solve(self, index, args, result):
        trace = result.trace or ()
        flat = sum(1 for a, b in zip(trace, trace[1:]) if a[1] == b[1])
        self.spans[index].info.update(iterations=result.iterations, flat_steps=flat)

    def _post_write_json(self, index, args, result):
        with open(args["path"], "rb") as fh:
            self.spans[index].info["bytes"] = len(fh.read())

    def _post_write_sweep_csv(self, index, args, result):
        rows = args.get("sweep", args.get("trace")) or ()
        self.spans[index].info["rows"] = len(rows)

    _post_write_trace_csv = _post_write_sweep_csv

    # -- results ------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s.to_dict() for s in self.spans], fh)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (every name in PER_LAYER but the overhead)."""

    def named(name):
        return [s for s in spans if s.name == name]

    def secs(name):
        return sum(s.seconds for s in named(name))

    def info(name, key):
        return sum(s.info.get(key, 0) for s in named(name))

    def agg(fn, within=None):
        calls, total = 0, 0.0
        for s in spans if within is None else named(within):
            c, t = s.agg.get(fn, (0, 0.0))
            calls += c
            total += t
        return calls, total

    m: dict[str, float] = {}
    sb_s, sb_pts = secs("certificate.sample_ball"), info("certificate.sample_ball", "points")
    m["certificate.sample_ball.s"] = sb_s
    m["certificate.sample_ball.points"] = sb_pts
    m["certificate.sample_ball.us_per_point"] = 1e6 * _ratio(sb_s, sb_pts)
    dom = "certificate.domination_constant_sampled"
    m["certificate.domination.s"] = secs(dom)
    m["certificate.domination.us_per_point"] = 1e6 * _ratio(secs(dom), info(dom, "points"))
    m["certificate.certify.calls"] = len(named("certificate.certify"))
    for fn in ("problems.eval_residual", "problems.eval_jacobian",
               "functional.grad_phi", "functional.residual_norm"):
        calls, total = agg(fn)
        m[fn + ".calls"] = calls
        m[fn + ".us"] = 1e6 * _ratio(total, calls)
    m["problems.jacobian_bytes"] = sum(s.info.get("jacobian_bytes", 0) for s in spans)
    m["functional.phi.calls"] = agg("functional.phi")[0]
    m["functional.check_gradient.s"] = secs("functional.check_gradient")

    search_s, mus = secs("transforms.search_mu"), info("transforms.search_mu", "mu")
    m["transforms.search_mu.s"] = search_s
    m["transforms.mu_evaluated"] = mus
    m["transforms.s_per_mu"] = _ratio(search_s, mus)
    in_search = [s for s in named("certificate.sample_ball") if "repeat" in s.info]
    m["transforms.sample_repeat_share"] = _ratio(
        sum(s.info["repeat"] for s in in_search), len(in_search))

    solve_s, its = secs("descent.solve"), info("descent.solve", "iterations")
    phi_calls = agg("functional.phi", within="descent.solve")[0]
    # each line search first evaluates phi(v) after grad phi(v); the rest are trials
    trials = phi_calls - agg("functional.grad_phi", within="descent.solve")[0]
    m["descent.solve.s"] = solve_s
    m["descent.iterations"] = its
    m["descent.ms_per_iteration"] = 1e3 * _ratio(solve_s, its)
    m["descent.trials_per_iteration"] = _ratio(phi_calls, its)
    m["descent.accept_ratio"] = _ratio(its, trials)
    m["descent.flat_steps"] = info("descent.solve", "flat_steps")
    m["descent.self_s"] = sum(s.seconds - s.child_s for s in named("descent.solve"))

    m["report.write_json.s"] = secs("report.write_json")
    m["report.json_bytes"] = info("report.write_json", "bytes")
    m["report.write_csv.s"] = secs("report.write_sweep_csv") + secs("report.write_trace_csv")
    m["report.csv_rows"] = (info("report.write_sweep_csv", "rows")
                            + info("report.write_trace_csv", "rows"))
    m["cli.build.s"] = sum(s.seconds for s in spans if s.name.startswith("cli.build_"))
    m["cli.self_s"] = sum(s.seconds - s.child_s for s in named("cli.main"))
    return m


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
