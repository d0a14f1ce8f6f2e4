"""Spans around ramdea's public layer functions, and the metrics they give.

``Tracer.install`` swaps each traced function for a wrapper, in the
namespace it is called through, and ``restore`` puts the originals back.
A wrapper passes arguments and results through untouched and records
one span: name, calling stage, start, end, parent span, the dataset it
belongs to, the exception class if one escaped, and a few counts read
from the arguments and result.  Spans stay in memory until written.

``layer_metrics`` turns a list of spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import time

STAGES = ("dea", "grs", "rts")

# (module, attribute, span name, stage).  The LP kernel is traced through
# the ``solve`` binding of each calling module, which tells the stages
# apart; the reporting functions through the CLI's bindings.
TARGETS = (
    ("dea", "solve", "lp.solve", "dea"),
    ("grs", "solve", "lp.solve", "grs"),
    ("rts", "solve", "lp.solve", "rts"),
    ("dea", "evaluate", "dea.evaluate", "dea"),
    ("grs", "identify_grs", "grs.identify_grs", "grs"),
    ("grs", "minimum_face", "grs.minimum_face", "grs"),
    ("rts", "intercept_bounds", "rts.intercept_bounds", "rts"),
    ("cli", "parse_dataset", "reporting.parse_dataset", "reporting"),
    ("cli", "run_analysis", "reporting.run_analysis", "reporting"),
    ("cli", "render_report", "reporting.render_report", "reporting"),
    ("cli", "main", "cli.main", "cli"),
)

# how to read the evaluated unit's index off a stage function's arguments
UNIT_OF = {
    "dea.evaluate": lambda args: args[1],
    "grs.identify_grs": lambda args: args[1],
    "grs.minimum_face": lambda args: args[1].o,
}


def _annotate(span, args, result):
    name = span["name"]
    if name == "lp.solve":
        span["rows"] = int(args[0].rows)
        span["cols"] = int(args[0].cols)
        span["pivots"] = int(result.iterations)
        span["status"] = result.status
    elif name == "dea.evaluate":
        span["efficient"] = bool(result.efficient)
    elif name == "grs.identify_grs":
        span["members"] = len(result.members)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.dataset = None  # stamped on every span as its trace id
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        import ramdea.cli
        import ramdea.dea
        import ramdea.grs
        import ramdea.rts
        modules = {"cli": ramdea.cli, "dea": ramdea.dea,
                   "grs": ramdea.grs, "rts": ramdea.rts}
        for module_name, attribute, name, stage in TARGETS:
            module = modules[module_name]
            original = getattr(module, attribute)
            self._saved.append((module, attribute, original))
            setattr(module, attribute, self._wrap(original, name, stage))

    def restore(self) -> None:
        while self._saved:
            module, attribute, original = self._saved.pop()
            setattr(module, attribute, original)

    def _wrap(self, function, name, stage):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "parent": self._open[-1] if self._open else None,
                    "trace": self.dataset, "name": name, "stage": stage}
            if name in UNIT_OF:
                span["unit"] = int(UNIT_OF[name](args))
            self.spans.append(span)
            self._open.append(span["id"])
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                span["start"] = start
                self._open.pop()
            _annotate(span, args, result)
            return result
        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def read_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as source:
        return [json.loads(line) for line in source]


def innermost_error(spans: list[dict], trace) -> dict | None:
    """Where an exception first escaped in one trace: the deepest span it
    left, with ``unit`` filled in from the nearest enclosing stage span."""
    failed = [span for span in spans if span["trace"] == trace and "error" in span]
    if not failed:
        return None
    where = dict(max(failed, key=lambda span: span["id"]))
    ancestor = where
    while "unit" not in ancestor and ancestor["parent"] is not None:
        ancestor = spans[ancestor["parent"]]
    where["unit"] = ancestor.get("unit")
    return where


def _quantile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass; 0 for a layer never called."""
    child_time = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + \
                span["end"] - span["start"]

    def named(name, stage=None):
        return [span for span in spans
                if span["name"] == name and (stage is None or span["stage"] == stage)]

    def busy(group):
        return sum(span["end"] - span["start"] for span in group)

    def self_time(group):
        return busy(group) - sum(child_time.get(span["id"], 0.0) for span in group)

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    metrics = {}
    for stage in STAGES:
        solves = named("lp.solve", stage)
        done = [span for span in solves if "pivots" in span]
        pivots = sum(span["pivots"] for span in done)
        # one LU of the p x p basis, pricing over p + q columns and two
        # triangular solves per pivot: computed, not measured
        flops = sum(span["pivots"] * (2 * span["rows"] ** 3
                                      + 6 * span["rows"] * (span["rows"] + span["cols"])
                                      + 12 * span["rows"] ** 2)
                    for span in done) / 3
        key = f"lp.{stage}"
        metrics[f"{key}.solves"] = len(solves)
        metrics[f"{key}.pivots"] = pivots
        metrics[f"{key}.pivots_per_solve"] = pivots / len(done) if done else 0.0
        metrics[f"{key}.busy_s"] = busy(solves)
        metrics[f"{key}.us_per_pivot"] = 1e6 * busy(done) / pivots if pivots else 0.0
        metrics[f"{key}.rows_mean"] = mean([span["rows"] for span in done])
        metrics[f"{key}.cols_mean"] = mean([span["cols"] for span in done])
        metrics[f"{key}.errors"] = len(solves) - len(done)
        metrics[f"{key}.flops_est"] = flops

    evaluate = named("dea.evaluate")
    metrics["dea.evaluate.calls"] = len(evaluate)
    metrics["dea.evaluate.busy_s"] = busy(evaluate)
    metrics["dea.evaluate.self_s"] = self_time(evaluate)
    metrics["dea.efficient_frac"] = mean([float(span["efficient"])
                                          for span in evaluate if "efficient" in span])

    identify = named("grs.identify_grs")
    metrics["grs.identify_grs.calls"] = len(identify)
    metrics["grs.identify_grs.busy_s"] = busy(identify)
    metrics["grs.identify_grs.self_s"] = self_time(identify)
    metrics["grs.members_mean"] = mean([span["members"]
                                        for span in identify if "members" in span])
    metrics["grs.minimum_face.busy_s"] = busy(named("grs.minimum_face"))
    metrics["grs.errors"] = sum("error" in span for span in identify)

    bounds = named("rts.intercept_bounds")
    call_ms = [1e3 * (span["end"] - span["start"]) for span in bounds]
    metrics["rts.intercept_bounds.calls"] = len(bounds)
    metrics["rts.intercept_bounds.busy_s"] = busy(bounds)
    metrics["rts.intercept_bounds.self_s"] = self_time(bounds)
    metrics["rts.intercept_bounds.ms_p50"] = _quantile(call_ms, 0.5)
    metrics["rts.intercept_bounds.ms_p90"] = _quantile(call_ms, 0.9)
    metrics["rts.unbounded_endpoints"] = sum(span.get("status") == "unbounded"
                                             for span in named("lp.solve", "rts"))

    metrics["reporting.parse_dataset.busy_s"] = busy(named("reporting.parse_dataset"))
    metrics["reporting.run_analysis.self_s"] = self_time(named("reporting.run_analysis"))
    metrics["reporting.render_report.busy_s"] = busy(named("reporting.render_report"))
    metrics["cli.main.self_s"] = self_time(named("cli.main"))
    return metrics
