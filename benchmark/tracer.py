"""Span tracer for the traced benchmark run.

Every public function of the filterlab modules below is wrapped from the
benchmark's side; nothing in the package changes. filterlab imports
functions by name across modules (`from .rng import substream`), so a
wrapper replaces the function in every filterlab namespace and dict (such
as `cli.CHECKS` and `cli.COMMANDS`) that holds it. Spans are kept in memory
as flat arrays and reduced once the round ends: a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

LAYERS = ("rng", "simulate", "models", "filters", "girsanov", "verify", "parallel", "cli")

# the girsanov reductions that turn an ensemble into a verdict
GIRSANOV_CHECKS = ("martingale_mean_check", "zstar_bound_check", "energy_identity_check",
                   "independent_h_identity_check", "gronwall_bound_check")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.items: dict[str, int] = {}
        self.check_function: dict[str, str] = {}

    def _wrap(self, qualname: str, fn, count_items: bool):
        idx = len(self.names)
        self.names.append(qualname)
        names, parents, starts, ends, stack = (
            self.span_name, self.span_parent, self.span_start, self.span_end, self.stack)
        items = self.items
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(idx)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            if count_items:
                items[qualname] = items.get(qualname, 0) + len(args[1])
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1

        return traced

    def install(self) -> None:
        """Wrap every public function of each layer module of the imported
        filterlab package, wherever the package binds it."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "filterlab" or name.startswith("filterlab."))]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"filterlab.{layer}"]
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                qualname = f"{layer}.{name}"
                wrappers[id(obj)] = self._wrap(qualname, obj, count_items=qualname == "parallel.map_ordered")
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, name, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in wrappers:
                            obj[key] = wrappers[id(value)]
        cli = sys.modules["filterlab.cli"]
        self.check_function = {key: fn.__wrapped__.__name__ for key, fn in cli.CHECKS.items()}

    def summary(self) -> dict[str, dict[str, float]]:
        """Per function: calls, inclusive seconds and self seconds."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            rec = out[self.names[self.span_name[i]]]
            rec["calls"] += 1
            rec["total_s"] += dur[i]
            rec["self_s"] += dur[i] - child[i]
        return out


# Per-layer metrics the benchmark reports, as (metric, unit). `calls` and
# `self_s` read one function; the rest are sums or inclusive times.
def layer_metric_names(check_names) -> list[tuple[str, str]]:
    out = []

    def fn(qual, *kinds):
        for kind in kinds:
            out.append((f"{qual}.{kind}", "s" if kind == "self_s" else "count"))

    fn("rng.substream", "calls", "self_s")
    fn("simulate.propagate_under_reference", "calls", "self_s")
    fn("simulate.simulate_pair", "calls", "self_s")
    fn("simulate.batch_levy_increments", "self_s")
    fn("simulate.simulate_counterexample_paths", "self_s")
    fn("models.generator_apply", "calls", "self_s")
    fn("models.dphi_apply", "self_s")
    fn("models.correlation_apply", "self_s")
    fn("filters.step", "calls", "self_s")
    fn("filters.resample", "calls", "self_s")
    fn("filters.pi_estimate", "calls", "self_s")
    fn("filters.rho_estimate", "self_s")
    fn("filters.ess", "calls", "self_s")
    fn("filters.run_filter", "self_s")
    fn("filters.init_cloud", "self_s")
    fn("girsanov.ensemble_revuz_yor", "calls", "self_s")
    fn("girsanov.ensemble_from_model", "calls", "self_s")
    fn("girsanov.ensemble_independent_h", "self_s")
    fn("girsanov.revuz_yor_transformed_estimates", "calls", "self_s")
    out.append(("girsanov.checks.self_s", "s"))
    fn("verify.residual_run", "calls", "self_s")
    fn("verify.equation_residuals", "self_s")
    fn("verify.kalman_bucy_oracle", "self_s")
    fn("verify.change_detection_oracle", "self_s")
    fn("verify.dufresne_check", "self_s")
    fn("verify.kazamaki_gap_check", "self_s")
    fn("verify.local_boundedness_sweep", "self_s")
    fn("parallel.map_ordered", "calls", "items")
    out += [(f"cli.check.{name}.s", "s") for name in check_names]
    out += [("cli.cmd_simulate.s", "s"), ("cli.cmd_filter.s", "s"), ("cli.self_s", "s"), ("cli.output_bytes", "bytes")]
    out += [(f"{layer}.self_s", "s") for layer in LAYERS if layer != "cli"]
    return out


def layer_metrics(tracer: Tracer, check_names, output_bytes: int) -> dict[str, float]:
    summary = tracer.summary()

    def get(qual, kind):
        return summary.get(qual, {}).get(kind, 0)

    values = {}
    for metric, _unit in layer_metric_names(check_names):
        head, _, kind = metric.rpartition(".")
        if metric == "girsanov.checks.self_s":
            values[metric] = sum(get(f"girsanov.{name}", "self_s") for name in GIRSANOV_CHECKS)
        elif metric.startswith("cli.check."):
            values[metric] = get(f"cli.{tracer.check_function[metric.split('.')[2]]}", "total_s")
        elif metric in ("cli.cmd_simulate.s", "cli.cmd_filter.s"):
            values[metric] = get(head, "total_s")
        elif metric == "cli.output_bytes":
            values[metric] = output_bytes
        elif kind == "items":
            values[metric] = tracer.items.get(head, 0)
        elif head in LAYERS:
            values[metric] = sum(rec["self_s"] for qual, rec in summary.items() if qual.startswith(head + "."))
        else:
            values[metric] = get(head, kind)
    return values
