"""Per-layer tracing from outside the program, for the traced run only.

Wrappers replace the attribute that each caller looks up (``engine.contract``
as ``api`` calls it, ``cli.densify`` as ``cli`` calls it, ``tapp.tapp_*`` as
the benchmark calls it), so nothing inside tapp changes.  Each wrapper
records its call count and self time: its duration minus the time spent in
wrapped calls nested inside it.  A target that no longer exists is listed
as missing and skipped.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from time import perf_counter

from workloads import work_of

API_CALLS = (
    "tapp_create_handle",
    "tapp_destroy_handle",
    "tapp_get_default_executor",
    "tapp_create_tensor_info",
    "tapp_create_contraction",
    "tapp_create_binary_op",
    "tapp_create_unary_op",
    "tapp_execute_product",
    "tapp_execute_binary",
    "tapp_execute_unary",
)
CLI_API_CALLS = (
    "tapp_create_handle",
    "tapp_destroy_handle",
    "tapp_get_default_executor",
    "tapp_create_tensor_info",
    "tapp_create_contraction",
    "tapp_execute_product",
)

# (layer, calling module, attributes that module looks up)
TARGETS = (
    ("api", "tapp", API_CALLS),
    ("api", "tapp.cli", CLI_API_CALLS),
    ("engine.execute", "tapp.engine", ("contract", "run_binary", "run_unary")),
    ("engine.plan", "tapp.engine", ("make_plan", "make_binary_plan", "make_unary_plan")),
    ("labels", "tapp.engine", ("merge_repeats", "classify")),
    ("labels", "tapp.cli", ("parse_einsum",)),
    ("core.validate_view", "tapp.engine", ("validate_view",)),
    ("core.validate_view", "tapp.oracle", ("validate_view",)),
    ("oracle", "tapp.cli", ("densify", "oracle_contract")),
    ("cli.generate", "tapp.cli", ("generate_case",)),
    ("cli.parse", "tapp.cli", ("parse_case",)),
    ("cli", "tapp.cli", ("run_suite",)),
)

# per-layer metric -> (layer, statistic); units are in BENCHMARK.json
LAYER_METRICS = {
    "engine.execute.calls": ("engine.execute", "calls"),
    "engine.execute.self_ms": ("engine.execute", "self_ms"),
    "engine.execute.madds": ("engine.execute", "madds"),
    "engine.execute.window_ratio": ("engine.execute", "window_ratio"),
    "engine.plan.calls": ("engine.plan", "calls"),
    "engine.plan.self_ms": ("engine.plan", "self_ms"),
    "engine.plan.output_elems": ("engine.plan", "output_elems"),
    "labels.calls": ("labels", "calls"),
    "labels.ms": ("labels", "self_ms"),
    "api.calls": ("api", "calls"),
    "api.self_ms": ("api", "self_ms"),
    "core.validate_view.calls": ("core.validate_view", "calls"),
    "core.validate_view.ms": ("core.validate_view", "self_ms"),
    "oracle.calls": ("oracle", "calls"),
    "oracle.ms": ("oracle", "self_ms"),
    "cli.generate.ms": ("cli.generate", "self_ms"),
    "cli.parse.ms": ("cli.parse", "self_ms"),
    "cli.self_ms": ("cli", "self_ms"),
    "errors.returned": ("api", "errors"),
}


def _views(args):
    return [a for a in args if hasattr(a, "buffer") and hasattr(a, "desc")]


def _plan_work(plan, alpha) -> int:
    """Multiply-adds of an execute call, by ``workloads.work_of``."""
    alpha = getattr(alpha, "value", alpha)
    spec = getattr(plan, "spec", None)
    if spec is not None:
        pairs = [(spec.labels_a, plan.desc_a), (spec.labels_b, plan.desc_b)]
    elif hasattr(plan, "labels_b"):
        pairs = [(plan.labels_a, plan.desc_a), (plan.labels_b, plan.desc_b)]
    else:
        pairs = [(plan.labels_a, plan.desc_a)]
    return work_of([(l, d.extents) for l, d in pairs], alpha)


class Tracer:
    """Installs the wrappers, aggregates per-layer statistics, removes them."""

    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self.missing: set[str] = set()
        self._stack: list[float] = []  # child time of each open wrapped call
        self._saved = []

    def install(self):
        for layer, module_name, names in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:  # the workload never imports this caller
                continue
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    self.missing.add(f"{module_name}.{name}")
                    continue
                self._saved.append((module, name, original))
                setattr(module, name, self._wrap(layer, original))

    def remove(self):
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _wrap(self, layer, fn):
        stack, stat = self._stack, self.stats[layer]
        count = {
            "api": self._count_api,
            "engine.execute": self._count_execute,
            "engine.plan": self._count_plan,
        }.get(layer)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                child = stack.pop()
                stat["calls"] += 1
                stat["self_ms"] += (t1 - t0 - child) * 1e3
                if count is not None:
                    count(stat, args, result)
                if stack:  # the parent excludes this call and its bookkeeping
                    stack[-1] += perf_counter() - t0

        return wrapper

    def _count_api(self, stat, _args, result):
        if isinstance(result, int) and result != 0:
            stat["errors"] += 1

    def _count_execute(self, stat, args, _result):
        try:
            stat["madds"] += _plan_work(args[0], args[1])
        except AttributeError:
            self.missing.add("engine.execute.madds")
        for view in _views(args):
            desc = view.desc
            spans = [s * (e - 1) for e, s in zip(desc.extents, desc.strides)]
            stat["reachable"] += sum(abs(s) for s in spans) + 1
            stat["buffer"] += view.buffer.shape[0]

    def _count_plan(self, stat, args, _result):
        descs = [a for a in args if hasattr(a, "extents") and hasattr(a, "strides")]
        if descs:
            stat["output_elems"] += math.prod(descs[-1].extents)

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer values per traced pass; the window ratio over all."""
        out = {
            name: self.stats[layer][key] / passes
            for name, (layer, key) in LAYER_METRICS.items()
        }
        execute = self.stats["engine.execute"]
        if execute["buffer"]:
            out["engine.execute.window_ratio"] = execute["reachable"] / execute["buffer"]
        return out
