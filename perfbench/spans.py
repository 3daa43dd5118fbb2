"""Span tracing of wreathlab's modules, used only by the traced benchmark run.

``Tracer.install`` replaces every public function of each layer module with
a wrapper, in every module namespace that binds it (so ``cli``'s
``construct_named`` and ``search``'s are the same wrapper), and wraps a fixed
list of methods that are layer boundaries.  Nested calls become child spans.
A span records its pass, operation, parent span, name, start, end, whether it
raised and whether it is the outermost active span of its name.  Spans stay in
memory and are written once, at exit.  The wrappers only observe: arguments,
results and exceptions pass through unchanged.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import tracemalloc
import types
from collections import Counter

LAYERS = ("groups", "actions", "wreath", "embeddings", "search", "fields", "sizes", "suites", "cli")

# Methods that are layer boundaries, beside the modules' public functions.
METHODS = {
    "groups": {"FiniteGroup": ["__init__", "element_orders"],
               "GroupHom": ["__init__", "find_hom_counterexample"]},
    "actions": {"FiniteGSet": ["__init__"]},
    "wreath": {"WreathProduct": ["__init__"], "_Codec": ["dense_table"]},
    "embeddings": {"ShortExactSequence": ["__init__"]},
    "fields": {"MultiQuadElement": ["__mul__", "inverse"],
               "MultiQuadField": ["__init__", "sqrt_of_rational"],
               "QuadraticTower": ["__init__"]},
}

# Per-element codec methods run hundreds of thousands of times per pass; a
# span each would triple the traced run's time, so they are only counted.
COUNTED = {"wreath": {"_Codec": ["encode", "decode", "mul", "inv"]}}

# per-layer metric -> span name whose outermost spans it sums (inclusive time)
INCLUSIVE = {
    "groups.construct_s": "groups.construct_named",
    "groups.init_s": "groups.FiniteGroup.__init__",
    "groups.json_load_s": "groups.group_from_json",
    "groups.hom_check_s": "groups.GroupHom.find_hom_counterexample",
    "groups.quotient_s": "groups.quotient",
    "groups.normal_core_s": "groups.normal_core",
    "actions.coset_action_s": "actions.coset_action",
    "actions.gset_init_s": "actions.FiniteGSet.__init__",
    "wreath.build_s": "wreath.WreathProduct.__init__",
    "embeddings.verify_s": "embeddings.verify_embedding",
    "embeddings.kk_s": "embeddings.kk_embedding",
    "embeddings.omega_s": "embeddings.omega_embedding",
    "embeddings.transport_s": "embeddings.transport_iso",
    "search.embeds_into_s": "search.embeds_into",
    "search.identify_s": "search.identify_small",
    "fields.inverse_s": "fields.MultiQuadElement.inverse",
    "fields.mul_s": "fields.MultiQuadElement.__mul__",
    "fields.chi_s": "fields.chi",
    "fields.cocycle_s": "fields.verify_cocycle",
    "fields.sqrt_s": "fields.MultiQuadField.sqrt_of_rational",
}

# per-layer metric -> span names whose spans it counts, nested ones included
CALLS = {
    "fields.inverse_calls": ["fields.MultiQuadElement.inverse"],
    "fields.mul_calls": ["fields.MultiQuadElement.__mul__"],
    "fields.chi_calls": ["fields.chi"],
    "search.attempts": ["search.embeds_into"],
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list = []
        self.stack: list[int] = []
        self.active: Counter = Counter()
        self.pass_index = 0
        self.op = -1
        self.counts: Counter = Counter()
        self.chi_keys: set = set()
        self.measure_alloc = True
        self._wrappers: dict[int, object] = {}

    # -- recording ---------------------------------------------------------------

    def wrap(self, func, name: str, hook=None):
        """A wrapper recording one span per call; ``hook(args, result)`` runs
        after a call that returned, outside the span."""
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack, active, clock = self.spans, self.stack, self.active, time.perf_counter_ns

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            active[nid] += 1
            outer = active[nid] == 1
            failed = True
            start = clock()
            try:
                result = func(*args, **kwargs)
                failed = False
            finally:
                end = clock()
                active[nid] -= 1
                stack.pop()
                spans[idx] = (self.pass_index, self.op, parent, nid, start, end, failed, outer)
            if hook is not None:
                hook(args, result)
            return result
        return wrapper

    def count(self, func, metric: str):
        """A wrapper that only adds one to ``metric`` per call."""
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self.counts[metric] += 1
            return func(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"wreathlab.{layer}") for layer in LAYERS}
        package = importlib.import_module("wreathlab")
        hooks = {
            "groups.FiniteGroup.__init__": self._on_group,
            "groups.GroupHom.find_hom_counterexample": self._on_hom_check,
            "wreath.WreathProduct.__init__": self._on_wreath,
            "search.embeds_into": self._on_search,
            "fields.chi": self._on_chi,
        }
        layer_of = {f"wreathlab.{layer}": layer for layer in LAYERS}
        for namespace in [package, *modules.values()]:
            for attr, obj in list(vars(namespace).items()):
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ in layer_of):
                    name = f"{layer_of[obj.__module__]}.{obj.__name__}"
                    setattr(namespace, attr, self._wrapper_for(obj, name, hooks.get(name)))
        for layer, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[layer], cls_name)
                for method in methods:
                    name = f"{layer}.{cls_name}.{method}"
                    func = cls.__dict__[method]
                    if name == "wreath.WreathProduct.__init__":
                        func = self._with_alloc_peak(func)
                    setattr(cls, method, self._wrapper_for(func, name, hooks.get(name)))
        for layer, classes in COUNTED.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[layer], cls_name)
                for method in methods:
                    setattr(cls, method, self.count(cls.__dict__[method], "wreath.codec_calls"))

    def _wrapper_for(self, func, name, hook):
        if id(func) not in self._wrappers:
            self._wrappers[id(func)] = (func, self.wrap(func, name, hook))
        return self._wrappers[id(func)][1]

    def _with_alloc_peak(self, func):
        """Track the tracemalloc peak of each build while ``measure_alloc`` is set.

        tracemalloc slows a build up to 5x, so the worker sets it for its
        first traced pass only and takes per-layer times from the others.
        """
        @functools.wraps(func)
        def build(*args, **kwargs):
            if not self.measure_alloc:
                return func(*args, **kwargs)
            tracemalloc.start()
            try:
                return func(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.counts["wreath.peak_alloc_bytes"] = max(
                    self.counts["wreath.peak_alloc_bytes"], peak)
        return build

    # -- exact counts taken at the boundaries --------------------------------------

    def _on_group(self, args, result):
        self.counts["groups.table_bytes"] += args[0].table.nbytes

    def _on_hom_check(self, args, result):
        hom = args[0]
        n = hom.domain.order
        if result is None or hasattr(hom.codomain, "table"):
            pairs = n * n   # the table path compares every pair at once
        else:
            pairs = result[0] * n + result[1] + 1  # the loop path stops at the first failure
        self.counts["groups.hom_pairs_checked"] += pairs

    def _on_wreath(self, args, result):
        dense = hasattr(args[0].product, "table")
        self.counts["wreath.dense_builds" if dense else "wreath.structural_builds"] += 1

    def _on_search(self, args, result):
        self.counts["search.found"] += result is not None

    def _on_chi(self, args, result):
        t, rho, tau = args[:3]
        self.chi_keys.add((t.L.generators, t.K_generators, t.alpha, rho.signs, tau.signs))

    # -- per-pass summary ------------------------------------------------------

    def begin_pass(self, index: int) -> int:
        self.pass_index = index
        self.measure_alloc = index == 0
        self.counts = Counter()
        self.chi_keys = set()
        return len(self.spans)

    def alloc_peak_mb(self) -> float:
        return self.counts["wreath.peak_alloc_bytes"] / 2**20

    def summary(self, first: int) -> tuple[dict, dict]:
        """(times, counts) of the spans recorded since index ``first``."""
        spans = self.spans[first:]
        child_ns = [0] * len(spans)
        for _p, _op, parent, _nid, start, end, _f, _o in spans:
            if parent >= first:
                child_ns[parent - first] += end - start
        self_ns: Counter = Counter()
        inclusive_ns: Counter = Counter()
        calls: Counter = Counter()
        errors: Counter = Counter()
        for (_p, _op, _parent, nid, start, end, failed, outer), child in zip(spans, child_ns):
            name = self.names[nid]
            layer = name.split(".", 1)[0]
            self_ns[layer] += end - start - child
            calls[name] += 1
            errors[layer] += failed
            if outer:
                inclusive_ns[name] += end - start
        times = {f"{layer}.self_s": self_ns[layer] / 1e9 for layer in LAYERS}
        times.update({metric: inclusive_ns[name] / 1e9 for metric, name in INCLUSIVE.items()})
        counts: dict = {}
        for layer in LAYERS:
            counts[f"{layer}.calls"] = sum(c for n, c in calls.items() if n.startswith(layer + "."))
            counts[f"{layer}.errors"] = errors[layer]
        for metric, names in CALLS.items():
            counts[metric] = sum(calls[n] for n in names)
        for metric in ("groups.table_bytes", "groups.hom_pairs_checked",
                       "wreath.dense_builds", "wreath.structural_builds"):
            counts[metric] = self.counts[metric]
        counts["wreath.codec_calls"] = (self.counts["wreath.codec_calls"]
                                        + calls["wreath._Codec.dense_table"])
        attempts = counts["search.attempts"]
        counts["search.found_ratio"] = self.counts["search.found"] / attempts if attempts else 0.0
        chis = counts["fields.chi_calls"]
        counts["fields.chi_distinct_ratio"] = len(self.chi_keys) / chis if chis else 0.0
        counts["trace.spans"] = len(spans)
        return times, counts

    def write(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "fields": ["pass", "op", "parent", "name", "start_ns", "end_ns",
                                          "raised", "outermost"],
                       "names": self.names, "spans": self.spans}, fh)
            fh.write("\n")

