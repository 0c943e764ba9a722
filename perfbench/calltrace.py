"""Call spans around the library's public functions, recorded from outside.

A Tracer rebinds each target function, at every gconstellations module
namespace that holds it, to a wrapper that records a span (name, start, end,
parent) and optional counts. The library source is never touched. Spans stay
in memory until the job process writes them out at exit; `aggregate` turns
them into per-function calls, busy time and self time.

A target that no longer exists is reported as absent and skipped, so a later
version of the library that deletes or renames a function still traces.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

# (module, attribute path): attribute paths with a dot name a method
TARGETS = (
    ("cli", "main"),
    ("cli", "load_problem"),
    ("family", "enumerate_normalized"),
    ("family", "enumerate_per_ray"),
    ("family", "maximal_shift_values"),
    ("family", "NormalizedEnumeration.sets"),
    ("family", "check_reductor"),
    ("family", "bounds_check"),
    ("family", "lambda_shift"),
    ("family", "reflect"),
    ("family", "canonical_family"),
    ("family", "maximal_shift_family"),
    ("family", "reductor_piece"),
    ("family", "quiver"),
    ("family", "equivalence_witness"),
    ("group", "GroupData.characters"),
    ("group", "GroupData.weight"),
    ("toric", "build_lattice"),
    ("toric", "validate_fan"),
    ("toric", "junior_simplex"),
    ("toric", "dual_basis"),
    ("exact", "det"),
    ("exact", "invert"),
    ("exact", "hermite_normal_form"),
    ("gdivisor", "weil_to_cartier"),
    ("gdivisor", "cartier_to_weil"),
    ("gdivisor", "frac_val"),
    ("gdivisor", "linear_equivalence_witness"),
)

# functions whose public cache_info() gives hit and miss counts
CACHED = ("family.maximal_shift_values", "gdivisor.frac_val")

PACKAGE = "gconstellations"


def metric_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def _count_rows(tracer, args, result) -> None:
    rows = len(result.rows)
    tracer.add("family.per_ray.rows", rows)
    tracer.peak("family.per_ray.max_rows", rows)


def _count_failed(tracer, args, result) -> None:
    if not result.passed:
        tracer.add("family.check_reductor.failed", 1)


def _count_pairs(tracer, args, result) -> None:
    cones = len(args[0].cones)
    tracer.add("toric.validate_fan.cone_pairs", cones * (cones - 1) // 2)


COUNTERS = {
    "family.enumerate_per_ray": _count_rows,
    "family.check_reductor": _count_failed,
    "toric.validate_fan": _count_pairs,
}


class Tracer:
    """Spans and counts of one job process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []          # [name index, parent span, t0, t1]
        self.stack: list[int] = [-1]
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self.cached: dict[str, object] = {}

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def install(self, targets=TARGETS) -> None:
        """Rebind every present target; record the missing ones."""
        modules = {}
        for module, attr in targets:
            name = metric_name(module, attr)
            try:
                mod = modules.get(module) or importlib.import_module(
                    f"{PACKAGE}.{module}")
            except ImportError:
                self.absent.append(name)
                continue
            modules[module] = mod
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, leaf, None)
            if not callable(original):
                self.absent.append(name)
                continue
            if name in CACHED:
                self.cached[name] = original
            wrapper = self._wrap(name, original)
            if owner_name:
                setattr(owner, leaf, wrapper)
                continue
            # rebind at every namespace that looks the function up by name
            for loaded in list(sys.modules.values()):
                namespace = getattr(loaded, "__dict__", None)
                if (namespace is not None
                        and getattr(loaded, "__name__", "").startswith(PACKAGE)
                        and namespace.get(leaf) is original):
                    namespace[leaf] = wrapper

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        counter = COUNTERS.get(name)
        clock = time.perf_counter_ns
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def generator(*args, **kwargs):
                # one span per step, so time spent by the consumer between
                # steps is not charged to the generator
                iterator = fn(*args, **kwargs)
                while True:
                    slot = len(spans)
                    spans.append(None)
                    parent = stack[-1]
                    stack.append(slot)
                    start = clock()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        spans[slot] = (index, parent, start, clock())
                    tracer.add(f"{name}.count", 1)
                    yield item
            return generator

        def wrapper(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[slot] = (index, parent, start, clock())
            if counter is not None:
                counter(tracer, args, result)
            return result
        return wrapper

    def cache_counts(self) -> dict[str, int]:
        """Hits and misses from each cached target's public cache_info()."""
        counts = {}
        for name, fn in self.cached.items():
            info = getattr(fn, "cache_info", None)
            if info is not None:
                stats = info()
                counts[f"{name}.cache_hits"] = stats.hits
                counts[f"{name}.cache_misses"] = stats.misses
        return counts

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "spans": [list(s) for s in self.spans],
            "counts": {**self.counts, **self.cache_counts()},
            "absent": self.absent,
        }


def aggregate(trace: dict) -> dict[str, float]:
    """Per-function calls, busy seconds (outermost spans of each name, so
    recursion is not counted twice) and self seconds, plus the total time
    inside any traced function (root spans), from one job's spans."""
    names = trace["names"]
    spans = trace["spans"]
    child_ns = [0] * len(spans)
    for i, (_, parent, start, end) in enumerate(spans):
        if parent >= 0:
            child_ns[parent] += end - start
    stats: dict[str, float] = {}
    layers_ns = 0
    for i, (index, parent, start, end) in enumerate(spans):
        name = names[index]
        stats[f"{name}.calls"] = stats.get(f"{name}.calls", 0) + 1
        stats[f"{name}.self_s"] = (stats.get(f"{name}.self_s", 0.0)
                                   + (end - start - child_ns[i]) / 1e9)
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != index:
            ancestor = spans[ancestor][1]
        if ancestor < 0:
            stats[f"{name}.s"] = (stats.get(f"{name}.s", 0.0)
                                  + (end - start) / 1e9)
        if parent < 0:
            layers_ns += end - start
    stats["trace.layers_s"] = layers_ns / 1e9
    stats.update(trace["counts"])
    return stats
