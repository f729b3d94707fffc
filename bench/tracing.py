"""Spans around the public entry points of each tough2f layer.

The tracer replaces a layer function by a wrapper in every tough2f module
namespace that holds it, so a caller that looks the function up as a
module attribute (``invariants.is_t_tough``) and one that imported it by
name (``barriers.is_t_tough``) both reach the wrapper. Spans are kept in
memory and written once, when the traced run ends.
"""

from __future__ import annotations

import importlib
import json
from contextlib import ExitStack, contextmanager
from time import perf_counter_ns

PACKAGE_MODULES = ("tough2f", "tough2f.graphs", "tough2f.rationals",
                   "tough2f.invariants", "tough2f.matching",
                   "tough2f.barriers", "tough2f.forbidden",
                   "tough2f.families", "tough2f.theorems", "tough2f.cli")

# (layer module, public function); a span name is "<module>.<function>"
LAYER_FUNCTIONS = (
    ("theorems", "hunt"),
    ("theorems", "check_theorem"),
    ("theorems", "verify_family"),
    ("invariants", "is_t_tough"),
    ("invariants", "toughness"),
    ("invariants", "independence_number"),
    ("invariants", "connectivity"),
    ("forbidden", "find_induced"),
    ("matching", "find_two_factor"),
    ("matching", "build_gadget"),
    ("matching", "max_matching"),
    ("barriers", "find_barrier"),
    ("barriers", "find_biased_barrier"),
    ("barriers", "check_biased_properties"),
    ("barriers", "extract_witness"),
    ("graphs", "decode_graph6"),
    ("families", "build"),
    ("cli", "main"),
)

LAYER_NAMES = tuple(f"{mod}.{fn}" for mod, fn in LAYER_FUNCTIONS)

NO_PARENT = -1


@contextmanager
def patched(module_name: str, function: str, make_wrapper):
    """Replace ``tough2f.<module_name>.<function>`` by
    ``make_wrapper(original)`` wherever a tough2f module holds it."""
    modules = [importlib.import_module(m) for m in PACKAGE_MODULES]
    original = getattr(importlib.import_module(f"tough2f.{module_name}"),
                       function)
    wrapper = make_wrapper(original)
    replaced = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                replaced.append((module, attr))
    try:
        yield wrapper
    finally:
        for module, attr in replaced:
            setattr(module, attr, original)


class Tracer:
    """Records one span per call of each layer function while installed.

    A span is ``[name, start_ns, end_ns, parent]``, where ``parent`` is the
    index of the enclosing span or NO_PARENT. The benchmark opens a root
    span around each outside call, so every layer span leads up to the
    request that caused it.
    """

    def __init__(self):
        self.spans: list = []
        self._stack = [NO_PARENT]
        self._patches = ExitStack()

    def __enter__(self):
        for mod, fn in LAYER_FUNCTIONS:
            self._patches.enter_context(patched(
                mod, fn, lambda original, name=f"{mod}.{fn}":
                self._wrap(name, original)))
        return self

    def __exit__(self, *exc):
        self._patches.close()
        return False

    def _wrap(self, name, original):
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)
        traced.__wrapped__ = original
        return traced

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, 0, 0, self._stack[-1]]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = perf_counter_ns()
        try:
            yield
        finally:
            record[2] = perf_counter_ns()
            self._stack.pop()

    def layer_totals(self, first: int, last: int) -> dict:
        """name -> [calls, total_ns, self_ns] over spans[first:last].

        Self time is a span's duration minus the time its child spans
        cover. Calls run on one thread and nest, so children of one span
        never overlap and their durations add up to the time they cover.
        """
        covered = [0] * (last - first)
        for name, start, end, parent in self.spans[first:last]:
            if parent >= first:
                covered[parent - first] += end - start
        totals = {name: [0, 0, 0] for name in LAYER_NAMES}
        for i, (name, start, end, _) in enumerate(self.spans[first:last]):
            if name in totals:
                row = totals[name]
                row[0] += 1
                row[1] += end - start
                row[2] += end - start - covered[i]
        return totals

    def write(self, path) -> None:
        """Write every span as one JSON line: id, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as out:
            for i, (name, start, end, parent) in enumerate(self.spans):
                out.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                      "end_ns": end, "parent": parent}))
                out.write("\n")
