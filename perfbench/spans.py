"""Spans recorded at sensemat's module boundaries, from outside ``src/``.

``Tracer.install`` replaces each public function that one module calls in
another with a wrapper that records a span (name, start, end, parent),
then ``uninstall`` puts the originals back.  A name is patched in the
namespace of the calling module, because ``from .x import f`` binds its
own reference there.  Spans nest on one stack: the caller is single
threaded and each operation runs to completion, so a layer's self time
is its span minus the spans opened inside it, and the self times of all
spans add up to the time spent inside the root spans.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager


def _exact_counts(sm, p0, b):
    n_su, n_ch = sm.shape
    return {"patterns": 2**n_ch, "exact_steps": 2**n_ch * n_su * n_ch}


def _slot_counts(matrices, variant_idx, p0, p_fa, p_d, persistence, b,
                 pu_u, persist_u, sense_u, *outputs):
    n_slots = variant_idx.shape[0]
    _, n_su, n_ch = matrices.shape
    return {"slots": n_slots, "slot_steps": n_slots * n_su * n_ch,
            "uniform_bytes": pu_u.nbytes + persist_u.nbytes + sense_u.nbytes}


# (calling module, attribute, span name, counter of the call's work)
BOUNDARIES = (
    ("sensemat.cli", "parse_config", "config.parse", None),
    ("sensemat.cli", "run_experiment_sweep", "experiments.sweep", None),
    ("sensemat.experiments", "emit_csv", "experiments.csv", None),
    ("sensemat.cli", "run_simulation", "simulate.run", None),
    ("sensemat.experiments", "run_simulation", "simulate.run", None),
    ("sensemat.cli", "optimal_matrix_search", "throughput.search", None),
    ("sensemat.experiments", "optimal_matrix_search", "throughput.search", None),
    ("sensemat.cli", "expected_throughput_exact", "throughput.exact", None),
    ("sensemat.experiments", "expected_throughput_exact", "throughput.exact", None),
    ("sensemat.cli", "network_throughput_closed_form", "throughput.closed_form", None),
    ("sensemat.experiments", "build_sms_matrix", "allocators.build", None),
    ("sensemat.simulate", "build_sms_matrix", "allocators.build", None),
    ("sensemat.simulate", "build_msms_matrix", "allocators.build", None),
    ("sensemat.simulate", "build_pmsms_matrix", "allocators.build", None),
    ("sensemat._kernels", "simulate_slots", "kernels.slots", _slot_counts),
    ("sensemat._kernels", "exact_network_throughput", "kernels.exact", _exact_counts),
)
#: generators: each ``next()`` is one span, each item one candidate
GENERATORS = (
    ("sensemat.throughput", "repetition_free_candidates", "throughput.enum"),
)

ROOT_SPAN = "cli.op"              # one CLI operation, opened by the caller


class Tracer:
    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent index]
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[list] = []      # [span index, time in children]
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(record)
        self._stack.append([index, 0.0])
        try:
            yield
        finally:
            end = time.perf_counter()
            _, children = self._stack.pop()
            record[2] = end
            duration = end - record[1]
            self.calls[name] += 1
            self.busy[name] += duration
            self.self_time[name] += duration - children
            if self._stack:
                self._stack[-1][1] += duration

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            if counter is not None:
                for key, value in counter(*args, **kwargs).items():
                    self.counts[key] += value
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def _wrap_generator(self, fn, name):
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                with self.span(name):
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                self.counts["candidates"] += 1
                yield item
        return traced

    def _patch(self, module_name: str, attr: str, wrap) -> None:
        module = importlib.import_module(module_name)
        if not hasattr(module, attr):
            self.missing.append(f"{module_name}.{attr}")
            return
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, wrap(original))

    def install(self) -> None:
        for module_name, attr, name, counter in BOUNDARIES:
            self._patch(module_name, attr, lambda fn: self._wrap(fn, name, counter))
        for module_name, attr, name in GENERATORS:
            self._patch(module_name, attr, lambda fn: self._wrap_generator(fn, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def _per(total: float, count: int, scale: float) -> float:
    return total / count * scale if count else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-pass layer metrics (name -> (value, unit)) from a tracer that
    recorded ``passes`` traced passes."""
    calls, busy, own, counts = tracer.calls, tracer.busy, tracer.self_time, tracer.counts
    per = 1.0 / passes
    return {
        "kernels.exact_calls": (calls["kernels.exact"] * per, "count"),
        "kernels.exact_s": (busy["kernels.exact"] * per, "s"),
        "kernels.exact_ns_per_pattern": (_per(busy["kernels.exact"], counts["patterns"], 1e9), "ns"),
        "kernels.exact_steps_computed": (counts["exact_steps"] * per, "count"),
        "kernels.slot_calls": (calls["kernels.slots"] * per, "count"),
        "kernels.slots_s": (busy["kernels.slots"] * per, "s"),
        "kernels.slot_us_per_slot": (_per(busy["kernels.slots"], counts["slots"], 1e6), "us"),
        "kernels.slot_steps_computed": (counts["slot_steps"] * per, "count"),
        "throughput.searches": (calls["throughput.search"] * per, "count"),
        "throughput.search_s": (busy["throughput.search"] * per, "s"),
        "throughput.candidates": (counts["candidates"] * per, "count"),
        "throughput.enum_s": (busy["throughput.enum"] * per, "s"),
        "throughput.exact_s": (busy["throughput.exact"] * per, "s"),
        "throughput.closed_form_s": (busy["throughput.closed_form"] * per, "s"),
        "simulate.runs": (calls["simulate.run"] * per, "count"),
        "simulate.run_s": (busy["simulate.run"] * per, "s"),
        "simulate.self_s": (own["simulate.run"] * per, "s"),
        "simulate.uniform_bytes_computed": (counts["uniform_bytes"] * per, "B"),
        "allocators.builds": (calls["allocators.build"] * per, "count"),
        "allocators.build_s": (busy["allocators.build"] * per, "s"),
        "experiments.sweep_s": (busy["experiments.sweep"] * per, "s"),
        "experiments.self_s": (own["experiments.sweep"] * per, "s"),
        "experiments.csv_s": (busy["experiments.csv"] * per, "s"),
        "config.parse_s": (busy["config.parse"] * per, "s"),
        "cli.self_s": (own[ROOT_SPAN] * per, "s"),
    }
