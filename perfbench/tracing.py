"""Span tracing for the benchmark, installed from outside ``src/``.

Every layer of the toolchain is timed by wrapping its public entry points
where they are imported: :meth:`Tracer.install` replaces the function (or
class attribute) in its defining module and in every loaded module that
imported the same object by name (the benchmark's own modules included),
and :meth:`Tracer.uninstall` puts the originals back.  Each call records one span ``(id, parent, layer, name, start, end)``
in memory; parents come from a per-thread stack, so spans nest exactly as
the calls do.  :func:`summarize` turns spans into per-layer self time
(duration minus the part covered by child spans) and call counts.
"""

from __future__ import annotations

import collections
import functools
import importlib
import itertools
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: A span: (id, parent id or 0, layer, name, start, end), perf_counter secs.
Span = Tuple[int, int, str, str, float, float]
#: ``extra(tracer, args, kwargs, result)`` adds layer counts from a call.
Extra = Callable[["Tracer", tuple, dict, Any], None]


def _opt_extra(tracer, args, kwargs, report) -> None:
    tracer.counters["opt.nodes_removed"] += report.nodes_before - report.nodes_after


def _verify_extra(tracer, args, kwargs, report) -> None:
    tracer.counters["cosim.batched_trials"] += report.batched_trials
    tracer.counters["cosim.scalar_fallbacks"] += report.scalar_fallbacks
    tracer.counters["cosim.trials"] += report.trials


def _price_extra(tracer, args, kwargs, result) -> None:
    _records, stats = result
    tracer.counters["discover.priced"] += stats["requested"]
    tracer.counters["discover.price_cached"] += stats["cached"]


def _cache_get_extra(tracer, args, kwargs, record) -> None:
    tracer.counters["artifact_cache.lookups"] += 1
    tracer.counters["artifact_cache.hits"] += record is not None


def _run_const_extra(tracer, args, kwargs, result) -> None:
    vectors = args[1] if len(args) > 1 else kwargs["vectors"]
    cycles = args[2] if len(args) > 2 else kwargs["cycles"]
    tracer.counters["rtl.lane_steps"] += len(vectors) * cycles


def _lower_extra(tracer, args, kwargs, lowered) -> None:
    isa = args[0] if args else kwargs["isa"]
    tracer.sources.add(isa.name)


#: layer -> [(module, attribute path, extra)]; the attribute path is a
#: function name or ``Class.method``.
LAYERS: Dict[str, List[Tuple[str, str, Optional[Extra]]]] = {
    "frontend": [("repro.frontend.elaboration", "elaborate", None)],
    "lint": [("repro.analysis.lint", "run_lints", None)],
    "lowering": [
        ("repro.lowering.ast_to_coredsl", "lower_isa", _lower_extra),
        ("repro.lowering.coredsl_to_lil", "convert_to_lil", None),
    ],
    "opt": [("repro.opt.pipeline", "optimize_graphs", _opt_extra)],
    "scheduling": [
        ("repro.scheduling.scheduler", "LongnailScheduler.schedule", None),
        ("repro.scheduling.scheduler", "solve_problem", None),
    ],
    "hls.hwgen": [("repro.hls.hwgen", "generate_module", None)],
    "hls.emit": [
        ("repro.hls.verilog", "emit_modules", None),
        ("repro.scaiev.config", "IsaxConfig.to_yaml", None),
    ],
    "hls.flow": [("repro.hls.longnail", "compile_isax", None)],
    "absint": [("repro.analysis.absint", "analyze_module", None)],
    "simgen": [
        ("repro.sim.compile", "compile_module", None),
        ("repro.sim.compile", "compile_module_batch", None),
        ("repro.sim.compile", "cached_schedule", None),
    ],
    "rtl.scalar": [
        ("repro.sim.rtl_sim", "RTLSimulator.__init__", None),
        ("repro.sim.rtl_sim", "RTLSimulator.step", None),
    ],
    "rtl.batched": [
        ("repro.sim.batch", "BatchedSimulator.__init__", None),
        ("repro.sim.batch", "BatchedSimulator.run_const", _run_const_extra),
        ("repro.sim.batch", "BatchedSimulator.step", None),
    ],
    "golden": [
        ("repro.sim.coredsl_interp",
         "CoreDSLInterpreter.execute_instruction", None),
        ("repro.sim.coredsl_interp", "CoreDSLInterpreter.execute_always",
         None),
    ],
    "cosim": [
        ("repro.sim.cosim", "verify_artifact", _verify_extra),
        ("repro.sim.cosim", "cosim_instruction", None),
        ("repro.sim.cosim", "cosim_always", None),
    ],
    "equiv": [("repro.opt.equiv", "compare_artifacts", None)],
    "fuzz.generate": [("repro.fuzz.generator", "generate_program", None)],
    "fuzz.oracles": [
        ("repro.fuzz.oracles", "run_oracles", None),
        ("repro.fuzz.oracles", "check_range_soundness", None),
        ("repro.sim.compile", "crosscheck_engines", None),
    ],
    "fuzz.reduce": [("repro.fuzz.reduce", "reduce_program", None)],
    "discover.enumerate": [
        ("repro.discover.enumerate", "enumerate_candidates", None),
    ],
    "discover.price": [
        ("repro.discover.pricing", "price_candidates", _price_extra),
    ],
    "discover.emit": [("repro.discover.emit", "emit_candidate", None)],
    "service": [
        ("repro.service.executor", "BatchExecutor.run_specs", None),
        ("repro.service.executor", "run_compile_payload", None),
        ("repro.service.cache", "ArtifactCache.get", _cache_get_extra),
        ("repro.service.cache", "ArtifactCache.put", None),
    ],
}

#: Stands for the result of a wrapped call that raised.
_RAISED = object()
_RTL_CONSTRUCTORS = {"RTLSimulator.__init__", "BatchedSimulator.__init__"}
_RTL_STEPS = {"RTLSimulator.step", "BatchedSimulator.step"}


class Tracer:
    """In-memory span and counter store shared by all wrapped calls."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = collections.defaultdict(float)
        #: Names of the ISAs lowered (the base of lowering.calls_per_source).
        self.sources: set = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, name: str, fn: Callable,
             extra: Optional[Extra]) -> Callable:
        engine_named = name == "solve_problem"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            result = _RAISED
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                label = name
                if result is not _RAISED:
                    if engine_named:
                        label = f"{name}[{result.engine}]"
                    if extra is not None:
                        with self._lock:
                            extra(self, args, kwargs, result)
                self.spans.append((span_id, parent, layer, label, start, end))

        return traced

    def install(self) -> "Tracer":
        """Wrap every entry point of :data:`LAYERS` where it is bound."""
        for layer, targets in LAYERS.items():
            for module_name, path, extra in targets:
                module = importlib.import_module(module_name)
                if "." in path:
                    class_name, attr = path.split(".")
                    owner = getattr(module, class_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, self.wrap(layer, path, original,
                                                       extra))
                    continue
                original = getattr(module, path)
                wrapped = self.wrap(layer, path, original, extra)
                for loaded in list(sys.modules.values()):
                    namespace = getattr(loaded, "__dict__", None) or {}
                    if namespace.get(path) is original:
                        self._patch(loaded, path, wrapped)
        return self

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()



def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Per-layer self time: each span's duration minus its children's."""
    spans = list(spans)
    child_time: Dict[int, float] = collections.defaultdict(float)
    for _sid, parent, _layer, _name, start, end in spans:
        if parent:
            child_time[parent] += end - start
    totals: Dict[str, float] = collections.defaultdict(float)
    for sid, _parent, layer, name, start, end in spans:
        key = layer
        if name == "solve_problem[milp]":
            key = "scheduling.milp"
        totals[key] += (end - start) - child_time[sid]
    return dict(totals)


def summarize(spans: Iterable[Span]) -> Dict[str, float]:
    """Self time per layer plus the call and event counts the metrics
    need; every value is a plain number so summaries from several
    processes can be added with :func:`merge`."""
    spans = list(spans)
    names = {sid: name for sid, _p, _l, name, _s, _e in spans}
    out: Dict[str, float] = {f"self.{k}": v
                             for k, v in self_times(spans).items()}
    calls: Dict[str, float] = collections.defaultdict(float)
    for _sid, parent, layer, name, _start, _end in spans:
        calls[f"calls.{layer}"] += 1
        calls[f"calls.{name}"] += 1
        if name in _RTL_CONSTRUCTORS \
                and names.get(parent) not in _RTL_CONSTRUCTORS:
            calls["rtl.constructs"] += 1
        if name in _RTL_STEPS and names.get(parent) not in _RTL_STEPS:
            calls["rtl.steps"] += 1
    out.update(calls)
    out["spans"] = float(len(spans))
    return out


def merge(into: Dict[str, float], other: Dict[str, float]) -> None:
    for key, value in other.items():
        into[key] = into.get(key, 0.0) + value
