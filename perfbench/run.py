"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload compile_grid --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics: this process sets up once
and runs ops for ``--seconds`` with no tracing.  After the window it
checks the outputs, compiles the QoR grid, and times three fresh
processes from start until the workload is set up (``--probe``); their
median is ``setup_s``.  ``--trace 1`` reports the per-layer metrics
instead: two forked passes over the same seeded ops, one untraced and one
traced, each sized to about half of ``--seconds``; the difference between
their throughputs is the tracing overhead.  Either way the outputs are
checked after the timed window, and the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 1 when any op or check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: (name, unit) of the end-to-end metrics, reported with --trace 0.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_ms.p50", "ms"),
    ("peak_rss_mb", "MB"),
    ("qor.area_um2", "um2"),
    ("qor.stages", "cycles"),
)

#: (name, unit) of the per-layer metrics, reported with --trace 1.
PER_LAYER = (
    ("frontend.s", "s"), ("frontend.calls", "count"),
    ("lint.s", "s"), ("lint.calls", "count"),
    ("lowering.s", "s"), ("lowering.calls", "count"),
    ("lowering.sources", "count"), ("lowering.calls_per_source", "ratio"),
    ("opt.s", "s"), ("opt.calls", "count"), ("opt.nodes_removed", "count"),
    ("scheduling.s", "s"), ("scheduling.milp_s", "s"),
    ("scheduling.calls", "count"), ("scheduling.cache_lookups", "count"),
    ("scheduling.cache_hit_ratio", "ratio"),
    ("hls.hwgen_s", "s"), ("hls.emit_s", "s"), ("hls.flow_s", "s"),
    ("absint.s", "s"), ("absint.calls", "count"),
    ("absint.cache_lookups", "count"), ("absint.cache_hit_ratio", "ratio"),
    ("simgen.s", "s"), ("simgen.calls", "count"),
    ("simgen.codegens", "count"), ("simgen.codegens_per_call", "ratio"),
    ("rtl.scalar_s", "s"), ("rtl.batched_s", "s"),
    ("rtl.constructs", "count"), ("rtl.steps", "count"),
    ("rtl.lane_steps", "count"),
    ("golden.s", "s"), ("golden.calls", "count"),
    ("cosim.s", "s"), ("cosim.trials", "count"),
    ("cosim.batched_trials", "count"), ("cosim.scalar_fallbacks", "count"),
    ("equiv.s", "s"), ("equiv.calls", "count"),
    ("fuzz.generate_s", "s"), ("fuzz.oracles_s", "s"),
    ("fuzz.reduce_s", "s"),
    ("discover.s", "s"), ("discover.enumerate_s", "s"),
    ("discover.price_s", "s"), ("discover.priced", "count"),
    ("discover.price_cache_hit_ratio", "ratio"),
    ("service.s", "s"), ("artifact_cache.lookups", "count"),
    ("artifact_cache.hit_ratio", "ratio"),
    ("server.queue_wait_ms.p50", "ms"), ("server.exec_ms.p50", "ms"),
    ("server.http_ms.p50", "ms"), ("server.coalesced", "count"),
    ("server.memory_hits", "count"), ("server.misses", "count"),
    ("unattributed.s", "s"), ("trace.spans", "count"), ("trace.ops", "count"),
    ("trace.untraced_ops_per_s", "ops/s"),
    ("trace.traced_ops_per_s", "ops/s"),
    ("trace.overhead_ops_per_s", "ops/s"),
    ("failed_frac", "ratio"),
)

#: Fresh processes whose set-up time is the median reported as setup_s.
SETUP_PROBES = 3


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for
    (``ru_maxrss`` is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _percentile(ordered, q: float) -> float:
    """Nearest-rank percentile of a sorted list."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _env() -> dict:
    from importlib import metadata
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def probe_setup_seconds(args) -> float:
    """Start a fresh interpreter that imports, generates inputs and sets
    the workload up, and time it until it reports ready."""
    command = [sys.executable, os.path.abspath(__file__), "--probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE,
                          text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        if child.wait() != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {line!r}")
    return elapsed


def end_to_end(args, workloads) -> dict:
    import tracing

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.setup()
    before = workloads.stats_snapshot()
    window = workload.run(time.perf_counter() + args.seconds, None)
    # Read before the checks, the QoR grid and the set-up probes, so the
    # figure covers set-up and the window only.
    peak_rss_mb = _peak_rss_mb()
    stats = workloads.stats_diff(workloads.stats_snapshot(), before)
    tracing.merge(stats, window.stats)
    checks = workload.check(window)
    workload.close()
    area, stages = workloads.grid_qor()
    setup_s = statistics.median(
        probe_setup_seconds(args) for _ in range(SETUP_PROBES))

    latencies = sorted(window.latencies)
    p50 = statistics.median(latencies) if latencies else 0.0
    values = {
        "setup_s": setup_s,
        "ops_per_s": _ratio(len(latencies), window.seconds),
        "op_ms.p50": p50 * 1000.0,
        "peak_rss_mb": peak_rss_mb,
        "qor.area_um2": area,
        "qor.stages": float(stages),
    }
    info = {"ops": len(latencies), "checks": checks,
            "window_s": round(window.seconds, 3),
            "stats": stats}
    # The highest percentile with at least ten samples beyond it.
    for q in (0.99, 0.9, 0.75):
        if latencies and len(latencies) * (1 - q) >= 10:
            info[f"op_ms.p{round(q * 100)}"] = round(
                _percentile(latencies, q) * 1000.0, 3)
            break
    print("perfbench: window " + json.dumps(info))
    return _result(window, values, END_TO_END)


def _pass(cls, seed: int, limit: int, traced: bool) -> dict:
    """One set-up plus ``limit`` ops, in a forked child (see traced_run)."""
    import tracing
    import workloads

    workload = cls(seed)
    workload.setup()
    tracer = tracing.Tracer().install() if traced else None
    workload.tracer = tracer
    before = workloads.stats_snapshot()
    window = workload.run(None, limit)
    stats = workloads.stats_diff(workloads.stats_snapshot(), before)
    tracing.merge(stats, window.stats)
    if tracer is not None:
        tracer.uninstall()
        tracing.merge(window.trace, tracing.summarize(tracer.spans))
        tracing.merge(window.trace, tracer.counters)
        window.sources.update(tracer.sources)
        window.spans.extend([-1] + list(span) for span in tracer.spans)
    workload.check(window)
    workload.close()
    if traced:
        os.makedirs(workloads.OUT_DIR, exist_ok=True)
        path = os.path.join(workloads.OUT_DIR, f"{cls.name}.spans.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"workload": cls.name, "seed": seed,
                       "fields": ["op", "id", "parent", "layer", "name",
                                  "start", "end"],
                       "spans": window.spans}, handle)
    return {
        "attempted": window.attempted, "failed": window.failed,
        "failures": window.failures, "seconds": window.seconds,
        "latencies": window.latencies, "trace": window.trace,
        "stats": stats, "sources": len(window.sources),
        "extra": window.extra,
    }


def traced_run(args, workloads) -> dict:
    import procs

    cls = workloads.WORKLOADS[args.workload]
    limit = max(4, round(cls.nominal_rate * args.seconds / 2))
    plain = procs.call_in_child(_pass, cls, args.seed, limit, False)
    traced = procs.call_in_child(_pass, cls, args.seed, limit, True)
    t, stats = traced["trace"], traced["stats"]

    def self_s(*layers):
        return sum(t.get(f"self.{layer}", 0.0) for layer in layers)

    def calls(*names):
        return sum(t.get(f"calls.{name}", 0.0) for name in names)

    lower_calls = calls("lower_isa")
    sched_lookups = stats["schedule_cache.hits"] + stats["schedule_cache.misses"]
    absint_lookups = stats["absint.analyses"] + stats["absint.cache_hits"]
    simgen_calls = calls("compile_module", "compile_module_batch")
    codegens = stats["codegen.scalar"] + stats["codegen.batched"]
    priced = t.get("discover.priced", 0.0)
    cache_lookups = t.get("artifact_cache.lookups", 0.0)
    attributed = sum(v for k, v in t.items() if k.startswith("self."))
    untraced_rate = _ratio(len(plain["latencies"]), plain["seconds"])
    traced_rate = _ratio(len(traced["latencies"]), traced["seconds"])
    values = {
        "frontend.s": self_s("frontend"), "frontend.calls": calls("elaborate"),
        "lint.s": self_s("lint"), "lint.calls": calls("run_lints"),
        "lowering.s": self_s("lowering"), "lowering.calls": lower_calls,
        "lowering.sources": traced["sources"],
        "lowering.calls_per_source": _ratio(lower_calls, traced["sources"]),
        "opt.s": self_s("opt"), "opt.calls": calls("optimize_graphs"),
        "opt.nodes_removed": t.get("opt.nodes_removed", 0.0),
        "scheduling.s": self_s("scheduling", "scheduling.milp"),
        "scheduling.milp_s": self_s("scheduling.milp"),
        "scheduling.calls": calls("LongnailScheduler.schedule"),
        "scheduling.cache_lookups": sched_lookups,
        "scheduling.cache_hit_ratio": _ratio(stats["schedule_cache.hits"],
                                             sched_lookups),
        "hls.hwgen_s": self_s("hls.hwgen"), "hls.emit_s": self_s("hls.emit"),
        "hls.flow_s": self_s("hls.flow"),
        "absint.s": self_s("absint"), "absint.calls": calls("analyze_module"),
        "absint.cache_lookups": absint_lookups,
        "absint.cache_hit_ratio": _ratio(stats["absint.cache_hits"],
                                         absint_lookups),
        "simgen.s": self_s("simgen"), "simgen.calls": simgen_calls,
        "simgen.codegens": codegens,
        "simgen.codegens_per_call": _ratio(codegens, simgen_calls),
        "rtl.scalar_s": self_s("rtl.scalar"),
        "rtl.batched_s": self_s("rtl.batched"),
        "rtl.constructs": t.get("rtl.constructs", 0.0),
        "rtl.steps": t.get("rtl.steps", 0.0),
        "rtl.lane_steps": t.get("rtl.lane_steps", 0.0),
        "golden.s": self_s("golden"),
        "golden.calls": calls("golden"),
        "cosim.s": self_s("cosim"),
        "cosim.trials": t.get("cosim.trials", 0.0),
        "cosim.batched_trials": t.get("cosim.batched_trials", 0.0),
        "cosim.scalar_fallbacks": t.get("cosim.scalar_fallbacks", 0.0),
        "equiv.s": self_s("equiv"), "equiv.calls": calls("compare_artifacts"),
        "fuzz.generate_s": self_s("fuzz.generate"),
        "fuzz.oracles_s": self_s("fuzz.oracles"),
        "fuzz.reduce_s": self_s("fuzz.reduce"),
        "discover.s": self_s("discover.enumerate", "discover.price",
                             "discover.emit"),
        "discover.enumerate_s": self_s("discover.enumerate"),
        "discover.price_s": self_s("discover.price"),
        "discover.priced": priced,
        "discover.price_cache_hit_ratio": _ratio(
            t.get("discover.price_cached", 0.0), priced),
        "service.s": self_s("service"),
        "artifact_cache.lookups": cache_lookups,
        "artifact_cache.hit_ratio": _ratio(
            t.get("artifact_cache.hits", 0.0), cache_lookups),
        "server.queue_wait_ms.p50": 0.0, "server.exec_ms.p50": 0.0,
        "server.http_ms.p50": 0.0, "server.coalesced": 0.0,
        "server.memory_hits": 0.0, "server.misses": 0.0,
        "unattributed.s": max(0.0, sum(traced["latencies"]) - attributed),
        "trace.spans": t.get("spans", 0.0),
        "trace.ops": float(len(traced["latencies"])),
        "trace.untraced_ops_per_s": untraced_rate,
        "trace.traced_ops_per_s": traced_rate,
        "trace.overhead_ops_per_s": traced_rate - untraced_rate,
    }
    values.update({k: v for k, v in traced["extra"].items() if k in values})
    print("perfbench: counters " + json.dumps(stats))
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    values["failed_frac"] = _ratio(failed, attempted)
    totals = workloads.Window(attempted=attempted, failed=failed,
                              failures=plain["failures"] + traced["failures"])
    return _result(totals, values, PER_LAYER)


def _result(window, values: dict, spec) -> dict:
    for message in window.failures:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    return {
        "correct": window.failed == 0,
        "attempted": max(1, window.attempted),
        "failed": window.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in spec},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}; run from the "
              f"root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(workloads.WORKLOADS))
    if args.probe:
        workload = workloads.WORKLOADS[args.workload](args.seed)
        workload.setup()
        print("ready", flush=True)
        workload.close()
        return 0

    print("perfbench: env " + json.dumps(_env()))
    if args.trace:
        result = traced_run(args, workloads)
    else:
        result = end_to_end(args, workloads)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
