"""The four benchmark workloads.

Each workload derives every input from its seed, builds what it needs in
:meth:`setup` (timed as part of ``setup_s``), then runs ops in
:meth:`run` until a deadline or an op limit, and finally checks its outputs
in :meth:`check`, after the timed window.  ``run`` returns a
:class:`Window` with one latency per op.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import os
import random
import shutil
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.absint import absint_cache_stats
from repro.eval.area import module_area
from repro.fuzz.campaign import FuzzConfig, run_campaign
from repro.fuzz.generator import generate_program
from repro.fuzz.oracles import ALL_ORACLES, DEFAULT_CORES
from repro.hls.longnail import compile_isax
from repro.isaxes import ALL_ISAXES
from repro.scaiev.cores import CORES, EXPERIMENTAL_CORES
from repro.scheduling.cache import global_schedule_cache
from repro.server import CompileServer, CompileServerApp, CompileServerClient
from repro.server.client import CompileServerError
from repro.service.cache import ArtifactCache
from repro.sim.compile import compile_cache_stats
from repro.sim.cosim import verify_artifact

import procs
import tracing

#: Where runs leave scratch files (fuzz corpora, the disk cache tier,
#: span dumps); inside the checkout, listed in .gitignore.
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
GRID_CORES = tuple(CORES) + tuple(EXPERIMENTAL_CORES)
#: The tracer layers that do the work of every compile.
COMPILE_LAYERS = ("frontend", "lint", "lowering", "opt", "scheduling",
                  "hls.hwgen", "hls.emit", "hls.flow")
#: nproc in the reference container: the cap on concurrent children,
#: client connections and server workers.
CONCURRENCY = 2


@dataclasses.dataclass
class Window:
    """What one timed window did."""

    latencies: List[float] = dataclasses.field(default_factory=list)
    begin: float = 0.0
    attempted: int = 0
    failed: int = 0
    seconds: float = 0.0
    #: Trace summary merged from forked op processes (compile_grid only).
    trace: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Public stats-surface deltas gathered inside op processes.
    stats: Dict[str, float] = dataclasses.field(default_factory=dict)
    spans: List[list] = dataclasses.field(default_factory=list)
    sources: set = dataclasses.field(default_factory=set)
    #: Workload-specific per-layer numbers (the server's job timings).
    extra: Dict[str, float] = dataclasses.field(default_factory=dict)
    failures: List[str] = dataclasses.field(default_factory=list)

    def finish(self) -> None:
        self.seconds = time.perf_counter() - self.begin

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)


def stats_snapshot() -> Dict[str, float]:
    """The process-local public stats surfaces, flattened."""
    codegen = compile_cache_stats()
    absint = absint_cache_stats()
    schedule = global_schedule_cache().stats()
    return {
        "codegen.scalar": codegen["scalar"],
        "codegen.batched": codegen["batched"],
        "codegen.schedules": codegen["schedules"],
        "absint.analyses": absint["analyses"],
        "absint.cache_hits": absint["cache_hits"],
        "schedule_cache.hits": schedule["hits"],
        "schedule_cache.misses": schedule["misses"],
    }


def stats_diff(after: Dict[str, float],
               before: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before.get(key, 0) for key in after}


def interleave_strata(items: List[Any], key, strata: int,
                      rng: random.Random) -> List[Any]:
    """Rank ``items`` by ``key`` into ``strata`` equal bands, shuffle each
    band with ``rng`` and deal the bands out in turn.

    An op's cost grows with its source length (correlation about 0.66 on
    fuzz_campaign programs), so every stretch of the result carries the
    same mix of small and large inputs: a window bounded by time then sees
    a representative sample whatever the seed.
    """
    ranked = sorted(items, key=key)
    size = len(ranked) // strata
    bands = [ranked[k * size:(k + 1) * size] for k in range(strata)]
    for band in bands:
        rng.shuffle(band)
    return [item for group in zip(*bands) for item in group]


def digest(*texts: str) -> str:
    return hashlib.sha256("\0".join(texts).encode("utf-8")).hexdigest()


def grid_qor() -> Tuple[float, int]:
    """QoR of the Table 3 grid (8 ISAXes x 5 cores at -O2): total module
    area in um^2 and total schedule makespan in cycles."""
    area = 0.0
    stages = 0
    for source in ALL_ISAXES.values():
        for core in GRID_CORES:
            artifact = compile_isax(source, core, opt=2)
            area += sum(module_area(m) for m in artifact.modules)
            stages += sum(f.schedule.makespan
                          for f in artifact.functionalities.values())
    return area, stages


def _trace_payload(tracer: tracing.Tracer) -> dict:
    return {
        "summary": tracing.summarize(tracer.spans),
        "counters": dict(tracer.counters),
        "sources": sorted(tracer.sources),
        "spans": [list(span) for span in tracer.spans],
    }


class Workload:
    """Common shape; subclasses fill in setup/run/check."""

    name = ""
    #: Tracer layers (see tracing.LAYERS) the traced run must have spans for.
    layers: Tuple[str, ...] = ()
    #: Ops per second the traced passes are sized by (a conservative
    #: figure, so a pass of ``rate * seconds / 2`` ops fits its half).
    nominal_rate = 1.0
    #: Size strata of the generated inputs (see interleave_strata).
    strata = 5

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.tracer: Optional[tracing.Tracer] = None

    def setup(self) -> None:
        pass

    def run(self, deadline: Optional[float],
            limit: Optional[int]) -> Window:
        raise NotImplementedError

    def check(self, window: Window) -> int:
        """Post-window correctness checks; each failure is recorded with
        ``window.fail``.  Returns the number of checks made."""
        return 0

    def close(self) -> None:
        pass

    @staticmethod
    def _more(deadline: Optional[float], limit: Optional[int],
              done: int) -> bool:
        if limit is not None and done >= limit:
            return False
        return deadline is None or time.perf_counter() < deadline


class CompileGrid(Workload):
    """One op: one (source, core) cell compiled cold at -O2 in a fresh
    (forked) process, ending with ``.verilog`` and ``.config_yaml``."""

    name = "compile_grid"
    layers = COMPILE_LAYERS
    nominal_rate = 20.0
    #: Cells compiled at a time.  Two op processes contend for both vCPUs
    #: of a 2-vCPU host with its other load; five seeds run back to back
    #: gave an IQR/median of ops_per_s of 0.08 with one and 0.21 with two.
    op_processes = 1
    #: Generated sources, each compiled for every grid core.  The pool is
    #: fixed, so the inputs do not depend on the run length: 8 x 5 Table 3
    #: cells plus 152 x 5 generated cells make 800 cells, about twice what
    #: a 15 s window uses on a 2-vCPU host.  A window that uses them all
    #: ends early and says so.
    generated_sources = 152
    #: Every 20th op (5%) is a Table 3 cell, so each stretch of the op
    #: order carries the same share of the hand-written ISAXes.
    table3_every = 20
    cosim_trials = 2

    def setup(self) -> None:
        base = self.rng.randrange(1 << 30)
        self.sources = list(ALL_ISAXES.values()) + [
            generate_program(base + k).source
            for k in range(self.generated_sources)]
        table3 = [(index, core) for index in range(len(ALL_ISAXES))
                  for core in GRID_CORES]
        generated = [(index, core)
                     for index in range(len(ALL_ISAXES), len(self.sources))
                     for core in GRID_CORES]
        self.rng.shuffle(table3)
        generated = interleave_strata(
            generated, lambda cell: (len(self.sources[cell[0]]), cell),
            self.strata, self.rng)
        self.cells: List[Tuple[int, str]] = []
        for cell in generated:
            if len(self.cells) % self.table3_every == 0 and table3:
                self.cells.append(table3.pop())
            self.cells.append(cell)
        self.done: List[Tuple[int, str]] = []   # (cell, digest)

    def _compile_cell(self, cell: int) -> dict:
        index, core = self.cells[cell]
        before = stats_snapshot()
        artifact = compile_isax(self.sources[index], core, opt=2)
        result = {"digest": digest(artifact.verilog, artifact.config_yaml),
                  "stats": stats_diff(stats_snapshot(), before)}
        if self.tracer is not None:
            result["trace"] = _trace_payload(self.tracer)
        return result

    def run(self, deadline, limit) -> Window:
        window = Window()
        children = procs.Children()
        window.begin = time.perf_counter()
        started = 0
        while True:
            while (len(children) < self.op_processes
                   and started < len(self.cells)
                   and self._more(deadline, limit, started)):
                children.start(started, self._compile_cell, started)
                started += 1
            if not len(children):
                break
            cell, payload, elapsed = children.wait_one()
            window.attempted += 1
            if not payload["ok"]:
                window.fail(f"cell {self.cells[cell]}: {payload['error']}")
                continue
            window.latencies.append(elapsed)
            result = payload["result"]
            self.done.append((cell, result["digest"]))
            tracing.merge(window.stats, result["stats"])
            trace = result.get("trace")
            if trace is not None:
                tracing.merge(window.trace, trace["summary"])
                tracing.merge(window.trace, trace["counters"])
                window.sources.update(trace["sources"])
                window.spans.extend([cell] + span for span in trace["spans"])
        children.close()
        window.finish()
        if started == len(self.cells):
            print(f"perfbench: compile_grid used all {started} cells "
                  f"before the deadline; raise generated_sources")
        return window

    def _check_cells(self, chunk: List[Tuple[int, str]]) -> List[str]:
        """Recompile each cell (must be byte-identical to the cold
        compile) and co-simulate it against the golden interpreter."""
        problems = []
        for cell, expected in chunk:
            index, core = self.cells[cell]
            artifact = compile_isax(self.sources[index], core, opt=2)
            if digest(artifact.verilog, artifact.config_yaml) != expected:
                problems.append(f"cell {cell}: output differs from the "
                                f"cold compile")
            report = verify_artifact(artifact, trials=self.cosim_trials,
                                     seed=cell, sim_engine="batched")
            if not report.passed:
                problems.append(f"cell {cell}: {report}")
        return problems

    def check(self, window) -> int:
        children = procs.Children()
        for part in range(CONCURRENCY):
            children.start(part, self._check_cells,
                           self.done[part::CONCURRENCY])
        while len(children):
            _part, payload, _elapsed = children.wait_one()
            if not payload["ok"]:
                window.fail(payload["error"])
                continue
            for problem in payload["result"]:
                window.fail(problem)
        children.close()
        return len(self.done)


class VerifySweep(Workload):
    """One op: one ``verify_artifact`` call of ``trials`` seeded trials on
    a Table 3 artifact, alternating the ``auto`` and ``batched`` engines."""

    name = "verify_sweep"
    layers = ("absint", "simgen", "rtl.scalar", "rtl.batched", "golden",
              "cosim")
    nominal_rate = 20.0
    trials = 16
    engines = ("auto", "batched")

    def setup(self) -> None:
        self.artifacts = [compile_isax(source, core)
                          for source in ALL_ISAXES.values()
                          for core in CORES]

    def run(self, deadline, limit) -> Window:
        window = Window()
        order: List[Tuple[int, str]] = []
        window.begin = time.perf_counter()
        # A timed window ends with a whole pass, so that every window
        # holds the same mix of artifacts and engines whatever the seed.
        while (self._more(deadline, limit, window.attempted)
               or (order and limit is None)):
            if not order:
                # Each pass visits every artifact once per engine, the
                # two engines back to back, in a seeded artifact order.
                artifacts = list(range(len(self.artifacts)))
                self.rng.shuffle(artifacts)
                order = [(index, engine) for index in reversed(artifacts)
                         for engine in reversed(self.engines)]
            index, engine = order.pop()
            artifact = self.artifacts[index]
            trial_seed = self.rng.getrandbits(32)
            start = time.perf_counter()
            report = verify_artifact(artifact, trials=self.trials,
                                     seed=trial_seed, sim_engine=engine)
            window.latencies.append(time.perf_counter() - start)
            window.attempted += 1
            if not report.passed:
                window.fail(str(report))
        window.finish()
        return window


class FuzzCampaign(Workload):
    """One op: one generated program checked on one paper core by an
    inline ``run_campaign`` with every oracle but ``batchsim``; cores
    rotate, one single-seed campaign per op."""

    name = "fuzz_campaign"
    layers = COMPILE_LAYERS + (
        "absint", "simgen", "rtl.scalar", "golden", "cosim",
        "equiv", "fuzz.generate", "fuzz.oracles", "discover.enumerate",
        "discover.emit", "service")
    nominal_rate = 2.0
    #: Fixed program pool: about twice what a 15 s window uses on a
    #: 2-vCPU host (45 to 80 programs measured).
    programs = 120
    #: ``batchsim`` is left out: on some generated programs its engine
    #: crosscheck raises inside ``repro.sim.batch`` (an ``OverflowError``
    #: in ``lower_uint64``, an ``AttributeError`` in ``bool_to_uint64``),
    #: which ``run_campaign`` files as ``invalid``.  See the README's
    #: known defects.  verify_sweep times the batched engine instead.
    oracles = tuple(kind for kind in ALL_ORACLES if kind != "batchsim")

    def setup(self) -> None:
        os.makedirs(OUT_DIR, exist_ok=True)
        self.out = tempfile.mkdtemp(prefix="fuzz-", dir=OUT_DIR)
        base = self.rng.randrange(1 << 30)
        self.seeds = interleave_strata(
            list(range(base, base + self.programs)),
            lambda seed: (len(generate_program(seed).source), seed),
            self.strata, self.rng)

    def run(self, deadline, limit) -> Window:
        window = Window()
        window.begin = time.perf_counter()
        while (window.attempted < len(self.seeds)
               and self._more(deadline, limit, window.attempted)):
            op = window.attempted
            config = FuzzConfig(
                seeds=1, seed_start=self.seeds[op],
                cores=(DEFAULT_CORES[op % len(DEFAULT_CORES)],),
                workers=1, oracles=self.oracles, out_dir=self.out)
            start = time.perf_counter()
            result = run_campaign(config)
            window.latencies.append(time.perf_counter() - start)
            window.attempted += 1
            outcome = result.outcomes[0]
            if outcome.status != "pass":
                window.fail(f"seed {outcome.seed} on {config.cores[0]}: "
                            f"{outcome.status} {outcome.detail}"
                            f"{outcome.failures[:1]}")
        window.finish()
        if window.attempted == len(self.seeds):
            print("perfbench: fuzz_campaign used all its programs before "
                  "the deadline; raise programs")
        return window

    def close(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


class ServeMixed(Workload):
    """One op: one ``POST /v1/compile`` with ``wait: true`` to an
    in-process server, from a closed loop of two client connections that
    send in rounds of two concurrent requests.

    The request mix is that of ``benchmarks/bench_compile_server.py`` at
    its defaults: of its 2,264 requests, 64 (2.8%) are coalesce-burst
    duplicates, 40 (1.8%) are first-touch cold compiles and 2,160 (95.4%)
    are warm grid repeats.  Rounded to blocks of 25 rounds (50 requests),
    each block holds one duplicate pair of a fresh source (4%), one fresh
    source (2%) and 47 warm Table 3 grid repeats (94%), in a seeded order.
    """

    name = "serve_mixed"
    layers = COMPILE_LAYERS + ("service",)
    nominal_rate = 200.0
    block_rounds = 25
    #: Fixed pool of generated sources; a block uses two, so 512 cover
    #: 12,800 requests, about twice what a 15 s window sends on a 2-vCPU
    #: host.  A window that uses them all ends early and says so.
    fresh_sources = 512
    samples_per_kind = 4
    opt_level = 2

    def setup(self) -> None:
        os.makedirs(OUT_DIR, exist_ok=True)
        self.cache_dir = tempfile.mkdtemp(prefix="serve-", dir=OUT_DIR)
        base = self.rng.randrange(1 << 30)
        self.fresh = interleave_strata(
            [generate_program(base + k).source
             for k in range(self.fresh_sources)],
            lambda source: (len(source), source), self.strata, self.rng)
        self.fresh.reverse()                 # popped from the end
        self.grid = [(name, core) for name in ALL_ISAXES
                     for core in GRID_CORES]
        self.loop = asyncio.new_event_loop()
        self.core = CompileServer(workers=CONCURRENCY, backend="thread",
                                  disk_cache=ArtifactCache(self.cache_dir))
        self.app = CompileServerApp(self.core)
        self.loop.run_until_complete(self._start())

    async def _start(self) -> None:
        host, port = await self.app.start("127.0.0.1", 0)
        self.client = CompileServerClient(f"http://{host}:{port}")
        # Warm the memory tier with the Table 3 grid.
        for first in range(0, len(self.grid), CONCURRENCY):
            jobs = await asyncio.gather(*[
                self.client.compile(isax=name, core=core,
                                    opt_level=self.opt_level,
                                    include_result=False)
                for name, core in self.grid[first:first + CONCURRENCY]])
            for job in jobs:
                if job["state"] != "ok":
                    raise RuntimeError(f"warm-up compile failed: {job}")

    def run(self, deadline, limit) -> Window:
        return self.loop.run_until_complete(self._window(deadline, limit))

    def _warm(self) -> Tuple[str, dict]:
        name, core = self.grid[self.rng.randrange(len(self.grid))]
        return "warm", {"isax": name, "core": core}

    def _fresh(self, kind: str) -> Tuple[str, dict]:
        core = GRID_CORES[self.rng.randrange(len(GRID_CORES))]
        return kind, {"source": self.fresh.pop(), "core": core}

    def _block(self) -> List[List[Tuple[str, dict]]]:
        """One block of rounds, in a seeded order."""
        rounds = [[self._fresh("pair")] * 2,
                  [self._fresh("fresh"), self._warm()]]
        rounds += [[self._warm(), self._warm()]
                   for _ in range(self.block_rounds - 2)]
        self.rng.shuffle(rounds)
        for pair in rounds:
            self.rng.shuffle(pair)
        return rounds

    async def _window(self, deadline, limit) -> Window:
        window = Window()
        self.samples: Dict[str, List[Tuple[dict, dict]]] = {}
        timings: Dict[str, List[float]] = {
            "queue_wait_ms": [], "exec_ms": [], "http_ms": []}
        before = (await self.client.metrics())["server"]["counters"]

        async def one(kind: str, request: dict) -> None:
            start = time.perf_counter()
            try:
                job = await self.client.compile(
                    opt_level=self.opt_level, wait=True, **request)
            except CompileServerError as err:
                window.fail(f"{kind} request: HTTP {err.status} {err}")
                return
            elapsed = time.perf_counter() - start
            if job["state"] != "ok":
                window.fail(f"{kind} request: {job.get('error')}")
                return
            window.latencies.append(elapsed)
            total = job.get("total_s") or 0.0
            timings["http_ms"].append((elapsed - total) * 1000.0)
            if not job["cached"] and not job["coalesced"]:
                timings["queue_wait_ms"].append(job["queue_wait_s"] * 1000.0)
                timings["exec_ms"].append(job["run_s"] * 1000.0)
            kept = self.samples.setdefault(kind, [])
            if len(kept) < self.samples_per_kind:
                kept.append((request, job["result"]))

        rounds: List[List[Tuple[str, dict]]] = []
        window.begin = time.perf_counter()
        while self._more(deadline, limit, window.attempted):
            if not rounds:
                if len(self.fresh) < 2:
                    print("perfbench: serve_mixed used all its fresh "
                          "sources before the deadline; raise "
                          "fresh_sources")
                    break
                rounds = self._block()[::-1]
            pair = rounds.pop()
            window.attempted += len(pair)
            await asyncio.gather(*[one(kind, request)
                                   for kind, request in pair])
        window.finish()

        after = (await self.client.metrics())["server"]["counters"]
        counters = {key: after[key] - before[key] for key in after}
        window.extra = {
            "server.coalesced": counters["coalesced"],
            "server.memory_hits": counters["cache_hits_memory"],
            "server.misses": counters["cache_misses"],
        }
        for key, values in timings.items():
            window.extra[f"server.{key}.p50"] = _median(values)
        return window

    def check(self, window) -> int:
        """Sampled responses must be byte-identical to a library compile
        of the same cell."""
        checks = 0
        for kind, samples in self.samples.items():
            for request, result in samples:
                source = request.get("source") or ALL_ISAXES[request["isax"]]
                artifact = compile_isax(source, request["core"],
                                        opt=self.opt_level)
                checks += 1
                if (result["verilog"] != artifact.verilog
                        or result["config_yaml"] != artifact.config_yaml):
                    window.fail(f"{kind} response for {request['core']} "
                                f"differs from compile_isax")
        return checks

    def close(self) -> None:
        self.loop.run_until_complete(self.app.close(drain=True))
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def _median(values: List[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


WORKLOADS: Dict[str, Any] = {
    cls.name: cls
    for cls in (CompileGrid, VerifySweep, FuzzCampaign, ServeMixed)
}
