"""Discovery orchestration: enumerate -> price -> Pareto -> report.

:func:`discover` is the one entry point behind the ``repro-longnail
discover`` CLI subcommand, the server's ``POST /v1/discover`` task and
the ``benchmarks/bench_discovery.py`` artifact: it enumerates candidate
instructions from a registered kernel, prices every (candidate,
fold-variant) through the real toolchain via the service executor (or a
compile server), keeps the verified survivors, and selects the Pareto
front on *measured speedup vs. silicon area* — the same two axes the
paper's Section 7 outlook names for automated design-space exploration.

The winner (highest speedup; area breaks ties) is written to disk as a
ready-to-use ``.core_desc`` next to the JSON report.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.discover.enumerate import enumerate_candidates
from repro.discover.kernel import resolve_kernel
from repro.discover.pricing import PricingRequest, price_candidates
from repro.service.cache import ArtifactCache
from repro.service.executor import BatchExecutor


@dataclasses.dataclass
class DiscoveryConfig:
    """Everything one discovery search needs (JSON-able end to end)."""

    kernel: str
    params: Dict[str, int] = dataclasses.field(default_factory=dict)
    core: str = "VexRiscv"
    opt: int = 2
    trials: int = 5
    seed: int = 0
    max_nodes: int = 32
    max_inputs: int = 2
    max_outputs: int = 1
    max_mem: int = 1
    promote_state: bool = True
    try_fold: bool = True
    budget: int = 24                    # max priced variants
    enum_budget: int = 4000
    workers: int = 1
    cache_dir: Optional[str] = None
    server_url: Optional[str] = None
    priority: str = "batch"

    def to_payload(self) -> dict:
        payload = dataclasses.asdict(self)
        # a search running *on* a server must not recurse into another
        payload.pop("server_url", None)
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "DiscoveryConfig":
        if "kernel" not in payload:
            raise ValueError("discover payload needs a 'kernel' name")
        if not isinstance(payload["kernel"], str):
            raise ValueError("'kernel' must be a string")
        fields = {f.name: f for f in dataclasses.fields(cls)}
        kwargs = {k: v for k, v in payload.items()
                  if k in fields and k != "server_url"}
        for name, value in kwargs.items():
            # Scalar fields take exactly their default's type (a bool is
            # not an int here), so a malformed search fails before it runs.
            expected = type(fields[name].default)
            if expected in (int, bool, str) and type(value) is not expected:
                raise ValueError(
                    f"'{name}' must be {expected.__name__}, got {value!r}")
        params = kwargs.get("params") or {}
        if not isinstance(params, dict):
            raise ValueError("'params' must be an object")
        kwargs["params"] = {str(k): int(v) for k, v in params.items()}
        return cls(**kwargs)


def dominates(a: dict, b: dict) -> bool:
    """Pareto dominance on (speedup up, area down)."""
    no_worse = (a["speedup"] >= b["speedup"]
                and a["area_um2"] <= b["area_um2"])
    better = (a["speedup"] > b["speedup"]
              or a["area_um2"] < b["area_um2"])
    return no_worse and better


def pareto_front(records: Sequence[dict]) -> List[dict]:
    """Non-dominated verified records, fastest first."""
    priced = [r for r in records if r.get("ok") and "speedup" in r]
    front = [r for r in priced
             if not any(dominates(q, r) for q in priced if q is not r)]
    return sorted(front, key=lambda r: (-r["speedup"], r["area_um2"]))


@dataclasses.dataclass
class DiscoveryReport:
    """Outcome of one :func:`discover` run."""

    config: DiscoveryConfig
    kernel_fingerprint: str
    candidates_enumerated: int
    variants_priced: int
    records: List[dict]
    pareto: List[dict]
    winner: Optional[dict]
    pricing_stats: dict
    elapsed_s: float

    @property
    def verified(self) -> List[dict]:
        return [r for r in self.records if r.get("ok")]

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_payload(),
            "kernel_fingerprint": self.kernel_fingerprint,
            "candidates_enumerated": self.candidates_enumerated,
            "variants_priced": self.variants_priced,
            "records": self.records,
            "pareto": self.pareto,
            "winner": self.winner,
            "pricing_stats": self.pricing_stats,
            "elapsed_s": self.elapsed_s,
        }


def discover(config: DiscoveryConfig,
             executor: Optional[BatchExecutor] = None) -> DiscoveryReport:
    """Run one full discovery search."""
    import time

    start = time.perf_counter()
    kernel = resolve_kernel(config.kernel, **config.params)
    candidates = enumerate_candidates(
        kernel,
        max_nodes=config.max_nodes,
        max_inputs=config.max_inputs,
        max_outputs=config.max_outputs,
        max_mem=config.max_mem,
        promote_state=config.promote_state,
        enum_budget=config.enum_budget,
    )

    requests: List[PricingRequest] = []
    for candidate in candidates:
        folds: Tuple[bool, ...] = (True, False) if config.try_fold else (
            False,)
        for fold in folds:
            requests.append(PricingRequest(
                kernel=config.kernel,
                params=config.params,
                candidate=candidate,
                fold=fold,
                core=config.core,
                opt=config.opt,
                trials=config.trials,
                seed=config.seed,
            ))
    requests = requests[:max(0, config.budget)]

    if executor is None and config.server_url is None:
        cache = (ArtifactCache(pathlib.Path(config.cache_dir))
                 if config.cache_dir else None)
        executor = BatchExecutor(workers=config.workers, cache=cache)

    records, stats = price_candidates(
        requests,
        kernel.fingerprint(),
        executor=executor if config.server_url is None else None,
        server_url=config.server_url,
        priority=config.priority,
    )

    front = pareto_front(records)
    winner = front[0] if front else None
    return DiscoveryReport(
        config=config,
        kernel_fingerprint=kernel.fingerprint(),
        candidates_enumerated=len(candidates),
        variants_priced=len(requests),
        records=records,
        pareto=front,
        winner=winner,
        pricing_stats=stats,
        elapsed_s=time.perf_counter() - start,
    )


def write_report(report: DiscoveryReport,
                 out_dir: pathlib.Path) -> Dict[str, pathlib.Path]:
    """Persist the JSON report and the winning CoreDSL; returns paths."""
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths: Dict[str, pathlib.Path] = {}

    report_path = out_dir / f"discover_{report.config.kernel}.json"
    report_path.write_text(json.dumps(report.to_dict(), indent=2,
                                      sort_keys=True))
    paths["report"] = report_path

    if report.winner is not None and report.winner.get("source"):
        winner_path = out_dir / f"{report.config.kernel}_winner.core_desc"
        winner_path.write_text(report.winner["source"])
        paths["winner"] = winner_path
    return paths


def render_report(report: DiscoveryReport) -> str:
    """Human-readable ranking table for the CLI."""
    lines = [
        f"# discover {report.config.kernel} on {report.config.core}: "
        f"{report.candidates_enumerated} candidates, "
        f"{report.variants_priced} variants priced, "
        f"{len(report.verified)} verified, "
        f"{len(report.pareto)} on the Pareto front "
        f"({report.elapsed_s:.1f}s)",
        f"{'label':<24} {'ops':<14} {'speedup':>8} {'area um2':>9} "
        f"{'cycles':>7} {'mkspan':>6} {'pareto':>7}",
    ]
    chosen = {r["digest"] + str(r["fold"]) for r in report.pareto}
    ranked = sorted(report.verified,
                    key=lambda r: -r.get("speedup", 0.0))
    for record in ranked:
        ops = record.get("ops", "")
        ops_short = ops.split(" ")[0][:14]
        mark = "*" if record["digest"] + str(record["fold"]) in chosen \
            else ""
        lines.append(
            f"{record['label']:<24} {ops_short:<14} "
            f"{record.get('speedup', 0.0):>8.2f} "
            f"{record.get('area_um2', 0.0):>9.0f} "
            f"{record.get('cycles', 0):>7} "
            f"{record.get('makespan', 0):>6} {mark:>7}")
    failed = [r for r in report.records if not r.get("ok")]
    if failed:
        lines.append(f"# {len(failed)} variants rejected: " + ", ".join(
            sorted({str(r.get('failed_gate')) for r in failed})))
    stats = report.pricing_stats
    lines.append(
        f"# pricing: {stats.get('executed', 0)} executed, "
        f"{stats.get('cached', 0)} from cache, "
        f"{stats.get('failed', 0)} failed")
    return "\n".join(lines)
