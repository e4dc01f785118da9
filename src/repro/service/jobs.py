"""The batch compilation job model.

A :class:`CompileJob` is one cell of the portability grid the paper's
headline claim implies: *one* CoreDSL ISAX source compiled for *one* host
core under one scheduler configuration.  The job is pure data — source
text, core name (or an inline datasheet), scheduler engine and target
cycle time — so it can be hashed for the artifact cache and shipped to a
worker process unchanged.

Compilation proceeds through the explicit phase boundaries of
:data:`repro.hls.longnail.PHASES`:

    parse -> lower -> schedule -> hwgen -> emit

and the executor records wall-time per phase per job
(:mod:`repro.service.metrics`).

Grids come from :func:`job_grid` (cross product of ISAXes x cores x cycle
scales) or from a YAML manifest via :func:`load_manifest`.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.opt.pipeline import OptOptions
from repro.scaiev.cores import core_datasheet
from repro.scaiev.datasheet import VirtualDatasheet
from repro.scheduling.scheduler import check_cycle_time
from repro.utils import yaml_lite
from repro.utils.diagnostics import CoreDSLError

#: Bump when the cached artifact record layout changes; part of every cache
#: key so stale-format entries simply miss.  "2" added the optimizer
#: configuration (opt_level / opt_passes) to records and keys.
CACHE_FORMAT_VERSION = "2"


def digest(*parts: str) -> str:
    """Stable content digest over an ordered sequence of strings."""
    hasher = hashlib.sha256()
    for part in parts:
        data = part.encode("utf-8")
        hasher.update(str(len(data)).encode("ascii"))
        hasher.update(b":")
        hasher.update(data)
    return hasher.hexdigest()


@dataclasses.dataclass(frozen=True)
class CompileJob:
    """One (ISAX, core, scheduler-options) compile request."""

    isax: str                       # label (manifest/grid name)
    source: str                     # CoreDSL source text
    core: str                       # core name, or "" when datasheet inline
    engine: str = "auto"
    cycle_time_ns: Optional[float] = None
    top: Optional[str] = None
    datasheet_yaml: Optional[str] = None   # overrides `core` when set
    opt_level: int = 0                     # -O level (0/1/2)
    opt_passes: Tuple[str, ...] = ()       # "+name"/"-name" overrides

    def opt_options(self) -> OptOptions:
        """The optimizer configuration this job compiles under."""
        return OptOptions.from_flags(self.opt_level, self.opt_passes)

    @property
    def job_id(self) -> str:
        suffix = "" if self.cycle_time_ns is None \
            else f"@{self.cycle_time_ns:g}ns"
        return f"{self.isax}/{self.core_label}{suffix}"

    @property
    def core_label(self) -> str:
        if self.datasheet_yaml is not None:
            return VirtualDatasheet.from_yaml(self.datasheet_yaml).core_name
        return self.core

    @property
    def source_digest(self) -> str:
        return digest(self.source)

    def resolve_datasheet(self) -> VirtualDatasheet:
        if self.datasheet_yaml is not None:
            return VirtualDatasheet.from_yaml(self.datasheet_yaml)
        return core_datasheet(self.core)

    def cache_key(self) -> str:
        """Content-addressed key: source text + datasheet + scheduler
        options.  Editing any of them (even re-deriving the datasheet from
        a changed core description) produces a different key.  Raises
        :class:`CoreDSLError` for an invalid cycle time or core."""
        check_cycle_time(self.cycle_time_ns)
        datasheet = self.resolve_datasheet()
        return digest(
            CACHE_FORMAT_VERSION,
            self.source,
            datasheet.to_yaml(),
            self.engine,
            repr(self.cycle_time_ns),
            repr(self.top),
            self.opt_options().fingerprint(),
        )

    def to_payload(self) -> dict:
        """Plain-dict form shipped to worker processes."""
        return {
            "isax": self.isax,
            "source": self.source,
            "core": self.core,
            "engine": self.engine,
            "cycle_time_ns": self.cycle_time_ns,
            "top": self.top,
            "datasheet_yaml": self.datasheet_yaml,
            "opt_level": self.opt_level,
            "opt_passes": list(self.opt_passes),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CompileJob":
        return cls(
            isax=payload["isax"],
            source=payload["source"],
            core=payload.get("core", ""),
            engine=payload.get("engine", "auto"),
            cycle_time_ns=payload.get("cycle_time_ns"),
            top=payload.get("top"),
            datasheet_yaml=payload.get("datasheet_yaml"),
            opt_level=int(payload.get("opt_level", 0)),
            opt_passes=tuple(payload.get("opt_passes") or ()),
        )


def _resolve_source(name: str, sources: Optional[Dict[str, str]]) -> str:
    if sources and name in sources:
        return sources[name]
    from repro.isaxes import ALL_ISAXES

    if name not in ALL_ISAXES:
        raise CoreDSLError(
            f"unknown ISAX {name!r}; available: "
            + ", ".join(sorted(ALL_ISAXES))
        )
    return ALL_ISAXES[name]


def job_grid(
    isaxes: Sequence[str],
    cores: Sequence[str],
    cycle_scales: Sequence[Optional[float]] = (None,),
    engine: str = "auto",
    sources: Optional[Dict[str, str]] = None,
    opt_level: int = 0,
    opt_passes: Sequence[str] = (),
) -> List[CompileJob]:
    """Cross product (ISAX x core x cycle scale) -> deterministic job list.

    ``cycle_scales`` multiply each core's native cycle time; ``None`` keeps
    the core's f_max target.  ``sources`` maps ISAX labels to CoreDSL text
    and overrides the built-in Table 3 set.  ``opt_level``/``opt_passes``
    select the optimizer pipeline every job compiles under.
    """
    OptOptions.from_flags(opt_level, opt_passes)   # validates early
    jobs: List[CompileJob] = []
    for isax in isaxes:
        source = _resolve_source(isax, sources)
        for core in cores:
            datasheet = core_datasheet(core)   # validates the name early
            for scale in cycle_scales:
                cycle = None if scale is None \
                    else datasheet.cycle_time_ns * scale
                jobs.append(CompileJob(
                    isax=isax, source=source, core=core,
                    engine=engine, cycle_time_ns=cycle,
                    opt_level=opt_level, opt_passes=tuple(opt_passes),
                ))
    return jobs


def load_manifest(text: str,
                  sources: Optional[Dict[str, str]] = None) -> List[CompileJob]:
    """Parse a batch manifest (YAML) into a job list.

    Two styles, combinable in one file:

    * grid keys — ``isaxes``, ``cores``, plus optional ``cycle_scales``
      and ``engine``; expanded via :func:`job_grid`,
    * an explicit ``jobs`` sequence of ``{isax, core}`` mappings with
      optional ``cycle_time``, ``engine`` and ``top`` per entry.
    """
    doc = yaml_lite.loads(text)
    if not isinstance(doc, dict):
        raise CoreDSLError("batch manifest must be a YAML mapping")
    jobs: List[CompileJob] = []
    doc_level = int(doc.get("opt_level") or 0)
    doc_passes = tuple(doc.get("opt_passes") or ())
    if "isaxes" in doc or "cores" in doc:
        isaxes = doc.get("isaxes") or []
        cores = doc.get("cores") or []
        if not isaxes or not cores:
            raise CoreDSLError(
                "manifest grid needs both 'isaxes' and 'cores'"
            )
        scales = doc.get("cycle_scales") or [None]
        jobs.extend(job_grid(
            isaxes, cores, cycle_scales=scales,
            engine=doc.get("engine", "auto"), sources=sources,
            opt_level=doc_level, opt_passes=doc_passes,
        ))
    for entry in doc.get("jobs") or []:
        if not isinstance(entry, dict) or "isax" not in entry \
                or "core" not in entry:
            raise CoreDSLError(
                "manifest job entries need 'isax' and 'core' keys"
            )
        core_datasheet(entry["core"])          # validates the name early
        cycle = entry.get("cycle_time")
        jobs.append(CompileJob(
            isax=entry["isax"],
            source=_resolve_source(entry["isax"], sources),
            core=entry["core"],
            engine=entry.get("engine", "auto"),
            cycle_time_ns=float(cycle) if cycle is not None else None,
            top=entry.get("top"),
            opt_level=int(entry.get("opt_level", doc_level)),
            opt_passes=tuple(entry.get("opt_passes") or doc_passes),
        ))
    if not jobs:
        raise CoreDSLError("batch manifest describes no jobs")
    return jobs
