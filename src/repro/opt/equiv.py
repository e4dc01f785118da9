"""Optimized-vs-unoptimized equivalence by architectural trace comparison.

Two artifacts compiled from the same source at different -O levels must be
architecturally indistinguishable.  Port *names* are not comparable across
levels (they carry schedule-stage suffixes and the schedules legitimately
differ), so the trace normalizes RTL outputs to architectural roles — GPR
writeback, PC redirect, memory write/read request, custom-register traffic
— through the port records the cosim runner resolves, and gates every
data/address field on its valid bit (a lane that is not written is a
don't-care and is recorded as ``-``).

Stimuli are drawn from a seed-keyed RNG with ``verify_artifact``'s
stimulus draw, so both artifacts see the exact same architectural states
and operand values; the resulting trace strings are required to be
byte-identical.

This module imports the simulator and HLS layers — keep it out of
``repro.opt.__init__`` (``hls.longnail`` imports ``repro.opt.pipeline``).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.hls.longnail import IsaxArtifact
from repro.sim.cosim import _draw_stimulus, _encoding, _Ports, _run_trials


def _trace_fields(ports: _Ports, outputs: Dict[str, int],
                  regs: List[str]) -> List[str]:
    def value(port: Optional[str]) -> Optional[int]:
        return None if port is None else outputs[port]

    def standard(role: str, signal: str) -> Optional[int]:
        return value(ports.outputs.get((role, signal)))

    def gated(data: Optional[int], valid: Optional[int]) -> str:
        return "-" if not valid or data is None else f"{data:x}"

    fields = [
        "rd=" + gated(standard("WrRD", "data"), standard("WrRD", "valid")),
        "pc=" + gated(standard("WrPC", "data"), standard("WrPC", "valid")),
    ]
    if standard("WrMem", "valid"):
        waddr = standard("WrMem", "addr")
        wdata = standard("WrMem", "data")
        addr_text = "-" if waddr is None else f"{waddr:x}"
        data_text = "-" if wdata is None else f"{wdata:x}"
        fields.append(f"memw={addr_text}:{data_text}")
    else:
        fields.append("memw=-")
    raddr = standard("RdMem", "addr")
    fields.append("memr=" + ("-" if raddr is None else f"{raddr:x}"))
    for reg in regs:
        write = ports.writes.get(reg, {})
        fields.append(f"{reg}=" + gated(value(write.get("data")),
                                        value(write.get("valid"))))
        read_addr = value(ports.read_index.get(reg))
        if read_addr is not None:
            fields.append(f"{reg}.r={read_addr:x}")
    return fields


def architectural_trace(artifact: IsaxArtifact, trials: int = 4,
                        seed: int = 0, sim_engine: str = "auto") -> str:
    """One line per (functionality, trial): role-normalized RTL effects.

    The stimulus sequence depends only on the ISA, ``seed`` and ``trials``
    — never on the artifact's schedule or port names — so traces from
    different -O levels of the same source are directly comparable.
    """
    lines = []
    isa = artifact.isa
    for name in sorted(artifact.functionalities):
        rng = random.Random(f"{seed}:{name}")
        encoding = _encoding(artifact, name)
        specs = [_draw_stimulus(isa, encoding, rng) for _ in range(trials)]
        ports, results = _run_trials(artifact, name, specs, sim_engine)
        for trial, ((state, _fields), result) in enumerate(
                zip(specs, results)):
            parts = [f"{name} t{trial}", f"ok={int(result.matches)}"]
            parts.extend(_trace_fields(ports, result.rtl_outputs,
                                       sorted(state.custom)))
            lines.append(" ".join(parts))
    return "\n".join(lines)


def compare_artifacts(baseline: IsaxArtifact, optimized: IsaxArtifact,
                      trials: int = 4, seed: int = 0,
                      sim_engine: str = "auto") -> Optional[str]:
    """None when the traces are byte-identical, else the first difference."""
    base_trace = architectural_trace(baseline, trials, seed, sim_engine)
    opt_trace = architectural_trace(optimized, trials, seed, sim_engine)
    if base_trace == opt_trace:
        return None
    for base_line, opt_line in zip(base_trace.splitlines(),
                                   opt_trace.splitlines()):
        if base_line != opt_line:
            return f"baseline: {base_line!r} != optimized: {opt_line!r}"
    return (f"trace length differs: baseline "
            f"{len(base_trace.splitlines())} lines, optimized "
            f"{len(opt_trace.splitlines())} lines")
