"""Co-simulation harness: generated RTL vs the CoreDSL golden model.

The paper verifies extended cores by RTL simulation (Section 5.3).  This
module packages that methodology as a library feature: given a compiled
:class:`~repro.hls.longnail.IsaxArtifact`, it executes each instruction (or
always-block) once through the CoreDSL interpreter and once through the
cycle-level RTL simulation of the generated module, and compares every
architectural effect — GPR result, PC redirect, memory request, custom
register writes — including the valid bits.

Memory reads are resolved with a fixpoint loop: the module's address
outputs are observed, the corresponding data is fed back on the
``mem_rdata``/``rd<REG>_data`` inputs, and simulation repeats until the
requests stabilize (one round suffices unless an address depends on loaded
data).

``verify_artifact`` runs randomized trials over all functionalities; it is
what a downstream ISAX author would call before handing the SystemVerilog
to a real flow.  With ``sim_engine="batched"`` the randomized trials of
each functionality are evaluated together through the numpy lane-parallel
engine (one lane per trial, :meth:`repro.sim.batch.BatchedSimulator
.run_const`); functionalities whose datapath reads memory or indexed
custom registers need the per-trial feedback fixpoint and transparently
fall back to the scalar path — both populations are counted on the
report (``batched_trials`` / ``scalar_fallbacks``).
"""

from __future__ import annotations

import dataclasses
import os
import random
from typing import Dict, List, Optional

from repro.hls.longnail import FunctionalityArtifact, IsaxArtifact
from repro.sim.coredsl_interp import ArchState, CoreDSLInterpreter, Effect
from repro.sim.rtl_sim import RTLSimulator
from repro.utils.bits import to_unsigned


@dataclasses.dataclass
class Mismatch:
    kind: str
    detail: str


@dataclasses.dataclass
class CosimResult:
    """Outcome of co-simulating one functionality on one stimulus."""

    functionality: str
    matches: bool
    mismatches: List[Mismatch]
    golden_effects: List[Effect]
    rtl_outputs: Dict[str, int]
    #: The input vector the RTL was driven with (after memory/register read
    #: feedback settled) — enough to re-trace the failing trial.
    rtl_inputs: Dict[str, int] = dataclasses.field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.matches


def _port_groups(module) -> Dict[str, List[str]]:
    groups: Dict[str, List[str]] = {}
    for port in module.ports:
        base = port.name.rsplit("_", 1)[0]
        groups.setdefault(base, []).append(port.name)
    return groups


def _find_output(outputs: Dict[str, int], prefix: str) -> Optional[int]:
    for name, value in outputs.items():
        if name.startswith(prefix):
            return value
    return None


def _depth(functionality: FunctionalityArtifact) -> int:
    """Cycles until a functionality's outputs are steady."""
    return functionality.schedule.makespan + 2


def _steady_outputs(functionality: FunctionalityArtifact,
                    inputs: Dict[str, int], sim_engine: str,
                    depth: int) -> Dict[str, int]:
    sim = RTLSimulator(functionality.module, engine=sim_engine)
    outputs: Dict[str, int] = {}
    for _ in range(depth):
        outputs = sim.step(inputs)
    return outputs


def _fork_state(state: ArchState) -> ArchState:
    """Snapshot ``state`` for the golden model (which mutates its copy)."""
    golden = ArchState()
    golden.xregs = list(state.xregs)
    golden.pc = state.pc
    golden.memory = dict(state.memory)
    golden.custom = {k: list(v) for k, v in state.custom.items()}
    golden.custom_widths = dict(state.custom_widths)
    return golden


def _instruction_inputs(module, state: ArchState,
                        field_values: Dict[str, int],
                        word: int) -> Dict[str, int]:
    """Initial RTL input vector for an instruction trial (before any
    memory/indexed-register read feedback)."""
    rs1 = field_values.get("rs1", 0)
    rs2 = field_values.get("rs2", 0)
    inputs: Dict[str, int] = {}
    for port in module.inputs:
        if port.name.startswith("rs1_data"):
            inputs[port.name] = state.read_x(rs1)
        elif port.name.startswith("rs2_data"):
            inputs[port.name] = state.read_x(rs2)
        elif port.name.startswith("pc_data"):
            inputs[port.name] = state.pc
        elif port.name.startswith("instr_word"):
            inputs[port.name] = word
        elif port.name.startswith("rd") and "_data_" in port.name:
            # Custom-register read data: scalar reads have no address port,
            # so resolve them immediately from the pre-state.
            reg = port.name[2:port.name.index("_data_")]
            if reg in state.custom:
                inputs[port.name] = state.read_custom(reg)
    return inputs


def _always_inputs(module, state: ArchState) -> Dict[str, int]:
    """RTL input vector for one always-block evaluation."""
    inputs: Dict[str, int] = {}
    for port in module.inputs:
        if port.name.startswith("pc_data"):
            inputs[port.name] = state.pc
        elif port.name.startswith("rd") and "_data_" in port.name:
            reg = port.name[2:port.name.index("_data_")]
            if reg in state.custom:
                inputs[port.name] = state.read_custom(reg)
    return inputs


def _needs_feedback(module) -> bool:
    """True when the datapath observes read responses that depend on its
    own outputs: memory loads (``mem_raddr`` -> ``mem_rdata``) or indexed
    custom-register reads (``rd<REG>_addr`` -> ``rd<REG>_data``).  Such
    trials need the scalar fixpoint loop; everything else can run as one
    batched lane with constant inputs."""
    reads_mem = (
        any(p.name.startswith("mem_raddr") for p in module.outputs)
        and any(p.name.startswith("mem_rdata") for p in module.inputs))
    if reads_mem:
        return True
    indexed = {p.name[2:p.name.index("_addr_")]
               for p in module.outputs
               if p.name.startswith("rd") and "_addr_" in p.name}
    return any(
        p.name.startswith("rd") and "_data_" in p.name
        and p.name[2:p.name.index("_data_")] in indexed
        for p in module.inputs)


def cosim_instruction(artifact: IsaxArtifact, name: str, state: ArchState,
                      field_values: Dict[str, int],
                      sim_engine: str = "auto") -> CosimResult:
    """Co-simulate one instruction against a *copy* of ``state``."""
    return _cosim_instruction(artifact, name, state, field_values,
                              sim_engine, _depth(artifact.artifact(name)))


def _cosim_instruction(artifact: IsaxArtifact, name: str, state: ArchState,
                       field_values: Dict[str, int], sim_engine: str,
                       depth: int) -> CosimResult:
    functionality = artifact.artifact(name)
    isa = artifact.isa
    encoding = isa.instructions[name].encoding
    word = encoding.encode(field_values)

    # --- golden execution on a snapshot -------------------------------------
    golden_state = _fork_state(state)
    interp = CoreDSLInterpreter(isa)
    effects = interp.execute_instruction(golden_state, name, word)

    # --- RTL execution with memory/register read feedback -------------------
    module = functionality.module
    inputs = _instruction_inputs(module, state, field_values, word)

    outputs = _steady_outputs(functionality, inputs, sim_engine, depth)
    for _round in range(3):
        changed = False
        read_addr = _find_output(outputs, "mem_raddr")
        if read_addr is not None:
            size = next(
                (p.width for p in module.inputs
                 if p.name.startswith("mem_rdata")), 32
            )
            data = state.read_mem(read_addr, size // 8)
            for port in module.inputs:
                if port.name.startswith("mem_rdata"):
                    if inputs.get(port.name) != data:
                        inputs[port.name] = data
                        changed = True
        for port in module.outputs:
            # Indexed custom-register reads: feed data for the index.
            if port.name.startswith("rd") and "_addr_" in port.name:
                reg = port.name[2:port.name.index("_addr_")]
                if reg in state.custom:
                    index = outputs[port.name]
                    data = state.read_custom(reg, index)
                    for in_port in module.inputs:
                        if in_port.name.startswith(f"rd{reg}_data"):
                            if inputs.get(in_port.name) != data:
                                inputs[in_port.name] = data
                                changed = True
        if not changed:
            break
        outputs = _steady_outputs(functionality, inputs, sim_engine, depth)

    return _compare(functionality, effects, outputs, state, golden_state,
                    inputs)


def cosim_always(artifact: IsaxArtifact, name: str,
                 state: ArchState, sim_engine: str = "auto") -> CosimResult:
    """Co-simulate one always-block evaluation (single combinational
    cycle)."""
    functionality = artifact.artifact(name)
    isa = artifact.isa
    golden_state = _fork_state(state)
    interp = CoreDSLInterpreter(isa)
    effects = interp.execute_always(golden_state, name)

    module = functionality.module
    inputs = _always_inputs(module, state)
    outputs = RTLSimulator(module, engine=sim_engine).step(inputs)
    return _compare(functionality, effects, outputs, state, golden_state,
                    inputs)


def _compare(functionality: FunctionalityArtifact, effects: List[Effect],
             outputs: Dict[str, int], pre: ArchState,
             post: ArchState,
             inputs: Optional[Dict[str, int]] = None) -> CosimResult:
    mismatches: List[Mismatch] = []

    def check(kind: str, expect_value: Optional[int], data_prefix: str,
              valid_prefix: str, width: int = 32) -> None:
        valid = _find_output(outputs, valid_prefix)
        data = _find_output(outputs, data_prefix)
        if expect_value is None:
            if valid not in (None, 0):
                mismatches.append(Mismatch(
                    kind, f"RTL asserts {valid_prefix}* but the golden "
                          "model performs no such write"))
            return
        if data is None:
            mismatches.append(Mismatch(
                kind, f"module has no {data_prefix}* output"))
            return
        if valid == 0:
            mismatches.append(Mismatch(
                kind, f"golden model writes {expect_value:#x} but the RTL "
                      f"valid bit is low"))
            return
        if to_unsigned(data, width) != to_unsigned(expect_value, width):
            mismatches.append(Mismatch(
                kind, f"value mismatch: rtl={data:#x} "
                      f"golden={to_unsigned(expect_value, width):#x}"))

    gpr = next((e for e in effects if e.kind == "gpr"), None)
    check("gpr", gpr.value if gpr else None, "wrrd_data", "wrrd_valid")

    pc = next((e for e in effects if e.kind == "pc"), None)
    check("pc", pc.value if pc else None, "wrpc_data", "wrpc_valid")

    mem = next((e for e in effects if e.kind == "mem"), None)
    if mem is not None:
        check("mem.data", mem.value, "mem_wdata", "mem_wvalid",
              width=mem.width)
        waddr = _find_output(outputs, "mem_waddr")
        if waddr is not None and waddr != mem.index:
            mismatches.append(Mismatch(
                "mem.addr", f"rtl={waddr:#x} golden={mem.index:#x}"))
    else:
        check("mem", None, "mem_wdata", "mem_wvalid")

    for effect in effects:
        if effect.kind != "custom":
            continue
        check(f"custom.{effect.name}", effect.value,
              f"wr{effect.name}_data", f"wr{effect.name}_valid",
              width=effect.width)

    return CosimResult(
        functionality=functionality.name,
        matches=not mismatches,
        mismatches=mismatches,
        golden_effects=effects,
        rtl_outputs=outputs,
        rtl_inputs=dict(inputs or {}),
    )


def _cosim_instruction_batch(artifact: IsaxArtifact, name: str,
                             specs, depth: int) -> List[CosimResult]:
    """Run every (state, fields) trial of one instruction as one lane of
    a single batched steady-state evaluation.  Only valid for datapaths
    without read feedback (see :func:`_needs_feedback`)."""
    from repro.sim.batch import BatchedSimulator  # deferred: numpy

    functionality = artifact.artifact(name)
    isa = artifact.isa
    encoding = isa.instructions[name].encoding
    module = functionality.module
    goldens = []
    vectors: List[Dict[str, int]] = []
    for state, fields in specs:
        word = encoding.encode(fields)
        golden_state = _fork_state(state)
        effects = CoreDSLInterpreter(isa).execute_instruction(
            golden_state, name, word)
        goldens.append((effects, golden_state))
        vectors.append(_instruction_inputs(module, state, fields, word))
    outs = BatchedSimulator(module).run_const(vectors, depth)
    return [
        _compare(functionality, effects, outputs, state, golden_state,
                 inputs)
        for (state, _), (effects, golden_state), inputs, outputs
        in zip(specs, goldens, vectors, outs)
    ]


def _cosim_always_batch(artifact: IsaxArtifact, name: str,
                        states) -> List[CosimResult]:
    """Run every always-block trial as one lane of a single-cycle batch."""
    from repro.sim.batch import BatchedSimulator  # deferred: numpy

    functionality = artifact.artifact(name)
    isa = artifact.isa
    module = functionality.module
    goldens = []
    vectors: List[Dict[str, int]] = []
    for state in states:
        golden_state = _fork_state(state)
        effects = CoreDSLInterpreter(isa).execute_always(golden_state, name)
        goldens.append((effects, golden_state))
        vectors.append(_always_inputs(module, state))
    outs = BatchedSimulator(module).run_const(vectors, 1)
    return [
        _compare(functionality, effects, outputs, state, golden_state,
                 inputs)
        for state, (effects, golden_state), inputs, outputs
        in zip(states, goldens, vectors, outs)
    ]


@dataclasses.dataclass
class VerificationReport:
    """Aggregate outcome of :func:`verify_artifact`."""

    artifact: str
    core: str
    trials: int
    failures: List[CosimResult]
    #: RNG seed the trials were drawn from; re-running with the same seed
    #: (and trial count) reproduces every stimulus exactly.
    seed: int = 0
    #: VCD waveforms dumped for failing trials (when ``vcd_dir`` was given).
    vcd_paths: List[str] = dataclasses.field(default_factory=list)
    #: Trials evaluated lane-parallel through the batched engine; only
    #: populated when ``sim_engine="batched"``.
    batched_trials: int = 0
    #: Trials that needed the scalar read-feedback fixpoint and fell back
    #: to the per-trial path despite ``sim_engine="batched"``.
    scalar_fallbacks: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures

    def __str__(self) -> str:
        status = "PASS" if self.passed else f"FAIL ({len(self.failures)})"
        batching = ""
        if self.batched_trials or self.scalar_fallbacks:
            batching = (f"{self.batched_trials} batched/"
                        f"{self.scalar_fallbacks} scalar-fallback, ")
        return (f"co-simulation of '{self.artifact}' on {self.core}: "
                f"{self.trials} trials, {batching}seed={self.seed}, "
                f"{status}")


def _dump_failure_vcd(functionality: FunctionalityArtifact,
                      result: CosimResult, vcd_dir: str, artifact_name: str,
                      core_name: str, seed: int, trial: int,
                      sim_engine: str, depth: int) -> str:
    """Trace the failing stimulus through the module and save a VCD next to
    the report, so the waveform is not discarded with the trial."""
    from repro.sim.vcd import VCDTracer  # deferred: keeps cosim import-light

    tracer = VCDTracer(functionality.module, engine=sim_engine)
    for _ in range(depth):
        tracer.step(result.rtl_inputs)
    os.makedirs(vcd_dir, exist_ok=True)
    path = os.path.join(
        vcd_dir,
        f"{artifact_name}-{core_name}-{result.functionality}"
        f"-seed{seed}-trial{trial}.vcd",
    )
    tracer.save(path)
    return path


def _draw_stimulus(isa, encoding, rng: random.Random):
    """One trial's ``(state, fields)``; ``fields`` is None for an
    always-block (no ``encoding``).

    The draw order is part of the seed contract: registers 1..31, the pc,
    custom registers (masked to their width), 64 memory bytes (address,
    then value), then the encoding fields.  Every drawn value is already in
    range, so it is stored without the checked ``write_*`` API.
    """
    getrandbits = rng.getrandbits
    state = ArchState(isa)
    xregs = state.xregs
    for index in range(1, 32):
        xregs[index] = getrandbits(32)
    state.pc = getrandbits(32) & ~3
    for reg, values in state.custom.items():
        mask = (1 << state.custom_widths[reg]) - 1
        for element in range(len(values)):
            values[element] = getrandbits(32) & mask
    memory = state.memory
    for _ in range(64):
        address = getrandbits(32)
        memory[address] = getrandbits(8)
    if encoding is None:
        return state, None
    fields = {fname: getrandbits(field.width)
              for fname, field in encoding.fields.items()}
    for reg_field in ("rs1", "rs2", "rd"):
        if reg_field in fields:
            fields[reg_field] = rng.randrange(32)
    return state, fields


def verify_artifact(artifact: IsaxArtifact, trials: int = 25,
                    seed: int = 0,
                    vcd_dir: Optional[str] = None,
                    sim_engine: str = "auto") -> VerificationReport:
    """Randomized co-simulation of every functionality in an artifact.

    ``seed`` is recorded in the report (and its printed line) so any
    mismatch is reproducible from the output alone; with ``vcd_dir`` set,
    each failing trial's waveform is saved as a VCD file there instead of
    being discarded.  ``sim_engine`` selects the RTL simulation engine
    (``auto``/``interp``/``compiled``/``batched``, see
    :mod:`repro.sim.compile`).  With ``batched``, each functionality's
    trials run lane-parallel through one numpy evaluation unless its
    datapath needs read feedback, in which case they fall back to the
    scalar per-trial path; the report counts both populations.  Stimuli
    are drawn in the same RNG order either way, so a seed reproduces the
    exact trial set regardless of engine.
    """
    rng = random.Random(seed)
    failures: List[CosimResult] = []
    vcd_paths: List[str] = []
    total = 0
    batched_trials = 0
    scalar_fallbacks = 0
    batch = sim_engine == "batched"
    for name, functionality in artifact.functionalities.items():
        is_instr = functionality.kind == "instruction"
        encoding = (artifact.isa.instructions[name].encoding
                    if is_instr else None)
        depth = _depth(functionality)
        # Draw every trial's stimulus upfront, in the exact per-trial
        # order of the scalar path, so the RNG stream (and therefore the
        # trial set for a given seed) is engine-independent.
        specs = [_draw_stimulus(artifact.isa, encoding, rng)
                 for _ in range(trials)]
        if batch and not _needs_feedback(functionality.module):
            if is_instr:
                results = _cosim_instruction_batch(artifact, name, specs,
                                                   depth)
            else:
                results = _cosim_always_batch(
                    artifact, name, [state for state, _ in specs])
            batched_trials += len(specs)
        else:
            if batch:
                scalar_fallbacks += len(specs)
            results = []
            for state, fields in specs:
                if is_instr:
                    results.append(_cosim_instruction(
                        artifact, name, state, fields, sim_engine, depth))
                else:
                    results.append(cosim_always(
                        artifact, name, state, sim_engine=sim_engine))
        for result in results:
            total += 1
            if not result.matches:
                failures.append(result)
                if vcd_dir is not None:
                    vcd_paths.append(_dump_failure_vcd(
                        functionality, result, vcd_dir, artifact.name,
                        artifact.core_name, seed, total, sim_engine, depth,
                    ))
    return VerificationReport(
        artifact=artifact.name,
        core=artifact.core_name,
        trials=total,
        failures=failures,
        seed=seed,
        vcd_paths=vcd_paths,
        batched_trials=batched_trials,
        scalar_fallbacks=scalar_fallbacks,
    )
