"""Co-simulation harness: generated RTL vs the CoreDSL golden model.

The paper verifies extended cores by RTL simulation (Section 5.3).  This
module packages that methodology as a library feature: given a compiled
:class:`~repro.hls.longnail.IsaxArtifact`, it executes each instruction (or
always-block) once through the CoreDSL interpreter and once through the
cycle-level RTL simulation of the generated module, and compares every
architectural effect — GPR result, PC redirect, memory request, custom
register writes — including the valid bits.

Every entry point (:func:`verify_artifact`, :func:`cosim_instruction`,
:func:`cosim_always` and :mod:`repro.opt.equiv`) runs through one trial
runner.  For one functionality and a list of ``(state, fields)`` trials it
resolves the module's ports once from the port records hwgen writes
(:class:`repro.dialects.hw.Port` ``role``/``signal``/``register``), builds
every trial's input vector, simulates all trials (with
``sim_engine="batched"`` as one :meth:`repro.sim.batch.BatchedSimulator
.run_const` over one lane per trial, otherwise on one
:class:`~repro.sim.rtl_sim.RTLSimulator` reset between trials) and then
resolves memory and indexed custom-register reads with a fixpoint: the
address outputs are observed, the corresponding data is fed back on the
read-data inputs, and the lanes whose inputs changed are simulated again,
at most three rounds (one suffices unless an address depends on loaded
data).
"""

from __future__ import annotations

import dataclasses
import os
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dialects.hw import HWModule, Port
from repro.frontend.elaboration import Encoding
from repro.hls.longnail import FunctionalityArtifact, IsaxArtifact
from repro.sim.coredsl_interp import ArchState, CoreDSLInterpreter, Effect
from repro.sim.rtl_sim import RTLSimulator
from repro.utils.bits import to_unsigned

#: Read-feedback rounds after the first simulation of a trial.
_FEEDBACK_ROUNDS = 3


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


class _Ports:
    """One module's ports, resolved once from the hwgen port records.
    Lowering admits each SCAIE-V sub-interface once per functionality, so
    an ``(interface, signal)`` pair names at most one port."""

    def __init__(self, module: HWModule):
        #: ``(role, signal)`` -> output name, standard interfaces.
        self.outputs: Dict[Tuple[Optional[str], Optional[str]], str] = {}
        #: register -> ``{signal: output name}`` of its write interface.
        self.writes: Dict[str, Dict[Optional[str], str]] = {}
        #: register -> read-index output (indexed custom reads only).
        self.read_index: Dict[str, str] = {}
        #: register -> read-data input.
        self.read_data: Dict[str, str] = {}
        #: interface -> input name, standard inputs (``stall`` inputs
        #: are left undriven).
        self.standard_inputs: Dict[Optional[str], str] = {}
        self.mem_data: Optional[Port] = None
        for port in module.ports:
            register = port.register
            if port.direction == "in":
                if register is not None:
                    self.read_data[register] = port.name
                elif port.role == "RdMem":
                    self.mem_data = port
                else:
                    self.standard_inputs[port.role] = port.name
            elif register is None:
                self.outputs[(port.role, port.signal)] = port.name
            elif port.role == f"Rd{register}":
                self.read_index[register] = port.name
            else:
                self.writes.setdefault(register, {})[port.signal] = port.name
        self.mem_addr = self.outputs.get(("RdMem", "addr"))

    def stimulus(self, state: ArchState, fields: Optional[Dict[str, int]],
                 word: int) -> Dict[str, int]:
        """A trial's input vector before read feedback.  Scalar custom
        reads have no address port, so they resolve from the pre-state."""
        fields = fields or {}
        values = {"RdRS1": state.read_x(fields.get("rs1", 0)),
                  "RdRS2": state.read_x(fields.get("rs2", 0)),
                  "RdPC": state.pc, "RdInstr": word}
        inputs = {self.standard_inputs[role]: value
                  for role, value in values.items()
                  if role in self.standard_inputs}
        for register, name in self.read_data.items():
            if register in state.custom:
                inputs[name] = state.read_custom(register)
        return inputs

    def feedback(self, state: ArchState, inputs: Dict[str, int],
                 outputs: Dict[str, int]) -> bool:
        """Drive the read data the outputs ask for; True if an input
        changed (the trial must be simulated again)."""
        reads: Dict[str, int] = {}
        if self.mem_addr is not None and self.mem_data is not None:
            reads[self.mem_data.name] = state.read_mem(
                outputs[self.mem_addr], self.mem_data.width // 8)
        for register, index in self.read_index.items():
            if register in state.custom:
                reads[self.read_data[register]] = state.read_custom(
                    register, outputs[index])
        changed = any(inputs.get(name) != data
                      for name, data in reads.items())
        inputs.update(reads)
        return changed


def _depth(functionality: FunctionalityArtifact) -> int:
    """Cycles until a functionality's outputs are steady: an always-block
    is one combinational cycle."""
    if functionality.kind != "instruction":
        return 1
    return functionality.schedule.makespan + 2


def _encoding(artifact: IsaxArtifact, name: str) -> Optional[Encoding]:
    """The encoding of instruction ``name``; None for an always-block."""
    if artifact.artifact(name).kind != "instruction":
        return None
    return artifact.isa.instructions[name].encoding


def _fork_state(state: ArchState) -> ArchState:
    """Snapshot ``state`` for the golden model (which mutates its copy)."""
    golden = ArchState()
    golden.xregs = list(state.xregs)
    golden.pc = state.pc
    golden.memory = dict(state.memory)
    golden.custom = {k: list(v) for k, v in state.custom.items()}
    golden.custom_widths = dict(state.custom_widths)
    return golden


def _simulator(module: HWModule, sim_engine: str, depth: int):
    """``simulate(vectors)``: per input vector, the outputs after
    ``depth`` cycles from reset with the inputs held constant."""
    if sim_engine == "batched":
        from repro.sim.batch import BatchedSimulator  # deferred: numpy
        batched = BatchedSimulator(module)
        return lambda vectors: batched.run_const(vectors, depth)
    sim = RTLSimulator(module, engine=sim_engine)

    def simulate(vectors):
        results = []
        for inputs in vectors:
            sim.reset()
            for _ in range(depth):
                outputs = sim.step(inputs)
            results.append(outputs)
        return results
    return simulate


def _run_trials(artifact: IsaxArtifact, name: str,
                trials: Sequence[Tuple[ArchState, Optional[Dict[str, int]]]],
                sim_engine: str) -> Tuple[_Ports, List[CosimResult]]:
    """Co-simulate ``(state, fields)`` trials of one functionality
    (``fields`` is None for an always-block) against copies of each
    ``state``; returns the resolved ports and one result per trial."""
    functionality = artifact.artifact(name)
    ports = _Ports(functionality.module)
    interp = CoreDSLInterpreter(artifact.isa)
    encoding = _encoding(artifact, name)
    goldens: List[List[Effect]] = []
    vectors: List[Dict[str, int]] = []
    for state, fields in trials:
        golden_state = _fork_state(state)
        if encoding is None:
            word = 0
            goldens.append(interp.execute_always(golden_state, name))
        else:
            word = encoding.encode(fields)
            goldens.append(
                interp.execute_instruction(golden_state, name, word))
        vectors.append(ports.stimulus(state, fields, word))

    simulate = _simulator(functionality.module, sim_engine,
                          _depth(functionality))
    outputs = simulate(vectors)
    pending = range(len(vectors))
    for _round in range(_FEEDBACK_ROUNDS):
        pending = [i for i in pending
                   if ports.feedback(trials[i][0], vectors[i], outputs[i])]
        if not pending:
            break
        for lane, lane_outputs in zip(
                pending, simulate([vectors[i] for i in pending])):
            outputs[lane] = lane_outputs
    return ports, [
        _compare(ports, name, effects, lane_outputs, inputs)
        for effects, lane_outputs, inputs in zip(goldens, outputs, vectors)
    ]


def cosim_instruction(artifact: IsaxArtifact, name: str, state: ArchState,
                      field_values: Dict[str, int],
                      sim_engine: str = "auto") -> CosimResult:
    """Co-simulate one instruction against a *copy* of ``state``."""
    return _run_trials(artifact, name, [(state, field_values)],
                       sim_engine)[1][0]


def cosim_always(artifact: IsaxArtifact, name: str,
                 state: ArchState, sim_engine: str = "auto") -> CosimResult:
    """Co-simulate one always-block evaluation (single combinational
    cycle)."""
    return _run_trials(artifact, name, [(state, None)], sim_engine)[1][0]


def _compare(ports: _Ports, name: str, effects: List[Effect],
             outputs: Dict[str, int],
             inputs: Dict[str, int]) -> CosimResult:
    mismatches: List[Mismatch] = []

    def value(port: Optional[str]) -> Optional[int]:
        return None if port is None else outputs[port]

    def check(kind: str, expect_value: Optional[int], label: str,
              data_port: Optional[str], valid_port: Optional[str],
              width: int = 32) -> None:
        valid = value(valid_port)
        data = value(data_port)
        if expect_value is None:
            if valid not in (None, 0):
                mismatches.append(Mismatch(
                    kind, f"RTL asserts the {label} valid bit but the "
                          "golden model performs no such write"))
            return
        if data is None:
            mismatches.append(Mismatch(
                kind, f"module has no {label} data output"))
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

    def standard(kind: str, role: str, effect: Optional[Effect],
                 width: int = 32) -> None:
        check(kind, effect.value if effect else None, role,
              ports.outputs.get((role, "data")),
              ports.outputs.get((role, "valid")), width)

    standard("gpr", "WrRD", next((e for e in effects if e.kind == "gpr"),
                                 None))
    standard("pc", "WrPC", next((e for e in effects if e.kind == "pc"),
                                None))
    mem = next((e for e in effects if e.kind == "mem"), None)
    if mem is not None:
        standard("mem.data", "WrMem", mem, width=mem.width)
        waddr = value(ports.outputs.get(("WrMem", "addr")))
        if waddr is not None and waddr != mem.index:
            mismatches.append(Mismatch(
                "mem.addr", f"rtl={waddr:#x} golden={mem.index:#x}"))
    else:
        standard("mem", "WrMem", None)

    for effect in effects:
        if effect.kind != "custom":
            continue
        write = ports.writes.get(effect.name, {})
        check(f"custom.{effect.name}", effect.value,
              f"'{effect.name}' write", write.get("data"),
              write.get("valid"), width=effect.width)

    return CosimResult(
        functionality=name,
        matches=not mismatches,
        mismatches=mismatches,
        golden_effects=effects,
        rtl_outputs=outputs,
        rtl_inputs=dict(inputs),
    )


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
    #: Trials that left the lane-parallel path under ``sim_engine=
    #: "batched"``.  Always 0 since batched lanes run the read-feedback
    #: fixpoint themselves; kept because discovery pricing records it.
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
    trials run lane-parallel through one numpy evaluation, read feedback
    included.  Stimuli are drawn in the same RNG order for every engine,
    so a seed reproduces the exact trial set regardless of engine.
    """
    rng = random.Random(seed)
    failures: List[CosimResult] = []
    vcd_paths: List[str] = []
    total = 0
    batched_trials = 0
    for name, functionality in artifact.functionalities.items():
        encoding = _encoding(artifact, name)
        specs = [_draw_stimulus(artifact.isa, encoding, rng)
                 for _ in range(trials)]
        _ports, results = _run_trials(artifact, name, specs, sim_engine)
        if sim_engine == "batched":
            batched_trials += len(specs)
        for result in results:
            total += 1
            if not result.matches:
                failures.append(result)
                if vcd_dir is not None:
                    vcd_paths.append(_dump_failure_vcd(
                        functionality, result, vcd_dir, artifact.name,
                        artifact.core_name, seed, total, sim_engine,
                        _depth(functionality),
                    ))
    return VerificationReport(
        artifact=artifact.name,
        core=artifact.core_name,
        trials=total,
        failures=failures,
        seed=seed,
        vcd_paths=vcd_paths,
        batched_trials=batched_trials,
    )
