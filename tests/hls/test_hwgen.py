"""Unit tests for hardware generation (schedule -> pipelined hw module)."""

import pytest

from repro.frontend import elaborate
from repro.hls import compile_isax, generate_module
from repro.hls.hwgen import generate_module as generate
from repro.ir.core import IRError
from repro.isaxes import SQRT_TIGHTLY
from repro.lowering import convert_to_lil, lower_isa
from repro.scaiev import core_datasheet
from repro.scheduling import LongnailScheduler


def compiled(source, core="VexRiscv", **kwargs):
    isa = elaborate(source)
    lowered = lower_isa(isa)
    name = next(iter(lowered.instructions))
    graph = convert_to_lil(isa, lowered.instructions[name])
    schedule = LongnailScheduler(core_datasheet(core), **kwargs).schedule(graph)
    return graph, schedule, generate(graph, schedule)


SIMPLE = '''
import "RV32I.core_desc"
InstructionSet s extends RV32I {
  instructions {
    s {
      encoding: 10'd0 :: rs2[4:0] :: rs1[4:0] :: rd[4:0] :: 7'b0001011;
      behavior: { X[rd] = (unsigned<32>) (X[rs1] + X[rs2]); }
    }
  }
}
'''


class TestPorts:
    def test_input_ports_carry_roles(self):
        _graph, _schedule, module = compiled(SIMPLE)
        roles = {p.role for p in module.inputs}
        assert {"RdRS1", "RdRS2"} <= roles

    def test_output_ports_carry_roles(self):
        _graph, _schedule, module = compiled(SIMPLE)
        assert {p.role for p in module.outputs} == {"WrRD"}

    def test_ports_record_signal_and_register(self):
        """Every interface port says which signal it carries and, for a
        custom register, which register — the cosim runner, the equiv
        trace and the timing model read these, never the names."""
        from repro.isaxes import AUTOINC

        module = compile_isax(AUTOINC, "VexRiscv").artifact("lw_ai").module
        records = {(p.direction, p.role, p.signal, p.register)
                   for p in module.ports if p.role != "stall"}
        assert records == {
            ("out", "RdMem", "addr", None), ("out", "RdMem", "valid", None),
            ("in", "RdMem", "data", None),
            ("out", "WrRD", "data", None), ("out", "WrRD", "valid", None),
            ("in", "RdADDR", "data", "ADDR"),
            ("out", "WrADDR.data", "data", "ADDR"),
            ("out", "WrADDR.data", "valid", "ADDR"),
        }

    def test_port_stages_recorded(self):
        _graph, schedule, module = compiled(SIMPLE)
        rs1 = next(p for p in module.inputs if p.name.startswith("rs1"))
        assert rs1.stage == 2

    def test_duplicate_port_rejected(self):
        from repro.dialects.hw import HWModule

        module = HWModule("m")
        module.add_input("a", 8)
        with pytest.raises(IRError):
            module.add_input("a", 8)


class TestPipelining:
    def test_register_count_attribute(self):
        artifact = compile_isax(SQRT_TIGHTLY, "VexRiscv")
        module = artifact.artifact("fsqrt").module
        actual = sum(1 for op in module.body.operations
                     if op.name == "seq.compreg")
        assert module.attributes["pipeline_registers"] == actual
        assert module.attributes["makespan"] == \
            artifact.artifact("fsqrt").schedule.makespan

    def test_stall_inputs_created_per_boundary(self):
        artifact = compile_isax(SQRT_TIGHTLY, "VexRiscv")
        module = artifact.artifact("fsqrt").module
        stalls = [p for p in module.inputs if p.name.startswith("stall_in")]
        # One stall input per crossed stage boundary, at most span many.
        span = artifact.artifact("fsqrt").schedule.makespan
        assert 1 <= len(stalls) <= span

    def test_constants_are_not_piped(self):
        _graph, _schedule, module = compiled(SIMPLE)
        for op in module.body.operations:
            if op.name == "seq.compreg":
                producer = op.operands[0].owner
                assert producer is None or producer.name != "comb.constant"

    def test_combinational_single_stage_module_has_no_registers(self):
        # At a very slow clock everything fits into one stage.
        _graph, _schedule, module = compiled(SIMPLE, cycle_time_ns=20.0)
        assert not module.registers()

    def test_free_ops_rematerialized_not_piped(self):
        """extract/concat results must never feed a pipeline register; only
        their source operands are registered."""
        artifact = compile_isax(SQRT_TIGHTLY, "VexRiscv")
        module = artifact.artifact("fsqrt").module
        for op in module.body.operations:
            if op.name == "seq.compreg":
                producer = op.operands[0].owner
                if producer is not None:
                    assert producer.name not in ("comb.extract",
                                                 "comb.concat",
                                                 "comb.replicate")
