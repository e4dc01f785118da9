"""The full verification matrix: every Table 3 ISAX co-simulated (RTL vs
golden model) on every host core — the library-level equivalent of the
paper's Section 5.3 functional verification."""

import pytest

from repro import compile_isax
from repro.isaxes import ALL_ISAXES, AUTOINC, IJMP, ZOL
from repro.scaiev import CORES
from repro.sim import ArchState
from repro.sim.cosim import cosim_always, cosim_instruction, verify_artifact


@pytest.mark.parametrize("core", CORES)
@pytest.mark.parametrize("name", sorted(ALL_ISAXES))
def test_cosim_matrix(core, name):
    artifact = compile_isax(ALL_ISAXES[name], core)
    report = verify_artifact(artifact, trials=3, seed=42)
    assert report.passed, "\n".join(
        f"{f.functionality}: "
        + "; ".join(f"{m.kind}: {m.detail}" for m in f.mismatches)
        for f in report.failures
    )


class TestTargetedCosim:
    def test_autoinc_load_effects(self):
        """lw_ai: the RTL must read MEM[ADDR], write it to rd, and write
        back ADDR+4 — all three effects compared against the golden model."""
        artifact = compile_isax(AUTOINC, "VexRiscv")
        state = ArchState(artifact.isa)
        state.write_custom("ADDR", 0x200)
        state.write_mem(0x200, 0xCAFEBABE, 4)
        result = cosim_instruction(artifact, "lw_ai", state, {"rd": 7})
        assert result.matches, result.mismatches
        gpr = next(e for e in result.golden_effects if e.kind == "gpr")
        assert gpr.value == 0xCAFEBABE
        custom = next(e for e in result.golden_effects if e.kind == "custom")
        assert custom.value == 0x204

    def test_autoinc_store_effects(self):
        artifact = compile_isax(AUTOINC, "VexRiscv")
        state = ArchState(artifact.isa)
        state.write_custom("ADDR", 0x80)
        state.write_x(9, 0x12345678)
        result = cosim_instruction(artifact, "sw_ai", state, {"rs2": 9})
        assert result.matches, result.mismatches

    def test_ijmp_pc_redirect(self):
        artifact = compile_isax(IJMP, "VexRiscv")
        state = ArchState(artifact.isa)
        state.write_x(5, 0x400)
        state.write_mem(0x400, 0xBEEF0, 4)
        result = cosim_instruction(artifact, "ijmp", state, {"rs1": 5})
        assert result.matches, result.mismatches
        pc = next(e for e in result.golden_effects if e.kind == "pc")
        assert pc.value == 0xBEEF0

    def test_zol_always_redirect_and_idle(self):
        artifact = compile_isax(ZOL, "VexRiscv")
        state = ArchState(artifact.isa)
        state.write_custom("START_PC", 0x100)
        state.write_custom("END_PC", 0x140)
        state.write_custom("COUNT", 3)
        state.pc = 0x140
        firing = cosim_always(artifact, "zol", state)
        assert firing.matches, firing.mismatches
        assert any(e.kind == "pc" for e in firing.golden_effects)

        state.pc = 0x120  # not at the loop end: no write, valids low
        idle = cosim_always(artifact, "zol", state)
        assert idle.matches, idle.mismatches
        assert not idle.golden_effects

    def test_mismatch_detection(self):
        """The harness actually detects divergence: corrupt the RTL by
        flipping a constant and expect a reported mismatch."""
        artifact = compile_isax(ALL_ISAXES["sbox"], "VexRiscv")
        module = artifact.artifact("sbox").module
        rom = next(op for op in module.body.operations
                   if op.name == "comb.rom")
        values = list(rom.attr("values"))
        values[0] ^= 0xFF
        rom.attributes["values"] = values
        state = ArchState(artifact.isa)
        state.write_x(3, 0)  # selects SBOX[0], which we corrupted
        result = cosim_instruction(artifact, "sbox", state,
                                   {"rs1": 3, "rd": 5})
        assert not result.matches
        assert any(m.kind == "gpr" for m in result.mismatches)


def _public_api_stimulus(isa, encoding, rng):
    """The stimulus of ``verify_artifact`` built through the checked
    ``write_*`` API, in the seed contract's draw order."""
    state = ArchState(isa)
    for index in range(1, 32):
        state.write_x(index, rng.getrandbits(32))
    state.pc = rng.getrandbits(32) & ~3
    for reg in state.custom:
        for element in range(len(state.custom[reg])):
            state.write_custom(reg, rng.getrandbits(32), element)
    for _ in range(64):
        state.write_mem_byte(rng.getrandbits(32), rng.getrandbits(8))
    if encoding is None:
        return state, None
    fields = {fname: rng.getrandbits(field.width)
              for fname, field in encoding.fields.items()}
    for reg_field in ("rs1", "rs2", "rd"):
        if reg_field in fields:
            fields[reg_field] = rng.randrange(32)
    return state, fields


@pytest.mark.parametrize("name", ["zol", "autoinc", "sbox", "sparkle"])
def test_stimulus_matches_public_write_api(name):
    """Direct stores of the drawn stimulus equal the checked write API,
    draw for draw, so a seed still reproduces the same trials."""
    import random

    from repro.frontend import elaborate
    from repro.sim.cosim import _draw_stimulus

    isa = elaborate(ALL_ISAXES[name])
    encodings = [i.encoding for i in isa.instructions.values()] + [None]
    for seed in range(50):
        fast, reference = random.Random(seed), random.Random(seed)
        for encoding in encodings:
            state, fields = _draw_stimulus(isa, encoding, fast)
            ref_state, ref_fields = _public_api_stimulus(
                isa, encoding, reference)
            assert state.snapshot() == ref_state.snapshot()
            assert fields == ref_fields
        assert fast.getstate() == reference.getstate()
