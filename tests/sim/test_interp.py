"""Tests for the CoreDSL golden interpreter and architectural state."""

import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import elaborate
from repro.fuzz import generate_program
from repro.isaxes import ALL_ISAXES, ZOL
from repro.sim import ArchState, CoreDSLInterpreter, coredsl_interp
from repro.utils.diagnostics import CoreDSLError


def make(source, top=None):
    isa = elaborate(source, top=top)
    return isa, CoreDSLInterpreter(isa), ArchState(isa)


class TestArchState:
    def test_x0_is_hardwired_zero(self):
        isa, _interp, state = make(ALL_ISAXES["dotprod"])
        state.write_x(0, 123)
        assert state.read_x(0) == 0

    def test_memory_little_endian(self):
        isa, _interp, state = make(ALL_ISAXES["dotprod"])
        state.write_mem(0x100, 0xDEADBEEF, 4)
        assert state.read_mem_byte(0x100) == 0xEF
        assert state.read_mem_byte(0x103) == 0xDE
        assert state.read_mem(0x100, 4) == 0xDEADBEEF

    def test_custom_registers_initialized(self):
        isa, _interp, state = make(ZOL)
        assert state.read_custom("COUNT") == 0
        state.write_custom("COUNT", 42)
        assert state.read_custom("COUNT") == 42

    def test_custom_register_width_truncation(self):
        isa, _interp, state = make(ZOL)
        state.write_custom("COUNT", 1 << 40)
        assert state.read_custom("COUNT") == 0

    def test_rom_values_visible(self):
        isa, interp, state = make(ALL_ISAXES["sbox"])
        info = isa.state["SBOX"]
        assert info.init_values[0] == 0x63

    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 32 - 1))
    def test_memory_roundtrip(self, address, value):
        isa, _interp, state = make(ALL_ISAXES["dotprod"])
        state.write_mem(address, value, 4)
        assert state.read_mem(address, 4) == value


class TestInstructionExecution:
    def test_zol_setup(self):
        isa, interp, state = make(ZOL)
        enc = isa.instructions["setup_zol"].encoding
        state.pc = 0x80
        word = enc.encode({"uimmS": 6, "uimmL": 9})
        effects = interp.execute_instruction(state, "setup_zol", word)
        assert state.read_custom("START_PC") == 0x84
        assert state.read_custom("END_PC") == 0x80 + 12
        assert state.read_custom("COUNT") == 9
        assert len(effects) == 3

    def test_zol_always_redirects(self):
        isa, interp, state = make(ZOL)
        state.write_custom("START_PC", 0x84)
        state.write_custom("END_PC", 0x8C)
        state.write_custom("COUNT", 2)
        state.pc = 0x8C
        interp.execute_always(state, "zol")
        assert state.pc == 0x84
        assert state.read_custom("COUNT") == 1

    def test_zol_always_no_redirect_when_done(self):
        isa, interp, state = make(ZOL)
        state.write_custom("END_PC", 0x8C)
        state.write_custom("COUNT", 0)
        state.pc = 0x8C
        interp.execute_always(state, "zol")
        assert state.pc == 0x8C

    def test_autoinc_load(self):
        isa, interp, state = make(ALL_ISAXES["autoinc"])
        state.write_mem(0x200, 0xCAFEBABE, 4)
        state.write_custom("ADDR", 0x200)
        enc = isa.instructions["lw_ai"].encoding
        interp.execute_instruction(state, "lw_ai", enc.encode({"rd": 7}))
        assert state.read_x(7) == 0xCAFEBABE
        assert state.read_custom("ADDR") == 0x204

    def test_autoinc_store(self):
        isa, interp, state = make(ALL_ISAXES["autoinc"])
        state.write_custom("ADDR", 0x300)
        state.write_x(9, 0x12345678)
        enc = isa.instructions["sw_ai"].encoding
        interp.execute_instruction(state, "sw_ai", enc.encode({"rs2": 9}))
        assert state.read_mem(0x300, 4) == 0x12345678
        assert state.read_custom("ADDR") == 0x304

    def test_ijmp_reads_pc_from_memory(self):
        isa, interp, state = make(ALL_ISAXES["ijmp"])
        state.write_x(5, 0x400)
        state.write_mem(0x400, 0x1234, 4)
        enc = isa.instructions["ijmp"].encoding
        interp.execute_instruction(state, "ijmp", enc.encode({"rs1": 5}))
        assert state.pc == 0x1234

    def test_sbox_lookup(self):
        isa, interp, state = make(ALL_ISAXES["sbox"])
        state.write_x(3, 0x00)  # SBOX[0] = 0x63
        enc = isa.instructions["sbox"].encoding
        interp.execute_instruction(state, "sbox",
                                   enc.encode({"rs1": 3, "rd": 6}))
        assert state.read_x(6) == 0x63

    def test_spawn_effects_marked(self):
        isa, interp, state = make(ALL_ISAXES["sqrt_decoupled"])
        state.write_x(3, 16)
        enc = isa.instructions["fsqrt"].encoding
        effects = interp.execute_instruction(
            state, "fsqrt", enc.encode({"rs1": 3, "rd": 4})
        )
        gpr_writes = [e for e in effects if e.kind == "gpr"]
        assert gpr_writes and all(e.spawned for e in gpr_writes)

    def test_match_instruction(self):
        isa, interp, _state = make(ALL_ISAXES["dotprod"])
        enc = isa.instructions["dotp"].encoding
        assert interp.match_instruction(enc.encode({})) == "dotp"
        assert interp.match_instruction(0xFFFFFFFF) is None

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_sqrt_interpreter_matches_isqrt(self, value):
        import math

        isa, interp, state = make(ALL_ISAXES["sqrt_tightly"])
        state.write_x(3, value)
        enc = isa.instructions["fsqrt"].encoding
        interp.execute_instruction(state, "fsqrt",
                                   enc.encode({"rs1": 3, "rd": 4}))
        assert state.read_x(4) == math.isqrt(value << 32)


class TestSharedState:
    def test_add_custom_state_merges(self):
        isa_a = elaborate(ALL_ISAXES["autoinc"])
        isa_z = elaborate(ZOL)
        state = ArchState(isa_a)
        state.add_custom_state(isa_z)
        assert set(state.custom) == {"ADDR", "START_PC", "END_PC", "COUNT"}


# ---------------------------------------------------------------------------
# Parity fixture
# ---------------------------------------------------------------------------

#: SHA-256 of the golden model's effect lists, post-state snapshots and
#: raised errors over ``_parity_sources()`` (see ``_parity_records``).
#: Recorded with the AST tree-walking interpreter that preceded the
#: closure-compiled one; any semantic drift of the golden model changes it.
PARITY_SHA256 = (
    "c5ef3ddf310aeb8fdb483ab6e3dd1b1da672d04a45c8a885640f7bf2f9a7ebfd")

PARITY_SEEDS = range(50)
PARITY_STATES = 8


def _parity_sources():
    sources = [ALL_ISAXES[name] for name in sorted(ALL_ISAXES)]
    sources += [generate_program(seed).source for seed in PARITY_SEEDS]
    return sources


def _random_state(isa, rng):
    """An architectural state drawn through the public write API, with
    memory populated around a few register values so loads hit data."""
    state = ArchState(isa)
    for index in range(1, 32):
        state.write_x(index, rng.getrandbits(32))
    state.pc = rng.getrandbits(32) & ~3
    for reg in sorted(state.custom):
        for element in range(len(state.custom[reg])):
            state.write_custom(reg, rng.getrandbits(64), element)
    for _ in range(16):
        state.write_mem_byte(rng.getrandbits(32), rng.getrandbits(8))
    for _ in range(8):
        base = state.read_x(rng.randrange(32))
        for offset in range(8):
            state.write_mem_byte(base + offset, rng.getrandbits(8))
    return state


def _parity_records(sources, states=PARITY_STATES):
    """Yield one canonical record per golden-model execution: ``states``
    random states for every instruction and always-block of each source."""
    for source_index, source in enumerate(sources):
        isa = elaborate(source)
        rng = random.Random(source_index)
        behaviors = ([("instruction", n) for n in isa.instructions]
                     + [("always", n) for n in isa.always_blocks])
        for kind, name in behaviors:
            for _ in range(states):
                state = _random_state(isa, rng)
                interp = CoreDSLInterpreter(isa)
                try:
                    if kind == "instruction":
                        encoding = isa.instructions[name].encoding
                        fields = {fname: rng.getrandbits(field.width)
                                  for fname, field in encoding.fields.items()}
                        effects = interp.execute_instruction(
                            state, name, encoding.encode(fields))
                    else:
                        effects = interp.execute_always(state, name)
                    outcome = [dataclasses.astuple(e) for e in effects]
                except Exception as exc:  # recorded, not raised
                    outcome = (type(exc).__name__, str(exc))
                snap = state.snapshot()
                snap["memory"] = sorted(snap["memory"].items())
                snap["custom"] = sorted(snap["custom"].items())
                yield (source_index, kind, name, outcome,
                       sorted(snap.items()))


def parity_digest(sources=None) -> str:
    digest = hashlib.sha256()
    for record in _parity_records(_parity_sources() if sources is None
                                  else sources):
        digest.update(repr(record).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def test_parity_fixture():
    assert parity_digest() == PARITY_SHA256


# ---------------------------------------------------------------------------
# Golden-model corner cases
# ---------------------------------------------------------------------------

def _isa(state="", body="", functions=""):
    """Elaborate a one-instruction ISAX ``t`` (fields rs1, rd)."""
    parts = ['import "RV32I.core_desc"', "InstructionSet T extends RV32I {"]
    if state:
        parts.append(f"  architectural_state {{ {state} }}")
    if functions:
        parts.append(f"  functions {{ {functions} }}")
    parts.append(
        "  instructions { t { encoding: 12'd0 :: rs1[4:0] :: 3'b000 :: "
        f"rd[4:0] :: 7'b0001011; behavior: {{ {body} }} }} }}")
    parts.append("}")
    return elaborate("\n".join(parts))


def _run(isa, state=None, rs1=1, rd=2):
    state = state or ArchState(isa)
    word = isa.instructions["t"].encoding.encode({"rs1": rs1, "rd": rd})
    effects = CoreDSLInterpreter(isa).execute_instruction(state, "t", word)
    return state, effects


class TestGoldenCorners:
    def test_local_shadows_state_and_field(self):
        isa = _isa("register unsigned<8> R;",
                   "unsigned<8> R = 3; R += 254; unsigned<5> rs1 = 7; "
                   "X[rd] = R + rs1;")
        state, effects = _run(isa, rs1=9, rd=2)
        assert state.read_x(2) == 1 + 7
        assert state.read_custom("R") == 0
        assert [(e.kind, e.index) for e in effects] == [("gpr", 2)]

    def test_compound_assignment_wraps_local_to_declared_type(self):
        isa = _isa(body="signed<4> s = 7; s += 1; unsigned<3> u = 6; "
                        "u += 3; X[rd] = (unsigned<32>)(s) ^ u;")
        state, _ = _run(isa)
        assert state.read_x(2) == 0xFFFFFFF8 ^ 1

    def test_function_called_inside_spawn_records_spawned_effects(self):
        isa = _isa("register unsigned<8> R;",
                   "spawn { w(X[rs1][7:0]); } X[rd] = 1;",
                   "void w(unsigned<8> v) { R = v; X[5] = v; }")
        state = ArchState(isa)
        state.write_x(1, 0x1AB)
        state, effects = _run(isa, state)
        assert [(e.kind, e.name, e.value, e.spawned) for e in effects] == [
            ("custom", "R", 0xAB, True), ("gpr", "X", 0xAB, True),
            ("gpr", "X", 1, False)]

    def test_early_return_from_nested_loop(self):
        isa = _isa(body="X[rd] = g((unsigned<8>) X[rs1]);", functions="""
            unsigned<8> g(unsigned<8> a) {
              for (unsigned<4> i = 0; i < 8; i += 1) {
                for (unsigned<4> j = 0; j < 8; j += 1) {
                  if (a[i] && a[j] && i != j) return (unsigned<8>)(i :: j);
                }
              }
              return 255;
            }""")
        for value, expected in ((0b10100, 0x24), (0b1, 255)):
            state = ArchState(isa)
            state.write_x(1, value)
            assert _run(isa, state)[0].read_x(2) == expected

    def test_switch_default_and_do_while_once(self):
        isa = _isa(body="""
            switch (X[rs1][1:0]) {
              case 0: X[rd] = 10; break;
              default: X[rd] = 99; break;
              case 2: X[rd] = 20; break;
            }
            unsigned<8> n = 0;
            do { n += 1; } while (n < 1);
            X[3] = n;""")
        for value, expected in ((0, 10), (2, 20), (3, 99)):
            state = ArchState(isa)
            state.write_x(1, value)
            state, _ = _run(isa, state)
            assert state.read_x(2) == expected
            assert state.read_x(3) == 1

    def test_range_reads_on_mem_array_and_scalar(self):
        isa = _isa("register unsigned<8> Q[4] = {1, 2, 3, 4}; "
                   "register unsigned<16> S = 0xABCD;",
                   "unsigned<32> a = X[rs1]; X[rd] = MEM[a+3:a]; "
                   "X[3] = Q[2:1]; X[4] = S[11:4];")
        state = ArchState(isa)
        state.write_x(1, 0x100)
        state.write_mem(0x100, 0xDEADBEEF, 4)
        state, _ = _run(isa, state)
        assert state.read_x(2) == 0xDEADBEEF
        assert state.read_x(3) == 0x0302
        assert state.read_x(4) == 0xBC

    @pytest.mark.parametrize("keyword, body", [
        ("if", "if (X[rs1][0]) unsigned<8> x = 5; X[rd] = x; x = 7;"),
        ("else", "if (X[rs1][0]) X[rd] = 1; else unsigned<8> x = 5;"),
        ("for", "for (unsigned<2> i = 0; i < 3; i += 1) unsigned<8> x = i;"),
        ("while", "while (X[rs1][0]) unsigned<8> x = 5;"),
        ("do", "do unsigned<8> x = 5; while (X[rs1][0]);"),
    ], ids=["if", "else", "for", "while", "do"])
    def test_unbraced_declaration_body_is_rejected(self, keyword, body):
        """As in C, a declaration cannot be the bare body of a conditional
        or loop: the checker rejects it with a location instead of binding
        the name on some paths only."""
        with pytest.raises(CoreDSLError,
                           match=f"declaration of 'x' as the body of "
                                 f"'{keyword}' must be enclosed in braces"
                           ) as info:
            _isa("register unsigned<8> x;", body)
        assert info.value.loc is not None

    def test_braced_declaration_does_not_escape_its_block(self):
        isa = _isa(body="if (X[rs1][0]) { unsigned<8> y = 5; X[rd] = y; }")
        state = ArchState(isa)
        state.write_x(1, 1)
        assert _run(isa, state)[0].read_x(2) == 5
        with pytest.raises(CoreDSLError, match="'y'") as info:
            _isa(body="if (X[rs1][0]) { unsigned<8> y = 5; } X[rd] = y;")
        assert info.value.loc is not None

    def test_runaway_loop(self, monkeypatch):
        monkeypatch.setattr(coredsl_interp, "_MAX_LOOP_ITERATIONS", 1000)
        isa = _isa(body="unsigned<8> n = 0; while (n == 0) { X[rd] = 1; }")
        with pytest.raises(CoreDSLError,
                           match=r"^runaway loop in interpreter$"):
            _run(isa)

    def test_division_and_modulo_by_zero(self):
        for op, message in (("/", "division by zero"),
                            ("%", "modulo by zero")):
            isa = _isa(body=f"X[rd] = X[rs1] {op} X[0];")
            with pytest.raises(CoreDSLError, match=f"^{message}$"):
                _run(isa)

    def test_void_function_used_as_value(self):
        isa = _isa(body="X[rd] = h((unsigned<8>) X[rs1]);",
                   functions="unsigned<8> h(unsigned<8> a) "
                             "{ if (a[0]) return 1; }")
        state = ArchState(isa)
        state.write_x(1, 1)
        assert _run(isa, state)[0].read_x(2) == 1
        with pytest.raises(CoreDSLError,
                           match=r"^void function 'h' used as value$"):
            _run(isa)

    def test_behaviors_translate_once(self, monkeypatch):
        """A second execution on the same ISA translates nothing: the
        programs stored on the elaborated objects are reused."""
        isa = elaborate(ALL_ISAXES["sparkle"])
        interp = CoreDSLInterpreter(isa)
        encoding = isa.instructions["alzette_x"].encoding
        word = encoding.encode({"rs1": 1, "rs2": 2, "rd": 3})
        first = interp.execute_instruction(ArchState(isa), "alzette_x", word)
        instr = isa.instructions["alzette_x"]
        programs = (instr.program, isa.functions["rotr"].program,
                    isa.functions["alzette_half"].program)
        assert None not in programs

        def no_translation(*args, **kwargs):
            raise AssertionError("behavior translated twice")
        monkeypatch.setattr(coredsl_interp, "_Translator", no_translation)
        second = CoreDSLInterpreter(isa).execute_instruction(
            ArchState(isa), "alzette_x", word)
        assert second == first
        assert (instr.program, isa.functions["rotr"].program,
                isa.functions["alzette_half"].program) == programs
