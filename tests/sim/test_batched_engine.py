"""Batched-engine parity: the numpy lane-parallel engine against the
scalar engines on hand-built netlists.

The batched engine compiles each module to vectorized numpy code with
three lane dtypes (``bool``/``uint64``/object ints) and a value-range
analysis that keeps wide (>64-bit) values on native uint64 lanes whenever
their bound proves they fit.  These tests pin the hazards of that design
deterministically — width-boundary arithmetic, division by zero, shifts
at and past the operand width, ROM out-of-range indices, per-operand
icmp sign extension — and fuzz it with hypothesis-generated random
netlists, always comparing all three engines bit for bit.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import compile_isax
from repro.dialects.comb import BINARY_OPS, ICMP_PREDICATES
from repro.dialects.hw import HWModule
from repro.fuzz.generator import generate_program
from repro.ir.core import Operation
from repro.isaxes import ALL_ISAXES
from repro.sim import BatchedSimulator, RTLSimulator, crosscheck_engines
from repro.utils.bits import mask, to_signed

THREE_ENGINES = ("interp", "compiled", "batched")

#: Widths straddling every lane decision: sub-byte, the uint64 boundary,
#: and genuinely wide values that need object lanes.
BOUNDARY_WIDTHS = (1, 7, 8, 31, 32, 33, 63, 64, 65, 96)


def binop_module(kind, width, predicate=None):
    """inputs a,b -> output r = a <kind> b (both at ``width``)."""
    module = HWModule(f"{kind.replace('.', '_')}_{width}")
    a = module.add_input("a", width)
    b = module.add_input("b", width)
    result_width = 1 if kind == "comb.icmp" else width
    attrs = {"predicate": predicate} if predicate else {}
    op = Operation(kind, [a, b], [(result_width, None)], attrs)
    module.body.append(op)
    module.add_output("r", op.result)
    return module


def engines_agree(module, vectors):
    """Run ``vectors`` through all three engines — the batched one with
    one lane per vector, so distinct corner values actually share a numpy
    evaluation — and return the (identical) output trace."""
    vectors = list(vectors)
    interp = RTLSimulator(module, engine="interp").run(vectors)
    compiled = RTLSimulator(module, engine="compiled").run(vectors)
    lanes = BatchedSimulator(module).run_batch([[v] for v in vectors])
    batched = [trace[0] for trace in lanes]
    assert interp == compiled, f"interp != compiled on {module.name}"
    assert interp == batched, f"interp != batched on {module.name}"
    return interp


def corner_values(width):
    m = mask(width)
    sign = 1 << (width - 1)
    return sorted({v & m
                   for v in (0, 1, 2, m, m - 1, sign, sign - 1, m >> 1)})


# ---------------------------------------------------------------------------
# Deterministic corners
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("width", BOUNDARY_WIDTHS)
@pytest.mark.parametrize("kind", ["comb.divu", "comb.divs",
                                  "comb.modu", "comb.mods"])
def test_division_by_zero(kind, width):
    """RISC-V semantics: x/0 = all-ones, x%0 = x — on every lane dtype."""
    module = binop_module(kind, width)
    values = corner_values(width)
    trace = engines_agree(
        module, [{"a": a, "b": 0} for a in values])
    if kind == "comb.divu":
        assert all(out["r"] == mask(width) for out in trace)
    elif kind == "comb.modu":
        assert [out["r"] for out in trace] == values


@pytest.mark.parametrize("width", BOUNDARY_WIDTHS)
@pytest.mark.parametrize("kind", ["comb.shl", "comb.shru", "comb.shrs"])
def test_shifts_at_and_past_the_width(kind, width):
    """Shift counts of width-1, width, and the all-ones pattern: logical
    shifts flush to zero, arithmetic right shift fills with the sign."""
    module = binop_module(kind, width)
    shifts = sorted({width - 1, min(width, mask(width)), mask(width)})
    values = corner_values(width)
    trace = engines_agree(
        module, [{"a": a, "b": s} for a in values for s in shifts])
    index = 0
    for a in values:
        for s in shifts:
            out = trace[index]["r"]
            index += 1
            if s >= width:
                if kind == "comb.shrs":
                    sign = a >> (width - 1)
                    assert out == (mask(width) if sign else 0)
                else:
                    assert out == 0


@pytest.mark.parametrize("width", BOUNDARY_WIDTHS)
@pytest.mark.parametrize(
    "kind", [k for k in BINARY_OPS
             if k not in ("comb.divu", "comb.divs", "comb.modu",
                          "comb.mods", "comb.shl", "comb.shru",
                          "comb.shrs")])
def test_arithmetic_at_width_boundaries(kind, width):
    """add/sub/mul wraparound and bitwise ops on boundary patterns; at
    width 65/96 this crosses the uint64/object lane split."""
    values = corner_values(width)
    engines_agree(
        binop_module(kind, width),
        [{"a": a, "b": b} for a in values for b in values])


@pytest.mark.parametrize("width", (8, 32, 63, 64, 65, 96))
@pytest.mark.parametrize("predicate", ICMP_PREDICATES)
def test_icmp_sign_boundaries(predicate, width):
    """Every predicate at the two's-complement boundaries (the signed
    ones flip exactly at 2^(w-1)); checked against to_signed directly."""
    module = binop_module("comb.icmp", width, predicate=predicate)
    values = corner_values(width)
    vectors = [{"a": a, "b": b} for a in values for b in values]
    trace = engines_agree(module, vectors)
    import operator

    plain = {"eq": operator.eq, "ne": operator.ne}
    unsigned = {"ult": operator.lt, "ule": operator.le,
                "ugt": operator.gt, "uge": operator.ge}
    signed = {"slt": operator.lt, "sle": operator.le,
              "sgt": operator.gt, "sge": operator.ge}
    for vector, out in zip(vectors, trace):
        a, b = vector["a"], vector["b"]
        if predicate in plain:
            expect = plain[predicate](a, b)
        elif predicate in unsigned:
            expect = unsigned[predicate](a, b)
        else:
            expect = signed[predicate](to_signed(a, width),
                                       to_signed(b, width))
        assert out["r"] == int(expect), (predicate, width, a, b)


@pytest.mark.parametrize("wa,wb", [(4, 8), (8, 4), (32, 64), (64, 65),
                                   (65, 64), (96, 8)])
def test_icmp_mixed_width_operands(wa, wb):
    """Regression for the per-operand sign-bit fix: signed predicates
    must sign-extend each operand from its *own* width.  Unequal widths
    only occur pre-verification (hand-built netlists, fuzz reducers),
    but all three engines must still agree with the golden semantics."""
    module = HWModule(f"icmp_{wa}_{wb}")
    a = module.add_input("a", wa)
    b = module.add_input("b", wb)
    for predicate in ("slt", "sle", "sgt", "sge"):
        op = Operation("comb.icmp", [a, b], [(1, None)],
                       {"predicate": predicate})
        module.body.append(op)
        module.add_output(predicate, op.result)
    vectors = [{"a": x, "b": y}
               for x in corner_values(wa) for y in corner_values(wb)]
    trace = engines_agree(module, vectors)
    import operator

    compare = {"slt": operator.lt, "sle": operator.le,
               "sgt": operator.gt, "sge": operator.ge}
    for vector, out in zip(vectors, trace):
        sa = to_signed(vector["a"], wa)
        sb = to_signed(vector["b"], wb)
        for predicate, cmp in compare.items():
            assert out[predicate] == int(cmp(sa, sb)), (
                predicate, wa, wb, vector)


def test_rom_out_of_range_reads_zero():
    module = HWModule("romtest")
    idx = module.add_input("idx", 8)
    table = [0xAB, 0x01, 0xFF, 0x7E]
    rom = Operation("comb.rom", [idx], [(8, None)], {"values": table})
    module.body.append(rom)
    module.add_output("r", rom.result)
    vectors = [{"idx": i} for i in (0, 1, 2, 3, 4, 5, 100, 255)]
    trace = engines_agree(module, vectors)
    for vector, out in zip(vectors, trace):
        expect = table[vector["idx"]] if vector["idx"] < len(table) else 0
        assert out["r"] == expect


def test_wide_value_with_proven_small_bound_rides_uint64_lanes():
    """The absint facts keep a 96-bit sum on native uint64 lanes when the
    operands are provably narrow — and the values still come out right."""
    from repro.sim.compile import compile_module_batch

    def build(masked):
        label = "masked" if masked else "raw"
        module = HWModule(f"wide_bound_{label}")
        a = module.add_input("a", 96)
        if masked:
            m = Operation("comb.constant", [], [(96, None)],
                          {"value": 0xFF})
            module.body.append(m)
            narrow = Operation("comb.and", [a, m.result], [(96, None)])
            module.body.append(narrow)
            a = narrow.result
        total = Operation("comb.add", [a, a], [(96, None)])
        module.body.append(total)
        module.add_output("r", total.result)
        return module

    bounded = compile_module_batch(build(masked=True))
    unbounded = compile_module_batch(build(masked=False))
    # hi(a & 0xFF) = 255, so the sum is bounded by 510: uint64 lanes.
    assert bounded.output_kinds == ["u"]
    # Without the mask the 96-bit sum needs exact object lanes.
    assert unbounded.output_kinds == ["o"]

    stimulus = [{"a": v} for v in (0, 0xFF, (1 << 96) - 1, 0x1234567890)]
    trace = engines_agree(build(masked=True), stimulus)
    for vector, out in zip(stimulus, trace):
        assert out["r"] == 2 * (vector["a"] & 0xFF)


def test_multi_lane_traces_match_scalar_runs():
    """Distinct stimuli on every lane of one batch reproduce, bit for
    bit, the trace and final register state of one scalar run per
    stimulus — the batched engine's core contract."""
    from repro.sim.compile import random_stimulus

    artifact = compile_isax(ALL_ISAXES["sqrt_tightly"], "VexRiscv")
    module = next(iter(artifact.functionalities.values())).module
    stimuli = [random_stimulus(module, 20, seed=s) for s in range(9)]
    sim = BatchedSimulator(module)
    traces = sim.run_batch(stimuli)
    states = sim.register_states()
    for stimulus, trace, state in zip(stimuli, traces, states):
        scalar = RTLSimulator(module, engine="compiled")
        assert scalar.run(stimulus) == trace
        assert scalar.register_state() == state


# ---------------------------------------------------------------------------
# Hypothesis: random netlists
# ---------------------------------------------------------------------------

_WIDTHS = st.sampled_from(BOUNDARY_WIDTHS)
_KINDS = st.sampled_from(
    list(BINARY_OPS)
    + ["not", "icmp", "mux", "extract", "concat", "replicate", "rom",
       "const", "reg"])


@st.composite
def random_netlists(draw):
    """A random but well-typed netlist over boundary widths: mixed-width
    plumbing (extract/concat adapters), wide values, registers."""
    module = HWModule("rand")
    pool = []
    for i in range(draw(st.integers(1, 3))):
        pool.append(module.add_input(f"in{i}", draw(_WIDTHS)))

    def emit(op):
        module.body.append(op)
        pool.append(op.result)
        return op.result

    def adapt(value, width):
        if value.width == width:
            return value
        if value.width > width:
            return emit(Operation("comb.extract", [value],
                                  [(width, None)], {"low": 0}))
        pad = Operation("comb.constant", [],
                        [(width - value.width, None)], {"value": 0})
        module.body.append(pad)
        return emit(Operation("comb.concat", [pad.result, value],
                              [(width, None)]))

    for _ in range(draw(st.integers(2, 12))):
        kind = draw(_KINDS)
        a = draw(st.sampled_from(pool))
        width = a.width
        if kind in BINARY_OPS:
            b = adapt(draw(st.sampled_from(pool)), width)
            emit(Operation(kind, [a, b], [(width, None)]))
        elif kind == "not":
            emit(Operation("comb.not", [a], [(width, None)]))
        elif kind == "icmp":
            b = adapt(draw(st.sampled_from(pool)), width)
            emit(Operation("comb.icmp", [a, b], [(1, None)],
                           {"predicate": draw(
                               st.sampled_from(ICMP_PREDICATES))}))
        elif kind == "mux":
            cond = adapt(draw(st.sampled_from(pool)), 1)
            other = adapt(draw(st.sampled_from(pool)), width)
            emit(Operation("comb.mux", [cond, a, other], [(width, None)]))
        elif kind == "extract":
            low = draw(st.integers(0, width - 1))
            out_width = draw(st.integers(1, width - low))
            emit(Operation("comb.extract", [a], [(out_width, None)],
                           {"low": low}))
        elif kind == "concat":
            b = draw(st.sampled_from(pool))
            emit(Operation("comb.concat", [a, b],
                           [(width + b.width, None)]))
        elif kind == "replicate":
            times = draw(st.integers(1, 3))
            emit(Operation("comb.replicate", [a], [(width * times, None)]))
        elif kind == "rom":
            index = adapt(a, min(width, 8))
            values = draw(st.lists(st.integers(0, 255),
                                   min_size=1, max_size=8))
            emit(Operation("comb.rom", [index], [(8, None)],
                           {"values": values}))
        elif kind == "const":
            const_width = draw(_WIDTHS)
            emit(Operation("comb.constant", [], [(const_width, None)],
                           {"value": draw(
                               st.integers(0, mask(const_width)))}))
        else:  # reg
            enable = adapt(draw(st.sampled_from(pool)), 1)
            emit(Operation("seq.compreg", [a, enable], [(width, None)],
                           {"name": f"r{len(pool)}"}))
    for i, value in enumerate(pool[-4:]):
        module.add_output(f"out{i}", value)
    return module


@settings(deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.too_slow])
@given(module=random_netlists(), seed=st.integers(0, 2 ** 16))
def test_random_netlists_three_engine_parity(module, seed):
    mismatch = crosscheck_engines(module, cycles=6, seed=seed,
                                  engines=THREE_ENGINES)
    assert mismatch is None, mismatch


# ---------------------------------------------------------------------------
# Regressions: generated programs that used to crash the batched engine
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed,core", [
    # comb.mul with one provably-zero operand put the other, wide
    # (>= 2^64) operand on a uint64 lane: OverflowError in lower_uint64.
    (497826249, "ORCA"),
    (923266735, "Piccolo"),
    (727863876, "Piccolo"),
    (532517618, "PicoRV32"),
    # Constant-derived dataflow reached bool_to_uint64 as a Python bool.
    (154771779, "VexRiscv"),
])
def test_generated_program_three_engine_parity(seed, core):
    artifact = compile_isax(generate_program(seed).source, core,
                            engine="fastpath", schedule_cache=False)
    for name, functionality in artifact.functionalities.items():
        mismatch = crosscheck_engines(functionality.module,
                                      engines=THREE_ENGINES)
        assert mismatch is None, (name, mismatch)
