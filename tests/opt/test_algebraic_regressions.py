"""Regression tests for the `_simplify_algebraic` gap fixes.

The original helper only recognized identity constants on the right-hand
side (``x + 0``) and width-guarded forms that the binary verifier already
guarantees; this pins down the symmetric left-hand-side forms and the
multiplicative/mask identities the optimizer's canonicalize pass relies on.
"""

import repro.dialects  # noqa: F401
from repro.ir.builder import Builder
from repro.ir.core import Graph
from repro.opt.passes import _simplify_algebraic


def _prep(width=8):
    graph = Graph("t")
    builder = Builder.at(graph)
    x = builder.create("lil.read_rs1", [], [(32, None)]).result
    if width != 32:
        x = builder.create("comb.extract", [x], [(width, None)],
                           {"low": 0}).result
    return graph, builder, x


def _binary(builder, name, lhs, rhs, width):
    return builder.create(name, [lhs, rhs], [(width, None)])


class TestLeftIdentity:
    """0 on the LHS of add/or/xor simplifies just like on the RHS."""

    def test_zero_plus_x(self):
        graph, builder, x = _prep()
        zero = builder.constant(0, 8)
        op = _binary(builder, "comb.add", zero, x, 8)
        assert _simplify_algebraic(op) is x

    def test_zero_or_x(self):
        graph, builder, x = _prep()
        zero = builder.constant(0, 8)
        op = _binary(builder, "comb.or", zero, x, 8)
        assert _simplify_algebraic(op) is x

    def test_zero_xor_x(self):
        graph, builder, x = _prep()
        zero = builder.constant(0, 8)
        op = _binary(builder, "comb.xor", zero, x, 8)
        assert _simplify_algebraic(op) is x


class TestMultiplicativeIdentity:
    def test_x_times_one(self):
        graph, builder, x = _prep()
        one = builder.constant(1, 8)
        op = _binary(builder, "comb.mul", x, one, 8)
        assert _simplify_algebraic(op) is x

    def test_one_times_x(self):
        graph, builder, x = _prep()
        one = builder.constant(1, 8)
        op = _binary(builder, "comb.mul", one, x, 8)
        assert _simplify_algebraic(op) is x


class TestAndAllOnes:
    def test_x_and_mask(self):
        graph, builder, x = _prep()
        ones = builder.constant(0xFF, 8)
        op = _binary(builder, "comb.and", x, ones, 8)
        assert _simplify_algebraic(op) is x

    def test_mask_and_x(self):
        graph, builder, x = _prep()
        ones = builder.constant(0xFF, 8)
        op = _binary(builder, "comb.and", ones, x, 8)
        assert _simplify_algebraic(op) is x

    def test_partial_mask_not_simplified(self):
        graph, builder, x = _prep()
        partial = builder.constant(0x7F, 8)
        op = _binary(builder, "comb.and", x, partial, 8)
        assert _simplify_algebraic(op) is None


class TestNegative:
    """Identities must not fire where they would change semantics."""

    def test_zero_sub_x_not_x(self):
        graph, builder, x = _prep()
        zero = builder.constant(0, 8)
        op = _binary(builder, "comb.sub", zero, x, 8)
        # 0 - x == -x, not x.
        assert _simplify_algebraic(op) is not x

    def test_x_sub_zero_is_x(self):
        graph, builder, x = _prep()
        zero = builder.constant(0, 8)
        op = _binary(builder, "comb.sub", x, zero, 8)
        assert _simplify_algebraic(op) is x

    def test_non_constant_untouched(self):
        graph, builder, x = _prep()
        y = builder.create("lil.read_rs2", [], [(32, None)]).result
        y8 = builder.create("comb.extract", [y], [(8, None)],
                            {"low": 0}).result
        op = _binary(builder, "comb.add", x, y8, 8)
        assert _simplify_algebraic(op) is None


class TestDivModByZeroConstant:
    """A constant divisor of 0 passes the naive power-of-two test
    (``0 & -1 == 0``); the strength pass must leave the op alone rather
    than synthesize a shift by ``bit_length(0) - 1 == -1`` bits."""

    def test_divu_by_zero_left_intact(self):
        from repro.opt.passes import strength_pass

        graph, builder, x = _prep()
        zero = builder.constant(0, 8)
        div = _binary(builder, "comb.divu", x, zero, 8)
        pred = builder.constant(1, 1)
        builder.create("lil.write_rd", [div.result, pred], [])
        strength_pass(graph)
        assert "comb.divu" in [op.name for op in graph.operations]
        graph.verify()

    def test_modu_by_zero_left_intact(self):
        from repro.opt.passes import strength_pass

        graph, builder, x = _prep()
        zero = builder.constant(0, 8)
        mod = _binary(builder, "comb.modu", x, zero, 8)
        pred = builder.constant(1, 1)
        builder.create("lil.write_rd", [mod.result, pred], [])
        strength_pass(graph)
        assert "comb.modu" in [op.name for op in graph.operations]
        graph.verify()
