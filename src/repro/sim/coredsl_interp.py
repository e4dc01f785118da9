"""Golden-model interpreter for CoreDSL behaviors.

Executes the decorated AST of an elaborated ISA against an architectural
state, with the value semantics guaranteed by the type system (operators
never overflow; casts truncate/reinterpret).  Serves as:

* the reference model for co-simulation against the generated RTL,
* the ISAX executor inside the RV32I instruction-set simulator,
* the always-block evaluator of the core timing models.

Every architectural-state update is also recorded as an :class:`Effect` so
tests can compare "what the hardware did" against "what the language says".

**Translate once, run many times.**  The first execution of a behavior
(instruction, always-block or helper function) translates its AST into
nested Python closures and stores them on the elaborated object it came
from (``ElabInstruction.program``, ``ElabAlways.program``,
``FunctionSig.program``); every later execution only calls closures.
Translation resolves what the AST already fixes: each identifier to a
local frame slot, an encoding field, a parameter constant or a pre-bound
reader/writer of ``PC``, ``X``, ``MEM``, a ROM or a custom register; each
type to a mask plus sign fix; ``::`` and ``[hi:lo]`` widths; each operator
to its own closure.  It reads the AST only, never the lil/comb IR, so the
golden model stays a semantics source independent of the RTL path.

Per-call state is a frame list (one slot per local declaration) plus a
:class:`_Context` (state, fields, effects, ``spawned`` flag), so one
program serves concurrent callers.  Translation is idempotent: two threads
racing on a fresh behavior each translate it and one result is kept.

The closures keep the language's run-time rules: an error the semantics
raise only when a construct executes (division by zero, an identifier not
bound where it is read, a void function used as a value, a non-constant
range, a write to a ``const`` register, the runaway-loop guard) is raised
by its closure when it runs, with the same :class:`CoreDSLError` message.
Every declaration sits in a braced block (the type checker rejects an
unbraced one as the body of ``if``/``else``/``for``/``while``), so each
name resolves to one slot at translation.

**AST immutability contract.**  A program lives as long as its
:class:`~repro.frontend.elaboration.ElaboratedISA`; this relies on the
contract the elaboration memo (``_ELABORATION_CACHE``) relies on too: the
behavior ASTs, state and functions of an elaborated ISA are not mutated
after :func:`~repro.frontend.elaboration.elaborate` returns.  Nothing in
``repro`` does (lowering synthesizes fresh nodes instead of editing the
tree; the fuzz reducer edits its own parse tree and re-elaborates text).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

from repro.frontend import ast_nodes as ast
from repro.frontend.elaboration import ElaboratedISA
from repro.frontend.typecheck import FunctionSig, StateInfo, range_width
from repro.frontend.types import IntType
from repro.utils.bits import to_signed, to_unsigned
from repro.utils.diagnostics import CoreDSLError

#: Iterations after which a loop is reported as runaway.
_MAX_LOOP_ITERATIONS = 10_000_000


@dataclasses.dataclass
class Effect:
    """One architectural-state update performed by a behavior."""

    kind: str                  # "gpr" | "pc" | "mem" | "custom"
    name: str
    index: Optional[int]
    value: int                 # unsigned bit-pattern
    width: int
    spawned: bool = False


class ArchState:
    """Architectural state visible to CoreDSL behaviors."""

    def __init__(self, isa: Optional[ElaboratedISA] = None):
        self.xregs: List[int] = [0] * 32
        self.pc: int = 0
        self.memory: Dict[int, int] = {}
        self.custom: Dict[str, List[int]] = {}
        self.custom_widths: Dict[str, int] = {}
        if isa is not None:
            self.add_custom_state(isa)

    def add_custom_state(self, isa: ElaboratedISA) -> None:
        """Instantiate the custom registers of (another) ISAX; registers
        with the same name are shared (paper Section 6: shared state between
        ISAXes is supported)."""
        for info in isa.custom_state():
            if info.name in self.custom:
                continue
            size = info.size or 1
            values = [0] * size
            if info.init_values:
                for i, value in enumerate(info.init_values[:size]):
                    values[i] = value
            self.custom[info.name] = values
            self.custom_widths[info.name] = info.element.width

    # -- general-purpose registers ------------------------------------------
    def read_x(self, index: int) -> int:
        return 0 if index == 0 else self.xregs[index % 32]

    def write_x(self, index: int, value: int) -> None:
        if index % 32 != 0:
            self.xregs[index % 32] = to_unsigned(value, 32)

    # -- memory ---------------------------------------------------------------
    def read_mem_byte(self, address: int) -> int:
        return self.memory.get(to_unsigned(address, 32), 0)

    def write_mem_byte(self, address: int, value: int) -> None:
        self.memory[to_unsigned(address, 32)] = to_unsigned(value, 8)

    def read_mem(self, address: int, num_bytes: int) -> int:
        value = 0
        for i in range(num_bytes - 1, -1, -1):
            value = (value << 8) | self.read_mem_byte(address + i)
        return value

    def write_mem(self, address: int, value: int, num_bytes: int) -> None:
        for i in range(num_bytes):
            self.write_mem_byte(address + i, (value >> (8 * i)) & 0xFF)

    # -- custom registers --------------------------------------------------------
    def read_custom(self, name: str, index: int = 0) -> int:
        values = self.custom[name]
        return values[index] if 0 <= index < len(values) else 0

    def write_custom(self, name: str, value: int, index: int = 0) -> None:
        values = self.custom[name]
        if 0 <= index < len(values):
            values[index] = to_unsigned(value, self.custom_widths[name])

    def snapshot(self) -> dict:
        return {
            "xregs": list(self.xregs),
            "pc": self.pc,
            "memory": dict(self.memory),
            "custom": {k: list(v) for k, v in self.custom.items()},
        }


class _Context:
    """Per-execution state shared by every closure of one call tree."""

    __slots__ = ("state", "fields", "effects", "spawned")

    def __init__(self, state: ArchState, fields: Dict[str, int],
                 effects: List[Effect]):
        self.state = state
        self.fields = fields
        self.effects = effects
        self.spawned = False


#: ``closure(ctx, frame)``: an expression yields its value; a statement
#: yields None, or ``(value,)`` once a ``return`` has executed.
Closure = Callable[[_Context, list], object]


class CoreDSLInterpreter:
    """Executes instruction behaviors and always-blocks of one ISA."""

    def __init__(self, isa: ElaboratedISA):
        self.isa = isa
        self.effects: List[Effect] = []

    def execute_instruction(self, state: ArchState, name: str,
                            word: int) -> List[Effect]:
        instr = self.isa.instructions[name]
        fields = instr.encoding.decode(word)
        if instr.program is None:
            instr.program = _translate_behavior(
                self.isa, instr.behavior, set(instr.encoding.fields))
        return self._run(instr.program, state, fields)

    def execute_always(self, state: ArchState, name: str) -> List[Effect]:
        block = self.isa.always_blocks[name]
        if block.program is None:
            block.program = _translate_behavior(self.isa, block.body, set())
        return self._run(block.program, state, {})

    def match_instruction(self, word: int) -> Optional[str]:
        for name, instr in self.isa.instructions.items():
            if instr.encoding.matches(word):
                return name
        return None

    def _run(self, program, state: ArchState,
             fields: Dict[str, int]) -> List[Effect]:
        self.effects = effects = []
        program(_Context(state, fields, effects))
        return effects


# ---------------------------------------------------------------------------
# Translation
# ---------------------------------------------------------------------------

def _translate_behavior(isa: ElaboratedISA, body: ast.Stmt,
                        fields) -> Callable[[_Context], None]:
    translator = _Translator(isa, fields)
    run, _returns = translator.stmt(body)
    nslots = translator.nslots

    def program(ctx):
        run(ctx, [None] * nslots)
    return program


def _translate_function(isa: ElaboratedISA, sig: FunctionSig):
    """``program(ctx, args)`` of a helper function; ``args`` are the
    already-evaluated argument values."""
    translator = _Translator(isa, set())
    translator.push()
    params = [(translator.declare(name, type_).slot,) + _norm(type_)
              for name, type_ in sig.params]
    body, _returns = translator.stmt(sig.definition.body)
    nslots = translator.nslots
    ret = sig.return_type
    rh, rm = _norm(ret) if ret is not None else (0, 0)

    def program(ctx, args):
        frame = [None] * nslots
        for (slot, h, m), value in zip(params, args):
            frame[slot] = ((value + h) & m) - h
        result = body(ctx, frame)
        if result is None or result[0] is None or ret is None:
            return None
        return ((result[0] + rh) & rm) - rh
    sig.program = program
    return program


def _norm(type_: IntType) -> Tuple[int, int]:
    """``(h, m)`` such that ``((v + h) & m) - h`` wraps ``v`` into
    ``type_`` (``h`` is 0 for unsigned types)."""
    half = 1 << (type_.width - 1) if type_.is_signed else 0
    return half, (1 << type_.width) - 1


def _raises(message: str, *operands: Closure) -> Closure:
    """A closure that evaluates ``operands`` in order, then raises."""
    def run(c, f):
        for operand in operands:
            operand(c, f)
        raise CoreDSLError(message)
    return run


def _nop(c, f):
    return None


class _Local:
    __slots__ = ("slot", "type", "read")

    def __init__(self, slot: int, type_: IntType):
        self.slot = slot
        self.type = type_
        self.read: Closure = lambda c, f: f[slot]


def _names(expr: Optional[ast.Expr]) -> set:
    """Identifiers read anywhere in ``expr``."""
    if expr is None:
        return set()
    if isinstance(expr, ast.Identifier):
        return {expr.name}
    names: set = set()
    for field in dataclasses.fields(expr):
        child = getattr(expr, field.name)
        if isinstance(child, ast.Expr):
            names |= _names(child)
        elif isinstance(child, list):
            for item in child:
                if isinstance(item, ast.Expr):
                    names |= _names(item)
    return names


class _Translator:
    """Translates the statements of one behavior or function."""

    def __init__(self, isa: ElaboratedISA, fields):
        self.isa = isa
        self.fields = fields
        self.scopes: List[Dict[str, _Local]] = []
        self.nslots = 0
        #: One shared closure per constant value and per field read.
        self.constants: Dict[Optional[int], Closure] = {}
        self.field_reads: Dict[str, Closure] = {}

    # ------------------------------------------------------------ scopes
    def push(self) -> None:
        self.scopes.append({})

    def pop(self) -> None:
        self.scopes.pop()

    def declare(self, name: str, type_: IntType) -> _Local:
        local = _Local(self.nslots, type_)
        self.nslots += 1
        self.scopes[-1][name] = local
        return local

    def use(self, name: str, local: Callable[[_Local], Closure],
            other: Callable[[], Closure]) -> Closure:
        """Compile a use of ``name``: ``local(binding)`` where it names a
        local, ``other()`` where it does not."""
        for scope in reversed(self.scopes):
            binding = scope.get(name)
            if binding is not None:
                return local(binding)
        return other()

    def constant(self, value: Optional[int]) -> Closure:
        if value not in self.constants:
            self.constants[value] = lambda c, f: value
        return self.constants[value]

    def field(self, name: str) -> Closure:
        if name not in self.field_reads:
            self.field_reads[name] = lambda c, f: c.fields[name]
        return self.field_reads[name]

    def state_of(self, name: str) -> Optional[StateInfo]:
        """State element ``name`` names when it is neither a local nor a
        field (locals are excluded by :meth:`use`)."""
        return None if name in self.fields else self.isa.state.get(name)

    # -------------------------------------------------------- statements
    def stmt(self, node: ast.Stmt) -> Tuple[Closure, bool]:
        """``(closure, may_return)`` for one statement."""
        method = _STATEMENTS.get(type(node))
        if method is None:
            return _raises(f"cannot interpret {type(node).__name__}"), False
        return method(self, node)

    def _block_stmt(self, node: ast.BlockStmt):
        self.push()
        parts = [self.stmt(s) for s in node.statements]
        self.pop()
        stmts = tuple(run for run, _ in parts)
        returns = any(may for _, may in parts)
        if not stmts:
            run = _nop
        elif len(stmts) == 1:
            run = stmts[0]
        elif returns:
            def run(c, f):
                for s in stmts:
                    result = s(c, f)
                    if result is not None:
                        return result
        else:
            def run(c, f):
                for s in stmts:
                    s(c, f)
        return run, returns

    def _var_decl(self, node: ast.VarDecl):
        init = self.expr(node.init) if node.init is not None else None
        slot = self.declare(node.name, node.decl_type).slot
        h, m = _norm(node.decl_type)
        if init is None:
            def run(c, f):
                f[slot] = 0
        else:
            def run(c, f):
                f[slot] = ((init(c, f) + h) & m) - h
        return run, False

    def _assign(self, node: ast.Assign):
        value = self.expr(node.value)
        if node.op != "=":
            value = self.binary(node.op[:-1], self.expr(node.target), value)
        target = node.target
        if isinstance(target, ast.Identifier):
            return self.use(
                target.name,
                lambda local: self._assign_local(local, value),
                lambda: self._assign_scalar(target.name, value)), False
        if isinstance(target, (ast.IndexExpr, ast.RangeExpr)):
            if not isinstance(target.base, ast.Identifier):
                return _raises("unsupported assignment target", value), False
            if isinstance(target, ast.IndexExpr):
                other = lambda: self._assign_element(target, value)
                message = "unsupported assignment target"
            else:
                other = lambda: self._assign_range(target, value)
                message = "unsupported range assignment"
            return self.use(target.base.name,
                            lambda _local: _raises(message, value),
                            other), False
        return _raises("unsupported assignment target", value), False

    @staticmethod
    def _assign_local(local: _Local, value: Closure) -> Closure:
        slot = local.slot
        h, m = _norm(local.type)
        if h:
            def run(c, f):
                f[slot] = ((value(c, f) + h) & m) - h
        else:
            def run(c, f):
                f[slot] = value(c, f) & m
        return run

    def _assign_scalar(self, name: str, value: Closure) -> Closure:
        info = self.state_of(name)
        if info is None or info.kind != "scalar_reg":
            return _raises(f"cannot assign '{name}'", value)
        write = _writer(info)

        def run(c, f):
            write(c, value(c, f), None)
        return run

    def _assign_element(self, target: ast.IndexExpr,
                        value: Closure) -> Closure:
        info = self.state_of(target.base.name)
        if info is None:
            return _raises("unsupported assignment target", value)
        write = _writer(info)
        index = self.expr(target.index)

        def run(c, f):
            v = value(c, f)
            write(c, v, index(c, f))
        return run

    def _assign_range(self, target: ast.RangeExpr, value: Closure) -> Closure:
        info = self.state_of(target.base.name)
        if info is None or info.kind != "mem":
            return _raises("unsupported range assignment", value)
        name = info.name
        low = self.expr(target.lo)
        count = self.range_count(target)

        def run(c, f):
            v = value(c, f)
            address = low(c, f)
            n = count(c, f)
            raw = v & ((1 << (n * 8)) - 1)
            c.state.write_mem(address, raw, n)
            c.effects.append(Effect("mem", name, address & 0xFFFFFFFF, raw,
                                    n * 8, c.spawned))
        return run

    def _expr_stmt(self, node: ast.ExprStmt):
        # Only calls have an effect; other expressions are not evaluated.
        if isinstance(node.expr, ast.FunctionCall):
            return self.call(node.expr), False
        return _nop, False

    def _if_stmt(self, node: ast.IfStmt):
        cond = self.expr(node.cond)
        then, then_returns = self.stmt(node.then_body)
        if node.else_body is None:
            def run(c, f):
                if cond(c, f):
                    return then(c, f)
            return run, then_returns
        other, else_returns = self.stmt(node.else_body)

        def run_else(c, f):
            if cond(c, f):
                return then(c, f)
            return other(c, f)
        return run_else, then_returns or else_returns

    def _for_stmt(self, node: ast.ForStmt):
        self.push()
        init = self.stmt(node.init)[0] if node.init is not None else _nop
        cond = (self.expr(node.cond) if node.cond is not None
                else self.constant(1))
        body, returns = self.stmt(node.body)
        step = self.stmt(node.step)[0] if node.step is not None else _nop
        self.pop()

        def run(c, f):
            init(c, f)
            limit = _MAX_LOOP_ITERATIONS
            guard = 0
            while cond(c, f):
                result = body(c, f)
                if result is not None:
                    return result
                step(c, f)
                guard += 1
                if guard > limit:
                    raise CoreDSLError("runaway loop in interpreter")
        return run, returns

    def _while_stmt(self, node: ast.WhileStmt):
        self.push()
        cond = self.expr(node.cond)
        body, returns = self.stmt(node.body)
        self.pop()
        do_while = node.is_do_while

        def run(c, f):
            limit = _MAX_LOOP_ITERATIONS
            guard = 0
            if do_while:
                result = body(c, f)
                if result is not None:
                    return result
                guard += 1
            while cond(c, f):
                result = body(c, f)
                if result is not None:
                    return result
                guard += 1
                if guard > limit:
                    raise CoreDSLError("runaway loop in interpreter")
        return run, returns

    def _switch_stmt(self, node: ast.SwitchStmt):
        value = self.expr(node.value)
        cases = []
        returns = False
        for case in node.cases:
            label = self.expr(case.label) if case.label is not None else None
            body, may = self.stmt(case.body)
            cases.append((label, body))
            returns = returns or may

        def run(c, f):
            v = value(c, f)
            default = None
            for label, body in cases:
                if label is None:
                    default = body
                elif label(c, f) == v:
                    return body(c, f)
            if default is not None:
                return default(c, f)
        return run, returns

    def _spawn_stmt(self, node: ast.SpawnStmt):
        body, returns = self.stmt(node.body)

        def run(c, f):
            was = c.spawned
            c.spawned = True
            result = body(c, f)
            if result is not None:
                return result
            c.spawned = was
        return run, returns

    def _return_stmt(self, node: ast.ReturnStmt):
        value = (self.expr(node.value) if node.value is not None
                 else self.constant(None))
        return (lambda c, f: (value(c, f),)), True

    # -------------------------------------------------------- expressions
    def expr(self, node: ast.Expr) -> Closure:
        method = _EXPRESSIONS.get(type(node))
        if method is None:
            return _raises(f"cannot interpret {type(node).__name__}")
        return method(self, node)

    def _int_literal(self, node: ast.IntLiteral):
        explicit = node.explicit_type
        if explicit is not None and explicit.is_signed:
            return self.constant(to_signed(node.value, explicit.width))
        return self.constant(node.value)

    def _bool_literal(self, node: ast.BoolLiteral):
        return self.constant(int(node.value))

    def _identifier(self, node: ast.Identifier):
        return self.use(node.name, lambda local: local.read,
                        lambda: self._global(node.name))

    def _global(self, name: str) -> Closure:
        """Read of a name that is not a local."""
        if name in self.fields:
            return self.field(name)
        if name in self.isa.parameters:
            return self.constant(self.isa.parameters[name])
        info = self.isa.state.get(name)
        if info is None or info.kind != "scalar_reg":
            return _raises(f"cannot interpret identifier '{name}'")
        read = _reader(info)
        h, m = _norm(info.element)
        return lambda c, f: ((read(c.state, None) + h) & m) - h

    def _binary_op(self, node: ast.BinaryOp):
        lhs = self.expr(node.lhs)
        rhs = self.expr(node.rhs)
        if node.op == "::":
            lm = (1 << node.lhs.ctype.width) - 1
            rw = node.rhs.ctype.width
            rm = (1 << rw) - 1
            def concat(c, f):
                return ((lhs(c, f) & lm) << rw) | (rhs(c, f) & rm)
            return concat
        return self.binary(node.op, lhs, rhs)

    def binary(self, op: str, lhs: Closure, rhs: Closure) -> Closure:
        if op not in _BINARY:
            return _raises(f"cannot interpret operator '{op}'", lhs, rhs)
        return _BINARY[op](lhs, rhs)

    def _unary_op(self, node: ast.UnaryOp):
        operand = self.expr(node.operand)
        if node.op == "-":
            return lambda c, f: -operand(c, f)
        if node.op == "!":
            return lambda c, f: 0 if operand(c, f) else 1
        if node.op == "~":
            # Bit-pattern complement within the operand's type.
            h, m = _norm(node.operand.ctype)
            return lambda c, f: ((~operand(c, f) + h) & m) - h
        return _raises(f"cannot interpret unary '{node.op}'", operand)

    def _conditional(self, node: ast.Conditional):
        cond = self.expr(node.cond)
        true_value = self.expr(node.true_value)
        false_value = self.expr(node.false_value)

        def run(c, f):
            return true_value(c, f) if cond(c, f) else false_value(c, f)
        return run

    def _cast(self, node: ast.Cast):
        operand = self.expr(node.operand)
        width = node.target_width or node.operand.ctype.width
        h, m = _norm(IntType(width, node.target_signed))
        if h:
            def run(c, f):
                return ((operand(c, f) + h) & m) - h
        else:
            def run(c, f):
                return operand(c, f) & m
        return run

    def _function_call(self, node: ast.FunctionCall):
        call = self.call(node)
        message = f"void function '{node.callee}' used as value"

        def run(c, f):
            result = call(c, f)
            if result is None:
                raise CoreDSLError(message)
            return result
        return run

    def call(self, node: ast.FunctionCall) -> Closure:
        sig = self.isa.functions.get(node.callee)
        if sig is None:
            return _raises(f"unknown function '{node.callee}'")
        isa = self.isa
        args = [self.expr(arg) for arg in node.args[:len(sig.params)]]

        def run(c, f):
            program = sig.program or _translate_function(isa, sig)
            return program(c, [arg(c, f) for arg in args])
        return run

    def _index_expr(self, node: ast.IndexExpr):
        if not isinstance(node.base, ast.Identifier):
            return self._bit(node)
        return self.use(node.base.name, lambda _local: self._bit(node),
                        lambda: self._index_state(node))

    def _index_state(self, node: ast.IndexExpr) -> Closure:
        info = self.state_of(node.base.name)
        if info is None or info.kind not in (
                "array_reg", "mem", "rom", "scalar_reg"):
            return self._bit(node)
        read = _reader(info)
        index = self.expr(node.index)
        h, m = _norm(info.element)
        if info.kind == "scalar_reg":
            def bit(c, f):
                raw = read(c.state, None) & m
                return (raw >> index(c, f)) & 1
            return bit

        def element(c, f):
            return ((read(c.state, index(c, f) & 0xFFFFFFFF) + h) & m) - h
        return element

    def _bit(self, node: ast.IndexExpr) -> Closure:
        """Single-bit read of an arbitrary value; 0 when out of range."""
        base = self.expr(node.base)
        index = self.expr(node.index)
        width = node.base.ctype.width
        m = (1 << width) - 1

        def run(c, f):
            value = base(c, f)
            bit = index(c, f)
            if not 0 <= bit < width:
                return 0
            return ((value & m) >> bit) & 1
        return run

    def _range_expr(self, node: ast.RangeExpr):
        count = self.range_count(node)
        if not isinstance(node.base, ast.Identifier):
            return self._bits(node, count)
        return self.use(node.base.name,
                        lambda _local: self._bits(node, count),
                        lambda: self._range_state(node, count))

    def _range_state(self, node: ast.RangeExpr, count: Closure) -> Closure:
        info = self.state_of(node.base.name)
        if info is None or info.kind not in (
                "mem", "array_reg", "rom", "scalar_reg"):
            return self._bits(node, count)
        low = self.expr(node.lo)
        if info.kind == "mem":
            def mem(c, f):
                n = count(c, f)
                return c.state.read_mem(low(c, f), n)
            return mem
        read = _reader(info)
        width = info.element.width
        m = (1 << width) - 1
        if info.kind == "scalar_reg":
            def bits(c, f):
                n = count(c, f)
                raw = read(c.state, None) & m
                return (raw >> low(c, f)) & ((1 << n) - 1)
            return bits

        def elements(c, f):
            n = count(c, f)
            start = low(c, f)
            state = c.state
            value = 0
            for i in range(n - 1, -1, -1):
                value = (value << width) | (read(state, start + i) & m)
            return value
        return elements

    def _bits(self, node: ast.RangeExpr, count: Closure) -> Closure:
        """Bit range of an arbitrary value, clipped to its type."""
        base = self.expr(node.base)
        low = self.expr(node.lo)
        width = node.base.ctype.width
        m = (1 << width) - 1

        def run(c, f):
            n = count(c, f)
            value = base(c, f) & m
            lo = low(c, f)
            hi = min(lo + n - 1, width - 1)
            if lo > hi:
                return 0
            return (value >> lo) & ((1 << (hi - lo + 1)) - 1)
        return run

    def range_count(self, node: ast.RangeExpr) -> Closure:
        """Closure yielding the element/bit count of ``[hi:lo]``.

        Range bounds are evaluated with every name visible at run time
        bound to its value.  The count is fixed at translation unless a
        bound names a parameter that a local may shadow, or the bounds are
        not affine; then it is recomputed on every run and raises there.
        """
        params = self.isa.parameters
        names = _names(node.hi) | _names(node.lo)
        shadowed = any(name in params and self._is_local(name)
                       for name in names)
        if not shadowed:
            try:
                return self.constant(range_width(node.hi, node.lo, params))
            except CoreDSLError:
                pass
        readers = []
        for name in sorted(names):
            readers.append((name, self.use(
                name, lambda local: local.read,
                lambda name=name: self._field_or_none(name))))
        hi, lo = node.hi, node.lo

        def run(c, f):
            env = dict(params)
            for name, read in readers:
                value = read(c, f)
                if value is not None:
                    env[name] = value
            return range_width(hi, lo, env)
        return run

    def _is_local(self, name: str) -> bool:
        return any(name in scope for scope in self.scopes)

    def _field_or_none(self, name: str) -> Closure:
        return self.field(name) if name in self.fields else _nop


#: AST node type -> translator method.
_STATEMENTS: Dict[type, Callable[..., Tuple[Closure, bool]]] = {
    ast.BlockStmt: _Translator._block_stmt,
    ast.VarDecl: _Translator._var_decl,
    ast.Assign: _Translator._assign,
    ast.ExprStmt: _Translator._expr_stmt,
    ast.IfStmt: _Translator._if_stmt,
    ast.ForStmt: _Translator._for_stmt,
    ast.WhileStmt: _Translator._while_stmt,
    ast.SwitchStmt: _Translator._switch_stmt,
    ast.SpawnStmt: _Translator._spawn_stmt,
    ast.ReturnStmt: _Translator._return_stmt,
}
_EXPRESSIONS: Dict[type, Callable[..., Closure]] = {
    ast.IntLiteral: _Translator._int_literal,
    ast.BoolLiteral: _Translator._bool_literal,
    ast.Identifier: _Translator._identifier,
    ast.BinaryOp: _Translator._binary_op,
    ast.UnaryOp: _Translator._unary_op,
    ast.Conditional: _Translator._conditional,
    ast.Cast: _Translator._cast,
    ast.FunctionCall: _Translator._function_call,
    ast.IndexExpr: _Translator._index_expr,
    ast.RangeExpr: _Translator._range_expr,
}


# ---------------------------------------------------------------------------
# Operators and state access
# ---------------------------------------------------------------------------

def _div(lhs: int, rhs: int) -> int:
    if rhs == 0:
        raise CoreDSLError("division by zero")
    quotient = abs(lhs) // abs(rhs)
    return -quotient if (lhs < 0) != (rhs < 0) else quotient


def _mod(lhs: int, rhs: int) -> int:
    if rhs == 0:
        raise CoreDSLError("modulo by zero")
    return lhs - _div(lhs, rhs) * rhs


#: op -> factory(lhs, rhs) of the operator's closure.
_BINARY = {
    "+": lambda a, b: lambda c, f: a(c, f) + b(c, f),
    "-": lambda a, b: lambda c, f: a(c, f) - b(c, f),
    "*": lambda a, b: lambda c, f: a(c, f) * b(c, f),
    "/": lambda a, b: lambda c, f: _div(a(c, f), b(c, f)),
    "%": lambda a, b: lambda c, f: _mod(a(c, f), b(c, f)),
    "&": lambda a, b: lambda c, f: a(c, f) & b(c, f),
    "|": lambda a, b: lambda c, f: a(c, f) | b(c, f),
    "^": lambda a, b: lambda c, f: a(c, f) ^ b(c, f),
    "<<": lambda a, b: lambda c, f: a(c, f) << b(c, f),
    ">>": lambda a, b: lambda c, f: a(c, f) >> b(c, f),
    "==": lambda a, b: lambda c, f: 1 if a(c, f) == b(c, f) else 0,
    "!=": lambda a, b: lambda c, f: 1 if a(c, f) != b(c, f) else 0,
    "<": lambda a, b: lambda c, f: 1 if a(c, f) < b(c, f) else 0,
    "<=": lambda a, b: lambda c, f: 1 if a(c, f) <= b(c, f) else 0,
    ">": lambda a, b: lambda c, f: 1 if a(c, f) > b(c, f) else 0,
    ">=": lambda a, b: lambda c, f: 1 if a(c, f) >= b(c, f) else 0,
    "&&": lambda a, b: lambda c, f: 1 if a(c, f) and b(c, f) else 0,
    "||": lambda a, b: lambda c, f: 1 if a(c, f) or b(c, f) else 0,
}


def _reader(info: StateInfo) -> Callable[[ArchState, Optional[int]], int]:
    """``read(state, index)``: the raw value of one element of ``info``."""
    if info.is_pc:
        return lambda state, index: state.pc
    if info.is_main_reg:
        def read_x(state, index):
            assert index is not None
            return 0 if index == 0 else state.xregs[index % 32]
        return read_x
    if info.is_main_mem:
        def read_mem(state, index):
            assert index is not None
            return state.memory.get(index & 0xFFFFFFFF, 0)
        return read_mem
    if info.kind == "rom":
        values = info.init_values or []

        def read_rom(state, index):
            index = index or 0
            return values[index] if 0 <= index < len(values) else 0
        return read_rom
    name = info.name
    return lambda state, index: state.read_custom(name, index or 0)


def _writer(info: StateInfo) -> Callable[[_Context, int, Optional[int]],
                                         None]:
    """``write(ctx, value, index)``: update one element of ``info`` and
    record the :class:`Effect`."""
    name = info.name
    width = info.element.width
    m = (1 << width) - 1
    if info.is_pc:
        def write_pc(c, value, index):
            raw = value & m
            c.state.pc = raw
            c.effects.append(Effect("pc", "PC", None, raw, 32, c.spawned))
        return write_pc
    if info.is_main_reg:
        def write_x(c, value, index):
            assert index is not None
            raw = value & m
            c.state.write_x(index, raw)
            c.effects.append(Effect("gpr", "X", index, raw, 32, c.spawned))
        return write_x
    if info.is_main_mem:
        def write_mem(c, value, index):
            assert index is not None
            raw = value & m
            c.state.write_mem_byte(index, raw)
            c.effects.append(Effect("mem", name, index & 0xFFFFFFFF, raw, 8,
                                    c.spawned))
        return write_mem
    if info.kind == "rom":
        def write_rom(c, value, index):
            raise CoreDSLError(f"cannot write constant register '{name}'")
        return write_rom

    def write_custom(c, value, index):
        raw = value & m
        c.state.write_custom(name, raw, index or 0)
        c.effects.append(Effect("custom", name, index or 0, raw, width,
                                c.spawned))
    return write_custom
