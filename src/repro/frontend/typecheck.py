"""Type checking and constant evaluation for CoreDSL behaviors.

Implements the bitwidth-aware rules of paper Section 2.3 on the AST:

* every expression gets a ``ctype`` (:class:`~repro.frontend.types.IntType`),
* implicit conversions must be value-preserving (no silent narrowing or sign
  loss), with the single exception of *compound* assignments (``a += b``),
  which by definition truncate back to the target's type,
* bit/element ranges (``x[hi:lo]``) require bounds that are compile-time
  constants or the same variable with constant offsets (paper Section 2.4),
* constants are folded so that loop bounds and shift amounts are known.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.frontend import ast_nodes as ast
from repro.frontend import types as ty
from repro.frontend.types import IntType
from repro.utils.diagnostics import CoreDSLError, SourceLocation

# ---------------------------------------------------------------------------
# Constant evaluation (value semantics: mathematical integers)
# ---------------------------------------------------------------------------

_ARITH_FOLD = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: _int_div(a, b),
    "%": lambda a, b: _int_rem(a, b),
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "<<": lambda a, b: a << b,
    ">>": lambda a, b: a >> b,
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b),
    "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b),
    ">=": lambda a, b: int(a >= b),
    "&&": lambda a, b: int(bool(a) and bool(b)),
    "||": lambda a, b: int(bool(a) or bool(b)),
}


def _int_div(a: int, b: int) -> int:
    """C-style truncating division."""
    if b == 0:
        raise CoreDSLError("division by zero in constant expression")
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _int_rem(a: int, b: int) -> int:
    return a - _int_div(a, b) * b


def const_eval(expr: ast.Expr, env: Optional[Dict[str, int]] = None) -> Optional[int]:
    """Evaluate ``expr`` to a mathematical integer if it is a compile-time
    constant under ``env`` (name -> value); return None otherwise."""
    env = env or {}
    if isinstance(expr, ast.IntLiteral):
        if expr.explicit_type is not None and expr.explicit_type.is_signed:
            from repro.utils.bits import to_signed
            return to_signed(expr.value, expr.explicit_type.width)
        return expr.value
    if isinstance(expr, ast.BoolLiteral):
        return int(expr.value)
    if isinstance(expr, ast.Identifier):
        return env.get(expr.name)
    if isinstance(expr, ast.UnaryOp):
        val = const_eval(expr.operand, env)
        if val is None:
            return None
        if expr.op == "-":
            return -val
        if expr.op == "!":
            return int(not val)
        if expr.op == "~":
            # Complement within the operand's type (matching the golden
            # interpreter): ``~unsigned<8>(186)`` is 69, not -187.  The
            # operand's ctype is available whenever the checker has already
            # decorated it; fall back to the signed view otherwise.
            operand_type = getattr(expr.operand, "ctype", None)
            if isinstance(operand_type, IntType):
                from repro.utils.bits import to_signed, to_unsigned
                raw = to_unsigned(~to_unsigned(val, operand_type.width),
                                  operand_type.width)
                if operand_type.is_signed:
                    return to_signed(raw, operand_type.width)
                return raw
            return ~val
        return None
    if isinstance(expr, ast.BinaryOp):
        fold = _ARITH_FOLD.get(expr.op)
        if fold is None:
            return None
        lhs = const_eval(expr.lhs, env)
        rhs = const_eval(expr.rhs, env)
        if lhs is None or rhs is None:
            return None
        return fold(lhs, rhs)
    if isinstance(expr, ast.Conditional):
        cond = const_eval(expr.cond, env)
        if cond is None:
            return None
        return const_eval(expr.true_value if cond else expr.false_value, env)
    if isinstance(expr, ast.Cast):
        val = const_eval(expr.operand, env)
        if val is None or expr.width_expr is None:
            return None
        width = const_eval(expr.width_expr, env)
        if width is None:
            return None
        from repro.utils.bits import to_signed, to_unsigned
        raw = to_unsigned(val, width)
        return to_signed(raw, width) if expr.target_signed else raw
    return None


def affine_form(
    expr: ast.Expr, env: Optional[Dict[str, int]] = None
) -> Optional[Tuple[Optional[str], int]]:
    """Decompose ``expr`` as ``var + offset`` (var may be None for pure
    constants).  Used to validate range bounds like ``x[i+7:i]``."""
    env = env or {}
    val = const_eval(expr, env)
    if val is not None:
        return (None, val)
    if isinstance(expr, ast.Identifier):
        return (expr.name, 0)
    if isinstance(expr, ast.BinaryOp) and expr.op in ("+", "-"):
        lhs = affine_form(expr.lhs, env)
        rhs = affine_form(expr.rhs, env)
        if lhs is None or rhs is None:
            return None
        lvar, loff = lhs
        rvar, roff = rhs
        if expr.op == "+":
            if lvar is not None and rvar is not None:
                return None
            return (lvar or rvar, loff + roff)
        if rvar is not None:
            return None
        return (lvar, loff - roff)
    return None


def range_width(
    hi: ast.Expr, lo: ast.Expr, env: Optional[Dict[str, int]] = None
) -> int:
    """Number of elements/bits selected by ``[hi:lo]``; raises if the bounds
    are not constants or not the same variable with constant offsets."""
    hi_form = affine_form(hi, env)
    lo_form = affine_form(lo, env)
    if hi_form is None or lo_form is None or hi_form[0] != lo_form[0]:
        raise CoreDSLError(
            "range bounds must be compile-time constants or the same "
            "variable with a constant offset",
            hi.loc,
        )
    diff = hi_form[1] - lo_form[1]
    if diff < 0:
        raise CoreDSLError(f"range [{hi_form[1]}:{lo_form[1]}] has from < to", hi.loc)
    return diff + 1


# ---------------------------------------------------------------------------
# State / function metadata used during checking
# ---------------------------------------------------------------------------

class StateInfo:
    """Resolved information about one architectural-state element."""

    KINDS = ("scalar_reg", "array_reg", "mem", "rom", "param")

    def __init__(self, name: str, kind: str, element: IntType,
                 size: Optional[int] = None, attributes: Optional[List[str]] = None,
                 init_values: Optional[List[int]] = None,
                 loc: Optional["SourceLocation"] = None):
        assert kind in self.KINDS
        self.name = name
        self.kind = kind
        self.element = element
        self.size = size
        self.attributes = attributes or []
        self.init_values = init_values
        #: Declaration site (for lints); None for synthesized state.
        self.loc = loc

    @property
    def is_pc(self) -> bool:
        return "is_pc" in self.attributes

    @property
    def is_main_reg(self) -> bool:
        return "is_main_reg" in self.attributes

    @property
    def is_main_mem(self) -> bool:
        return "is_main_mem" in self.attributes

    def __repr__(self) -> str:
        suffix = f"[{self.size}]" if self.size is not None else ""
        return f"StateInfo({self.name}: {self.element}{suffix}, {self.kind})"


class FunctionSig:
    def __init__(self, name: str, params: List[Tuple[str, IntType]],
                 return_type: Optional[IntType], definition: ast.FunctionDef):
        self.name = name
        self.params = params
        self.return_type = return_type
        self.definition = definition
        #: Golden-model closures of the body, translated on first call
        #: (:mod:`repro.sim.coredsl_interp`).
        self.program: Optional[Callable] = None


# ---------------------------------------------------------------------------
# The checker
# ---------------------------------------------------------------------------

class TypeChecker:
    """Checks and decorates the behaviors of one elaborated ISA."""

    def __init__(self, parameters: Dict[str, int], state: Dict[str, StateInfo],
                 functions: Dict[str, FunctionSig]):
        self.parameters = parameters
        self.state = state
        self.functions = functions
        self.scopes: List[Dict[str, IntType]] = []
        self.fields: Dict[str, IntType] = {}
        self.current_function: Optional[FunctionSig] = None
        self.in_always = False
        self.saw_spawn = False

    # -- scope helpers -------------------------------------------------------
    def push_scope(self) -> None:
        self.scopes.append({})

    def pop_scope(self) -> None:
        self.scopes.pop()

    def declare_local(self, name: str, type_: IntType, loc) -> None:
        if name in self.scopes[-1]:
            raise CoreDSLError(f"redeclaration of '{name}'", loc)
        self.scopes[-1][name] = type_

    def lookup_local(self, name: str) -> Optional[IntType]:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    def width_of(self, width_expr: Optional[ast.Expr], loc) -> int:
        if width_expr is None:
            raise CoreDSLError("missing type width", loc)
        width = const_eval(width_expr, self.parameters)
        if width is None:
            raise CoreDSLError("type width must be a compile-time constant", loc)
        if width < 1:
            raise CoreDSLError(f"type width must be >= 1, got {width}", loc)
        return width

    # -- entry points -----------------------------------------------------------
    def check_instruction(self, instr: ast.InstructionDef,
                          fields: Dict[str, IntType]) -> bool:
        """Check an instruction behavior; returns True if it contains spawn."""
        self.fields = dict(fields)
        self.scopes = [{}]
        self.in_always = False
        self.saw_spawn = False
        self.check_stmt(instr.behavior)
        self.fields = {}
        return self.saw_spawn

    def check_always(self, block: ast.AlwaysDef) -> None:
        self.fields = {}
        self.scopes = [{}]
        self.in_always = True
        try:
            self.check_stmt(block.body)
        finally:
            self.in_always = False

    def check_function(self, sig: FunctionSig) -> None:
        self.fields = {}
        self.scopes = [dict(sig.params)]
        self.current_function = sig
        try:
            self.check_stmt(sig.definition.body)
        finally:
            self.current_function = None

    # -- statements ------------------------------------------------------------
    def check_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.BlockStmt):
            self.push_scope()
            for child in stmt.statements:
                self.check_stmt(child)
            self.pop_scope()
        elif isinstance(stmt, ast.VarDecl):
            width = self.width_of(stmt.width_expr, stmt.loc)
            decl_type = IntType(width, stmt.is_signed)
            stmt.decl_type = decl_type
            if stmt.init is not None:
                init_type = self.check_expr(stmt.init)
                self.require_convertible(init_type, decl_type, stmt.init)
            self.declare_local(stmt.name, decl_type, stmt.loc)
        elif isinstance(stmt, ast.Assign):
            self.check_assign(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self.check_expr_or_void(stmt.expr)
        elif isinstance(stmt, ast.IfStmt):
            self.check_expr(stmt.cond)
            self.check_body(stmt.then_body, "if")
            if stmt.else_body is not None:
                self.check_body(stmt.else_body, "else")
        elif isinstance(stmt, ast.ForStmt):
            self.push_scope()
            if stmt.init is not None:
                self.check_stmt(stmt.init)
            if stmt.cond is not None:
                self.check_expr(stmt.cond)
            if stmt.step is not None:
                self.check_stmt(stmt.step)
            self.check_body(stmt.body, "for")
            self.pop_scope()
        elif isinstance(stmt, ast.WhileStmt):
            self.push_scope()
            self.check_expr(stmt.cond)
            self.check_body(stmt.body, "do" if stmt.is_do_while else "while")
            self.pop_scope()
        elif isinstance(stmt, ast.SwitchStmt):
            value_type = self.check_expr(stmt.value)
            for case in stmt.cases:
                if case.label is not None:
                    label_type = self.check_expr(case.label)
                    if case.label.const_value is None:
                        raise CoreDSLError(
                            "case labels must be compile-time constants",
                            case.loc,
                        )
                    if not value_type.can_represent(case.label.const_value):
                        raise CoreDSLError(
                            f"case label {case.label.const_value} is not "
                            f"representable in the switch value's type "
                            f"{value_type}",
                            case.loc,
                        )
                self.check_stmt(case.body)
        elif isinstance(stmt, ast.ReturnStmt):
            if self.current_function is None:
                raise CoreDSLError("'return' outside of a function", stmt.loc)
            ret = self.current_function.return_type
            if ret is None:
                if stmt.value is not None:
                    raise CoreDSLError("void function cannot return a value", stmt.loc)
            else:
                if stmt.value is None:
                    raise CoreDSLError("missing return value", stmt.loc)
                value_type = self.check_expr(stmt.value)
                self.require_convertible(value_type, ret, stmt.value)
        elif isinstance(stmt, ast.SpawnStmt):
            if self.in_always:
                raise CoreDSLError("'spawn' is not allowed in always-blocks", stmt.loc)
            if self.current_function is not None:
                raise CoreDSLError("'spawn' is not allowed in functions", stmt.loc)
            self.saw_spawn = True
            self.check_stmt(stmt.body)
        else:
            raise CoreDSLError(f"unsupported statement {type(stmt).__name__}", stmt.loc)

    def check_body(self, body: ast.Stmt, keyword: str) -> None:
        """The body of a conditional or loop.  As in C, it may not be a
        bare declaration: its scope would be unclear (the declaration
        runs on some paths only), so it must be braced."""
        if isinstance(body, ast.VarDecl):
            raise CoreDSLError(
                f"declaration of '{body.name}' as the body of '{keyword}' "
                "must be enclosed in braces",
                body.loc,
            )
        self.check_stmt(body)

    def check_assign(self, stmt: ast.Assign) -> None:
        target_type = self.check_target(stmt.target)
        value_type = self.check_expr(stmt.value)
        if stmt.op == "=":
            self.require_convertible(value_type, target_type, stmt.value)
        # Compound assignment truncates back to the target type by definition.

    def check_target(self, target: ast.Expr) -> IntType:
        if isinstance(target, ast.Identifier):
            local = self.lookup_local(target.name)
            if local is not None:
                target.ctype = local
                return local
            info = self.state.get(target.name)
            if info is not None:
                if info.kind == "scalar_reg":
                    target.ctype = info.element
                    return info.element
                if info.kind == "rom":
                    raise CoreDSLError(
                        f"cannot write constant register '{target.name}'", target.loc
                    )
                raise CoreDSLError(
                    f"'{target.name}' must be indexed to be assigned", target.loc
                )
            if target.name in self.fields:
                raise CoreDSLError(
                    f"cannot assign to encoding field '{target.name}'", target.loc
                )
            raise CoreDSLError(f"unknown assignment target '{target.name}'", target.loc)
        if isinstance(target, ast.IndexExpr):
            info = self._state_base(target.base)
            if info is None:
                raise CoreDSLError(
                    "bit-indexed assignment is only supported on architectural "
                    "state arrays",
                    target.loc,
                )
            if info.kind == "rom":
                raise CoreDSLError(
                    f"cannot write constant register '{info.name}'", target.loc
                )
            if info.kind not in ("array_reg", "mem"):
                raise CoreDSLError(f"'{info.name}' is not indexable", target.loc)
            self.check_expr(target.index)
            target.ctype = info.element
            return info.element
        if isinstance(target, ast.RangeExpr):
            info = self._state_base(target.base)
            if info is None or info.kind != "mem":
                raise CoreDSLError(
                    "range assignment is only supported on address spaces "
                    "(e.g. MEM[a+3:a])",
                    target.loc,
                )
            self.check_expr(target.hi)
            self.check_expr(target.lo)
            count = range_width(target.hi, target.lo, self.parameters)
            result = ty.unsigned(count * info.element.width)
            target.ctype = result
            return result
        raise CoreDSLError("unsupported assignment target", target.loc)

    def _state_base(self, base: Optional[ast.Expr]) -> Optional[StateInfo]:
        if isinstance(base, ast.Identifier) and self.lookup_local(base.name) is None:
            return self.state.get(base.name)
        return None

    # -- expressions ----------------------------------------------------------
    def check_expr_or_void(self, expr: ast.Expr) -> Optional[IntType]:
        if isinstance(expr, ast.FunctionCall):
            return self._check_call(expr, allow_void=True)
        return self.check_expr(expr)

    def check_expr(self, expr: ast.Expr) -> IntType:
        result = self._check_expr(expr)
        expr.ctype = result
        if expr.const_value is None:
            expr.const_value = const_eval(expr, self.parameters)
        return result

    def _check_expr(self, expr: ast.Expr) -> IntType:
        if isinstance(expr, ast.IntLiteral):
            if expr.explicit_type is not None:
                return expr.explicit_type
            return ty.literal_type(expr.value)
        if isinstance(expr, ast.BoolLiteral):
            return ty.BOOL
        if isinstance(expr, ast.Identifier):
            return self._check_identifier(expr)
        if isinstance(expr, ast.BinaryOp):
            return self._check_binary(expr)
        if isinstance(expr, ast.UnaryOp):
            operand = self.check_expr(expr.operand)
            if expr.op == "-":
                return ty.neg_result(operand)
            if expr.op == "~":
                return ty.not_result(operand)
            if expr.op == "!":
                return ty.BOOL
            raise CoreDSLError(f"unsupported unary operator '{expr.op}'", expr.loc)
        if isinstance(expr, ast.Conditional):
            self.check_expr(expr.cond)
            true_type = self.check_expr(expr.true_value)
            false_type = self.check_expr(expr.false_value)
            return ty.common_supertype(true_type, false_type)
        if isinstance(expr, ast.Cast):
            operand = self.check_expr(expr.operand)
            if expr.width_expr is not None:
                width = self.width_of(expr.width_expr, expr.loc)
            else:
                width = operand.width
            expr.target_width = width
            return IntType(width, expr.target_signed)
        if isinstance(expr, ast.FunctionCall):
            result = self._check_call(expr, allow_void=False)
            assert result is not None
            return result
        if isinstance(expr, ast.IndexExpr):
            return self._check_index(expr)
        if isinstance(expr, ast.RangeExpr):
            return self._check_range(expr)
        raise CoreDSLError(f"unsupported expression {type(expr).__name__}", expr.loc)

    def _check_identifier(self, expr: ast.Identifier) -> IntType:
        local = self.lookup_local(expr.name)
        if local is not None:
            return local
        if expr.name in self.fields:
            return self.fields[expr.name]
        if expr.name in self.parameters:
            value = self.parameters[expr.name]
            if value >= 0:
                return ty.literal_type(value)
            from repro.utils.bits import bit_length_signed
            return ty.signed(bit_length_signed(value))
        info = self.state.get(expr.name)
        if info is not None:
            if info.kind == "scalar_reg":
                return info.element
            raise CoreDSLError(
                f"'{expr.name}' is a register file / address space and must be "
                "indexed",
                expr.loc,
            )
        raise CoreDSLError(f"unknown identifier '{expr.name}'", expr.loc)

    def _check_binary(self, expr: ast.BinaryOp) -> IntType:
        lhs = self.check_expr(expr.lhs)
        rhs = self.check_expr(expr.rhs)
        op = expr.op
        if op == "+":
            return ty.add_result(lhs, rhs)
        if op == "-":
            return ty.sub_result(lhs, rhs)
        if op == "*":
            return ty.mul_result(lhs, rhs)
        if op == "/":
            return ty.div_result(lhs, rhs)
        if op == "%":
            return ty.mod_result(lhs, rhs)
        if op in ("&", "|", "^"):
            return ty.bitwise_result(lhs, rhs)
        if op == "<<":
            return ty.shl_result(lhs, rhs, shift_const=expr.rhs.const_value)
        if op == ">>":
            return ty.shr_result(lhs, rhs)
        if op == "::":
            return ty.concat_result(lhs, rhs)
        if op in ("==", "!=", "<", "<=", ">", ">=", "&&", "||"):
            return ty.BOOL
        raise CoreDSLError(f"unsupported binary operator '{op}'", expr.loc)

    def _check_call(self, expr: ast.FunctionCall,
                    allow_void: bool) -> Optional[IntType]:
        sig = self.functions.get(expr.callee)
        if sig is None:
            raise CoreDSLError(f"unknown function '{expr.callee}'", expr.loc)
        if len(expr.args) != len(sig.params):
            raise CoreDSLError(
                f"'{expr.callee}' expects {len(sig.params)} arguments, "
                f"got {len(expr.args)}",
                expr.loc,
            )
        for arg, (param_name, param_type) in zip(expr.args, sig.params):
            arg_type = self.check_expr(arg)
            if not arg_type.implicitly_convertible_to(param_type):
                raise CoreDSLError(
                    f"argument '{param_name}' of '{expr.callee}': cannot "
                    f"implicitly convert {arg_type} to {param_type}",
                    arg.loc,
                )
        if sig.return_type is None and not allow_void:
            raise CoreDSLError(
                f"void function '{expr.callee}' used as a value", expr.loc
            )
        return sig.return_type

    def _check_index(self, expr: ast.IndexExpr) -> IntType:
        info = self._state_base(expr.base)
        if info is not None:
            if info.kind == "param":
                raise CoreDSLError(f"cannot index parameter '{info.name}'", expr.loc)
            if info.kind == "scalar_reg":
                # Single-bit access on a scalar register value.
                expr.base.ctype = info.element
                self.check_expr(expr.index)
                return ty.BOOL
            self.check_expr(expr.index)
            expr.base.ctype = info.element
            return info.element
        base_type = self.check_expr(expr.base)
        self.check_expr(expr.index)
        index_const = expr.index.const_value
        if index_const is not None and not 0 <= index_const < base_type.width:
            raise CoreDSLError(
                f"bit index {index_const} out of range for {base_type}", expr.loc
            )
        return ty.BOOL

    def _check_range(self, expr: ast.RangeExpr) -> IntType:
        env = self.parameters
        info = self._state_base(expr.base)
        self.check_expr(expr.hi)
        self.check_expr(expr.lo)
        count = range_width(expr.hi, expr.lo, env)
        if info is not None and info.kind in ("mem", "rom", "array_reg"):
            expr.base.ctype = info.element
            return ty.unsigned(count * info.element.width)
        if info is not None and info.kind == "scalar_reg":
            base_type = info.element
            expr.base.ctype = base_type
        else:
            base_type = self.check_expr(expr.base)
        hi_const = expr.hi.const_value
        if hi_const is not None and hi_const >= base_type.width:
            raise CoreDSLError(
                f"bit range [{hi_const}:..] exceeds {base_type}", expr.loc
            )
        return ty.unsigned(count)

    # -- conversions --------------------------------------------------------------
    def require_convertible(self, source: IntType, target: IntType,
                            expr: ast.Expr) -> None:
        # A constant whose value fits the target is always fine (literals get
        # minimal unsigned types, e.g. assigning 0 to signed<32>).
        if expr.const_value is not None and target.can_represent(expr.const_value):
            return
        if not source.implicitly_convertible_to(target):
            raise CoreDSLError(
                f"implicit conversion from {source} to {target} would lose "
                "precision or sign information; use an explicit cast",
                expr.loc,
            )
