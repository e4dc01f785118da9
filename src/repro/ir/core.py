"""Core IR data structures: values, operations, blocks, regions.

The model mirrors MLIR's: an :class:`Operation` has SSA operands and results,
a dictionary of attributes, and may carry nested :class:`Region`s of
:class:`Block`s.  Def-use chains are maintained eagerly so rewrites
(replace-all-uses-with, erase) are cheap and safe.

Values carry a ``width`` (bits) and an optional ``signed`` flag: ``None``
means *signless* (the ``comb``/``lil``/``hw`` dialects, like CIRCT's), while
``True``/``False`` is used by the ``hwarith``/``coredsl`` level.

Every :class:`Block` keeps a mutation ``epoch``, an int bumped by each edit
of its operations.  Per-module memos (simulator codegen, range facts) stay
valid while the epoch is unchanged, so they never re-hash the IR to learn
that nothing moved.  The mutation contract that keeps the epoch honest:
edit IR only through the :class:`Block`/:class:`Operation` API (``append``,
``insert_before``, ``append_operand``, ``set_operand``,
``replace_all_uses_with``, ``erase``), item writes to ``op.attributes``, or
a write to a result's ``Value.width``; never edit ``block.operations`` or
``op.operands`` lists directly.  Reads stay plain attribute reads.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple


class IRError(Exception):
    """Raised on malformed IR (verifier failures, invalid rewrites)."""


# ---------------------------------------------------------------------------
# Operation registry
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class OpDef:
    """Registered definition of an operation kind.

    ``verifier`` receives the operation and raises :class:`IRError` on
    malformed uses.  ``folder`` receives the operation and a list of operand
    constant values (``None`` for non-constant operands) and may return a
    constant result value (int) to replace the op, or None.
    """

    name: str
    num_results: int = 1
    has_side_effects: bool = False
    is_terminator: bool = False
    verifier: Optional[Callable[["Operation"], None]] = None
    folder: Optional[Callable[["Operation", List[Optional[int]]], Optional[int]]] = None


_REGISTRY: Dict[str, OpDef] = {}


def register_op(opdef: OpDef) -> OpDef:
    if opdef.name in _REGISTRY:
        raise IRError(f"duplicate registration of operation '{opdef.name}'")
    _REGISTRY[opdef.name] = opdef
    return opdef


def lookup_op(name: str) -> OpDef:
    opdef = _REGISTRY.get(name)
    if opdef is None:
        raise IRError(f"unregistered operation '{name}'")
    return opdef


# ---------------------------------------------------------------------------
# Mutation epochs
# ---------------------------------------------------------------------------

def _touch(operation: "Operation") -> None:
    """Bump the epoch of the block holding ``operation`` (if any)."""
    block = operation.parent
    if block is not None:
        block.epoch += 1


class _Attributes(Dict[str, Any]):
    """``Operation.attributes``: a dict whose writes bump the owning
    operation's block epoch.  Reads are the inherited C methods."""

    __slots__ = ("op",)
    op: "Operation"

    def __setitem__(self, key: str, value: Any) -> None:
        dict.__setitem__(self, key, value)
        _touch(self.op)

    def __delitem__(self, key: str) -> None:
        dict.__delitem__(self, key)
        _touch(self.op)

    def update(self, *args: Any, **kwargs: Any) -> None:
        dict.update(self, *args, **kwargs)
        _touch(self.op)

    def pop(self, *args: Any) -> Any:
        value = dict.pop(self, *args)
        _touch(self.op)
        return value

    def setdefault(self, key: str, default: Any = None) -> Any:
        value = dict.setdefault(self, key, default)
        _touch(self.op)
        return value

    def popitem(self) -> Tuple[str, Any]:
        item = dict.popitem(self)
        _touch(self.op)
        return item

    def clear(self) -> None:
        dict.clear(self)
        _touch(self.op)

    def __ior__(self, other: Any) -> "_Attributes":
        self.update(other)
        return self


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

#: Attribute writes that bypass :meth:`Value.__setattr__` (a C slot
#: wrapper: construction pays no Python-level call).
_setattr = object.__setattr__


class Value:
    """An SSA value: result of an operation or a block argument.

    Writing ``width`` on an operation result bumps its block's epoch.
    """

    width: int
    signed: Optional[bool]
    owner: Optional["Operation"]
    index: int
    name: Optional[str]
    #: Set of (operation, operand_index) pairs using this value.
    uses: Set[Tuple["Operation", int]]

    def __init__(self, width: int, signed: Optional[bool] = None,
                 owner: Optional["Operation"] = None, index: int = 0,
                 name: Optional[str] = None) -> None:
        if width < 1:
            raise IRError(f"value width must be >= 1, got {width}")
        _setattr(self, "width", width)
        _setattr(self, "signed", signed)
        _setattr(self, "owner", owner)
        _setattr(self, "index", index)
        _setattr(self, "name", name)
        _setattr(self, "uses", set())

    def __setattr__(self, name: str, value: Any) -> None:
        _setattr(self, name, value)
        if name == "width" and self.owner is not None:
            _touch(self.owner)

    @property
    def is_block_argument(self) -> bool:
        return self.owner is None

    def replace_all_uses_with(self, other: "Value") -> None:
        if other is self:
            return
        for operation, idx in list(self.uses):
            operation.set_operand(idx, other)

    @property
    def type_str(self) -> str:
        if self.signed is None:
            return f"i{self.width}"
        return f"{'si' if self.signed else 'ui'}{self.width}"

    def __repr__(self) -> str:
        owner = self.owner.name if self.owner is not None else "blockarg"
        return f"<Value {self.type_str} of {owner}>"


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

class Operation:
    """An instruction in the IR.

    ``result_types`` is a list of ``(width, signed)`` pairs; the constructed
    results are available as ``op.results`` (and ``op.result`` when single).
    """

    def __init__(self, name: str, operands: Optional[List[Value]] = None,
                 result_types: Optional[List[Tuple[int, Optional[bool]]]] = None,
                 attributes: Optional[Dict[str, Any]] = None,
                 regions: Optional[List["Region"]] = None) -> None:
        self.name = name
        self.opdef = lookup_op(name)
        attrs = _Attributes(attributes or ())
        attrs.op = self
        self.attributes: Dict[str, Any] = attrs
        self.operands: List[Value] = []
        self.parent: Optional[Block] = None
        self.regions: List[Region] = regions or []
        for region in self.regions:
            region.parent_op = self
        self.results: List[Value] = [
            Value(width, signed, owner=self, index=i)
            for i, (width, signed) in enumerate(result_types or [])
        ]
        for value in (operands or []):
            self.append_operand(value)

    # -- operand maintenance -----------------------------------------------
    def append_operand(self, value: Value) -> None:
        idx = len(self.operands)
        self.operands.append(value)
        value.uses.add((self, idx))
        if self.parent is not None:
            self.parent.epoch += 1

    def set_operand(self, index: int, value: Value) -> None:
        old = self.operands[index]
        old.uses.discard((self, index))
        self.operands[index] = value
        value.uses.add((self, index))
        if self.parent is not None:
            self.parent.epoch += 1

    # -- results ----------------------------------------------------------------
    @property
    def result(self) -> Value:
        if len(self.results) != 1:
            raise IRError(f"'{self.name}' has {len(self.results)} results")
        return self.results[0]

    @property
    def has_uses(self) -> bool:
        return any(r.uses for r in self.results)

    # -- attributes ----------------------------------------------------------------
    def attr(self, key: str, default: Any = None) -> Any:
        return self.attributes.get(key, default)

    # -- structural edits ----------------------------------------------------------
    def erase(self) -> None:
        if self.has_uses:
            raise IRError(f"cannot erase '{self.name}': results still in use")
        for idx, operand in enumerate(self.operands):
            operand.uses.discard((self, idx))
        self.operands = []
        if self.parent is not None:
            self.parent.operations.remove(self)
            self.parent.epoch += 1
            self.parent = None

    def verify(self) -> None:
        if self.opdef.verifier is not None:
            self.opdef.verifier(self)
        for region in self.regions:
            for block in region.blocks:
                for operation in block.operations:
                    operation.verify()

    def __repr__(self) -> str:
        return f"<Operation {self.name}>"


# ---------------------------------------------------------------------------
# Blocks and regions
# ---------------------------------------------------------------------------

class Block:
    """An ordered list of operations.

    ``epoch`` changes on every edit of the block's operations (see the
    module docstring for the mutation contract); memos compare it instead
    of re-hashing the IR.
    """

    def __init__(self, arg_types: Optional[List[Tuple[int, Optional[bool]]]] = None) -> None:
        self.arguments: List[Value] = [
            Value(width, signed, owner=None, index=i)
            for i, (width, signed) in enumerate(arg_types or [])
        ]
        self.operations: List[Operation] = []
        self.parent: Optional[Region] = None
        self.epoch = 0

    def append(self, operation: Operation) -> Operation:
        operation.parent = self
        self.operations.append(operation)
        self.epoch += 1
        return operation

    def insert_before(self, anchor: Operation, operation: Operation) -> Operation:
        idx = self.operations.index(anchor)
        operation.parent = self
        self.operations.insert(idx, operation)
        self.epoch += 1
        return operation

    def __iter__(self) -> Iterator["Operation"]:
        return iter(list(self.operations))

    def __len__(self) -> int:
        return len(self.operations)


class Region:
    def __init__(self, blocks: Optional[List[Block]] = None) -> None:
        self.blocks: List[Block] = blocks or []
        for block in self.blocks:
            block.parent = self
        self.parent_op: Optional[Operation] = None

    def add_block(self, block: Optional[Block] = None) -> Block:
        block = block or Block()
        block.parent = self
        self.blocks.append(block)
        return block

    @property
    def entry(self) -> Block:
        if not self.blocks:
            raise IRError("region has no blocks")
        return self.blocks[0]


class Graph:
    """A top-level, single-block container (used for lil graphs and hw
    modules).  MLIR equivalent: a symbol-owning op with one graph region."""

    def __init__(self, name: str, attributes: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.block = Block()

    @property
    def operations(self) -> List[Operation]:
        return self.block.operations

    def append(self, operation: Operation) -> Operation:
        return self.block.append(operation)

    def verify(self) -> None:
        for operation in self.operations:
            operation.verify()

    def topological_order(self) -> List[Operation]:
        """Operations sorted so every def precedes its uses.  Raises on
        cycles (our dataflow graphs are acyclic by construction)."""
        ops = self.operations
        index = {op: i for i, op in enumerate(ops)}
        state: Dict[Operation, int] = {}
        order: List[Operation] = []

        def visit(op: Operation) -> None:
            mark = state.get(op, 0)
            if mark == 2:
                return
            if mark == 1:
                raise IRError(f"cycle in graph '{self.name}' at '{op.name}'")
            state[op] = 1
            for operand in op.operands:
                if operand.owner is not None and operand.owner in index:
                    visit(operand.owner)
            state[op] = 2
            order.append(op)

        for op in ops:
            visit(op)
        return order

    def op_counts(self) -> Dict[str, int]:
        """Histogram of operation names, sorted by name for stable output.

        Used by the optimizer benchmark and tests to diff graphs before and
        after a pass pipeline without depending on SSA value identity.
        """
        counts: Dict[str, int] = {}
        for op in self.operations:
            counts[op.name] = counts.get(op.name, 0) + 1
        return dict(sorted(counts.items()))

    def remove_dead_code(self) -> int:
        """Erase side-effect-free operations without uses; returns count."""
        removed = 0
        changed = True
        while changed:
            changed = False
            for op in list(self.operations):
                if op.opdef.has_side_effects or op.opdef.is_terminator:
                    continue
                if not op.has_uses:
                    op.erase()
                    removed += 1
                    changed = True
        return removed

    def __repr__(self) -> str:
        return f"<Graph {self.name}: {len(self.operations)} ops>"
