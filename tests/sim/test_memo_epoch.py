"""Mutation matrix for the epoch-guarded per-module memos.

The simulator's codegen memo and the range-analysis memo stay valid while
``module.body.block.epoch`` is unchanged.  Every edit the IR mutation
contract allows must move that epoch, make the next simulator and
analysis recompute, and leave the engines in agreement (a stale compiled
step function would disagree with the interpreter, which re-walks the
netlist every cycle).
"""

import pytest

from repro import compile_isax
from repro.analysis.absint import absint_cache_stats, analyze_module
from repro.ir.core import Operation
from repro.isaxes import ALL_ISAXES
from repro.sim import RTLSimulator, compile_cache_stats, verify_artifact
from repro.sim.compile import crosscheck_engines

THREE_ENGINES = ("interp", "compiled", "batched")


def _first(module, name):
    return next(op for op in module.body.operations if op.name == name)


def _spare(module):
    return next(op for op in module.body.operations
                if op.attr("spare"))


def _set_attr(module):
    const = _first(module, "comb.constant")
    const.attributes["value"] = const.attr("value") ^ 1


def _del_attr(module):
    del _first(module, "comb.constant").attributes["note"]


def _update_attr(module):
    const = _first(module, "comb.constant")
    const.attributes.update(value=const.attr("value") ^ 1)


def _pop_attr(module):
    _first(module, "comb.constant").attributes.pop("note")


def _xor_attr(module):
    _first(module, "comb.constant").attributes["value"] ^= 1


def _set_operand(module):
    add = _first(module, "comb.add")
    add.set_operand(1, add.operands[0])


def _replace_all_uses(module):
    first, second = [op.result for op in module.body.operations
                     if op.name == "hw.input"][:2]
    second.replace_all_uses_with(first)


def _new_constant():
    return Operation("comb.constant", [], [(8, None)], {"value": 5})


def _append(module):
    module.body.append(_new_constant())


def _insert_before(module):
    block = module.body.block
    block.insert_before(block.operations[0], _new_constant())


def _erase(module):
    _spare(module).erase()


def _width(module):
    _spare(module).result.width = 9


EDITS = {
    "attr-set": _set_attr,
    "attr-del": _del_attr,
    "attr-update": _update_attr,
    "attr-pop": _pop_attr,
    "attr-xor": _xor_attr,
    "set-operand": _set_operand,
    "replace-all-uses": _replace_all_uses,
    "append": _append,
    "insert-before": _insert_before,
    "erase": _erase,
    "value-width": _width,
}


@pytest.fixture
def module():
    """Table 3 ``dotprod`` on VexRiscv, plus an unused ``note`` attribute
    and a dead ``spare`` constant for the edits that remove something."""
    artifact = compile_isax(ALL_ISAXES["dotprod"], "VexRiscv")
    module = artifact.artifact("dotp").module
    _first(module, "comb.constant").attributes["note"] = 1
    module.body.append(Operation("comb.constant", [], [(8, None)],
                                 {"value": 7, "spare": True}))
    return module


@pytest.mark.parametrize("edit", sorted(EDITS))
def test_edit_moves_epoch_and_recomputes(module, edit):
    RTLSimulator(module)
    analyze_module(module)
    epoch = module.body.block.epoch
    codegen = compile_cache_stats()
    absint = absint_cache_stats()

    EDITS[edit](module)

    assert module.body.block.epoch != epoch
    RTLSimulator(module)
    analyze_module(module)
    assert compile_cache_stats()["schedules"] == codegen["schedules"] + 1
    assert compile_cache_stats()["scalar"] == codegen["scalar"] + 1
    assert absint_cache_stats()["analyses"] == absint["analyses"] + 1
    assert crosscheck_engines(module, engines=THREE_ENGINES) is None


@pytest.mark.parametrize("engine", ["auto", "batched"])
def test_no_edit_recomputes_nothing(engine):
    artifact = compile_isax(ALL_ISAXES["dotprod"], "VexRiscv")
    assert verify_artifact(artifact, trials=4, seed=1,
                           sim_engine=engine).passed
    codegen = compile_cache_stats()
    absint = absint_cache_stats()
    assert verify_artifact(artifact, trials=4, seed=1,
                           sim_engine=engine).passed
    after = compile_cache_stats()
    for key in ("schedules", "scalar", "batched"):
        assert after[key] == codegen[key], key
    assert absint_cache_stats()["analyses"] == absint["analyses"]
