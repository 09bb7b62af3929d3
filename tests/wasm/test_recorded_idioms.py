"""The hook idioms the instrumenter records, and what the translator
does with them.

``instrument_module`` records, per function, the start pc and operand
count k of every hook idiom it writes (``Function.hook_idioms``), and
the translator fuses exactly those, reading the site, slots and callee
from the body without checking them.  So the checks live here, once,
over every module ``test_instrument_pinned.py`` pins: each record has
the instrumenter's shape, every hook call lies inside one, no branch
lands strictly inside one, and the translator leaves exactly the
recorded pcs inside fused steps.

A module parsed back from its own bytes carries no record and runs one
step per instruction; it must behave exactly as the recorded one under
the fuel and deadline sweeps of ``test_translate_differential.py``.
"""

from __future__ import annotations

import pytest

from repro.instrument import HOOK_MODULE, instrument_module
from repro.wasm import encode_module, parse_module
from repro.wasm.interpreter import _build_jump_table
from repro.wasm.translate import _inside_idiom, translated_function

from ..instrument.test_instrument_pinned import pinned_modules
from .test_translate_differential import (_apply_fingerprint, _fuel_used,
                                          _straight_line_contract)


def _hook_imports(module) -> dict:
    """Function index -> FuncType of every hook import."""
    return {index: module.types[imp.desc]
            for index, imp in enumerate(module.imported_functions())
            if imp.module == HOOK_MODULE}


def _branch_targets(body) -> set:
    targets = set()
    for pc, (end_pc, else_pc) in _build_jump_table(body).items():
        if body[pc].op == "loop":
            targets.add(pc + 1)
        else:
            targets.add(end_pc + 1)
            if else_pc is not None:
                targets.add(else_pc + 1)
    return targets


def _idiom_problems(module, func, hooks) -> list[str]:
    """What is wrong with the recorded idioms of ``func`` (nothing, if
    the instrumenter kept its contract)."""
    body = func.body
    local_count = len(module.types[func.type_index].params) \
        + len(func.locals)
    targets = _branch_targets(body)
    problems = []
    recorded_calls = set()
    for start, count in sorted(func.hook_idioms.items()):
        call_pc = start + 2 * count + 1
        end = call_pc + count + 1
        recorded_calls.add(call_pc)
        if end > len(body):
            problems.append(f"idiom at {start} runs past the body")
            continue
        loads = body[start + count + 1:call_pc]
        slots = [load.args[0] for load in loads]
        spills = body[start:start + count]
        reloads = body[call_pc + 1:end]
        call = body[call_pc]
        hook = hooks.get(call.args[0]) if call.op == "call" else None
        if not (all(i.op == "local.set" for i in spills)
                and body[start + count].op == "i32.const"
                and all(i.op == "local.get" for i in loads + reloads)
                and [i.args[0] for i in reversed(spills)] == slots
                and [i.args[0] for i in reloads] == slots
                and len(set(slots)) == count
                and all(0 <= slot < local_count for slot in slots)
                and hook is not None and not hook.results
                and len(hook.params) == count + 1):
            problems.append(f"idiom at {start} has the wrong shape")
        if not targets.isdisjoint(range(start + 1, end)):
            problems.append(f"a branch lands inside the idiom at {start}")
    for pc, instr in enumerate(body):
        if instr.op == "call" and instr.args[0] in hooks \
                and pc not in recorded_calls:
            problems.append(f"hook call at {pc} lies in no idiom")
    return problems


@pytest.fixture(scope="module")
def instrumented_pinned() -> dict:
    return {name: instrument_module(module)[0]
            for name, module in pinned_modules().items()}


def test_recorded_idioms_keep_the_instrumenters_shape(instrumented_pinned):
    idioms = 0
    for name, instrumented in instrumented_pinned.items():
        hooks = _hook_imports(instrumented)
        for index, func in enumerate(instrumented.functions):
            problems = _idiom_problems(instrumented, func, hooks)
            assert not problems, f"{name} function {index}: {problems}"
            idioms += len(func.hook_idioms)
    assert idioms > 10_000


def test_translator_fuses_exactly_the_recorded_idioms(instrumented_pinned):
    for name, instrumented in instrumented_pinned.items():
        for index, func in enumerate(instrumented.functions):
            steps = translated_function(instrumented, func).steps
            inside = {pc for pc, step in enumerate(steps)
                      if step is _inside_idiom}
            recorded = set()
            for start, count in func.hook_idioms.items():
                recorded.update(range(start + 1, start + 3 * count + 2))
            assert inside == recorded, f"{name} function {index}"


@pytest.fixture(scope="module")
def straight_line_pair():
    """The straight-line contract's instrumentation, and the same
    module parsed back from its bytes (no record) with the same site
    table."""
    module, abi = _straight_line_contract()
    instrumented, sites = instrument_module(module)
    parsed = parse_module(encode_module(instrumented))
    assert parsed == instrumented
    for func in parsed.functions:
        assert not func.hook_idioms
        steps = translated_function(parsed, func).steps
        assert _inside_idiom not in steps
    return module, abi, (instrumented, sites), (parsed, sites)


def _assert_record_changes_nothing(pair, **limits):
    module, abi, recorded, parsed = pair
    fused = _apply_fingerprint(module, abi, True, recorded, **limits)
    unfused = _apply_fingerprint(module, abi, True, parsed, **limits)
    assert fused == unfused, f"the record changed the run under {limits}"
    return fused


def test_unrecorded_module_runs_out_of_fuel_identically(straight_line_pair):
    module, abi, recorded, _ = straight_line_pair
    used = _fuel_used(module, abi, recorded)
    for fuel in range(used + 2):
        outcome = _assert_record_changes_nothing(straight_line_pair,
                                                 fuel=fuel)
        trapped = outcome[2] is not None \
            and outcome[2].startswith("TrapOutOfFuel")
        assert trapped == (fuel < used)


@pytest.mark.parametrize("deadline_s", [-1.0, 3600.0])
def test_unrecorded_module_meets_deadline_probes_identically(
        straight_line_pair, deadline_s):
    module, abi, recorded, _ = straight_line_pair
    used = _fuel_used(module, abi, recorded)
    for q in range(1, used + 1):
        outcome = _assert_record_changes_nothing(
            straight_line_pair, fuel=2048 + q, deadline_s=deadline_s)
        if deadline_s < 0:
            assert outcome[2].startswith("TrapDeadline")
        else:
            assert outcome[3] == 2048 + q - used
