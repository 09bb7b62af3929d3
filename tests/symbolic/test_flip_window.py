"""The trace-only flip check against the replay it lets the fuzzer skip.

:func:`~repro.symbolic.has_unexplored_flip` reads a trace's action
window and says whether it holds a branch side outside the explored
set.  When it says no, ``WasaiFuzzer._feedback`` skips the symbolic
replay.  That is sound only if such a replay could never have posed a
flip query.  The differential pair below replays every skipped
observation anyway, on the golden slice (Tables 4, 5 and 6 at scale
0.004, seeds 7 + i, 6 s) and on the flip-prefix corpus (four RQ1 mazes
plus the Table 5 slice), and checks that none would have queried or
raised.  The unit cases pin the window on hand-built event lists.
"""

import pytest

from repro import (build_rq1_contracts, build_table4_corpus,
                   obfuscated_variant, verification_variant)
from repro.engine.fuzzer import WasaiFuzzer
from repro.harness import run_wasai
from repro.instrument.hooks import HookEvent
from repro.instrument.instrumenter import Site, SiteTable
from repro.resilience import DivergenceError, SymbackError
from repro.symbolic import (SeedLayout, flip_queries, has_unexplored_flip,
                            replay_action)
from repro.wasm.opcodes import Instr

TIMEOUT_MS = 6_000
SCALE = 0.004


# -- the window, on hand-built traces ------------------------------------------

ASSERT, APPLY, ACTION, CALLEE = 0, 3, 4, 5
IMPORTS = {ASSERT: "eosio_assert"}


class _Trace:
    """A site table and the hook events of one hand-built trace."""

    def __init__(self, dispatched: bool = True):
        self.sites = SiteTable()
        self.events = []
        if dispatched:
            self.instr(APPLY, 0, "call_indirect", (7, 0), 0)
            self.begin(ACTION)

    def instr(self, func, pc, op, operands, *args):
        site_id = self.sites.add(Site("instr", func, pc, Instr(op, *args)))
        self.events.append(HookEvent("instr", site_id, None, operands))

    def begin(self, func):
        self.events.append(HookEvent("begin", None, func, ()))

    def end(self, func):
        self.events.append(HookEvent("end", None, func, ()))

    def flippable(self, explored=frozenset()) -> bool:
        return has_unexplored_flip(self.events, self.sites, APPLY, IMPORTS,
                                   explored)


def test_a_nested_callees_branch_counts():
    trace = _Trace()
    trace.instr(ACTION, 1, "call", (), CALLEE)
    trace.begin(CALLEE)
    trace.instr(CALLEE, 2, "br_if", (0,), 0)
    trace.end(CALLEE)
    trace.instr(ACTION, 3, "if", (1,), None)
    trace.end(ACTION)
    after_callee = (ACTION, 3, False)
    assert trace.flippable({after_callee})
    # The side not taken is the one a flip aims at.
    assert trace.flippable({after_callee, (CALLEE, 2, False)})
    assert not trace.flippable({after_callee, (CALLEE, 2, True)})
    # The callee's end does not close the window.
    assert trace.flippable({(CALLEE, 2, True)})


def test_a_branch_after_the_action_function_does_not_count():
    trace = _Trace()
    trace.instr(ACTION, 1, "if", (1,), None)
    trace.end(ACTION)
    trace.instr(APPLY, 5, "br_if", (1,), 0)
    assert trace.flippable()
    assert not trace.flippable({(ACTION, 1, False)})


def test_passing_asserts_and_br_tables_never_count():
    trace = _Trace()
    trace.instr(ACTION, 1, "call", (1, 64), ASSERT)
    trace.instr(ACTION, 2, "br_table", (2,), (0, 1), 0)
    trace.end(ACTION)
    assert not trace.flippable()


def test_a_failed_assert_offers_its_passing_side():
    trace = _Trace()
    trace.instr(ACTION, 1, "call", (0, 64), ASSERT)
    assert trace.flippable()
    assert not trace.flippable({(ACTION, 1, True)})


def test_an_undispatched_trace_is_skipped():
    trace = _Trace(dispatched=False)
    trace.instr(APPLY, 1, "br_if", (0,), 0)
    trace.instr(APPLY, 2, "call", (0, 64), ASSERT)
    assert not trace.flippable()


# -- the differential pair --------------------------------------------------------

def _golden_slice():
    corpus = build_table4_corpus(scale=SCALE)
    return [(sample.module, sample.contract.abi, 7 + index)
            for variant in (lambda s: s, obfuscated_variant,
                            verification_variant)
            for index, sample in enumerate(map(variant, corpus))]


def _flip_prefix_corpus():
    targets = [(c.module, c.abi) for c in build_rq1_contracts(count=4)]
    targets += [(s.module, s.contract.abi) for s in
                map(obfuscated_variant, build_table4_corpus(scale=SCALE))]
    return [(module, abi, 7 + index)
            for index, (module, abi) in enumerate(targets)]


def _replay_skipped(campaigns) -> dict:
    """Run each campaign; replay every observation the check skips and
    tally what that replay would have posed or raised."""
    tally = {"observations": 0, "skipped": 0, "queries": 0, "raised": []}
    feedback = WasaiFuzzer._feedback

    def replay_when_skipped(self, observation, abi_action):
        target = self.target
        explored = self._explored_flips | self.report.covered
        tally["observations"] += 1
        if not has_unexplored_flip(observation.events, target.site_table,
                                   target.apply_index, target.import_names,
                                   explored):
            tally["skipped"] += 1
            layout = SeedLayout(abi_action, observation.executed_params)
            try:
                replay = replay_action(target.module, target.site_table,
                                       observation.events, layout,
                                       target.apply_index,
                                       target.import_names)
            except (DivergenceError, SymbackError) as exc:
                tally["raised"].append(repr(exc))
            else:
                tally["queries"] += len(flip_queries(replay, explored))
        return feedback(self, observation, abi_action)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(WasaiFuzzer, "_feedback", replay_when_skipped)
        for module, abi, rng_seed in campaigns:
            run_wasai(module, abi, timeout_ms=TIMEOUT_MS, rng_seed=rng_seed)
    return tally


@pytest.mark.parametrize("corpus", [_golden_slice, _flip_prefix_corpus],
                         ids=["golden_slice", "flip_prefix"])
def test_skipped_replays_would_pose_no_query(corpus):
    tally = _replay_skipped(corpus())
    assert tally["queries"] == 0
    assert tally["raised"] == []
    # Most observations have nothing left to flip; a check that never
    # skips would pass the two lines above and speed nothing up.
    assert tally["skipped"] * 2 > tally["observations"], tally
