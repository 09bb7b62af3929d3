"""Pinned instrumentation: exact bytes, site table and fused layout.

``test_instrumenter.py`` checks that an instrumented module behaves;
this module checks that the rewrite is *identical*.  Site ids are the
coordinates of every recorded trace, the instrumented bytes are what
the chain runs, and the translator's fused layout decides which hook
idioms run as one step, so a refactor of the instrumenter or of the
translator that claims to change nothing must leave all three as
they are.

One sha256 per module covers ``encode_module`` of the instrumented
module, its site table (kind, function index, pc, op and immediates of
every site) and, per function, the pcs the translator leaves inside a
fused hook idiom.  The modules are the golden slice (Tables 4, 5 and 6
at scale 0.004, the semantic twins and ten RQ4 wild contracts, as in
``tests/golden``) and the first 40 seed-1 RQ1 maze contracts, which
the ``maze_batch`` benchmark workload runs.  An intended change to the
rewrite regenerates ``instrument_pinned.json``, and the diff shows
which modules moved::

    PYTHONPATH=src python tests/instrument/test_instrument_pinned.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import (build_rq1_contracts, build_table4_corpus,
                   build_wild_corpus, obfuscated_variant,
                   verification_variant)
from repro.benchgen import build_semantic_corpus
from repro.instrument import instrument_module
from repro.wasm import encode_module
from repro.wasm.translate import _inside_idiom, translated_function

PINNED = Path(__file__).with_name("instrument_pinned.json")
GOLDEN_SCALE = 0.004   # tests/golden's SCALE
WILD_SCALE = 0.01      # tests/golden's WILD_SCALE: 10 contracts
MAZE_COUNT = 40
MAZE_SEED = 1


def pinned_modules() -> dict:
    """Name -> original module, for every module the pin covers."""
    modules = {}
    corpus = build_table4_corpus(scale=GOLDEN_SCALE)
    for table, variant in (("table4", lambda sample: sample),
                           ("table5", obfuscated_variant),
                           ("table6", verification_variant)):
        for index, sample in enumerate(corpus):
            modules[f"{table}[{index}]"] = variant(sample).module
    for index, sample in enumerate(build_semantic_corpus(pairs=1)):
        modules[f"semantic[{index}]"] = sample.contract.module
    for index, entry in enumerate(build_wild_corpus(scale=WILD_SCALE)):
        modules[f"wild[{index}]"] = entry.contract.module
    for index, contract in enumerate(
            build_rq1_contracts(count=MAZE_COUNT, seed=MAZE_SEED)):
        modules[f"maze[{index}]"] = contract.module
    return modules


def fused_layout(module) -> list:
    """Per function of ``module``, the pcs whose translated step lies
    inside a fused hook idiom (None: the function does not translate)."""
    layout = []
    for func in module.functions:
        code = translated_function(module, func)
        layout.append(None if code is None else
                      [pc for pc, step in enumerate(code.steps)
                       if step is _inside_idiom])
    return layout


def _digest(module) -> tuple[str, int]:
    """(sha256 of the rewrite of ``module``, fused pcs in it)."""
    instrumented, sites = instrument_module(module)
    layout = fused_layout(instrumented)
    table = [[site.kind, site.func_index, site.pc, site.instr.op,
              list(site.instr.args)] for site in sites.sites]
    digest = hashlib.sha256(encode_module(instrumented))
    digest.update(json.dumps([table, layout]).encode("utf-8"))
    fused = sum(len(pcs) for pcs in layout if pcs)
    return digest.hexdigest(), fused


@pytest.fixture(scope="module")
def digests() -> dict:
    return {name: _digest(module)
            for name, module in pinned_modules().items()}


def test_rewrite_matches_pinned_digests(digests):
    pinned = json.loads(PINNED.read_text())["digests"]
    assert sorted(pinned) == sorted(digests)
    moved = [name for name, (digest, _) in digests.items()
             if digest != pinned[name]]
    assert not moved, f"modules whose rewrite changed: {moved}"


def test_every_pinned_module_fuses_hook_idioms(digests):
    """The layout part of the pin is only as strong as the fusion it
    sees: every module must run some hook idioms as one step."""
    assert len(digests) == 3 * 16 + 8 + 10 + MAZE_COUNT
    assert all(fused for _, fused in digests.values())


if __name__ == "__main__":
    fresh = {name: _digest(module)[0]
             for name, module in pinned_modules().items()}
    PINNED.write_text(json.dumps({"digests": fresh}, indent=0) + "\n")
    print(f"wrote {len(fresh)} digests to {PINNED}")
