import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from finring import Corpus, build_expr, default_corpus, run_laws

# everything here has order <= 16 so the naive oracle stays fast
SMALL_RINGS = (
    "Z(2)", "Z(3)", "Z(4)", "Z(6)", "Z(8)",
    "U(2,Z(2))", "M(2,Z(2))", "D(3,Z(2))", "V(3,Z(2))",
    "H(Z(2),1,1)", "K(Z(2),0)", "dorroh(Z(2),sub[])",
    "prod(Z(2),Z(3))", "twist(Z(2),hom[#0,#1])",
)

# core._CHUNK_CELLS values for the blocked kernels: one row per block;
# 48 // n rows (3 on order 16, 6 on order 8; a growing scan reads 1, 2,
# 4, then that many); the default, one block on every small ring
CHUNKS = (1, 48, 1 << 22)


@pytest.fixture(scope="session")
def rings():
    """Small rings shared across modules, built once per session."""
    return {text: build_expr(text) for text in SMALL_RINGS}


def built_whole(corpus):
    """corpus with its unbuilt entries (those sized past every guard)
    built too; their notes and orders are kept."""
    return Corpus(corpus.source, [
        replace(e, ring=build_expr(e.node)) if e.order is not None else e
        for e in corpus.entries], corpus.elapsed)


@pytest.fixture(scope="session")
def corpus():
    return default_corpus()


@pytest.fixture(scope="session")
def whole_corpus(corpus):
    """The default corpus with every entry built, M(2,Z(9)) included,
    for the tests that read every corpus ring."""
    return built_whole(corpus)


@pytest.fixture(scope="session")
def law_reports(corpus):
    """law -> LawReport over the default corpus, swept once per session."""
    return {rep.law: rep for rep in run_laws(corpus=corpus)}
