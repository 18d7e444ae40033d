"""The mutant catalogue: deliberate breaks of the engine's kernels.

Each mutant is a small stand-in for one kernel, put in place with
monkeypatch, and at least one of the cheap differential checks that
guard that kernel must fail against it.  The unbroken stand-ins pass
every check, so a kill is the break's doing and not the stand-in's.
"""

import functools

import numpy as np
import pytest

from finring import RingError, build_expr, core, predicates

from conftest import CHUNKS, SMALL_RINGS
from test_core import Z16, assert_negation_matches_naive, broken_inverse
from test_predicates import (FINITE_BREAKS, assert_zero_pairs_match_argwhere,
                             assert_finite_witness_matches_naive, broken_ring)


# ---------------------------------------------------------------------------
# stand-ins for the row-block loops

def every_block(blocks):
    return blocks


def cells_stand_in(blocks=every_block, offset=True):
    """predicates._cells, the loop of _zero_pairs, _rel and
    directly_finite, reading the blocks that blocks() keeps, and
    leaving out the row offset r0 of each code when not offset."""
    def _cells(n, mask):
        for rows in blocks(core._row_blocks(n)):
            yield np.flatnonzero(mask(rows)) + (rows.start * n if offset
                                                else 0)
    return _cells


def negation_stand_in(blocks=every_block, offset=True):
    """core._negation, the loop of build_ring, over the blocks that
    blocks() keeps; when not offset, each block reads its rows as if it
    started at row 0."""
    def _negation(add, zero, dtype):
        neg = np.zeros(len(add), dtype=dtype)
        for rows in blocks(core._row_blocks(len(add))):
            read = rows if offset else slice(0, rows.stop - rows.start)
            is_zero = add[read] == zero
            if not (is_zero.sum(axis=1) == 1).all():
                raise RingError("add not a group: some row lacks a unique "
                                "inverse")
            neg[rows] = is_zero.argmax(axis=1)
        return neg
    return _negation


MUTATIONS = {
    "unbroken": {},
    "skips the first block": {"blocks": lambda b: list(b)[1:]},
    "drops the last block": {"blocks": lambda b: list(b)[:-1]},
    "forgets the row offset r0": {"offset": False},
}


# ---------------------------------------------------------------------------
# the differential checks, one list per kernel

def zero_pairs_checks(rings):
    return [functools.partial(assert_zero_pairs_match_argwhere, rings[t], c)
            for t in SMALL_RINGS for c in CHUNKS]


def finite_checks(rings):
    Z7 = build_expr("Z(7)")
    return [functools.partial(assert_finite_witness_matches_naive,
                              broken_ring(Z7, [(a, b, Z7.one)]), c)
            for a, b in FINITE_BREAKS for c in CHUNKS]


def negation_checks(rings):
    tables = [Z16] + [broken_inverse(row, kind) for row in (0, 9, 15)
                      for kind in ("none", "two")]
    return [functools.partial(assert_negation_matches_naive, add, 5, c)
            for add in tables for c in CHUNKS]


# kernel -> (module, name of its loop there, stand-in factory, checks)
KERNELS = {
    "_zero_pairs": (predicates, "_cells", cells_stand_in, zero_pairs_checks),
    "directly_finite": (predicates, "_cells", cells_stand_in, finite_checks),
    "build_ring": (core, "_negation", negation_stand_in, negation_checks),
}


def failures(checks):
    """How many of checks fail, by a wrong answer or by an error: the
    unbroken stand-ins pass every check, so either is the break's."""
    failed = 0
    for check in checks:
        try:
            check()
        except (Exception, pytest.fail.Exception):
            failed += 1
    return failed


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_every_mutant_is_killed(rings, monkeypatch, kernel, mutation):
    module, name, stand_in, checks = KERNELS[kernel]
    monkeypatch.setattr(module, name, stand_in(**MUTATIONS[mutation]))
    failed = failures(checks(rings))
    if mutation == "unbroken":
        assert failed == 0
    else:
        assert failed > 0
