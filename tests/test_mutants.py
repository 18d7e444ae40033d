"""The mutant catalogue: deliberate breaks of the engine's kernels.

Each mutant is a small stand-in for one kernel, put in place with
monkeypatch, and at least one of the cheap differential checks that
guard that kernel must fail against it.  The unbroken stand-ins pass
every check, so a kill is the break's doing and not the stand-in's.
"""

import functools

import numpy as np
import pytest

from finring import (RingError, build_expr, build_ring, construct, core,
                     predicates)

from conftest import CHUNKS, SMALL_RINGS
from test_construct import assert_builds_match_the_formula
from test_dsl import SAMPLES
from test_core import (ODD_TABLES, Z16, _magma_closure,
                       assert_negation_matches_naive,
                       assert_tree_proof_matches_the_reference, broken_inverse,
                       naive_greedy_generators, odd_ring)
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


def tree_proof_stand_in(blocks=every_block, relations=slice(None),
                        left=True):
    """core._proven_on_tree over the row blocks that blocks() keeps,
    checking the relations of the generators that relations selects;
    when not left, the left distributive law rests on its relations
    alone, without the pass along the tree."""
    def _proven_on_tree(R):
        n, add, mul = R.order, R.add, R.mul
        tree = core._additive_generators(R)
        arrays = core._tree_arrays(R, tree)
        if arrays is None:
            return frozenset()
        P, V = arrays
        G, L = np.array(tree.gens), np.array(tree.last)
        Gr, Lr = G[relations], L[relations]
        Zr = add[Lr, Gr]

        def along_tree(table, rhs):
            return all((table[rows] == rhs(rows)).all()
                       for rows in blocks(core._row_blocks(n, 32 * n)))

        T = add[G]
        TT = T[:, T]
        if not ((np.sort(T, axis=1) == np.arange(n)).all()
                and (TT == TT.transpose(1, 0, 2)).all()
                and along_tree(add, lambda rows: core._sums(
                    R, V[rows, None], add[P[rows]]))):
            return frozenset()
        proven = {"add_associative"}
        if ((add[mul[Lr], mul[Gr]] == mul[Zr]).all()
                and along_tree(mul, lambda rows: core._sums(
                    R, mul[P[rows]], mul[V[rows]]))):
            proven.add("right_distributive")
        if ((add[mul[:, Lr], mul[:, Gr]] == mul[:, Zr]).all()
                and (not left or along_tree(mul, lambda rows: core._sums(
                    R, mul[rows].take(P, axis=1),
                    mul[rows].take(V, axis=1))))):
            proven.add("left_distributive")
        if {"left_distributive", "right_distributive"} <= proven:
            gg = mul[G[:, None], G]
            if (mul[gg[:, :, None], G] == mul[G[:, None, None], gg]).all():
                proven.add("mul_associative")
        return frozenset(proven)
    return _proven_on_tree


def walk_stand_in(wrong_parent=False, drop_last=False):
    """core._subgroup_generators; with wrong_parent the last column of
    the last block is rolled by one row, so each of its cells sits
    right of another cell's parent; with drop_last the walk forgets its
    last generator."""
    def _subgroup_generators(R, members=None):
        add = R.add
        members = (np.ones(R.order, dtype=bool) if members is None
                   else np.asarray(members, dtype=bool))
        reached = np.zeros(R.order, dtype=bool)
        reached[R.zero] = True
        tree = core._CosetTree([], [], [])
        while True:
            left = np.flatnonzero(members > reached)
            if not left.size:
                break
            g = int(left[0])
            H = np.flatnonzero(reached)
            chain, z = [R.zero], g
            while not reached[z]:
                reached[z] = True
                chain.append(z)
                z = int(add[z, g])
            block = add[H[:, None], chain]
            reached[block] = True
            tree.gens.append(g)
            tree.blocks.append(block)
            tree.last.append(chain[-1])
        if wrong_parent:
            tree.blocks[-1][:, -1] = np.roll(tree.blocks[-1][:, -1], 1)
        if drop_last:
            return core._CosetTree(*(field[:-1] for field in tree))
        return tree
    return _subgroup_generators


def fill_stand_in(blocks=every_block, offset=True, coordinate=True):
    """construct._fill_rows over the row blocks that blocks() keeps;
    when not offset, each block writes its sums from row 0, and when not
    coordinate, every coordinate adds coordinate 0's summand rows."""
    def _fill_rows(space, mulfn, add, zero):
        sizes, n = space.sizes, space.order
        rows = construct._build_table(space, mulfn, add.dtype, np.concatenate(
            [zero + (np.arange(s) - z) * st for s, z, st in
             zip(sizes, space.decompose_scalar(zero), space.strides)]))
        out = np.empty((n, n), dtype=add.dtype)
        m = r0 = sizes[0]
        out[:m] = rows[:m]
        for s in sizes[1:]:
            first = r0 if coordinate else 0
            summand = np.multiply(rows[first:first + s], n, dtype=np.intp)
            for block in reversed(blocks(list(core._row_blocks(m,
                                                               32 * s * n)))):
                w0 = block.start * s if offset else 0
                add.ravel().take(summand + out[block, None],
                                 out=out[w0:w0 + (block.stop - block.start)
                                         * s].reshape(-1, s, n))
            r0 += s
            m *= s
        return out
    return _fill_rows


def broadcast_stand_in(same=False, scale_by_table=False, forward=False):
    """construct._broadcast; with same every coordinate after the first
    taken reads coordinate 0's table, with scale_by_table a prepended
    coordinate is scaled by its own size and not the order so far, and
    with forward the coordinates are prepended from the first to the
    last, which reverses their significance."""
    def _broadcast(tables, dtype):
        order = list(tables) if forward else list(tables)[::-1]
        out = order[0].astype(dtype)
        for t in order[1:]:
            t = tables[0] if same else t
            m = len(t) if scale_by_table else len(out)
            out = (t.astype(dtype)[:, None, :, None] * m
                   + out[:, None, :]).reshape(len(t) * len(out), -1)
        return out
    return _broadcast


BLOCK_MUTATIONS = {
    "unbroken": {},
    "skips the first block": {"blocks": lambda b: list(b)[1:]},
    "drops the last block": {"blocks": lambda b: list(b)[:-1]},
    "forgets the row offset r0": {"offset": False},
}

TREE_PROOF_MUTATIONS = {
    "unbroken": {},
    "skips the first block": {"blocks": lambda b: list(b)[1:]},
    "drops the last block": {"blocks": lambda b: list(b)[:-1]},
    "drops the last generator's relation": {"relations": slice(-1)},
    "skips the left-distributive pass": {"left": False},
}

FILL_MUTATIONS = {
    **BLOCK_MUTATIONS,
    "reuses coordinate 0's summand rows": {"coordinate": False},
}

BROADCAST_MUTATIONS = {
    "unbroken": {},
    "reuses coordinate 0's table": {"same": True},
    "scales by the coordinate's own size": {"scale_by_table": True},
    "prepends the coordinates first to last": {"forward": True},
}

WALK_MUTATIONS = {
    "unbroken": {},
    "records the wrong parent for the last coset": {"wrong_parent": True},
    "drops the last generator": {"drop_last": True},
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


def with_one_product_changed(R, row):
    """R's tables with row*y changed, for each of the last four y in
    turn: the left distributive law breaks, and for a y that is not a
    generator, a chain end or zero, only the tree's check on that row
    sees it."""
    for y in range(R.order - 4, R.order):
        mul = R.mul.copy()
        mul[row, y] = (mul[row, y] + 1) % R.order
        yield build_ring(R.add, mul, R.zero, R.one, R.labels, R.provenance)


def tree_proof_checks(rings):
    # the broken rows are checked in one-row blocks, where the first
    # block holds row 0 and the last row n-1
    R = rings["M(2,Z(2))"]
    return ([functools.partial(assert_tree_proof_matches_the_reference,
                               odd_ring(add, mul), c)
             for add, mul, _ in ODD_TABLES for c in CHUNKS]
            + [functools.partial(assert_tree_proof_matches_the_reference,
                                 B, 1)
               for row in (0, R.order - 1)
               for B in with_one_product_changed(R, row)])


def assert_walk_matches_the_greedy_loop(R):
    B = build_ring(R.add, R.mul, R.zero, R.one, R.labels, R.provenance)
    gens = core._additive_generators(B).gens
    assert gens == naive_greedy_generators(B)
    assert _magma_closure(B.add, gens + [B.zero]) == set(range(B.order))


def walk_checks(rings):
    return ([functools.partial(assert_walk_matches_the_greedy_loop, rings[t])
             for t in SMALL_RINGS]
            + [functools.partial(assert_tree_proof_matches_the_reference,
                                 rings[t], core._CHUNK_CELLS)
               for t in SMALL_RINGS])


def build_checks(rings):
    # a sample of every constructor, and a product whose coordinate
    # sizes read differently backwards
    return [functools.partial(assert_builds_match_the_formula, text, c)
            for text in sorted(SAMPLES.values()) + ["prod(Z(2),Z(3))"]
            for c in CHUNKS]


# kernel -> (module, name of its loop there, stand-in factory, checks,
# mutations: name -> the stand-in's arguments)
KERNELS = {
    "_zero_pairs": (predicates, "_cells", cells_stand_in, zero_pairs_checks,
                    BLOCK_MUTATIONS),
    "directly_finite": (predicates, "_cells", cells_stand_in, finite_checks,
                        BLOCK_MUTATIONS),
    "build_ring": (core, "_negation", negation_stand_in, negation_checks,
                   BLOCK_MUTATIONS),
    "_proven_on_tree": (core, "_proven_on_tree", tree_proof_stand_in,
                        tree_proof_checks, TREE_PROOF_MUTATIONS),
    "_subgroup_generators": (core, "_subgroup_generators", walk_stand_in,
                             walk_checks, WALK_MUTATIONS),
    "_fill_rows": (construct, "_fill_rows", fill_stand_in, build_checks,
                   FILL_MUTATIONS),
    "_broadcast": (construct, "_broadcast", broadcast_stand_in, build_checks,
                   BROADCAST_MUTATIONS),
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


@pytest.mark.parametrize("kernel, mutation", [
    pytest.param(k, m, id="%s-%s" % (k, m))
    for k in KERNELS for m in KERNELS[k][4]])
def test_every_mutant_is_killed(rings, monkeypatch, kernel, mutation):
    module, name, stand_in, checks, mutations = KERNELS[kernel]
    monkeypatch.setattr(module, name, stand_in(**mutations[mutation]))
    failed = failures(checks(rings))
    if mutation == "unbroken":
        assert failed == 0
    else:
        assert failed > 0
