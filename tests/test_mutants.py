"""The mutant catalogue: deliberate breaks of the engine's kernels.

Each mutant is a small stand-in for one kernel, put in place with
monkeypatch, and at least one of the cheap differential checks that
guard that kernel must fail against it.  The unbroken stand-ins pass
every check, so a kill is the break's doing and not the stand-in's.
"""

import functools
from unittest import mock

import numpy as np
import pytest

from finring import (RingError, build_expr, build_ring, construct, core,
                     predicates)

import oracle
from conftest import CHUNKS, SMALL_RINGS
from test_construct import (assert_builds_match_the_formula,
                            assert_derived_refusals_keep_their_messages,
                            assert_derived_rings_match_the_formula)
from test_dsl import SAMPLES
from test_core import (ODD_TABLES, Z16, _magma_closure,
                       assert_negation_matches_naive,
                       assert_tree_proof_matches_the_reference, broken_inverse,
                       broken_inverses, naive_greedy_generators, odd_ring)
from test_predicates import (DOMAIN_BREAKS, FINITE_BREAKS, SCANS,
                             assert_columns_match_mul,
                             assert_domain_witness_matches_naive,
                             assert_finite_witness_matches_naive,
                             assert_scans_answer_as_the_whole_table,
                             assert_zero_pairs_match_argwhere, broken_ring,
                             fresh, instances, naive_semicentral, relabelled,
                             run_to_the_end, whole_table_minima)


# ---------------------------------------------------------------------------
# stand-ins for the row-block loops

def every_block(blocks):
    return blocks


def cells_stand_in(blocks=every_block, offset=True):
    """predicates._cells, the loop of the zero pairs, _rel and
    directly_finite, reading the blocks that blocks() keeps, and
    leaving out the row offset r0 of each code when not offset."""
    def _cells(n, mask, grow=False):
        for rows in blocks(core._row_blocks(n, grow=grow)):
            yield rows, np.flatnonzero(mask(rows)) + (rows.start * n
                                                      if offset else 0)
    return _cells


def scan_stand_in(skip_first=False, lag=False, unmasked=False):
    """predicates._Scan, the resumable loop of the three families; with
    skip_first it drops the minima of its first block, with lag it
    answers from the minima as they stood one block before, so it never
    sees the last block, and with unmasked it stops at the first block
    that finds any value, whether the question's mask marks it or not."""
    class _Scan:
        def __init__(self, n, folds=None, *tables):
            self.m = np.full(n, predicates._SENTINEL, dtype=np.int64)
            self.rows = 0
            self._folds = folds(self.m, *tables) if folds else iter(())
            self._seen = self.m
            if skip_first and next(self._folds, None) is not None:
                self.m[:] = predicates._SENTINEL

        def least(self, bad):
            while True:
                found = self._seen < predicates._SENTINEL
                if (found if unmasked else found & bad).any():
                    hit = found & bad
                    return int(self._seen[hit].min()) if hit.any() else None
                before = self.m.copy()
                rows = next(self._folds, None)
                if rows is None:
                    return None
                self.rows = rows
                if lag:
                    self._seen = before
    return _Scan


def fold(m, values, codes, last=False):
    """m[v] = the least of m[v] and the codes of value v, or with last
    the last code of value v in this block."""
    if last:
        m[values] = codes
    else:
        np.minimum.at(m, values, codes)


def zero_pair_scan(folds_of_pairs):
    """A stand-in factory for a scan of the zero pairs (_rev_scan,
    _scomm_scan): each growing row block's pairs go to
    folds_of_pairs(R, m, a, b, codes, **flags), and when not offset the
    codes leave out the block's row offset r0."""
    def stand_in(offset=True, **flags):
        @core._memo
        def scan(R):
            n = R.order

            def folds(m):
                for rows in core._row_blocks(n, grow=True):
                    codes = np.flatnonzero(R.mul[rows] == R.zero)
                    if offset:
                        codes += rows.start * n
                    folds_of_pairs(R, m, *np.divmod(codes, n), codes,
                                   **flags)
                    yield rows.stop
            return predicates._Scan(n, folds)
        return scan
    return stand_in


def rev_folds(R, m, a, b, codes, last=False):
    fold(m, R.mul[b, a], codes, last)


def scomm_folds(R, m, a, b, codes, last=False, drop_last=False):
    gens = core._additive_generators(R).gens
    for g in gens[:-1] if drop_last else gens:
        fold(m, R.mul[R.mul[a, g], b], codes, last)


def symm_scan_stand_in(offset=True, last=False, drop_last=False):
    """predicates._symm_scan, with offset and last as for
    zero_pair_scan; with drop_last no pair reads the last generator
    slot, so the widest annihilators lose their last generator."""
    @core._memo
    def _symm_scan(R):
        n, mul = R.order, R.mul
        gens, width, cls = predicates._ann_generators(R)
        d = gens.shape[1]
        fewer = (d - width).astype(np.uint8)

        def folds(m):
            for rows in core._row_blocks(n, 32 * n, grow=True):
                block = mul[rows]
                key = fewer[cls[block]].ravel()
                codes = np.argsort(key, kind="stable")
                live = np.searchsorted(key[codes], d - np.arange(d))
                k = cls[block.ravel()[codes]]
                b = (codes % n).astype(mul.dtype)
                if offset:
                    codes += rows.start * n
                a = (codes // n).astype(mul.dtype)
                for j, c in enumerate(live[:-1] if drop_last else live):
                    fold(m, mul[mul[a[:c], gens[k[:c], j]], b[:c]],
                         codes[:c], last)
                yield rows.stop
        return predicates._Scan(n, folds)
    return _symm_scan


def rel_stand_in(drop_last=False, prefilter_only=False):
    """predicates._rel; with drop_last no pair is tested on the last
    additive generator, and with prefilter_only the pairs are those
    with (a*1)*b = 0, tested on no generator."""
    def _rel(R):
        rel = np.argwhere(R.mul[R.mul[:, R.one]] == R.zero)
        gens = core._additive_generators(R).gens
        for g in [] if prefilter_only else gens[:-1] if drop_last else gens:
            rel = rel[R.mul[R.mul[rel[:, 0], g], rel[:, 1]] == R.zero]
        return rel
    return _rel


def ann_generators_stand_in(drop_last=False, one_class=False):
    """predicates._ann_generators; with drop_last each annihilator's
    generating set loses its last generator, and with one_class every
    element is put in the class of r.ann(0), the whole ring."""
    def _ann_generators(R):
        anns, cls = np.unique(R.mul == R.zero, axis=0, return_inverse=True)
        cls = cls.ravel()
        if one_class:
            cls[:] = cls[R.zero]
        sets = [core._subgroup_generators(R, ann).gens[:-1 if drop_last
                                                       else None]
                for ann in anns]
        width = np.array([len(g) for g in sets])
        gens = np.full((len(sets), width.max()), R.zero, dtype=R.mul.dtype)
        for k, g in enumerate(sets):
            gens[k, :len(g)] = g
        return gens, width, cls.astype(R.mul.dtype)
    return _ann_generators


def negation_stand_in(blocks=every_block, offset=True, row_test=True):
    """core._negation, the loop of build_ring, over the blocks that
    blocks() keeps; when not offset, each block reads its rows as if it
    started at row 0, and when not row_test, a block passes on the count
    of its zero cells alone, whichever rows hold them."""
    def _negation(add, zero, dtype):
        n = len(add)
        neg = np.zeros(n, dtype=dtype)
        for rows in blocks(core._row_blocks(n)):
            read = rows if offset else slice(0, rows.stop - rows.start)
            row, col = np.divmod(np.flatnonzero(add[read] == zero), n)
            if len(row) != rows.stop - rows.start or (
                    row_test and (row != np.arange(len(row))).any()):
                raise RingError("add not a group: some row lacks a unique "
                                "inverse")
            neg[rows] = col
        return neg
    return _negation


def columns_stand_in(axis=1, shift=0):
    """predicates._idempotent_columns, made anew at each call; with axis
    0 it gathers rows of mul instead of columns, and shift is added to
    the position of every idempotent in the block."""
    def _idempotent_columns(R):
        idem = predicates.idempotents(R)[:core._CHUNK_CELLS // R.order]
        pos = np.full(R.order, -1, dtype=np.intp)
        pos[idem] = np.arange(len(idem)) + shift
        block = R.mul.take(idem, axis=axis)
        return pos, np.ascontiguousarray(block.T if axis == 1 else block)
    return _idempotent_columns


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
             zip(sizes, space.decompose(zero), space.strides)]))
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


def derived_stand_in(blocks=every_block, closed=True, shift=0):
    """construct._derived_ring over the row blocks that blocks() keeps;
    when not closed it skips the closure check, and shift is added to
    every entry of the index map."""
    def _derived_ring(R, reps, one, prov, kind, index=None):
        dt = core.table_dtype(R.order)
        if index is None:
            index = np.full(R.order, -1, dtype=dt)
            index[reps] = np.arange(len(reps))
        index = index + np.asarray(shift, dtype=index.dtype)
        if index[R.zero] < 0 or index[one] < 0:
            raise RingError("%s must contain zero and its identity" % kind)
        n = len(reps)
        add, mul = np.empty((2, n, n), dtype=core.table_dtype(n))
        for op, out in ((R.add, add), (R.mul, mul)):
            for rows in blocks(core._row_blocks(n, R.order)):
                out[rows] = index[op[reps[rows, None], reps]]
                if closed and out[rows].min() < 0:
                    raise RingError("subset of %s is not closed under the "
                                    "operations" % R.provenance)
        suffix = "+I" if kind == "quotient" else ""
        labels = tuple(R.labels[i] + suffix for i in reps.tolist())
        return build_ring(add, mul, int(index[R.zero]), int(index[one]),
                          labels, prov,
                          construct.DerivedLayout(R, reps, index, kind))
    return _derived_ring


BLOCK_MUTATIONS = {
    "unbroken": {},
    "skips the first block": {"blocks": lambda b: list(b)[1:]},
    "drops the last block": {"blocks": lambda b: list(b)[:-1]},
    "forgets the row offset r0": {"offset": False},
}

NEGATION_MUTATIONS = {
    **BLOCK_MUTATIONS,
    "counts a block's zeros without their rows": {"row_test": False},
}

COLUMN_MUTATIONS = {
    "unbroken": {},
    "gathers rows instead of columns": {"axis": 0},
    "shifts each position by one": {"shift": 1},
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

DERIVED_MUTATIONS = {
    "unbroken": {},
    "skips the closure check": {"closed": False},
    "drops the last block": {"blocks": lambda b: list(b)[:-1]},
    "shifts the index map by one": {"shift": 1},
}

SCAN_MUTATIONS = {
    "unbroken": {},
    "starts at the second block": {"skip_first": True},
    "stops one block before the answer is final": {"lag": True},
    "answers from the minima found without testing the mask": {
        "unmasked": True},
}

KERNEL_MUTATIONS = {
    "unbroken": {},
    "forgets the block's row offset": {"offset": False},
    "keeps the last code instead of the least": {"last": True},
}

GENERATOR_MUTATIONS = {
    **KERNEL_MUTATIONS,
    "drops the last generator": {"drop_last": True},
}

REL_MUTATIONS = {
    "unbroken": {},
    "drops the last additive generator": {"drop_last": True},
    "keeps only the (a*1)*b prefilter": {"prefilter_only": True},
}

ANN_MUTATIONS = {
    "unbroken": {},
    "drops each set's last generator": {"drop_last": True},
    "puts every element in one annihilator class": {"one_class": True},
}

WALK_MUTATIONS = {
    "unbroken": {},
    "records the wrong parent for the last coset": {"wrong_parent": True},
    "drops the last generator": {"drop_last": True},
}


# ---------------------------------------------------------------------------
# the differential checks, one list per kernel

def zero_pairs_checks(rings):
    Z7 = build_expr("Z(7)")
    return ([functools.partial(assert_zero_pairs_match_argwhere, rings[t], c)
             for t in SMALL_RINGS for c in CHUNKS]
            + [functools.partial(assert_domain_witness_matches_naive,
                                 broken_ring(Z7, [(a, b, Z7.zero)]), c)
               for a, b in DOMAIN_BREAKS for c in CHUNKS])


# noncommutative rings for the scan checks, where the families fail
SCAN_RINGS = ("U(2,Z(2))", "M(2,Z(2))", "D(3,Z(2))",
              "twist(Z(2),hom[#0,#1])")


def assert_scans_reach_the_whole_table(R, minima, cells):
    """Each scan of a fresh copy of R, run to its end in blocks of cells
    cells, holds the whole-table minima."""
    for name in SCANS:
        S = fresh(R)
        with mock.patch.object(core, "_CHUNK_CELLS", cells):
            m = run_to_the_end(getattr(predicates, name)(S))
        assert m.tolist() == minima[name].tolist(), name


def scan_checks(rings):
    # and Z(7) with the one live zero pair (6, 3): reversible fails
    # only in the last row
    Z7 = build_expr("Z(7)")
    checked = [rings[t] for t in SCAN_RINGS] + [
        broken_ring(Z7, [(6, 3, Z7.zero)])]
    minima = [whole_table_minima(R) for R in checked]
    return [functools.partial(check, R, m, c)
            for R, m in zip(checked, minima) for c in CHUNKS
            for check in (assert_scans_reach_the_whole_table,
                          functools.partial(
                              assert_scans_answer_as_the_whole_table,
                              seed=c))]


def finite_checks(rings):
    Z7 = build_expr("Z(7)")
    return [functools.partial(assert_finite_witness_matches_naive,
                              broken_ring(Z7, [(a, b, Z7.one)]), c)
            for a, b in FINITE_BREAKS for c in CHUNKS]


def assert_verdicts_match_the_oracle(R, props):
    """On a fresh copy of R, each of props decides as tests/oracle.py
    does, at each nonzero idempotent when it is relative to one."""
    S = fresh(R)
    for prop in props:
        for e in instances(R, prop):
            verdict = predicates.check_property(S, prop, e)
            assert ((verdict.status == "holds")
                    == oracle.naive_check(R, prop, e)), (prop, e)


def one_first(R):
    """R with its one renamed index 1, so that the coset walk takes 1 as
    its first generator: on R itself the last generator is often the
    one that 1 and the others sum to, so a*g*b = 0 on it follows from
    the rest."""
    perm = np.arange(R.order)
    perm[[1, R.one]] = perm[[R.one, 1]]
    return relabelled(R, perm)


def oracle_checks(*props):
    """Checks for a kernel that props read: their verdicts on each small
    ring, and on it with its one first, against the oracle."""
    def checks(rings):
        return [functools.partial(assert_verdicts_match_the_oracle, R, props)
                for t in SMALL_RINGS for R in (rings[t], one_first(rings[t]))]
    return checks


def negation_checks(rings):
    tables = ([Z16] + [broken_inverse(row, kind) for row in (0, 9, 15)
                       for kind in ("none", "two")]
              + [broken_inverses(two, none)
                 for two, none in ((0, 1), (10, 9), (14, 15))])
    return [functools.partial(assert_negation_matches_naive, add, 5, c)
            for add in tables for c in CHUNKS]


def column_checks(rings):
    return [functools.partial(assert_columns_match_mul, rings[t],
                              naive_semicentral(rings[t]), c)
            for t in SMALL_RINGS for c in CHUNKS]


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


def derived_checks(rings):
    return ([functools.partial(assert_derived_rings_match_the_formula,
                               rings[t], *CHUNKS) for t in SMALL_RINGS]
            + [functools.partial(assert_derived_refusals_keep_their_messages,
                                 rings["M(2,Z(2))"], *CHUNKS)])


# kernel -> (module, name of its loop there, stand-in factory, checks,
# mutations: name -> the stand-in's arguments)
KERNELS = {
    # the zero pairs as _cells yields them to the scans and to domain
    "_zero_pairs": (predicates, "_cells", cells_stand_in, zero_pairs_checks,
                    BLOCK_MUTATIONS),
    "directly_finite": (predicates, "_cells", cells_stand_in, finite_checks,
                        BLOCK_MUTATIONS),
    "build_ring": (core, "_negation", negation_stand_in, negation_checks,
                   NEGATION_MUTATIONS),
    "_idempotent_columns": (predicates, "_idempotent_columns",
                            columns_stand_in, column_checks,
                            COLUMN_MUTATIONS),
    "_rel": (predicates, "_rel", rel_stand_in,
             oracle_checks("reflexive", "right_idempotent_reflexive",
                           "prime"), REL_MUTATIONS),
    "_ann_generators": (predicates, "_ann_generators",
                        ann_generators_stand_in,
                        oracle_checks("symmetric", "e_symmetric"),
                        ANN_MUTATIONS),
    "_Scan": (predicates, "_Scan", scan_stand_in, scan_checks,
              SCAN_MUTATIONS),
    "_rev_scan": (predicates, "_rev_scan", zero_pair_scan(rev_folds),
                  scan_checks, KERNEL_MUTATIONS),
    "_scomm_scan": (predicates, "_scomm_scan", zero_pair_scan(scomm_folds),
                    scan_checks, GENERATOR_MUTATIONS),
    "_symm_scan": (predicates, "_symm_scan", symm_scan_stand_in, scan_checks,
                   GENERATOR_MUTATIONS),
    "_proven_on_tree": (core, "_proven_on_tree", tree_proof_stand_in,
                        tree_proof_checks, TREE_PROOF_MUTATIONS),
    "_subgroup_generators": (core, "_subgroup_generators", walk_stand_in,
                             walk_checks, WALK_MUTATIONS),
    "_fill_rows": (construct, "_fill_rows", fill_stand_in, build_checks,
                   FILL_MUTATIONS),
    "_broadcast": (construct, "_broadcast", broadcast_stand_in, build_checks,
                   BROADCAST_MUTATIONS),
    "_derived_ring": (construct, "_derived_ring", derived_stand_in,
                      derived_checks, DERIVED_MUTATIONS),
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
