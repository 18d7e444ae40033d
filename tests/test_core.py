"""Table assembly and axiom checking."""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from finring import (
    Guards, RingError, SizeGuardError, build_expr, build_ring,
    minimal_left_idempotents, survey, verify_axioms,
)
from finring import core, predicates
from finring.core import table_dtype

from conftest import CHUNKS, SMALL_RINGS
from test_dsl import SAMPLES
from test_predicates import bilinear_table, nonassociative_table


def _z4_tables():
    n = 4
    add = np.fromfunction(lambda i, j: (i + j) % n, (n, n), dtype=int)
    mul = np.fromfunction(lambda i, j: (i * j) % n, (n, n), dtype=int)
    return add, mul, [str(i) for i in range(n)]


def test_build_ring_accepts_z4():
    add, mul, labels = _z4_tables()
    R = build_ring(add, mul, 0, 1, labels, provenance="Z(4)")
    assert R.order == 4
    assert R.neg.tolist() == [0, 3, 2, 1]
    assert verify_axioms(R).passed


def test_build_ring_rejects_bad_shapes():
    add, mul, labels = _z4_tables()
    with pytest.raises(RingError, match="square"):
        build_ring(add[:3], mul, 0, 1, labels)
    with pytest.raises(RingError, match="dimension mismatch"):
        build_ring(add, mul[:3, :3], 0, 1, labels)
    with pytest.raises(RingError, match="order < 2"):
        build_ring([[0]], [[0]], 0, 0, ["0"])


def test_build_ring_rejects_bad_indices():
    add, mul, labels = _z4_tables()
    bad = mul.copy()
    bad[2, 2] = 9
    with pytest.raises(RingError, match="out of range"):
        build_ring(add, bad, 0, 1, labels)
    with pytest.raises(RingError, match="zero/one"):
        build_ring(add, mul, 0, 7, labels)
    with pytest.raises(RingError, match="one = zero"):
        build_ring(add, mul, 1, 1, labels)


@pytest.mark.parametrize("table", ["add", "mul"])
@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64,
                                   list])
def test_build_ring_rejects_an_index_out_of_range_in_every_dtype(table,
                                                                  dtype):
    # a negative index reads past iinfo.max in the unsigned view that
    # the range check takes its max over
    low = int(np.iinfo(np.int64 if dtype is list else dtype).min)
    for value in (-1, low, 4):
        add, mul, labels = _z4_tables()
        tables = {"add": add, "mul": mul}
        tables[table][2, 3] = value
        tables = {k: t.tolist() if dtype is list else t.astype(dtype)
                  for k, t in tables.items()}
        with pytest.raises(RingError,
                           match="^%s table has an index out of range$"
                                 % table):
            build_ring(tables["add"], tables["mul"], 0, 1, labels)


@pytest.mark.parametrize("table", ["add", "mul"])
def test_build_ring_rejects_a_negative_index_past_the_dtype(table):
    # int8 cannot hold every index of order 200, so its unsigned view,
    # where -100 reads 156, would pass: min and max decide instead
    tables = {"add": np.zeros((200, 200), dtype=np.int8),
              "mul": np.zeros((200, 200), dtype=np.int8)}
    tables[table][3, 4] = -100
    with pytest.raises(RingError,
                       match="^%s table has an index out of range$" % table):
        build_ring(tables["add"], tables["mul"], 0, 1, range(200))


def test_build_ring_rejects_broken_group():
    add, mul, labels = _z4_tables()
    shifted = (add + 1) % 4
    with pytest.raises(RingError, match="identity"):
        build_ring(shifted, mul, 0, 1, labels)
    bad = add.copy()
    bad[1, 3] = 1          # row 1 loses its inverse
    with pytest.raises(RingError, match="unique inverse"):
        build_ring(bad, mul, 0, 1, labels)


def naive_negation(add, zero):
    """neg[a] = the one b with a+b = zero, or None when some row has no
    such b or more than one."""
    neg = []
    for row in np.asarray(add).tolist():
        hits = [b for b, v in enumerate(row) if v == zero]
        if len(hits) != 1:
            return None
        neg.append(hits[0])
    return neg


def assert_negation_matches_naive(add, zero, cells):
    """build_ring in blocks of cells cells derives naive_negation's neg,
    or refuses the table exactly when naive_negation finds none."""
    n = len(add)
    want = naive_negation(add, zero)
    with mock.patch.object(core, "_CHUNK_CELLS", cells):
        if want is None:
            with pytest.raises(RingError, match="^add not a group: some "
                               "row lacks a unique inverse$"):
                build_ring(add, add, zero, (zero + 1) % n, range(n))
        else:
            R = build_ring(add, add, zero, (zero + 1) % n, range(n))
            assert R.neg.dtype == R.add.dtype
            assert R.neg.tolist() == want


# Z(16) renamed so that index k is the residue k - 5: the zero is index
# 5, so the first and the last row can lose their inverse
Z16 = (np.add.outer(np.arange(16), np.arange(16)) - 5) % 16


def broken_inverse(row, kind):
    """Z16 with row's inverse removed ("none") or doubled ("two"),
    keeping the zero row and column."""
    add = Z16.copy()
    inv = int(np.flatnonzero(add[row] == 5)[0])
    if kind == "none":
        add[row, inv] = add[row, inv ^ 1]
    else:
        add[row, [c for c in range(16) if c not in (5, inv)][0]] = 5
    return add


def broken_inverses(two, none):
    """Z16 with row two's inverse doubled and row none's removed: a
    block holding both rows has as many zero cells as rows."""
    add = broken_inverse(two, "two")
    add[none] = broken_inverse(none, "none")[none]
    return add


@pytest.mark.parametrize("cells", CHUNKS)
def test_negation_matches_naive_in_every_block_size(rings, cells):
    assert_negation_matches_naive(Z16, 5, cells)
    for text in SMALL_RINGS:
        R = rings[text]
        assert_negation_matches_naive(R.add, R.zero, cells)


# rows 0 (the first block), 9 (a later one at 48 cells, 3 rows a block)
# and 15 (the last)
@pytest.mark.parametrize("row", [0, 9, 15])
@pytest.mark.parametrize("kind", ["none", "two"])
@pytest.mark.parametrize("cells", CHUNKS)
def test_negation_refuses_a_broken_row_in_every_block(row, kind, cells):
    add = broken_inverse(row, kind)
    assert naive_negation(add, 5) is None
    assert np.array_equal(add[5], np.arange(16))
    assert np.array_equal(add[:, 5], np.arange(16))
    assert_negation_matches_naive(add, 5, cells)


# rows in the first block, a middle one and the last at 48 cells (3
# rows a block, row 15 alone); every pair shares the one default block
@pytest.mark.parametrize("two, none", [(0, 1), (10, 9), (14, 15)])
@pytest.mark.parametrize("cells", CHUNKS)
def test_negation_refuses_a_doubled_and_a_missing_inverse(two, none, cells):
    add = broken_inverses(two, none)
    assert (add == 5).sum() == 16
    assert naive_negation(add, 5) is None
    assert_negation_matches_naive(add, 5, cells)


def test_build_ring_rejects_bad_labels():
    add, mul, labels = _z4_tables()
    with pytest.raises(RingError, match="labels"):
        build_ring(add, mul, 0, 1, labels[:3])
    with pytest.raises(RingError, match="distinct"):
        build_ring(add, mul, 0, 1, ["x", "x", "y", "z"])


def test_verify_axioms_finds_broken_commutativity():
    add, mul, labels = _z4_tables()
    bad = add.copy()
    bad[1, 2] = 2          # keeps the zero row and inverses intact
    R = build_ring(bad, mul, 0, 1, labels)
    rep = verify_axioms(R)
    assert not rep.passed
    assert "add_commutative" in [name for name, _ in rep.violations]


def test_verify_axioms_finds_broken_distributivity():
    add, mul, labels = _z4_tables()
    bad = mul.copy()
    bad[2, 2] = 1
    rep = verify_axioms(build_ring(add, bad, 0, 1, labels))
    names = [name for name, _ in rep.violations]
    assert "mul_associative" in names
    assert "left_distributive" in names
    # witnesses are index tuples inside the ring
    for _, w in rep.violations:
        assert all(0 <= i < 4 for i in w)


def test_verify_axioms_finds_broken_identity():
    add, mul, labels = _z4_tables()
    bad = mul.copy()
    bad[1, 3] = 1
    rep = verify_axioms(build_ring(add, bad, 0, 1, labels))
    assert "one_identity" in [name for name, _ in rep.violations]


def test_verify_axioms_respects_triple_guard():
    R = build_expr("Z(6)")
    with pytest.raises(SizeGuardError, match="too large"):
        verify_axioms(R, Guards(triple_cap=4))


def test_the_proof_step_proves_refuses_or_skips():
    from test_construct import _broken_z3
    assert core.prove_axioms(build_expr("Z(6)")) is None
    with pytest.raises(RingError) as info:
        core.prove_axioms(_broken_z3())
    assert str(info.value) == (
        "axiom check failed on broken: [('left_distributive', (2, 1, 1)), "
        "('right_distributive', (2, 1, 1))]")
    # past the triple cap the guard's reason comes back, not an error
    assert core.prove_axioms(build_expr("Z(6)"), Guards(triple_cap=4)) == (
        "order 6 too large for exhaustive triple check (guard 4)")


def test_fast_route_agrees_with_exhaustive_scan_on_the_corpus(corpus):
    checked = [e.ring for e in corpus.rings()
               if e.ring.order <= core.DEFAULT_GUARDS.triple_cap]
    assert len(checked) >= 40
    for R in checked:
        assert verify_axioms(R) == core._exhaustive_report(R), R.provenance


def test_a_ring_that_passes_the_axioms_is_biadditive(corpus):
    # check, survey and describe run verify_axioms before any triple
    # property, which skips a table _biadditive refuses; this keeps that
    # skip out of their reach
    rings = [e.ring for e in corpus.rings()] + [
        build_expr(text) for text in SAMPLES.values()]
    checked = [R for R in rings
               if R.order <= core.DEFAULT_GUARDS.triple_cap]
    assert len(checked) >= 50
    for R in checked:
        assert verify_axioms(R).passed and core._biadditive(R), R.provenance


def _mutate_add(R, data):
    # keeps what build_ring checks: the zero row and column, and exactly
    # one zero per row.  Two Latin squares differ in at least four cells,
    # so one to three changed cells leave + no group table, and with an
    # identity and inverses that means + is not associative
    add = R.add.copy()
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.sampled_from(
            [x for x in range(R.order) if x != R.zero]))
        j = data.draw(st.sampled_from(
            [y for y in range(R.order) if y not in (R.zero, R.neg[i])]))
        add[i, j] = data.draw(st.sampled_from(
            [v for v in range(R.order) if v != R.zero]))
    return add


def _mutate_mul(R, data):
    mul = R.mul.copy()
    for _ in range(data.draw(st.integers(1, 3))):
        i, j, v = (data.draw(st.integers(0, R.order - 1)) for _ in range(3))
        mul[i, j] = v
    return mul


def naive_noncommuting(R):
    """The least (a, b) with a+b != b+a, or None."""
    n, add = R.order, R.add.tolist()
    return next(((a, b) for a in range(n) for b in range(n)
                 if add[a][b] != add[b][a]), None)


def _magma_closure(add, start):
    reached = set(start)
    while True:
        sums = {int(add[x, y]) for x in reached for y in reached}
        if sums <= reached:
            return reached
        reached |= sums


def naive_greedy_generators(R):
    # the least unreached index joins until every index is reached; the
    # reached set is closed under all pairwise sums after each join
    add = R.add
    reached = np.zeros(R.order, dtype=bool)
    reached[R.zero] = True
    gens = []
    count = 1
    while count < R.order:
        g = int(np.argmin(reached))
        gens.append(g)
        reached[g] = True
        while True:
            old = np.flatnonzero(reached)
            reached[add[old[:, None], old]] = True
            count = int(np.count_nonzero(reached))
            if count == old.size:
                break
    return gens


def test_coset_walk_matches_the_magma_closure_loop(whole_corpus):
    rings = [e.ring for e in whole_corpus.rings()] + [
        build_expr(text) for text in SAMPLES.values()]
    assert len(rings) >= 50
    for R in rings:
        assert core._additive_generators(R).gens == naive_greedy_generators(R), \
            R.provenance


def test_memo_computes_once_per_ring():
    calls = []

    @core._memo
    def probe(R):
        calls.append(R)
        return len(calls)

    R, S = build_expr("Z(2)"), build_expr("Z(3)")
    assert [probe(R), probe(R), probe(S), probe(S), probe(R)] == [1, 1, 2, 2, 1]
    assert calls == [R, S]
    assert R._cache["probe"] == 1 and S._cache["probe"] == 2


def test_memo_keys_miss_the_construction_keys():
    # the constructors keep their facts on the layout, so R._cache holds
    # memo keys alone
    memoized = {f.__name__ for mod in (core, predicates)
                for f in vars(mod).values() if hasattr(f, "__wrapped__")}
    assert memoized == {
        "_additive_generators", "_proven_on_tree", "_biadditive",
        "_add_noncommuting", "idempotents", "_nil_index", "center",
        "minimal_left_idempotents", "_idempotent_columns", "_rev_scan",
        "_symm_scan", "_scomm_scan", "_rel"}
    for text in ("H(Z(2),1,1)", "twist(Z(2),hom[#0,#1])", "quot(Z(12),4)"):
        R = build_expr(text)
        assert R._cache == {}, text
        verify_axioms(R)
        survey(R)
        minimal_left_idempotents(R)
        assert set(R._cache) <= memoized
        # the tree proved + an abelian group, so no scan asked whether
        # + commutes
        assert "_add_noncommuting" not in R._cache, text


@pytest.mark.parametrize("text, d", [
    ("Z(8)", 1), ("M(2,Z(2))", 4), ("U(2,Z(3))", 3), ("M(2,Z(3))", 4),
])
def test_additive_generators_are_a_least_generating_set(text, d):
    R = build_expr(text)
    gens = core._additive_generators(R).gens
    assert len(gens) == d
    assert _magma_closure(R.add, gens + [R.zero]) == set(range(R.order))


# (Z(2)^k, xor) has generators 1, 2, 4, ...; phi(y) = 2 when bits 1 and
# 2 of y are set, else 0, so phi(y+1) = phi(y) + phi(1) for every y, yet
# phi(2+4) != phi(2) + phi(4)
_PHI = np.where(np.arange(8) & 6 == 6, 2, 0)


@pytest.mark.parametrize("mul, axiom", [
    (np.tile(_PHI, (8, 1)), "left_distributive"),
    (np.tile(_PHI, (8, 1)).T, "right_distributive"),
    # bilinear on Z(2)^2 from e1*x = 0, e2*e1 = e2, e2*e2 = e1, so only
    # triples with the second generator 2 fail to associate
    (np.array([[0, 0, 0, 0], [0, 0, 0, 0], [0, 2, 1, 3], [0, 2, 1, 3]]),
     "mul_associative"),
])
def test_fast_route_checks_every_generator(mul, axiom):
    n = len(mul)
    add = np.bitwise_xor.outer(np.arange(n), np.arange(n))
    R = build_ring(add, mul, 0, 1, [str(i) for i in range(n)])
    assert core._additive_generators(R).gens == [1 << k for k in
                                            range(n.bit_length() - 1)]
    report = verify_axioms(R)
    assert report == core._exhaustive_report(R)
    assert axiom in [name for name, _ in report.violations]


# Z(2) has no add cell that can change without breaking build_ring
@settings(max_examples=400, deadline=None)
@given(st.sampled_from([t for t in SMALL_RINGS if t != "Z(2)"]),
       st.sampled_from(["add", "mul", "both"]), st.data())
def test_fast_route_agrees_with_exhaustive_scan_on_broken_tables(
        rings, text, which, data):
    R = rings[text]
    add = _mutate_add(R, data) if which != "mul" else R.add
    mul = _mutate_mul(R, data) if which != "add" else R.mul
    B = build_ring(add, mul, R.zero, R.one, R.labels)
    with mock.patch.object(core, "_CHUNK_CELLS",
                           data.draw(st.sampled_from(CHUNKS))):
        report = verify_axioms(B)
    # the tree proof ran in that block size, inside verify_axioms
    assert core._proven_on_tree(B) == proven_on_generators(B)
    assert report == core._exhaustive_report(B)
    # verify_axioms scans + commuting only where the tree proves no
    # abelian group, and reports the same least witness
    assert dict(report.violations).get("add_commutative") \
        == naive_noncommuting(B)
    assert core._add_noncommuting(B) == naive_noncommuting(B)
    assert _magma_closure(B.add, core._additive_generators(B).gens + [B.zero]) \
        == set(range(B.order))
    if which != "mul" and not np.array_equal(add, R.add):
        assert "add_associative" in [name for name, _ in report.violations]


def proven_on_generators(R):
    """The O(n^2 d) route that core._proven_on_tree replaced, kept as
    its reference: the triple axioms that hold, shown on the walk's
    generators G, which with zero generate R as a magma on any table
    build_ring accepts.
    - + is associative iff (x+g)+y == x+(g+y) for g in G (Light's
      associativity test; Clifford & Preston, The Algebraic Theory of
      Semigroups I, 1961): the g that pass, zero among them, are closed
      under +;
    - once + is associative, a map is additive iff phi(x+g) ==
      phi(x)+phi(g) for g in G;
    - once both distributive laws hold, G^3 decides associativity."""
    add, mul = R.add, R.mul
    gens = core._additive_generators(R).gens

    def holds(lhs, rhs):
        return all(np.array_equal(lhs(g), rhs(g)) for g in gens)

    if not holds(lambda g: add[add[:, g]],                 # (x+g)+y
                 lambda g: add[:, add[g]]):                # x+(g+y)
        return frozenset()
    proven = {"add_associative"}
    if holds(lambda g: mul[:, add[:, g]],                  # x*(y+g)
             lambda g: add[mul, mul[:, g, None]]):
        proven.add("left_distributive")
    if holds(lambda g: mul[add[:, g]],                     # (x+g)*y
             lambda g: add[mul, mul[g]]):
        proven.add("right_distributive")
    if {"left_distributive", "right_distributive"} <= proven:
        G = np.array(gens)
        gg = mul[np.ix_(G, G)]
        if np.array_equal(mul[gg[:, :, None], G], mul[G[:, None, None], gg]):
            proven.add("mul_associative")
    return frozenset(proven)


def assert_tree_proof_matches_the_reference(R, *chunks):
    """The coset-tree proof, run afresh in blocks of each of chunks
    cells, proves exactly the axioms proven_on_generators proves."""
    B = build_ring(R.add, R.mul, R.zero, R.one, R.labels, R.provenance)
    want = proven_on_generators(B)
    for cells in chunks:
        with mock.patch.object(core, "_CHUNK_CELLS", cells):
            assert core._proven_on_tree(B) == want, (R.provenance, cells)
        B._cache.pop("_proven_on_tree", None)


AXIOMS = {"add_associative", "left_distributive", "right_distributive",
          "mul_associative"}


def test_tree_proof_matches_the_generator_route_on_rings(corpus):
    rings = [e.ring for e in corpus.rings()
             if e.ring.order <= core.DEFAULT_GUARDS.triple_cap] + [
        build_expr(text) for text in SAMPLES.values()]
    assert len(rings) >= 50
    for R in rings:
        assert_tree_proof_matches_the_reference(R, core._CHUNK_CELLS)
        assert core._proven_on_tree(R) == AXIOMS, R.provenance


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]), st.data())
def test_tree_proof_matches_the_generator_route_on_biadditive_tables(
        pd, data):
    # a product that distributes but need not associate
    p, d = pd
    consts = np.array(data.draw(st.lists(st.integers(0, p - 1),
                                         min_size=d ** 3, max_size=d ** 3)))
    S = bilinear_table(p, d, consts.reshape(d, d, d), 1)
    assert_tree_proof_matches_the_reference(S, *CHUNKS)


def test_tree_proof_matches_the_generator_route_on_a_nonassociative_product():
    S = nonassociative_table()
    assert proven_on_generators(S) == AXIOMS - {"mul_associative"}
    assert_tree_proof_matches_the_reference(S, *CHUNKS)


def relabeled_z4():
    """Z(4) with the indices of 1 and 2 swapped: the walk takes g_1 = 2
    (index 1), then g_2 = 1 (index 2), whose chain 0, 1 stops at 2 in
    <g_1>, so m_2 = 2 and z_2 = 2 is not zero."""
    elem = np.array([0, 2, 1, 3])           # index -> residue, an involution
    return elem[(elem[:, None] + elem[None, :]) % 4]


def z2_z3():
    """Z(2) x Z(3) with (a, b) at index a + 2*b: the walk takes g_1 = 1,
    then g_2 = 2 with m_2 = 3."""
    a, b = np.arange(6) % 2, np.arange(6) // 2
    return (a[:, None] + a) % 2 + 2 * ((b[:, None] + b) % 3)


# (add, mul, what the generator route proves).  Each mul is w*c(x), c
# the coordinate along the last generator and w an element whose order
# does not divide m_2: x -> x*y satisfies every step of the tree, yet
# m_2*w != w*c(z_2), so only the relation check refutes right
# distributivity.  The transposes do the same for left distributivity
RELATION_BREAKS = [
    (relabeled_z4(), np.repeat([0, 0, 2, 2], 4).reshape(4, 4),
     {"add_associative"}),
    (z2_z3(), np.repeat([0, 0, 1, 1, 0, 0], 6).reshape(6, 6),
     {"add_associative"}),
]
RELATION_BREAKS += [(add, mul.T.copy(), proven)
                    for add, mul, proven in RELATION_BREAKS]

# a commutative loop with inverses that is not associative, found by a
# backtracking search over symmetric Latin squares with identity 0
LOOP6 = np.array([[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4],
                  [2, 3, 4, 5, 0, 1], [3, 2, 5, 4, 1, 0],
                  [4, 5, 0, 1, 3, 2], [5, 4, 1, 0, 2, 3]])

# Z(4) with 1+2 = 2+1 = 1: commutative, one zero per row, and rows 1
# and 2 are not permutations; its cosets meet, so the walk gives up
Z4_NOT_A_GROUP = np.array([[0, 1, 2, 3], [1, 2, 1, 0],
                           [2, 1, 0, 1], [3, 0, 1, 2]])

ODD_TABLES = RELATION_BREAKS + [
    (LOOP6, np.zeros((6, 6), dtype=int), frozenset()),
    (LOOP6, LOOP6, frozenset()),
    (Z4_NOT_A_GROUP, _z4_tables()[1], frozenset()),
]


def odd_ring(add, mul):
    n = len(add)
    return build_ring(add, mul, 0, 1, [str(i) for i in range(n)], "odd")


@pytest.mark.parametrize("cells", CHUNKS)
@pytest.mark.parametrize("case", range(len(ODD_TABLES)))
def test_tree_proof_matches_the_generator_route_on_odd_tables(case, cells):
    add, mul, proven = ODD_TABLES[case]
    R = odd_ring(add, mul)
    assert proven_on_generators(R) == proven
    assert_tree_proof_matches_the_reference(R, cells)
    with mock.patch.object(core, "_CHUNK_CELLS", cells):
        assert verify_axioms(R) == core._exhaustive_report(R)


def test_walk_gives_up_where_cosets_meet():
    # g_1 = 1 reaches 1, 2; g_2 = 3's block add[{0, 1, 2}, {0, 3}]
    # meets 0 and 1 again
    R = odd_ring(Z4_NOT_A_GROUP, Z4_NOT_A_GROUP)
    tree = core._additive_generators(R)
    assert [b.tolist() for b in tree.blocks] == [[[0, 1, 2]],
                                                 [[0, 3], [1, 0], [2, 1]]]
    assert core._tree_arrays(R, tree) is None
    assert _magma_closure(R.add, tree.gens + [R.zero]) == set(range(4))
    assert core._proven_on_tree(R) == frozenset()


def test_walk_records_parents_generators_and_chain_ends():
    R = odd_ring(relabeled_z4(), np.zeros((4, 4), dtype=int))
    tree = core._additive_generators(R)
    assert tree.gens == [1, 2] and tree.last == [1, 2]
    assert R.add[2, 2] == 1                          # z_2 = g_1
    parent, via = core._tree_arrays(R, tree)
    assert parent.tolist() == [0, 0, 0, 1]           # 3 = 1 + 2
    assert via.tolist() == [0, 1, 2, 2]


def test_tree_proves_nothing_on_a_nonabelian_group():
    # + is the group S_3, associative but not commutative: the
    # generator route proves + associative, the tree proves nothing
    # (its translations do not commute), and the exhaustive scan
    # decides every axiom with the same report
    perms = list(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    add = np.array([[idx[tuple(p[q[k]] for k in range(3))] for q in perms]
                    for p in perms])
    R = odd_ring(add, np.zeros((6, 6), dtype=int))
    assert core._add_noncommuting(R) is not None
    assert "add_associative" in proven_on_generators(R)
    assert core._proven_on_tree(R) == frozenset()
    assert verify_axioms(R) == core._exhaustive_report(R)


def test_exhaustive_scan_holds_no_square_temporary():
    # an order-1024 table with one product changed, whose least
    # witnesses lie in row 1: with 8-row blocks each scan reads part of
    # a row at a time, under the n^2 bytes of one n x n bool mask
    R = build_expr("prod(M(3,Z(2)),Z(2))")
    mul = R.mul.copy()
    mul[1, 1] = R.one if mul[1, 1] == R.zero else R.zero
    B = build_ring(R.add, mul, R.zero, R.one, R.labels)
    with mock.patch.object(core, "_CHUNK_CELLS", 8 * B.order):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            report = verify_axioms(B)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert [w[0] for _, w in report.violations] == [1, 1, 1]
    assert peak < B.order ** 2


@pytest.mark.parametrize("text", ["M(2,Z(3))", "U(3,Z(2))"])
def test_passing_ring_never_runs_the_exhaustive_scan(monkeypatch, text):
    R = build_expr(text)

    def scan(*args):
        raise AssertionError("exhaustive scan on a passing ring")
    monkeypatch.setattr(core, "_first_triple_witness", scan)
    assert verify_axioms(R).passed


def test_table_dtype_boundary():
    assert table_dtype(100) == np.int16
    assert table_dtype(40000) == np.int32
