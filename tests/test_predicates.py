"""Engine verdicts against the naive loops, plus witness behavior."""

import gc
import itertools
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from finring import (
    ALL_PROPS, E_PROPS, GLOBAL_PROPS, Guards, RingError, build_expr, check_property,
    idempotents, is_left_min_abel, is_left_semicentral, is_right_semicentral,
    left_annihilator, minimal_left_idempotents, nilpotency_index, nilpotents,
    replay_witness, right_annihilator, survey,
)
from finring import build_ring, core, predicates

import oracle
from conftest import CHUNKS, SMALL_RINGS
from test_dsl import SAMPLES


# property -> (sweep guard class, witness arity), written out here
# independently of the engine's property table
SHAPES = {
    "reduced": ("pair", 1),
    "reversible": ("pair", 2),
    "symmetric": ("triple", 3),
    "semicommutative": ("triple", 3),
    "reflexive": ("triple", 3),
    "right_idempotent_reflexive": ("triple", 3),
    "abelian": ("pair", 2),
    "semiprime": ("pair", 1),
    "prime": ("triple", 2),
    "domain": ("pair", 2),
    "directly_finite": ("pair", 2),
    "von_neumann_regular": ("pair", 1),
    "right_e_reversible": ("pair", 2),
    "left_e_reversible": ("pair", 2),
    "right_e_reduced": ("pair", 1),
    "left_e_reduced": ("pair", 1),
    "e_symmetric": ("triple", 3),
    "right_e_semicommutative": ("triple", 3),
    "left_e_semicommutative": ("triple", 3),
}


def nonzero_idempotents(R):
    return [e for e in oracle.naive_idempotents(R) if e != R.zero]


def instances(R, prop):
    return nonzero_idempotents(R) if prop in E_PROPS else [None]


@pytest.mark.parametrize("text", SMALL_RINGS)
@pytest.mark.parametrize("prop", GLOBAL_PROPS)
def test_global_properties_match_naive(rings, text, prop):
    R = rings[text]
    verdict = check_property(R, prop)
    assert verdict.status in ("holds", "fails")
    assert (verdict.status == "holds") == oracle.naive_check(R, prop)


@pytest.mark.parametrize("text", SMALL_RINGS)
@pytest.mark.parametrize("prop", E_PROPS)
def test_relative_properties_match_naive(rings, text, prop):
    R = rings[text]
    for e in nonzero_idempotents(R):
        verdict = check_property(R, prop, e)
        assert (verdict.status == "holds") == oracle.naive_check(R, prop, e), \
            "%s at e=%s in %s" % (prop, R.labels[e], text)


@pytest.mark.parametrize("text", SMALL_RINGS)
def test_failing_witnesses_replay(rings, text):
    R = rings[text]
    for prop in GLOBAL_PROPS:
        v = check_property(R, prop)
        if v.status == "fails":
            assert v.witness is not None
            assert replay_witness(R, prop, None, v.witness)
        else:
            assert v.witness is None
    for prop in E_PROPS:
        for e in nonzero_idempotents(R):
            v = check_property(R, prop, e)
            if v.status == "fails":
                assert replay_witness(R, prop, e, v.witness)


def test_witnesses_are_lexicographically_least():
    U = build_expr("U(2,Z(3))")
    zero = U.zero
    for e in nonzero_idempotents(U):
        v = check_property(U, "right_e_reversible", e)
        if v.status != "fails":
            continue
        first = next(
            (a, b)
            for a in range(U.order) for b in range(U.order)
            if oracle.mul(U, a, b) == zero
            and oracle.mul(U, b, a, e) != zero)
        assert tuple(v.witness) == first

    M = build_expr("M(2,Z(2))")
    v = check_property(M, "e_symmetric", M.one)
    assert v.status == "fails"
    first = next(
        (a, b, c)
        for a in range(M.order) for b in range(M.order)
        for c in range(M.order)
        if oracle.mul(M, a, b, c) == zero
        and oracle.mul(M, a, c, b) != zero)
    assert tuple(v.witness) == first

    Z8 = build_expr("Z(8)")
    v = check_property(Z8, "right_e_reduced", 1)
    assert v.status == "fails"
    least_nilpotent = next(x for x in oracle.naive_nilpotents(Z8)
                           if oracle.mul(Z8, x, 1) != Z8.zero)
    assert v.witness[0] == least_nilpotent


@pytest.mark.parametrize("prop", ALL_PROPS)
def test_witness_is_the_least_replaying_tuple(rings, prop):
    # a fails witness is the first tuple in lexicographic order that
    # replays; a holds verdict has no replaying tuple at all (triples
    # checked exhaustively only up to order 8)
    arity = SHAPES[prop][1]
    for text in SMALL_RINGS:
        R = rings[text]
        for e in instances(R, prop):
            v = check_property(R, prop, e)
            if v.status == "holds" and arity == 3 and R.order > 8:
                continue
            for w in itertools.product(range(R.order), repeat=arity):
                replays = replay_witness(R, prop, e, w)
                if v.status == "fails" and w == v.witness:
                    assert replays
                    break
                assert not replays, "%s at e=%s in %s: %s replays" % (
                    prop, e, text, w)
            else:
                assert v.status == "holds", (prop, e, text, v.witness)


@pytest.mark.parametrize("prop", ALL_PROPS)
def test_guard_class(rings, prop):
    kind = SHAPES[prop][0]
    other = "triple" if kind == "pair" else "pair"
    R = rings["Z(6)"]
    e = 3 if prop in E_PROPS else None
    v = check_property(R, prop, e, Guards(**{kind + "_cap": 5}))
    assert v.status == "skipped"
    assert "%s sweep guard" % kind in v.reason
    v = check_property(R, prop, e, Guards(**{other + "_cap": 5}))
    assert v.status != "skipped"


def test_verdict_rejects_bad_idempotent_input(rings):
    R = rings["Z(6)"]
    with pytest.raises(RingError, match="nonzero"):
        check_property(R, "right_e_reversible", 0)
    with pytest.raises(RingError, match="not idempotent"):
        check_property(R, "right_e_reversible", 2)
    with pytest.raises(RingError, match="takes no idempotent"):
        check_property(R, "reversible", 3)
    with pytest.raises(ValueError, match="unknown property"):
        check_property(R, "frobnitz")
    with pytest.raises(RingError, match="relative to an idempotent"):
        check_property(R, "right_e_reversible")


def test_dash_names_are_accepted(rings):
    v = check_property(rings["Z(6)"], "right-e-reversible", 3)
    assert v.property == "right_e_reversible"
    assert v.status == "holds"


def test_guard_skips_carry_a_reason(rings):
    R = rings["Z(6)"]
    v = check_property(R, "right_e_reversible", 3, Guards(pair_cap=4))
    assert v.status == "skipped"
    assert "pair sweep guard" in v.reason
    v = check_property(R, "e_symmetric", 3, Guards(triple_cap=4))
    assert v.status == "skipped"
    assert "triple sweep guard" in v.reason
    # pair properties ignore the triple cap
    v = check_property(R, "right_e_reversible", 3, Guards(triple_cap=4))
    assert v.status == "holds"


def test_survey_shape(rings):
    R = rings["Z(6)"]
    rows = survey(R)
    assert len(rows) == len(GLOBAL_PROPS) + 3 * len(E_PROPS)
    assert sum(1 for r in rows if r.idempotent is None) == len(GLOBAL_PROPS)


def test_verdict_to_dict_is_stable(rings):
    v = check_property(rings["Z(4)"], "reduced")
    d = v.to_dict()
    assert d["status"] == "fails"
    assert "elapsed" not in d
    assert d == check_property(rings["Z(4)"], "reduced").to_dict()


@pytest.mark.parametrize("text", SMALL_RINGS)
def test_structure_scans_match_naive(rings, text):
    R = rings[text]
    assert [int(i) for i in idempotents(R)] == oracle.naive_idempotents(R)
    assert [int(i) for i in nilpotents(R)] == oracle.naive_nilpotents(R)


def test_annihilators(rings):
    Z12 = build_expr("Z(12)")
    assert sorted(int(i) for i in right_annihilator(Z12, 4)) == [0, 3, 6, 9]
    M = rings["M(2,Z(2))"]
    for x in range(M.order):
        naive_r = [b for b in range(M.order)
                   if oracle.mul(M, x, b) == M.zero]
        naive_l = [b for b in range(M.order)
                   if oracle.mul(M, b, x) == M.zero]
        assert [int(i) for i in right_annihilator(M, x)] == naive_r
        assert [int(i) for i in left_annihilator(M, x)] == naive_l


def test_nilpotency_index(rings):
    Z8 = rings["Z(8)"]
    assert nilpotency_index(Z8, 2) == 3
    assert nilpotency_index(Z8, 4) == 2
    assert nilpotency_index(Z8, 0) == 1
    assert nilpotency_index(Z8, 3) is None


def test_minimal_left_idempotents(rings):
    Z6 = rings["Z(6)"]
    assert [Z6.labels[i] for i in minimal_left_idempotents(Z6)] == ["3", "4"]
    assert is_left_min_abel(Z6)
    M = rings["M(2,Z(2))"]
    assert len(minimal_left_idempotents(M)) == 6
    assert not is_left_min_abel(M)


def test_semicentral_flags(rings):
    U = build_expr("U(2,Z(2))")
    e1 = next(e for e in nonzero_idempotents(U)
              if U.labels[e] == "[[1,1],[0,0]]")
    assert is_left_semicentral(U, e1)
    assert not is_right_semicentral(U, e1)
    for text in ("Z(6)", "M(2,Z(2))"):
        R = rings[text]
        for e in nonzero_idempotents(R):
            lsc = all(oracle.mul(R, a, e) == oracle.mul(R, e, a, e)
                      for a in range(R.order))
            rsc = all(oracle.mul(R, e, a) == oracle.mul(R, e, a, e)
                      for a in range(R.order))
            assert is_left_semicentral(R, e) == lsc
            assert is_right_semicentral(R, e) == rsc


def naive_semicentral(R):
    """Per element e, whether x*e = e*x*e and whether e*x = e*x*e for
    every x, by loops over the tables as lists."""
    mul, n = R.mul.tolist(), R.order
    return [(all(mul[x][e] == mul[mul[e][x]][e] for x in range(n)),
             all(mul[e][x] == mul[mul[e][x]][e] for x in range(n)))
            for e in range(n)]


def assert_columns_match_mul(R, naive, cells):
    """On a copy of R in blocks of cells cells, _column(e) is column e of
    mul for every element e, idempotent or not, both semicentral tests
    agree with naive (naive_semicentral), and the idempotent block holds
    at most cells cells."""
    S = build_ring(R.add, R.mul, R.zero, R.one, R.labels)
    with mock.patch.object(core, "_CHUNK_CELLS", cells):
        pos, block = predicates._idempotent_columns(S)
        assert block.size <= cells and block.flags.c_contiguous
        for e in range(S.order):
            assert np.array_equal(predicates._column(S, e), R.mul[:, e]), e
        assert [(is_left_semicentral(S, e), is_right_semicentral(S, e))
                for e in range(S.order)] == naive


def test_idempotent_columns_match_mul_on_the_corpus(corpus):
    rings = [e.ring for e in corpus.entries if e.ring is not None]
    assert max(R.order for R in rings) == 512
    for R in rings:
        naive = naive_semicentral(R)
        for cells in CHUNKS:
            assert_columns_match_mul(R, naive, cells)


def test_idempotents_past_the_cap_read_their_columns_from_mul():
    # a Boolean ring of order 64 has 64 idempotents: a block of 8 columns
    # leaves 56 of them to the strided view of mul
    B = build_expr("prod(Z(2),Z(2),Z(2),Z(2),Z(2),Z(2))")
    assert len(idempotents(B)) == B.order == 64
    cells = 8 * B.order
    naive = naive_semicentral(B)
    for c in CHUNKS + (cells,):
        assert_columns_match_mul(B, naive, c)
    S = build_ring(B.add, B.mul, B.zero, B.one, B.labels)
    idempotents(S)
    with mock.patch.object(core, "_CHUNK_CELLS", cells):
        tracemalloc.start()
        try:
            pos, block = predicates._idempotent_columns(S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert block.shape == (8, 64) and (pos >= 0).sum() == 8
    # the gather and its contiguous copy, each of at most cells cells,
    # pos and 1 KiB of headers: under the n x n table an uncapped block
    # would be
    assert peak < 2 * cells * S.mul.itemsize + pos.nbytes + 1024 < S.mul.nbytes


# sampled restatement of the exhaustive cross-check above, driven by
# hypothesis so shrinking points at the smallest disagreeing instance
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_RINGS), st.data())
def test_engine_and_naive_agree_on_sampled_instances(rings, text, data):
    R = rings[text]
    prop = data.draw(st.sampled_from(list(E_PROPS)))
    e = data.draw(st.sampled_from(nonzero_idempotents(R)))
    verdict = check_property(R, prop, e)
    assert (verdict.status == "holds") == oracle.naive_check(R, prop, e)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_RINGS), st.data())
def test_relative_chain_holds_on_sampled_instances(rings, text, data):
    R = rings[text]
    e = data.draw(st.sampled_from(nonzero_idempotents(R)))
    chain = ("right_e_reduced", "e_symmetric", "right_e_reversible",
             "right_e_semicommutative")
    values = [check_property(R, p, e).status == "holds" for p in chain]
    for earlier, later in zip(values, values[1:]):
        assert not earlier or later


# ---------------------------------------------------------------------------
# sweep caches against per-value minima from plain loops

# rings of order 27-64 on top of SMALL_RINGS
SWEEP_RINGS = SMALL_RINGS + ("U(2,Z(3))", "H(Z(3),1,1)",
                             "prod(U(2,Z(2)),Z(4))", "U(3,Z(2))")


def naive_sweep_minima(R):
    """(rev, scomm, rel, symm) by plain loops, bracketed as the replay
    multiplies so that broken tables compare too."""
    n, z, mul = R.order, R.zero, R.mul.tolist()
    rev, scomm, symm = ([int(predicates._SENTINEL)] * n for _ in range(3))
    rel = []
    for a, b in itertools.product(range(n), repeat=2):
        if all(mul[mul[a][r]][b] == z for r in range(n)):
            rel.append((a, b))
        if mul[a][b] != z:
            continue
        rev[mul[b][a]] = min(rev[mul[b][a]], a * n + b)
        for r in range(n):
            v = mul[mul[a][r]][b]
            scomm[v] = min(scomm[v], (a * n + b) * n + r)
    for a, b, c in itertools.product(range(n), repeat=3):
        if mul[mul[a][b]][c] == z:
            v = mul[mul[a][c]][b]
            symm[v] = min(symm[v], (a * n + b) * n + c)
    return rev, scomm, rel, symm


def run_to_the_end(scan):
    """The minima of scan after it has read every row: a question no
    value answers reads them all."""
    assert scan.least(np.zeros(len(scan.m), dtype=bool)) is None
    assert scan.rows == len(scan.m)
    return scan.m


def assert_sweeps_match_naive(R):
    rev = run_to_the_end(predicates._rev_scan.__wrapped__(R))
    assert rev.tolist() == naive_sweep_minima(R)[0]


@pytest.mark.parametrize("text", SWEEP_RINGS)
def test_sweep_caches_match_naive_minima(text):
    assert_sweeps_match_naive(build_expr(text))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SMALL_RINGS), st.data())
def test_sweep_caches_match_naive_minima_on_broken_tables(rings, text, data):
    R = rings[text]
    mul = R.mul.copy()
    for _ in range(data.draw(st.integers(1, 3))):
        i, j, v = (data.draw(st.integers(0, R.order - 1)) for _ in range(3))
        mul[i, j] = v
    assert_sweeps_match_naive(build_ring(R.add, mul, R.zero, R.one, R.labels))


# nilpotency on tables that build_ring accepts but that are not rings

def broken_ring(R, cells):
    mul = R.mul.copy()
    for i, j, v in cells:
        mul[i, j] = v
    return build_ring(R.add, mul, R.zero, R.one, R.labels)


def test_reduced_decides_a_table_whose_squares_and_powers_disagree(rings):
    # 1*1 = 2 and 2*2 = 0, so 1 squares to 0, but its right powers
    # 1, 2, 2*1 = 2, ... never reach 0
    S = broken_ring(rings["Z(4)"], [(1, 1, 2)])
    assert nilpotents(S).tolist() == [0, 2]
    assert nilpotency_index(S, 1) is None
    assert nilpotency_index(S, 2) == 2
    v = check_property(S, "reduced")
    assert v.status == "fails" and v.witness == (2,)
    assert v.detail == "2^2 = 0"
    assert replay_witness(S, "reduced", None, v.witness)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SMALL_RINGS), st.data())
def test_reduced_witness_is_the_least_replaying_one_on_broken_tables(rings, text, data):
    R = rings[text]
    cells = data.draw(st.lists(st.tuples(*[st.integers(0, R.order - 1)] * 3),
                               min_size=1, max_size=3))
    S = broken_ring(R, cells)
    cases = [("reduced", None)] + [
        (prop, int(e)) for e in idempotents(S) if e != S.zero
        for prop in ("right_e_reduced", "left_e_reduced")]
    for prop, e in cases:
        v = check_property(S, prop, e)
        replaying = [(x,) for x in range(S.order)
                     if replay_witness(S, prop, e, (x,))]
        assert v.witness == (replaying[0] if replaying else None), (prop, e)


def least_replaying(S, prop, e):
    """The first tuple in lexicographic order that replays, or None."""
    return next((w for w in itertools.product(range(S.order),
                                              repeat=SHAPES[prop][1])
                 if replay_witness(S, prop, e, w)), None)


def test_reflexive_on_a_table_whose_one_is_not_an_identity(rings):
    # U(2,Z(2))'s own tables with one = [[0,0],[0,1]]: biadditive, but
    # one is no identity, so a*R*b = 0 does not force a*b = 0, and the
    # pairs with (a*1)*b = 0 are not the zero pairs
    R = rings["U(2,Z(2))"]
    S = build_ring(R.add, R.mul, R.zero, 1, R.labels)
    assert predicates._biadditive(S)
    cand = np.argwhere(S.mul[S.mul[:, S.one]] == S.zero)
    assert cand.tolist() != np.argwhere(S.mul == S.zero).tolist()
    v = check_property(S, "reflexive")
    assert v.witness == least_replaying(S, "reflexive", None) == (1, 2, 1)
    assert v.detail == ("[[0,0],[0,1]]*R*[[0,1],[0,0]] = 0 but "
                        "[[0,1],[0,0]]*[[0,0],[0,1]]*[[0,0],[0,1]] = "
                        "[[0,1],[0,0]]")


# the test below scans every triple of each table, so orders stay <= 8
SMALL_BROKEN = [text for text in SMALL_RINGS if build_expr(text).order <= 8]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_BROKEN), st.data())
def test_every_witness_is_the_least_replaying_one_on_broken_tables(rings, text,
                                                                   data):
    # tables that build_ring accepts but that need not be rings: no
    # property may raise.  Each witness is the first tuple in
    # lexicographic order that replays, or None when none does, except
    # that the triple properties skip a table _biadditive refuses
    R = rings[text]
    cells = data.draw(st.lists(st.tuples(*[st.integers(0, R.order - 1)] * 3),
                               min_size=1, max_size=3))
    S = broken_ring(R, cells)
    unproven = not predicates._biadditive(S)
    for prop in ALL_PROPS:
        for e in instances(S, prop):
            v = check_property(S, prop, e)
            if unproven and SHAPES[prop][0] == "triple":
                assert v.status == "skipped", (prop, e, cells)
                assert v.reason == core._UNPROVEN_SKIP
            else:
                assert v.witness == least_replaying(S, prop, e), \
                    (prop, e, cells)


def bilinear_table(p, d, consts, one):
    """(Z/p)^d with the product sum_k (sum_ij x_i y_j consts[i][j][k]) e_k,
    an index's base-p digits being its coordinates: biadditive, but
    neither associative nor unital unless consts happen to make it so."""
    n = p ** d
    vec = np.array([[x // p ** i % p for i in range(d)] for x in range(n)])
    add = (vec[:, None, :] + vec[None, :, :]) % p @ p ** np.arange(d)
    prod = np.einsum("ai,bj,ijk->abk", vec, vec, consts) % p
    return build_ring(add, prod @ p ** np.arange(d), 0, one,
                      [str(x) for x in range(n)], "bilinear")


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]), st.data())
def test_witnesses_on_random_biadditive_tables(pd, data):
    # products that need not be rings but that _biadditive accepts: every
    # property is decided, and each witness is the least replaying tuple
    p, d = pd
    consts = np.array(data.draw(st.lists(st.integers(0, p - 1),
                                         min_size=d ** 3, max_size=d ** 3)))
    S = bilinear_table(p, d, consts.reshape(d, d, d),
                       data.draw(st.integers(1, p ** d - 1)))
    assert predicates._biadditive(S)
    for prop in ALL_PROPS:
        for e in instances(S, prop):
            v = check_property(S, prop, e)
            assert v.witness == least_replaying(S, prop, e), (prop, e)
    assert fresh_symm_minima(S).tolist() == padded_symm_gen_min(S).tolist()


# ---------------------------------------------------------------------------
# the triple families on additive generators against plain loops

def nonassociative_table():
    """A biadditive product on (Z/2)^3 that is not associative: the
    bits of an index are its coordinates over the basis 1, x, y, with
    x*x = y, x*y = y*y = 0 and y*x = x, so (x*x)*x = x but x*(x*x) = 0."""
    basis = {(1, 1): 4, (1, 2): 0, (2, 1): 2, (2, 2): 0}

    def mul(a, b):
        out = 0
        for i, j in itertools.product(range(3), repeat=2):
            if a >> i & 1 and b >> j & 1:
                out ^= basis.get((i, j), 1 << (i + j))   # 1 is the identity
        return out
    ar = range(8)
    return build_ring([[a ^ b for b in ar] for a in ar],
                      [[mul(a, b) for b in ar] for a in ar], 0, 1,
                      [str(a) for a in ar], "nonassociative")


TRIPLE_PROPS = ("symmetric", "semicommutative", "reflexive",
                "right_idempotent_reflexive", "prime", "e_symmetric",
                "right_e_semicommutative", "left_e_semicommutative")


def naive_triple_witnesses(R, scomm, rel, symm):
    """(prop, e) -> the least tuple that violates prop at e, or None,
    read off the plain-loop minima of naive_sweep_minima."""
    n, z, mul = R.order, R.zero, R.mul.tolist()
    sent = int(predicates._SENTINEL)

    def least(minima, bad):
        codes = [m for v, m in enumerate(minima) if m < sent and bad(v)]
        if not codes:
            return None
        ab, c = divmod(min(codes), n)
        return divmod(ab, n) + (c,)

    def unreflected(pairs):
        rels = set(rel)
        for a, b in pairs:
            if (b, a) not in rels:
                return a, b, next(r for r in range(n)
                                  if mul[mul[b][r]][a] != z)
        return None

    out = {
        ("symmetric", None): least(symm, lambda v: v != z),
        ("semicommutative", None): least(scomm, lambda v: v != z),
        ("reflexive", None): unreflected(rel),
        ("right_idempotent_reflexive", None): unreflected(
            [(h, f) for h, f in rel if mul[f][f] == f]),
        ("prime", None): next(((a, b) for a, b in rel
                               if a != z and b != z), None),
    }
    for e in nonzero_idempotents(R):
        out["e_symmetric", e] = least(symm, lambda v: mul[v][e] != z)
        out["right_e_semicommutative", e] = least(
            scomm, lambda v: mul[v][e] != z)
        out["left_e_semicommutative", e] = least(
            scomm, lambda v: mul[e][v] != z)
    return out


def assert_generator_sweeps_match_naive(R):
    assert predicates._biadditive(R)
    _, scomm, rel, symm = naive_sweep_minima(R)
    assert [tuple(p) for p in predicates._rel(R).tolist()] == rel
    for (prop, e), w in naive_triple_witnesses(R, scomm, rel, symm).items():
        v = check_property(R, prop, e)
        assert v.witness == w, (prop, e)
        assert w is None or replay_witness(R, prop, e, w)


def sweep_ring(text):
    return nonassociative_table() if text == "nonassociative" else \
        build_expr(text)


@pytest.mark.parametrize("text", SWEEP_RINGS + ("nonassociative",))
def test_generator_sweeps_give_the_least_witness(text):
    assert_generator_sweeps_match_naive(sweep_ring(text))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SWEEP_RINGS + ("nonassociative",)), st.data())
def test_generator_sweeps_give_the_least_witness_after_relabelling(text,
                                                                   data):
    # renaming the elements moves the greedy generators and the
    # lexicographic order, so the least witness is often not the first
    # generator tried
    R = sweep_ring(text)
    perm = np.array(data.draw(st.permutations(range(R.order))))
    inv = np.ix_(np.argsort(perm), np.argsort(perm))
    S = build_ring(perm[R.add[inv]], perm[R.mul[inv]], perm[R.zero],
                   perm[R.one], [R.labels[i] for i in np.argsort(perm)])
    assert_generator_sweeps_match_naive(S)


def _forbid_sweeps(monkeypatch, *names):
    def reached(R):
        raise AssertionError("the other route ran")
    for name in names:
        monkeypatch.setattr(predicates, name, reached)


def test_broken_table_never_runs_the_generator_sweeps(rings, monkeypatch):
    R = rings["U(2,Z(2))"]
    S = broken_ring(R, [(1, 2, int(R.mul[1, 2]) ^ 1)])
    assert not predicates._biadditive(S)
    _forbid_sweeps(monkeypatch, "_symm_scan", "_scomm_scan", "_rel")
    verdicts = survey(S, properties=TRIPLE_PROPS)
    assert len(verdicts) == 5 + 3 * (len(idempotents(S)) - 1)
    for v in verdicts:
        assert v.status == "skipped" and v.reason == core._UNPROVEN_SKIP


def test_a_second_survey_reuses_the_sweep_caches(monkeypatch):
    R = build_expr("M(2,Z(2))")         # fresh, so no sweep is cached yet
    calls = []
    real = predicates._ann_generators
    monkeypatch.setattr(predicates, "_ann_generators",
                        lambda R: calls.append(R) or real(R))
    first = [v.to_dict() for v in survey(R)]
    n_first = len(calls)
    assert n_first >= 1
    assert [v.to_dict() for v in survey(R)] == first
    # _ann_generators is not memoized, but _symm_scan kept its state
    assert len(calls) == n_first


# ---------------------------------------------------------------------------
# the symmetric scan against the kernel that pads every generator set

def padded_symm_gen_min(R):
    """The symmetric minima over every pair at once, with every
    annihilator's generators padded with zero to the widest set, so
    that each slot gathers all n^2 pairs.  On a _biadditive table a
    padded slot offers only the value (a*0)*b = 0, whose minimum is
    already code 0 from the pair (0, 0) (r.ann(0) = R has a
    generator), so the minima are the same."""
    n, mul = R.order, R.mul
    gens, _, cls = predicates._ann_generators(R)
    m = np.full(n, predicates._SENTINEL, dtype=np.int64)
    a = np.arange(n)[:, None]
    codes = (a * n + np.arange(n)).ravel()
    for j in range(gens.shape[1]):
        g = gens[cls[mul], j]
        np.minimum.at(m, mul[mul[a, g], np.arange(n)].ravel(), codes)
    return m


def fresh_symm_minima(R):
    """The symmetric scan made anew, past the per-ring memo, and run to
    its end."""
    return run_to_the_end(predicates._symm_scan.__wrapped__(R))


def test_symm_kernel_matches_the_padded_one_on_the_corpus(corpus):
    rings = [e.ring for e in corpus.entries
             if e.ring is not None and e.ring.order <= 1024]
    assert max(R.order for R in rings) == 512
    for R in rings:
        assert (fresh_symm_minima(R).tolist()
                == padded_symm_gen_min(R).tolist()), R.provenance


@pytest.mark.parametrize("text", sorted(SAMPLES.values()))
@pytest.mark.parametrize("cells", [1, 1 << 11, 1 << 22])
def test_symm_kernel_matches_the_padded_one_on_every_constructor(text,
                                                                 cells):
    # _CHUNK_CELLS 1 sorts one row at a time, 1 << 11 a few rows (64
    # pairs), and the default sorts every sample's table at once
    R = build_expr(text)
    with mock.patch.object(core, "_CHUNK_CELLS", cells):
        assert (fresh_symm_minima(R).tolist()
                == padded_symm_gen_min(R).tolist())


# ---------------------------------------------------------------------------
# the resumable scans against the whole-table minima they replaced

# each family's scan, and the properties read off it
SCANS = {
    "_rev_scan": ("reversible", "right_e_reversible", "left_e_reversible"),
    "_scomm_scan": ("semicommutative", "right_e_semicommutative",
                    "left_e_semicommutative"),
    "_symm_scan": ("symmetric", "e_symmetric"),
}
SCANNED = sum(SCANS.values(), ())


def whole_table_minima(R):
    """name -> that family's per-value minima over all n^2 pairs at
    once, for each of SCANS."""
    n, mul = R.order, R.mul
    a, b = np.argwhere(mul == R.zero).T
    codes = a * n + b
    rev, scomm = (np.full(n, predicates._SENTINEL, dtype=np.int64)
                  for _ in range(2))
    np.minimum.at(rev, mul[b, a], codes)
    for g in core._additive_generators(R).gens:
        np.minimum.at(scomm, mul[mul[a, g], b], codes)
    return {"_rev_scan": rev, "_scomm_scan": scomm,
            "_symm_scan": padded_symm_gen_min(R)}


def fresh(R):
    """R's tables as a new ring object, its axioms proven and no scan
    made yet."""
    S = build_ring(R.add, R.mul, R.zero, R.one, R.labels, R.provenance)
    predicates._biadditive(S)
    return S


def least_code(m, bad):
    hit = (m < predicates._SENTINEL) & bad
    return int(m[hit].min()) if hit.any() else None


def completed_scan(m):
    """A scan that has read every row and found the minima m."""
    scan = predicates._Scan(len(m))
    scan.m[:] = m
    return scan


def whole_table_verdicts(R, minima):
    """(property, e) -> the verdict dict of each of SCANNED at each
    nonzero idempotent, read off the whole-table minima."""
    S = fresh(R)
    with mock.patch.multiple(predicates, **{
            name: lambda R, m=m: completed_scan(m)
            for name, m in minima.items()}):
        return {(p, e): check_property(S, p, e).to_dict()
                for p in SCANNED for e in instances(S, p)}


def assert_scans_answer_as_the_whole_table(R, minima, cells, seed):
    """Each scan of a fresh copy of R, in blocks of cells cells, asked
    every question in a seeded order (the global one, and each side at
    each nonzero idempotent), answers the least code of minima over the
    question's bad values."""
    S = fresh(R)
    es = [int(e) for e in idempotents(S) if e != S.zero]
    questions = [(name, "", None) for name in SCANS] + [
        (name, side, e) for name in SCANS for side in ("right", "left")
        for e in es]
    np.random.default_rng(seed).shuffle(questions)
    with mock.patch.object(core, "_CHUNK_CELLS", cells):
        for name, side, e in questions:
            bad = predicates._sided(S, side, e) != S.zero
            assert (getattr(predicates, name)(S).least(bad)
                    == least_code(minima[name], bad)), (name, side, e)


def assert_checks_after_a_survey_match_the_whole_table(R, want, cells,
                                                       seed):
    """On a fresh copy of R, in blocks of cells cells: a survey of a
    seeded half of SCANNED, then checks of the other half at 16 seeded
    (property, e) cases, on the same ring object, give the verdicts want
    (whole_table_verdicts)."""
    rng = np.random.default_rng(seed)
    S = fresh(R)
    es = [int(e) for e in idempotents(S) if e != S.zero]
    asked = list(rng.permutation(SCANNED)[:len(SCANNED) // 2])
    cases = [case for case in want if case[0] not in asked]
    with mock.patch.object(core, "_CHUNK_CELLS", cells):
        got = [v.to_dict() for v in survey(S, properties=asked)]
        assert got == ([want[p, None] for p in asked if p not in E_PROPS]
                       + [want[p, e] for e in es for p in asked
                          if p in E_PROPS])
        for k in rng.permutation(len(cases))[:16]:
            assert check_property(S, *cases[k]).to_dict() == want[cases[k]]


def assert_resumed_scans_match_the_whole_table(R, seed=0):
    minima = whole_table_minima(R)
    want = whole_table_verdicts(R, minima)
    for cells in CHUNKS:
        assert_scans_answer_as_the_whole_table(R, minima, cells, seed)
        assert_checks_after_a_survey_match_the_whole_table(R, want, cells,
                                                           seed)


def test_resumed_scans_match_the_whole_table_on_the_corpus(corpus):
    rings = [e.ring for e in corpus.entries
             if e.ring is not None and e.ring.order <= 1024]
    for seed, R in enumerate(rings):
        assert_resumed_scans_match_the_whole_table(R, seed)


@pytest.mark.parametrize("text", sorted(SAMPLES.values()))
def test_resumed_scans_match_the_whole_table_on_every_constructor(text):
    assert_resumed_scans_match_the_whole_table(build_expr(text))


@pytest.mark.parametrize("seed", range(12))
def test_resumed_scans_match_the_whole_table_on_random_biadditive_tables(
        seed):
    rng = np.random.default_rng(seed)
    p, d = [(2, 2), (2, 3), (3, 2), (2, 4)][seed % 4]
    S = bilinear_table(p, d, rng.integers(0, p, (d, d, d)),
                       int(rng.integers(1, p ** d)))
    assert predicates._biadditive(S)
    assert_resumed_scans_match_the_whole_table(S, seed)


def test_a_dropped_ring_is_freed_with_its_scans_half_read():
    # in blocks of 1-3 rows, M(2,Z(2))'s survey leaves its scans part
    # read, their generators live: they must hold its tables and not the
    # ring, or the ring (and at order 4096 its 64 MiB of tables) would
    # wait for the cyclic garbage collector
    R = build_expr("M(2,Z(2))")
    with mock.patch.object(core, "_CHUNK_CELLS", 48):
        survey(R)
    assert predicates._symm_scan(R).rows < R.order
    gc.disable()
    try:
        ref = weakref.ref(R)
        del R
        assert ref() is None
    finally:
        gc.enable()


def test_a_survey_reads_only_the_rows_before_its_witnesses():
    # every reversible and symmetric question of M(3,Z(2)) has its
    # least witness in the first rows, so those scans read their first
    # block alone, the 32 rows of 2^14 cells; every question that holds
    # in U(3,Z(3)) reads all 729
    R = build_expr("M(3,Z(2))")
    survey(R)
    assert predicates._rev_scan(R).rows == predicates._symm_scan(R).rows == 32
    S = build_expr("U(3,Z(3))")
    survey(S)
    assert {getattr(predicates, name)(S).rows for name in SCANS} == {729}


# ---------------------------------------------------------------------------
# the blocked pair kernels, and the pair checkers that stop at the first
# witness


def naive_regular_witness(R):
    """The least a with (a*x)*a != a for every x, or None."""
    n, mul = R.order, R.mul.tolist()
    return next(((a,) for a in range(n)
                 if all(mul[mul[a][x]][a] != a for x in range(n))), None)


def naive_finite_witness(R):
    """The least (a, b) with a*b = 1 but b*a != 1, or None."""
    n, one, mul = R.order, R.one, R.mul.tolist()
    return next(((a, b) for a in range(n) for b in range(n)
                 if mul[a][b] == one and mul[b][a] != one), None)


def zero_codes(R):
    """The codes a*n+b of the zero pairs, block by block as the scans
    and domain read them."""
    return np.concatenate([codes for _, codes in predicates._zero_cells(R.mul, R.zero)])


def assert_zero_pairs_match_argwhere(R, cells):
    with mock.patch.object(core, "_CHUNK_CELLS", cells):
        blocks = [rows for rows, _ in predicates._zero_cells(R.mul, R.zero)]
        codes = zero_codes(R)
    assert [rows.start for rows in blocks] == [0] + [
        rows.stop for rows in blocks[:-1]]
    assert blocks[-1].stop == R.order
    assert codes.dtype == np.int64
    assert (np.stack(np.divmod(codes, R.order), axis=1).tolist()
            == np.argwhere(R.mul == R.zero).tolist())


def assert_finite_witness_matches_naive(R, cells):
    with mock.patch.object(core, "_CHUNK_CELLS", cells):
        finite = check_property(R, "directly_finite")
    assert finite.witness == naive_finite_witness(R)
    assert (finite.status == "holds") == oracle.naive_directly_finite(R)


def naive_domain_witness(R):
    """The least (a, b) with a*b = 0 and both nonzero, or None."""
    n, z, mul = R.order, R.zero, R.mul.tolist()
    return next(((a, b) for a in range(n) for b in range(n)
                 if mul[a][b] == z and a != z and b != z), None)


def assert_domain_witness_matches_naive(R, cells):
    with mock.patch.object(core, "_CHUNK_CELLS", cells):
        domain = check_property(R, "domain")
    assert domain.witness == naive_domain_witness(R)


def assert_pair_checkers_match_naive(R, cells):
    with mock.patch.object(core, "_CHUNK_CELLS", cells):
        regular = check_property(R, "von_neumann_regular")
    assert regular.witness == naive_regular_witness(R)
    assert ((regular.status == "holds")
            == oracle.naive_von_neumann_regular(R))
    assert_finite_witness_matches_naive(R, cells)
    assert_domain_witness_matches_naive(R, cells)
    assert_zero_pairs_match_argwhere(R, cells)


@pytest.mark.parametrize("text", SMALL_RINGS)
@pytest.mark.parametrize("cells", CHUNKS)
def test_pair_checkers_match_naive_in_every_block_size(rings, text, cells):
    assert_pair_checkers_match_naive(rings[text], cells)


@pytest.mark.parametrize("cells", CHUNKS)
def test_pair_checkers_match_naive_on_the_corpus(corpus, cells):
    for entry in corpus.entries:
        if entry.ring is not None and entry.ring.order <= 64:
            assert_pair_checkers_match_naive(entry.ring, cells)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SMALL_RINGS), st.sampled_from(CHUNKS), st.data())
def test_pair_checkers_match_naive_on_broken_tables(rings, text, cells,
                                                     data):
    R = rings[text]
    cells_set = data.draw(st.lists(
        st.tuples(*[st.integers(0, R.order - 1)] * 3),
        min_size=1, max_size=4))
    assert_pair_checkers_match_naive(broken_ring(R, cells_set), cells)


def relabelled(R, perm):
    """R with element i renamed perm[i]."""
    inv = np.ix_(np.argsort(perm), np.argsort(perm))
    return build_ring(perm[R.add[inv]], perm[R.mul[inv]], perm[R.zero],
                      perm[R.one], [R.labels[i] for i in np.argsort(perm)])


def test_regular_witness_in_the_first_row(rings):
    # Z(4) relabelled so that index 0 is 2, its only irregular element
    S = relabelled(rings["Z(4)"], np.array([1, 2, 0, 3]))
    assert S.labels[0] == "2"
    assert naive_regular_witness(S) == (0,)
    for cells in CHUNKS:
        assert_pair_checkers_match_naive(S, cells)


def test_regular_witness_in_the_last_row():
    # Z(7) with 6*x = 0 for every x: 6 is the only irregular element
    R = build_expr("Z(7)")
    S = broken_ring(R, [(6, x, R.zero) for x in range(7)])
    for cells in (1, 21, 1 << 22):       # blocks 1, 2, 3, 1 at 21 cells
        with mock.patch.object(core, "_CHUNK_CELLS", cells):
            v = check_property(S, "von_neumann_regular")
        assert v.witness == (6,)
        assert v.detail == "no x satisfies 6*x*6 = 6"


def test_regular_witness_is_the_least_of_a_later_block():
    # Z(7) with the rows of 5 and 6 zero: both are irregular, and the
    # blocks 0 | 1 2 | 3 4 5 6 put them together in the third one
    R = build_expr("Z(7)")
    S = broken_ring(R, [(a, x, R.zero) for a in (5, 6) for x in range(7)])
    assert naive_regular_witness(S) == (5,)
    for cells in (28, 1 << 22):
        assert_pair_checkers_match_naive(S, cells)


# Z(7) with one changed cell a*b = 1 where b*a != 1, in the first row,
# a middle one and the last
FINITE_BREAKS = ((0, 3), (2, 6), (6, 2))


@pytest.mark.parametrize("a, b", FINITE_BREAKS)
@pytest.mark.parametrize("cells", CHUNKS)
def test_directly_finite_witness_in_every_row_block(a, b, cells):
    R = build_expr("Z(7)")
    S = broken_ring(R, [(a, b, R.one)])
    assert naive_finite_witness(S) == (a, b)
    assert_pair_checkers_match_naive(S, cells)


# Z(7), a domain, with one product a*b = 0 of nonzero factors: the only
# live zero pair, in the second row, a middle one and the last.  At 48
# cells the growing blocks are rows 0 | 1 2 | 3 4 5 6
DOMAIN_BREAKS = ((1, 5), (3, 2), (6, 3))


@pytest.mark.parametrize("a, b", DOMAIN_BREAKS)
@pytest.mark.parametrize("cells", CHUNKS)
def test_domain_witness_in_every_row_block(a, b, cells):
    R = build_expr("Z(7)")
    S = broken_ring(R, [(a, b, R.zero)])
    assert naive_domain_witness(S) == (a, b)
    assert_pair_checkers_match_naive(S, cells)


def test_directly_finite_reads_every_one_of_a_row():
    # Z(7) with 2*6 = 1: row 2 holds 1 at 4 (4*2 = 1, fine) and at 6,
    # where 6*2 = 5
    R = build_expr("Z(7)")
    S = broken_ring(R, [(2, 6, R.one)])
    assert np.flatnonzero(S.mul[2] == S.one).tolist() == [4, 6]
    v = check_property(S, "directly_finite")
    assert v.witness == naive_finite_witness(S) == (2, 6)
    assert v.detail == "2*6 = 1 but 6*2 = 5"


def test_regular_scan_holds_no_square_temporary():
    # M(3,Z(2)) is regular, so every row is read.  With 8 rows per block
    # the peak allocation is a few bytes per block cell (the gather's
    # intp index copy is 8), under the n^2 bytes of one n x n bool mask
    R = build_expr("M(3,Z(2))")
    cells = 8 * R.order
    with mock.patch.object(core, "_CHUNK_CELLS", cells):
        tracemalloc.start()
        try:
            w, _ = predicates._chk_von_neumann_regular(R, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert w is None
    assert peak < 32 * cells < R.order ** 2


def test_pair_codes_are_int64_past_order_46340(monkeypatch):
    # the last row of a stand-in of order 50000 whose zero mul table
    # costs nothing, read as the only block: the codes (n-1)*n + b of
    # its zero pairs pass int32, so the scans and domain must build them
    # in int64
    n = 50000
    R = core.RingTable(order=n, add=None, neg=None, zero=0, one=1,
                       labels=range(n), provenance="stand-in",
                       mul=np.broadcast_to(np.zeros(n, np.int32), (n, n)))
    R._cache["_additive_generators"] = core._CosetTree([1], [], [])
    monkeypatch.setattr(predicates, "_row_blocks",
                        lambda rows, width=None, grow=False:
                        iter([slice(rows - 1, rows)]))
    for scan in (predicates._rev_scan, predicates._scomm_scan):
        m = run_to_the_end(scan.__wrapped__(R))
        assert m.dtype == np.int64
        assert int(m[0]) == (n - 1) * n
    assert predicates._chk_domain(R, None)[0] == (n - 1, 1)


def naive_rel(R):
    """The pairs (a, b) with a*r*b = 0 for every r, in lex order."""
    n, mul = R.order, R.mul.tolist()
    return [[a, b] for a in range(n) for b in range(n)
            if all(mul[mul[a][r]][b] == R.zero for r in range(n))]


@pytest.mark.parametrize("cells", CHUNKS)
def test_center_and_rel_match_naive_in_every_block_size(rings, cells):
    for text in SMALL_RINGS:
        R = rings[text]
        with mock.patch.object(core, "_CHUNK_CELLS", cells):
            cen = predicates.center.__wrapped__(R)
            rel = predicates._rel.__wrapped__(R)
        assert cen.tolist() == oracle.naive_center(R), text
        assert rel.tolist() == naive_rel(R), text


@pytest.mark.parametrize("text", sorted(SAMPLES.values()))
def test_blocked_kernels_do_not_depend_on_the_block_size(text):
    R = build_expr(text)

    def kernels():
        gens, width, cls = predicates._ann_generators(R)
        return ([f.__wrapped__(R).tolist()
                 for f in (predicates.center, predicates._rel)]
                + [run_to_the_end(scan.__wrapped__(R)).tolist()
                   for scan in (predicates._rev_scan, predicates._scomm_scan)]
                + [zero_codes(R).tolist(), gens.tolist(), width.tolist(),
                   cls.tolist(), core._proven_on_tree.__wrapped__(R),
                   core._add_noncommuting.__wrapped__(R)])
    whole = kernels()
    for cells in CHUNKS[:2]:
        with mock.patch.object(core, "_CHUNK_CELLS", cells):
            assert kernels() == whole, cells


def test_survey_and_describe_hold_no_square_temporary():
    # everything cli's survey and describe compute on an order-1024
    # ring past its table fill, rendering aside, with 8-row blocks: the
    # caches, verdicts and blocks stay under the n^2 bytes of one n x n
    # bool mask
    T = build_expr("prod(M(3,Z(2)),Z(2))")
    with mock.patch.object(core, "_CHUNK_CELLS", 8 * T.order):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            R = build_ring(T.add, T.mul, T.zero, T.one, T.labels)
            assert core.verify_axioms(R).passed
            verdicts = survey(R)
            predicates.center(R)
            nilpotents(R)
            for f in idempotents(R):
                is_left_semicentral(R, int(f))
                is_right_semicentral(R, int(f))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert all(v.status != "skipped" for v in verdicts)
    assert peak < R.order ** 2
