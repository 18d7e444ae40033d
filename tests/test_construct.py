"""One test cluster per construction, plus element resolution and the
table builds held to the constructors' formulas."""

import contextlib
import hashlib
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import finring
from finring import (
    Guards, RingError, SizeGuardError, build_expr, build_ring, idempotents,
    parse, resolve_element, verify_axioms,
)
from finring import construct, core
from finring.construct import (
    _CoordSpace, _build_table, corner, dorroh, direct_product, h_ring,
    ideal_closure, is_ideal, matrix_ring, quotient, sub_ring_table, subring,
    trs, twisted_u2, zmod,
)
from finring.core import table_dtype
from conftest import CHUNKS, SMALL_RINGS
from iso import find_isomorphism, is_isomorphic, ring_generators

from oracle import mul, naive_center
from test_dsl import SAMPLES


def test_zmod_basics():
    R = zmod(6)
    assert R.order == 6
    assert R.provenance == "Z(6)"
    assert mul(R, 4, 5) == 2
    assert int(R.add[3, 5]) == 2
    with pytest.raises(RingError, match="n >= 2"):
        zmod(1)


@pytest.mark.parametrize("text,order,one_label", [
    ("M(2,Z(2))", 16, "[[1,0],[0,1]]"),
    ("U(2,Z(3))", 27, "[[1,0],[0,1]]"),
    ("D(3,Z(2))", 16, "[[1,0,0],[0,1,0],[0,0,1]]"),
    ("V(3,Z(2))", 8, "[[1,0,0],[0,1,0],[0,0,1]]"),
    ("H(Z(2),1,1)", 8, "[[1,0,0],[0,1,0],[0,0,1]]"),
    ("K(Z(2),0)", 16, "(1,0,0,1)"),
    ("prod(Z(2),Z(3))", 6, "(1,1)"),
    ("twist(Z(2),hom[#0,#1])", 8, "[[1,0],[0,1]]"),
    ("dorroh(Z(2),sub[])", 4, "(0,1)"),
    ("trs(Z(2),sub[],1)", 4, "(1,1)"),
    ("algebra(2,2,[[[1,0],[0,1]],[[0,1],[0,0]]])", 4, "[1,0]"),
], ids=lambda v: v if isinstance(v, str) and "(" in v else None)
def test_construction_order_and_identity(text, order, one_label):
    R = build_expr(text)
    assert R.order == order
    assert R.labels[R.one] == one_label
    assert verify_axioms(R).passed


def test_matrix_ring_multiplies_like_matrices():
    M = build_expr("M(2,Z(3))")
    a = resolve_element(M, "[[1,2],[0,1]]")
    b = resolve_element(M, "[[2,1],[1,0]]")
    assert M.labels[mul(M, a, b)] == "[[1,1],[1,0]]"


def test_upper_triangular_product():
    U = build_expr("U(2,Z(3))")
    a = resolve_element(U, "[[1,2],[0,1]]")
    b = resolve_element(U, "[[2,1],[0,2]]")
    assert U.labels[mul(U, a, b)] == "[[2,2],[0,2]]"


def test_h_ring_derived_entries():
    # rows are [a,0,0; c,d,f; 0,0,g] with d = a-s*c and g = d-t*f
    H = build_expr("H(Z(3),2,1)")
    assert H.order == 27
    x = resolve_element(H, "[[1,0,0],[1,2,1],[0,0,1]]")
    assert H.labels[x] == "[[1,0,0],[1,2,1],[0,0,1]]"
    with pytest.raises(RingError, match="diagonal relations"):
        resolve_element(H, "[[1,0,0],[1,1,1],[0,0,1]]")


def test_h_ring_requires_central_parameters():
    with pytest.raises(RingError, match="central"):
        build_expr("H(M(2,Z(2)),[[1,0],[0,0]],[[1,0],[0,1]])")
    # central non-units are fine, the family just gets smaller
    assert build_expr("H(Z(4),2,1)").order == 64


def test_k_ring_parameter_steers_the_product():
    # with the twist parameter equal to 1 the product is plain 2x2
    # matrix multiplication; with 0 the cross terms are killed
    M = build_expr("M(2,Z(2))")
    assert is_isomorphic(build_expr("K(Z(2),1)"), M)
    assert not is_isomorphic(build_expr("K(Z(2),0)"), M)
    K = build_expr("K(Z(2),0)")
    a = resolve_element(K, "(1,1,0,0)")
    b = resolve_element(K, "(0,0,1,1)")
    assert K.labels[mul(K, a, b)] == "(0,1,0,0)"


def test_dorroh_identity_and_embedding():
    # sub[...] takes the unital closure, so 2 drags in all of Z(4)
    D = build_expr("dorroh(Z(4),sub[2])")
    assert D.order == 4 * 4
    one = resolve_element(D, "(0,1)")
    assert one == D.one
    x = resolve_element(D, "(3,0)")
    assert D.labels[mul(D, x, one)] == "(3,0)"


def test_dorroh_with_noncentral_subring_is_still_a_ring():
    M = build_expr("M(2,Z(2))")
    e11 = resolve_element(M, "[[1,0],[0,0]]")
    D = dorroh(M, [e11])
    assert D.order == 16 * 4
    assert verify_axioms(D).passed


def test_direct_product_componentwise(rings):
    P = build_expr("prod(Z(2),Z(3))")
    x = resolve_element(P, "(1,2)")
    y = resolve_element(P, "(1,1)")
    assert P.labels[mul(P, x, y)] == "(1,2)"
    assert P.labels[int(P.add[x, y])] == "(0,0)"
    P3 = direct_product([rings["Z(2)"], rings["Z(2)"], rings["Z(3)"]])
    assert P3.order == 12


def test_subring_closure_contains_unit():
    M = build_expr("M(2,Z(2))")
    mem = subring(M, [resolve_element(M, "[[1,0],[0,0]]")])
    assert M.one in set(int(i) for i in mem)
    assert len(mem) == 4
    U = sub_ring_table(M, subring(M, [
        resolve_element(M, "[[1,0],[0,0]]"),
        resolve_element(M, "[[0,1],[0,0]]"),
    ]), provenance="upper")
    assert U.order == 8
    assert is_isomorphic(U, build_expr("U(2,Z(2))"))


def test_ideal_closure_and_membership():
    R = zmod(12)
    I = ideal_closure(R, [4])
    assert sorted(int(i) for i in I) == [0, 4, 8]
    assert is_ideal(R, I)
    M = build_expr("M(2,Z(2))")
    upper = subring(M, [resolve_element(M, "[[0,1],[0,0]]")])
    assert not is_ideal(M, upper)


def test_quotient_of_z12():
    Q = build_expr("quot(Z(12),4)")
    assert Q.order == 4
    assert Q.labels == ("0+I", "1+I", "2+I", "3+I")
    assert resolve_element(Q, "5+I") == 1
    assert is_isomorphic(Q, zmod(4))
    assert Q.layout.index.tolist() == [0, 1, 2, 3] * 3
    # the ideal is the zero coset, as the quotient_lift law reads it
    assert np.flatnonzero(Q.layout.index == Q.zero).tolist() == [0, 4, 8]


def test_quotient_rejects_improper_ideal():
    with pytest.raises(RingError, match="improper ideal"):
        quotient(zmod(12), [1])


def test_corner_ring():
    M = build_expr("M(2,Z(2))")
    e = resolve_element(M, "[[1,0],[0,0]]")
    C, members = corner(M, e)
    assert C.order == 2
    assert e in set(int(i) for i in members)
    assert is_isomorphic(C, zmod(2))
    with pytest.raises(RingError, match="corner at zero"):
        corner(M, M.zero)
    with pytest.raises(RingError, match="idempotent"):
        corner(M, resolve_element(M, "[[0,1],[0,0]]"))


def test_twisted_hom_validation():
    Z4 = zmod(4)
    with pytest.raises(RingError, match="image for each"):
        twisted_u2(Z4, [0, 1])
    with pytest.raises(RingError, match="fix zero"):
        twisted_u2(Z4, [1, 1, 3, 2])
    with pytest.raises(RingError, match="fix the identity"):
        twisted_u2(Z4, [0, 2, 3, 1])
    with pytest.raises(RingError, match="respect addition"):
        twisted_u2(Z4, [0, 1, 3, 2])
    # coordinate reversal on U(2,Z(2)) is additive and unital but not
    # multiplicative, so it must be caught by the last check
    U = build_expr("U(2,Z(2))")
    rev = [(i % 2) * 4 + (i // 2 % 2) * 2 + i // 4 for i in range(8)]
    with pytest.raises(RingError, match="respect multiplication"):
        twisted_u2(U, rev)


def test_twisted_product_with_identity_hom_is_triangular():
    T = build_expr("twist(Z(2),hom[#0,#1])")
    assert is_isomorphic(T, build_expr("U(2,Z(2))"))


def test_twisted_product_rule():
    # (a,b,c)(x,y,z) = (ax, ay + b*s(z), cz); s swaps the coordinates
    # of Z(2) x Z(2), which is a genuine automorphism
    T = build_expr("twist(prod(Z(2),Z(2)),hom[#0,#2,#1,#3])")
    a = resolve_element(T, "[[(1,1),(1,1)],[(0,0),(0,1)]]")
    x = resolve_element(T, "[[(1,0),(0,0)],[(0,0),(1,0)]]")
    # corner: (1,1)*0 + (1,1)*s((1,0)) = (1,1)*(0,1) = (0,1)
    assert T.labels[mul(T, a, x)] == "[[(1,0),(0,1)],[(0,0),(0,0)]]"


def test_trs_orders():
    Z2 = zmod(2)
    assert trs(Z2, [], 0).order == 2
    assert trs(Z2, [], 2).order == 8
    T = build_expr("trs(M(2,Z(2)),sub[[[1,0],[0,0]],[[0,1],[0,0]],[[0,0],[0,1]]],1)")
    assert T.order == 128
    assert verify_axioms(T).passed


def test_algebra_from_structure_constants():
    # 2-dim algebra over F2 with b1*b1 = b1 is Z2 x Z2
    A = build_expr("algebra(2,2,[[[1,0],[0,1]],[[0,1],[0,1]]])")
    assert A.order == 4
    assert verify_axioms(A).passed
    b1 = resolve_element(A, "[0,1]")
    assert mul(A, b1, b1) == b1


def test_algebra_rejects_bad_input():
    with pytest.raises(RingError, match="prime"):
        build_expr("algebra(4,2,[[[1,0],[0,1]],[[0,1],[0,0]]])")
    # first basis vector must act as the identity
    with pytest.raises(RingError):
        build_expr("algebra(2,2,[[[1,0],[0,0]],[[0,1],[0,0]]])")
    # b1*b1=b2, b1*b2=0, b2*b1=b1 is not associative
    with pytest.raises(RingError):
        build_expr(
            "algebra(2,3,[[[1,0,0],[0,1,0],[0,0,1]],"
            "[[0,1,0],[0,0,1],[0,0,0]],[[0,0,1],[1,0,0],[0,0,0]]])")


def _labelled_rings(corpus):
    """text -> ring for every corpus line and every constructor sample."""
    rings = {ent.text: ent.ring for ent in corpus.rings()}
    for text in SAMPLES.values():
        rings.setdefault(text, build_expr(text))
    return sorted(rings.items())


# sha256 over each ring's text and labels: every printed witness and
# idempotent is one of these literals, so any drift shows here
LABEL_DIGEST = ("df9e23726c0cddabcb016355339e28d0"
                "b15bf470b9bf6458b814d5ed86a8ae40")


def test_labels_are_pinned(whole_corpus):
    h = hashlib.sha256()
    for text, R in _labelled_rings(whole_corpus):
        h.update(("%s\n%s\n" % (text, "\n".join(R.labels))).encode())
    assert h.hexdigest() == LABEL_DIGEST


def test_every_label_resolves_to_its_element(whole_corpus):
    # every element up to order 1024, 64 seeded ones above
    rng = np.random.default_rng(9)
    for text, R in _labelled_rings(whole_corpus):
        idx = (range(R.order) if R.order <= 1024
               else rng.choice(R.order, 64, replace=False).tolist())
        for i in idx:
            assert resolve_element(R, R.labels[i]) == i, (text, i)


def test_resolve_element_forms():
    M = build_expr("M(2,Z(2))")
    i = resolve_element(M, "[[1,1],[0,1]]")
    assert resolve_element(M, M.labels[i]) == i
    assert resolve_element(M, "#%d" % i) == i
    assert resolve_element(M, i) == i


_ALG = "algebra(2,2,[[[1,0],[0,1]],[[0,1],[0,0]]])"


@pytest.mark.parametrize("text,literal,fragment", [
    # literal shape
    ("M(2,Z(2))", "[[1,0],[0,1],[0,0]]", "expected a 2x2 matrix literal"),
    ("M(2,Z(2))", "[[1,0],[0]]", "expected a 2x2 matrix literal"),
    ("M(2,Z(2))", "(1,0)", "expected a 2x2 matrix literal"),
    ("twist(Z(2),hom[#0,#1])", "[[1,0,0],[0,1,0],[0,0,1]]",
     "expected a 2x2 matrix literal"),
    ("H(Z(3),2,1)", "[[1,0,0],[1,2,1]]", "expected a 3x3 matrix literal"),
    # structural zeros
    ("U(2,Z(3))", "[[1,0],[2,1]]", "entry (2,1) must be zero in kind U"),
    ("twist(Z(2),hom[#0,#1])", "[[1,0],[1,1]]",
     "entry (2,1) must be zero in kind U"),
    ("V(3,Z(2))", "[[1,0,0],[0,1,0],[1,0,1]]",
     "entry (3,1) must be zero in kind V"),
    ("H(Z(3),2,1)", "[[1,1,0],[1,2,1],[0,0,1]]",
     "entry (1,2) must be zero in this family"),
    ("H(Z(3),2,1)", "[[1,0,0],[1,2,1],[0,2,1]]",
     "entry (3,2) must be zero in this family"),
    # tied entries
    ("D(3,Z(2))", "[[1,0,0],[0,0,0],[0,0,1]]",
     "tied entries disagree at (2,2) in kind D"),
    ("V(3,Z(2))", "[[1,1,0],[0,1,0],[0,0,1]]",
     "tied entries disagree at (2,3) in kind V"),
    # derived entries
    ("H(Z(3),2,1)", "[[1,0,0],[1,1,1],[0,0,1]]",
     "entries violate the diagonal relations of this family"),
    ("H(Z(3),2,1)", "[[1,0,0],[1,2,1],[0,0,2]]",
     "entries violate the diagonal relations of this family"),
    # tuples
    ("prod(Z(2),Z(3))", "(1,2,0)", "expected 2 components, got 3"),
    ("prod(Z(2),Z(3))", "[1,2]", "expected a 2-tuple literal"),
    ("K(Z(2),0)", "(1,0,0)", "expected 4 components, got 3"),
    ("dorroh(Z(4),sub[2])", "(1,(0,1))", "expected an integer literal for Z(4)"),
    # coefficient vectors and residues
    (_ALG, "[1,0,1]", "expected a coefficient vector of length 2"),
    (_ALG, "(1,0)", "expected a coefficient vector of length 2"),
    (_ALG, "[1,#0]", "integer"),
    ("Z(4)", "(1,2)", "expected an integer literal for Z(4)"),
    ("Z(4)", "[1]", "expected an integer literal for Z(4)"),
    # entries resolved in a base ring
    ("M(2,U(2,Z(2)))", "[[1,0],[0,[[1,0],[1,1]]]]",
     "entry (2,1) must be zero in kind U"),
    ("corner(M(2,Z(2)),[[1,0],[0,0]])", "[[0,1],[0,0]]",
     "element [[0,1],[0,0]] of M(2,Z(2)) lies outside the corner"),
    # raw indices
    ("M(2,Z(2))", "#99", "raw index #99 out of range for order 16"),
    ("M(2,Z(2))", 99, "raw index 99 out of range for order 16"),
    ("M(2,Z(2))", -1, "raw index -1 out of range for order 16"),
])
def test_malformed_literals_are_refused(text, literal, fragment):
    R = build_expr(text)
    with pytest.raises(RingError) as info:
        resolve_element(R, literal)
    assert fragment in str(info.value)


def test_build_expr_accepts_parsed_nodes():
    node = parse("quot(prod(Z(2),Z(4)),(0,2))")
    R = build_expr(node)
    assert R.order == 4


_SIZED = ("Z", "M", "U", "D", "V")


def test_expr_order_matches_the_built_order(whole_corpus):
    built = {ent.text: ent.ring for ent in whole_corpus.entries}
    for text in SAMPLES.values():
        built.setdefault(text, build_expr(text))
    for text in ("M(2,U(2,Z(2)))", "V(4,Z(3))", "D(1,Z(5))", "U(3,D(2,Z(2)))"):
        built[text] = build_expr(text)
    sized = 0
    for text, R in built.items():
        node = parse(text)
        if node.name in _SIZED:
            assert construct.expr_order(node) == R.order, text
            sized += 1
        else:
            assert construct.expr_order(node) is None, text
    assert sized >= 20
    # a matrix over a base it cannot size is not sized either
    assert construct.expr_order("M(2,prod(Z(2),Z(2)))") is None
    assert construct.expr_order("U(2,H(Z(2),1,1))") is None


@pytest.mark.parametrize("text, message", [
    ("Z(1)", "Z(n) needs n >= 2"),
    ("M(0,Z(2))", "matrix size must be >= 1"),
    ("M(2,Z(1))", "Z(n) needs n >= 2"),
])
def test_expr_order_leaves_bad_arguments_to_the_builder(text, message):
    assert construct.expr_order(text) is None
    with pytest.raises(RingError) as info:
        build_expr(text)
    assert str(info.value) == message


@pytest.fixture
def no_table_fills(monkeypatch):
    def reached(*a, **k):
        raise AssertionError("a table was filled")
    for name in ("_build_table", "_broadcast", "_fill_rows"):
        monkeypatch.setattr(construct, name, reached)


def test_build_cap_fails_before_any_table_fill(no_table_fills):
    with pytest.raises(SizeGuardError) as info:
        build_expr("M(2,M(2,Z(9)))")
    assert str(info.value) == ("M(2,M(2,Z(9))) has order 1853020188851841, "
                               "over the build cap 10000")
    with pytest.raises(SizeGuardError, match="^Z\\(20000\\) has order"):
        build_expr("K(Z(20000),0)")
    with pytest.raises(SizeGuardError, match="^U\\(2,Z\\(5\\)\\) has order 125"):
        build_expr("prod(U(2,Z(5)),Z(3))", Guards(build_cap=100))


def test_coordinate_counts_match_the_matrix_grid():
    for kind, count in construct._COORD_COUNTS.items():
        for n in range(1, 9):
            assert count(n) == construct._matrix_grid(kind, n)[1], (kind, n)


@pytest.mark.parametrize("text, order", [
    ("M(1000,Z(3))", "3^1000000"),
    ("M(3000,Z(3))", "3^9000000"),
    ("M(99999999999,Z(2))", "2^9999999999800000000001"),
    ("U(99999999999,Z(2))", "2^4999999999950000000000"),
    ("D(99999999999,Z(2))", "2^4999999999850000000002"),
    ("V(99999999999,Z(2))", "2^99999999999"),
    # a base the cap walk cannot size: matrix_ring refuses it itself
    ("M(99999999999,prod(Z(2),Z(2)))", "4^9999999999800000000001"),
    ("trs(Z(2),sub[],20000)", "2^20000*2"),
    ("trs(Z(2),sub[],99999999999)", "2^99999999999*2"),
])
def test_a_giant_order_is_refused_from_its_powers(text, order):
    # Python formats no integer past 4300 digits, and these orders are
    # never computed: they are written as their powers
    with pytest.raises(SizeGuardError) as info:
        build_expr(text)
    assert str(info.value) == ("%s has order %s, over the build cap 10000"
                               % (text, order))
    assert construct.expr_order(text) is None


def test_build_cap_check_stops_at_an_unsized_node():
    # the twist is built first and refuses its map before the oversized
    # factor is reached, so that error comes first
    with pytest.raises(RingError, match="respect addition"):
        build_expr("prod(twist(Z(4),hom[#0,#1,#3,#2]),Z(20000))")
    with pytest.raises(SizeGuardError, match="^Z\\(20000\\)"):
        build_expr("prod(twist(Z(4),hom[#0,#1,#2,#3]),Z(20000))")


def test_iso_detects_crt_and_refuses_fakes(rings):
    assert is_isomorphic(rings["Z(6)"], rings["prod(Z(2),Z(3))"])
    assert not is_isomorphic(rings["Z(4)"], build_expr("prod(Z(2),Z(2))"))
    phi = find_isomorphism(rings["Z(6)"], rings["prod(Z(2),Z(3))"])
    R, S = rings["Z(6)"], rings["prod(Z(2),Z(3))"]
    assert phi[R.zero] == S.zero and phi[R.one] == S.one
    for a in range(6):
        for b in range(6):
            assert phi[int(R.mul[a, b])] == int(S.mul[phi[a], phi[b]])
            assert phi[int(R.add[a, b])] == int(S.add[phi[a], phi[b]])


def test_ring_generators_span(rings):
    M = build_expr("M(2,Z(2))")
    gens = ring_generators(M)
    assert len(subring(M, gens)) == M.order
    assert naive_center(M) == [M.zero, M.one]


# ---------------------------------------------------------------------------
# table builds: every broadcast and every fill against the formula

CORPUS_TEXTS = [line.strip() for line in
                (Path(finring.__file__).parent / "corpus.txt").read_text()
                .splitlines() if line.strip() and not line.startswith("#")]


@pytest.fixture
def fill_all(monkeypatch):
    """Fill every gated formula product, whatever its order."""
    monkeypatch.setattr(construct, "_FILL_MIN_ORDER", 0)


@contextlib.contextmanager
def formula_checked_builds():
    """While live, fill every gated formula product, whatever its order,
    and hold every _broadcast and _fill_rows made, as construct has them
    on entry, to _build_table's formula: every row up to order 1024, 64
    seeded rows above.  Yields the (kind, order) of each build checked."""
    rng = np.random.default_rng(8)
    seen = []
    broadcast, fill = construct._broadcast, construct._fill_rows

    def rows(n):
        if n <= 1024:
            return np.arange(n)
        return np.sort(rng.choice(n, 64, replace=False))

    def check(kind, out, space, formula, dtype):
        r = rows(space.order)
        assert out.shape == (space.order, space.order) and out.dtype == dtype
        assert np.array_equal(out[r], _build_table(space, formula, dtype, r))
        seen.append((kind, space.order))

    def checked_broadcast(tables, dtype):
        out = broadcast(tables, dtype)
        check("broadcast", out, _CoordSpace([len(t) for t in tables]),
              lambda rc, cc: [t[a, b] for t, a, b in zip(tables, rc, cc)],
              dtype)
        return out

    def checked_fill(space, mulfn, add, zero):
        out = fill(space, mulfn, add, zero)
        check("fill", out, space, mulfn, add.dtype)
        return out

    with mock.patch.object(construct, "_FILL_MIN_ORDER", 0), \
            mock.patch.object(construct, "_broadcast", checked_broadcast), \
            mock.patch.object(construct, "_fill_rows", checked_fill):
        yield seen


def assert_builds_match_the_formula(text, cells):
    """Build text inside formula_checked_builds, in blocks of cells
    cells: the fill or broadcast of its own order was checked."""
    with mock.patch.object(core, "_CHUNK_CELLS", cells), \
            formula_checked_builds() as seen:
        R = build_expr(text)
    name = parse(text).name
    if name not in ("quot", "corner", "Z"):
        kind = "broadcast" if name in ("prod", "trs") else "fill"
        assert (kind, R.order) in seen
        assert ("broadcast", R.order) in seen


def test_a_one_coordinate_ring_is_not_filled():
    # Z(81) is past _FILL_MIN_ORDER, but its one coordinate makes every
    # row a single-coordinate row: it is built by the formula alone
    with formula_checked_builds() as seen:
        R = build_expr("Z(81)")
    assert seen == []
    ar = np.arange(81)
    assert np.array_equal(R.mul, ar[:, None] * ar % 81)
    assert_builds_match_the_formula("Z(81)", core._CHUNK_CELLS)


@pytest.mark.parametrize("text", sorted(
    set(CORPUS_TEXTS) | set(SAMPLES.values()) | {"M(2,Z(8))", "U(3,Z(4))"}))
def test_built_tables_equal_the_formula_tables(text):
    assert_builds_match_the_formula(text, core._CHUNK_CELLS)


# the corpus and sample rings up to order 729, built in row blocks that
# cross row boundaries: every fill block holds one partial-sum row
BLOCKED_TEXTS = sorted(t for t in set(CORPUS_TEXTS) | set(SAMPLES.values())
                       if (construct.expr_order(t) or 0) <= 729)


@pytest.mark.parametrize("cells", CHUNKS[:2])
def test_blocked_builds_equal_the_formula_tables(cells):
    for text in BLOCKED_TEXTS:
        assert_builds_match_the_formula(text, cells)


def relabelled_z3():
    """Z(3) relabelled so that its zero is index 2 and its one index 0."""
    Z3 = zmod(3)
    to = np.array([2, 0, 1])
    back = np.argsort(to)
    return build_ring(to[Z3.add[np.ix_(back, back)]],
                      to[Z3.mul[np.ix_(back, back)]], 2, 0,
                      [Z3.labels[i] for i in back], "relabelled")


def test_fill_on_a_base_whose_zero_is_not_index_0():
    B = relabelled_z3()
    for cells in CHUNKS:
        with mock.patch.object(core, "_CHUNK_CELLS", cells), \
                formula_checked_builds() as seen:
            for R in (matrix_ring("U", 2, B), h_ring(B, 0, 0),
                      dorroh(B, [])):
                assert R.zero != 0 and ("fill", R.order) in seen
                assert verify_axioms(R).passed


def test_a_filled_build_holds_no_square_temporary():
    # the broadcast of add and the fill of mul at order 1296, in
    # one-row fill blocks: beside the two tables they return, the build
    # holds under the n^2 bytes of one n x n bool mask
    with mock.patch.object(core, "_CHUNK_CELLS", 8 * 1296):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            R = build_expr("M(2,Z(6))")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert R.order == 1296 >= construct._FILL_MIN_ORDER
    assert peak - R.add.nbytes - R.mul.nbytes < R.order ** 2


def _broken_z3():
    # 2*2 = 0: (1+1)*2 = 0 but 1*2 + 1*2 = 1, so not distributive
    Z3 = zmod(3)
    bad = Z3.mul.copy()
    bad[2, 2] = 0
    return build_ring(Z3.add, bad, Z3.zero, Z3.one, Z3.labels, "broken")


@pytest.mark.parametrize("make", [
    lambda B: matrix_ring("M", 2, B), lambda B: h_ring(B, 1, 1),
], ids=["M", "H"])
def test_a_broken_base_keeps_the_formula_table(make, monkeypatch, fill_all):
    B = _broken_z3()
    assert not construct._biadditive(B)
    built = make(B)
    # the reference: the formula on every cell
    monkeypatch.setattr(construct, "_fill_rows", lambda space, mulfn, add,
                        zero: _build_table(space, mulfn, add.dtype))
    formula = make(B)
    assert np.array_equal(built.add, formula.add)
    assert np.array_equal(built.mul, formula.mul)
    assert built.mul.dtype == formula.mul.dtype
    assert built.labels == formula.labels


def test_the_gate_matters_on_a_broken_base(monkeypatch, fill_all):
    # filled anyway, H over the broken base gets a table the formula
    # does not give, so only the gate keeps it on the formula path
    B = _broken_z3()
    built = h_ring(B, 1, 1)
    monkeypatch.setattr(construct, "_biadditive", lambda R: True)
    assert not np.array_equal(h_ring(B, 1, 1).mul, built.mul)


# ---------------------------------------------------------------------------
# derived rings: the row-blocked builder against the whole-table formula

def naive_derived(R, m, posmap, one, suffix=""):
    """add, mul, labels, zero and one of the ring on R's elements m by
    the whole-table formula posmap[R.op[np.ix_(m, m)]], posmap int64."""
    m = np.asarray(m, dtype=np.int64)
    posmap = np.asarray(posmap, dtype=np.int64)
    return (posmap[R.add[np.ix_(m, m)]], posmap[R.mul[np.ix_(m, m)]],
            tuple(R.labels[i] + suffix for i in m), int(posmap[R.zero]),
            int(posmap[one]))


def positions(R, m):
    """The int64 map of R's elements to their positions in m, -1 off m."""
    posmap = np.full(R.order, -1, dtype=np.int64)
    posmap[list(m)] = np.arange(len(m))
    return posmap


def derived_subjects(R):
    """(build, reference) for the corner at each nonzero idempotent of
    R, and for the subring and the quotient by the ideal (when proper)
    that each of zero and R's additive generators generates; build()
    builds the ring and reference is naive_derived's answer for it."""
    for e in idempotents(R):
        e = int(e)
        if e != R.zero:
            m = np.unique(R.mul[R.mul[e], e])
            yield (lambda e=e: corner(R, e)[0],
                   naive_derived(R, m, positions(R, m), e))
    subs, ideals = set(), set()
    for x in [R.zero] + core._additive_generators(R).gens:
        m = tuple(subring(R, [x]).tolist())
        if m not in subs:
            subs.add(m)
            yield (lambda m=m: sub_ring_table(R, m),
                   naive_derived(R, m, positions(R, m), R.one))
        ideal = ideal_closure(R, [x])
        if R.one not in ideal and tuple(ideal.tolist()) not in ideals:
            ideals.add(tuple(ideal.tolist()))
            rep_of = R.add[:, ideal].min(axis=1)
            reps = np.unique(rep_of)
            yield (lambda x=x: quotient(R, [x])[0],
                   naive_derived(R, reps, np.searchsorted(reps, rep_of),
                                 R.one, "+I"))


def assert_derived_rings_match_the_formula(R, *cells):
    """Each of derived_subjects(R), built in blocks of each of cells
    cells, has the reference's tables, in the table dtype of its order,
    labels, zero and one."""
    for build, (add, mul, labels, zero, one) in list(derived_subjects(R)):
        for c in cells:
            with mock.patch.object(core, "_CHUNK_CELLS", c):
                S = build()
            assert S.add.dtype == S.mul.dtype == table_dtype(S.order)
            assert np.array_equal(S.add, add) and np.array_equal(S.mul, mul)
            assert (S.labels, S.zero, S.one) == (labels, zero, one)


def assert_derived_refusals_keep_their_messages(R, *cells):
    """A subset of R that is not closed and one without R's identity
    are refused, in blocks of each of cells cells, with their messages."""
    x = int(np.flatnonzero(R.add[R.one] != R.zero)[-1])
    assert R.add[R.one, x] not in (R.zero, R.one, x)
    for c in cells:
        with mock.patch.object(core, "_CHUNK_CELLS", c):
            with pytest.raises(RingError) as info:
                sub_ring_table(R, [R.zero, R.one, x])
            assert str(info.value) == ("subset of %s is not closed under "
                                       "the operations" % R.provenance)
            with pytest.raises(RingError) as info:
                sub_ring_table(R, [R.zero, x])
            assert str(info.value) == ("subring must contain zero and its "
                                       "identity")


def test_derived_rings_equal_the_formula_tables(rings, whole_corpus):
    small = [ent.ring for ent in whole_corpus.rings() if ent.ring.order <= 81]
    for R in [rings[t] for t in SMALL_RINGS] + small:
        assert_derived_rings_match_the_formula(R, *CHUNKS)
    assert_derived_refusals_keep_their_messages(rings["M(2,Z(2))"], *CHUNKS)


def test_a_derived_build_holds_no_square_temporary():
    # the corner at the identity, the quotient by the zero ideal and
    # the subring of every element, all of order 1296, in 8-row blocks:
    # beside its two tables each holds under one n x n bool mask
    R = build_expr("M(2,Z(6))")
    everything = np.arange(R.order)
    for build in (lambda: corner(R, R.one)[0], lambda: quotient(R, [])[0],
                  lambda: sub_ring_table(R, everything)):
        with mock.patch.object(core, "_CHUNK_CELLS", 8 * R.order):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                S = build()
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        assert S.order == R.order == 1296
        assert peak - S.add.nbytes - S.mul.nbytes < R.order ** 2
