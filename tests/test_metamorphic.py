"""Isomorphic presentations agree, random constructor compositions
agree with the naive oracle, and every such ring and corpus ring agrees
with its opposite ring."""

import pytest
from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

from finring import (
    ALL_PROPS, E_PROPS, GLOBAL_PROPS, Guards, RingError, SizeGuardError,
    build_expr, build_ring, center, check_property, idempotents,
    replay_witness, survey, verify_axioms,
)
from finring.expr import CONSTRUCTORS

import oracle
from iso import find_isomorphism

ISOMORPHIC_PAIRS = [
    ("Z(6)", "prod(Z(2),Z(3))"),
    ("K(Z(2),1)", "M(2,Z(2))"),
    ("quot(Z(12),4)", "Z(4)"),
    ("corner(M(2,Z(2)),[[1,0],[0,0]])", "Z(2)"),
    ("U(2,Z(2))", "twist(Z(2),hom[#0,#1])"),
]


def _by_instance(R):
    """(property, idempotent index or None) -> verdict, over survey(R)."""
    return {(v.property, None if v.idempotent is None
             else R.labels.index(v.idempotent)): v for v in survey(R)}


def _assert_transported(R, S, phi):
    """Every verdict of R has the same status at phi's image in S, and
    each failing witness of R, mapped through phi, replays in S."""
    mine, theirs = _by_instance(R), _by_instance(S)
    image = {(p, None if e is None else int(phi[e])): v
             for (p, e), v in mine.items()}
    assert image.keys() == theirs.keys()
    for (prop, e), v in image.items():
        assert v.status == theirs[prop, e].status, (prop, e)
        if v.status == "fails":
            assert replay_witness(S, prop, e, [int(phi[w]) for w in v.witness])


@pytest.mark.parametrize("left, right", ISOMORPHIC_PAIRS)
def test_isomorphic_presentations_give_the_same_survey(left, right):
    R, S = build_expr(left), build_expr(right)
    phi = find_isomorphism(R, S)
    assert phi is not None
    _assert_transported(R, S, phi)
    _assert_transported(S, R, phi.argsort())


# a left property at e on R is its right relative at e on the opposite
# ring, which has R's add and the transposed mul: right e-reversibility
# of the opposite reads xy = 0 => e*y*x = 0 in R
MIRRORED = (("left_e_reversible", "right_e_reversible"),
            ("left_e_reduced", "right_e_reduced"),
            ("left_e_semicommutative", "right_e_semicommutative"))


def _assert_mirrored_by_the_opposite(R):
    """The opposite ring passes the axioms, each global property has the
    same status on both rings, and each one-sided property at each e has
    its mirror's status there; each failing witness replays on its own
    ring (the least witnesses differ, as the pair swaps).  No oracle, so
    any order the sweeps reach.  Returns the number of comparisons."""
    P = build_ring(R.add, R.mul.T, R.zero, R.one, R.labels,
                   "op(%s)" % R.provenance)
    assert verify_axioms(P).passed, R.provenance
    pairs = [(p, p, None) for p in GLOBAL_PROPS]
    for e in (int(x) for x in idempotents(R) if x != R.zero):
        pairs += [(mine, theirs, e) for left, right in MIRRORED
                  for mine, theirs in ((left, right), (right, left))]
    for mine, theirs, e in pairs:
        v, w = check_property(R, mine, e), check_property(P, theirs, e)
        assert v.status == w.status, (R.provenance, mine, e)
        for S, x in ((R, v), (P, w)):
            if x.status == "fails":
                assert replay_witness(S, x.property, e, x.witness)
    return len(pairs)


def test_every_corpus_ring_is_mirrored_by_its_opposite(corpus):
    assert sum(_assert_mirrored_by_the_opposite(e.ring)
               for e in corpus.rings()) == 2790


# the leaves of a composition: modular integers and algebras over Z(p)
# whose constants are associative with basis vector 0 the identity
LEAVES = (
    "Z(2)", "Z(3)", "Z(4)", "Z(6)", "Z(8)",
    "algebra(2,2,[[[1,0],[0,1]],[[0,1],[0,0]]])",
    "algebra(2,2,[[[1,0],[0,1]],[[0,1],[1,1]]])",
    "algebra(3,2,[[[1,0],[0,1]],[[0,1],[2,0]]])",
)
MAX_ORDER = 32
CAP = Guards(build_cap=MAX_ORDER)


def _elem(draw, members):
    return "#%d" % draw(st.sampled_from([int(x) for x in members]))


def _elems(draw, R, **size):
    return ",".join(draw(st.lists(
        st.integers(0, R.order - 1).map("#{}".format), **size)))


def _wrap(draw, name, text):
    """name applied to the ring text, its other arguments drawn."""
    R = build_expr(text)
    if name in ("M", "U", "D", "V"):
        return "%s(%d,%s)" % (name, draw(st.integers(2, 3)), text)
    if name == "H":
        return "H(%s,%s,%s)" % (text, _elem(draw, center(R)),
                                _elem(draw, center(R)))
    if name == "K":
        return "K(%s,%s)" % (text, _elem(draw, center(R)))
    if name == "prod":
        return "prod(%s,%s)" % tuple(draw(st.permutations(
            [text, draw(st.sampled_from(LEAVES))])))
    if name == "dorroh":
        return "dorroh(%s,sub[%s])" % (text, _elems(draw, R, max_size=2))
    if name == "quot":
        return "quot(%s,%s)" % (text, _elems(draw, R, min_size=1, max_size=2))
    if name == "corner":
        return "corner(%s,%s)" % (text, _elem(draw, [
            e for e in idempotents(R) if e != R.zero]))
    if name == "twist":
        return "twist(%s,hom[%s])" % (text, ",".join(
            "#%d" % i for i in range(R.order)))
    if name == "trs":
        return "trs(%s,sub[%s],%d)" % (text, _elems(draw, R, max_size=2),
                                       draw(st.integers(0, 2)))
    raise AssertionError("no wrapper for %s" % name)


@st.composite
def compositions(draw):
    """Canonical text of a ring of order <= MAX_ORDER, built by wrapping
    a leaf in up to three constructors.  A wrap the constructor refuses
    (over the cap, an improper ideal, a non-closed subset) keeps the
    ring it was given."""
    # half the leaves are Z(2) or Z(3): M, U, H, K and twist fit the
    # order cap only over those
    text = draw(st.sampled_from(LEAVES[:2]) | st.sampled_from(LEAVES))
    for name in draw(st.lists(st.sampled_from(
            sorted(set(CONSTRUCTORS) - {"Z", "algebra"})), max_size=3)):
        wrapped = _wrap(draw, name, text)
        try:
            text = build_expr(wrapped, CAP).provenance
        except (RingError, SizeGuardError):
            pass
    return text


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(compositions())
def test_random_compositions_match_the_oracle(text):
    R = build_expr(text)
    assert R.order <= MAX_ORDER
    for prop in ALL_PROPS:
        for e in ([e for e in idempotents(R) if e != R.zero]
                  if prop in E_PROPS else [None]):
            v = check_property(R, prop, e)
            assert v.status in ("holds", "fails")
            assert (v.status == "holds") == oracle.naive_check(R, prop, e), \
                (text, prop, e)
            if v.status == "fails":
                assert replay_witness(R, prop, e, v.witness)
    _assert_mirrored_by_the_opposite(R)
