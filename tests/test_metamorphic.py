"""Isomorphic presentations agree, and random constructor compositions
agree with the naive oracle."""

import pytest
from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

from finring import (
    ALL_PROPS, E_PROPS, Guards, RingError, SizeGuardError, build_expr, center,
    check_property, idempotents, replay_witness, survey,
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
