"""Grammar round-trips and error positions."""

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from finring import (ParseError, build_expr, parse, parse_element, serialize,
                     serialize_elem)
from finring.expr import (
    CONSTRUCTORS, BracketList, CosetLit, IntLit, RawIndex, RingExpr, TupleLit,
)

ints = st.integers(min_value=0, max_value=99)
leaf = st.one_of(st.builds(IntLit, ints), st.builds(RawIndex, ints))

# '+I' may wrap anything except another coset directly ('x+I+I' is
# not grammatical, though '[x+I]+I' is)
elem = st.recursive(
    leaf,
    lambda sub: st.one_of(
        st.builds(BracketList, st.lists(sub, min_size=1, max_size=3)),
        st.builds(TupleLit, st.lists(sub, min_size=1, max_size=3)),
        st.builds(CosetLit,
                  sub.filter(lambda n: not isinstance(n, CosetLit))),
    ),
    max_leaves=8)


def expr_of(name, *args):
    return st.builds(RingExpr, st.just(name), st.tuples(*args))


def items(strategy, **size):
    return st.lists(strategy, **size).map(tuple)


ring = st.recursive(
    expr_of("Z", st.integers(min_value=2, max_value=999)),
    lambda sub: st.one_of(
        st.builds(RingExpr, st.sampled_from("MUDV"),
                  st.tuples(st.integers(min_value=2, max_value=5), sub)),
        expr_of("H", sub, elem, elem),
        expr_of("K", sub, elem),
        expr_of("prod", items(sub, min_size=2, max_size=3)),
        expr_of("dorroh", sub, items(elem, max_size=2)),
        expr_of("quot", sub, items(elem, min_size=1, max_size=2)),
        expr_of("corner", sub, elem),
        expr_of("twist", sub, items(elem, min_size=1, max_size=3)),
        expr_of("trs", sub, items(elem, max_size=2),
                st.integers(min_value=0, max_value=4)),
        expr_of("algebra", st.sampled_from([2, 3, 5, 7]),
                st.integers(min_value=1, max_value=4),
                st.builds(BracketList, st.lists(
                    st.builds(BracketList, st.lists(leaf, min_size=1,
                                                    max_size=2)),
                    min_size=1, max_size=2))),
    ),
    max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(ring)
def test_ring_expression_round_trip(node):
    text = serialize(node)
    back = parse(text)
    assert back == node
    assert serialize(back) == text


@settings(max_examples=150, deadline=None)
@given(elem)
def test_element_literal_round_trip(node):
    text = serialize_elem(node)
    back = parse_element(text)
    assert back == node
    assert serialize_elem(back) == text


def test_whitespace_is_ignored():
    assert parse(" U( 2 ,\n Z( 3 ) ) ") == parse("U(2,Z(3))")
    assert parse_element(" ( 1 , 2 ) + I ") == parse_element("(1,2)+I")


def test_nested_expression_parses():
    node = parse("quot(quot(Z(8),4),2+I)")
    assert node.name == "quot" and node.args[0].name == "quot"
    assert isinstance(node.args[1][0], CosetLit)
    assert serialize(node) == "quot(quot(Z(8),4),2+I)"


@pytest.mark.parametrize("text,col,frag", [
    ("K(Z(2)", 7, "expected ','"),
    ("Z()", 3, "expected 'int'"),
    ("frob(2)", 1, "unknown constructor"),
    ("Z(2),", 5, "trailing input"),
    ("prod(Z(2))", 11, "at least two factors"),
    ("", 1, "expected a ring constructor"),
    ("quot(Z(4),)", 11, "expected an element literal"),
    ("H(Z(2),1)", 9, "expected ','"),
    ("quot(Z(4))", 11, "at least one ideal generator"),
    ("dorroh(Z(2),hom[])", 13, "expected 'sub[...]'"),
    ("twist(Z(2),sub[])", 12, "expected 'hom[...]'"),
    # str.isdigit accepts '²' and int() does not: no integer starts here
    ("Z(²)", 3, "expected 'int'"),
])
def test_parse_errors_carry_positions(text, col, frag):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.line == 1
    assert info.value.col == col
    assert frag in str(info.value)


@pytest.mark.parametrize("text,col,frag", [
    ("", 1, "element literal"),
    ("#x", 2, "expected 'int'"),
    ("(1,)", 4, "element literal"),
    ("1+J", 3, "expected 'I' after '+'"),
    ("²", 1, "element literal"),
])
def test_element_errors_carry_positions(text, col, frag):
    with pytest.raises(ParseError) as info:
        parse_element(text)
    assert info.value.col == col
    assert frag in str(info.value)


def test_a_decimal_digit_of_any_script_is_an_integer():
    assert parse("Z(٣)") == parse("Z(3)")     # an Arabic-Indic three


def test_multiline_error_reports_its_line():
    with pytest.raises(ParseError) as info:
        parse("prod(\nZ(2),\nZ(x))")
    assert info.value.line == 3


# one small sample per constructor name; a name missing here fails below
SAMPLES = {
    "Z": "Z(6)",
    "M": "M(2,Z(2))",
    "U": "U(2,Z(3))",
    "D": "D(3,Z(2))",
    "V": "V(3,Z(2))",
    "H": "H(Z(3),2,1)",
    "K": "K(Z(2),1)",
    "prod": "prod(Z(2),Z(3),Z(2))",
    "dorroh": "dorroh(Z(4),sub[2])",
    "quot": "quot(Z(12),4,6)",
    "corner": "corner(M(2,Z(2)),[[1,0],[0,0]])",
    "twist": "twist(Z(2),hom[#0,#1])",
    "trs": "trs(Z(2),sub[],1)",
    "algebra": "algebra(2,2,[[[1,0],[0,1]],[[0,1],[0,0]]])",
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_every_constructor_parses_serializes_and_builds(name):
    text = SAMPLES[name]
    node = parse(text)
    assert node.name == name
    assert serialize(node) == text
    assert build_expr(node).provenance == text
