"""AST node types for ring expressions and element literals.

Pure data: no parsing and no table construction here.  Every ring
expression is one RingExpr(name, args) node.  CONSTRUCTORS declares each
constructor's name and argument kinds once: the parser in `dsl` reads it
to produce the nodes, `serialize` reads it to render the canonical text
form (no whitespace, stable argument order) used for provenance strings,
and `construct.build_expr` reads it to build the ring arguments.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union


# ---------------------------------------------------------------- literals

@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class RawIndex:
    # '#k' form: element k of the ring by raw table index
    value: int


@dataclass(frozen=True)
class BracketList:
    # '[...]' form: matrix rows, coefficient vectors, nested freely
    items: tuple

    def __init__(self, items):
        object.__setattr__(self, "items", tuple(items))


@dataclass(frozen=True)
class TupleLit:
    # '(a,b,...)' form, arity >= 1
    items: tuple

    def __init__(self, items):
        object.__setattr__(self, "items", tuple(items))


@dataclass(frozen=True)
class CosetLit:
    # 'x+I' form: representative literal for a quotient-ring element
    rep: "ElemNode"


ElemNode = Union[IntLit, RawIndex, BracketList, TupleLit, CosetLit]


# ------------------------------------------------------------- expressions

@dataclass(frozen=True)
class RingExpr:
    # name is a key of CONSTRUCTORS; args holds one value per argument
    # kind: an int, a RingExpr ('ring'), an element literal ('elem'), a
    # BracketList ('list'), or a tuple of rings or elements ('rings',
    # 'elems', 'sub', 'hom')
    name: str
    args: tuple

    def __init__(self, name, args):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", tuple(args))


# ------------------------------------------------------------ serialization

def serialize_elem(node: ElemNode) -> str:
    if isinstance(node, IntLit):
        return str(node.value)
    if isinstance(node, RawIndex):
        return "#%d" % node.value
    if isinstance(node, BracketList):
        return "[" + ",".join(serialize_elem(i) for i in node.items) + "]"
    if isinstance(node, TupleLit):
        return "(" + ",".join(serialize_elem(i) for i in node.items) + ")"
    if isinstance(node, CosetLit):
        return serialize_elem(node.rep) + "+I"
    raise TypeError("not an element literal: %r" % (node,))


# ------------------------------------------------------ constructor table

# The grammar of ring expressions: constructor name -> the kind of each
# argument.  Kinds: 'int', 'ring', 'elem', 'list' (a bracket list),
# 'sub' and 'hom' (tagged bracket lists 'sub[...]' and 'hom[...]'),
# 'rings' (two or more rings) and 'elems' (one or more elements).  dsl
# parses, serialize renders and construct.build_expr builds from it.
CONSTRUCTORS = {
    "Z": ("int",),
    "M": ("int", "ring"),
    "U": ("int", "ring"),
    "D": ("int", "ring"),
    "V": ("int", "ring"),
    "H": ("ring", "elem", "elem"),
    "K": ("ring", "elem"),
    "prod": ("rings",),
    "dorroh": ("ring", "sub"),
    "quot": ("ring", "elems"),
    "corner": ("ring", "elem"),
    "twist": ("ring", "hom"),
    "trs": ("ring", "sub", "int"),
    "algebra": ("int", "int", "list"),
}

_SER_ARG = {
    "int": lambda v: "%d" % v,
    "ring": lambda v: serialize(v),
    "elem": serialize_elem,
    "list": serialize_elem,
    "sub": lambda v: "sub" + serialize_elem(BracketList(v)),
    "hom": lambda v: "hom" + serialize_elem(BracketList(v)),
    "rings": lambda v: ",".join(serialize(f) for f in v),
    "elems": lambda v: ",".join(serialize_elem(g) for g in v),
}


def serialize(node: RingExpr) -> str:
    """Canonical text of a ring expression (whitespace-free)."""
    if not (isinstance(node, RingExpr) and node.name in CONSTRUCTORS):
        raise TypeError("not a ring expression: %r" % (node,))
    return "%s(%s)" % (node.name, ",".join(
        _SER_ARG[kind](value)
        for kind, value in zip(CONSTRUCTORS[node.name], node.args)))
