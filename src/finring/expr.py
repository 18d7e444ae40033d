"""AST node types for ring expressions and element literals.

Pure data: no parsing and no table construction here.  CONSTRUCTORS
declares each constructor's name and argument kinds once: the parser in
`dsl` reads it to produce these nodes, and `serialize` reads it to
render the canonical text form (no whitespace, stable argument order)
used for provenance strings.  The builders in `construct` consume the
nodes.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple, Union


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
class ZExpr:
    n: int


@dataclass(frozen=True)
class MatExpr:
    # kind in {'M', 'U', 'D', 'V'}
    kind: str
    n: int
    base: "RingExpr"


@dataclass(frozen=True)
class HExpr:
    base: "RingExpr"
    s: ElemNode
    t: ElemNode


@dataclass(frozen=True)
class KExpr:
    base: "RingExpr"
    s: ElemNode


@dataclass(frozen=True)
class ProdExpr:
    factors: tuple

    def __init__(self, factors):
        object.__setattr__(self, "factors", tuple(factors))


@dataclass(frozen=True)
class SubGens:
    # 'sub[...]' argument form used by dorroh and trs
    gens: tuple

    def __init__(self, gens):
        object.__setattr__(self, "gens", tuple(gens))


@dataclass(frozen=True)
class HomTable:
    # 'hom[...]' argument form used by twist
    images: tuple

    def __init__(self, images):
        object.__setattr__(self, "images", tuple(images))


@dataclass(frozen=True)
class DorrohExpr:
    base: "RingExpr"
    sub: SubGens


@dataclass(frozen=True)
class QuotExpr:
    base: "RingExpr"
    gens: tuple

    def __init__(self, base, gens):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "gens", tuple(gens))


@dataclass(frozen=True)
class CornerExpr:
    base: "RingExpr"
    e: ElemNode


@dataclass(frozen=True)
class TwistExpr:
    base: "RingExpr"
    hom: HomTable


@dataclass(frozen=True)
class TrsExpr:
    base: "RingExpr"
    sub: SubGens
    n: int


@dataclass(frozen=True)
class AlgebraExpr:
    p: int
    d: int
    consts: BracketList


RingExpr = Union[
    ZExpr, MatExpr, HExpr, KExpr, ProdExpr, DorrohExpr, QuotExpr,
    CornerExpr, TwistExpr, TrsExpr, AlgebraExpr,
]


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

class Signature(NamedTuple):
    node: type
    args: tuple


# The grammar of ring expressions: constructor name -> node class and the
# kind of each node field, in field order.  Kinds: 'name' (the
# constructor's own name, not written as an argument), 'int', 'ring',
# 'elem', 'list' (a bracket list), 'sub' and 'hom' (tagged bracket lists
# 'sub[...]' and 'hom[...]'), 'rings' (two or more rings) and 'elems'
# (one or more elements).  dsl parses and serialize renders from it.
CONSTRUCTORS = {
    "Z": Signature(ZExpr, ("int",)),
    "M": Signature(MatExpr, ("name", "int", "ring")),
    "U": Signature(MatExpr, ("name", "int", "ring")),
    "D": Signature(MatExpr, ("name", "int", "ring")),
    "V": Signature(MatExpr, ("name", "int", "ring")),
    "H": Signature(HExpr, ("ring", "elem", "elem")),
    "K": Signature(KExpr, ("ring", "elem")),
    "prod": Signature(ProdExpr, ("rings",)),
    "dorroh": Signature(DorrohExpr, ("ring", "sub")),
    "quot": Signature(QuotExpr, ("ring", "elems")),
    "corner": Signature(CornerExpr, ("ring", "elem")),
    "twist": Signature(TwistExpr, ("ring", "hom")),
    "trs": Signature(TrsExpr, ("ring", "sub", "int")),
    "algebra": Signature(AlgebraExpr, ("int", "int", "list")),
}

# tagged argument kinds: tag -> (node class, its field of items)
TAGGED = {"sub": (SubGens, "gens"), "hom": (HomTable, "images")}

# node class -> (name, argument kinds, field names); a 'name' field
# overrides the name
_BY_NODE = {sig.node: (name, sig.args, tuple(f.name for f in fields(sig.node)))
            for name, sig in CONSTRUCTORS.items()}


def _ser_tagged(tag):
    field_name = TAGGED[tag][1]
    return lambda v: tag + serialize_elem(BracketList(getattr(v, field_name)))


_SER_ARG = {
    "int": lambda v: "%d" % v,
    "ring": lambda v: serialize(v),
    "elem": serialize_elem,
    "list": serialize_elem,
    "sub": _ser_tagged("sub"),
    "hom": _ser_tagged("hom"),
    "rings": lambda v: ",".join(serialize(f) for f in v),
    "elems": lambda v: ",".join(serialize_elem(g) for g in v),
}


def serialize(node: RingExpr) -> str:
    """Canonical text of a ring expression (whitespace-free)."""
    sig = _BY_NODE.get(type(node))
    if sig is None:
        raise TypeError("not a ring expression: %r" % (node,))
    name, kinds, names = sig
    args = []
    for kind, field_name in zip(kinds, names):
        value = getattr(node, field_name)
        if kind == "name":
            name = value
        else:
            args.append(_SER_ARG[kind](value))
    return "%s(%s)" % (name, ",".join(args))
