"""Parser for the ring-construction expression language.

Text like ``U(2,Z(3))`` or ``dorroh(Z(2),sub[1])`` parses to the
RingExpr nodes in expr.py, by the argument kinds in expr.CONSTRUCTORS;
serialize() over there is the inverse.  Element literals (integers,
#raw indices, bracketed matrices, tuples, coset ``x+I`` forms) share
one grammar so ring labels parse back as elements.
"""
from __future__ import annotations

import re
from typing import List, NamedTuple

from .expr import (CONSTRUCTORS, BracketList, CosetLit, IntLit, RawIndex,
                   RingExpr, TupleLit)

__all__ = ["ParseError", "parse", "parse_element"]


class ParseError(ValueError):
    """Syntax error with 1-based line:col position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__("%d:%d: %s" % (line, col, message))
        self.line = line
        self.col = col


class _Tok(NamedTuple):
    kind: str          # 'int' | 'ident' | a punctuation character | 'eof'
    text: str
    line: int
    col: int


# one alternative per token kind, tried in this order; a character
# that starts none of the first four is refused
_TOKEN = re.compile(r"(?P<blank>[ \t\r\n]+)|(?P<int>-?\d+)"
                    r"|(?P<ident>[^\W\d]\w*)|(?P<punct>[()\[\],#+])|(?P<bad>.)")


def _tokenize(text: str) -> List[_Tok]:
    toks = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, tok = m.lastgroup, m.group()
        col = m.start() - line_start + 1
        if kind == "blank":
            if "\n" in tok:
                line += tok.count("\n")
                line_start = m.start() + tok.rindex("\n") + 1
        elif kind == "bad":
            raise ParseError("'-' must start an integer" if tok == "-"
                             else "unexpected character %r" % tok, line, col)
        else:
            toks.append(_Tok(tok if kind == "punct" else kind, tok, line, col))
    toks.append(_Tok("eof", "", line, len(text) - line_start + 1))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    def expect(self, kind: str) -> _Tok:
        t = self.peek()
        if t.kind != kind:
            self.fail("expected %r, found %r" % (kind, t.text or "end of input"))
        return self.next()

    def expect_int(self) -> int:
        return int(self.expect("int").text)

    # ---- elements ----

    def element(self):
        t = self.peek()
        if t.kind == "int":
            node = IntLit(int(self.next().text))
        elif t.kind == "#":
            self.next()
            node = RawIndex(self.expect_int())
        elif t.kind == "[":
            node = self.bracket_list()
        elif t.kind == "(":
            node = self.tuple_lit()
        else:
            self.fail("expected an element literal, found %r"
                      % (t.text or "end of input"))
        # coset suffix: x+I
        if self.peek().kind == "+":
            plus = self.next()
            name = self.peek()
            if name.kind != "ident" or name.text != "I":
                raise ParseError("expected 'I' after '+'", plus.line, plus.col + 1)
            self.next()
            node = CosetLit(node)
        return node

    def bracket_list(self) -> BracketList:
        self.expect("[")
        items = []
        if self.peek().kind != "]":
            items.append(self.element())
            while self.peek().kind == ",":
                self.next()
                items.append(self.element())
        self.expect("]")
        return BracketList(tuple(items))

    def tuple_lit(self) -> TupleLit:
        self.expect("(")
        items = [self.element()]
        while self.peek().kind == ",":
            self.next()
            items.append(self.element())
        self.expect(")")
        return TupleLit(tuple(items))

    # ---- ring expressions ----

    def ring(self) -> RingExpr:
        t = self.peek()
        if t.kind != "ident":
            self.fail("expected a ring constructor, found %r"
                      % (t.text or "end of input"))
        kinds = CONSTRUCTORS.get(t.text)
        if kinds is None:
            self.fail("unknown constructor %r" % t.text)
        self.next()
        self.expect("(")
        values = []
        for i, kind in enumerate(kinds):
            if kind in _AT_LEAST:
                # each item follows a comma, except a leading first one
                items = [self.arg(kind)] if i == 0 else []
                while self.peek().kind == ",":
                    self.next()
                    items.append(self.arg(kind))
                values.append(tuple(items))
            else:
                if i:
                    self.expect(",")
                values.append(self.arg(kind))
        self.expect(")")
        for kind, value in zip(kinds, values):
            if kind in _AT_LEAST and len(value) < _AT_LEAST[kind][0]:
                self.fail("%s needs at least %s" % (t.text, _AT_LEAST[kind][1]))
        return RingExpr(t.text, values)

    def arg(self, kind: str):
        if kind == "int":
            return self.expect_int()
        if kind in ("ring", "rings"):
            return self.ring()
        if kind in ("elem", "elems"):
            return self.element()
        if kind == "list":
            return self.bracket_list()
        # tagged bracket lists 'sub[...]' and 'hom[...]'
        t = self.expect("ident")
        if t.text != kind:
            raise ParseError("expected '%s[...]'" % kind, t.line, t.col)
        return self.bracket_list().items


# variadic argument kinds: the least item count and how to say it
_AT_LEAST = {"rings": (2, "two factors"), "elems": (1, "one ideal generator")}


def parse(text: str):
    """Parse a ring expression; raises ParseError on bad syntax."""
    p = _Parser(text)
    node = p.ring()
    if p.peek().kind != "eof":
        p.fail("trailing input after expression")
    return node


def parse_element(text: str):
    """Parse a standalone element literal (label text round-trips here)."""
    p = _Parser(text)
    node = p.element()
    if p.peek().kind != "eof":
        p.fail("trailing input after element")
    return node
