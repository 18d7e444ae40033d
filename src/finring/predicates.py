"""Zero-pattern properties of finite rings, absolute and relative to a
distinguished idempotent.

Verdicts carry the lexicographically least violating tuple so failures
replay deterministically.  The reversible, semicommutative and
symmetric families (_Family) share one shape: a premise on a tuple
implies value = 0, value*e = 0 or e*value = 0.  Each question, the
global one or one side at one nonzero idempotent, asks for the least
code over the values its mask marks bad.  Each family keeps one
resumable scan per ring (_Scan, memoized by core._memo): the per-value
minima of the rows read so far.  Codes grow with the row, so a question
is answered as soon as its mask meets a value found, and the scan reads
row blocks that double from 2^14 cells only until then.  A question that
holds reads every row; later questions, in any order and from any later
check or survey of the same ring, resume where the last one stopped.

A pair property reads at most n^2 cells, and every n^2-cell mask or
gather here is made in row blocks of at most core._CHUNK_CELLS cells
(core._row_blocks), so a sweep holds its blocks and its results beside
the tables, never an n x n array.  The a*R*b = 0 pairs (_rel) are int32
and their codes a*n+b int64.  domain and von_neumann_regular read rows
in growing blocks, and they and directly_finite stop at the first block
holding a witness.  The only n^2 temporaries left are in construct's
table builds, and each is a table itself (see core._CHUNK_CELLS).

The triple families are decided on additive generators.  On a ring
that passes core._biadditive ((R,+) abelian, + associative and both
distributive laws proven along the coset tree; the product need not be
associative) both sides of each conclusion are additive in the
quantified variable, and s(v) = v, v*e or e*v is additive in v:

- symmetric, (a*b)*c = 0 implies s((a*c)*b) = 0: for a fixed pair
  (a, b), c ranges over r.ann(a*b), an additive subgroup, and c ->
  s((a*c)*b) is additive, so some c refutes exactly when some
  generator of r.ann(a*b) does;
- semicommutative, a*b = 0 implies s((a*r)*b) = 0: r ranges over R,
  so the additive generators G of R decide it, and a*R*b = 0 exactly
  when (a*g)*b = 0 for every g in G (the pairs reflexive,
  right_idempotent_reflexive and prime read).

So a scan prices each row of pairs in O(n d) cells, d the size of a
generating set, and the least refuting pair is the least pair minimum
over bad values; one O(n) scan then finds its least c or r.  Any
other table gets the triple properties skipped (core._UNPROVEN_SKIP):
generators decide nothing there, and no cubic sweep stands in.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import (_UNPROVEN_SKIP, DEFAULT_GUARDS, Guards, RingError,
                   RingTable, _additive_generators, _biadditive, _guard_skip,
                   _memo, _row_blocks, _subgroup_generators)
from .construct import resolve_element

__all__ = [
    "PropertyVerdict", "GLOBAL_PROPS", "E_PROPS", "ALL_PROPS",
    "property_name", "distinguished_idempotent", "check_property", "survey",
    "replay_witness",
    "idempotents", "nilpotents", "nilpotency_index", "center",
    "right_annihilator",
    "left_annihilator", "is_left_semicentral", "is_right_semicentral",
    "minimal_left_idempotents", "is_left_min_abel", "unit_inverse",
]

_SENTINEL = np.int64(1) << 62


@dataclass
class PropertyVerdict:
    property: str
    ring: str
    idempotent: Optional[str]
    status: str                        # holds | fails | skipped
    witness: Optional[tuple] = None    # element indices
    witness_labels: Optional[tuple] = None
    detail: Optional[str] = None
    reason: Optional[str] = None
    elapsed: float = 0.0

    def to_dict(self):
        return {
            "property": self.property,
            "ring": self.ring,
            "idempotent": self.idempotent,
            "status": self.status,
            "witness": list(self.witness) if self.witness is not None else None,
            "witness_labels": (list(self.witness_labels)
                               if self.witness_labels is not None else None),
            "detail": self.detail,
            "reason": self.reason,
        }


# ---------------------------------------------------------------------------
# cached element sets


@_memo
def idempotents(R: RingTable) -> np.ndarray:
    """Sorted indices of all idempotent elements."""
    ar = np.arange(R.order)
    return np.flatnonzero(R.mul[ar, ar] == ar)


@_memo
def _nil_index(R: RingTable) -> np.ndarray:
    """Per element a, the least k with a^k = 0 over the right powers
    a^(k+1) = a^k * a, k <= ceil(log2 n)+1, and 0 if there is none.  In
    a ring the chain R > aR > a^2R > ... at least halves at every step,
    so a nilpotency index never exceeds log2 n."""
    ar = np.arange(R.order)
    c = np.zeros(R.order, dtype=np.int64)
    x = ar
    for k in range(1, int(np.ceil(np.log2(R.order))) + 2):
        c[(x == R.zero) & (c == 0)] = k
        x = R.mul[x, ar]
    return c


def nilpotents(R: RingTable) -> np.ndarray:
    """Sorted indices of all nilpotent elements (zero included)."""
    return np.flatnonzero(_nil_index(R))


def nilpotency_index(R: RingTable, a: int) -> Optional[int]:
    """Least k with a^k = 0, or None if a is not nilpotent."""
    return int(_nil_index(R)[a]) or None


@_memo
def center(R: RingTable) -> np.ndarray:
    """The elements that commute with every element.  A row block reads
    only the columns from its first row on: a mismatch a*b != b*a marks
    both a and b, and the block of min(a, b) reads it."""
    bad = np.zeros(R.order, dtype=bool)
    for rows in _row_blocks(R.order):
        r0 = rows.start
        neq = R.mul[rows, r0:] != R.mul[r0:, rows].T
        bad[rows] |= neq.any(axis=1)
        bad[r0:] |= neq.any(axis=0)
    return np.flatnonzero(~bad)


def right_annihilator(R: RingTable, xs) -> np.ndarray:
    """Indices y with x*y = 0 for every x in xs."""
    mask = np.ones(R.order, dtype=bool)
    for x in np.atleast_1d(np.asarray(xs, dtype=np.int64)):
        mask &= R.mul[int(x)] == R.zero
    return np.flatnonzero(mask)


def left_annihilator(R: RingTable, xs) -> np.ndarray:
    mask = np.ones(R.order, dtype=bool)
    for x in np.atleast_1d(np.asarray(xs, dtype=np.int64)):
        mask &= R.mul[:, int(x)] == R.zero
    return np.flatnonzero(mask)


def is_left_semicentral(R: RingTable, e) -> bool:
    """x*e = e*x*e for all x."""
    e = resolve_element(R, e)
    col = R.mul[:, e]
    return bool(np.array_equal(R.mul[e, col], col))


def is_right_semicentral(R: RingTable, e) -> bool:
    """e*x = e*x*e for all x."""
    e = resolve_element(R, e)
    row = R.mul[e, :]
    return bool(np.array_equal(R.mul[row, e], row))


@_memo
def minimal_left_idempotents(R: RingTable) -> np.ndarray:
    """Nonzero idempotents f whose left ideal R*f is minimal."""
    out = []
    for f in idempotents(R):
        if f == R.zero:
            continue
        Rf = np.unique(R.mul[:, f])
        if all(np.array_equal(np.unique(R.mul[:, x]), Rf)
               for x in Rf if x != R.zero):
            out.append(int(f))
    return np.asarray(out, dtype=np.int64)


def is_left_min_abel(R: RingTable) -> bool:
    """Every minimal left idempotent is left semicentral."""
    return all(is_left_semicentral(R, int(f))
               for f in minimal_left_idempotents(R))


def unit_inverse(R: RingTable, x) -> Optional[int]:
    """Two-sided inverse of x, or None."""
    x = resolve_element(R, x)
    for h in np.flatnonzero(R.mul[x] == R.one):
        if R.mul[h, x] == R.one:
            return int(h)
    return None


# ---------------------------------------------------------------------------
# sweep caches: per-value minima over violating-candidate tuples, read
# row block by row block


def _cells(n: int, mask, grow: bool = False):
    """Per row block (core._row_blocks, growing with grow), the rows and
    the codes a*n+b of the cells (a, b) that mask(rows) marks in them,
    in lex order."""
    for rows in _row_blocks(n, grow=grow):
        yield rows, np.flatnonzero(mask(rows)) + rows.start * n


def _pairs(n: int, mask) -> np.ndarray:
    """The cells (a, b) that mask marks (see _cells) in lex order, as
    int32 rows, which hold any index.  A code built back from them must
    be int64 (_codes): a*n+b passes int32 from order 46341 on."""
    codes = np.concatenate([codes for _, codes in _cells(n, mask)])
    out = np.empty((len(codes), 2), dtype=np.int32)
    np.divmod(codes, n, out=(out[:, 0], out[:, 1]))
    return out


def _codes(pairs: np.ndarray, n: int) -> np.ndarray:
    """The int64 codes a*n+b of the (a, b) rows of pairs."""
    return pairs[:, 0] * np.int64(n) + pairs[:, 1]


def _zero_cells(mul: np.ndarray, zero: int):
    """The zero pairs (a, b), a*b = 0, as _cells in growing row blocks."""
    return _cells(len(mul), lambda rows: mul[rows] == zero, grow=True)


class _Scan:
    """One family's resumable row scan of one ring.

    m[v] is the least code a*n+b over the tuples of rows 0..rows-1 that
    meet the premise with value v.  folds(m, *tables) is a generator:
    each step reads the next row block into m and yields the rows read.
    Codes grow with the row a, so a minimum found is final: once a
    question's bad values meet one, the least of them is its answer, and
    no later row can change it.  So the scan reads only the rows before
    each answer's witness, in any order of asking, and every row only
    for a question that holds.  folds gets the ring's tables and never
    the ring, so a ring's memo holds no reference cycle back to it, and
    a dropped ring is freed at once."""

    def __init__(self, n: int, folds=None, *tables):
        self.m = np.full(n, _SENTINEL, dtype=np.int64)
        self.rows = 0
        self._folds = folds(self.m, *tables) if folds else iter(())

    def least(self, bad: np.ndarray) -> Optional[int]:
        """The least code whose value v has bad[v], or None: reads row
        blocks until a bad value is found or the rows run out."""
        hit = (self.m < _SENTINEL) & bad
        while not hit.any():
            rows = next(self._folds, None)
            if rows is None:
                return None
            self.rows = rows
            hit = (self.m < _SENTINEL) & bad
        return int(self.m[hit].min())


def _rev_folds(m, mul, zero):
    """m[v] = least code a*n+b over zero pairs (a,b) with b*a = v."""
    for rows, codes in _zero_cells(mul, zero):
        a, b = np.divmod(codes, len(mul))
        np.minimum.at(m, mul[b, a], codes)
        yield rows.stop


@_memo
def _rev_scan(R: RingTable) -> _Scan:
    return _Scan(R.order, _rev_folds, R.mul, R.zero)


def _ann_generators(R: RingTable) -> tuple:
    """(gens, width, cls): row k of gens holds, in its first width[k]
    slots, a generating set of the k-th distinct right annihilator, and
    r.ann(x) = {c : x*c = 0} is annihilator cls[x].  Equal annihilators
    share one greedy set; the slots past a set's width hold zero."""
    rows = {}       # packed annihilator -> index of its greedy set
    cls = np.array([rows.setdefault(row.tobytes(), len(rows))
                    for block in _row_blocks(R.order)
                    for row in np.packbits(R.mul[block] == R.zero, axis=1)],
                   dtype=R.mul.dtype)
    sets = [_subgroup_generators(R, np.unpackbits(
                np.frombuffer(row, dtype=np.uint8), count=R.order)).gens
            for row in rows]
    width = np.array([len(g) for g in sets])
    gens = np.full((len(sets), width.max()), R.zero, dtype=R.mul.dtype)
    for k, g in enumerate(sets):
        gens[k, :len(g)] = g
    return gens, width, cls


def _symm_folds(m, mul, gens, width, cls):
    """m[v] = least code a*n+b over pairs (a, b) and generators g of
    r.ann(a*b) with (a*g)*b = v (see _ann_generators).  Each block's
    pairs are sorted by their generator count, most first, so slot j
    reads only the prefix of pairs whose annihilator has more than j
    generators."""
    n = len(mul)
    flat = mul.ravel()
    d = gens.shape[1]
    # a stable sort of uint8 keys is a radix sort
    fewer = (d - width).astype(np.uint8)
    # a sorted pair holds about 40 bytes (its code, a, b, class and the
    # gathers), so a block is at most 1/32 of _CHUNK_CELLS pairs
    for rows in _row_blocks(n, 32 * n, grow=True):
        block = mul[rows]
        key = fewer[cls[block]].ravel()
        codes = np.argsort(key, kind="stable")
        live = np.searchsorted(key[codes], d - np.arange(d))
        k = cls[block.ravel()[codes]]
        b = (codes % n).astype(mul.dtype)
        codes += rows.start * n
        a = (codes // n).astype(mul.dtype)
        for j, c in enumerate(live):
            # (a*g)*b by two flat takes through one intp index, each
            # faster than a two-index gather (see core._sums)
            idx = np.multiply(a[:c], n, dtype=np.intp)
            idx += gens[k[:c], j]
            np.multiply(flat.take(idx), n, out=idx, dtype=np.intp)
            idx += b[:c]
            np.minimum.at(m, flat.take(idx), codes[:c])
        yield rows.stop


@_memo
def _symm_scan(R: RingTable) -> _Scan:
    return _Scan(R.order, _symm_folds, R.mul, *_ann_generators(R))


def _scomm_folds(m, mul, zero, gens):
    """m[v] = least code a*n+b over zero pairs (a, b) and additive
    generators g of R with (a*g)*b = v."""
    for rows, codes in _zero_cells(mul, zero):
        a, b = np.divmod(codes, len(mul))
        for g in gens:
            np.minimum.at(m, mul[mul[a, g], b], codes)
        yield rows.stop


@_memo
def _scomm_scan(R: RingTable) -> _Scan:
    return _Scan(R.order, _scomm_folds, R.mul, R.zero,
                 _additive_generators(R).gens)


@_memo
def _rel(R: RingTable) -> np.ndarray:
    """The pairs (a, b) with a*R*b = 0, in lex order: on a _biadditive
    table, those with (a*g)*b = 0 for every additive generator g of R."""
    # (a*1)*b = 0 is necessary, so rel is drawn from those pairs
    rel = _pairs(R.order, lambda rows: R.mul[R.mul[rows, R.one]] == R.zero)
    for g in _additive_generators(R).gens:
        rel = rel[R.mul[R.mul[rel[:, 0], g], rel[:, 1]] == R.zero]
    return rel


def _nil_scan(R: RingTable) -> _Scan:
    """m[x] = x over the nilpotents x, each its own least witness: the
    whole scan at once."""
    scan = _Scan(R.order)
    nil = nilpotents(R)
    scan.m[nil] = nil
    scan.rows = R.order
    return scan


def _prod(R: RingTable, *xs):
    """Left-to-right product of element indices, elementwise over
    arrays."""
    acc = xs[0]
    for x in xs[1:]:
        acc = R.mul[acc, x]
    return acc


def _annihilates(R: RingTable, a, b) -> bool:
    """a*R*b = 0."""
    return bool((R.mul[R.mul[a, :], b] == R.zero).all())


# ---------------------------------------------------------------------------
# the property table: name -> guard kind, checker and witness replay


class _Prop(NamedTuple):
    kind: str           # pair | triple: the sweep guard that applies
    check: Callable     # (R, e) -> (witness, detail), or (None, None)
    replay: Callable    # (R, e, *witness) -> True on a genuine violation
    relative: bool = False      # decided relative to a nonzero idempotent


class _Family(NamedTuple):
    """Conditions of the shape "premise on a tuple w implies value = 0",
    the value being a product of entries of w.  The family's scan (a
    _Scan, one per ring) holds, for each value found in the rows read so
    far, the least code of a tuple meeting the premise, and resumes
    where the last question left it.

    A triple family's scan prices pairs instead: per value, the least
    code a*n+b of a pair whose generator (see the module docstring)
    meets the premise with that value, and one scan of w[2] finishes
    the witness.  It is sound only on a _biadditive table."""
    kind: str
    scan: Callable      # R -> the family's scan of R
    premise: Optional[tuple]    # entries of w with product 0, or None
                                # for "w[0] is nilpotent"
    value: tuple        # entries of w whose product is the value

    def premise_holds(self, R, w):
        if self.premise is None:
            return nilpotency_index(R, w[0]) is not None
        return _prod(R, *(w[i] for i in self.premise)) == R.zero

    def value_at(self, R, w):
        return _prod(R, *(w[i] for i in self.value))

    def least(self, R, bad: np.ndarray) -> Optional[tuple]:
        """The least tuple meeting the premise whose value v has
        bad[v], or None."""
        n = R.order
        code = self.scan(R).least(bad)
        if code is None:
            return None
        if self.kind == "triple":
            # the least refuting pair, then its least third entry
            w = divmod(code, n) + (np.arange(n),)
            hit = self.premise_holds(R, w) & bad[self.value_at(R, w)]
            return w[:2] + (int(np.argmax(hit)),)
        arity = max(self.value) + 1
        return tuple(int(i) for i in np.unravel_index(code, (n,) * arity))


# the scans are looked up when called, so tests can stand in for them
_REV = _Family("pair", lambda R: _rev_scan(R), (0, 1), (1, 0))
_SCOMM = _Family("triple", lambda R: _scomm_scan(R), (0, 1), (0, 2, 1))
_SYMM = _Family("triple", lambda R: _symm_scan(R), (0, 1, 2), (0, 2, 1))
_NIL = _Family("pair", _nil_scan, None, (0,))


def _sided(R: RingTable, side: str, e) -> np.ndarray:
    """s[v] for each value v: v itself, v*e on the right, e*v on the left."""
    if side == "right":
        return np.asarray(R.mul[:, e])
    if side == "left":
        return np.asarray(R.mul[e, :])
    return np.arange(R.order)


def _family_prop(fam: _Family, side: str = "") -> _Prop:
    """Value != 0 (side ""), value*e != 0 (right) or e*value != 0 (left)
    refutes the condition."""
    frame = {"": "%s", "right": "%s*e", "left": "e*%s"}[side]

    def check(R, e):
        sided = _sided(R, side, e)
        w = fam.least(R, sided != R.zero)
        if w is None:
            return None, None
        lab = [R.labels[i] for i in w]
        if fam.premise is None:
            premise = "%s^%d = 0" % (lab[0], nilpotency_index(R, w[0]))
        else:
            premise = "*".join(lab[i] for i in fam.premise) + " = 0"
        if not side and len(fam.value) == 1:
            return w, premise       # the value is the witness itself
        value = "*".join(lab[i] for i in fam.value)
        if side and len(fam.value) > 1:
            value = "(%s)" % value
        shown = sided[fam.value_at(R, w)]
        return w, "%s but %s = %s" % (premise, frame % value,
                                      R.labels[shown])

    def replay(R, e, *w):
        return (fam.premise_holds(R, w)
                and _sided(R, side, e)[fam.value_at(R, w)] != R.zero)

    return _Prop(fam.kind, check, replay, bool(side))


def _first_unreflected(R, pairs):
    """First (a, b) of pairs (all with a*R*b = 0) whose reverse b*R*a is
    not 0, with the least r making b*r*a nonzero; None if there is none."""
    if len(pairs) == 0:
        return None
    codes = _codes(_rel(R), R.order)
    back = _codes(pairs[:, ::-1], R.order)
    pos = np.searchsorted(codes, back)
    pos[pos >= len(codes)] = len(codes) - 1
    bad = np.flatnonzero(codes[pos] != back)
    if len(bad) == 0:
        return None
    a, b = (int(v) for v in pairs[bad[0]])
    return a, b, int(np.flatnonzero(R.mul[R.mul[b, :], a] != R.zero)[0])


def _chk_reflexive(R, e):
    w = _first_unreflected(R, _rel(R))
    if w is None:
        return None, None
    a, b, r = w
    return w, ("%s*R*%s = 0 but %s*%s*%s = %s"
               % (R.labels[a], R.labels[b], R.labels[b], R.labels[r],
                  R.labels[a], R.labels[_prod(R, b, r, a)]))


def _chk_right_idempotent_reflexive(R, e):
    rel = _rel(R)
    idem = np.zeros(R.order, dtype=bool)
    idem[idempotents(R)] = True
    w = _first_unreflected(R, rel[idem[rel[:, 1]]])
    if w is None:
        return None, None
    h, f, r = w
    return w, ("%s*R*%s = 0 with %s idempotent, but %s*%s*%s = %s"
               % (R.labels[h], R.labels[f], R.labels[f], R.labels[f],
                  R.labels[r], R.labels[h], R.labels[_prod(R, f, r, h)]))


def _chk_prime(R, e):
    rel = _rel(R)
    live = rel[(rel[:, 0] != R.zero) & (rel[:, 1] != R.zero)]
    if len(live) == 0:
        return None, None
    a, b = (int(v) for v in live[0])
    return (a, b), ("%s*R*%s = 0 with both factors nonzero"
                    % (R.labels[a], R.labels[b]))


def _chk_semiprime(R, e):
    ar = np.arange(R.order)
    # a*R*a = 0 forces (a*1)*a = 0, which is a*a = 0 when 1 is an identity
    for a in np.flatnonzero(R.mul[R.mul[ar, R.one], ar] == R.zero):
        a = int(a)
        if a != R.zero and _annihilates(R, a, a):
            return (a,), "%s*R*%s = 0 but %s is nonzero" % (
                R.labels[a], R.labels[a], R.labels[a])
    return None, None


def _chk_domain(R, e):
    # the zero pairs block by block, in lex order
    for _, codes in _zero_cells(R.mul, R.zero):
        A, B = np.divmod(codes, R.order)
        live = np.flatnonzero((A != R.zero) & (B != R.zero))
        if len(live):
            a, b = int(A[live[0]]), int(B[live[0]])
            return (a, b), "%s*%s = 0 with both factors nonzero" % (
                R.labels[a], R.labels[b])
    return None, None


def _chk_abelian(R, e):
    for f in idempotents(R):
        f = int(f)
        diff = np.flatnonzero(R.mul[f, :] != R.mul[:, f])
        if len(diff):
            r = int(diff[0])
            return (f, r), ("idempotent %s is not central: %s*%s = %s, "
                            "%s*%s = %s"
                            % (R.labels[f], R.labels[f], R.labels[r],
                               R.labels[int(R.mul[f, r])], R.labels[r],
                               R.labels[f], R.labels[int(R.mul[r, f])]))
    return None, None


def _chk_directly_finite(R, e):
    # the pairs with a*b = 1 block by block, in lex order
    for _, codes in _cells(R.order, lambda rows: R.mul[rows] == R.one):
        A, B = np.divmod(codes, R.order)
        bad = np.flatnonzero(R.mul[B, A] != R.one)
        if len(bad):
            a, b = int(A[bad[0]]), int(B[bad[0]])
            return (a, b), ("%s*%s = 1 but %s*%s = %s"
                            % (R.labels[a], R.labels[b], R.labels[b],
                               R.labels[a], R.labels[int(R.mul[b, a])]))
    return None, None


def _chk_von_neumann_regular(R, e):
    # (a*x)*a in growing row blocks: a witness near the front costs few
    # cells
    for rows in _row_blocks(R.order, grow=True):
        a = np.arange(rows.start, rows.stop)[:, None]
        regular = (R.mul[R.mul[rows], a] == a).any(axis=1)
        if not regular.all():
            a = rows.start + int(np.argmin(regular))    # the first False
            return (a,), "no x satisfies %s*x*%s = %s" % (
                R.labels[a], R.labels[a], R.labels[a])
    return None, None


_PROPS = {
    "reduced": _family_prop(_NIL),
    "reversible": _family_prop(_REV),
    "symmetric": _family_prop(_SYMM),
    "semicommutative": _family_prop(_SCOMM),
    "reflexive": _Prop(
        "triple", _chk_reflexive,
        lambda R, e, a, b, r: (_annihilates(R, a, b)
                               and _prod(R, b, r, a) != R.zero)),
    "right_idempotent_reflexive": _Prop(
        "triple", _chk_right_idempotent_reflexive,
        lambda R, e, h, f, r: (_prod(R, f, f) == f and _annihilates(R, h, f)
                               and _prod(R, f, r, h) != R.zero)),
    "abelian": _Prop(
        "pair", _chk_abelian,
        lambda R, e, f, r: (_prod(R, f, f) == f
                            and _prod(R, f, r) != _prod(R, r, f))),
    "semiprime": _Prop(
        "pair", _chk_semiprime,
        lambda R, e, a: a != R.zero and _annihilates(R, a, a)),
    "prime": _Prop(
        "triple", _chk_prime,
        lambda R, e, a, b: (a != R.zero and b != R.zero
                            and _annihilates(R, a, b))),
    "domain": _Prop(
        "pair", _chk_domain,
        lambda R, e, a, b: (a != R.zero and b != R.zero
                            and _prod(R, a, b) == R.zero)),
    "directly_finite": _Prop(
        "pair", _chk_directly_finite,
        lambda R, e, a, b: (_prod(R, a, b) == R.one
                            and _prod(R, b, a) != R.one)),
    "von_neumann_regular": _Prop(
        "pair", _chk_von_neumann_regular,
        lambda R, e, a: not (R.mul[R.mul[a, :], a] == a).any()),
    "right_e_reversible": _family_prop(_REV, "right"),
    "left_e_reversible": _family_prop(_REV, "left"),
    "right_e_reduced": _family_prop(_NIL, "right"),
    "left_e_reduced": _family_prop(_NIL, "left"),
    "e_symmetric": _family_prop(_SYMM, "right"),
    "right_e_semicommutative": _family_prop(_SCOMM, "right"),
    "left_e_semicommutative": _family_prop(_SCOMM, "left"),
}

ALL_PROPS = tuple(_PROPS)
GLOBAL_PROPS = tuple(p for p in ALL_PROPS if not _PROPS[p].relative)
E_PROPS = tuple(p for p in ALL_PROPS if _PROPS[p].relative)


def _canonical(prop: str) -> str:
    name = prop.replace("-", "_")
    if name not in _PROPS:
        raise ValueError("unknown property %r" % name)
    return name


def property_name(prop: str, e=None) -> str:
    """Canonical name of prop (dashes are fine), checked without a ring:
    unknown names raise ValueError, and e must be given exactly when the
    property is relative to an idempotent (RingError otherwise)."""
    name = _canonical(prop)
    if _PROPS[name].relative and e is None:
        raise RingError("property %s is relative to an idempotent" % name)
    if not _PROPS[name].relative and e is not None:
        raise RingError("property %s takes no idempotent" % name)
    return name


def distinguished_idempotent(R: RingTable, e) -> int:
    """Index of e in R, which must be a nonzero idempotent (RingError
    otherwise).  Costs O(1) after resolving e, so callers check it
    before any sweep."""
    eidx = resolve_element(R, e)
    if int(R.mul[eidx, eidx]) != eidx:
        raise RingError("%s is not idempotent in %s"
                        % (R.labels[eidx], R.provenance))
    if eidx == R.zero:
        raise RingError("the distinguished idempotent must be nonzero")
    return eidx


def check_property(R: RingTable, prop: str, e=None,
                   guards: Guards = DEFAULT_GUARDS) -> PropertyVerdict:
    """Exhaustively decide one property, possibly relative to e.

    Oversized rings get a skipped verdict rather than an error; the
    caps distinguish order^2 sweeps from order^3 ones.  A triple
    property also skips a table that _biadditive refuses.
    """
    t0 = time.perf_counter()
    prop = property_name(prop, e)
    spec = _PROPS[prop]
    eidx = None
    elabel = None
    if spec.relative:
        eidx = distinguished_idempotent(R, e)
        elabel = R.labels[eidx]
    skip = _guard_skip(guards, spec.kind, R.order)
    if skip is None and spec.kind == "triple" and not _biadditive(R):
        skip = _UNPROVEN_SKIP
    if skip:
        return PropertyVerdict(prop, R.provenance, elabel, "skipped",
                               reason=skip, elapsed=time.perf_counter() - t0)
    w, detail = spec.check(R, eidx)
    if w is None:
        return PropertyVerdict(prop, R.provenance, elabel, "holds",
                               elapsed=time.perf_counter() - t0)
    return PropertyVerdict(prop, R.provenance, elabel, "fails", tuple(w),
                           tuple(R.labels[i] for i in w), detail,
                           elapsed=time.perf_counter() - t0)


def survey(R: RingTable, guards: Guards = DEFAULT_GUARDS,
           properties=None) -> list:
    """All properties of R: global ones, then each relative property
    at every nonzero idempotent.  Past a guard each verdict is skipped
    on its own, one per idempotent."""
    props = [_canonical(p) for p in properties] if properties else ALL_PROPS
    out = [check_property(R, p, None, guards)
           for p in props if not _PROPS[p].relative]
    wanted_e = [p for p in props if _PROPS[p].relative]
    es = [int(f) for f in idempotents(R) if f != R.zero]
    return out + [check_property(R, p, f, guards)
                  for f in es for p in wanted_e]


def replay_witness(R: RingTable, prop: str, e, witness) -> bool:
    """Recheck a violating tuple directly against the tables.

    True means the tuple really violates the property as stated; no
    sweeps are run, so this works on rings past the guard caps.
    """
    replay = _PROPS[_canonical(prop)].replay
    idx = [resolve_element(R, w) for w in witness]
    eidx = resolve_element(R, e) if e is not None else None
    return bool(replay(R, eidx, *idx))
