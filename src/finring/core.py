"""Dense operation-table representation of finite unital rings.

A ring of order n is two n-by-n index tables (add, mul) over element
indices 0..n-1, a negation vector, and distinguished zero/one indices.
Elements are just indices; equality is index equality.  Tables are
immutable once built, so whatever is derived from a ring is computed
once, by _memo.  verify_axioms proves the axioms on a greedy generating
set G of (R,+) (_subgroup_generators); G and zero generate R as a
magma, which is all Light's associativity test needs.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "Guards", "DEFAULT_GUARDS", "RingError", "SizeGuardError", "RingTable",
    "AxiomReport", "build_ring", "verify_axioms",
]

# cells per block of every n^2-cell mask or gather (_row_blocks), which
# bounds each stage's scratch memory over its tables.  Two n^2
# temporaries remain, both in construct and both a table itself:
# _broadcast's output, and _fill_rows's last gather, which a blocked fill
# would not shrink (it would hold one block more beside the table)
_CHUNK_CELLS = 1 << 22


class RingError(ValueError):
    """A table or construction input is malformed."""


class SizeGuardError(RuntimeError):
    """The requested exhaustive sweep exceeds the configured size guard."""


@dataclass(frozen=True)
class Guards:
    """Size caps for exhaustive sweeps, overridable per call or via CLI.

    pair_cap bounds order for order^2-cost sweeps, triple_cap for
    order^3-cost sweeps, build_cap bounds the order of any table a
    constructor is willing to materialize.  The triple properties cost
    O(n^2 d) cells on d additive generators, and triple_cap still
    applies to them; a table that _biadditive refuses gets them skipped.
    """
    pair_cap: int = 4096
    triple_cap: int = 1024
    build_cap: int = 10000


DEFAULT_GUARDS = Guards()


def _guard_skip(guards: Guards, kind: str, order: int) -> Optional[str]:
    """Why a "pair" or "triple" sweep skips a ring of this order, or
    None when the order is within that sweep's guard."""
    cap = guards.pair_cap if kind == "pair" else guards.triple_cap
    if order > cap:
        return "order %d exceeds the %s sweep guard %d" % (order, kind, cap)
    return None


def _axiom_skip(guards: Guards, order: int) -> Optional[str]:
    """Why verify_axioms skips a ring of this order, or None when the
    order is within the triple guard."""
    if order > guards.triple_cap:
        return ("order %d too large for exhaustive triple check (guard %d)"
                % (order, guards.triple_cap))
    return None


# why a "triple" property skips a table within its guard that fails
# _biadditive: only there do additive generators decide it
_UNPROVEN_SKIP = ("table not proven biadditive, so the triple properties "
                  "are not decided on additive generators")


@dataclass(eq=False)
class RingTable:
    order: int
    add: np.ndarray
    mul: np.ndarray
    neg: np.ndarray
    zero: int
    one: int
    labels: tuple
    provenance: str
    layout: object = None            # construction-aware label codec
    _cache: dict = field(default_factory=dict, repr=False)

    def __repr__(self):
        return "RingTable(order=%d, provenance=%r)" % (self.order, self.provenance)


@dataclass
class AxiomReport:
    passed: bool
    order: int
    # (axiom name, witness index tuple): the lexicographically least
    # witness per failing axiom, from the exhaustive scan
    violations: list


def _row_blocks(rows: int, width: int = None, grow: bool = False):
    """Slices covering rows 0..rows-1 in order, each at most
    _CHUNK_CELLS cells of width (default rows) columns and at least one
    row.  With grow the blocks hold 1, 2, 4, ... rows up to that cap, so
    a scan that stops at an early witness reads few cells."""
    cap = max(1, _CHUNK_CELLS // (width or rows))
    r0, step = 0, 1 if grow else cap
    while r0 < rows:
        yield slice(r0, min(rows, r0 + step))
        r0 += step
        step = min(2 * step, cap)


def table_dtype(order: int):
    return np.int16 if order <= np.iinfo(np.int16).max else np.int32


def _negation(add: np.ndarray, zero: int, dtype) -> np.ndarray:
    """neg[a] = the one b with a+b = zero, row block by row block;
    RingError when some row has no such b or more than one."""
    neg = np.empty(len(add), dtype=dtype)
    for rows in _row_blocks(len(add)):
        is_zero = add[rows] == zero
        if not (is_zero.sum(axis=1) == 1).all():
            raise RingError("add not a group: some row lacks a unique "
                            "inverse")
        neg[rows] = is_zero.argmax(axis=1)
    return neg


def build_ring(add, mul, zero: int, one: int, labels: Sequence[str],
               provenance: str = "?", layout=None) -> RingTable:
    """Assemble and sanity-check a ring from raw tables.

    Validates shapes, index ranges, that `add` has the stated identity
    and a unique additive inverse per row (neg is derived from that),
    and that labels are distinct.  Associativity and distributivity are
    deliberately left to verify_axioms.
    """
    add = np.asarray(add)
    mul = np.asarray(mul)
    if add.ndim != 2 or add.shape[0] != add.shape[1]:
        raise RingError("add table must be square, got shape %s" % (add.shape,))
    if mul.shape != add.shape:
        raise RingError("dimension mismatch: add %s vs mul %s" % (add.shape, mul.shape))
    n = add.shape[0]
    if n < 2:
        raise RingError("rings of order < 2 are rejected (one = zero)")
    for name, t in (("add", add), ("mul", mul)):
        if t.min() < 0 or t.max() >= n:
            raise RingError("%s table has an index out of range" % name)
    if not (0 <= zero < n and 0 <= one < n):
        raise RingError("zero/one index out of range")
    if zero == one:
        raise RingError("rings of order < 2 are rejected (one = zero)")
    ar = np.arange(n)
    if not (np.array_equal(add[zero], ar) and np.array_equal(add[:, zero], ar)):
        raise RingError("add not a group: stated zero is not an identity")
    dt = table_dtype(n)
    neg = _negation(add, zero, dt)
    labels = tuple(str(s) for s in labels)
    if len(labels) != n:
        raise RingError("expected %d labels, got %d" % (n, len(labels)))
    if len(set(labels)) != n:
        raise RingError("labels are not distinct")
    return RingTable(order=n, add=np.ascontiguousarray(add, dtype=dt),
                     mul=np.ascontiguousarray(mul, dtype=dt),
                     neg=neg, zero=int(zero), one=int(one),
                     labels=labels, provenance=provenance, layout=layout)


def _first_triple_witness(fn, n: int):
    # fn(rows, cols) -> (lhs, rhs) of shape (len(rows), len(cols), n),
    # both sides at (a, b, c) for a in rows and b in cols; scan in
    # lexicographic (a, b, c) order and stop at the first mismatch.  A
    # block takes whole rows of a while they fit and splits b only within
    # a single row, so the blocks keep that order.  It holds both sides,
    # the mask and an index copy, so each side is half of _CHUNK_CELLS
    for rows in _row_blocks(n, 2 * n * n):
        for cols in _row_blocks(n, 2 * n * (rows.stop - rows.start)):
            lhs, rhs = fn(rows, cols)
            neq = lhs != rhs
            if neq.any():
                i, b, c = np.unravel_index(int(np.argmax(neq)), neq.shape)
                return (rows.start + int(i), cols.start + int(b), int(c))
    return None


def _triple_scans(R: RingTable):
    """(axiom, fn) for _first_triple_witness, in report order."""
    add, mul = R.add, R.mul

    def assoc(table):
        def fn(rows, cols):
            ab = table[rows, cols]
            return table[ab], table[rows][:, table[cols]]
        return fn

    def ldist(rows, cols):
        ab = mul[rows]
        lhs = ab[:, add[cols]]                          # a*(b+c)
        return lhs, add[ab[:, cols, None], ab[:, None, :]]  # a*b + a*c

    def rdist(rows, cols):
        ba = np.ascontiguousarray(mul[:, rows].T)
        lhs = ba[:, add[cols]]                          # (b+c)*a
        return lhs, add[ba[:, cols, None], ba[:, None, :]]  # b*a + c*a

    return (("add_associative", assoc(add)), ("mul_associative", assoc(mul)),
            ("left_distributive", ldist), ("right_distributive", rdist))


def _memo(fn):
    """fn(R), computed once per ring and kept in R._cache under fn's
    name."""
    key = fn.__name__

    @functools.wraps(fn)
    def memoized(R: RingTable):
        if key not in R._cache:
            R._cache[key] = fn(R)
        return R._cache[key]
    return memoized


def _subgroup_generators(R: RingTable, members=None) -> list:
    """Greedy generating set of the additive subgroup whose members are
    marked (all of R by default): the least member not yet reached
    joins, and the reached subgroup H grows to H + <g> one coset
    H + k*g at a time.  Every index reached is zero or h + g with h
    reached earlier, so on any table build_ring accepts, the set and
    zero generate the members as a magma.
    """
    reached = np.zeros(R.order, dtype=bool)
    reached[R.zero] = True
    gens = []
    if members is None:
        members = np.ones(R.order, dtype=bool)
    for g in np.flatnonzero(members):
        if reached[g]:
            continue
        gens.append(int(g))
        coset = np.flatnonzero(reached)
        while True:
            coset = R.add[coset, g]
            if reached[coset[0]]:       # cosets of H meet only if equal
                break
            reached[coset] = True
    return gens


@_memo
def _additive_generators(R: RingTable) -> list:
    """The greedy generating set of all of (R,+)."""
    return _subgroup_generators(R)


@_memo
def _proven_on_generators(R: RingTable) -> frozenset:
    """Triple axioms that hold on all of R, shown in O(n^2 d) cells.

    G is _additive_generators, d = |G|.  G and zero generate R as a
    magma on any table build_ring accepts (see _subgroup_generators),
    and that is all the steps below need:
    - + is associative iff (x+g)+y == x+(g+y) for g in G (Light's
      associativity test; Clifford & Preston, The Algebraic Theory of
      Semigroups I, 1961): the g that pass, zero among them, are closed
      under +;
    - once + is associative, a map is additive iff phi(x+g) ==
      phi(x)+phi(g) for g in G: the g that pass are closed under +, and
      G generates the finite group (R,+) as a semigroup;
    - once both distributive laws hold, both sides of (ab)c == a(bc)
      are additive in each argument, so G^3 suffices.
    Each step works on one generator and one row block at a time.  An
    axiom left out may still hold: the exhaustive scan decides it.
    """
    add, mul = R.add, R.mul
    gens = _additive_generators(R)

    def holds(lhs, rhs):
        # lhs(rows, g) == rhs(rows, g) for every g in G, in row blocks
        return all(np.array_equal(lhs(rows, g), rhs(rows, g))
                   for g in gens for rows in _row_blocks(R.order))

    proven = set()
    if not holds(lambda rows, g: add[add[rows, g]],           # (x+g)+y
                 lambda rows, g: add[rows][:, add[g]]):       # x+(g+y)
        return frozenset()
    proven.add("add_associative")
    if holds(lambda rows, g: mul[rows][:, add[:, g]],         # x*(y+g)
             lambda rows, g: add[mul[rows], mul[rows, g, None]]):
        proven.add("left_distributive")
    if holds(lambda rows, g: mul[add[rows, g]],               # (x+g)*y
             lambda rows, g: add[mul[rows], mul[g]]):
        proven.add("right_distributive")
    if {"left_distributive", "right_distributive"} <= proven:
        G = np.array(gens)
        gg = mul[np.ix_(G, G)]
        if np.array_equal(mul[gg[:, :, None], G], mul[G[:, None, None], gg]):
            proven.add("mul_associative")
    return frozenset(proven)


@_memo
def _add_noncommuting(R: RingTable) -> Optional[tuple]:
    """The least (a, b) with a+b != b+a, or None.  Its a < b, as (b, a)
    fails too, so a row block reads only the columns from its first row
    on."""
    for rows in _row_blocks(R.order):
        r0 = rows.start
        neq = R.add[rows, r0:] != R.add[r0:, rows].T
        if neq.any():
            a, b = divmod(int(np.argmax(neq)), neq.shape[1])
            return (r0 + a, r0 + b)
    return None


@_memo
def _biadditive(R: RingTable) -> bool:
    """True when (R,+) is an abelian group and R's product distributes
    over + on both sides, so every sum of products of R's elements is
    additive in each of them.  Associativity of the product is not
    needed."""
    return bool(_add_noncommuting(R) is None
                and {"add_associative", "left_distributive",
                     "right_distributive"} <= _proven_on_generators(R))


def _exhaustive_report(R: RingTable, proven=frozenset()) -> AxiomReport:
    # the exhaustive route; axioms in `proven` skip their scan
    n = R.order
    add, mul = R.add, R.mul
    violations = []

    w = _add_noncommuting(R)
    if w is not None:
        violations.append(("add_commutative", w))

    ar = np.arange(n, dtype=add.dtype)
    bad = np.flatnonzero((mul[R.one] != ar) | (mul[:, R.one] != ar))
    if bad.size:
        violations.append(("one_identity", (int(bad[0]),)))

    for name, fn in _triple_scans(R):
        if name not in proven:
            w = _first_triple_witness(fn, n)
            if w is not None:
                violations.append((name, w))
    return AxiomReport(passed=not violations, order=n, violations=violations)


def verify_axioms(R: RingTable, guards: Guards = DEFAULT_GUARDS) -> AxiomReport:
    """Check the ring axioms: additive commutativity and associativity,
    multiplicative associativity, both distributive laws, and the
    two-sided identity.

    A passing ring costs O(n^2 d) cells, d the size of a generating set
    of (R,+) (9 for M(3,Z(2))).  An axiom whose fast check fails, or
    cannot run because an earlier one failed, is scanned exhaustively,
    so each witness is the lexicographically least violating tuple, one
    per axiom.  Raises SizeGuardError when order exceeds the triple
    guard: too large for exhaustive triple check.
    """
    skip = _axiom_skip(guards, R.order)
    if skip:
        raise SizeGuardError(skip)
    return _exhaustive_report(R, _proven_on_generators(R))
