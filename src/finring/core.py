"""Dense operation-table representation of finite unital rings.

A ring of order n is two n-by-n index tables (add, mul) over element
indices 0..n-1, a negation vector, and distinguished zero/one indices.
Elements are just indices; equality is index equality.  Tables are
immutable once built, so whatever is derived from a ring is computed
once, by _memo.  verify_axioms proves the axioms in O(n^2) cells along
the greedy coset tree of (R,+) (_subgroup_generators): each row of add
and of mul is checked once against its tree parent's, and d relations,
one per generator, read a row or column each (_proven_on_tree).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "Guards", "DEFAULT_GUARDS", "RingError", "SizeGuardError", "RingTable",
    "AxiomReport", "build_ring", "verify_axioms", "prove_axioms",
]

# cells per block of every n^2-cell mask or gather (_row_blocks), which
# bounds each stage's scratch memory over its tables.  construct's
# _broadcast and _fill_rows write each table once, with no n^2
# temporary: the fill in place, in row blocks
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
    O(n^2 d) cells on d additive generators and the axiom proof O(n^2),
    and triple_cap still applies to both, as it caps the exhaustive
    scan of an axiom that fails; a table that _biadditive refuses gets
    the triple properties skipped.
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
    row.  With grow the first block holds the rows of 1/256 of
    _CHUNK_CELLS cells of a rows x rows table (2^14 by default, so a
    table of order 128 or less is one block) and each next one twice as
    many, up to that cap: a scan that stops at an early witness reads
    few cells, and a small table is not split into many blocks."""
    cap = max(1, _CHUNK_CELLS // (width or rows))
    step = min(cap, max(1, (_CHUNK_CELLS >> 8) // rows)) if grow else cap
    r0 = 0
    while r0 < rows:
        yield slice(r0, min(rows, r0 + step))
        r0 += step
        step = min(2 * step, cap)


def table_dtype(order: int):
    return np.int16 if order <= np.iinfo(np.int16).max else np.int32


def _negation(add: np.ndarray, zero: int, dtype) -> np.ndarray:
    """neg[a] = the one b with a+b = zero, row block by row block;
    RingError when some row has no such b or more than one.  The zero
    cells of a block of r rows, in row-major order, are one per row
    exactly when there are r of them and the k-th lies in row k."""
    n = len(add)
    neg = np.empty(n, dtype=dtype)
    for rows in _row_blocks(n):
        row, col = np.divmod(np.flatnonzero(add[rows] == zero), n)
        if (len(row) != rows.stop - rows.start
                or (row != np.arange(len(row))).any()):
            raise RingError("add not a group: some row lacks a unique "
                            "inverse")
        neg[rows] = col
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
        # a negative index reads past iinfo.max in the unsigned view, so
        # one max finds it when n <= iinfo.max + 1; else min and max
        if t.dtype.kind == "i" and n <= 1 << 8 * t.itemsize - 1:
            bad = t.view(t.dtype.str.replace("i", "u")).max() >= n
        else:
            bad = t.min() < 0 or t.max() >= n
        if bad:
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


def _sums(R: RingTable, a, b) -> np.ndarray:
    """add[a, b] for index arrays a and b, a broadcasting against b: one
    flat gather, about three times as fast as numpy's two-index gather.
    Its index is intp, 8 bytes a cell."""
    idx = np.multiply(a, R.order, dtype=np.intp)
    idx = np.add(idx, b, out=idx if idx.shape == b.shape else None)
    return R.add.ravel().take(idx)


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


class _CosetTree(NamedTuple):
    """The greedy coset walk of an additive subgroup (_subgroup_generators).

    gens lists the generators g_1, g_2, ... in the order they joined.
    blocks[i] = add[H, chain] is g_i's step: H is the subgroup reached
    before g_i, chain is 0, g_i, 2*g_i, ..., (m_i - 1)*g_i = last[i],
    and column k is the coset H + k*g_i.  On a group, each cell of a
    column past the first is the cell left of it plus g_i, its parent
    in the tree (_tree_arrays), and last[i] + g_i lies in H.
    """
    gens: list
    blocks: list
    last: list


def _subgroup_generators(R: RingTable, members=None) -> _CosetTree:
    """Greedy generating set of the additive subgroup whose members are
    marked (all of R by default), with the blocks of its walk.  The
    least member not yet reached, g, joins; its chain 0, g, 2*g, ...
    runs until it meets a reached index, and the reached subgroup H
    grows to H + <g> by the block add[H, chain], whose column k is the
    coset H + k*g.  Every index reached is zero, a chain element z + g
    with z reached earlier, or h + z with h in H and z on the chain, so
    on any table build_ring accepts, the set and zero generate the
    members as a magma.  The walk takes a few numpy calls per generator
    and one scalar step per chain element, and stops within the order
    on any table.
    """
    add = R.add
    members = (np.ones(R.order, dtype=bool) if members is None
               else np.asarray(members, dtype=bool))
    reached = np.zeros(R.order, dtype=bool)
    reached[R.zero] = True
    tree = _CosetTree([], [], [])
    while True:
        left = np.flatnonzero(members > reached)
        if not left.size:
            return tree
        g = int(left[0])
        H = np.flatnonzero(reached)
        chain, z = [R.zero], g
        while not reached[z]:
            reached[z] = True
            chain.append(z)
            z = int(add[z, g])
        block = add[H[:, None], chain]
        reached[block] = True
        tree.gens.append(g)
        tree.blocks.append(block)
        tree.last.append(chain[-1])


def _tree_arrays(R: RingTable, tree: _CosetTree) -> Optional[tuple]:
    """(parent, via): each index's tree parent and the generator of its
    block, zero at zero, or None when the blocks of the walk of all of
    (R,+) met.  The walk reached every index, each nonzero one in a
    column past the first, so n - 1 such cells hold each nonzero index
    once; more mean that blocks met, as only a table that is not a
    group lets them."""
    kids = np.concatenate([b[:, 1:].ravel() for b in tree.blocks])
    if len(kids) != R.order - 1:
        return None
    parent = np.full(R.order, R.zero, dtype=R.add.dtype)
    via = parent.copy()
    parent[kids] = np.concatenate([b[:, :-1].ravel() for b in tree.blocks])
    via[kids] = np.repeat(tree.gens, [b[:, 1:].size for b in tree.blocks])
    return parent, via


@_memo
def _additive_generators(R: RingTable) -> _CosetTree:
    """The greedy coset tree of all of (R,+)."""
    return _subgroup_generators(R)


@_memo
def _proven_on_tree(R: RingTable) -> frozenset:
    """Axioms that hold on all of R, shown in O(n^2) cells along the
    coset tree of _additive_generators, one row block at a time.

    Write G = (g_1..g_d) for its generators, p(x) and v(x) for the
    parent and generator of x, m_i for the length of g_i's chain, l_i =
    (m_i - 1)*g_i for its last[i] and z_i = l_i + g_i.  tau_x is row x
    of add, y -> x + y.
    - (R,+) is an abelian group iff each tau_g (g in G) is a
      permutation, the tau_g commute pairwise (n d^2 cells) and tau_x ==
      tau_v(x) o tau_p(x) for every x (n^2 cells).  Then, by induction
      along the tree, every tau_x lies in the abelian group T the tau_g
      generate, and T acts transitively on R, as tau_x(0) = x.  A
      transitive abelian group acts with trivial stabilizers, so tau_x
      is the one element of T taking 0 to x, tau_x o tau_y = tau_(x+y),
      and x -> tau_x carries + to the composition of T.  So + needs no
      relation check: a relation tau_g^m == tau_z of T holds once it
      holds at 0, where it reads g + l = l + g = z, true in the abelian
      group just found.
    - On a group, x = p(x) + v(x), and the walk gives each x
      mixed-radix coordinates c(x) in Z^d, c(x) = c(p(x)) + e_i for
      v(x) = g_i.  The relations r_i = m_i e_i - c(z_i) (z_i lies in the
      subgroup reached before g_i) span a triangular lattice of index
      m_1...m_d = n inside the kernel of Z^d -> R, e_i -> g_i, whose
      index is n too, so they span that kernel.  A map phi from R to an
      abelian group is then additive iff phi(x) == phi(p(x)) + phi(v(x))
      for every x (at x = g_1 this gives phi(0) = 0) and phi(l_i) +
      phi(g_i) == phi(z_i) for every i: the first makes phi(x) the
      image of c(x) under a homomorphism, and the second kills each r_i,
      as l_i's chain makes phi(l_i) = (m_i - 1)*phi(g_i).  Right
      distributivity is that for x -> row x of mul, and left
      distributivity for y -> column y of mul, checked on each row
      block of mul as x*y == x*p(y) + x*v(y); the relations read d rows
      or columns of mul.
    - once both distributive laws hold, both sides of (ab)c == a(bc)
      are additive in each argument, so G^3 suffices.
    Nothing is proven when the walk's blocks met or + is not an abelian
    group.  An axiom left out may still hold: the exhaustive scan
    decides it.
    """
    n, add, mul = R.order, R.add, R.mul
    tree = _additive_generators(R)
    arrays = _tree_arrays(R, tree)
    if arrays is None:
        return frozenset()
    P, V = arrays
    G, L = np.array(tree.gens), np.array(tree.last)
    Z = add[L, G]

    def along_tree(table, rhs):
        # table[rows] == rhs(rows) on every row block.  A block cell
        # holds _sums's 8-byte index and three int16 gathers, so a block
        # is 1/32 of _CHUNK_CELLS: 2 MiB, which stays in cache
        return all((table[rows] == rhs(rows)).all()
                   for rows in _row_blocks(n, 32 * n))

    T = add[G]
    TT = T[:, T]                                    # g_i + (g_j + y)
    if not ((np.sort(T, axis=1) == np.arange(n)).all()
            and (TT == TT.transpose(1, 0, 2)).all()
            and along_tree(add, lambda rows: _sums(R, V[rows, None],
                                                   add[P[rows]]))):
        return frozenset()
    proven = {"add_associative"}
    if ((add[mul[L], mul[G]] == mul[Z]).all()
            and along_tree(mul, lambda rows: _sums(R, mul[P[rows]],
                                                   mul[V[rows]]))):
        proven.add("right_distributive")
    # take keeps the block in C order, where mul[rows][:, P] would not
    if ((add[mul[:, L], mul[:, G]] == mul[:, Z]).all()
            and along_tree(mul, lambda rows: _sums(
                R, mul[rows].take(P, axis=1), mul[rows].take(V, axis=1)))):
        proven.add("left_distributive")
    if {"left_distributive", "right_distributive"} <= proven:
        gg = mul[G[:, None], G]
        if (mul[gg[:, :, None], G] == mul[G[:, None, None], gg]).all():
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
    needed, nor a scan for + commuting: _proven_on_tree proves
    add_associative only for an abelian group."""
    return {"add_associative", "left_distributive",
            "right_distributive"} <= _proven_on_tree(R)


def _exhaustive_report(R: RingTable, proven=frozenset()) -> AxiomReport:
    # the exhaustive route; axioms in `proven` skip their scan, and so
    # does + commuting once the tree has proven + an abelian group
    n = R.order
    add, mul = R.add, R.mul
    violations = []

    w = None if "add_associative" in proven else _add_noncommuting(R)
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

    A passing ring costs O(n^2) cells along the coset tree of (R,+)
    (_proven_on_tree): 0.006 s for M(3,Z(2)) and 0.5-0.8 s at order
    4096 on a shared 2-vCPU Xeon, where the O(n^2 d) generator route it
    replaced took 0.1 s and 6-7 s.  An axiom whose fast check fails, or
    cannot run because an earlier one failed, is scanned exhaustively,
    so each witness is the lexicographically least violating tuple, one
    per axiom.  Raises SizeGuardError when order exceeds the triple
    guard: too large for exhaustive triple check.
    """
    skip = _axiom_skip(guards, R.order)
    if skip:
        raise SizeGuardError(skip)
    return _exhaustive_report(R, _proven_on_tree(R))


def prove_axioms(R: RingTable, guards: Guards = DEFAULT_GUARDS) -> Optional[str]:
    """The one proof step between a built ring and its verdicts: None
    once verify_axioms proves R a ring, the triple guard's reason when
    it skips R, and RingError naming R when an axiom fails."""
    try:
        report = verify_axioms(R, guards)
    except SizeGuardError as err:
        return str(err)
    if not report.passed:
        raise RingError("axiom check failed on %s: %s"
                        % (R.provenance, report.violations))
    return None
