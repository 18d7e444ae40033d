"""Ring constructors and the expression-to-table builder.

Every constructor returns a RingTable whose labels are canonical
element literals: each parses back through dsl.parse_element and
resolves to its own index via the ring's layout.

A coordinate ring (_coord_ring) gets its componentwise tables by
broadcasting each base table over its own coordinates.  From order
_FILL_MIN_ORDER on, its product is filled from the single-coordinate
rows (x_k at coordinate k, zero elsewhere): the formula runs on those
rows only, and every other row is their sum, row(x) = sum_k
row(x_k e_k), by right distributivity.  So a product formula must be
additive in its left argument whenever its input rings are rings; the
differential test in tests/test_construct.py holds every fill to the
formula.  Both write each table once, with no n^2 temporary; the fill
works in place, in row blocks, and indexes add's rows by the summand,
whose few distinct elements keep the rows it reads in cache.

A subring, corner or quotient is built by _derived_ring, which gathers
its tables through one index map from its base's, in row blocks.
"""
from __future__ import annotations

import itertools
import operator
from functools import partial, reduce
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from .core import (DEFAULT_GUARDS, Guards, RingError, RingTable,
                   SizeGuardError, _biadditive, _row_blocks, build_ring,
                   table_dtype)
from .dsl import parse, parse_element
from .expr import (CONSTRUCTORS, BracketList, CosetLit, IntLit, RawIndex,
                   RingExpr, TupleLit, serialize, serialize_elem)

__all__ = [
    "zmod", "matrix_ring", "h_ring", "k_ring", "direct_product", "dorroh",
    "twisted_u2", "trs", "quotient", "corner",
    "algebra_from_structure_constants", "subring", "sub_ring_table",
    "ideal_closure", "is_ideal", "build_expr", "expr_order",
    "resolve_element",
]


# an order of 2^_POWER_BITS or more, past any table that fits in memory,
# is refused unseen, from bit lengths, and written as powers q^k
_POWER_BITS = 1 << 12


def _guard_build(what, guards: Guards, *powers):
    """Refuse to build what (a name, or an expression node), of order
    the product of q**k over its powers (q, k), over the build cap."""
    cap = guards.build_cap
    if sum(k * (q.bit_length() - 1) for q, k in powers) >= _POWER_BITS:
        order = "*".join("%d^%d" % (q, k) if k > 1 else "%d" % q
                         for q, k in powers)
    else:
        order = reduce(operator.mul, (q ** k for q, k in powers))
        if order <= cap:
            return
    raise SizeGuardError("%s has order %s, over the build cap %d" % (
        what if isinstance(what, str) else serialize(what), order, cap))


class _CoordSpace:
    """Mixed-radix indexing over per-coordinate sizes."""

    def __init__(self, sizes: Sequence[int]):
        self.sizes = [int(s) for s in sizes]
        self.strides = []
        acc = 1
        for s in reversed(self.sizes):
            self.strides.append(acc)
            acc *= s
        self.strides.reverse()
        self.order = acc

    def decompose(self, idx: np.ndarray) -> List[np.ndarray]:
        return [(idx // st) % sz for st, sz in zip(self.strides, self.sizes)]

    def compose(self, coords) -> np.ndarray:
        acc = None
        for c, st in zip(coords, self.strides):
            term = np.asarray(c, dtype=np.int64) * st
            acc = term if acc is None else acc + term
        return acc

    def compose_scalar(self, coords) -> int:
        return sum(int(c) * st for c, st in zip(coords, self.strides))


def _build_table(space: _CoordSpace, coord_fn, dtype,
                 rows: np.ndarray = None) -> np.ndarray:
    """Evaluate a formula on the given rows (all by default) of an
    order x order table, in row blocks.

    coord_fn(rc, cc) gets broadcastable row coords (m,1) and column
    coords (1,order) and returns the output coordinate arrays.
    """
    n = space.order
    if rows is None:
        rows = np.arange(n, dtype=np.int64)
    out = np.empty((len(rows), n), dtype=dtype)
    cc = [c[None, :] for c in space.decompose(np.arange(n, dtype=np.int64))]
    for block in _row_blocks(len(rows), n):
        rc = [c[:, None] for c in space.decompose(rows[block])]
        out[block] = space.compose(coord_fn(rc, cc))
    return out


def _broadcast(tables, dtype) -> np.ndarray:
    """Componentwise table: tables[k] acts on coordinate k.  Each
    coordinate, from the last to the first, is prepended to the table of
    those after it, so the inner loop runs along that table's rows."""
    out = tables[-1].astype(dtype)
    for t in tables[-2::-1]:
        m = len(out)
        out = (t.astype(dtype)[:, None, :, None] * m
               + out[:, None, :]).reshape(len(t) * m, -1)
    return out


def _fill_rows(space: _CoordSpace, mulfn, add: np.ndarray,
               zero: int) -> np.ndarray:
    """Product table of the formula mulfn, evaluated only on the
    single-coordinate rows, sum(space.sizes) of them.

    Row x is the sum over k of the row of x_k e_k (x_k at coordinate k,
    zero elsewhere): right distributivity.  Rows 0..m-1 of the table
    hold the sums over coordinates 0..k-1, and row i plus coordinate
    k's rows r_j goes to row i*s + j, in row blocks from the last back,
    so no row is overwritten before it is read.  Each block is one flat
    take, its intp index 1/32 of _CHUNK_CELLS cells.  It adds r_j + row
    i, not row i + r_j: the rows r_j hold few distinct elements (64 at
    order 4096 on M(2,Z(8)) and U(3,Z(4))), so the rows of add they
    index stay in cache, where row i's would be read at random.  The
    order is free, as _coord_ring fills only from _biadditive inputs:
    add is then componentwise over abelian groups, or Z(n).
    """
    sizes, n = space.sizes, space.order
    rows = _build_table(space, mulfn, add.dtype, np.concatenate(
        [zero + (np.arange(s) - z) * st for s, z, st in
         zip(sizes, space.decompose(zero), space.strides)]))
    out = np.empty((n, n), dtype=add.dtype)
    m = r0 = sizes[0]
    out[:m] = rows[:m]
    for s in sizes[1:]:
        summand = np.multiply(rows[r0:r0 + s], n, dtype=np.intp)
        for block in reversed(list(_row_blocks(m, 32 * s * n))):
            add.ravel().take(summand + out[block, None],
                             out=out[block.start * s:block.stop * s]
                             .reshape(-1, s, n))
        r0 += s
        m *= s
    return out


# ---------------------------------------------------------------------------
# layouts: label rendering and literal resolution


def resolve_element(R: RingTable, spec) -> int:
    """Turn an element description into an index of R.

    Accepts a plain int (taken as a raw index), label text, or a parsed
    literal node.  Text integers mean residues in Z(n) but only 0 and 1
    elsewhere; '#k' is always the raw index k.
    """
    if isinstance(spec, (int, np.integer)):
        i = int(spec)
        if not 0 <= i < R.order:
            raise RingError("raw index %d out of range for order %d" % (i, R.order))
        return i
    node = parse_element(spec) if isinstance(spec, str) else spec
    return _encode_node(R, node)


def _encode_node(R: RingTable, node) -> int:
    if isinstance(node, RawIndex):
        if not 0 <= node.value < R.order:
            raise RingError("raw index #%d out of range for order %d"
                            % (node.value, R.order))
        return node.value
    # 0 and 1 name the distinguished elements of any ring
    named = isinstance(node, IntLit) and node.value in (0, 1)
    try:
        if R.layout is not None:
            return R.layout.encode(node)
        # hand-built ring: fall back to exact label match
        text = serialize_elem(node)
        if text in R.labels and not named:
            return R.labels.index(text)
        raise RingError("cannot resolve %r in a ring without a layout" % text)
    except RingError:
        if not named:
            raise
    return R.zero if node.value == 0 else R.one


class CoordCodec:
    """Element literals of a coordinate ring, declared once as a shape.

    The shape is a literal with its entries left open: nested lists
    (bracket literals) and tuples (tuple literals) whose leaves are a
    coordinate index k, None for an entry that is always zero, or a
    function of the coordinates for a derived entry.  comps[k] is the
    ring coordinate k ranges over, or a modulus n for the integers mod
    n.  Zeros and derived entries lie in base = comps[0]; family names
    the literal in error messages.  The one shape gives the labels of
    every element (labels) and the parsing of every literal (encode).
    A constructor whose ring the laws read back keeps its construction
    facts here: h_ring its parameters (params), twisted_u2 its images.
    """

    def __init__(self, shape, comps, family: str = None):
        self.shape = shape
        self.comps = list(comps)
        self.base = self.comps[0]
        self.family = family
        self.space = _CoordSpace([c.order if isinstance(c, RingTable) else c
                                  for c in self.comps])
        self.derived = []
        self.paths = {}          # coordinate -> path of its first entry
        self._fmt = self._compile(shape, ())

    def _compile(self, shape, path) -> str:
        """The str.format template of a shape: argument k is coordinate
        k's label, arguments after the coordinates the derived labels."""
        if isinstance(shape, (list, tuple)):
            inner = ",".join(self._compile(s, path + (p,))
                             for p, s in enumerate(shape))
            return ("[%s]" if isinstance(shape, list) else "(%s)") % inner
        if shape is None:
            zero = self.base.labels[self.base.zero]
            return zero.replace("{", "{{").replace("}", "}}")
        if callable(shape):
            self.derived.append(shape)
            return "{%d}" % (len(self.comps) + len(self.derived) - 1)
        self.paths.setdefault(shape, path)
        return "{%d}" % shape

    def labels(self) -> tuple:
        """Every element's label, in index order."""
        args = itertools.product(*[
            c.labels if isinstance(c, RingTable) else map(str, range(c))
            for c in self.comps])
        if self.derived:
            coords = self.space.decompose(np.arange(self.space.order))
            names = self.base.labels
            args = map(operator.add, args, zip(*[
                [names[x] for x in fn(*coords).tolist()]
                for fn in self.derived]))
        return tuple(itertools.starmap(self._fmt.format, args))

    def encode(self, node) -> int:
        coords = [None] * len(self.comps)
        derived = []
        self._resolve(self.shape, node, (), coords, derived)
        if any(fn(*coords) != x for fn, x in derived):
            raise RingError("entries violate the diagonal relations of %s"
                            % self.family)
        return self.space.compose_scalar(coords)

    def _resolve(self, shape, node, path, coords, derived):
        """Walk node along shape, filling coords; path is node's 1-based
        position, derived entries are collected as (function, entry) for
        encode to check."""
        if isinstance(shape, (list, tuple)):
            kind = BracketList if isinstance(shape, list) else TupleLit
            if not (isinstance(node, kind) and len(node.items) == len(shape)):
                raise RingError(self._misshapen(node))
            for p, (s, item) in enumerate(zip(shape, node.items), 1):
                self._resolve(s, item, path + (p,), coords, derived)
            return
        comp = self.comps[shape] if isinstance(shape, int) else self.base
        if isinstance(comp, RingTable):
            x = _encode_node(comp, node)
        elif isinstance(node, IntLit):
            x = node.value % comp
        else:
            raise RingError("expected an integer literal for Z(%d)" % comp)
        if shape is None:
            if x != self.base.zero:
                raise RingError("entry (%s) must be zero in %s"
                                % (",".join(map(str, path)), self.family))
        elif callable(shape):
            derived.append((shape, x))
        elif coords[shape] is None:
            coords[shape] = x
        elif coords[shape] != x:
            raise RingError("tied entries disagree at (%s) in %s"
                            % (",".join(map(str, path)), self.family))

    def _misshapen(self, node) -> str:
        """Why node is not a literal of this codec's shape."""
        shape = self.shape
        if isinstance(shape, tuple):
            if isinstance(node, TupleLit):
                return "expected %d components, got %d" % (len(shape),
                                                           len(node.items))
            return "expected a %d-tuple literal" % len(shape)
        if isinstance(shape[0], list):
            return "expected a %dx%d matrix literal" % (len(shape),
                                                       len(shape[0]))
        return "expected a coefficient vector of length %d" % len(shape)


# matrix kind -> the coordinate count of _matrix_grid at size n
_COORD_COUNTS = {"M": lambda n: n * n, "U": lambda n: n * (n + 1) // 2,
                 "D": lambda n: n * (n - 1) // 2 + 1, "V": lambda n: n}


def _matrix_grid(kind: str, n: int):
    """The n x n shape of a matrix kind (see matrix_ring) and its
    coordinate count, coordinates numbered in row-major order of their
    first entry."""
    free = itertools.count()
    grid = []
    for i in range(n):
        grid.append([])
        for j in range(n):
            if j < i and kind != "M":
                grid[i].append(None)
            elif i > 0 and kind == "V":
                grid[i].append(grid[0][j - i])
            elif i == j > 0 and kind == "D":
                grid[i].append(0)
            else:
                grid[i].append(next(free))
    return grid, next(free)


def _matrix_codec(kind: str, n: int, base: RingTable) -> CoordCodec:
    """The n x n literals over base of a matrix kind."""
    grid, count = _matrix_grid(kind, n)
    return CoordCodec(grid, [base] * count, "kind %s" % kind)


class DerivedLayout(NamedTuple):
    """A subring, corner or quotient (kind) of base: element i stands for
    base element reps[i], and base element x is element index[x], or
    lies outside the ring at -1 (never in a quotient)."""
    base: RingTable
    reps: np.ndarray
    index: np.ndarray
    kind: str

    def encode(self, node) -> int:
        if isinstance(node, CosetLit) and self.kind == "quotient":
            node = node.rep
        idx = _encode_node(self.base, node)
        pos = int(self.index[idx])
        if pos < 0:
            raise RingError("element %s of %s lies outside the %s"
                            % (self.base.labels[idx], self.base.provenance, self.kind))
        return pos


# ---------------------------------------------------------------------------
# constructors


# below this order, proving the input rings costs more than a fill saves
# over the formula on every cell (measured: the fill wins by 20-150 us
# per build from order 81 on, loses by up to 180 us at 64 and by
# 150-550 us at orders 16-48)
_FILL_MIN_ORDER = 65


def _coord_ring(codec: CoordCodec, add, mul, zero, one, prov: str,
                guards: Guards, inputs=()) -> RingTable:
    """Ring on the mixed-radix coordinates of codec.space, labelled by
    codec.

    add and mul are each either a list of base tables, one per
    coordinate, applied componentwise (built by _broadcast), or a
    formula mapping row and column coordinates to output coordinates
    (see _build_table); zero and one are coordinate lists.  A formula
    mul of order at least _FILL_MIN_ORDER on two or more coordinates is
    filled from its single-coordinate rows (_fill_rows) when every ring
    in inputs, the rings the formula reads, is _biadditive; otherwise it
    is evaluated on every cell.  (On one coordinate every row is a
    single-coordinate row, so a fill would only copy them.)
    """
    space = codec.space
    _guard_build(prov, guards, (space.order, 1))
    labels = codec.labels()
    dt = table_dtype(space.order)
    zero = space.compose_scalar(zero)
    add = _build_table(space, add, dt) if callable(add) else _broadcast(add, dt)
    if not callable(mul):
        mul = _broadcast(mul, dt)
    elif (space.order >= _FILL_MIN_ORDER and len(space.sizes) > 1
          and all(map(_biadditive, inputs))):
        mul = _fill_rows(space, mul, add, zero)
    else:
        mul = _build_table(space, mul, dt)
    return build_ring(add, mul, zero, space.compose_scalar(one), labels, prov,
                      codec)


def zmod(n: int, guards: Guards = DEFAULT_GUARDS,
         provenance: str = None) -> RingTable:
    """Integers mod n."""
    if n < 2:
        raise RingError("Z(n) needs n >= 2")
    return _coord_ring(CoordCodec(0, [n]),
                       lambda rc, cc: [(rc[0] + cc[0]) % n],
                       lambda rc, cc: [(rc[0] * cc[0]) % n],
                       [0], [1], provenance or "Z(%d)" % n, guards)


def matrix_ring(kind: str, n: int, base: RingTable,
                guards: Guards = DEFAULT_GUARDS,
                provenance: str = None) -> RingTable:
    """n x n matrices over base, shaped by kind.

    M is the full matrix ring, U upper triangular, D constant main
    diagonal with free strict upper part, V constant on every
    superdiagonal (zero below).
    """
    if n < 1:
        raise RingError("matrix size must be >= 1")
    if kind not in _COORD_COUNTS:
        raise RingError("unknown matrix kind %r" % kind)
    prov = provenance or "%s(%d,%s)" % (kind, n, base.provenance)
    _guard_build(prov, guards, (base.order, _COORD_COUNTS[kind](n)))
    codec = _matrix_codec(kind, n, base)
    grid = codec.shape
    free = [codec.paths[k] for k in range(len(codec.comps))]
    badd, bmul = base.add, base.mul

    def mulfn(rc, cc):
        outs = []
        for (i, j) in free:
            acc = None
            for k in range(n):
                a = grid[i][k]
                b = grid[k][j]
                if a is None or b is None:
                    continue
                term = bmul[rc[a], cc[b]]
                acc = term if acc is None else badd[acc, term]
            outs.append(acc)
        return outs

    return _coord_ring(codec, [badd] * len(free), mulfn,
                       [base.zero] * len(free),
                       [base.one if i == j else base.zero for (i, j) in free],
                       prov, guards, [base])


def _require_central(base: RingTable, x: int, what: str):
    if not np.array_equal(base.mul[x], base.mul[:, x]):
        raise RingError("%s must be central in %s" % (what, base.provenance))


def h_ring(base: RingTable, s, t, guards: Guards = DEFAULT_GUARDS,
           provenance: str = None) -> RingTable:
    """Order |base|^3 family of 3x3 matrices [[a,0,0],[c,d,f],[0,0,g]]
    with d = a - s*c and g = d - t*f, for central parameters s, t."""
    s = resolve_element(base, s)
    t = resolve_element(base, t)
    _require_central(base, s, "first parameter")
    _require_central(base, t, "second parameter")
    prov = provenance or "H(%s,%s,%s)" % (base.provenance, base.labels[s],
                                          base.labels[t])
    codec, mulfn = _h_formula(base, s, t)
    ring = _coord_ring(codec, [base.add] * 3, mulfn, [base.zero] * 3,
                       [base.one, base.zero, base.zero], prov, guards, [base])
    ring.layout.params = (s, t)
    return ring


def _h_formula(base: RingTable, s: int, t: int):
    """The codec and the product formula (see _build_table) of h_ring
    over base at the parameter indices s and t."""
    badd, bmul, bneg = base.add, base.mul, base.neg

    def d(a, c, f):
        return badd[a, bneg[bmul[s, c]]]

    def g(a, c, f):
        return badd[d(a, c, f), bneg[bmul[t, f]]]

    def mulfn(rc, cc):
        a, c, f = rc
        x, y, u = cc
        dr = d(*rc)
        return [bmul[a, x],
                badd[bmul[c, x], bmul[dr, y]],
                badd[bmul[dr, u], bmul[f, g(*cc)]]]

    codec = CoordCodec([[0, None, None], [1, d, 2], [None, None, g]],
                       [base] * 3, "this family")
    return codec, mulfn


def k_ring(base: RingTable, s, guards: Guards = DEFAULT_GUARDS,
           provenance: str = None) -> RingTable:
    """Order |base|^4 ring of 2x2 arrays (a,x,y,b) whose off-diagonal
    pairing is scaled by a central parameter s."""
    s = resolve_element(base, s)
    _require_central(base, s, "pairing parameter")
    badd, bmul = base.add, base.mul

    def mulfn(rc, cc):
        a1, x1, y1, b1 = rc
        a2, x2, y2, b2 = cc
        return [badd[bmul[a1, a2], bmul[s, bmul[x1, y2]]],
                badd[bmul[a1, x2], bmul[x1, b2]],
                badd[bmul[y1, a2], bmul[b1, y2]],
                badd[bmul[s, bmul[y1, x2]], bmul[b1, b2]]]

    return _coord_ring(CoordCodec((0, 1, 2, 3), [base] * 4), [badd] * 4,
                       mulfn, [base.zero] * 4,
                       [base.one, base.zero, base.zero, base.one],
                       provenance or "K(%s,%s)" % (base.provenance,
                                                   base.labels[s]),
                       guards, [base])


def _tuple_ring(comps: Sequence[RingTable], guards: Guards,
                prov: str) -> RingTable:
    return _coord_ring(CoordCodec(tuple(range(len(comps))), comps),
                       [c.add for c in comps], [c.mul for c in comps],
                       [c.zero for c in comps], [c.one for c in comps],
                       prov, guards)


def direct_product(factors: Sequence[RingTable], guards: Guards = DEFAULT_GUARDS,
                   provenance: str = None) -> RingTable:
    """Componentwise product of the factor rings."""
    if len(factors) < 1:
        raise RingError("product needs at least one factor")
    prov = provenance or "prod(%s)" % ",".join(f.provenance for f in factors)
    return _tuple_ring(list(factors), guards, prov)


def _closure(R: RingTable, seeds, products) -> np.ndarray:
    """Grow {0} and seeds until closed under + and the index arrays
    products(members) returns; sorted indices."""
    mask = np.zeros(R.order, dtype=bool)
    mask[[R.zero] + [resolve_element(R, g) for g in seeds]] = True
    while True:
        m = np.flatnonzero(mask)
        grown = mask.copy()
        grown[R.add[np.ix_(m, m)]] = True
        for p in products(m):
            grown[p] = True
        if np.array_equal(grown, mask):
            return m
        mask = grown


def subring(R: RingTable, gens) -> np.ndarray:
    """Closure of gens together with 0 and 1, as sorted indices."""
    return _closure(R, [R.one, *gens], lambda m: [R.mul[np.ix_(m, m)]])


def sub_ring_table(R: RingTable, members: np.ndarray,
                   provenance: str = None) -> RingTable:
    """RingTable on a closed subset of R sharing R's identity."""
    return _derived_ring(R, np.unique(members), R.one,
                         provenance or R.provenance + "|sub", "subring")


def _derived_ring(R: RingTable, reps: np.ndarray, one: int, prov: str,
                  kind: str, index: np.ndarray = None) -> RingTable:
    """The ring of kind on R's elements reps (see DerivedLayout), its
    identity R's element one; index defaults to the positions in reps.
    Each table is gathered through index a row block at a time."""
    if index is None:
        index = np.full(R.order, -1, dtype=table_dtype(R.order))
        index[reps] = np.arange(len(reps))
    if index[R.zero] < 0 or index[one] < 0:
        raise RingError("%s must contain zero and its identity" % kind)
    n = len(reps)
    add, mul = np.empty((2, n, n), dtype=table_dtype(n))
    for op, out in ((R.add, add), (R.mul, mul)):
        for rows in _row_blocks(n, R.order):
            out[rows] = index[op[reps[rows, None], reps]]
            if out[rows].min() < 0:
                raise RingError("subset of %s is not closed under the "
                                "operations" % R.provenance)
    suffix = "+I" if kind == "quotient" else ""
    labels = tuple(R.labels[i] + suffix for i in reps.tolist())
    return build_ring(add, mul, int(index[R.zero]), int(index[one]), labels,
                      prov, DerivedLayout(R, reps, index, kind))


def dorroh(base: RingTable, gens, guards: Guards = DEFAULT_GUARDS,
           provenance: str = None) -> RingTable:
    """Pairs (a, b) with b in the subring generated by gens; the
    product is (a,b)(c,d) = (ac + ad + bc, bd) and the identity (0,1)."""
    S = sub_ring_table(base, subring(base, gens))
    reps, index = S.layout.reps, S.layout.index
    prov = provenance or "dorroh(%s,sub[%s])" % (
        base.provenance, ",".join(base.labels[resolve_element(base, g)]
                                  for g in gens))
    badd, bmul = base.add, base.mul

    def mulfn(rc, cc):
        a, bpos = rc
        c, dpos = cc
        b, d = reps[bpos], reps[dpos]
        first = badd[badd[bmul[a, c], bmul[a, d]], bmul[b, c]]
        return [first, index[bmul[b, d]]]

    return _coord_ring(CoordCodec((0, 1), [base, S]), [badd, S.add],
                       mulfn, [base.zero, S.zero], [base.zero, S.one],
                       prov, guards, [base])


def _validate_hom(base: RingTable, images: np.ndarray):
    n = base.order
    if images.shape != (n,):
        raise RingError("hom table must list an image for each of the %d "
                        "elements" % n)
    if images.min() < 0 or images.max() >= n:
        raise RingError("hom table image out of range")
    if images[base.one] != base.one:
        raise RingError("hom must fix the identity")
    if images[base.zero] != base.zero:
        raise RingError("hom must fix zero")
    if not np.array_equal(images[base.add], base.add[np.ix_(images, images)]):
        raise RingError("hom table does not respect addition")
    if not np.array_equal(images[base.mul], base.mul[np.ix_(images, images)]):
        raise RingError("hom table does not respect multiplication")


def twisted_u2(base: RingTable, images, guards: Guards = DEFAULT_GUARDS,
               provenance: str = None) -> RingTable:
    """Triples written [[a,b],[0,c]] where the (1,2) slot multiplies
    through a ring endomorphism: product (ax, ay + b*h(z), cz)."""
    images = np.asarray([resolve_element(base, im) for im in images],
                        dtype=np.int64)
    _validate_hom(base, images)
    prov = provenance or "twist(%s,hom[%s])" % (
        base.provenance, ",".join("#%d" % i for i in images))
    badd, bmul = base.add, base.mul

    def mulfn(rc, cc):
        a, b, c = rc
        x, y, z = cc
        return [bmul[a, x],
                badd[bmul[a, y], bmul[b, images[z]]],
                bmul[c, z]]

    ring = _coord_ring(_matrix_codec("U", 2, base), [badd] * 3, mulfn,
                       [base.zero] * 3, [base.one, base.zero, base.one],
                       prov, guards, [base])
    ring.layout.images = images
    return ring


def trs(base: RingTable, gens, n: int, guards: Guards = DEFAULT_GUARDS,
        provenance: str = None) -> RingTable:
    """(n+1)-tuples: n free coordinates in base, the last confined to
    the subring generated by gens; all operations componentwise."""
    S = sub_ring_table(base, subring(base, gens))
    if n < 0:
        raise RingError("tuple count must be >= 0")
    prov = provenance or "trs(%s,sub[%s],%d)" % (
        base.provenance, ",".join(base.labels[resolve_element(base, g)]
                                  for g in gens), n)
    _guard_build(prov, guards, (base.order, n), (S.order, 1))
    return _tuple_ring([base] * n + [S], guards, prov)


def ideal_closure(R: RingTable, gens) -> np.ndarray:
    """Smallest two-sided ideal containing gens, as sorted indices."""
    return _closure(R, gens, lambda m: [R.mul[:, m], R.mul[m, :]])


def is_ideal(R: RingTable, members) -> bool:
    """True when the index set is its own ideal closure: an ideal of R."""
    m = np.unique(np.asarray(list(members), dtype=np.int64))
    return np.array_equal(ideal_closure(R, m), m)


def quotient(R: RingTable, gens, guards: Guards = DEFAULT_GUARDS,
             provenance: str = None):
    """Quotient by the ideal generated by gens.

    Returns (ring, proj) where proj, the layout's index, maps base
    indices to coset indices.  Cosets take their least-index member as
    representative, labelled 'rep+I'.
    """
    I = ideal_closure(R, gens)
    if R.one in I:
        raise RingError("improper ideal: the generators span all of %s"
                        % R.provenance)
    rep_of = R.add[:, I].min(axis=1)
    reps = np.unique(rep_of)
    prov = provenance or "quot(%s,%s)" % (
        R.provenance, ",".join(R.labels[resolve_element(R, g)] for g in gens))
    _guard_build(prov, guards, (len(reps), 1))
    proj = np.searchsorted(reps, rep_of).astype(table_dtype(R.order))
    return _derived_ring(R, reps, R.one, prov, "quotient", proj), proj


def corner(R: RingTable, e, guards: Guards = DEFAULT_GUARDS,
           provenance: str = None):
    """Corner ring e*R*e for a nonzero idempotent e.

    Returns (ring, members) where members maps corner indices back to
    base indices; the corner's identity is e.
    """
    e = resolve_element(R, e)
    if int(R.mul[e, e]) != e:
        raise RingError("corner needs an idempotent element")
    if e == R.zero:
        raise RingError("corner at zero is not a unital ring")
    members = np.unique(R.mul[R.mul[e], e])
    prov = provenance or "corner(%s,%s)" % (R.provenance, R.labels[e])
    _guard_build(prov, guards, (len(members), 1))
    return _derived_ring(R, members, e, prov, "corner"), members


def _check_modulus_and_dimension(p: int, d: int):
    if p < 2 or any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
        raise RingError("modulus %d is not prime" % p)
    if d < 1:
        raise RingError("dimension must be >= 1")


def algebra_from_structure_constants(p: int, d: int, consts,
                                     guards: Guards = DEFAULT_GUARDS,
                                     provenance: str = None) -> RingTable:
    """Finite algebra over Z/p from a d x d x d table of basis
    products; basis vector 0 must act as the identity."""
    _check_modulus_and_dimension(p, d)
    C = np.asarray(consts, dtype=np.int64)
    if C.shape != (d, d, d):
        raise RingError("structure constants must have shape (%d,%d,%d)"
                        % (d, d, d))
    if C.min() < 0 or C.max() >= p:
        raise RingError("structure constants must lie in [0, %d)" % p)
    eye = np.eye(d, dtype=np.int64)
    if not (np.array_equal(C[0] % p, eye) and np.array_equal(C[:, 0] % p, eye)):
        raise RingError("basis vector 0 must be the identity")
    left = np.einsum("ijm,mkl->ijkl", C, C) % p
    right = np.einsum("jkm,iml->ijkl", C, C) % p
    if not np.array_equal(left, right):
        raise RingError("structure constants are not associative")
    if provenance is None:
        rows = ["[%s]" % ",".join("[%s]" % ",".join(str(v) for v in C[i, j])
                                  for j in range(d)) for i in range(d)]
        provenance = "algebra(%d,%d,[%s])" % (p, d, ",".join(rows))
    ar = np.arange(p, dtype=table_dtype(2 * p))    # p + p fits

    def mulfn(rc, cc):
        xc = np.tensordot(np.concatenate(rc, axis=1), C, axes=1)
        return list(np.einsum("xjl,jy->lxy", xc, np.concatenate(cc)) % p)

    # Z/p is a ring and the product is bilinear: no input to gate on
    return _coord_ring(CoordCodec(list(range(d)), [p] * d),
                       [(ar[:, None] + ar) % p] * d, mulfn, [0] * d, eye[0],
                       provenance, guards)


# ---------------------------------------------------------------------------
# expression dispatch


def _algebra(p: int, d: int, node: BracketList, guards: Guards,
             prov: str) -> RingTable:
    """algebra(p,d,...) from its parsed bracket list of constants."""
    _check_modulus_and_dimension(p, d)
    if len(node.items) != d:
        raise RingError("structure constants must have %d rows" % d)
    # the d^3 constants are allocated only once the literal holds them all
    values = []
    for row in node.items:
        if not (isinstance(row, BracketList) and len(row.items) == d):
            raise RingError("structure constants must have shape (%d,%d,%d)"
                            % (d, d, d))
        for cell in row.items:
            if not (isinstance(cell, BracketList) and len(cell.items) == d):
                raise RingError("structure constants must have shape (%d,%d,%d)"
                                % (d, d, d))
            for v in cell.items:
                if not isinstance(v, IntLit):
                    raise RingError("structure constants must be integers")
                values.append(v.value % p)
    C = np.array(values, dtype=np.int64).reshape(d, d, d)
    return algebra_from_structure_constants(p, d, C, guards, prov)


# constructor name -> builder taking the arguments in expr.CONSTRUCTORS
# order (rings built, element literals as parsed), the guards and the
# provenance
_BUILDERS = {
    "Z": zmod,
    **{kind: partial(matrix_ring, kind) for kind in "MUDV"},
    "H": h_ring,
    "K": k_ring,
    "prod": direct_product,
    "dorroh": dorroh,
    "quot": lambda *a: quotient(*a)[0],
    "corner": lambda *a: corner(*a)[0],
    "twist": twisted_u2,
    "trs": trs,
    "algebra": _algebra,
}


def _dispatch(node: RingExpr, guards: Guards, prov: str) -> RingTable:
    args = []
    for kind, value in zip(CONSTRUCTORS[node.name], node.args):
        if kind == "ring":
            value = build_expr(value, guards)
        elif kind == "rings":
            value = [build_expr(f, guards) for f in value]
        args.append(value)
    return _BUILDERS[node.name](*args, guards, prov)


def _expr_power(node: RingExpr):
    """(q, k) with q**k the order an expression's arguments fix, or None
    as for expr_order; the power is not computed."""
    n = node.args[0]
    if node.name == "Z":
        return (n, 1) if n >= 2 else None
    if node.name in _COORD_COUNTS and n >= 1:
        power = _expr_power(node.args[1])
        return power and (power[0], power[1] * _COORD_COUNTS[node.name](n))


def expr_order(node) -> Optional[int]:
    """The order an expression's arguments fix, without building it.

    Sized are Z(n) and the matrix kinds over a base sized here.  Every
    other constructor gets None: its builder checks arguments against
    built inputs (centrality, associative constants, a homomorphism).
    So does an expression whose builder's own argument check fails, so
    that the builder still raises its error, and one of an order of
    2^_POWER_BITS or more, which build_expr refuses from its power.
    """
    power = _expr_power(parse(node) if isinstance(node, str) else node)
    if power and power[1] * (power[0].bit_length() - 1) < _POWER_BITS:
        return power[0] ** power[1]


def _build_order(node: RingExpr):
    """The ring sub-expressions of node, then node, in the order
    _dispatch builds them."""
    for kind, value in zip(CONSTRUCTORS[node.name], node.args):
        if kind == "ring":
            yield from _build_order(value)
        elif kind == "rings":
            for factor in value:
                yield from _build_order(factor)
    yield node


def build_expr(node, guards: Guards = DEFAULT_GUARDS) -> RingTable:
    """Build the ring described by an expression (text or AST).

    The build cap is checked first on the sub-expressions _expr_power
    sizes, in build order up to the first it cannot size, so an
    expression over the cap fails before any table is filled, with the
    error its build would raise.
    """
    if isinstance(node, str):
        node = parse(node)
    for sub in _build_order(node):
        power = _expr_power(sub)
        if power is None:
            break
        _guard_build(sub, guards, power)
    return _dispatch(node, guards, serialize(node))
