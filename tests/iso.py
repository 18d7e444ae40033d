"""Table isomorphism search, meant for small rings in tests.

Backtracks over images of a generating set, extending each guess to a
full map by closure under both operations and rejecting on the first
contradiction.  Fine up to order around a hundred; not a general
purpose tool.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from finring.core import RingTable
from finring.construct import subring
from finring.predicates import center, idempotents, nilpotency_index

__all__ = ["find_isomorphism", "is_isomorphic", "ring_generators"]


def _additive_order(R: RingTable, x: int) -> int:
    acc = x
    for k in range(1, R.order + 1):
        if acc == R.zero:
            return k
        acc = int(R.add[acc, x])
    return 0


def _signature(R: RingTable, x: int, cent: set, idem: set) -> tuple:
    k = nilpotency_index(R, x)
    return (_additive_order(R, x), k or 0, x in idem, x in cent,
            int(R.mul[x, x] == x))


def ring_generators(R: RingTable) -> list:
    """Small index list whose closure with 0 and 1 is all of R."""
    gens = []
    cl = set(int(i) for i in subring(R, gens))
    while len(cl) < R.order:
        for x in range(R.order):
            if x not in cl:
                gens.append(x)
                break
        cl = set(int(i) for i in subring(R, gens))
    return gens


def _extend(R: RingTable, S: RingTable, seed: dict) -> Optional[np.ndarray]:
    known = dict(seed)
    used = set(known.values())
    if len(used) != len(known):
        return None
    frontier = list(known.items())
    while frontier:
        new = []
        items = list(known.items())
        for x1, y1 in frontier:
            for x2, y2 in items:
                for xa, xb, ya, yb in ((x1, x2, y1, y2), (x2, x1, y2, y1)):
                    for tR, tS in ((R.add, S.add), (R.mul, S.mul)):
                        xr = int(tR[xa, xb])
                        yr = int(tS[ya, yb])
                        cur = known.get(xr)
                        if cur is None:
                            if yr in used:
                                return None
                            known[xr] = yr
                            used.add(yr)
                            new.append((xr, yr))
                        elif cur != yr:
                            return None
        frontier = new
    if len(known) < R.order:
        return None
    phi = np.empty(R.order, dtype=np.int64)
    for x, y in known.items():
        phi[x] = y
    if not (np.array_equal(phi[R.add], S.add[np.ix_(phi, phi)])
            and np.array_equal(phi[R.mul], S.mul[np.ix_(phi, phi)])):
        return None
    return phi


def find_isomorphism(R: RingTable, S: RingTable) -> Optional[np.ndarray]:
    """Index map phi with phi(x op y) = phi(x) op phi(y), or None."""
    if R.order != S.order:
        return None
    centR = set(int(i) for i in center(R))
    centS = set(int(i) for i in center(S))
    idemR = set(int(i) for i in idempotents(R))
    idemS = set(int(i) for i in idempotents(S))
    sigR = [_signature(R, x, centR, idemR) for x in range(R.order)]
    sigS = [_signature(S, x, centS, idemS) for x in range(S.order)]
    if sorted(sigR) != sorted(sigS):
        return None
    gens = ring_generators(R)
    base = {R.zero: S.zero, R.one: S.one}
    cands = [[y for y in range(S.order) if sigS[y] == sigR[g]] for g in gens]

    def backtrack(i: int, seed: dict) -> Optional[np.ndarray]:
        if i == len(gens):
            return _extend(R, S, seed)
        for y in cands[i]:
            if y in seed.values():
                continue
            trial = dict(seed)
            trial[gens[i]] = y
            phi = backtrack(i + 1, trial)
            if phi is not None:
                return phi
        return None

    return backtrack(0, base)


def is_isomorphic(R: RingTable, S: RingTable) -> bool:
    return find_isomorphism(R, S) is not None
