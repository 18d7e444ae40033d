"""Table assembly and axiom checking."""

import numpy as np
import pytest

from finring import (
    Guards, RingError, SizeGuardError, build_expr, build_ring, verify_axioms,
)
from finring.core import table_dtype


def _z4_tables():
    n = 4
    add = np.fromfunction(lambda i, j: (i + j) % n, (n, n), dtype=int)
    mul = np.fromfunction(lambda i, j: (i * j) % n, (n, n), dtype=int)
    return add, mul, [str(i) for i in range(n)]


def test_build_ring_accepts_z4():
    add, mul, labels = _z4_tables()
    R = build_ring(add, mul, 0, 1, labels, provenance="Z(4)")
    assert R.order == 4
    assert R.neg.tolist() == [0, 3, 2, 1]
    assert verify_axioms(R).passed


def test_build_ring_rejects_bad_shapes():
    add, mul, labels = _z4_tables()
    with pytest.raises(RingError, match="square"):
        build_ring(add[:3], mul, 0, 1, labels)
    with pytest.raises(RingError, match="dimension mismatch"):
        build_ring(add, mul[:3, :3], 0, 1, labels)
    with pytest.raises(RingError, match="order < 2"):
        build_ring([[0]], [[0]], 0, 0, ["0"])


def test_build_ring_rejects_bad_indices():
    add, mul, labels = _z4_tables()
    bad = mul.copy()
    bad[2, 2] = 9
    with pytest.raises(RingError, match="out of range"):
        build_ring(add, bad, 0, 1, labels)
    with pytest.raises(RingError, match="zero/one"):
        build_ring(add, mul, 0, 7, labels)
    with pytest.raises(RingError, match="one = zero"):
        build_ring(add, mul, 1, 1, labels)


def test_build_ring_rejects_broken_group():
    add, mul, labels = _z4_tables()
    shifted = (add + 1) % 4
    with pytest.raises(RingError, match="identity"):
        build_ring(shifted, mul, 0, 1, labels)
    bad = add.copy()
    bad[1, 3] = 1          # row 1 loses its inverse
    with pytest.raises(RingError, match="unique inverse"):
        build_ring(bad, mul, 0, 1, labels)


def test_build_ring_rejects_bad_labels():
    add, mul, labels = _z4_tables()
    with pytest.raises(RingError, match="labels"):
        build_ring(add, mul, 0, 1, labels[:3])
    with pytest.raises(RingError, match="distinct"):
        build_ring(add, mul, 0, 1, ["x", "x", "y", "z"])


def test_verify_axioms_finds_broken_commutativity():
    add, mul, labels = _z4_tables()
    bad = add.copy()
    bad[1, 2] = 2          # keeps the zero row and inverses intact
    R = build_ring(bad, mul, 0, 1, labels)
    rep = verify_axioms(R)
    assert not rep.passed
    assert "add_commutative" in [name for name, _ in rep.violations]


def test_verify_axioms_finds_broken_distributivity():
    add, mul, labels = _z4_tables()
    bad = mul.copy()
    bad[2, 2] = 1
    rep = verify_axioms(build_ring(add, bad, 0, 1, labels))
    names = [name for name, _ in rep.violations]
    assert "mul_associative" in names
    assert "left_distributive" in names
    # witnesses are index tuples inside the ring
    for _, w in rep.violations:
        assert all(0 <= i < 4 for i in w)


def test_verify_axioms_finds_broken_identity():
    add, mul, labels = _z4_tables()
    bad = mul.copy()
    bad[1, 3] = 1
    rep = verify_axioms(build_ring(add, bad, 0, 1, labels))
    assert "one_identity" in [name for name, _ in rep.violations]


def test_verify_axioms_respects_triple_guard():
    R = build_expr("Z(6)")
    with pytest.raises(SizeGuardError, match="too large"):
        verify_axioms(R, Guards(triple_cap=4))


def test_table_dtype_boundary():
    assert table_dtype(100) == np.int16
    assert table_dtype(40000) == np.int32
