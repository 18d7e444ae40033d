"""Regenerate src/finring/corpus.txt.

The two structure-constant entries are too bulky to maintain by hand:
a 16-element algebra with one nonzero non-unital product (basis2 *
basis1 = basis3) and the group algebra of the quaternion group over
the two-element field.  Everything else is a literal line.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from finring.expr import AlgebraExpr, BracketList, IntLit, serialize


def bl(x):
    if isinstance(x, list):
        return BracketList([bl(v) for v in x])
    return IntLit(x)


def nilpotent_pair_algebra():
    d = 4
    c = [[[0] * d for _ in range(d)] for _ in range(d)]
    for j in range(d):
        c[0][j][j] = 1
        c[j][0][j] = 1
    c[0][0][0] = 1
    # basis2 * basis1 = basis3, every other non-unital product vanishes
    c[2][1][3] = 1
    return AlgebraExpr(2, 4, bl(c))


def quaternion_group_algebra():
    # basis order: 1, -1, i, -i, j, -j, k, -k
    syms = ["1", "i", "j", "k"]
    basis = [(s, g) for g in syms for s in (1, -1)]

    def gmul(x, y):
        sx, gx = x
        sy, gy = y
        table = {
            ("1", "1"): (1, "1"), ("1", "i"): (1, "i"),
            ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
            ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
            ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
            ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
            ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
            ("k", "i"): (1, "j"), ("i", "k"): (-1, "j"),
        }
        s, g = table[(gx, gy)]
        return (sx * sy * s, g)

    index = {b: n for n, b in enumerate(basis)}
    d = 8
    c = [[[0] * d for _ in range(d)] for _ in range(d)]
    for a, ba in enumerate(basis):
        for b, bb in enumerate(basis):
            c[a][b][index[gmul(ba, bb)]] = 1
    return AlgebraExpr(2, 8, bl(c))


LINES = [
    "# default corpus: one line per ring expression",
    "# modular arithmetic",
    "Z(2)",
    "Z(3)",
    "Z(4)",
    "Z(5)",
    "Z(6)",
    "Z(8)",
    "Z(12)",
    "# triangular and full matrices",
    "U(2,Z(2))",
    "U(2,Z(3))",
    "M(2,Z(2))",
    "M(2,Z(3))",
    "M(3,Z(2))",
    "# constant-diagonal and constant-stripe matrices",
    "D(2,Z(2))",
    "D(3,Z(2))",
    "V(3,Z(2))",
    "# three by three family with tied diagonal, all unit parameter patterns",
    "H(Z(2),1,1)",
    "H(Z(3),1,1)",
    "H(Z(3),2,1)",
    "H(Z(3),1,2)",
    "H(Z(3),2,2)",
    "# generalized 2x2 arrays with scaled pairing",
    "K(Z(2),0)",
    "K(Z(2),1)",
    "K(Z(3),0)",
    "K(Z(3),1)",
    "# identity-adjunction pairs",
    "dorroh(Z(2),sub[])",
    "dorroh(Z(4),sub[])",
    "dorroh(U(2,Z(2)),sub[])",
    "# direct products",
    "prod(Z(2),Z(2))",
    "prod(Z(2),Z(3))",
    "prod(Z(2),Z(4))",
    "prod(U(2,Z(2)),Z(2))",
    "prod(U(2,Z(2)),U(2,Z(2)))",
    "prod(M(2,Z(2)),Z(3))",
    "# quotients",
    "quot(Z(6),0)",
    "quot(Z(6),3)",
    "quot(Z(12),3)",
    "quot(Z(12),4)",
    "quot(prod(Z(2),Z(4)),(0,2))",
    "# corner slice",
    "corner(M(2,Z(2)),[[1,0],[0,0]])",
    "# twisted triangular pairs",
    "twist(Z(2),hom[#0,#1])",
    "twist(prod(Z(2),Z(2)),hom[#0,#0,#3,#3])",
    "# bounded almost-constant tuples",
    "trs(Z(2),sub[],1)",
    "trs(M(2,Z(2)),sub[[[1,0],[0,0]],[[0,1],[0,0]],[[0,0],[0,1]]],1)",
    "# structure-constant algebras",
    "NILPAIR",
    "QUAT",
    "# oversized member, kept to exercise the guard policy",
    "M(2,Z(9))",
]


def render() -> str:
    """Text of corpus.txt: LINES with the two algebra entries serialized."""
    algebras = {"NILPAIR": nilpotent_pair_algebra,
                "QUAT": quaternion_group_algebra}
    return "".join((serialize(algebras[line]()) if line in algebras else line)
                   + "\n" for line in LINES)


def main():
    out = os.path.join(os.path.dirname(__file__), "..", "src", "finring",
                       "corpus.txt")
    text = render()
    with open(out, "w") as fh:
        fh.write(text)
    print("wrote %s (%d lines)" % (out, text.count("\n")))


if __name__ == "__main__":
    main()
