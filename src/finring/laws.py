"""Executable laws swept over a ring corpus, plus a table of pinned scenes.

Each law quantifies one equivalence or transfer statement over every
applicable (ring, idempotent) instance the corpus offers.  A violated
case means an implementation bug, never new mathematics, so violations
carry replayable witnesses and the reporting errs on the loud side.

A law is one _LAWS row (see _Law).  run_law applies the row's size
guard to each corpus entry before the law reads it, so a per-ring
checker only ever sees one built ring that is within its guard.  The
examples law reads the scene table _SCENE_CHECKS (see _Scene).
"""
from __future__ import annotations

import time
from collections import namedtuple
from dataclasses import dataclass
from importlib import resources
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import DEFAULT_GUARDS, Guards, RingError, RingTable, SizeGuardError
from .core import _axiom_skip, _guard_skip, prove_axioms, table_dtype
from .construct import (_build_table, _h_formula, build_expr, corner,
                        expr_order, is_ideal, quotient, resolve_element)
from .dsl import ParseError, parse
from .expr import serialize
from .predicates import (center, check_property, idempotents,
                         is_left_min_abel, is_left_semicentral,
                         is_right_semicentral, minimal_left_idempotents,
                         replay_witness, right_annihilator, unit_inverse)

__all__ = [
    "LawCase", "LawReport", "Corpus", "CorpusEntry", "LAW_ORDER",
    "load_corpus", "corpus_from_text", "default_corpus", "select_laws",
    "run_law", "run_laws",
]

_STATUSES = ("holds", "violated", "not-applicable", "skipped")


@dataclass
class LawCase:
    """One instance-level outcome of a law."""

    law: str
    ring: str
    idempotent: Optional[str]
    status: str
    witness: Optional[tuple] = None
    witness_labels: Optional[tuple] = None
    detail: Optional[str] = None
    reason: Optional[str] = None

    def to_dict(self):
        return {
            "law": self.law,
            "ring": self.ring,
            "idempotent": self.idempotent,
            "status": self.status,
            "witness": list(self.witness) if self.witness is not None else None,
            "witness_labels": (list(self.witness_labels)
                               if self.witness_labels is not None else None),
            "detail": self.detail,
            "reason": self.reason,
        }


@dataclass
class LawReport:
    """All cases one law produced, with per-status totals."""

    law: str
    statement: str
    cases: list
    elapsed: float = 0.0

    @property
    def totals(self):
        t = {s: 0 for s in _STATUSES}
        for c in self.cases:
            t[c.status] += 1
        return t

    def to_dict(self):
        # elapsed is deliberately dropped: machine reports must be
        # byte-identical across runs
        return {
            "law": self.law,
            "statement": self.statement,
            "totals": self.totals,
            "cases": [c.to_dict() for c in self.cases],
            "elapsed": None,
        }


@dataclass
class CorpusEntry:
    """One corpus line: source text, parsed node, built ring.

    An entry whose order, sized from its expression (expr_order), lies
    past every sweep guard and within the build cap is left unbuilt:
    ring is None and order holds that size.  run_law sizes such an entry
    by that order, so every law that reads the corpus skips it and no
    checker sees it.
    """

    text: str
    node: object
    ring: Optional[RingTable]
    verified: Optional[bool]   # None when the size guard skipped the check
    note: Optional[str] = None
    order: Optional[int] = None    # set only on an entry left unbuilt


@dataclass
class Corpus:
    source: str
    entries: list
    elapsed: float = 0.0

    def rings(self):
        return [e for e in self.entries if e.ring is not None]


def corpus_from_text(text: str, source: str = "<corpus>",
                     guards: Guards = DEFAULT_GUARDS,
                     build: bool = True) -> Corpus:
    """Parse, build and axiom-check a corpus manifest.

    Lines are construction expressions; blank lines and '#' comments are
    ignored.  An entry that expr_order sizes past every sweep guard,
    within the build cap, is not built (see CorpusEntry); its note says
    its axiom check was skipped.  Every other entry must build and, when
    small enough for the triple guard, pass the axiom check; an entry
    too large for it carries that note instead.  With build false every
    line is parsed and none is built, so the entries carry no ring.
    """
    t0 = time.perf_counter()
    entries = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            node = parse(line)
        except ParseError as err:
            # corpus entries are one line each, so re-key the position to
            # the manifest line while keeping the column
            msg = str(err).split(": ", 1)[-1]
            raise ParseError("in %s line %d: %s" % (source, lineno, msg),
                             lineno, err.col)
        if not build:
            entries.append(CorpusEntry(line, node, None, None))
            continue
        order = expr_order(node)
        if (order is not None and max(guards.pair_cap, guards.triple_cap)
                < order <= guards.build_cap):
            entries.append(CorpusEntry(
                line, node, None, None,
                "axiom check skipped: %s" % _axiom_skip(guards, order), order))
            continue
        try:
            ring = build_expr(node, guards)
            skip = prove_axioms(ring, guards)
        except (RingError, SizeGuardError) as err:
            raise type(err)("%s line %d: %s" % (source, lineno, err))
        entries.append(CorpusEntry(line, node, ring, None if skip else True,
                                   skip and "axiom check skipped: %s" % skip))
    return Corpus(source, entries, time.perf_counter() - t0)


def load_corpus(path: str, guards: Guards = DEFAULT_GUARDS,
                build: bool = True) -> Corpus:
    """Read a corpus manifest from a file."""
    with open(path) as fh:
        text = fh.read()
    return corpus_from_text(text, path, guards, build)


def default_corpus(guards: Guards = DEFAULT_GUARDS,
                   build: bool = True) -> Corpus:
    """The corpus bundled with the package."""
    text = resources.files("finring").joinpath("corpus.txt").read_text()
    return corpus_from_text(text, "builtin", guards, build)


def _nz_idem(R):
    return [int(f) for f in idempotents(R) if int(f) != R.zero]


def _ok(R, prop, e, guards):
    return check_property(R, prop, e, guards).status == "holds"


@dataclass(frozen=True)
class _Cases:
    """The case factory of one law, bound to its name: a law's checkers
    are generators that yield only cases made here."""

    law: str

    def __call__(self, ring, idem, status, **fields) -> LawCase:
        return LawCase(self.law, ring, idem, status, **fields)

    def verdict(self, ring, idem, ok, reason, **fields) -> LawCase:
        """holds when ok, else violated for reason."""
        return self(ring, idem, "holds" if ok else "violated",
                    reason=None if ok else reason, **fields)


# --- corner characterization -------------------------------------------------

def _law_ere(case, R, guards):
    for f in _nz_idem(R):
        sub, _ = corner(R, f, guards)
        rev = _ok(sub, "reversible", None, guards)
        lsc = is_left_semicentral(R, f)
        rsc = is_right_semicentral(R, f)
        right = _ok(R, "right_e_reversible", f, guards)
        left = _ok(R, "left_e_reversible", f, guards)
        okr = right == (lsc and rev)
        okl = left == (rsc and rev)
        detail = ("corner order %d reversible=%s; semicentral left=%s "
                  "right=%s; relative right=%s left=%s"
                  % (sub.order, rev, lsc, rsc, right, left))
        side = "right" if not okr else "left"
        yield case.verdict(R.provenance, R.labels[f], okr and okl,
                           "%s-side characterization broke" % side,
                           detail=detail)


# --- semiprime collapse ------------------------------------------------------

_COLLAPSE_LEGS = ("right_e_reversible", "right_e_reduced", "e_symmetric",
                  "right_e_semicommutative")


def _law_semiprime_collapse(case, R, guards):
    # within the pair guard semiprime and the two pair legs are decided,
    # so at least two legs are always compared
    sp = check_property(R, "semiprime", None, guards)
    if sp.status == "fails":
        yield case(R.provenance, None, "not-applicable",
                   witness=sp.witness, witness_labels=sp.witness_labels,
                   reason="not semiprime")
        return
    for f in _nz_idem(R):
        legs = [(p, check_property(R, p, f, guards)) for p in _COLLAPSE_LEGS]
        live = [(p, v) for p, v in legs if v.status != "skipped"]
        dropped = [p for p, v in legs if v.status == "skipped"]
        verdicts = [(p, v.status == "holds") for p, v in live]
        detail = "; ".join("%s=%s" % pv for pv in verdicts)
        if dropped:
            detail += "; skipped: " + ", ".join(dropped)
        if len({val for _, val in verdicts}) == 1:
            yield case(R.provenance, R.labels[f], "holds", detail=detail)
            continue
        bad = next(v for _, v in live if v.status == "fails")
        yield case(R.provenance, R.labels[f], "violated",
                   witness=bad.witness, witness_labels=bad.witness_labels,
                   detail=detail,
                   reason="conditions disagree on a semiprime ring")


# --- complemented idempotent pair --------------------------------------------

def _law_e_and_complement(case, R, guards):
    good = []
    for f in _nz_idem(R):
        g = int(R.add[R.one, R.neg[f]])
        if g == R.zero:
            continue
        if _ok(R, "right_e_reversible", f, guards) and \
                _ok(R, "right_e_reversible", g, guards):
            good.append(f)
    if not good:
        yield case(R.provenance, None, "not-applicable",
                   reason="no nonzero idempotent e with both e and 1-e "
                          "right-reversible-relative")
        return
    sp = _ok(R, "semiprime", None, guards)
    red = _ok(R, "reduced", None, guards)
    rev = _ok(R, "reversible", None, guards)
    # z/12 at e=4 is reversible but not semiprime, so only the
    # provable directions are asserted: semiprime == reduced, and
    # reduced implies reversible
    ok = (sp == red) and (rev or not red)
    detail = ("semiprime=%s reduced=%s reversible=%s; %d admissible "
              "idempotents" % (sp, red, rev, len(good)))
    yield case.verdict(R.provenance, R.labels[good[0]], ok,
                       "provable directions disagree", detail=detail)


# --- prime versus domain ------------------------------------------------------

def _law_prime_domain(case, R, guards):
    some = next((f for f in _nz_idem(R)
                 if _ok(R, "right_e_reversible", f, guards)), None)
    pr = _ok(R, "prime", None, guards)
    dom = _ok(R, "domain", None, guards)
    fin = _ok(R, "directly_finite", None, guards)
    ok = ((pr and some is not None) == dom) and (fin or not dom)
    detail = ("prime=%s domain=%s directly_finite=%s; reversible-relative "
              "witness=%s" % (pr, dom, fin,
                              R.labels[some] if some is not None else None))
    yield case.verdict(R.provenance, None, ok, "domain equivalence or "
                       "direct finiteness broke", detail=detail)


# --- minimal idempotents ------------------------------------------------------

def _law_min_abel(case, R, guards):
    mel = [int(x) for x in minimal_left_idempotents(R)]
    ma = is_left_min_abel(R)
    leg_rev = all(_ok(R, "right_e_reversible", f, guards) for f in mel)
    leg_sym = (None if _guard_skip(guards, "triple", R.order)
               else all(_ok(R, "e_symmetric", f, guards) for f in mel))
    ok = (ma == leg_rev) and (leg_sym is None or ma == leg_sym)
    detail = ("min-abel=%s over %d minimal left idempotents; "
              "right-reversible leg=%s; symmetric leg=%s"
              % (ma, len(mel), leg_rev,
                 "skipped" if leg_sym is None else leg_sym))
    yield case.verdict(R.provenance, None, ok, "legs disagree",
                       detail=detail)


# --- products -----------------------------------------------------------------

def _law_products(case, P, guards):
    F = P.layout.comps
    if len(F) != 2:
        yield case(P.provenance, None, "skipped",
                   reason="only two-factor products are swept")
        return
    space = P.layout.space
    for e1 in _nz_idem(F[0]):
        v1 = _ok(F[0], "right_e_reversible", e1, guards)
        for e2 in _nz_idem(F[1]):
            v2 = _ok(F[1], "right_e_reversible", e2, guards)
            E = int(space.compose_scalar([e1, e2]))
            vp = _ok(P, "right_e_reversible", E, guards)
            detail = ("components %s -> %s, %s -> %s; product -> %s"
                      % (F[0].labels[e1], v1, F[1].labels[e2], v2, vp))
            yield case.verdict(P.provenance, P.labels[E], vp == (v1 and v2),
                               "componentwise equivalence broke",
                               detail=detail)


# --- lifting along a quotient ---------------------------------------------------

def _law_quotient_lift(case, Q, guards):
    base = Q.layout.base
    proj = Q.layout.index
    sq = [int(x) for x in np.flatnonzero(proj == Q.zero)
          if int(x) != base.zero and int(base.mul[x, x]) == base.zero]
    if sq:
        yield case(Q.provenance, None, "not-applicable", witness=(sq[0],),
                   witness_labels=(base.labels[sq[0]],),
                   reason="the ideal has a nonzero square-zero element, "
                          "so it is not reduced as a rng")
        return
    for e in _nz_idem(base):
        eb = int(proj[e])
        if eb == Q.zero:
            yield case(Q.provenance, base.labels[e], "not-applicable",
                       reason="the idempotent falls into the ideal")
            continue
        if not _ok(Q, "right_e_reversible", eb, guards):
            yield case(Q.provenance, base.labels[e], "holds",
                       detail="premise fails: the quotient is not right "
                              "reversible relative to %s" % Q.labels[eb])
            continue
        lift = _ok(base, "right_e_reversible", e, guards)
        semi = is_left_semicentral(base, e)
        detail = ("quotient reversible relative to %s; base lift=%s, "
                  "left semicentral=%s" % (Q.labels[eb], lift, semi))
        yield case.verdict(Q.provenance, base.labels[e], lift and semi,
                           "conclusion fails under a true premise",
                           detail=detail)


# --- quotient by a right annihilator --------------------------------------------

# corpus lines carry no designated subset, so this law runs on fixtures
_ANN_FIXTURES = (
    ("Z(12)", "4"),
    ("Z(12)", "0"),
    ("Z(12)", "1"),
    ("Z(6)", "2"),
    ("Z(8)", "2"),
)


def _law_annihilator_quotient(case, guards):
    for rtext, jtext in _ANN_FIXTURES:
        R = build_expr(rtext, guards)
        j = resolve_element(R, jtext)
        ann = right_annihilator(R, [j])
        jtag = "annihilated set {%s}" % R.labels[j]
        if R.one in set(int(x) for x in ann):
            yield case(R.provenance, None, "skipped",
                       reason="%s: the annihilator is improper" % jtag)
            continue
        if not is_ideal(R, ann):
            yield case(R.provenance, None, "violated",
                       reason="%s: the right annihilator is not two-sided, "
                              "which the symmetric hypothesis should prevent"
                              % jtag)
            continue
        Q, proj = quotient(R, [int(x) for x in ann], guards)
        for e in _nz_idem(R):
            sym = check_property(R, "e_symmetric", e, guards)
            if sym.status == "skipped":
                yield case(R.provenance, R.labels[e], "skipped",
                           reason=sym.reason)
                continue
            if sym.status == "fails":
                yield case(R.provenance, R.labels[e], "not-applicable",
                           reason="%s: the ring is not symmetric relative to "
                                  "this idempotent" % jtag)
                continue
            eb = int(proj[e])
            if eb == Q.zero:
                yield case(R.provenance, R.labels[e], "not-applicable",
                           reason="%s: the idempotent collapses into the "
                                  "annihilator" % jtag)
                continue
            yield case.verdict(R.provenance, R.labels[e],
                               _ok(Q, "right_e_reversible", eb, guards),
                               "the quotient lost right reversibility",
                               detail="%s: quotient %s tested relative to %s"
                                      % (jtag, Q.provenance, Q.labels[eb]))


# --- unitalization ---------------------------------------------------------------

def _transfer(case, base, e, X, E, guards):
    """The transfer case of an extension X of base: right reversibility
    at E in X matches right reversibility at e in base."""
    vb = _ok(base, "right_e_reversible", e, guards)
    vx = _ok(X, "right_e_reversible", E, guards)
    return case.verdict(X.provenance, X.labels[E], vx == vb,
                        "transfer equivalence broke",
                        detail="base idempotent %s -> %s; extension -> %s"
                               % (base.labels[e], vb, vx))


def _law_dorroh(case, D, guards):
    base, S = D.layout.comps
    m = S.layout.reps
    cen = set(int(x) for x in center(base))
    if not all(int(x) in cen for x in m):
        yield case(D.provenance, None, "not-applicable",
                   reason="the adjoined scalars are not central in the base")
        return
    isid = np.zeros(base.order, dtype=bool)
    isid[idempotents(base)] = True
    expect = isid[base.add[:, m]] & isid[m][None, :]
    actual = np.zeros(D.order, dtype=bool)
    actual[idempotents(D)] = True
    shape_ok = bool(np.array_equal(actual.reshape(base.order, len(m)),
                                   expect))
    yield case.verdict(D.provenance, None, shape_ok,
                       "idempotent characterization broke",
                       detail="idempotent shape checked over %d pairs: "
                              "(a, b) idempotent iff a+b and b are" % D.order)
    for e in _nz_idem(base):
        De = int(D.layout.space.compose_scalar([e, S.zero]))
        yield _transfer(case, base, e, D, De, guards)


# --- constrained 3x3 extension ----------------------------------------------------

def _h_families(base, e, s, t, sinv, tinv):
    """Coordinate triples (a, c, f) of the catalogued idempotents tied to e."""
    ne = int(base.neg[e])

    def mi(u, v):
        return int(base.mul[u, v])

    z = base.zero
    if s == base.one and t == base.one:
        return [(e, z, z), (e, e, z), (z, z, ne), (e, e, ne), (z, ne, e),
                (e, z, e), (z, ne, z)]
    if s != base.one and t == base.one:
        return [(e, z, z), (e, z, e), (z, mi(int(base.neg[sinv]), e), z)]
    if s == base.one and t != base.one:
        return [(e, z, z), (e, z, mi(tinv, e)), (z, ne, z)]
    return [(e, z, z), (z, mi(int(base.neg[sinv]), e), z),
            (e, z, mi(tinv, e)),
            (z, mi(int(base.neg[sinv]), e), mi(tinv, e))]


def _law_h_ring(case, H, guards):
    base = H.layout.base
    s, t = H.layout.params
    sinv, tinv = unit_inverse(base, s), unit_inverse(base, t)
    if sinv is None or tinv is None:
        yield case(H.provenance, None, "not-applicable",
                   reason="the catalogued families need unit parameters")
        return
    space = H.layout.space
    seen = set()
    for e in (int(x) for x in idempotents(base)):
        fams = _h_families(base, e, s, t, sinv, tinv)
        idxs = list(dict.fromkeys(
            int(space.compose_scalar(list(c))) for c in fams))
        seen.update(idxs)
        if e == base.zero:
            continue
        for E in idxs:
            if int(H.mul[E, E]) != E:
                yield case(H.provenance, H.labels[E], "violated",
                           reason="a catalogued element is not idempotent")
            else:
                yield _transfer(case, base, e, H, E, guards)
    yield case(H.provenance, None, "holds",
               detail="catalogued families cover %d of %d idempotents; "
                      "coverage is reported, not asserted"
                      % (len(seen), len(idempotents(H))))


# --- twisted triangular extension ---------------------------------------------------

def _law_twisted_u2(case, T, guards):
    base = T.layout.base
    images = T.layout.images
    space = T.layout.space
    for e in _nz_idem(base):
        E = int(space.compose_scalar([e, base.zero, e]))
        vT = _ok(T, "right_e_reversible", E, guards)
        vR = _ok(base, "right_e_reversible", e, guards)
        killed = images[e] == base.zero
        detail = ("twisted=%s base=%s; the map sends %s to %s (%s)"
                  % (vT, vR, base.labels[e], base.labels[images[e]],
                     "two-way" if killed else "forward only"))
        if vT and not vR:
            reason = "the forward direction broke"
        elif killed and vT != vR:
            reason = "the map kills the idempotent yet the verdicts differ"
        else:
            reason = None
        yield case.verdict(T.provenance, T.labels[E], reason is None,
                           reason, detail=detail)


def _twisted_u2_rejects(case, guards):
    # a table that fixes 0 and 1 but breaks addition must be rejected
    bad = "twist(Z(4),hom[#0,#1,#3,#2])"
    try:
        build_expr(bad, guards)
    except RingError as err:
        yield case(bad, None, "skipped",
                   reason="construction rejected: %s" % err)
    else:
        yield case(bad, None, "violated",
                   reason="a non-additive twisting map was accepted")


# --- pinned example scenes -----------------------------------------------------------

# every verdict and witness below was produced by the sweep engine once
# and then frozen; a drift in any of them is a bug, not new mathematics
_R16_TEXT = ("algebra(2,4,[[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]],"
             "[[0,1,0,0],[0,0,0,0],[0,0,0,0],[0,0,0,0]],"
             "[[0,0,1,0],[0,0,0,1],[0,0,0,0],[0,0,0,0]],"
             "[[0,0,0,1],[0,0,0,0],[0,0,0,0],[0,0,0,0]]])")
_TRS_TEXT = "trs(M(2,Z(2)),sub[[[1,0],[0,0]],[[0,1],[0,0]],[[0,0],[0,1]]],1)"
_DRIFT = "pinned expectation not reproduced"
_EVERY = "every nonzero idempotent"

# a scene row: prop of ring at idem (a label, None for a ring property,
# _EVERY for each nonzero idempotent) comes out want, and a fails verdict
# replays the witness its case carries, the pinned labels witness or the
# engine's; detail is worded over the row, at, status and witness labels
_Scene = namedtuple("_Scene", "scene ring prop idem want witness detail",
                    defaults=(None, "%(prop)s%(at)s expected %(want)s, "
                                    "engine says %(status)s"))
_SCENE_CHECKS = (
    _Scene("a", "U(2,Z(3))", "reversible", None, "fails"),
    _Scene("a", "U(2,Z(3))", "right_e_reversible", "[[1,1],[0,0]]", "holds"),
    _Scene("a", "U(2,Z(3))", "left_e_reversible", "[[1,1],[0,0]]", "fails"),
    _Scene("a", "U(2,Z(3))", "left_e_reversible", "[[0,0],[0,1]]", "holds"),
    _Scene("a", "U(2,Z(3))", "right_e_reversible", "[[0,0],[0,1]]", "fails"),
    _Scene("b", "M(3,Z(2))", "right_e_reversible",
           "[[1,0,0],[0,0,0],[0,0,1]]", "fails"),
    _Scene("b", "M(3,Z(2))", "left_e_reversible",
           "[[1,0,0],[0,0,0],[0,0,1]]", "fails"),
    _Scene("c", "U(2,Z(3))", "right_e_reversible", "[[1,0],[0,0]]", "holds"),
    _Scene("c", "U(2,Z(3))", "reversible", None, "fails"),
    _Scene("d", "U(2,Z(3))", "reflexive", None, "fails"),
    _Scene("e", _R16_TEXT, "semicommutative", None, "holds"),
    _Scene("e", _R16_TEXT, "reversible", None, "fails"),
    _Scene("h", "V(3,Z(2))", "right_e_reversible",
           "[[1,0,0],[0,1,0],[0,0,1]]", "holds"),
    _Scene("i", "U(2,Z(3))", "directly_finite", None, "holds"),
    _Scene("i", "U(2,Z(3))", "prime", None, "fails"),
    _Scene("i", "U(2,Z(3))", "right_e_reversible", "[[0,0],[0,1]]", "fails"),
    # D(2,U(2,Z(3))): the pinned witnesses use 2 for -1 mod 3
    _Scene("f", "D(2,U(2,Z(3)))", "right_e_reversible",
           "[[[[0,0],[0,1]],[[0,0],[0,0]]],[[[0,0],[0,0]],[[0,0],[0,1]]]]",
           "fails",
           ("[[[[0,1],[0,0]],[[2,1],[0,2]]],[[[0,0],[0,0]],[[0,1],[0,0]]]]",
            "[[[[0,1],[0,0]],[[2,1],[0,1]]],[[[0,0],[0,0]],[[0,1],[0,0]]]]"),
           "sweep fails with witness %(witness)s; the pinned witness pair "
           "replays too"),
    _Scene("g", "D(3,Z(2))", "right_e_reversible",
           "[[1,0,0],[0,1,0],[0,0,1]]", "fails",
           ("[[0,0,0],[0,0,1],[0,0,0]]", "[[0,1,0],[0,0,1],[0,0,0]]"),
           "AB = 0 with BA nonzero kills right reversibility at the identity"),
    _Scene("j", "K(Z(3),0)", "right_e_reversible", _EVERY, "fails",
           detail="expected fails with a replayable witness; engine says "
                  "%(status)s, witness %(witness)s"),
    _Scene("k", _TRS_TEXT, "right_e_reversible",
           "([[1,1],[0,0]],[[1,1],[0,0]])", "fails",
           detail="expected fails; engine says %(status)s with witness "
                  "%(witness)s"),
)

# (scene, ring, property, idempotent, witness element labels)
_SCENE_REPLAYS = (
    ("b", "M(3,Z(2))", "right_e_reversible", "[[1,0,0],[0,0,0],[0,0,1]]",
     ("[[0,0,0],[0,0,1],[0,0,0]]", "[[0,1,0],[0,0,0],[0,0,0]]")),
    ("b", "M(3,Z(2))", "left_e_reversible", "[[1,0,0],[0,0,0],[0,0,1]]",
     ("[[0,0,0],[0,0,1],[0,0,0]]", "[[0,1,0],[0,0,0],[0,0,0]]")),
    ("d", "U(2,Z(3))", "reflexive", None,
     ("[[0,1],[0,1]]", "[[1,1],[0,0]]", "[[0,0],[0,1]]")),
    ("i", "U(2,Z(3))", "right_e_reversible", "[[0,0],[0,1]]",
     ("[[0,1],[0,1]]", "[[1,1],[0,0]]")),
    ("k", _TRS_TEXT, "right_e_reversible", "([[1,1],[0,0]],[[1,1],[0,0]])",
     ("([[1,0],[0,0]],[[0,0],[0,0]])", "([[0,0],[1,0]],[[0,0],[0,0]])")),
)


def _scene_checks(case, rings, scenes, guards):
    """The cases of the given scenes' rows: skipped when a guard skipped
    the verdict, violated when idem is no nonzero idempotent."""
    for row in (r for r in _SCENE_CHECKS if r.scene in scenes):
        R = rings[row.ring]
        for e in _nz_idem(R) if row.idem == _EVERY else (row.idem,):
            try:
                v = check_property(R, row.prop, e, guards)
            except RingError as err:
                yield case(R.provenance, e, "violated", reason=_DRIFT,
                           detail="scene %s: %s" % (row.scene, err))
                continue
            if v.status == "skipped":
                yield case(R.provenance, v.idempotent, "skipped",
                           reason=v.reason)
                continue
            wit = v.witness if row.witness is None else tuple(
                resolve_element(R, x) for x in row.witness)
            ok = v.status == row.want and (
                v.status != "fails" or replay_witness(R, row.prop, e, wit))
            detail = ("scene %(scene)s: " + row.detail) % dict(
                row._asdict(), status=v.status,
                at="" if e is None else " relative to %s" % v.idempotent,
                witness=list(v.witness_labels or ()))
            yield case.verdict(R.provenance, v.idempotent, ok, _DRIFT,
                               detail=detail, witness=wit,
                               witness_labels=row.witness or v.witness_labels)


def _scene_census(case, scene, R, count, detail):
    """R has count nonzero idempotents; detail reads found and count."""
    ids = idempotents(R)            # 0 is always one of them
    found = dict(found=[R.labels[i] for i in ids], count=len(ids) - 1)
    return case.verdict(R.provenance, None, len(ids) - 1 == count, _DRIFT,
                        detail="scene %s: idempotent census: %s"
                               % (scene, detail % found))


def _scene_e_products(R16):
    """H(R16,1,1)'s codec, scene e's elements E, A, B, and the four
    products x*y the scene reads, keyed (x, y).  Each product comes
    from one row of H's own formula, so H's tables are never built."""
    codec, mulfn = _h_formula(R16, R16.one, R16.one)
    space = codec.space
    a, b = (resolve_element(R16, t) for t in ("[0,1,0,0]", "[0,0,1,0]"))
    E, A, B = (space.compose_scalar([x, x, R16.zero])
               for x in (R16.one, a, b))
    def product(x, y):          # one row of H's product table
        return int(_build_table(space, mulfn, table_dtype(space.order),
                                np.array([x]))[0, y])
    prod = {(x, y): product(x, y) for x, y in ((E, E), (A, B), (B, A))}
    prod[prod[B, A], E] = product(prod[B, A], E)
    return codec, (E, A, B), prod


def _scene_e_extension(case, guards):
    # the doubled-column idempotent of the 3x3 extension of the order-16
    # algebra: AB dies while BA survives E on the right, which are
    # replay_witness's conditions for right_e_reversible at (A, B)
    R16 = build_expr(_R16_TEXT, guards)
    codec, (E, A, B), prod = _scene_e_products(R16)
    zero = codec.space.compose_scalar([R16.zero] * 3)
    BA = prod[B, A]
    facts = (prod[E, E] == E and prod[A, B] == zero
             and prod[BA, E] == BA and BA != zero)
    labels = codec.labels()
    yield case.verdict("H(%s,1,1)" % R16.provenance, labels[E], facts, _DRIFT,
                       detail="scene e: AB = 0 while BAE = BA is nonzero for "
                              "the doubled witnesses; replay=%s" % facts,
                       witness=(A, B), witness_labels=(labels[A], labels[B]))


def _scene_g_constant_diag(case, D):
    # in the ambient full matrix ring, right-multiplying by the (2,2)
    # matrix unit keeps the diagonal and the top-middle entry; both must
    # vanish whenever the product the other way is zero
    c = D.layout.space.decompose(D.mul.T)      # [x, y]: coordinates of yx
    bad = int(((D.mul == D.zero) & ((c[0] | c[1]) != 0)).any(axis=1).sum())
    return case.verdict(D.provenance, None, bad == 0, _DRIFT,
                        detail="scene g: ambient check: whenever AB = 0, BA "
                               "has zero diagonal and zero top-middle entry; "
                               "%d violations" % bad)


def _law_examples(case, guards):
    # each ring of the table is built once; the cases come in a fixed
    # order: the checks of scenes a-i, the replays, then e, f, g, j and k
    rings = {text: build_expr(text, guards)
             for text in dict.fromkeys(row.ring for row in _SCENE_CHECKS)}
    yield from _scene_checks(case, rings, "abcdehi", guards)
    for scene, rtext, prop, idem, wit in _SCENE_REPLAYS:
        ok = replay_witness(rings[rtext], prop, idem, wit)
        yield case.verdict(rings[rtext].provenance, idem, ok, _DRIFT,
                           detail="scene %s: pinned witness %s replays to a "
                                  "genuine violation of %s: %s"
                                  % (scene, list(wit), prop, ok))
    yield from _scene_e_extension(case, guards)
    yield from _scene_checks(case, rings, "f", guards)
    yield _scene_census(case, "g", rings["D(3,Z(2))"], 1,
                        "only 0 and 1; found %(found)s")
    yield from _scene_checks(case, rings, "g", guards)
    yield _scene_g_constant_diag(case, rings["D(3,Z(2))"])
    yield _scene_census(case, "j", rings["K(Z(3),0)"], 19,
                        "%(count)d nonzero idempotents (expected 19)")
    yield from _scene_checks(case, rings, "jk", guards)


# --- law table and runners -------------------------------------------------------------

class _Law(NamedTuple):
    """One law.  check(case, R, guards) runs on each built corpus ring
    whose outermost constructor is named constructor (any when None)
    and which the law's guard, a "pair" or "triple" sweep guard, admits:
    the guard sizes the base ring when of_base, else R itself.  An entry
    past the guard gets one guard-skip case instead.  fixtures(case,
    guards) then runs once on rings it builds itself.  Both yield only
    cases made by case, the law's factory (see _Cases)."""

    statement: str
    check: Optional[Callable] = None
    fixtures: Optional[Callable] = None
    guard: str = "pair"
    constructor: Optional[str] = None
    of_base: bool = False


# in canonical order
_LAWS = {
    "ere": _Law(
        "right reversibility relative to e holds exactly when e is left "
        "semicentral and the corner ring at e is reversible; on the left "
        "it needs right semicentrality instead", _law_ere),
    "semiprime_collapse": _Law(
        "on a semiprime ring the four relative conditions (right "
        "reversible, right reduced, symmetric, right semicommutative) "
        "agree at every nonzero idempotent", _law_semiprime_collapse),
    "e_and_complement": _Law(
        "when some nonzero e and its nonzero complement 1-e both admit "
        "right reversibility, semiprime and reduced coincide and reduced "
        "forces reversible", _law_e_and_complement),
    "prime_domain": _Law(
        "a ring is a domain exactly when it is prime and right reversible "
        "relative to some nonzero idempotent; domains are directly finite",
        _law_prime_domain, guard="triple"),
    "min_abel": _Law(
        "every minimal left idempotent is left semicentral exactly when "
        "the ring is right reversible relative to each of them, and "
        "exactly when it is symmetric relative to each", _law_min_abel),
    "products": _Law(
        "a two-factor product is right reversible relative to a "
        "componentwise idempotent exactly when both factors are relative "
        "to their components", _law_products, constructor="prod"),
    "quotient_lift": _Law(
        "if the quotient is right reversible relative to the image of e "
        "and the ideal has no nonzero square-zero elements, the base ring "
        "is right reversible relative to e and e is left semicentral",
        _law_quotient_lift, constructor="quot", of_base=True),
    "annihilator_quotient": _Law(
        "for a ring symmetric relative to e, the quotient by a right "
        "annihilator ideal stays right reversible relative to the image "
        "of e", fixtures=_law_annihilator_quotient),
    "dorroh": _Law(
        "in the extension adjoining central scalars, (a, b) is idempotent "
        "exactly when a+b and b are, and right reversibility transfers "
        "between e and (e, 0)", _law_dorroh, constructor="dorroh"),
    "h_ring": _Law(
        "each catalogued matrix is idempotent in the constrained 3x3 "
        "extension, and right reversibility at the base idempotent matches "
        "right reversibility at each catalogued matrix", _law_h_ring,
        constructor="H"),
    "twisted_u2": _Law(
        "right reversibility at the doubled idempotent of the twisted "
        "triangular extension forces it in the base; when the twisting map "
        "kills the idempotent the two verdicts coincide", _law_twisted_u2,
        _twisted_u2_rejects, constructor="twist"),
    "examples": _Law(
        "pinned verdicts for the fixed example scenes reproduce exactly "
        "under the sweep engine", fixtures=_law_examples),
}

LAW_ORDER = tuple(_LAWS)


def reads_corpus(laws) -> bool:
    """Whether any of the named laws reads the corpus."""
    return any(_LAWS[law].check is not None for law in laws)


def run_law(law: str, corpus: Corpus,
            guards: Guards = DEFAULT_GUARDS) -> LawReport:
    """Sweep one law over the corpus: its checker on each entry within
    its guard, one guard-skip case for each entry past it, then its
    fixtures.  An entry left unbuilt is sized by its order and never
    checked; one only parsed (ring and order None) is passed over."""
    (law,) = select_laws([law])
    t0 = time.perf_counter()
    spec, case, cases = _LAWS[law], _Cases(law), []
    if spec.check is not None:
        for ent in corpus.entries:
            R = ent.ring
            if spec.constructor not in (None, ent.node.name) or (
                    R is None and ent.order is None):
                continue
            sized = ent if R is None else R.layout.base if spec.of_base else R
            skip = _guard_skip(guards, spec.guard, sized.order)
            if skip:
                cases.append(case(serialize(ent.node), None, "skipped",
                                  reason=skip))
            else:
                cases.extend(spec.check(case, R, guards))
    if spec.fixtures is not None:
        cases.extend(spec.fixtures(case, guards))
    return LawReport(law, spec.statement, cases, time.perf_counter() - t0)


def select_laws(only=None) -> list:
    """Names of the laws to sweep, in canonical order: all of them by
    default, else those in only (dashes are fine).  Unknown names raise
    ValueError, so a caller can check them before building a corpus."""
    if only is None:
        return list(LAW_ORDER)
    wanted = {w.replace("-", "_") for w in only}
    for w in wanted:
        if w not in _LAWS:
            raise ValueError("unknown law %r (known: %s)"
                             % (w, ", ".join(LAW_ORDER)))
    return [law for law in LAW_ORDER if law in wanted]


def run_laws(corpus: Corpus, guards: Guards = DEFAULT_GUARDS,
             only=None) -> list:
    """Sweep laws in their canonical order (all of them by default)."""
    return [run_law(law, corpus, guards) for law in select_laws(only)]

