"""Executable laws swept over a ring corpus, plus a registry of pinned scenes.

Each law quantifies one equivalence or transfer statement over every
applicable (ring, idempotent) instance the corpus offers.  A violated
case means an implementation bug, never new mathematics, so violations
carry replayable witnesses and the reporting errs on the loud side.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from importlib import resources
from typing import Optional

import numpy as np

from .core import DEFAULT_GUARDS, Guards, RingError, RingTable, SizeGuardError
from .core import verify_axioms
from .construct import (build_expr, corner, is_ideal, quotient,
                        resolve_element)
from .dsl import ParseError, parse
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
    """One corpus line: source text, parsed node, built ring."""

    text: str
    node: object
    ring: Optional[RingTable]
    verified: Optional[bool]   # None when the size guard skipped the check
    note: Optional[str] = None


@dataclass
class Corpus:
    source: str
    entries: list
    elapsed: float = 0.0

    def rings(self):
        return [e for e in self.entries if e.ring is not None]


def corpus_from_text(text: str, source: str = "<corpus>",
                     guards: Guards = DEFAULT_GUARDS) -> Corpus:
    """Parse, build and axiom-check a corpus manifest.

    Lines are construction expressions; blank lines and '#' comments are
    ignored.  Every entry must build and, when small enough for the
    triple guard, pass the axiom check; oversized entries carry a note
    instead.
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
        try:
            ring = build_expr(node, guards)
        except RingError as err:
            raise RingError("%s line %d: %s" % (source, lineno, err))
        try:
            report = verify_axioms(ring, guards)
            if not report.passed:
                raise RingError("%s line %d: axiom check failed: %s"
                                % (source, lineno, report.violations))
            entries.append(CorpusEntry(line, node, ring, True))
        except SizeGuardError as err:
            entries.append(CorpusEntry(line, node, ring, None,
                                       "axiom check skipped: %s" % err))
    return Corpus(source, entries, time.perf_counter() - t0)


def load_corpus(path: str, guards: Guards = DEFAULT_GUARDS) -> Corpus:
    """Read a corpus manifest from a file."""
    with open(path) as fh:
        text = fh.read()
    return corpus_from_text(text, path, guards)


def default_corpus(guards: Guards = DEFAULT_GUARDS) -> Corpus:
    """The corpus bundled with the package."""
    text = resources.files("finring").joinpath("corpus.txt").read_text()
    return corpus_from_text(text, "builtin", guards)


def _nz_idem(R):
    return [int(f) for f in idempotents(R) if int(f) != R.zero]


def _ok(R, prop, e, guards):
    return check_property(R, prop, e, guards).status == "holds"


def _pair_skip(law, R, guards, order=None):
    """R's case skipped: order (R's own by default) is past the guard."""
    return LawCase(law, R.provenance, None, "skipped",
                   reason="order %d exceeds the pair sweep guard %d"
                          % (order or R.order, guards.pair_cap))


# --- corner characterization -------------------------------------------------

def _law_ere(corpus, guards):
    cases = []
    for ent in corpus.rings():
        R = ent.ring
        if R.order > guards.pair_cap:
            cases.append(_pair_skip("ere", R, guards))
            continue
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
            if okr and okl:
                cases.append(LawCase("ere", R.provenance, R.labels[f],
                                     "holds", detail=detail))
            else:
                side = "right" if not okr else "left"
                cases.append(LawCase("ere", R.provenance, R.labels[f],
                                     "violated", detail=detail,
                                     reason="%s-side characterization broke"
                                            % side))
    return cases


# --- semiprime collapse ------------------------------------------------------

_COLLAPSE_LEGS = ("right_e_reversible", "right_e_reduced", "e_symmetric",
                  "right_e_semicommutative")


def _law_semiprime_collapse(corpus, guards):
    cases = []
    for ent in corpus.rings():
        R = ent.ring
        sp = check_property(R, "semiprime", None, guards)
        if sp.status == "skipped":
            cases.append(LawCase("semiprime_collapse", R.provenance, None,
                                 "skipped", reason=sp.reason))
            continue
        if sp.status == "fails":
            cases.append(LawCase("semiprime_collapse", R.provenance, None,
                                 "not-applicable", witness=sp.witness,
                                 witness_labels=sp.witness_labels,
                                 reason="not semiprime"))
            continue
        for f in _nz_idem(R):
            legs = [(p, check_property(R, p, f, guards))
                    for p in _COLLAPSE_LEGS]
            live = [(p, v) for p, v in legs if v.status != "skipped"]
            dropped = [p for p, v in legs if v.status == "skipped"]
            if len(live) < 2:
                cases.append(LawCase("semiprime_collapse", R.provenance,
                                     R.labels[f], "skipped",
                                     reason="guards left fewer than two "
                                            "conditions to compare"))
                continue
            verdicts = [(p, v.status == "holds") for p, v in live]
            detail = "; ".join("%s=%s" % pv for pv in verdicts)
            if dropped:
                detail += "; skipped: " + ", ".join(dropped)
            if len({val for _, val in verdicts}) == 1:
                cases.append(LawCase("semiprime_collapse", R.provenance,
                                     R.labels[f], "holds", detail=detail))
            else:
                bad = next(v for _, v in live if v.status == "fails")
                cases.append(LawCase("semiprime_collapse", R.provenance,
                                     R.labels[f], "violated",
                                     witness=bad.witness,
                                     witness_labels=bad.witness_labels,
                                     detail=detail,
                                     reason="conditions disagree on a "
                                            "semiprime ring"))
    return cases


# --- complemented idempotent pair --------------------------------------------

def _law_e_and_complement(corpus, guards):
    cases = []
    for ent in corpus.rings():
        R = ent.ring
        if R.order > guards.pair_cap:
            cases.append(_pair_skip("e_and_complement", R, guards))
            continue
        good = []
        for f in _nz_idem(R):
            g = int(R.add[R.one, R.neg[f]])
            if g == R.zero:
                continue
            if _ok(R, "right_e_reversible", f, guards) and \
                    _ok(R, "right_e_reversible", g, guards):
                good.append(f)
        if not good:
            cases.append(LawCase("e_and_complement", R.provenance, None,
                                 "not-applicable",
                                 reason="no nonzero idempotent e with both "
                                        "e and 1-e right-reversible-relative"))
            continue
        sp = _ok(R, "semiprime", None, guards)
        red = _ok(R, "reduced", None, guards)
        rev = _ok(R, "reversible", None, guards)
        # z/12 at e=4 is reversible but not semiprime, so only the
        # provable directions are asserted: semiprime == reduced, and
        # reduced implies reversible
        ok = (sp == red) and (rev or not red)
        detail = ("semiprime=%s reduced=%s reversible=%s; %d admissible "
                  "idempotents" % (sp, red, rev, len(good)))
        cases.append(LawCase("e_and_complement", R.provenance,
                             R.labels[good[0]],
                             "holds" if ok else "violated", detail=detail,
                             reason=None if ok else "provable directions "
                                                    "disagree"))
    return cases


# --- prime versus domain ------------------------------------------------------

def _law_prime_domain(corpus, guards):
    cases = []
    for ent in corpus.rings():
        R = ent.ring
        if R.order > guards.triple_cap:
            cases.append(LawCase("prime_domain", R.provenance, None,
                                 "skipped",
                                 reason="order %d exceeds the triple sweep "
                                        "guard %d" % (R.order,
                                                      guards.triple_cap)))
            continue
        some = None
        for f in _nz_idem(R):
            if _ok(R, "right_e_reversible", f, guards):
                some = f
                break
        pr = _ok(R, "prime", None, guards)
        dom = _ok(R, "domain", None, guards)
        fin = _ok(R, "directly_finite", None, guards)
        ok = ((pr and some is not None) == dom) and (fin or not dom)
        detail = ("prime=%s domain=%s directly_finite=%s; reversible-relative "
                  "witness=%s" % (pr, dom, fin,
                                  R.labels[some] if some is not None else None))
        cases.append(LawCase("prime_domain", R.provenance, None,
                             "holds" if ok else "violated", detail=detail,
                             reason=None if ok else "domain equivalence or "
                                                    "direct finiteness broke"))
    return cases


# --- minimal idempotents ------------------------------------------------------

def _law_min_abel(corpus, guards):
    cases = []
    for ent in corpus.rings():
        R = ent.ring
        if R.order > guards.pair_cap:
            cases.append(_pair_skip("min_abel", R, guards))
            continue
        mel = [int(x) for x in minimal_left_idempotents(R)]
        ma = is_left_min_abel(R)
        leg_rev = all(_ok(R, "right_e_reversible", f, guards) for f in mel)
        if R.order > guards.triple_cap:
            leg_sym = None
        else:
            leg_sym = all(_ok(R, "e_symmetric", f, guards) for f in mel)
        ok = (ma == leg_rev) and (leg_sym is None or ma == leg_sym)
        detail = ("min-abel=%s over %d minimal left idempotents; "
                  "right-reversible leg=%s; symmetric leg=%s"
                  % (ma, len(mel), leg_rev,
                     "skipped" if leg_sym is None else leg_sym))
        cases.append(LawCase("min_abel", R.provenance, None,
                             "holds" if ok else "violated", detail=detail,
                             reason=None if ok else "legs disagree"))
    return cases


# --- products -----------------------------------------------------------------

def _law_products(corpus, guards):
    cases = []
    for ent in corpus.rings():
        if ent.node.name != "prod":
            continue
        P = ent.ring
        if len(P.layout.comps) != 2:
            cases.append(LawCase("products", P.provenance, None, "skipped",
                                 reason="only two-factor products are swept"))
            continue
        if P.order > guards.pair_cap:
            cases.append(_pair_skip("products", P, guards))
            continue
        F = P.layout.comps
        space = P.layout.space
        for e1 in _nz_idem(F[0]):
            v1 = _ok(F[0], "right_e_reversible", e1, guards)
            for e2 in _nz_idem(F[1]):
                v2 = _ok(F[1], "right_e_reversible", e2, guards)
                E = int(space.compose_scalar([e1, e2]))
                vp = _ok(P, "right_e_reversible", E, guards)
                ok = vp == (v1 and v2)
                detail = ("components %s -> %s, %s -> %s; product -> %s"
                          % (F[0].labels[e1], v1, F[1].labels[e2], v2, vp))
                cases.append(LawCase("products", P.provenance, P.labels[E],
                                     "holds" if ok else "violated",
                                     detail=detail,
                                     reason=None if ok else "componentwise "
                                                            "equivalence broke"))
    return cases


# --- lifting along a quotient ---------------------------------------------------

def _law_quotient_lift(corpus, guards):
    cases = []
    for ent in corpus.rings():
        if ent.node.name != "quot":
            continue
        Q = ent.ring
        base = Q.layout.base
        I = Q._cache["ideal"]
        proj = Q._cache["projection"]
        sq = [int(x) for x in I
              if int(x) != base.zero
              and int(base.mul[x, x]) == base.zero]
        if sq:
            cases.append(LawCase("quotient_lift", Q.provenance, None,
                                 "not-applicable",
                                 witness=(sq[0],),
                                 witness_labels=(base.labels[sq[0]],),
                                 reason="the ideal has a nonzero square-zero "
                                        "element, so it is not reduced as a "
                                        "rng"))
            continue
        if base.order > guards.pair_cap:
            cases.append(_pair_skip("quotient_lift", Q, guards, base.order))
            continue
        for e in _nz_idem(base):
            eb = int(proj[e])
            if eb == Q.zero:
                cases.append(LawCase("quotient_lift", Q.provenance,
                                     base.labels[e], "not-applicable",
                                     reason="the idempotent falls into the "
                                            "ideal"))
                continue
            if not _ok(Q, "right_e_reversible", eb, guards):
                cases.append(LawCase("quotient_lift", Q.provenance,
                                     base.labels[e], "holds",
                                     detail="premise fails: the quotient is "
                                            "not right reversible relative "
                                            "to %s" % Q.labels[eb]))
                continue
            lift = _ok(base, "right_e_reversible", e, guards)
            semi = is_left_semicentral(base, e)
            ok = lift and semi
            detail = ("quotient reversible relative to %s; base lift=%s, "
                      "left semicentral=%s" % (Q.labels[eb], lift, semi))
            cases.append(LawCase("quotient_lift", Q.provenance,
                                 base.labels[e],
                                 "holds" if ok else "violated", detail=detail,
                                 reason=None if ok else "conclusion fails "
                                                        "under a true premise"))
    return cases


# --- quotient by a right annihilator --------------------------------------------

# corpus lines carry no designated subset, so this law runs on fixtures
_ANN_FIXTURES = (
    ("Z(12)", "4"),
    ("Z(12)", "0"),
    ("Z(12)", "1"),
    ("Z(6)", "2"),
    ("Z(8)", "2"),
)


def _law_annihilator_quotient(corpus, guards):
    cases = []
    for rtext, jtext in _ANN_FIXTURES:
        R = build_expr(rtext, guards)
        j = resolve_element(R, jtext)
        ann = right_annihilator(R, [j])
        jtag = "annihilated set {%s}" % R.labels[j]
        if R.one in set(int(x) for x in ann):
            cases.append(LawCase("annihilator_quotient", R.provenance, None,
                                 "skipped",
                                 reason="%s: the annihilator is improper"
                                        % jtag))
            continue
        if not is_ideal(R, ann):
            cases.append(LawCase("annihilator_quotient", R.provenance, None,
                                 "violated",
                                 reason="%s: the right annihilator is not "
                                        "two-sided, which the symmetric "
                                        "hypothesis should prevent" % jtag))
            continue
        Q, proj = quotient(R, [int(x) for x in ann], guards)
        for e in _nz_idem(R):
            sym = check_property(R, "e_symmetric", e, guards)
            if sym.status == "skipped":
                cases.append(LawCase("annihilator_quotient", R.provenance,
                                     R.labels[e], "skipped",
                                     reason=sym.reason))
                continue
            if sym.status == "fails":
                cases.append(LawCase("annihilator_quotient", R.provenance,
                                     R.labels[e], "not-applicable",
                                     reason="%s: the ring is not symmetric "
                                            "relative to this idempotent"
                                            % jtag))
                continue
            eb = int(proj[e])
            if eb == Q.zero:
                cases.append(LawCase("annihilator_quotient", R.provenance,
                                     R.labels[e], "not-applicable",
                                     reason="%s: the idempotent collapses "
                                            "into the annihilator" % jtag))
                continue
            ok = _ok(Q, "right_e_reversible", eb, guards)
            detail = ("%s: quotient %s tested relative to %s"
                      % (jtag, Q.provenance, Q.labels[eb]))
            cases.append(LawCase("annihilator_quotient", R.provenance,
                                 R.labels[e], "holds" if ok else "violated",
                                 detail=detail,
                                 reason=None if ok else "the quotient lost "
                                                        "right reversibility"))
    return cases


# --- unitalization ---------------------------------------------------------------

def _law_dorroh(corpus, guards):
    cases = []
    for ent in corpus.rings():
        if ent.node.name != "dorroh":
            continue
        D = ent.ring
        base, S = D.layout.comps
        m = S.layout.members
        cen = set(int(x) for x in center(base))
        if not all(int(x) in cen for x in m):
            cases.append(LawCase("dorroh", D.provenance, None,
                                 "not-applicable",
                                 reason="the adjoined scalars are not "
                                        "central in the base"))
            continue
        if D.order > guards.pair_cap:
            cases.append(_pair_skip("dorroh", D, guards))
            continue
        isid = np.zeros(base.order, dtype=bool)
        isid[idempotents(base)] = True
        expect = isid[base.add[:, m]] & isid[m][None, :]
        actual = np.zeros(D.order, dtype=bool)
        actual[idempotents(D)] = True
        shape_ok = bool(np.array_equal(actual.reshape(base.order, len(m)),
                                       expect))
        cases.append(LawCase("dorroh", D.provenance, None,
                             "holds" if shape_ok else "violated",
                             detail="idempotent shape checked over %d pairs: "
                                    "(a, b) idempotent iff a+b and b are"
                                    % D.order,
                             reason=None if shape_ok else "idempotent "
                                                          "characterization "
                                                          "broke"))
        space = D.layout.space
        for e in _nz_idem(base):
            De = int(space.compose_scalar([e, S.zero]))
            vd = _ok(D, "right_e_reversible", De, guards)
            vb = _ok(base, "right_e_reversible", e, guards)
            ok = vd == vb
            detail = ("base idempotent %s -> %s; extension -> %s"
                      % (base.labels[e], vb, vd))
            cases.append(LawCase("dorroh", D.provenance, D.labels[De],
                                 "holds" if ok else "violated", detail=detail,
                                 reason=None if ok else "transfer "
                                                        "equivalence broke"))
    return cases


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


def _law_h_ring(corpus, guards):
    cases = []
    for ent in corpus.rings():
        if ent.node.name != "H":
            continue
        H = ent.ring
        base, s, t = H.layout.base, H.layout.s, H.layout.t
        sinv = unit_inverse(base, s)
        tinv = unit_inverse(base, t)
        if H.order > guards.pair_cap:
            cases.append(_pair_skip("h_ring", H, guards))
            continue
        space = H.layout.space
        seen = set()
        for e in (int(x) for x in idempotents(base)):
            fams = _h_families(base, e, s, t, sinv, tinv)
            idxs = list(dict.fromkeys(
                int(space.compose_scalar(list(c))) for c in fams))
            seen.update(idxs)
            if e == base.zero:
                continue
            ve = _ok(base, "right_e_reversible", e, guards)
            for E in idxs:
                if int(H.mul[E, E]) != E:
                    cases.append(LawCase("h_ring", H.provenance, H.labels[E],
                                         "violated",
                                         reason="a catalogued element is not "
                                                "idempotent"))
                    continue
                vE = _ok(H, "right_e_reversible", E, guards)
                ok = vE == ve
                detail = ("base idempotent %s -> %s; extension -> %s"
                          % (base.labels[e], ve, vE))
                cases.append(LawCase("h_ring", H.provenance, H.labels[E],
                                     "holds" if ok else "violated",
                                     detail=detail,
                                     reason=None if ok else "transfer "
                                                            "equivalence "
                                                            "broke"))
        total = len(idempotents(H))
        cases.append(LawCase("h_ring", H.provenance, None, "holds",
                             detail="catalogued families cover %d of %d "
                                    "idempotents; coverage is reported, not "
                                    "asserted" % (len(seen), total)))
    return cases


# --- twisted triangular extension ---------------------------------------------------

def _law_twisted_u2(corpus, guards):
    cases = []
    for ent in corpus.rings():
        if ent.node.name != "twist":
            continue
        T = ent.ring
        base = T.layout.base
        images = [resolve_element(base, im) for im in ent.node.args[1]]
        if T.order > guards.pair_cap:
            cases.append(_pair_skip("twisted_u2", T, guards))
            continue
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
                cases.append(LawCase("twisted_u2", T.provenance, T.labels[E],
                                     "violated", detail=detail,
                                     reason="the forward direction broke"))
            elif killed and vT != vR:
                cases.append(LawCase("twisted_u2", T.provenance, T.labels[E],
                                     "violated", detail=detail,
                                     reason="the map kills the idempotent "
                                            "yet the verdicts differ"))
            else:
                cases.append(LawCase("twisted_u2", T.provenance, T.labels[E],
                                     "holds", detail=detail))
    # a table that fixes 0 and 1 but breaks addition must be rejected
    bad = "twist(Z(4),hom[#0,#1,#3,#2])"
    try:
        build_expr(bad, guards)
    except RingError as err:
        cases.append(LawCase("twisted_u2", bad, None, "skipped",
                             reason="construction rejected: %s" % err))
    else:
        cases.append(LawCase("twisted_u2", bad, None, "violated",
                             reason="a non-additive twisting map was "
                                    "accepted"))
    return cases


# --- pinned example scenes -----------------------------------------------------------

# every verdict and witness below was produced by the sweep engine once
# and then frozen; a drift in any of them is a bug, not new mathematics
_R16_TEXT = ("algebra(2,4,[[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]],"
             "[[0,1,0,0],[0,0,0,0],[0,0,0,0],[0,0,0,0]],"
             "[[0,0,1,0],[0,0,0,1],[0,0,0,0],[0,0,0,0]],"
             "[[0,0,0,1],[0,0,0,0],[0,0,0,0],[0,0,0,0]]])")
_TRS_TEXT = "trs(M(2,Z(2)),sub[[[1,0],[0,0]],[[0,1],[0,0]],[[0,0],[0,1]]],1)"

# (scene, ring, property, idempotent, expected status)
_SCENE_CHECKS = (
    ("a", "U(2,Z(3))", "reversible", None, "fails"),
    ("a", "U(2,Z(3))", "right_e_reversible", "[[1,1],[0,0]]", "holds"),
    ("a", "U(2,Z(3))", "left_e_reversible", "[[1,1],[0,0]]", "fails"),
    ("a", "U(2,Z(3))", "left_e_reversible", "[[0,0],[0,1]]", "holds"),
    ("a", "U(2,Z(3))", "right_e_reversible", "[[0,0],[0,1]]", "fails"),
    ("b", "M(3,Z(2))", "right_e_reversible",
     "[[1,0,0],[0,0,0],[0,0,1]]", "fails"),
    ("b", "M(3,Z(2))", "left_e_reversible",
     "[[1,0,0],[0,0,0],[0,0,1]]", "fails"),
    ("c", "U(2,Z(3))", "right_e_reversible", "[[1,0],[0,0]]", "holds"),
    ("c", "U(2,Z(3))", "reversible", None, "fails"),
    ("d", "U(2,Z(3))", "reflexive", None, "fails"),
    ("e", _R16_TEXT, "semicommutative", None, "holds"),
    ("e", _R16_TEXT, "reversible", None, "fails"),
    ("h", "V(3,Z(2))", "right_e_reversible",
     "[[1,0,0],[0,1,0],[0,0,1]]", "holds"),
    ("i", "U(2,Z(3))", "directly_finite", None, "holds"),
    ("i", "U(2,Z(3))", "prime", None, "fails"),
    ("i", "U(2,Z(3))", "right_e_reversible", "[[0,0],[0,1]]", "fails"),
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
    ("k", _TRS_TEXT, "right_e_reversible",
     "([[1,1],[0,0]],[[1,1],[0,0]])",
     ("([[1,0],[0,0]],[[0,0],[0,0]])", "([[0,0],[1,0]],[[0,0],[0,0]])")),
)


def _scene_case(scene, ring, idem, ok, detail, witness=None, labels=None):
    return LawCase("examples", ring, idem, "holds" if ok else "violated",
                   witness=witness, witness_labels=labels,
                   detail="scene %s: %s" % (scene, detail),
                   reason=None if ok else "pinned expectation not reproduced")


def _scenes_simple(guards):
    cases = []
    built = {}
    for scene, rtext, prop, idem, want in _SCENE_CHECKS:
        if rtext not in built:
            built[rtext] = build_expr(rtext, guards)
        R = built[rtext]
        v = check_property(R, prop, idem, guards)
        ok = v.status == want
        detail = ("%s relative to %s expected %s, engine says %s"
                  % (prop, idem, want, v.status) if idem is not None
                  else "%s expected %s, engine says %s" % (prop, want,
                                                           v.status))
        cases.append(_scene_case(scene, R.provenance, idem, ok, detail,
                                 v.witness, v.witness_labels))
    for scene, rtext, prop, idem, wit in _SCENE_REPLAYS:
        if rtext not in built:
            built[rtext] = build_expr(rtext, guards)
        R = built[rtext]
        ok = replay_witness(R, prop, idem, wit)
        cases.append(_scene_case(scene, R.provenance, idem, ok,
                                 "pinned witness %s replays to a genuine "
                                 "violation of %s: %s" % (list(wit), prop, ok)))
    return cases


def _scene_e_extension(guards):
    # the doubled-column idempotent in the 3x3 extension of the 16-element
    # algebra: a product of witnesses dies, its reverse survives the
    # idempotent on the right
    R16 = build_expr(_R16_TEXT, guards)
    H = build_expr("H(%s,1,1)" % _R16_TEXT, guards)
    a = resolve_element(R16, "[0,1,0,0]")
    b = resolve_element(R16, "[0,0,1,0]")
    space = H.layout.space
    E = int(space.compose_scalar([R16.one, R16.one, 0]))
    A = int(space.compose_scalar([a, a, 0]))
    B = int(space.compose_scalar([b, b, 0]))
    BA = int(H.mul[B, A])
    facts = (int(H.mul[E, E]) == E
             and int(H.mul[A, B]) == H.zero
             and int(H.mul[BA, E]) == BA
             and BA != H.zero
             and replay_witness(H, "right_e_reversible", E, (A, B)))
    return [_scene_case("e", H.provenance, H.labels[E], facts,
                        "AB = 0 while BAE = BA is nonzero for the doubled "
                        "witnesses; replay=%s" % facts,
                        witness=(A, B),
                        labels=(H.labels[A], H.labels[B]))]


def _scene_f_nested(guards):
    # constant-diagonal 2x2 over the 3x3-triangular base: the pinned
    # witnesses use 2 for -1 so nothing degenerates mod 3
    D = build_expr("D(2,U(2,Z(3)))", guards)
    U = build_expr("U(2,Z(3))", guards)
    su = U.layout.space
    sd = D.layout.space
    sA = int(su.compose_scalar([0, 1, 0]))
    uA = int(su.compose_scalar([2, 1, 2]))
    sB = int(su.compose_scalar([0, 1, 0]))
    uB = int(su.compose_scalar([2, 1, 1]))
    sE = int(su.compose_scalar([0, 0, 1]))
    A = int(sd.compose_scalar([sA, uA]))
    B = int(sd.compose_scalar([sB, uB]))
    E = int(sd.compose_scalar([sE, U.zero]))
    v = check_property(D, "right_e_reversible", E, guards)
    facts = (int(D.mul[E, E]) == E
             and int(D.mul[A, B]) == D.zero
             and int(D.mul[int(D.mul[B, A]), E]) != D.zero
             and v.status == "fails"
             and replay_witness(D, "right_e_reversible", E, (A, B)))
    return [_scene_case("f", D.provenance, D.labels[E], facts,
                        "sweep fails with witness %s; the pinned witness "
                        "pair replays too" % (list(v.witness_labels or ()),),
                        witness=(A, B),
                        labels=(D.labels[A], D.labels[B]))]


def _scene_g_constant_diag(guards):
    D = build_expr("D(3,Z(2))", guards)
    space = D.layout.space
    ids = sorted(int(x) for x in idempotents(D))
    census = ids == sorted((D.zero, D.one))
    A = int(space.compose_scalar([0, 0, 0, 1]))
    B = int(space.compose_scalar([0, 1, 0, 1]))
    BA = int(D.mul[B, A])
    wit = (int(D.mul[A, B]) == D.zero and BA != D.zero
           and check_property(D, "right_e_reversible", D.one,
                              guards).status == "fails")
    # in the ambient full matrix ring, right-multiplying by the (2,2)
    # matrix unit keeps the diagonal and the top-middle entry; both must
    # vanish whenever the product the other way is zero
    dec = space.decompose
    mul = D.mul
    bad = 0
    for x in range(D.order):
        zz = np.nonzero(mul[x] == D.zero)[0]
        coords = dec(mul[zz, x])
        if np.any(coords[0] != 0) or np.any(coords[1] != 0):
            bad += 1
    return [
        _scene_case("g", D.provenance, None, census,
                    "idempotent census: only 0 and 1; found %s"
                    % [D.labels[i] for i in ids]),
        _scene_case("g", D.provenance, D.labels[D.one], wit,
                    "AB = 0 with BA nonzero kills right reversibility at "
                    "the identity",
                    witness=(A, B), labels=(D.labels[A], D.labels[B])),
        _scene_case("g", D.provenance, None, bad == 0,
                    "ambient check: whenever AB = 0, BA has zero diagonal "
                    "and zero top-middle entry; %d violations" % bad),
    ]


def _scene_j_anti_delta(guards):
    K = build_expr("K(Z(3),0)", guards)
    ids = _nz_idem(K)
    cases = [_scene_case("j", K.provenance, None, len(ids) == 19,
                         "idempotent census: %d nonzero idempotents "
                         "(expected 19)" % len(ids))]
    for e in ids:
        v = check_property(K, "right_e_reversible", e, guards)
        ok = (v.status == "fails"
              and replay_witness(K, "right_e_reversible", e, v.witness[:2]))
        cases.append(_scene_case("j", K.provenance, K.labels[e], ok,
                                 "expected fails with a replayable witness; "
                                 "engine says %s, witness %s"
                                 % (v.status, list(v.witness_labels or ())),
                                 v.witness, v.witness_labels))
    return cases


def _scene_k_nested_product(guards):
    T = build_expr(_TRS_TEXT, guards)
    E = resolve_element(T, "([[1,1],[0,0]],[[1,1],[0,0]])")
    v = check_property(T, "right_e_reversible", E, guards)
    ok = int(T.mul[E, E]) == E and v.status == "fails"
    return [_scene_case("k", T.provenance, T.labels[E], ok,
                        "expected fails; engine says %s with witness %s"
                        % (v.status, list(v.witness_labels or ())),
                        v.witness, v.witness_labels)]


def _law_examples(corpus, guards):
    cases = _scenes_simple(guards)
    cases += _scene_e_extension(guards)
    cases += _scene_f_nested(guards)
    cases += _scene_g_constant_diag(guards)
    cases += _scene_j_anti_delta(guards)
    cases += _scene_k_nested_product(guards)
    return cases


# --- law table and runners -------------------------------------------------------------

# name -> (statement, checker), in canonical order
_LAWS = {
    "ere": ("right reversibility relative to e holds exactly when e is left "
            "semicentral and the corner ring at e is reversible; on the left "
            "it needs right semicentrality instead",
            _law_ere),
    "semiprime_collapse": ("on a semiprime ring the four relative conditions "
                           "(right reversible, right reduced, symmetric, "
                           "right semicommutative) agree at every nonzero "
                           "idempotent",
                           _law_semiprime_collapse),
    "e_and_complement": ("when some nonzero e and its nonzero complement 1-e "
                         "both admit right reversibility, semiprime and "
                         "reduced coincide and reduced forces reversible",
                         _law_e_and_complement),
    "prime_domain": ("a ring is a domain exactly when it is prime and right "
                     "reversible relative to some nonzero idempotent; domains "
                     "are directly finite",
                     _law_prime_domain),
    "min_abel": ("every minimal left idempotent is left semicentral exactly "
                 "when the ring is right reversible relative to each of "
                 "them, and exactly when it is symmetric relative to each",
                 _law_min_abel),
    "products": ("a two-factor product is right reversible relative to a "
                 "componentwise idempotent exactly when both factors are "
                 "relative to their components",
                 _law_products),
    "quotient_lift": ("if the quotient is right reversible relative to the "
                      "image of e and the ideal has no nonzero square-zero "
                      "elements, the base ring is right reversible relative "
                      "to e and e is left semicentral",
                      _law_quotient_lift),
    "annihilator_quotient": ("for a ring symmetric relative to e, the "
                             "quotient by a right annihilator ideal stays "
                             "right reversible relative to the image of e",
                             _law_annihilator_quotient),
    "dorroh": ("in the extension adjoining central scalars, (a, b) is "
               "idempotent exactly when a+b and b are, and right "
               "reversibility transfers between e and (e, 0)",
               _law_dorroh),
    "h_ring": ("each catalogued matrix is idempotent in the constrained 3x3 "
               "extension, and right reversibility at the base idempotent "
               "matches right reversibility at each catalogued matrix",
               _law_h_ring),
    "twisted_u2": ("right reversibility at the doubled idempotent of the "
                   "twisted triangular extension forces it in the base; when "
                   "the twisting map kills the idempotent the two verdicts "
                   "coincide",
                   _law_twisted_u2),
    "examples": ("pinned verdicts for the fixed example scenes reproduce "
                 "exactly under the sweep engine",
                 _law_examples),
}

LAW_ORDER = tuple(_LAWS)


def run_law(law: str, corpus: Corpus,
            guards: Guards = DEFAULT_GUARDS) -> LawReport:
    """Sweep one law over the corpus."""
    (law,) = select_laws([law])
    t0 = time.perf_counter()
    statement, checker = _LAWS[law]
    cases = checker(corpus, guards)
    return LawReport(law, statement, cases, time.perf_counter() - t0)


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

