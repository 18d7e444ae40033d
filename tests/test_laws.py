"""The law suite over the shipped manifest: nothing may come out violated."""

import contextlib
import dataclasses
import hashlib
import io
import json

import pytest

import finring.construct as construct
import finring.laws as laws
from finring import (
    DEFAULT_GUARDS, LAW_ORDER, Corpus, Guards, ParseError, RingError,
    RingTable, build_expr, corpus_from_text, default_corpus, load_corpus,
    replay_witness, run_law, run_laws,
)
from finring.cli import main as cli_main
from finring.construct import expr_order
from finring.core import _guard_skip
from finring.laws import reads_corpus

from conftest import built_whole

# totals pinned after a full engine pass over the shipped manifest; any
# drift here means either the manifest or the checkers changed
EXPECTED_TOTALS = {
    "ere": {"holds": 375, "violated": 0, "not-applicable": 0, "skipped": 1},
    "semiprime_collapse": {"holds": 174, "violated": 0,
                           "not-applicable": 21, "skipped": 1},
    "e_and_complement": {"holds": 15, "violated": 0,
                         "not-applicable": 30, "skipped": 1},
    "prime_domain": {"holds": 45, "violated": 0,
                     "not-applicable": 0, "skipped": 1},
    "min_abel": {"holds": 45, "violated": 0,
                 "not-applicable": 0, "skipped": 1},
    "products": {"holds": 40, "violated": 0,
                 "not-applicable": 0, "skipped": 0},
    "quotient_lift": {"holds": 7, "violated": 0,
                      "not-applicable": 4, "skipped": 0},
    "annihilator_quotient": {"holds": 8, "violated": 0,
                             "not-applicable": 2, "skipped": 1},
    "dorroh": {"holds": 10, "violated": 0,
               "not-applicable": 0, "skipped": 0},
    "h_ring": {"holds": 29, "violated": 0,
               "not-applicable": 0, "skipped": 0},
    "twisted_u2": {"holds": 4, "violated": 0,
                   "not-applicable": 0, "skipped": 1},
    "examples": {"holds": 47, "violated": 0,
                 "not-applicable": 0, "skipped": 0},
}


def test_default_corpus_leaves_only_the_oversized_entry_unbuilt(corpus):
    assert len(corpus.entries) == 46
    noted = [e for e in corpus.entries if e.note]
    assert len(noted) == 1
    (big,) = noted
    assert big.text == "M(2,Z(9))"
    assert (big.ring, big.verified, big.order) == (None, None, 6561)
    assert big.note == ("axiom check skipped: order 6561 too large for "
                        "exhaustive triple check (guard 1024)")
    for entry in corpus.entries:
        if entry.note is None:
            assert entry.verified is True
            assert entry.ring is not None and entry.order is None


def test_every_law_runs_in_order(law_reports, corpus):
    assert tuple(law_reports) == LAW_ORDER
    assert len(LAW_ORDER) == 12


@pytest.mark.parametrize("law", LAW_ORDER)
def test_no_law_is_violated(law_reports, law):
    totals = law_reports[law].totals
    assert totals["violated"] == 0
    assert totals == EXPECTED_TOTALS[law]


def test_every_case_is_replayable_or_annotated(law_reports):
    for rep in law_reports.values():
        assert rep.statement
        for case in rep.cases:
            assert case.status in ("holds", "violated", "not-applicable",
                                   "skipped")
            if case.status in ("not-applicable", "skipped"):
                assert case.reason or case.detail


def test_h_ring_reports_catalogue_coverage(law_reports):
    cover = [c for c in law_reports["h_ring"].cases
             if c.detail and "cover" in c.detail]
    assert len(cover) == 5
    partial = [c for c in cover if "covers 8 of 8" not in c.detail]
    # families with a twisting parameter other than 1 list only part
    # of the idempotent census; that is reported, never asserted
    assert partial and all("coverage is reported" in c.detail
                           for c in cover)


def test_twisted_law_keeps_the_rejected_fixture(law_reports):
    cases = law_reports["twisted_u2"].cases
    skipped = [c for c in cases if c.status == "skipped"]
    assert len(skipped) == 1
    assert "construction rejected" in skipped[0].reason
    # the fixture runs after every corpus ring
    assert cases[-1] is skipped[0]


def test_annihilator_law_marks_improper_ideal(law_reports):
    cases = law_reports["annihilator_quotient"].cases
    assert any(c.status == "skipped" and "improper" in (c.reason or "")
               for c in cases)


def test_quotient_lift_marks_unreduced_ideals(law_reports):
    nas = [c for c in law_reports["quotient_lift"].cases
           if c.status == "not-applicable"]
    assert any("square" in (c.reason or "") for c in nas)


def test_complement_law_skips_semiprime_direction(law_reports):
    # the z/12 style rings are reversible without being semiprime, so
    # the law asserts only the provable directions and must still hold
    cases = law_reports["e_and_complement"].cases
    z12 = [c for c in cases if c.ring == "Z(12)"]
    assert z12 and all(c.status in ("holds", "not-applicable")
                       for c in z12)


def test_run_law_single(corpus):
    rep = run_law("ere", corpus=corpus)
    assert rep.law == "ere"
    assert rep.totals["violated"] == 0
    rep2 = run_law("semiprime-collapse", corpus=corpus)
    assert rep2.law == "semiprime_collapse"
    with pytest.raises(ValueError, match="unknown law"):
        run_law("frobnitz", corpus=corpus)


def test_run_laws_only_filter(corpus):
    reps = run_laws(corpus=corpus, only=["dorroh", "products"])
    assert [r.law for r in reps] == ["products", "dorroh"]


def test_reports_are_deterministic(corpus):
    a = run_law("ere", corpus=corpus).to_dict()
    b = run_law("ere", corpus=corpus).to_dict()
    assert a == b
    assert a["elapsed"] is None
    json.dumps(a)


def test_corpus_from_text_reports_bad_line():
    text = "Z(4)\nfrob(3)\n"
    with pytest.raises(ParseError, match="line 2"):
        corpus_from_text(text, source="inline")
    with pytest.raises(RingError, match="line 1"):
        corpus_from_text("quot(Z(4),1)\n", source="inline")
    # re-keyed to its manifest line, column kept
    with pytest.raises(ParseError) as info:
        corpus_from_text("Z(4)\n\nZ(²)\n", source="inline")
    assert (info.value.line, info.value.col) == (3, 3)
    assert str(info.value) == "3:3: in inline line 3: expected 'int', found '²'"


def test_corpus_from_text_skips_comments_and_blanks():
    text = "# heading\n\nZ(4)\n  # indented note\nZ(9)\n"
    corpus = corpus_from_text(text, source="inline")
    assert [e.text for e in corpus.entries] == ["Z(4)", "Z(9)"]
    assert all(e.verified for e in corpus.entries)


def test_quotient_lift_skip_reports_the_base_order():
    # the base has order 30, the quotient order 6; the guard applies to
    # the base
    corpus = corpus_from_text("quot(prod(Z(5),Z(6)),(1,0))\n")
    (case,) = run_law("quotient_lift", corpus, Guards(pair_cap=16)).cases
    assert case.status == "skipped"
    assert case.reason == "order 30 exceeds the pair sweep guard 16"


def test_laws_under_small_guards_are_pinned(corpus):
    # at these guards 9 of the 11 corpus laws reach a guard-skip branch,
    # which at the default guards only M(2,Z(9)) reaches
    laws = [law for law in LAW_ORDER if law != "examples"]
    reports = run_laws(corpus, Guards(pair_cap=16, triple_cap=8), laws)
    text = json.dumps([rep.to_dict() for rep in reports], indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "9072d81f505fcc90d3b605d71d8262b9c6b47e1b49e7304ca882650d73959142")


def test_load_corpus_from_file(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text("Z(6)\nU(2,Z(2))\n")
    corpus = load_corpus(str(path))
    assert len(corpus.entries) == 2
    rep = run_law("ere", corpus=corpus)
    assert rep.totals["violated"] == 0
    assert rep.totals["holds"] > 0


def test_replicate_examples_standalone():
    # the pinned scenes build their own rings and need no corpus
    rep = run_law("examples", Corpus("unused", []))
    assert rep.law == "examples"
    assert rep.totals["violated"] == 0
    assert rep.totals["holds"] == EXPECTED_TOTALS["examples"]["holds"]


@pytest.mark.parametrize("law", ("annihilator_quotient", "examples"))
def test_fixture_laws_give_the_same_report_without_a_corpus(law_reports,
                                                            law):
    # the cli builds no corpus for these two, so they must not read it
    assert not reads_corpus([law])
    assert (run_law(law, Corpus("unused", [])).to_dict()
            == law_reports[law].to_dict())
    assert reads_corpus([law, "ere"])


def test_unbuilt_corpus_is_parsed_only():
    corpus = corpus_from_text("Z(4)\n# note\nquot(Z(4),1)\n", build=False)
    assert [e.text for e in corpus.entries] == ["Z(4)", "quot(Z(4),1)"]
    assert corpus.rings() == []
    with pytest.raises(ParseError, match="line 2"):
        corpus_from_text("Z(4)\nfrob(3)\n", build=False)


def test_examples_under_small_guards_skip_rather_than_fail():
    # a guard skip is never a wrong answer: scenes whose engine verdict
    # was skipped come out skipped, with the guard's reason
    rep = run_law("examples", Corpus("unused", []),
                  Guards(pair_cap=16, triple_cap=8))
    assert rep.totals == {"holds": 12, "violated": 0, "not-applicable": 0,
                          "skipped": 35}
    assert all("guard" in c.reason for c in rep.cases
               if c.status == "skipped")


# sha256 of `finring laws --law examples --format json` stdout at the
# default guards and at two small ones, where some scenes are skipped
EXAMPLES_DIGESTS = {
    ():
        "e18700bbd4db89c23e567365b4a1d1655713174ef4c243979e7d4126ee79701b",
    ("--max-pair-order", "16", "--max-triple-order", "8"):
        "1bdcd3b37bd5f2342e2dad7a42c28130137dfd1e185a8e81e05edb0873b9d5d3",
    ("--max-pair-order", "64", "--max-triple-order", "16"):
        "de92435581d5f9330d317ebb09aaf3daebbbb0f5fbd19a96a1f7efd5f66ec677",
}


@pytest.mark.parametrize("caps", sorted(EXAMPLES_DIGESTS))
def test_examples_json_bytes_are_pinned(caps):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(["laws", "--law", "examples", "--format", "json",
                         *caps]) == 0
    assert (hashlib.sha256(out.getvalue().encode()).hexdigest()
            == EXAMPLES_DIGESTS[caps])


def _flip_k_verdicts(monkeypatch):
    real = laws.check_property

    def flipped(R, prop, e=None, guards=DEFAULT_GUARDS):
        v = real(R, prop, e, guards)
        if R.provenance == "K(Z(3),0)" and prop == "right_e_reversible":
            other = {"holds": "fails", "fails": "holds"}
            v = dataclasses.replace(v, status=other.get(v.status, v.status))
        return v
    monkeypatch.setattr(laws, "check_property", flipped)


def _refuse_f_pinned_pair(monkeypatch):
    (f,) = [row for row in laws._SCENE_CHECKS if row.scene == "f"]
    real = laws.replay_witness

    def refusing(R, prop, e, witness):
        if R.provenance == f.ring and tuple(
                R.labels[w] for w in witness) == f.witness:
            return False
        return real(R, prop, e, witness)
    monkeypatch.setattr(laws, "replay_witness", refusing)


def _drop_a_k_idempotent(monkeypatch):
    real = laws.idempotents

    def dropping(R):
        ids = real(R)
        return ids[:-1] if R.provenance == "K(Z(3),0)" else ids
    monkeypatch.setattr(laws, "idempotents", dropping)


def _point_a_row_at_a_non_idempotent(monkeypatch):
    rows = list(laws._SCENE_CHECKS)
    assert (rows[1].scene, rows[1].ring) == ("a", "U(2,Z(3))")
    rows[1] = rows[1]._replace(idem="[[0,1],[0,0]]")    # squares to 0
    monkeypatch.setattr(laws, "_SCENE_CHECKS", tuple(rows))


# engine faults the examples law must catch: fault -> (the scene whose
# cases come out violated, the patch); the unbroken stand-in patches
# nothing and must report no violation
_EXAMPLE_FAULTS = {
    "unbroken": (None, lambda monkeypatch: None),
    "right_e_reversible flipped on K(Z(3),0)": ("j", _flip_k_verdicts),
    "replay refuses the pinned pair of scene f": ("f", _refuse_f_pinned_pair),
    "K(Z(3),0) loses an idempotent": ("j", _drop_a_k_idempotent),
    "a row names a non-idempotent": ("a", _point_a_row_at_a_non_idempotent),
}


@pytest.mark.parametrize("fault", sorted(_EXAMPLE_FAULTS))
def test_examples_law_catches_engine_faults(fault, monkeypatch):
    scene, patch = _EXAMPLE_FAULTS[fault]
    patch(monkeypatch)
    cases = run_law("examples", Corpus("unused", [])).cases
    violated = [c for c in cases if c.status == "violated"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(["laws", "--law", "examples"])
    if scene is None:
        assert (violated, code) == ([], 0)
        return
    assert violated and code == 1       # a fault, never a usage error
    assert all(c.detail.startswith("scene %s: " % scene) for c in violated)
    assert "    detail: scene %s: " % scene in out.getvalue()


def test_h_ring_law_needs_unit_parameters():
    # central non-units build a ring, but the catalogued idempotent
    # families are written with the inverses of s and t
    corpus = corpus_from_text("H(Z(4),2,1)\nH(Z(4),1,2)\n")
    rep = run_law("h_ring", corpus)
    assert [(c.ring, c.status, c.reason) for c in rep.cases] == [
        (text, "not-applicable", "the catalogued families need unit "
                                 "parameters")
        for text in ("H(Z(4),2,1)", "H(Z(4),1,2)")]


# sized entries at and around the lowered caps below, and unsized ones
# past them, with every constructor a law filters on
_EDGE_CORPUS = """
Z(2)
Z(16)
Z(17)
Z(65)
M(2,Z(2))
U(3,Z(2))
V(3,Z(3))
M(2,Z(3))
H(Z(3),1,1)
K(Z(2),1)
prod(Z(5),Z(17))
quot(prod(Z(5),Z(6)),(1,0))
dorroh(Z(4),sub[])
twist(Z(3),hom[#0,#1,#2])
"""


def with_checks(monkeypatch, wrap):
    """Put wrap(name, check) in place of each law's per-ring checker."""
    for name, law in laws._LAWS.items():
        if law.check is not None:
            monkeypatch.setitem(laws._LAWS, name,
                                law._replace(check=wrap(name, law.check)))


@pytest.mark.parametrize("pair, triple", [(16, 64), (64, 16), (16, 16)])
def test_entries_past_every_guard_are_left_unbuilt(pair, triple,
                                                   monkeypatch):
    guards = Guards(pair_cap=pair, triple_cap=triple)
    corpus = corpus_from_text(_EDGE_CORPUS, guards=guards)
    unbuilt = {e.text for e in corpus.entries if e.ring is None}
    sized = {e.text: expr_order(e.node) for e in corpus.entries}
    assert unbuilt == {text for text, order in sized.items()
                       if order is not None and order > max(pair, triple)}
    assert unbuilt >= {"Z(65)", "M(2,Z(3))"}
    # the same cases, field by field, as from every entry built
    whole = built_whole(corpus)
    read = [law for law in LAW_ORDER if reads_corpus([law])]
    for rep, full in zip(run_laws(corpus, guards, read),
                         run_laws(whole, guards, read)):
        assert rep.cases == full.cases, rep.law
    # and no checker is handed an unbuilt entry
    handed = []

    def recording(name, check):
        def recorded(case, R, guards):
            handed.append(R)
            return check(case, R, guards)
        return recorded
    with_checks(monkeypatch, recording)
    run_laws(corpus, guards, read)
    assert handed and all(isinstance(R, RingTable) for R in handed)
    assert not {R.provenance for R in handed} & unbuilt


# one entry past the pair cap 16 for each constructor a law filters on.
# The three-factor product, the quotient by a square-zero ideal and the
# H with a non-unit parameter fail their law's applicability test, which
# the guard comes before; the quotient (order 5) is past the cap by its
# base (order 25) alone
_OVER_CAP = {
    "products": ("prod(Z(2),Z(2),Z(5))",),
    "quotient_lift": ("quot(Z(25),5)",),
    "dorroh": ("dorroh(Z(5),sub[])",),
    "h_ring": ("H(Z(3),1,1)", "H(Z(4),2,1)"),
    "twisted_u2": ("twist(Z(3),hom[#0,#1,#2])",),
}


def test_the_guard_comes_before_each_law_reads_the_ring(monkeypatch):
    guards = Guards(pair_cap=16, triple_cap=16)
    corpus = corpus_from_text("\n".join(sum(_OVER_CAP.values(), ())),
                              guards=guards)

    def refusing(name, check):
        def refused(case, R, guards):
            raise AssertionError("%s read %s" % (name, R.provenance))
        return refused
    with_checks(monkeypatch, refusing)
    for law, texts in _OVER_CAP.items():
        rings = [build_expr(text) for text in texts]
        sized = [R.layout.base if law == "quotient_lift" else R
                 for R in rings]
        cases = run_law(law, corpus, guards).cases
        if law == "twisted_u2":
            cases = cases[:-1]      # the rejected fixture
        assert [(c.ring, c.idempotent, c.status, c.reason)
                for c in cases] == [
            (R.provenance, None, "skipped",
             _guard_skip(guards, "pair", S.order))
            for R, S in zip(rings, sized)], law


def test_scene_e_reads_the_h_table_through_its_formula():
    R16 = build_expr(laws._R16_TEXT)
    H = build_expr("H(%s,1,1)" % laws._R16_TEXT)
    codec, (E, A, B), prod = laws._scene_e_products(R16)
    assert codec.labels() == H.labels
    assert len(prod) == 4
    for (x, y), xy in prod.items():
        assert xy == int(H.mul[x, y]), (H.labels[x], H.labels[y])
    assert replay_witness(H, "right_e_reversible", E, (A, B))
    (case,) = laws._scene_e_extension(laws._Cases("examples"),
                                      DEFAULT_GUARDS)
    assert (case.ring, case.idempotent, case.status) == (
        H.provenance, H.labels[E], "holds")
    assert case.witness_labels == (H.labels[A], H.labels[B])


def test_laws_build_no_table_past_the_triple_guard(monkeypatch):
    orders = []
    real = construct.build_ring

    def recorded(add, *args, **kwargs):
        orders.append(len(add))
        return real(add, *args, **kwargs)
    monkeypatch.setattr(construct, "build_ring", recorded)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(["laws"]) == 0
    assert len(orders) > 100
    assert max(orders) <= 1024
    # the unbuilt entry keeps its table-mode note
    assert ("  note: M(2,Z(9)): axiom check skipped: order 6561 too large "
            "for exhaustive triple check (guard 1024)") in out.getvalue()
