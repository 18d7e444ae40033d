"""Exit codes, output schema and determinism of the command line."""

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import finring
import finring.cli as cli_mod
from finring import build_expr, resolve_element
from finring.cli import main

# sha256 of stdout; the argv is echoed in the report, so it is part of
# the pin
SURVEY_DIGESTS = {
    ("survey", "U(2,Z(3))", "--format", "json"):
        "cfd23da7823d852a0b79ff3e447ac0f45327db5826844a6c505a1ea01d0a7193",
    ("survey", "Z(6)", "--max-pair-order", "4", "--format", "json"):
        "91bba6c56711b452d18be1a77bef9eee8952be195387df22ba49561d2f486624",
    # the second reference hash of ROADMAP.md (order 512)
    ("survey", "M(3,Z(2))", "--format", "json"):
        "44d96a0b68e4f4e554159f8dc9b6361fcabc2d6ba73ea0f84605843a603e4e93",
    # the survey-mid pin of finbench/pins.json (order 729)
    ("survey", "U(3,Z(3))", "--format", "json"):
        "126b81f2c4d60cd8fc60d5d5c1467e5c114939156a2d4bd3c537c2d87821fa38",
    # order 1024, the largest order under the default triple guard
    ("survey", "prod(M(3,Z(2)),Z(2))", "--format", "json"):
        "96b61d59e61e1a1b1e47af452d767fb9905c02e8eac7005d96c6e82457263b29",
    # the two survey-large pins of finbench/pins.json (order 4096, past
    # the triple guard: every pair property is decided)
    ("survey", "M(2,Z(8))", "--format", "json"):
        "2efaeac86b976048db39ce444486ba1c67b448a60ec2f55b82f2e949dd4723af",
    ("survey", "U(3,Z(4))", "--format", "json"):
        "cf9f7056a189c3f156f8d592b4b60d691865133c979747a3e68d098c0e838680",
}


def _forbid(monkeypatch, *names):
    """Make each named dependency fail loudly if it is reached: the
    axiom proof where core.prove_axioms calls it, the rest where cli
    calls them."""
    def reached(*a, **k):
        raise AssertionError("expensive work before input validation")
    for name in names:
        owner = finring.core if name == "verify_axioms" else cli_mod
        monkeypatch.setattr(owner, name, reached)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as ex:          # argparse usage errors
        code = ex.code
    return code, out.getvalue(), err.getvalue()


def test_check_holds_exits_zero():
    code, out, _ = run(["check", "Z(6)", "right_e_reversible", "--e", "3"])
    assert code == 0
    assert "right_e_reversible relative to 3: ok" in out


def test_check_fails_is_informational_not_an_error():
    code, out, _ = run(["check", "U(2,Z(2))", "reversible"])
    assert code == 0
    assert "FAIL" in out
    assert "witness" in out


def test_check_skipped_exits_three():
    code, out, _ = run(["check", "Z(6)", "right_e_reversible", "--e", "3",
                        "--max-pair-order", "4"])
    assert code == 3
    assert "skip" in out


def test_build_guard_exits_three():
    code, _, err = run(["check", "M(3,Z(3))", "reversible"])
    assert code == 3
    assert "guard" in err


def test_build_guard_exits_before_building_a_sub_expression(monkeypatch):
    # M(2,Z(9)) is within the build cap, so only sizing the expression
    # first keeps its table from being filled
    def reached(*a, **k):
        raise AssertionError("a table was filled")
    for name in ("_build_table", "_broadcast", "_fill_rows"):
        monkeypatch.setattr(finring.construct, name, reached)
    code, out, err = run(["survey", "M(2,M(2,Z(9)))"])
    assert code == 3
    assert out == ""
    assert err == ("size guard: M(2,M(2,Z(9))) has order 1853020188851841, "
                   "over the build cap 10000\n")


@pytest.mark.parametrize("expr", [
    "M(1000,Z(3))", "M(99999999999,Z(2))", "trs(Z(2),sub[],99999999999)"])
def test_a_giant_order_exits_three_with_one_line(expr):
    code, out, err = run(["check", expr, "reduced"])
    assert (code, out) == (3, "")
    assert err.startswith("size guard: %s has order " % expr)
    assert err.count("\n") == 1


def test_parse_error_exits_two_with_position():
    code, _, err = run(["check", "Z(", "reversible"])
    assert code == 2
    assert "1:3" in err


@pytest.mark.parametrize("text, message", [
    ("algebra(0,1,[[[1]]])", "modulus 0 is not prime"),
    ("algebra(2,-1,[[[1]]])", "dimension must be >= 1"),
])
def test_malformed_algebra_exits_two(text, message):
    # the modulus and dimension are checked before any constant is read
    code, out, err = run(["check", text, "reversible"])
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("d", [30, 2000, 100000])
def test_a_short_algebra_literal_exits_two_before_allocating(d):
    # the d^3 constants (59.6 GiB at d = 2000) are never allocated for a
    # literal that does not hold them
    text = "algebra(2,%d,[[[1]]])" % d
    t0 = time.perf_counter()
    code, out, err = run(["check", text, "reduced"])
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (2, "")
    assert "structure constants must have %d rows" % d in err


def test_unknown_property_exits_two(monkeypatch):
    _forbid(monkeypatch, "build_expr", "verify_axioms")
    code, out, err = run(["check", "Z(6)", "frobnitz"])
    assert code == 2
    assert out == ""
    assert "unknown property" in err


@pytest.mark.parametrize("argv, message", [
    (["check", "Z(6)", "right_e_reversible"], "relative to an idempotent"),
    (["check", "Z(6)", "reversible", "--e", "3"], "takes no idempotent"),
])
def test_idempotent_argument_is_checked_before_any_build(monkeypatch, argv,
                                                         message):
    _forbid(monkeypatch, "build_expr", "verify_axioms")
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_non_idempotent_e_exits_two(monkeypatch):
    # rejected right after the build, before the axiom check
    _forbid(monkeypatch, "verify_axioms")
    for argv, message in [
        (["check", "Z(6)", "right_e_reversible", "--e", "2"],
         "not idempotent"),
        (["check", "M(2,Z(2))", "e_symmetric", "--e", "[[0,1],[0,0]]"],
         "not idempotent"),
        (["check", "Z(6)", "left_e_reduced", "--e", "0"], "must be nonzero"),
    ]:
        code, out, err = run(argv)
        assert code == 2
        assert out == ""
        assert message in err


def test_check_json_schema_and_witness_labels():
    code, out, _ = run(["check", "U(2,Z(3))", "right_e_reversible",
                        "--e", "[[0,0],[0,1]]", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "finring/1"
    assert data["ring"] == "U(2,Z(3))"
    assert data["command"][0] == "check"
    assert data["timings"] is None
    verdict = data["results"][1]
    assert verdict["status"] == "fails"
    # labels must resolve back to the witness indices
    R = build_expr("U(2,Z(3))")
    back = [resolve_element(R, lbl) for lbl in verdict["witness_labels"]]
    assert back == verdict["witness"]


def test_json_round_trips_byte_identically():
    _, out, _ = run(["describe", "Z(12)", "--format", "json"])
    data = json.loads(out)
    assert json.dumps(data, indent=2) + "\n" == out


def test_survey_table_and_row_count():
    code, out, _ = run(["survey", "U(2,Z(2))"])
    assert code == 0
    assert "cells: + holds, - fails, ? guard-skipped" in out
    code, out, _ = run(["survey", "U(2,Z(2))", "--format", "json"])
    data = json.loads(out)
    kinds = [r["kind"] for r in data["results"]]
    assert kinds == ["axioms", "global", "matrix"]
    assert len(data["results"][1]["verdicts"]) == 12
    rows = data["results"][2]["rows"]
    assert len(rows) == 6
    zero_row = rows[0]
    assert zero_row["idempotent"] == "[[0,0],[0,0]]"
    assert all(v == "holds" for v in zero_row["verdicts"].values())


def test_survey_oversized_ring_marks_pair_skips():
    code, out, _ = run(["survey", "Z(6)", "--max-pair-order", "4",
                        "--format", "json"])
    assert code == 0
    rows = json.loads(out)["results"][2]["rows"]
    nonzero = [r for r in rows if r["idempotent"] != "0"]
    assert nonzero
    for row in nonzero:
        # pair sweeps hit the lowered guard, triple sweeps still run
        assert row["verdicts"]["right_e_reversible"] == "skipped"
        assert row["verdicts"]["e_symmetric"] == "holds"


@pytest.mark.parametrize("argv", sorted(SURVEY_DIGESTS))
def test_survey_json_bytes_are_pinned(argv):
    code, out, _ = run(list(argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SURVEY_DIGESTS[argv]


def test_describe_lists_structure():
    code, out, _ = run(["describe", "Z(4)", "--format", "json"])
    assert code == 0
    summary = json.loads(out)["results"][1]
    assert summary["kind"] == "summary"
    assert summary["order"] == 4
    assert (summary["zero"], summary["one"]) == ("0", "1")
    assert [i["label"] for i in summary["idempotents"]] == ["0", "1"]
    assert summary["nilpotents"] == ["0", "2"]
    assert summary["center_size"] == 4


def test_laws_run_on_a_tiny_corpus(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("Z(4)\nU(2,Z(2))\n")
    code, out, _ = run(["laws", "--corpus", str(path)])
    assert code == 0
    assert "VIOLATED" not in out
    code, a, _ = run(["laws", "--corpus", str(path), "--law", "ere",
                      "--format", "json"])
    code2, b, _ = run(["laws", "--corpus", str(path), "--law", "ere",
                       "--format", "json"])
    assert code == code2 == 0
    assert a == b
    data = json.loads(a)
    assert [r["law"] for r in data["results"]] == ["ere"]


def test_laws_missing_corpus_exits_two(tmp_path):
    code, _, err = run(["laws", "--corpus", str(tmp_path / "nope.txt")])
    assert code == 2


def test_laws_unknown_law_exits_two(monkeypatch):
    _forbid(monkeypatch, "default_corpus", "load_corpus")
    code, out, err = run(["laws", "--law", "frobnitz"])
    assert code == 2
    assert out == ""
    assert "unknown law" in err


def test_laws_that_ignore_the_corpus_build_none_of_it(monkeypatch,
                                                      tmp_path):
    def reached(*a, **k):
        raise AssertionError("a corpus ring was axiom-checked")
    monkeypatch.setattr(finring.core, "verify_axioms", reached)
    code, out, _ = run(["laws", "--law", "examples",
                        "--law", "annihilator_quotient"])
    assert code == 0
    assert out.splitlines()[0] == ("corpus: builtin (46 entries, not built: "
                                   "no selected law reads it)")
    assert "note:" not in out
    # the manifest is still parsed, so a malformed one is still refused
    path = tmp_path / "bad.txt"
    path.write_text("Z(4)\nfrob(3)\n")
    code, _, err = run(["laws", "--law", "examples", "--corpus", str(path)])
    assert code == 2
    assert "line 2" in err


def test_laws_names_the_manifest_line_over_the_build_cap(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("Z(4)\nZ(20000)\n")
    code, out, err = run(["laws", "--corpus", str(path), "--law", "ere"])
    assert code == 3
    assert out == ""
    assert "line 2:" in err
    assert "over the build cap 10000" in err


def test_laws_refuses_a_giant_manifest_line_without_sizing_it(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("Z(4)\nM(99999999999,Z(2))\n")
    code, out, err = run(["laws", "--corpus", str(path), "--law", "ere"])
    assert (code, out) == (3, "")
    assert err == ("size guard: %s line 2: M(99999999999,Z(2)) has order "
                   "2^9999999999800000000001, over the build cap 10000\n"
                   % path)


def test_a_ring_that_fails_its_axioms_exits_two(monkeypatch):
    from test_construct import _broken_z3
    monkeypatch.setattr(cli_mod, "build_expr", lambda *a: _broken_z3())
    code, out, err = run(["check", "Z(3)", "reduced"])
    assert (code, out) == (2, "")
    assert err.startswith("error: axiom check failed on broken: ")


@pytest.mark.parametrize("raised, code", [
    (MemoryError("Unable to allocate 82.1 MiB"), 4),
    (RuntimeError("a bug"), 70),
    (KeyboardInterrupt(), 130),
    (MemoryError(), 4),
])
def test_every_way_a_run_ends_has_its_exit_code(monkeypatch, raised, code):
    def build(*a, **k):
        raise raised
    monkeypatch.setattr(cli_mod, "build_expr", build)
    got, out, err = run(["check", "Z(6)", "reduced"])
    assert (got, out) == (code, "")
    if code == 4:
        # a bare MemoryError carries no message of its own
        assert err == ("out of memory: Unable to allocate 82.1 MiB\n"
                       if raised.args else "out of memory: no message\n")
    elif code == 70:
        # an internal fault keeps its traceback for the bug report
        assert err.startswith("Traceback (most recent call last):\n")
        assert err.endswith("RuntimeError: a bug\n")
    else:
        assert err == ""


def test_laws_violation_exit_code(tmp_path, monkeypatch):
    # no shipped corpus violates a law, so fake one verdict to pin the
    # exit-code contract; the table prints the case's reason, then its
    # detail (the verdicts it read)
    import finring.cli as cli_mod
    real = cli_mod.run_laws

    def doctored(*a, **k):
        reports = real(*a, **k)
        case = reports[0].cases[0]
        case.status = "violated"
        case.reason = "right-side characterization broke"
        return reports

    monkeypatch.setattr(cli_mod, "run_laws", doctored)
    path = tmp_path / "c.txt"
    path.write_text("Z(4)\n")
    code, out, _ = run(["laws", "--corpus", str(path), "--law", "ere"])
    assert code == 1
    lines = out.splitlines()
    at = lines.index("  VIOLATED Z(4) idempotent=1: right-side "
                     "characterization broke")
    assert lines[at + 1] == (
        "    detail: corner order 4 reversible=True; semicentral left=True "
        "right=True; relative right=True left=True")


def test_usage_error_exits_two():
    code, _, err = run(["check"])
    assert code == 2


def child(argv, **kwargs):
    """python -m finring argv in a child process, which finds the package
    where this process found it.  It needs no BLAS threads, and with one
    its numpy import reserves far less address space."""
    src = str(Path(finring.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "finring", *argv],
                          env=dict(os.environ, PYTHONPATH=path,
                                   OPENBLAS_NUM_THREADS="1"), **kwargs)


def test_module_entry_point():
    proc = child(["describe", "Z(6)"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "Z(6)" in proc.stdout


def test_a_closed_pipe_exits_141_and_prints_nothing():
    # the read end is closed before the child starts, so its stdout
    # fails on the first flush, however short the output
    r, w = os.pipe()
    os.close(r)
    try:
        proc = child(["survey", "Z(4)"], stdout=w, stderr=subprocess.PIPE,
                     text=True)
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_running_out_of_memory_exits_4_with_one_line():
    # Z(10000) asks for two 191 MiB tables; the child's address space is
    # capped at 256 MiB, which its imports fit
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))
    proc = child(["check", "Z(10000)", "reduced"], preexec_fn=cap,
                 capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr.startswith("out of memory: ")
    assert proc.stderr.count("\n") == 1


def test_check_refuses_a_digit_that_is_no_integer():
    code, out, err = run(["check", "Z(²)", "reduced"])
    assert (code, out) == (2, "")
    assert err == "parse error: 1:3: expected 'int', found '²'\n"


DESCRIBE_U2Z3 = """\
ring: U(2,Z(3))  (order 27)
axioms: ok
zero: [[0,0],[0,0]]   one: [[1,0],[0,1]]
idempotents (8):
  [[0,0],[0,0]]  [left-semicentral, right-semicentral]
  [[0,0],[0,1]]  [right-semicentral]
  [[0,1],[0,1]]  [right-semicentral]
  [[0,2],[0,1]]  [right-semicentral]
  [[1,0],[0,0]]  [left-semicentral]
  [[1,0],[0,1]]  [left-semicentral, right-semicentral]
  [[1,1],[0,0]]  [left-semicentral]
  [[1,2],[0,0]]  [left-semicentral]
nilpotents (3): [[0,0],[0,0]], [[0,1],[0,0]], [[0,2],[0,0]]
center: 3 elements
  reduced                      FAIL
  reversible                   FAIL
  symmetric                    FAIL
  semicommutative              FAIL
  reflexive                    FAIL
  right_idempotent_reflexive   FAIL
  abelian                      FAIL
  semiprime                    FAIL
  prime                        FAIL
  domain                       FAIL
  directly_finite              ok
  von_neumann_regular          FAIL
"""


def test_describe_table_is_pinned():
    code, out, _ = run(["describe", "U(2,Z(3))"])
    assert code == 0
    assert out == DESCRIBE_U2Z3


def test_cache_flag_round_trip(tmp_path):
    # --cache is accepted for older command lines and does nothing
    argv = ["check", "M(2,Z(3))", "reversible", "--format", "json"]
    code, plain, _ = run(argv)
    assert code == 0
    code, cached, err = run(argv + ["--cache", str(tmp_path)])
    assert (code, err) == (0, "")
    report = json.loads(cached)
    assert report["command"] == argv + ["--cache", str(tmp_path)]
    report["command"] = argv
    assert json.dumps(report, indent=2) + "\n" == plain
    assert list(tmp_path.iterdir()) == []
