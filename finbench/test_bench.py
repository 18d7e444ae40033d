"""Tests of the benchmark's own arithmetic and gates.

    python3 -m pytest finbench/test_bench.py -q
"""
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import stats  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (BAD_CALLS, POOL, STREAM_CALLS, Call,  # noqa: E402
                       Outcome, check_argv, gate, load_pins, ring_facts,
                       run_call, sha256, stream_plan, zipf_counts)


def test_percentile_nearest_rank():
    xs = list(range(100, 0, -1))          # 1..100, unsorted
    assert stats.percentile(xs, 50) == 50
    assert stats.percentile(xs, 99) == 99
    assert stats.percentile(xs, 100) == 100
    assert stats.percentile([7.5], 99) == 7.5
    assert stats.percentile([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1], 0)


def test_samples_beyond_a_percentile():
    assert stats.beyond(1000, 99) == 10   # smallest p99 worth reporting
    assert stats.beyond(3000, 99) == 30
    assert stats.beyond(100, 99) == 1
    assert stats.beyond(2, 50) == 1
    assert stats.beyond(1, 99) == 0


def test_failed_ratio():
    assert stats.failed_ratio(0, 3000) == 0.0
    assert stats.failed_ratio(3, 12) == 0.25
    assert stats.failed_ratio(5, 5) == 1.0
    with pytest.raises(ValueError):
        stats.failed_ratio(0, 0)
    with pytest.raises(ValueError):
        stats.failed_ratio(4, 3)


def test_gate_accepts_pinned_and_rejects_altered_output():
    text = '{"status": "holds"}\n'
    call = Call(["check", "Z(2)", "reduced"], 0, sha256(text))
    assert gate(call, Outcome(0, text, 0.001)) is None
    altered = text.replace("holds", "fails")
    assert "digest" in gate(call, Outcome(0, altered, 0.001))
    assert "exit code" in gate(call, Outcome(2, "", 0.001))
    # a prefix pin, as the check-stream stores them
    short = Call(call.argv, 0, sha256(text)[:16])
    assert gate(short, Outcome(0, text, 0.001)) is None
    assert gate(short, Outcome(0, text + " ", 0.001)) is not None


def test_gate_on_rejected_input():
    bad = Call(["check", "Z(2", "reduced"], 2)
    assert gate(bad, Outcome(2, "", 0.001)) is None
    assert "stdout" in gate(bad, Outcome(2, "{}\n", 0.001))
    assert "exit code" in gate(bad, Outcome(0, "", 0.001))


def test_real_check_output_matches_pin_and_altered_copy_fails(
        tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)          # the table cache lands here
    pins = load_pins()
    expr = "Z(6)"
    digest = pins["check_calls"][expr][0]     # first global property
    call = Call(check_argv(expr, "reduced", None), 0, digest)
    out = run_call(call.argv)
    assert gate(call, out) is None
    tampered = Outcome(out.rc, out.stdout.replace('"holds"', '"fails"'),
                       out.seconds)
    assert tampered.stdout != out.stdout
    assert gate(call, tampered) is not None


def test_zipf_counts_are_fixed_and_decreasing():
    counts = zipf_counts(STREAM_CALLS - BAD_CALLS, len(POOL))
    assert sum(counts) == STREAM_CALLS - BAD_CALLS
    assert counts == sorted(counts, reverse=True)
    assert counts[0] > 5 * counts[-1]


def test_stream_plan_is_seeded():
    pins = load_pins()
    facts = {expr: ring_facts(expr) for expr in POOL}
    a = stream_plan(1, facts, pins)
    b = stream_plan(1, facts, pins)
    c = stream_plan(2, facts, pins)
    assert [x.argv for x in a] == [x.argv for x in b]
    assert [x.argv for x in a] != [x.argv for x in c]
    assert len(a) == STREAM_CALLS
    assert sum(1 for x in a if x.rc == 2) == BAD_CALLS
    assert all(x.pin for x in a if x.rc == 0)


def test_self_times_add_up_to_the_root_span():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    def middle():
        time.sleep(0.002)
        tracer.wrap("leaf", leaf)()

    root = tracer.wrap("root", lambda: (tracer.wrap("middle", middle)(),
                                        leaf()))
    root()
    root()
    names = [s.name for s in tracer.spans]
    assert names == ["root", "middle", "leaf"] * 2
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, -1, 3, 4]
    assert [s.call for s in tracer.spans] == [0, 0, 0, 1, 1, 1]
    total_self = sum(s.self_seconds for s in tracer.spans)
    assert total_self == pytest.approx(tracer.root_seconds())
    # root's self time includes the unwrapped leaf call
    assert all(s.self_seconds >= 0.0018 for s in tracer.spans)
