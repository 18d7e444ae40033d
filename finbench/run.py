#!/usr/bin/env python3
"""finring benchmark: one workload, measured end to end or traced.

    python3 finbench/run.py --workload survey-mid --seed 1 --seconds 10 --trace 0

Run from the root of a finring checkout; the package is imported from
`src/`.  With --trace 0 the workload's call sequence is repeated until
--seconds have passed and the end-to-end metrics are reported.  With
--trace 1 a warm-up, a traced and an untraced pass are made and the
per-layer metrics are reported.  Every call's output is gated on
correctness either way.  Human-readable lines come first; the last line
of stdout is one JSON object with the keys correct, attempted, failed
and metrics.  Exit status is 0 when every output was correct, 1 when
one was not, 2 when the checkout cannot be benchmarked.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402
from workloads import (CACHE_DIR, ROOT, WORKLOADS, gate,  # noqa: E402
                       independent_check, load_pins, run_call,
                       transcript_digest)

SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_build" / "finbench"
SETUP_RUNS = 4         # before the timed passes, and again after them
# the 12 laws of finring.laws.LAW_ORDER, fixed here so that the metric
# names do not depend on the code under test
LAWS = ("ere", "semiprime_collapse", "e_and_complement", "prime_domain",
        "min_abel", "products", "quotient_lift", "annihilator_quotient",
        "dorroh", "h_ring", "twisted_u2", "examples")

END_TO_END = {
    "wall_s": "s", "peak_rss_mb": "MiB", "setup_s": "s",
    "query_p50_ms": "ms", "query_p99_ms": "ms", "queries_per_s": "1/s",
}
PER_LAYER = dict(
    [("failed_ratio", "ratio"),
     ("cli.calls", "count"), ("cli.self_s", "s"), ("cli.emit_s", "s"),
     ("cli.output_bytes", "B"),
     ("dsl.parse_s", "s"), ("dsl.parse_calls", "count"),
     ("construct.build_s", "s"), ("construct.build_calls", "count"),
     ("construct.max_order", "count"), ("construct.table_mb", "MiB"),
     ("construct.cache_hits", "count"), ("construct.cache_misses", "count"),
     ("core.verify_axioms_s", "s"), ("core.verify_axioms_calls", "count"),
     ("core.verify_axioms_skipped", "count"), ("core.axiom_cells", "count"),
     ("predicates.pair_s", "s"), ("predicates.triple_s", "s"),
     ("predicates.first_triple_s", "s"), ("predicates.census_s", "s"),
     ("predicates.zero_pairs", "count"), ("predicates.verdicts", "count"),
     ("predicates.fails", "count"), ("predicates.skipped", "count"),
     ("laws.self_s", "s"), ("laws.corpus_s", "s")]
    + [("laws.%s_s" % law, "s") for law in LAWS]
    + [("laws.cases", "count"), ("laws.violated", "count"),
       ("trace.attributed", "ratio"), ("trace.overhead_s", "s")])


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit, "seed": seed}


def measure_setup(runs: int, warmup: bool) -> list:
    """Interpreter start plus `import finring`, each in a fresh process.
    A warm-up run may write bytecode caches and is not kept."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(runs + warmup):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import finring"], env=env,
                       check=True, timeout=120)
        if i >= warmup:
            times.append(time.perf_counter() - t0)
    return times


def run_pass(plan, uses_cache: bool):
    """One pass over the call sequence; the table cache starts empty and
    is removed afterwards."""
    if uses_cache:
        shutil.rmtree(ROOT / CACHE_DIR, ignore_errors=True)
    gc.collect()
    t0 = time.perf_counter()
    outcomes = [run_call(call.argv) for call in plan]
    wall = time.perf_counter() - t0
    if uses_cache:
        shutil.rmtree(ROOT / CACHE_DIR, ignore_errors=True)
    return outcomes, wall


def count_failures(plan, passes, wrong_keys, reference=None) -> int:
    """Operations (one call in one pass) that fail their gate, that the
    independent check disputes, or whose output differs from the
    reference pass."""
    failed, first = 0, None
    for outcomes in passes:
        for call, out, ref in zip(plan, outcomes, reference or outcomes):
            why = gate(call, out)
            if why is None and call.key in wrong_keys:
                why = "independent check disagrees"
            if why is None and (out.rc, out.stdout) != (ref.rc, ref.stdout):
                why = "output differs from the untraced pass"
            if why is not None:
                failed += 1
                if first is None:
                    first = "%s: %s" % (" ".join(call.argv), why)
    if first is not None:
        print("FAILED (first of %d): %s" % (failed, first))
    return failed


def check_transcript(workload, seed, plan, outcomes, pins) -> bool:
    """Compare the run's transcript with the pinned one, where the seed
    has a pin; True when they differ."""
    digest = transcript_digest(plan, outcomes)
    pinned = pins["transcripts"].get(workload, {}).get(str(seed))
    if pinned is None:
        note = "no transcript pin for this seed"
    else:
        note = "matches its pin" if pinned == digest else "PIN %s DIFFERS" % pinned
    print("transcript: %s (%s)" % (digest, note))
    return pinned is not None and pinned != digest


def end_to_end(args, wl, plan, pins):
    setup = measure_setup(SETUP_RUNS, warmup=True)
    passes, walls = [], []
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < args.seconds:
        outcomes, wall = run_pass(plan, wl.uses_cache)
        passes.append(outcomes)
        walls.append(wall)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += measure_setup(SETUP_RUNS, warmup=False)
    lat = [out.seconds * 1e3 for outcomes in passes for out in outcomes]
    wrong = independent_check(plan, passes[0]) if wl.uses_cache else set()
    attempted = len(plan) * len(passes)
    failed = count_failures(plan, passes, wrong)
    if check_transcript(wl.name, args.seed, plan, passes[0], pins):
        failed = max(failed, 1)
    metrics = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": peak_mb,
        "setup_s": statistics.median(setup),
        "query_p50_ms": stats.percentile(lat, 50),
        "query_p99_ms": stats.percentile(lat, 99),
        "queries_per_s": len(lat) / sum(walls),
    }
    print("passes: %d, pass walls: %s s" % (
        len(walls), ", ".join("%.3f" % w for w in walls)))
    print("queries: n=%d; p50 has %d samples beyond, p99 has %d"
          % (len(lat), stats.beyond(len(lat), 50), stats.beyond(len(lat), 99)))
    print("setup runs: %s s" % ", ".join("%.4f" % t for t in setup))
    return metrics, END_TO_END, attempted, failed


def traced(args, wl, plan, pins):
    """Warm-up pass, traced pass, untraced pass.  The overhead is the
    traced pass minus the untraced one, both made after the warm-up."""
    from spans import Tracer
    warmup, _ = run_pass(plan, wl.uses_cache)
    tracer = Tracer()
    tracer.install()
    try:
        outcomes, traced_wall = run_pass(plan, wl.uses_cache)
    finally:
        tracer.uninstall()
    untraced, wall = run_pass(plan, wl.uses_cache)
    passes = [warmup, outcomes, untraced]
    wrong = independent_check(plan, untraced) if wl.uses_cache else set()
    # every pass, the traced one included, must give the untraced bytes:
    # that shows the trace covered the same work
    failed = count_failures(plan, passes, wrong, reference=untraced)
    if check_transcript(wl.name, args.seed, plan, untraced, pins):
        failed = max(failed, 1)
    attempted = len(plan) * len(passes)
    metrics = tracer.layer_metrics(LAWS)
    metrics.update({
        "failed_ratio": stats.failed_ratio(failed, attempted),
        "cli.calls": len(plan),
        "cli.output_bytes": sum(len(o.stdout.encode("utf-8"))
                                for o in outcomes),
        "trace.attributed": tracer.root_seconds() / traced_wall,
        "trace.overhead_s": traced_wall - wall,
    })
    path = SPANS_DIR / ("spans-%s-%d.jsonl" % (wl.name, args.seed))
    tracer.dump(path)
    print("traced pass %.3f s, untraced pass %.3f s; %d spans in %s"
          % (traced_wall, wall, len(tracer.spans), path.relative_to(ROOT)))
    if metrics["trace.attributed"] < 0.9:
        print("WARNING: spans cover only %.1f%% of the traced pass"
              % (100 * metrics["trace.attributed"]))
    return metrics, PER_LAYER, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "finring" / "__init__.py").is_file():
        print("finbench: no finring sources under %s" % SRC, file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import finring  # noqa: F401

    wl = WORKLOADS[args.workload]
    print("workload: %s (%s)" % (wl.name, wl.why))
    print("env: %s" % json.dumps(environment(args.seed)))
    pins = load_pins()
    plan = wl.plan(args.seed, pins)
    run = traced if args.trace else end_to_end
    metrics, units, attempted, failed = run(args, wl, plan, pins)
    print("failed_ratio = %.6g (%d of %d operations)"
          % (stats.failed_ratio(failed, attempted), failed, attempted))
    for name, unit in units.items():
        print("%-30s %14.6g %s" % (name, metrics[name], unit))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
