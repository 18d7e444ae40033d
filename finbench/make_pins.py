#!/usr/bin/env python3
"""Record the reference outputs the benchmark gates on, into pins.json.

    python3 finbench/make_pins.py

Run it from the root of a checkout whose outputs are trusted; it refuses
to write when the two reference hashes published in ROADMAP.md are not
reproduced.  It pins the sha256 of stdout of every fixed-input call, a
16-hex-digit prefix for every valid check call the check-stream can
make, and the check-stream transcript digest of seeds 1 and 2.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import (CACHE_DIR, PINS_PATH, POOL, ROOT,  # noqa: E402
                       WORKLOADS, check_argv, enumerate_checks, ring_facts,
                       run_call, sha256, transcript_digest)

REFERENCE = {
    "laws --format json":
        "2b5e11577656ce7b6c3e7c058261d80cfd9536efcf27fc445a5c44e8c65d6370",
    "survey M(3,Z(2)) --format json":
        "44d96a0b68e4f4e554159f8dc9b6361fcabc2d6ba73ea0f84605843a603e4e93",
}
RECORDED_SEEDS = (1, 2)


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    pins = {"outputs": {}, "check_calls": {}, "transcripts": {}}
    for argv in (a for w in WORKLOADS.values() for a in w.commands):
        out = run_call(argv)
        if out.rc != 0:
            print("%s exited %d" % (" ".join(argv), out.rc), file=sys.stderr)
            return 1
        pins["outputs"][" ".join(argv)] = sha256(out.stdout)
    for key, want in REFERENCE.items():
        if pins["outputs"][key] != want:
            print("%s does not reproduce the reference hash" % key,
                  file=sys.stderr)
            return 1
    shutil.rmtree(CACHE_DIR, ignore_errors=True)
    for expr in POOL:
        digests = []
        for key in enumerate_checks(expr, ring_facts(expr)):
            out = run_call(check_argv(*key))
            if out.rc != 0:
                print("%s exited %d" % (key, out.rc), file=sys.stderr)
                return 1
            digests.append(sha256(out.stdout)[:16])
        pins["check_calls"][expr] = digests
    stream = WORKLOADS["check-stream"]
    pins["transcripts"]["check-stream"] = {}
    for seed in RECORDED_SEEDS:
        shutil.rmtree(CACHE_DIR, ignore_errors=True)
        plan = stream.plan(seed, pins)
        outcomes = [run_call(call.argv) for call in plan]
        pins["transcripts"]["check-stream"][str(seed)] = transcript_digest(
            plan, outcomes)
    shutil.rmtree(CACHE_DIR, ignore_errors=True)
    with open(PINS_PATH, "w") as fh:
        json.dump(pins, fh, indent=1)
        fh.write("\n")
    print("wrote %s" % PINS_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
