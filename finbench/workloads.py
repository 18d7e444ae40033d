"""The four workloads: their call sequences and their correctness gates.

Every workload is a list of `finring` command lines run in-process
through `finring.cli.main`, closed-loop with one client: the next call
starts when the previous one has returned.  Each call carries what its
output must be (exit code, and a pinned sha256 of stdout when one is
known), so a run is gated call by call.
"""
from __future__ import annotations

import hashlib
import io
import json
import random
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[1]
PINS_PATH = Path(__file__).resolve().parent / "pins.json"
# relative to the checkout root, so the echoed command (and therefore the
# output bytes) is the same in every checkout
CACHE_DIR = ".bench_build/finbench/cache"

GLOBAL_PROPS = (
    "reduced", "reversible", "symmetric", "semicommutative", "reflexive",
    "right_idempotent_reflexive", "abelian", "semiprime", "prime", "domain",
    "directly_finite", "von_neumann_regular",
)
E_PROPS = (
    "right_e_reversible", "left_e_reversible", "right_e_reduced",
    "left_e_reduced", "e_symmetric", "right_e_semicommutative",
    "left_e_semicommutative",
)
PROPS = GLOBAL_PROPS + E_PROPS

# check-stream ring pool, in Zipf rank order (rank 1 is requested most);
# every ring has order <= 81, small and large ranks are interleaved
POOL = (
    "U(2,Z(3))", "M(2,Z(2))", "Z(6)", "K(Z(2),0)", "H(Z(3),1,1)",
    "prod(Z(2),Z(3))", "M(2,Z(3))", "Z(12)", "U(2,Z(2))",
    "dorroh(U(2,Z(2)),sub[])", "Z(4)", "K(Z(3),1)", "prod(M(2,Z(2)),Z(3))",
    "H(Z(2),1,1)", "Z(2)", "twist(prod(Z(2),Z(2)),hom[#0,#0,#3,#3])",
    "D(3,Z(2))", "Z(8)", "V(3,Z(3))", "dorroh(Z(4),sub[])",
    "quot(prod(Z(2),Z(4)),(0,2))", "Z(27)", "corner(M(2,Z(2)),[[1,0],[0,0]])",
    "Z(3)", "algebra(2,2,[[[1,0],[0,1]],[[0,1],[0,0]]])",
)
STREAM_CALLS = 3000
BAD_CALLS = 150            # 5% seeded bad inputs
ORACLE_MAX_ORDER = 16      # naive triple loops stay cheap up to here
UNKNOWN_PROPS = ("frobnitz", "left-e-frobnicate", "reversable")


@dataclass
class Call:
    argv: list
    rc: int = 0                     # expected exit code
    pin: Optional[str] = None       # expected sha256 of stdout (or a prefix)
    key: Optional[tuple] = None     # (expr, prop, e label) of a check call


@dataclass
class Outcome:
    rc: int
    stdout: str
    seconds: float


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_call(argv) -> Outcome:
    """One closed-loop call of the finring CLI with stdout captured."""
    from finring import cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:      # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        seconds = time.perf_counter() - t0
    return Outcome(rc, out.getvalue(), seconds)


def gate(call: Call, outcome: Outcome) -> Optional[str]:
    """Why this outcome is wrong for this call, or None when it is right.

    A digest mismatch is a failure, never a skip."""
    if outcome.rc != call.rc:
        return "exit code %d, expected %d" % (outcome.rc, call.rc)
    if call.rc == 2 and outcome.stdout:
        return "a rejected input wrote to stdout"
    if call.pin is not None and not sha256(outcome.stdout).startswith(call.pin):
        return "stdout digest %s does not match the pin %s" % (
            sha256(outcome.stdout)[:16], call.pin[:16])
    return None


def transcript_digest(calls, outcomes) -> str:
    """One digest over every call, exit code and stdout digest, in order."""
    h = hashlib.sha256()
    for call, out in zip(calls, outcomes):
        h.update(("%s\t%d\t%s\n" % ("\x1f".join(call.argv), out.rc,
                                    sha256(out.stdout))).encode("utf-8"))
    return h.hexdigest()


def load_pins() -> dict:
    with open(PINS_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# check-stream


def ring_facts(text: str) -> dict:
    """Order, nonzero idempotent labels and non-idempotent labels of a
    pool ring, which the stream generator needs to pick valid --e."""
    import finring
    R = finring.build_expr(text)
    ar = range(R.order)
    idem = {int(f) for f in finring.idempotents(R)}
    return {
        "order": R.order,
        "idempotents": [R.labels[f] for f in sorted(idem) if f != R.zero],
        "others": [R.labels[x] for x in ar if x not in idem],
    }


def check_argv(expr: str, prop: str, e: Optional[str]) -> list:
    argv = ["check", expr, prop, "--format", "json", "--cache", CACHE_DIR]
    return argv + ["--e", e] if e is not None else argv


def enumerate_checks(expr: str, facts: dict):
    """Every valid check call on one pool ring, in the order the pins
    list their digests: global properties, then each nonzero idempotent
    with every relative property."""
    for prop in GLOBAL_PROPS:
        yield (expr, prop, None)
    for e in facts["idempotents"]:
        for prop in E_PROPS:
            yield (expr, prop, e)


def zipf_counts(total: int, ranks: int) -> list:
    """Calls per rank under a Zipf law (weight 1/k), rounded by largest
    remainder so the counts sum to total and do not depend on the seed."""
    weights = [1.0 / k for k in range(1, ranks + 1)]
    scale = total / sum(weights)
    exact = [w * scale for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(ranks), key=lambda i: (counts[i] - exact[i], i))
    for i in by_remainder[:total - sum(counts)]:
        counts[i] += 1
    return counts


def stream_plan(seed: int, facts: dict, pins: dict) -> list:
    """The seeded check-stream: Zipf-weighted rings, a random property
    per call (balanced per ring), a random nonzero idempotent for the
    relative properties, and 5% seeded bad inputs."""
    rng = random.Random(seed)
    digests = pins["check_calls"]
    calls = []
    for expr, count in zip(POOL, zipf_counts(STREAM_CALLS - BAD_CALLS,
                                              len(POOL))):
        index = {key: i for i, key in
                 enumerate(enumerate_checks(expr, facts[expr]))}
        props = []
        while len(props) < count:
            deck = list(PROPS)
            rng.shuffle(deck)
            props.extend(deck)
        for prop in props[:count]:
            e = rng.choice(facts[expr]["idempotents"]) if prop in E_PROPS \
                else None
            key = (expr, prop, e)
            calls.append(Call(check_argv(*key), 0, digests[expr][index[key]],
                              key))
    impure = [x for x in POOL if facts[x]["others"]]
    for i in range(BAD_CALLS):
        kind = i % 3
        if kind == 0:      # unknown property
            argv = check_argv(rng.choice(POOL), rng.choice(UNKNOWN_PROPS), None)
        elif kind == 1:    # --e names an element that is not idempotent
            expr = rng.choice(impure)
            argv = check_argv(expr, rng.choice(E_PROPS),
                              rng.choice(facts[expr]["others"]))
        else:              # expression cut short: a parse error
            argv = check_argv(rng.choice(POOL)[:-1], rng.choice(PROPS), None)
        calls.append(Call(argv, 2))
    rng.shuffle(calls)
    return calls


def independent_check(calls, outcomes) -> set:
    """Keys whose verdict is wrong by a route other than the pins: the
    naive-loop oracle on rings of order <= 16, and a replay of every
    failing witness.  Runs outside the timed loop."""
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        from oracle import naive_check
    finally:
        sys.path.pop(0)
    import finring
    rings, wrong, seen = {}, set(), set()
    for call, out in zip(calls, outcomes):
        if call.key is None or call.key in seen:
            continue
        seen.add(call.key)
        expr, prop, e = call.key
        try:
            results = json.loads(out.stdout)["results"]
            verdict = results[1]
            if results[0]["status"] != "ok" or verdict["status"] not in (
                    "holds", "fails"):
                raise ValueError("axioms %s, verdict %s"
                                 % (results[0]["status"], verdict["status"]))
        except (ValueError, KeyError, IndexError, TypeError):
            wrong.add(call.key)
            continue
        R = rings.get(expr)
        if R is None:
            R = rings[expr] = finring.build_expr(expr)
        if verdict["status"] == "fails" and not finring.replay_witness(
                R, prop, e, verdict["witness"]):
            wrong.add(call.key)
        elif R.order <= ORACLE_MAX_ORDER:
            eidx = finring.resolve_element(R, e) if e is not None else None
            if naive_check(R, prop, eidx) != (verdict["status"] == "holds"):
                wrong.add(call.key)
    return wrong


# ---------------------------------------------------------------------------


@dataclass
class Workload:
    name: str
    why: str
    commands: tuple = ()     # fixed command lines; none for the check-stream

    @property
    def uses_cache(self) -> bool:
        return not self.commands

    def plan(self, seed: int, pins: dict) -> list:
        """The calls of one pass; fixed workloads ignore the seed."""
        if self.commands:
            return [Call(argv, 0, pins["outputs"][" ".join(argv)])
                    for argv in self.commands]
        facts = {expr: ring_facts(expr) for expr in POOL}
        return stream_plan(seed, facts, pins)


WORKLOADS = {w.name: w for w in (
    Workload("laws-corpus",
             "finring laws on the bundled 46-ring corpus: law runner, "
             "corpus build and axiom checks, large JSON emit",
             (["laws", "--format", "json"],)),
    Workload("survey-mid",
             "survey of M(3,Z(2)) and U(3,Z(3)), order 512 and 729: axiom "
             "checks and the pair and triple sweeps",
             (["survey", "M(3,Z(2))", "--format", "json"],
              ["survey", "U(3,Z(3))", "--format", "json"])),
    Workload("survey-large",
             "survey of M(2,Z(8)) and U(3,Z(4)), order 4096: table builds "
             "and pair sweeps; the triple guard bypasses axiom checks",
             (["survey", "M(2,Z(8))", "--format", "json"],
              ["survey", "U(3,Z(4))", "--format", "json"])),
    Workload("check-stream",
             "3000 seeded Zipf-weighted check calls on rings of order <= 81 "
             "with the npz table cache: per-call overhead, parse, fail-fast"),
)}
