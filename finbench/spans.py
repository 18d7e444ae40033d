"""Spans around finring's public entry points, for the traced run.

The untraced run calls finring exactly as a user would.  The traced run
swaps a fixed set of public functions for wrappers that record one span
per call (layer name, start, end, parent span, CLI call it belongs to),
repeats the same call sequence, and puts the originals back.  Spans are
kept in memory; layer totals are derived from them after the pass.

A layer's self time is its spans' duration minus the part their child
spans cover, so the self times of all layers add up to the time spent
inside `cli.main`.
"""
from __future__ import annotations

import json
import os
import sys
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass, field

# properties whose sweep costs order^3 in the worst case; the rest are
# order^2 pair sweeps
TRIPLE_PROPS = frozenset((
    "symmetric", "semicommutative", "reflexive", "right_idempotent_reflexive",
    "prime", "e_symmetric", "right_e_semicommutative",
    "left_e_semicommutative",
))
CENSUS_SCANS = ("idempotents", "nilpotents", "center", "is_left_semicentral",
                "is_right_semicentral", "minimal_left_idempotents")
MIB = float(1 << 20)


@dataclass
class Span:
    name: str
    start: float
    parent: int                 # index of the enclosing span, -1 at a root
    call: int                   # index of the CLI call (the request id)
    end: float = 0.0
    tag: str = ""
    child_time: float = 0.0     # duration covered by direct children
    files: int = 0              # cache files this build added, children included
    child_files: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_time


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(int))
    _stack: list = field(default_factory=list)
    _calls: int = -1
    _patched: list = field(default_factory=list)
    _checked: "weakref.WeakSet" = field(default_factory=weakref.WeakSet)
    _tripled: "weakref.WeakSet" = field(default_factory=weakref.WeakSet)

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        if parent < 0:
            self._calls += 1
        span = Span(name, time.perf_counter(), parent, self._calls)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            parent = self.spans[span.parent]
            parent.child_time += span.seconds

    def wrap(self, name, fn, before=None, after=None):
        """fn with a span named name around every call.

        before(span, args, kwargs) runs inside the span; after(span, args,
        kwargs, result, error) runs once the span is closed."""
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            result = error = None
            try:
                if before is not None:
                    before(span, args, kwargs)
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                tracer._close(span)
                if after is not None:
                    after(span, args, kwargs, result, error)

        traced.__wrapped__ = fn
        return traced

    # -- installing wrappers ------------------------------------------------

    def _replace(self, original, replacement):
        """Rebind every finring module attribute bound to original."""
        for modname, mod in list(sys.modules.items()):
            if modname != "finring" and not modname.startswith("finring."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._patched.append((mod, attr, original))

    def _wrap_function(self, module, attr, name, before=None, after=None):
        original = getattr(module, attr, None)
        if original is None:
            print("trace: %s.%s is missing; layer %s not traced"
                  % (module.__name__, attr, name), file=sys.stderr)
            return
        self._replace(original, self.wrap(name, original, before, after))

    def _wrap_method(self, cls, attr, name):
        original = cls.__dict__.get(attr)
        if original is None:
            return
        setattr(cls, attr, self.wrap(name, original))
        self._patched.append((cls, attr, original))

    def install(self):
        import finring.cli as cli
        import finring.construct as construct
        import finring.core as core
        import finring.dsl as dsl
        import finring.laws as laws
        import finring.predicates as predicates

        self._wrap_function(cli, "main", "cli")
        self._wrap_function(dsl, "parse", "dsl.parse")
        self._wrap_function(construct, "build_expr", "construct.build",
                            self._build_before, self._build_after)
        self._wrap_function(core, "verify_axioms", "core.verify_axioms",
                            after=self._axioms_after)
        self._wrap_function(predicates, "check_property", "predicates.check",
                            self._check_before, self._check_after)
        for scan in CENSUS_SCANS:
            self._wrap_function(predicates, scan, "predicates.census")
        self._wrap_function(laws, "corpus_from_text", "laws.corpus")
        self._wrap_function(laws, "run_law", "laws.law", self._law_before,
                            self._law_after)
        # emit: the to_dict conversions and json.dumps as the CLI sees it
        self._wrap_method(predicates.PropertyVerdict, "to_dict", "cli.emit")
        self._wrap_method(laws.LawReport, "to_dict", "cli.emit")
        real_json = cli.json
        proxy = type(sys)("json")
        proxy.__dict__.update(vars(real_json))
        proxy.dumps = self.wrap("cli.emit", real_json.dumps)
        cli.json = proxy
        self._patched.append((cli, "json", real_json))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- per-layer counters -------------------------------------------------

    @staticmethod
    def _cache_dir(args, kwargs):
        return kwargs.get("cache_dir", args[2] if len(args) > 2 else None)

    def _build_before(self, span, args, kwargs):
        cache_dir = self._cache_dir(args, kwargs)
        if cache_dir:
            span.files = -_count_files(cache_dir)

    def _build_after(self, span, args, kwargs, ring, error):
        self.counts["construct.build_calls"] += 1
        cache_dir = self._cache_dir(args, kwargs)
        if cache_dir:
            span.files += _count_files(cache_dir)
            if span.parent >= 0:
                self.spans[span.parent].child_files += span.files
            if error is None:
                own = span.files - span.child_files
                self.counts["construct.cache_misses" if own > 0
                            else "construct.cache_hits"] += 1
        if ring is not None:
            n = ring.order
            self.counts["construct.max_order"] = max(
                self.counts["construct.max_order"], n)
            self.counts["construct.table_mb"] += (
                2 * n * n * ring.add.itemsize / MIB)

    def _axioms_after(self, span, args, kwargs, report, error):
        self.counts["core.verify_axioms_calls"] += 1
        if error is not None:
            if type(error).__name__ == "SizeGuardError":
                self.counts["core.verify_axioms_skipped"] += 1
            return
        n = args[0].order
        self.counts["core.axiom_cells"] += 4 * n ** 3

    def _check_before(self, span, args, kwargs):
        R = args[0]
        prop = str(args[1] if len(args) > 1 else kwargs["prop"])
        span.tag = "triple" if prop.replace("-", "_") in TRIPLE_PROPS \
            else "pair"
        if span.tag == "triple" and R not in self._tripled:
            self._tripled.add(R)
            span.tag = "first_triple"

    def _check_after(self, span, args, kwargs, verdict, error):
        if verdict is None:
            return
        self.counts["predicates.verdicts"] += 1
        if verdict.status in ("fails", "skipped"):
            self.counts["predicates." + verdict.status] += 1
        R = args[0]
        if verdict.status != "skipped" and R not in self._checked:
            self._checked.add(R)
            self.counts["predicates.zero_pairs"] += int(
                (R.mul == R.zero).sum())

    def _law_before(self, span, args, kwargs):
        span.tag = str(args[0] if args else kwargs["law"]).replace("-", "_")

    def _law_after(self, span, args, kwargs, report, error):
        if report is None:
            return
        self.counts["laws.cases"] += len(report.cases)
        self.counts["laws.violated"] += report.totals["violated"]

    # -- results ------------------------------------------------------------

    def layer_metrics(self, law_names) -> dict:
        """Self time per layer, per-law inclusive time, and counters."""
        by_layer = defaultdict(float)
        laws = {law: 0.0 for law in law_names}
        for span in self.spans:
            name = span.name
            if name == "predicates.check":
                name = "predicates.pair" if span.tag == "pair" \
                    else "predicates.triple"
                if span.tag == "first_triple":
                    by_layer["predicates.first_triple"] += span.self_seconds
            by_layer[name] += span.self_seconds
            if span.name == "laws.law":
                laws[span.tag] = laws.get(span.tag, 0.0) + span.seconds
            elif span.name == "laws.corpus":
                by_layer["laws.corpus_inclusive"] += span.seconds
        out = {
            "cli.self_s": by_layer["cli"],
            "cli.emit_s": by_layer["cli.emit"],
            "dsl.parse_s": by_layer["dsl.parse"],
            "construct.build_s": by_layer["construct.build"],
            "core.verify_axioms_s": by_layer["core.verify_axioms"],
            "predicates.pair_s": by_layer["predicates.pair"],
            "predicates.triple_s": by_layer["predicates.triple"],
            "predicates.first_triple_s": by_layer["predicates.first_triple"],
            "predicates.census_s": by_layer["predicates.census"],
            "laws.self_s": by_layer["laws.law"] + by_layer["laws.corpus"],
            "laws.corpus_s": by_layer["laws.corpus_inclusive"],
        }
        for law in law_names:
            out["laws.%s_s" % law] = laws[law]
        out["dsl.parse_calls"] = sum(1 for s in self.spans
                                     if s.name == "dsl.parse")
        for key in ("construct.build_calls", "construct.max_order",
                    "construct.table_mb", "construct.cache_hits",
                    "construct.cache_misses", "core.verify_axioms_calls",
                    "core.verify_axioms_skipped", "core.axiom_cells",
                    "predicates.zero_pairs", "predicates.verdicts",
                    "predicates.fails", "predicates.skipped", "laws.cases",
                    "laws.violated"):
            out[key] = self.counts[key]
        return out

    def root_seconds(self) -> float:
        return sum(s.seconds for s in self.spans if s.parent < 0)

    def dump(self, path):
        """Write every span as one JSON line: name, tag, start, end,
        parent index, call index."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.tag, round(s.start, 7),
                                     round(s.end, 7), s.parent, s.call]))
                fh.write("\n")


def _count_files(directory: str) -> int:
    try:
        return len(os.listdir(directory))
    except FileNotFoundError:
        return 0
