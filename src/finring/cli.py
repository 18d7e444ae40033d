"""Command line front end: check, survey, laws, describe.

Exit codes: 0 ok (a failing property verdict is still 0 for check), 1
law violations, 2 usage or parse errors, 3 size guard aborts, 4 out of
memory, 70 an internal fault (traceback on stderr), 130 interrupted,
141 (128 + SIGPIPE) when the reader of stdout went away.  Machine
reports are a single JSON object with stable key order and no floats,
so byte-identical reruns and load/dump round-trips hold.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .core import DEFAULT_GUARDS, Guards, RingError, SizeGuardError
from .core import prove_axioms
from .construct import build_expr
from .dsl import ParseError, parse
from .laws import (LAW_ORDER, default_corpus, load_corpus, reads_corpus,
                   run_laws, select_laws)
from .predicates import (E_PROPS, GLOBAL_PROPS, center, check_property,
                         distinguished_idempotent, idempotents,
                         is_left_semicentral, is_right_semicentral,
                         nilpotents, property_name, survey)

SCHEMA = "finring/1"

_MARK = {"holds": "ok", "fails": "FAIL", "skipped": "skip"}
_CELL = {"holds": "+", "fails": "-", "skipped": "?"}
_SHORT = (
    ("right_e_reversible", "r-rev"),
    ("left_e_reversible", "l-rev"),
    ("right_e_reduced", "r-red"),
    ("left_e_reduced", "l-red"),
    ("e_symmetric", "sym"),
    ("right_e_semicommutative", "r-scm"),
    ("left_e_semicommutative", "l-scm"),
)


def _guards(args) -> Guards:
    return Guards(pair_cap=args.max_pair_order,
                  triple_cap=args.max_triple_order)


def _emit(args, ring, results):
    """Print the one JSON report of a run; ring is its provenance, or
    None for laws."""
    print(json.dumps({"schema": SCHEMA, "command": args.echo, "ring": ring,
                      "results": results, "timings": None}, indent=2))


def _proven(args, node, e=None):
    """Build node and prove it a ring: (ring, guards, axioms status).
    An idempotent literal e is resolved between the two, so a bad --e
    is refused before the proof's cost."""
    guards = _guards(args)
    ring = build_expr(node, guards)
    if e is not None:
        distinguished_idempotent(ring, e)
    skip = prove_axioms(ring, guards)
    return ring, guards, "ok" if skip is None else "skipped (%s)" % skip


def _clip(text, width=44):
    return text if len(text) <= width else text[:width - 2] + ".."


def cmd_check(args) -> int:
    node = parse(args.expr)
    prop = property_name(args.property, args.e)    # before any build
    ring, guards, axioms = _proven(args, node, args.e)
    verdict = check_property(ring, prop, args.e, guards)
    results = [{"kind": "axioms", "status": axioms},
               verdict.to_dict()]
    if args.format == "json":
        _emit(args, ring.provenance, results)
    else:
        print("ring: %s  (order %d)" % (ring.provenance, ring.order))
        print("axioms: %s" % axioms)
        rel = ("%s relative to %s" % (verdict.property, verdict.idempotent)
               if verdict.idempotent is not None else verdict.property)
        print("%s: %s" % (rel, _MARK[verdict.status]))
        if verdict.witness_labels:
            print("witness: %s" % (", ".join(verdict.witness_labels)))
        if verdict.detail:
            print("detail: %s" % verdict.detail)
        if verdict.reason:
            print("reason: %s" % verdict.reason)
    # a failing property is an answer, not an error; a guard skip is not
    # an answer
    return 3 if verdict.status == "skipped" else 0


def cmd_survey(args) -> int:
    ring, guards, axioms = _proven(args, parse(args.expr))
    verdicts = survey(ring, guards)
    globals_res = [v.to_dict() for v in verdicts if v.idempotent is None]
    status = {(v.idempotent, v.property): v.status for v in verdicts}
    rows = []
    for f in (int(x) for x in idempotents(ring)):
        label = ring.labels[f]
        rows.append({
            "idempotent": label,
            "left_semicentral": bool(is_left_semicentral(ring, f)),
            "right_semicentral": bool(is_right_semicentral(ring, f)),
            # relative conditions degenerate at zero: every product is
            # crushed by the idempotent
            "verdicts": {p: "holds" if f == ring.zero else status[label, p]
                         for p in E_PROPS},
        })
    results = [{"kind": "axioms", "status": axioms},
               {"kind": "global", "verdicts": globals_res},
               {"kind": "matrix", "rows": rows}]
    if args.format == "json":
        _emit(args, ring.provenance, results)
        return 0
    print("ring: %s  (order %d, %d idempotents)"
          % (ring.provenance, ring.order, len(rows)))
    print("axioms: %s" % axioms)
    for v in globals_res:
        print("  %-28s %s" % (v["property"], _MARK[v["status"]]))
    head = ("idempotent", "lsc", "rsc") + tuple(s for _, s in _SHORT)
    width = max([len(head[0])] + [len(_clip(r["idempotent"])) for r in rows])
    print("  ".join(["%-*s" % (width, head[0])] + list(head[1:])))
    for r in rows:
        cells = ["%-*s" % (width, _clip(r["idempotent"])),
                 "yes" if r["left_semicentral"] else "no ",
                 "yes" if r["right_semicentral"] else "no "]
        for prop, short in _SHORT:
            cells.append("%-*s" % (len(short), _CELL[r["verdicts"][prop]]))
        print("  ".join(cells))
    print("cells: + holds, - fails, ? guard-skipped")
    return 0


def cmd_laws(args) -> int:
    guards = _guards(args)
    laws = select_laws(args.law or None)     # before the corpus is built
    # the manifest is parsed even when no selected law reads it, so a
    # malformed one is still refused
    build = reads_corpus(laws)
    if args.corpus:
        corpus = load_corpus(args.corpus, guards, build)
    else:
        corpus = default_corpus(guards, build)
    reports = run_laws(corpus, guards, laws)
    violated = sum(r.totals["violated"] for r in reports)
    results = [r.to_dict() for r in reports]
    if args.format == "json":
        _emit(args, None, results)
        return 1 if violated else 0
    print("corpus: %s (%d entries%s)"
          % (corpus.source, len(corpus.entries),
             "" if build else ", not built: no selected law reads it"))
    for ent in corpus.entries:
        if ent.note:
            print("  note: %s: %s" % (ent.text, ent.note))
    for r in reports:
        t = r.totals
        print("%-22s holds=%-4d violated=%-3d not-applicable=%-3d skipped=%d"
              % (r.law, t["holds"], t["violated"], t["not-applicable"],
                 t["skipped"]))
        for c in r.cases:
            if c.status == "violated":
                print("  VIOLATED %s idempotent=%s: %s"
                      % (c.ring, c.idempotent, c.reason or c.detail))
                if c.reason and c.detail:
                    print("    detail: %s" % c.detail)
                if c.witness_labels:
                    print("    witness: %s" % ", ".join(c.witness_labels))
    print("violated cases: %d" % violated)
    return 1 if violated else 0


def cmd_describe(args) -> int:
    ring, guards, axioms = _proven(args, parse(args.expr))
    ids = [int(x) for x in idempotents(ring)]
    nil = [int(x) for x in nilpotents(ring)]
    cen = [int(x) for x in center(ring)]
    summary = {
        "kind": "summary",
        "order": ring.order,
        "zero": ring.labels[ring.zero],
        "one": ring.labels[ring.one],
        "idempotent_count": len(ids),
        "idempotents": [{
            "label": ring.labels[f],
            "left_semicentral": bool(is_left_semicentral(ring, f)),
            "right_semicentral": bool(is_right_semicentral(ring, f)),
        } for f in ids],
        "nilpotent_count": len(nil),
        "nilpotents": [ring.labels[x] for x in nil],
        "center_size": len(cen),
        "center": [ring.labels[x] for x in cen],
    }
    globals_res = [v.to_dict() for v in survey(ring, guards, GLOBAL_PROPS)]
    results = [{"kind": "axioms", "status": axioms}, summary,
               {"kind": "global", "verdicts": globals_res}]
    if args.format == "json":
        _emit(args, ring.provenance, results)
        return 0
    print("ring: %s  (order %d)" % (ring.provenance, ring.order))
    print("axioms: %s" % axioms)
    print("zero: %s   one: %s" % (summary["zero"], summary["one"]))
    print("idempotents (%d):" % len(ids))
    for row in summary["idempotents"]:
        flags = []
        if row["left_semicentral"]:
            flags.append("left-semicentral")
        if row["right_semicentral"]:
            flags.append("right-semicentral")
        print("  %s%s" % (_clip(row["label"]),
                          ("  [" + ", ".join(flags) + "]") if flags else ""))
    shown = ", ".join(_clip(x, 20) for x in summary["nilpotents"][:12])
    more = "" if len(nil) <= 12 else ", ... (%d total)" % len(nil)
    print("nilpotents (%d): %s%s" % (len(nil), shown or "none", more))
    print("center: %d elements" % len(cen))
    for v in globals_res:
        print("  %-28s %s" % (v["property"], _MARK[v["status"]]))
    return 0


def _parser():
    top = argparse.ArgumentParser(
        prog="finring",
        description="finite ring toolkit: build rings from expressions, "
                    "check properties, sweep laws")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "json"),
                        default="table", help="output mode")
    common.add_argument("--max-pair-order", type=int,
                        default=DEFAULT_GUARDS.pair_cap,
                        help="largest order for the pair properties "
                             "(O(n^2) table cells)")
    common.add_argument("--max-triple-order", type=int,
                        default=DEFAULT_GUARDS.triple_cap,
                        help="largest order for the axiom check (an "
                             "O(n^2) proof; a failing axiom's least witness "
                             "is a cubic scan) and the triple properties "
                             "(O(n^2*d) cells on d additive generators)")
    common.add_argument("--cache", metavar="DIR", default=None,
                        help="ignored; kept so older command lines still "
                             "run (rings are always built in memory)")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="decide one property of one ring")
    p.add_argument("expr", help="ring expression, e.g. 'U(2,Z(3))'")
    p.add_argument("property", help="property name; dashes are fine")
    p.add_argument("--e", default=None,
                   help="idempotent element literal for relative properties")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("survey", parents=[common],
                       help="full idempotent-by-property matrix")
    p.add_argument("expr")
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser("laws", parents=[common],
                       help="sweep the law suite over a corpus")
    p.add_argument("--law", action="append", default=[],
                   metavar="ID", help="run only this law (repeatable); "
                                      "known: %s" % ", ".join(LAW_ORDER))
    p.add_argument("--corpus", default=None,
                   help="corpus manifest path (default: bundled)")
    p.set_defaults(func=cmd_laws)

    p = sub.add_parser("describe", parents=[common],
                       help="order, idempotents, nilpotents, center, "
                            "global properties")
    p.add_argument("expr")
    p.set_defaults(func=cmd_describe)
    return top


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    top = _parser()
    args = top.parse_args(argv)
    args.echo = argv
    try:
        code = args.func(args)
        sys.stdout.flush()      # a closed pipe raises here, not at exit
        return code
    except ParseError as err:
        print("parse error: %s" % err, file=sys.stderr)
        return 2
    except SizeGuardError as err:
        print("size guard: %s" % err, file=sys.stderr)
        return 3
    except (RingError, ValueError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # not bad input: the reader (say, head) stopped reading.  Point
        # stdout at devnull, so that the exit-time flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OSError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except MemoryError as err:
        print("out of memory:", str(err) or "no message", file=sys.stderr)
        return 4
    except KeyboardInterrupt:
        return 130
    except Exception:
        # an internal fault: keep its traceback for the bug report
        import traceback
        traceback.print_exc()
        return 70


def entry():
    sys.exit(main())
