"""Command-line surface.

One subcommand per library operation; tables travel in the plain text
format, results print as text by default or as machine formats with
--format.  Exit codes: 0 ok, 1 usage, 2 invariant violation, 3 search cap
exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import core, deduction, qn, sweep, tableio, translatable, zm

ENV_MAX_ORDER_SEARCH = "QUADLAT_MAX_ORDER_SEARCH"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_CAP = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _out(text, path=None):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(obj, path=None):
    _out(json.dumps(obj, indent=0) + "\n", path)


def _table_out(t, args):
    if getattr(args, "format", "text") == "json":
        _emit_json({
            "n": t.n,
            "entries": [list(r) for r in t.entries],
            "labels": list(t.labels) if t.labels else None,
        }, args.output)
    else:
        _out(tableio.format_table(t), args.output)


def _perm_text(perm):
    return " ".join(str(p) for p in perm)


# -- subcommand handlers ----------------------------------------------------

def _cmd_solve(args):
    sols = zm.solve_quadratic_congruence(args.m)
    if args.format == "json":
        _emit_json({"m": args.m, "solutions": sols})
    else:
        _out(" ".join(str(a) for a in sols) + "\n")
    return EXIT_OK


def _linear_spec(args):
    """-m/-a/-b/-c as the general form x*y = ax + by + c, or None without
    -b, which selects the quadratical form x*y = ax + (1-a)y."""
    if args.b is not None:
        return zm.LinearSpec(args.m, args.a, args.b, args.c or 0)
    if args.c is not None:
        raise UsageError("-c requires -b (general linear form)")
    return None


def _cmd_table(args):
    spec = _linear_spec(args)
    if spec is not None:
        t = zm.linear_table(spec)
    else:
        t = zm.quadratical_over_zm(args.m, args.a)
    _table_out(t, args)
    return EXIT_OK


def _cmd_check(args):
    t = tableio.read_table(args.input)
    if args.all:
        idents = core.IDENTITY_IDS
    elif args.id:
        idents = tuple(args.id)
    else:
        raise UsageError("check needs --id or --all")
    report = core.identity_report(t, idents)
    if args.format == "json":
        _emit_json({
            "order": t.n,
            "results": {k: (list(v) if v is not None else None) for k, v in report.items()},
        })
    else:
        lines = []
        for ident, verdict in report.items():
            if verdict is None:
                lines.append(f"{ident}: holds")
            else:
                lines.append(f"{ident}: counterexample {verdict}")
        _out("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_k(args):
    spec = _linear_spec(args)
    if spec is not None:
        k = zm.translatability_k_linear(spec)
    else:
        k = zm.translatability_k_quadratical(args.m, args.a)
    if args.format == "json":
        _emit_json({"m": args.m, "a": args.a, "k": k})
    elif k is None:
        _out("none\n")
    elif isinstance(k, list):
        _out(" ".join(str(v) for v in k) + "\n")
    else:
        _out(f"{k}\n")
    return EXIT_OK


def _cmd_order_search(args):
    t = tableio.read_table(args.input)
    cap = args.max_order
    if cap is None:
        raw = os.environ.get(ENV_MAX_ORDER_SEARCH, "10")
        try:
            cap = int(raw)
        except ValueError:
            raise UsageError(
                f"{ENV_MAX_ORDER_SEARCH} must be an integer, got {raw!r}") from None
    found = translatable.find_translatable_ordering(t, max_order=cap)
    if args.format == "json":
        if found is None:
            _emit_json({"ordering": None, "k": None})
        else:
            _emit_json({"ordering": list(found[0]), "k": found[1]})
    elif found is None:
        _out("none\n")
    else:
        _out(f"ordering: {_perm_text(found[0])}\nk: {found[1]}\n")
    return EXIT_OK


def _cmd_hchain(args):
    t = tableio.read_table(args.input)
    dec = qn.h_chain(t, args.a, args.b, args.depth)
    if args.format == "json":
        _emit_json({
            "base": list(dec.base),
            "center": dec.center,
            "blocks": [list(b) for b in dec.blocks],
        })
    else:
        lines = [f"base: {dec.base[0]} {dec.base[1]}", f"center: {dec.center}"]
        for i, blk in enumerate(dec.blocks, start=1):
            lines.append(f"H{i}: " + " ".join(str(x) for x in blk))
        _out("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_detect_form(args):
    t = tableio.read_table(args.input)
    found = qn.detect_form(t)
    if args.format == "json":
        if found is None:
            _emit_json({"blocks": None, "a": None, "b": None})
        else:
            _emit_json({"blocks": found[0], "a": found[1], "b": found[2]})
    elif found is None:
        _out("none\n")
    else:
        _out(f"Q{found[0]} with base ({found[1]}, {found[2]})\n")
    return EXIT_OK


def _cmd_complete_qn(args):
    choice = deduction.parse_choice(args.blocks, args.choice)
    out = deduction.complete_qn(args.blocks, choice)
    if args.trace:
        conflict = out.conflict if isinstance(out, deduction.Contradiction) else None
        trace = out.trace if not isinstance(out, deduction.Stuck) else out.partial.trace
        _out(deduction.trace_text(trace, conflict), args.trace)
    if isinstance(out, deduction.Completed):
        table = out.table
        if not args.seed_labels:
            table = core.CayleyTable(table.n, table.entries)
        if args.format == "json":
            _emit_json({
                "outcome": "completed",
                "n": table.n,
                "entries": [list(r) for r in table.entries],
                "labels": list(table.labels) if table.labels else None,
            }, args.output)
        else:
            _out("completed\n" + tableio.format_table(table), args.output)
    elif isinstance(out, deduction.Contradiction):
        if args.format == "json":
            _emit_json({"outcome": "contradiction",
                        "conflict": out.conflict.kind,
                        "steps": len(out.trace)}, args.output)
        else:
            _out(f"contradiction ({out.conflict.kind}) after {len(out.trace)} deductions\n",
                 args.output)
    else:
        if args.format == "json":
            _emit_json({"outcome": "stuck",
                        "known": out.partial.known_count(),
                        "cells": out.partial.n * out.partial.n}, args.output)
        else:
            _out(f"stuck with {out.partial.known_count()} of "
                 f"{out.partial.n * out.partial.n} cells known\n", args.output)
    return EXIT_OK


def _cmd_refute_q6(args):
    report = deduction.refute_q6()
    if args.format == "json":
        _emit_json({
            "ok": report.ok,
            "cases": [{
                "choice": c.choice,
                "refuted": c.refuted,
                "splits": c.splits,
                "leaves": len(c.leaves),
            } for c in report.cases],
        })
    else:
        lines = []
        for c in report.cases:
            if c.refuted:
                lines.append(
                    f"choice 6{c.choice}: contradiction in every branch "
                    f"({len(c.leaves)} leaves, split depth {c.max_depth_used})")
            elif c.completed is not None:
                lines.append(f"choice 6{c.choice}: COMPLETED (refutation fails)")
            else:
                lines.append(f"choice 6{c.choice}: split budget exhausted")
        _out("\n".join(lines) + "\n")
    if not report.ok:
        return EXIT_INVARIANT
    return EXIT_OK


def _cmd_dual(args):
    t = tableio.read_table(args.input)
    _table_out(core.dual(t), args)
    return EXIT_OK


def _cmd_product(args):
    t1 = tableio.read_table(args.left)
    t2 = tableio.read_table(args.right)
    _table_out(core.direct_product(t1, t2), args)
    return EXIT_OK


def _cmd_iso(args):
    t1 = tableio.read_table(args.left)
    t2 = tableio.read_table(args.right)
    phi = core.find_isomorphism(t1, t2)
    if args.format == "json":
        _emit_json({"permutation": list(phi) if phi is not None else None})
    elif phi is None:
        _out("none\n")
    else:
        _out(_perm_text(phi) + "\n")
    return EXIT_OK


def _scan_common(args, rows, columns):
    fmt = args.format or "csv"
    text = sweep.emit_text(rows, fmt, columns)
    _out(text, args.output)


def _cmd_scan(args):
    if args.checkpoint:
        rows = sweep.scan_with_checkpoint(args.max_m, args.max_k, args.checkpoint)
    else:
        rows = sweep.scan_k_table(args.max_m, args.max_k)
    _scan_common(args, rows, sweep.SCAN_COLUMNS)
    if args.discrepancies:
        ds = sweep.scan_discrepancies(rows, args.max_m, args.max_k)
        _out("".join(f"{d}\n" for d in ds) if ds else "no discrepancies\n",
             args.discrepancies)
    return EXIT_OK


def _cmd_classify(args):
    rows = sweep.classify(args.max_m)
    _scan_common(args, rows, sweep.CLASSIFY_COLUMNS)
    if args.discrepancies:
        ds = sweep.classify_discrepancies(rows, args.max_m)
        _out("".join(f"{d}\n" for d in ds) if ds else "no discrepancies\n",
             args.discrepancies)
    return EXIT_OK


# -- parser -----------------------------------------------------------------

# kept so existing command lines still parse
JOBS_HELP = "no effect: every command runs on one thread"


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _build_parser() -> _Parser:
    p = _Parser(prog="quadlat", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("solve", _cmd_solve, help="solutions of the quadratic congruence mod m")
    sp.add_argument("-m", type=_positive_int, required=True)
    sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = add("table", _cmd_table, help="generate a linear table over Z_m")
    sp.add_argument("-m", type=int, required=True)
    sp.add_argument("-a", type=int, required=True)
    sp.add_argument("-b", type=int, default=None)
    sp.add_argument("-c", type=int, default=None)
    sp.add_argument("-o", "--output", default=None)
    sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = add("check", _cmd_check, help="check identities on a table file")
    sp.add_argument("-i", "--input", required=True)
    sp.add_argument("--id", action="append", choices=core.IDENTITY_IDS)
    sp.add_argument("--all", action="store_true")
    sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = add("k", _cmd_k, help="translatability shift of a linear table")
    sp.add_argument("-m", type=int, required=True)
    sp.add_argument("-a", type=int, required=True)
    sp.add_argument("-b", type=int, default=None)
    sp.add_argument("-c", type=int, default=None)
    sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = add("order-search", _cmd_order_search,
             help="exhaustive search for a translatable ordering")
    sp.add_argument("-i", "--input", required=True)
    sp.add_argument("--max-order", type=int, default=None)
    sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = add("hchain", _cmd_hchain, help="block chain from a base pair")
    sp.add_argument("-i", "--input", required=True)
    sp.add_argument("-a", type=int, required=True)
    sp.add_argument("-b", type=int, required=True)
    sp.add_argument("-n", "--depth", type=int, required=True)
    sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = add("detect-form", _cmd_detect_form, help="detect block form")
    sp.add_argument("-i", "--input", required=True)
    sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = add("complete-qn", _cmd_complete_qn,
             help="complete or refute a block-form table from one choice")
    sp.add_argument("-n", "--blocks", type=int, required=True)
    sp.add_argument("--choice", required=True)
    sp.add_argument("-o", "--output", default=None)
    sp.add_argument("--trace", default=None)
    sp.add_argument("--seed-labels", action="store_true")
    sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = add("refute-q6", _cmd_refute_q6,
             help="refute all four six-block choices")
    sp.add_argument("--jobs", type=int, default=None, help=JOBS_HELP)
    sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = add("dual", _cmd_dual, help="dual (reversed product) table")
    sp.add_argument("-i", "--input", required=True)
    sp.add_argument("-o", "--output", default=None)
    sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = add("product", _cmd_product, help="direct product of two tables")
    sp.add_argument("left")
    sp.add_argument("right")
    sp.add_argument("-o", "--output", default=None)
    sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = add("iso", _cmd_iso, help="isomorphism between two tables, if any")
    sp.add_argument("left")
    sp.add_argument("right")
    sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = add("scan", _cmd_scan, help="sweep m listing low-shift rows")
    sp.add_argument("--max-m", type=_positive_int, required=True)
    sp.add_argument("--max-k", type=_positive_int, required=True)
    sp.add_argument("-o", "--output", default=None)
    sp.add_argument("--format", choices=("csv", "json"), default=None)
    sp.add_argument("--jobs", type=int, default=None, help=JOBS_HELP)
    sp.add_argument("--checkpoint", default=None)
    sp.add_argument("--discrepancies", default=None)

    sp = add("classify", _cmd_classify, help="dual-pair representatives for m below a bound")
    sp.add_argument("--max-m", type=_positive_int, required=True)
    sp.add_argument("-o", "--output", default=None)
    sp.add_argument("--format", choices=("csv", "json"), default=None)
    sp.add_argument("--jobs", type=int, default=None, help=JOBS_HELP)
    sp.add_argument("--discrepancies", default=None)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except translatable.SearchCapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError, sweep.InvariantViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
