"""Command-line surface.

One subcommand per library operation; tables travel in the plain text
format, results print as text by default or as machine formats with
--format.  Exit codes: 0 ok, 1 usage, 2 invariant violation, 3 search cap
exceeded.
"""

import argparse
import sys

# the exceptions main maps to exit codes; each handler imports the modules
# it runs, so a command loads only those
from .errors import CheckpointBusy, InvariantViolation, SearchCapExceeded

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


def _emit(args, obj, text):
    """The one output path for a command's result, returning EXIT_OK.

    Only the format --format selects is rendered: obj as JSON (tuples
    become arrays), else text(), which is called only then; scan and
    classify pass obj=None, as their text() renders CSV and JSON alike.
    The result goes to -o when the command has it, else to stdout.  Side
    files (--trace, --discrepancies, checkpoints) are written elsewhere."""
    if args.format == "json" and obj is not None:
        import json

        body = json.dumps(obj, indent=0) + "\n"
    else:
        body = text()
    _out(body, getattr(args, "output", None))
    return EXIT_OK


def _table_json(t):
    return {"n": t.n, "entries": t.entries, "labels": t.labels or None}


def _emit_table(args, t):
    from . import tableio

    return _emit(args, _table_json(t), lambda: tableio.format_table(t))


def _words(values):
    return " ".join(str(v) for v in values)


# -- subcommand handlers ----------------------------------------------------

def _cmd_solve(args):
    from . import zm

    sols = zm.solve_quadratic_congruence(args.m)
    return _emit(args, {"m": args.m, "solutions": sols}, lambda: _words(sols) + "\n")


def _linear_spec(args):
    """-m/-a/-b/-c as the general form x*y = ax + by + c, or None without
    -b, which selects the quadratical form x*y = ax + (1-a)y."""
    from . import zm

    if args.b is not None:
        return zm.LinearSpec(args.m, args.a, args.b, args.c or 0)
    if args.c is not None:
        raise UsageError("-c requires -b (general linear form)")
    return None


def _cmd_table(args):
    from . import zm

    spec = _linear_spec(args)
    if spec is not None:
        t = zm.linear_table(spec)
    else:
        t = zm.quadratical_over_zm(args.m, args.a)
    return _emit_table(args, t)


def _cmd_check(args):
    from . import core, tableio

    t = tableio.read_table(args.input)
    if args.all:
        idents = core.IDENTITY_IDS
    elif args.id:
        idents = tuple(args.id)
    else:
        raise UsageError("check needs --id or --all")
    report = core.identity_report(t, idents)

    def text():
        return "".join(f"{ident}: holds\n" if verdict is None
                       else f"{ident}: counterexample {verdict}\n"
                       for ident, verdict in report.items())

    return _emit(args, {"order": t.n, "results": report}, text)


def _cmd_k(args):
    from . import zm

    spec = _linear_spec(args)
    if spec is not None:
        k = zm.translatability_k_linear(spec)
    else:
        k = zm.translatability_k_quadratical(args.m, args.a)

    def text():
        if k is None:
            return "none\n"
        return (_words(k) if isinstance(k, list) else str(k)) + "\n"

    return _emit(args, {"m": args.m, "a": args.a, "k": k}, text)


def _cmd_order_search(args):
    from . import tableio, translatable

    t = tableio.read_table(args.input)
    found = translatable.find_translatable_ordering(t, max_order=args.max_order)
    ordering, k = found if found is not None else (None, None)
    return _emit(args, {"ordering": ordering, "k": k},
                 lambda: "none\n" if found is None else f"ordering: {_words(ordering)}\nk: {k}\n")


def _cmd_hchain(args):
    from . import qn, tableio

    t = tableio.read_table(args.input)
    dec = qn.h_chain(t, args.a, args.b, args.depth)

    def text():
        lines = [f"base: {dec.base[0]} {dec.base[1]}", f"center: {dec.center}"]
        for i, blk in enumerate(dec.blocks, start=1):
            lines.append(f"H{i}: {_words(blk)}")
        return "\n".join(lines) + "\n"

    return _emit(args, {"base": dec.base, "center": dec.center, "blocks": dec.blocks}, text)


def _cmd_detect_form(args):
    from . import qn, tableio

    t = tableio.read_table(args.input)
    found = qn.detect_form(t)
    blocks, a, b = found if found is not None else (None, None, None)
    return _emit(args, {"blocks": blocks, "a": a, "b": b},
                 lambda: "none\n" if found is None else f"Q{blocks} with base ({a}, {b})\n")


def _cmd_complete_qn(args):
    from . import cayley, deduction, tableio

    choice = deduction.parse_choice(args.blocks, args.choice)
    out = deduction.complete_qn(args.blocks, choice)
    if args.trace:
        conflict = out.conflict if isinstance(out, deduction.Contradiction) else None
        trace = out.trace if not isinstance(out, deduction.Stuck) else out.partial.trace
        _out(deduction.trace_text(trace, conflict), args.trace)
    if isinstance(out, deduction.Completed):
        table = out.table
        if not args.seed_labels:
            table = cayley.CayleyTable(table.n, table.entries)
        return _emit(args, {"outcome": "completed", **_table_json(table)},
                     lambda: "completed\n" + tableio.format_table(table))
    if isinstance(out, deduction.Contradiction):
        kind, steps = out.conflict.kind, len(out.trace)
        return _emit(args, {"outcome": "contradiction", "conflict": kind, "steps": steps},
                     lambda: f"contradiction ({kind}) after {steps} deductions\n")
    known, cells = out.partial.known_count(), len(out.partial.entries) ** 2
    return _emit(args, {"outcome": "stuck", "known": known, "cells": cells},
                 lambda: f"stuck with {known} of {cells} cells known\n")


def _case_line(c):
    if c.refuted:
        return (f"choice 6{c.choice}: contradiction in every branch "
                f"({len(c.leaves)} leaves, split depth {c.max_depth_used})\n")
    if c.completed is not None:
        return f"choice 6{c.choice}: COMPLETED (refutation fails)\n"
    return f"choice 6{c.choice}: split budget exhausted\n"


def _cmd_refute_q6(args):
    from . import deduction

    report = deduction.refute_q6()
    cases = [{"choice": c.choice, "refuted": c.refuted, "splits": c.splits,
              "leaves": len(c.leaves)} for c in report.cases]
    _emit(args, {"ok": report.ok, "cases": cases},
          lambda: "".join(_case_line(c) for c in report.cases))
    return EXIT_OK if report.ok else EXIT_INVARIANT


def _cmd_dual(args):
    from . import core, tableio

    t = tableio.read_table(args.input)
    return _emit_table(args, core.dual(t))


def _cmd_product(args):
    from . import core, tableio

    t1 = tableio.read_table(args.left)
    t2 = tableio.read_table(args.right)
    return _emit_table(args, core.direct_product(t1, t2))


def _cmd_iso(args):
    from . import core, tableio

    t1 = tableio.read_table(args.left)
    t2 = tableio.read_table(args.right)
    phi = core.find_isomorphism(t1, t2)
    return _emit(args, {"permutation": phi},
                 lambda: "none\n" if phi is None else _words(phi) + "\n")


def _emit_rows(args, rows, columns, discrepancies):
    """The rows of scan or classify, CSV unless --format json, then the
    discrepancy report from discrepancies() when --discrepancies asks."""
    from . import sweep

    _emit(args, None, lambda: sweep.emit_text(rows, args.format or "csv", columns))
    if args.discrepancies:
        ds = discrepancies()
        _out("".join(f"{d}\n" for d in ds) if ds else "no discrepancies\n",
             args.discrepancies)
    return EXIT_OK


def _cmd_scan(args):
    from . import sweep

    if args.checkpoint:
        rows = sweep.scan_with_checkpoint(args.max_m, args.max_k, args.checkpoint)
    else:
        rows = sweep.scan_k_table(args.max_m, args.max_k)
    return _emit_rows(args, rows, sweep.SCAN_COLUMNS,
                      lambda: sweep.scan_discrepancies(rows, args.max_m, args.max_k))


def _cmd_classify(args):
    from . import sweep

    rows = sweep.classify(args.max_m)
    return _emit_rows(args, rows, sweep.CLASSIFY_COLUMNS,
                      lambda: sweep.classify_discrepancies(rows, args.max_m))


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


def _integer_text(text):
    """An integer argument kept as written, so messages quote it as given."""
    try:
        int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    return text


def _identity_id(text):
    """A --id value: one of core.IDENTITY_IDS, read only when --id is
    given, with argparse's own wording for a bad choice."""
    from .core import IDENTITY_IDS

    if text not in IDENTITY_IDS:
        choices = ", ".join(map(repr, IDENTITY_IDS))
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from {choices})")
    return text


def _build_parser() -> _Parser:
    p = _Parser(prog="quadlat", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help, *shared, formats=("text", "json"), default="text"):
        """A subcommand with --format and the shared flags it names
        ("input", "output", "jobs"); each shared flag is declared only here,
        before the command's own arguments, so -i stays first in the list
        of missing required arguments."""
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(fn=fn)
        if "input" in shared:
            sp.add_argument("-i", "--input", required=True)
        if "output" in shared:
            sp.add_argument("-o", "--output", default=None)
        sp.add_argument("--format", choices=formats, default=default)
        if "jobs" in shared:
            sp.add_argument("--jobs", type=int, default=None, help=JOBS_HELP)
        return sp

    def linear_form(sp):
        """-m/-a/-b/-c of table and k, read by _linear_spec."""
        sp.add_argument("-m", type=_positive_int, required=True)
        sp.add_argument("-a", type=int, required=True)
        sp.add_argument("-b", type=int, default=None)
        sp.add_argument("-c", type=int, default=None)

    sp = add("solve", _cmd_solve, "solutions of the quadratic congruence mod m")
    sp.add_argument("-m", type=_positive_int, required=True)

    linear_form(add("table", _cmd_table, "generate a linear table over Z_m", "output"))

    sp = add("check", _cmd_check, "check identities on a table file", "input")
    sp.add_argument("--id", action="append", type=_identity_id,
                    help="an identity to check; repeatable, and an unknown id lists them all")
    sp.add_argument("--all", action="store_true")

    linear_form(add("k", _cmd_k, "translatability shift of a linear table"))

    sp = add("order-search", _cmd_order_search,
             "exhaustive search for a translatable ordering", "input")
    sp.add_argument("--max-order", type=_positive_int, default=10)

    sp = add("hchain", _cmd_hchain, "block chain from a base pair", "input")
    sp.add_argument("-a", type=int, required=True)
    sp.add_argument("-b", type=int, required=True)
    sp.add_argument("-n", "--depth", type=_positive_int, required=True)

    add("detect-form", _cmd_detect_form, "detect block form", "input")

    sp = add("complete-qn", _cmd_complete_qn,
             "complete or refute a block-form table from one choice", "output")
    sp.add_argument("-n", "--blocks", type=_positive_int, required=True)
    sp.add_argument("--choice", type=_integer_text, required=True)
    sp.add_argument("--trace", default=None)
    sp.add_argument("--seed-labels", action="store_true")

    add("refute-q6", _cmd_refute_q6, "refute all four six-block choices", "jobs")
    add("dual", _cmd_dual, "dual (reversed product) table", "input", "output")

    sp = add("product", _cmd_product, "direct product of two tables", "output")
    sp.add_argument("left")
    sp.add_argument("right")

    sp = add("iso", _cmd_iso, "isomorphism between two tables, if any")
    sp.add_argument("left")
    sp.add_argument("right")

    sweeps = dict(formats=("csv", "json"), default=None)
    sp = add("scan", _cmd_scan, "sweep m listing low-shift rows", "output", "jobs", **sweeps)
    sp.add_argument("--max-m", type=_positive_int, required=True)
    sp.add_argument("--max-k", type=_positive_int, required=True)
    sp.add_argument("--checkpoint", default=None)
    sp.add_argument("--discrepancies", default=None)

    sp = add("classify", _cmd_classify, "dual-pair representatives for m below a bound",
             "output", "jobs", **sweeps)
    sp.add_argument("--max-m", type=_positive_int, required=True)
    sp.add_argument("--discrepancies", default=None)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (UsageError, CheckpointBusy) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SearchCapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError, InvariantViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
