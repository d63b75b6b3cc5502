"""The CLI's observable behaviour, pinned byte for byte.

Every command line below runs through ``quadlat.cli.main`` twice, as
written and with ``--format json`` appended, in a fresh working directory
holding a few input tables.  A SHA-256 covers the argv, exit code, stdout,
stderr and the bytes of every side file the command line names (``-o``,
``--trace``, ``--discrepancies``, checkpoints).  Messages from argparse
differ between Python versions, so the pinned usage errors are only the
"required arguments" ones, whose wording is stable.
"""

import hashlib
import io
import os
from contextlib import redirect_stderr, redirect_stdout

from quadlat import CayleyTable, quadratical_over_zm, relabel, write_table
from quadlat.cli import main

# SHA-256 of cli_digest(), computed with the CLI before its handlers shared
# one output path, then recomputed when `hchain -n 0` and
# `complete-qn --choice abc` became usage errors (exit 1, was 2), and again
# when the checkpoint's row archive gained a count line after each flushed
# window (`#2,150,48`, `#151,300,46`), and again when checkpointed scans
# stopped writing that archive: the four `ck.rows` records now read
# absent, and with them dropped every record is as before; and again when
# the engine stopped running bookend and strong elasticity: only the trace
# file of `complete-qn -n 4 --choice 1 --trace` moved, its 30
# strong-elasticity steps now alterability steps over the same 193 cells
CLI_DIGEST = "a8d2816fc3fd9edac1dcde842a8427570be9b5c0a5d3606139001c5e91d30862"

# (argv, side files it names), in run order: the second checkpointed scan
# resumes from the first, and `ck.rows` pins that no row archive is written
COMMAND_LINES = [
    (["solve", "-m", "65"], []),
    (["solve", "-m", "3"], []),
    (["solve"], []),
    (["table", "-m", "13", "-a", "11"], []),
    (["table", "-m", "13", "-a", "11", "-o", "out.txt"], ["out.txt"]),
    (["table", "-m", "7", "-a", "4", "-b", "1", "-c", "2"], []),
    (["table", "-m", "5", "-a", "3"], []),
    (["table", "-m", "13", "-a", "3", "-c", "1"], []),
    (["table", "-a", "1"], []),
    (["check", "-i", "q13.txt", "--all"], []),
    (["check", "-i", "add5.txt", "--id", "bookend", "--id", "mediality"], []),
    (["check", "-i", "q13.txt"], []),
    (["check", "-i", "missing.txt", "--all"], []),
    (["check", "-i", "bad.txt", "--all"], []),
    (["check"], []),
    (["k", "-m", "13", "-a", "3"], []),
    (["k", "-m", "7", "-a", "4", "-b", "1"], []),
    (["k", "-m", "5", "-a", "2", "-b", "0"], []),
    (["k", "-m", "12", "-a", "2", "-b", "2"], []),
    (["k", "-m", "5", "-a", "3"], []),
    (["k", "-m", "13", "-a", "3", "-c", "1"], []),
    (["order-search", "-i", "q5.txt"], []),
    (["order-search", "-i", "const3.txt"], []),
    (["order-search", "-i", "skew3.txt"], []),
    (["order-search", "-i", "q13.txt"], []),
    (["order-search", "-i", "q13.txt", "--max-order", "13"], []),
    (["hchain", "-i", "q13.txt", "-a", "0", "-b", "1", "-n", "3"], []),
    (["hchain", "-i", "q13.txt", "-a", "0", "-b", "1", "-n", "0"], []),
    (["hchain", "-i", "q13.txt", "-a", "0", "-b", "13", "-n", "1"], []),
    (["hchain", "-i", "q13.txt"], []),
    (["detect-form", "-i", "q13.txt"], []),
    (["detect-form", "-i", "q25.txt"], []),
    (["detect-form", "-i", "add5.txt"], []),
    (["complete-qn", "-n", "2", "--choice", "22", "--seed-labels",
      "-o", "out.txt", "--trace", "trace.txt"], ["out.txt", "trace.txt"]),
    (["complete-qn", "-n", "1", "--choice", "2"], []),
    (["complete-qn", "-n", "2", "--choice", "24", "--trace", "trace.txt"], ["trace.txt"]),
    (["complete-qn", "-n", "4", "--choice", "1", "--trace", "trace.txt"], ["trace.txt"]),
    (["complete-qn", "-n", "3", "--choice", "2", "-o", "out.txt"], ["out.txt"]),
    (["complete-qn", "-n", "2", "--choice", "abc"], []),
    (["complete-qn", "-n", "2", "--choice", "9"], []),
    (["complete-qn", "--choice", "1"], []),
    (["refute-q6"], []),
    (["refute-q6", "--jobs", "2"], []),
    (["dual", "-i", "q13.txt"], []),
    (["dual", "-i", "q5.txt", "-o", "out.txt"], ["out.txt"]),
    (["dual", "-i", "labelled.txt"], []),
    (["dual", "-i", "."], []),
    (["product", "q5.txt", "const3.txt"], []),
    (["product", "q5.txt", "q5.txt", "-o", "out.txt"], ["out.txt"]),
    (["product", "q5.txt"], []),
    (["iso", "q13.txt", "q13.txt"], []),
    (["iso", "q13.txt", "q13r.txt"], []),
    (["iso", "q13.txt", "q13d.txt"], []),
    (["iso", "q5.txt", "const3.txt"], []),
    (["iso", "left8.txt", "right8.txt"], []),
    (["scan", "--max-m", "300", "--max-k", "40"], []),
    (["scan", "--max-m", "1200", "--max-k", "40", "-o", "rows.out",
      "--discrepancies", "disc.txt"], ["rows.out", "disc.txt"]),
    (["scan", "--max-m", "150", "--max-k", "40", "--checkpoint", "ck"],
     ["ck", "ck.rows"]),
    (["scan", "--max-m", "300", "--max-k", "40", "--checkpoint", "ck"],
     ["ck", "ck.rows"]),
    (["scan", "--max-m", "100", "--max-k", "40", "--jobs", "2"], []),
    (["scan", "--max-m", "100"], []),
    (["classify", "--max-m", "200", "--discrepancies", "disc.txt"], ["disc.txt"]),
    (["classify", "--max-m", "100", "-o", "rows.out", "--jobs", "1"], ["rows.out"]),
    (["classify"], []),
]


def write_inputs(directory) -> None:
    q13 = quadratical_over_zm(13, 11)
    write_table(q13, os.path.join(directory, "q13.txt"))
    write_table(relabel(q13, [5, 2, 12, 0, 7, 1, 3, 4, 10, 11, 6, 9, 8]),
                os.path.join(directory, "q13r.txt"))
    write_table(quadratical_over_zm(13, 3), os.path.join(directory, "q13d.txt"))
    write_table(quadratical_over_zm(5, 2), os.path.join(directory, "q5.txt"))
    write_table(CayleyTable.from_function(5, lambda x, y: (x + y) % 5),
                os.path.join(directory, "add5.txt"))
    write_table(CayleyTable.from_function(3, lambda x, y: 0),
                os.path.join(directory, "const3.txt"))
    # no ordering makes this one translatable
    write_table(CayleyTable.from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 1]]),
                os.path.join(directory, "skew3.txt"))
    # quadratical, but not in block form
    write_table(quadratical_over_zm(25, 22), os.path.join(directory, "q25.txt"))
    write_table(CayleyTable.from_function(8, lambda x, y: x),
                os.path.join(directory, "left8.txt"))
    write_table(CayleyTable.from_function(8, lambda x, y: y),
                os.path.join(directory, "right8.txt"))
    with open(os.path.join(directory, "labelled.txt"), "w", encoding="utf-8") as fh:
        fh.write("3\n0 2 1\n2 1 0\n1 0 2\n# labels: x y z\n")
    with open(os.path.join(directory, "bad.txt"), "w", encoding="utf-8") as fh:
        fh.write("3\n0 1 x\n1 2 0\n2 0 1\n")


def run_once(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def cli_records(directory):
    """(argv, exit code, stdout, stderr, side files) for every command line
    in text and in JSON, run in directory with its inputs written first."""
    write_inputs(directory)
    records = []
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for argv, side_files in COMMAND_LINES:
            for variant in (argv, argv + ["--format", "json"]):
                code, out, err = run_once(variant)
                files = []
                for name in side_files:
                    if os.path.exists(name):
                        with open(name, "rb") as fh:
                            files.append((name, fh.read()))
                    else:
                        files.append((name, None))
                records.append((variant, code, out, err, files))
    finally:
        os.chdir(cwd)
    return records


def cli_digest(directory) -> str:
    h = hashlib.sha256()
    for argv, code, out, err, files in cli_records(directory):
        h.update(repr((argv, code, out, err)).encode())
        for name, data in files:
            h.update(f"{name} {data is not None}\n".encode())
            h.update(data or b"")
    return h.hexdigest()


def test_cli_output_pinned(tmp_path):
    assert cli_digest(tmp_path) == CLI_DIGEST
