"""Seeded fuzzing of the command line, with the standard library only.

From a fixed seed, the golden command lines of test_cli_golden are mutated:
a token is dropped, duplicated or swapped with its neighbour, or a number
is replaced by an edge value.  Malformed table files are fed to every
command that reads a table.  Each case runs through ``quadlat.cli.main`` in
a fresh copy of the golden inputs, and must return an exit code in
{0, 1, 2, 3}, raise nothing and write at most one line to stderr.
"""

import io
import random
import shutil
from contextlib import redirect_stderr, redirect_stdout

import pytest

from quadlat.cli import main

from test_cli_golden import COMMAND_LINES, write_inputs

SEED = 20261019
CASES = 400
EDGE_NUMBERS = ("-1", "0", "1", "2", "3", "5", "13", "29")

MALFORMED_TABLES = {
    "empty.txt": b"",
    "order0.txt": b"0\n",
    "negative.txt": b"-3\n0 1 2\n1 2 0\n2 0 1\n",
    "nonint.txt": b"3\n0 1 2\n1 2 0\n2 0 1.5\n",
    "range.txt": b"3\n0 1 2\n1 2 0\n2 0 3\n",
    "short.txt": b"3\n0 1 2\n1 2\n2 0 1\n",
    "fewrows.txt": b"3\n0 1 2\n1 2 0\n",
    "extra.txt": b"3\n0 1 2\n1 2 0\n2 0 1\nnot a label line\n",
    "duplabels.txt": b"3\n0 1 2\n1 2 0\n2 0 1\n# labels: x y x\n",
    "nonutf8.txt": b"3\n0 1 2\n1 2 0\n2 0 \xff\n",
}

# every command that reads a table, with {t} for the malformed file
TABLE_READERS = (
    ["check", "-i", "{t}", "--all"],
    ["dual", "-i", "{t}"],
    ["product", "{t}", "q5.txt"],
    ["product", "q5.txt", "{t}"],
    ["iso", "{t}", "q13.txt"],
    ["detect-form", "-i", "{t}"],
    ["order-search", "-i", "{t}"],
    ["hchain", "-i", "{t}", "-a", "0", "-b", "1", "-n", "1"],
)


def mutate(argv, rng):
    """argv with one to three random token edits."""
    argv = list(argv)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(argv))
        numbers = [j for j, tok in enumerate(argv) if tok.lstrip("-").isdigit()]
        # number edits mostly keep the command line well formed, so they
        # weigh most and reach past the parser
        edit = rng.choice(("drop", "duplicate", "swap", "number", "number", "number"))
        if edit == "drop" and len(argv) > 1:
            del argv[i]
        elif edit == "duplicate":
            argv.insert(i, argv[i])
        elif edit == "swap" and i + 1 < len(argv):
            argv[i], argv[i + 1] = argv[i + 1], argv[i]
        elif numbers:
            argv[rng.choice(numbers)] = rng.choice(EDGE_NUMBERS)
    return argv


def fuzz_cases():
    rng = random.Random(SEED)
    cases = []
    for _ in range(CASES):
        argv, _files = rng.choice(COMMAND_LINES)
        if rng.random() < 0.5:
            argv = argv + ["--format", "json"]
        cases.append(mutate(argv, rng))
    return cases


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("inputs")
    write_inputs(directory)
    for name, data in MALFORMED_TABLES.items():
        (directory / name).write_bytes(data)
    return directory


def test_mutated_command_lines(inputs, tmp_path, monkeypatch):
    for n, argv in enumerate(fuzz_cases()):
        work = tmp_path / str(n)
        shutil.copytree(inputs, work)
        monkeypatch.chdir(work)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except (Exception, SystemExit) as exc:
                pytest.fail(f"{argv}: {exc!r} escaped")
        assert code in (0, 1, 2, 3), (argv, code)
        assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())


def test_malformed_tables_are_errors(inputs, monkeypatch):
    # a table that does not parse is a one-line error naming its file,
    # never a cap or a usage error
    monkeypatch.chdir(inputs)
    for name in MALFORMED_TABLES:
        for argv in TABLE_READERS:
            argv = [a.format(t=name) for a in argv]
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main(argv)
            assert code == 2, (argv, code)
            assert err.getvalue().startswith(f"error: {name}: "), (argv, err.getvalue())
            assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
