import argparse
import json
import time
import tracemalloc

import pytest

from quadlat import (
    CayleyTable, cayley, cli, deduction, parse_table, quadratical_over_zm, translatable,
    write_table, zm,
)
from quadlat.cli import main
from quadlat.errors import SearchCapExceeded


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve(capsys):
    code, out, _ = run(capsys, "solve", "-m", "65")
    assert code == 0
    assert out == "24 29 37 42\n"
    code, out, _ = run(capsys, "solve", "-m", "65", "--format", "json")
    assert json.loads(out) == {"m": 65, "solutions": [24, 29, 37, 42]}


def test_solve_trial_division_cap(capsys):
    # 5**26 is a prime power and 100000000000097 a prime just above 10**14;
    # p * q, two primes = 1 (mod 4) above the cap, cannot be split
    code, out, _ = run(capsys, "solve", "-m", str(5 ** 26))
    assert code == 0
    assert [(2 * a * a - 2 * a + 1) % 5 ** 26 for a in map(int, out.split())] == [0, 0]
    code, out, _ = run(capsys, "solve", "-m", "100000000000097")
    assert (code, out) == (0, "38376982888483 61623017111615\n")
    p, q = 10000121, 10000141
    assert p > zm.TRIAL_DIVISION_CAP and p % 4 == q % 4 == 1
    code, out, err = run(capsys, "solve", "-m", str(p * q))
    assert (code, out) == (3, "")
    assert err.startswith("cap exceeded:")


def test_k_command(capsys):
    code, out, _ = run(capsys, "k", "-m", "13", "-a", "3")
    assert (code, out) == (0, "8\n")
    code, out, _ = run(capsys, "k", "-m", "7", "-a", "4", "-b", "1")
    assert (code, out) == (0, "3\n")
    code, out, _ = run(capsys, "k", "-m", "5", "-a", "2", "-b", "0")
    assert (code, out) == (0, "none\n")


def test_table_and_check_round_trip(capsys, tmp_path):
    path = tmp_path / "t13.txt"
    code, _, _ = run(capsys, "table", "-m", "13", "-a", "11", "-o", str(path))
    assert code == 0
    t = parse_table(path.read_text())
    assert t.entries == quadratical_over_zm(13, 11).entries
    code, out, _ = run(capsys, "check", "-i", str(path), "--all")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 15
    assert all(line.endswith(": holds") for line in lines)


def test_check_counterexample(capsys, tmp_path):
    path = tmp_path / "add5.txt"
    write_table(CayleyTable.from_function(5, lambda x, y: (x + y) % 5), path)
    code, out, _ = run(capsys, "check", "-i", str(path), "--id", "bookend")
    assert code == 0
    assert out == "bookend: counterexample (0, 1)\n"
    code, out, _ = run(capsys, "check", "-i", str(path), "--id", "bookend",
                       "--format", "json")
    assert json.loads(out)["results"]["bookend"] == [0, 1]


def test_check_mediality_cap_exits_3(capsys, tmp_path):
    path = tmp_path / "proj257.txt"
    write_table(CayleyTable.from_function(257, lambda x, y: x), path)
    code, out, err = run(capsys, "check", "-i", str(path), "--id", "mediality")
    assert code == 3
    assert out == ""
    assert err.startswith("cap exceeded:")


def test_usage_errors(capsys, tmp_path):
    code, _, err = run(capsys, "solve")
    assert code == 1
    path = tmp_path / "t.txt"
    write_table(CayleyTable.from_rows([[0]]), path)
    code, _, _ = run(capsys, "check", "-i", str(path))
    assert code == 1
    code, _, err = run(capsys, "nonsense")
    assert code == 1
    for command in ("table", "k"):
        code, out, err = run(capsys, command, "-m", "13", "-a", "3", "-c", "1")
        assert (code, out) == (1, "")
        assert err == "usage error: -c requires -b (general linear form)\n"


def test_non_positive_bounds_are_usage_errors(capsys):
    for argv in (("solve", "-m", "0"), ("solve", "-m", "-65"),
                 ("scan", "--max-m", "0", "--max-k", "40"),
                 ("scan", "--max-m", "100", "--max-k", "-1"),
                 ("classify", "--max-m", "0"),
                 ("table", "-m", "0", "-a", "1"), ("table", "-m", "-5", "-a", "1"),
                 ("k", "-m", "0", "-a", "1"), ("k", "-m", "-5", "-a", "1", "-b", "2")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("usage error:") and "must be positive" in err


# (exit code, argv): 1 for a usage error, 2 for an input or value the
# command cannot use (a missing or malformed file, a base outside the table)
BAD_INPUT = [
    (1, "solve", "-m", "0"),
    (1, "solve", "-m", "x"),
    (1, "table", "-m", "0", "-a", "1"),
    (1, "table", "-m", "-5", "-a", "1"),
    (2, "table", "-m", "5", "-a", "3"),
    (2, "table", "-m", "5", "-a", "2", "-o", "nodir/t.txt"),
    (1, "k", "-m", "0", "-a", "1"),
    (2, "k", "-m", "5", "-a", "3"),
    (2, "k", "-m", "1", "-a", "0"),
    (2, "check", "-i", "missing.txt", "--all"),
    (2, "check", "-i", "adir", "--all"),
    (2, "check", "-i", "bad.txt", "--all"),
    (2, "check", "-i", "short.txt", "--all"),
    (2, "check", "-i", "badlabels.txt", "--all"),
    (1, "check", "-i", "q5.txt"),
    (2, "order-search", "-i", "missing.txt"),
    (2, "order-search", "-i", "bad.txt"),
    (1, "order-search", "-i", "q5.txt", "--max-order", "-1"),
    (1, "hchain", "-i", "q5.txt", "-a", "0", "-b", "1", "-n", "0"),
    (2, "hchain", "-i", "q5.txt", "-a", "7", "-b", "1", "-n", "1"),
    (2, "hchain", "-i", "q5.txt", "-a", "0", "-b", "-1", "-n", "1"),
    (2, "detect-form", "-i", "adir"),
    (2, "detect-form", "-i", "add5.txt"),
    (1, "complete-qn", "-n", "2", "--choice", "abc"),
    (1, "complete-qn", "-n", "0", "--choice", "1"),
    (2, "complete-qn", "-n", "2", "--choice", "99"),
    (2, "complete-qn", "-n", "1", "--choice", "2", "--trace", "adir"),
    (1, "refute-q6", "--jobs", "x"),
    (2, "dual", "-i", "short.txt"),
    (2, "product", "q5.txt", "bad.txt"),
    (2, "product", "q5.txt", "missing.txt"),
    (2, "iso", "q5.txt", "t3.txt"),
    (2, "iso", "q5.txt", "badlabels.txt"),
    (1, "scan", "--max-m", "0", "--max-k", "40"),
    (2, "scan", "--max-m", "30", "--max-k", "40", "--checkpoint", "corrupt.ck"),
    (2, "scan", "--max-m", "30", "--max-k", "40", "--discrepancies", "adir"),
    (1, "classify", "--max-m", "-1"),
    (2, "classify", "--max-m", "30", "-o", "adir"),
]


@pytest.mark.parametrize("code, argv", [(code, argv) for code, *argv in BAD_INPUT],
                         ids=[" ".join(argv) for _, *argv in BAD_INPUT])
def test_bad_input_never_raises(capsys, tmp_path, monkeypatch, code, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    write_table(quadratical_over_zm(5, 2), tmp_path / "q5.txt")
    write_table(CayleyTable.from_function(3, lambda x, y: (x + y) % 3), tmp_path / "t3.txt")
    write_table(CayleyTable.from_function(5, lambda x, y: (x + y) % 5), tmp_path / "add5.txt")
    (tmp_path / "bad.txt").write_text("3\n0 1 x\n1 2 0\n2 0 1\n")
    (tmp_path / "short.txt").write_text("3\n0 1 2\n1 2 0\n")
    (tmp_path / "badlabels.txt").write_text("3\n0 1 2\n2 0 1\n1 2 0\n# labels: a b\n")
    (tmp_path / "corrupt.ck").write_text("resume-from 7\n")
    exit_code, _, err = run(capsys, *argv)
    assert exit_code == code, err
    assert err.endswith("\n") and err.count("\n") == 1, err
    assert err.startswith("usage error: " if code == 1 else "error: "), err


@pytest.mark.parametrize("order", ["0", "-3"])
def test_order_below_one_refused_by_name(capsys, tmp_path, order):
    # "-3" was reported as "unexpected text after table rows"
    path = tmp_path / "t.txt"
    path.write_text(f"{order}\n0 1 2\n1 2 0\n")
    code, out, err = run(capsys, "check", "-i", str(path), "--all")
    assert (code, out) == (2, "")
    assert err == f"error: {path}: the order must be at least 1, got {order}\n"


def test_invariant_error_exit(capsys):
    code, _, err = run(capsys, "table", "-m", "5", "-a", "3")
    assert code == 2
    assert "error" in err


def test_dual_and_product(capsys, tmp_path):
    p5 = tmp_path / "q5.txt"
    run(capsys, "table", "-m", "5", "-a", "2", "-o", str(p5))
    pd = tmp_path / "dual.txt"
    code, _, _ = run(capsys, "dual", "-i", str(p5), "-o", str(pd))
    assert code == 0
    assert parse_table(pd.read_text()).entries == quadratical_over_zm(5, 4).entries
    pp = tmp_path / "prod.txt"
    code, _, _ = run(capsys, "product", str(p5), str(p5), "-o", str(pp))
    assert code == 0
    assert parse_table(pp.read_text()).n == 25


def test_iso_command(capsys, tmp_path):
    from quadlat import relabel

    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    c = tmp_path / "c.txt"
    run(capsys, "table", "-m", "13", "-a", "11", "-o", str(a))
    t = quadratical_over_zm(13, 11)
    write_table(relabel(t, [5, 2, 12, 0, 7, 1, 3, 4, 10, 11, 6, 9, 8]), b)
    # a table and its dual are never isomorphic over Z_m
    run(capsys, "table", "-m", "13", "-a", "3", "-o", str(c))
    code, out, _ = run(capsys, "iso", str(a), str(a))
    assert code == 0
    assert out.strip() == " ".join(str(i) for i in range(13))
    code, out, _ = run(capsys, "iso", str(a), str(b), "--format", "json")
    assert code == 0
    assert json.loads(out)["permutation"] is not None
    code, out, _ = run(capsys, "iso", str(a), str(c))
    assert code == 0
    assert out == "none\n"
    # projections x*y = x and x*y = y of order 8 need 8^8 generator images
    write_table(CayleyTable.from_function(8, lambda x, y: x), a)
    write_table(CayleyTable.from_function(8, lambda x, y: y), b)
    code, out, err = run(capsys, "iso", str(a), str(b))
    assert (code, out) == (3, "")
    assert err.startswith("cap exceeded:")


def test_order_search_and_cap(capsys, tmp_path):
    p5 = tmp_path / "q5.txt"
    run(capsys, "table", "-m", "5", "-a", "2", "-o", str(p5))
    code, out, _ = run(capsys, "order-search", "-i", str(p5))
    assert code == 0
    assert "k: 2" in out
    p13 = tmp_path / "q13.txt"
    run(capsys, "table", "-m", "13", "-a", "11", "-o", str(p13))
    code, _, err = run(capsys, "order-search", "-i", str(p13))
    assert code == 3
    assert "cap" in err
    code, out, _ = run(capsys, "order-search", "-i", str(p13), "--max-order", "13")
    assert code == 0
    assert "k: 5" in out


def test_hchain_detect_form(capsys, tmp_path):
    p13 = tmp_path / "q13.txt"
    run(capsys, "table", "-m", "13", "-a", "11", "-o", str(p13))
    code, out, _ = run(capsys, "hchain", "-i", str(p13), "-a", "0", "-b", "1",
                       "-n", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["blocks"]) == 3
    code, out, _ = run(capsys, "detect-form", "-i", str(p13))
    assert code == 0
    assert out.startswith("Q3 with base")


def test_complete_qn_command(capsys, tmp_path):
    out_path = tmp_path / "q2.txt"
    trace_path = tmp_path / "trace.txt"
    code, _, _ = run(capsys, "complete-qn", "-n", "2", "--choice", "22",
                     "--seed-labels", "-o", str(out_path), "--trace", str(trace_path))
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("completed\n9\n")
    assert "# labels: aba a ab ba b 21 22 23 24" in text
    assert "by seed:" in trace_path.read_text()
    code, out, _ = run(capsys, "complete-qn", "-n", "2", "--choice", "24")
    assert code == 0
    assert out.startswith("contradiction")
    code, out, _ = run(capsys, "complete-qn", "-n", "4", "--choice", "1",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["outcome"] == "stuck"


def test_complete_qn_block_cap(capsys):
    t0 = time.monotonic()
    code, out, err = run(capsys, "complete-qn", "-n", "1000000", "--choice", "1")
    assert time.monotonic() - t0 < 1.0
    assert (code, out) == (3, "")
    assert err == ("cap exceeded: 1000000 blocks exceed the cap of 256 blocks "
                   "(order 1025)\n")


def test_table_and_product_order_cap(capsys, tmp_path):
    # just above cayley.MAX_ORDER, both refuse before building a row: the
    # second call of each is traced once its modules are loaded
    assert cayley.MAX_ORDER == 1025
    t33 = tmp_path / "t33.txt"
    write_table(zm.linear_table(zm.LinearSpec(33, 1, 1)), t33)
    for argv, order in ((["table", "-m", "1026", "-a", "1", "-b", "1"], 1026),
                        (["product", str(t33), str(t33)], 33 * 33)):
        for traced in (False, True):
            if traced:
                tracemalloc.start()
            try:
                code, out, err = run(capsys, *argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (code, out) == (3, "")
            assert err == f"cap exceeded: order {order} exceeds the cap of 1025\n"
            assert peak < 1_000_000


def test_translatable_order_cap():
    # the k-translatable builders keep the same cap: each refuses past
    # cayley.MAX_ORDER before the row or any table row is allocated, where
    # build_idempotent_k_translatable(1031, 2) once built its whole table
    for call, args, order in ((translatable.idempotent_first_row, (1027, 2), 1027),
                              (translatable.build_idempotent_k_translatable, (1027, 2), 1027),
                              (translatable.gcd_quasigroup_property_test, (range(1026), 1), 1026)):
        tracemalloc.start()
        t0 = time.monotonic()
        try:
            with pytest.raises(SearchCapExceeded,
                               match=f"^order {order} exceeds the cap of 1025$"):
                call(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.monotonic() - t0 < 1.0
        assert peak < 1_000_000


def test_refute_q6_command(capsys):
    code, out, _ = run(capsys, "refute-q6")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all("contradiction in every branch" in line for line in lines)
    code, out, _ = run(capsys, "refute-q6", "--format", "json")
    data = json.loads(out)
    assert data["ok"] is True
    # --jobs still parses and changes nothing
    for jobs in ("1", "3"):
        assert run(capsys, "refute-q6", "--jobs", jobs) == (0, "\n".join(lines) + "\n", "")


def test_refute_q6_reports_a_case_it_cannot_refute(capsys, monkeypatch):
    # a completion or an exhausted split budget is reported per choice,
    # and the command exits 2 when any choice is not refuted
    completed = deduction.complete_qn(1, 2)
    assert isinstance(completed, deduction.Completed)
    stuck = deduction.Stuck(deduction.PartialTable(((None,),), ()))
    cases = (deduction.RefutationCase(1, (), 0, 0, None, None),
             deduction.RefutationCase(2, (), 2, 1, completed, None),
             deduction.RefutationCase(3, (), 7, 3, None, stuck))
    monkeypatch.setattr(deduction, "refute_q6",
                        lambda: deduction.RefutationReport(6, cases))
    assert run(capsys, "refute-q6") == (2, (
        "choice 61: contradiction in every branch (0 leaves, split depth 0)\n"
        "choice 62: COMPLETED (refutation fails)\n"
        "choice 63: split budget exhausted\n"), "")
    code, out, _ = run(capsys, "refute-q6", "--format", "json")
    assert code == 2
    data = json.loads(out)
    assert data["ok"] is False
    assert [c["refuted"] for c in data["cases"]] == [True, False, False]


def test_scan_classify_commands(capsys, tmp_path):
    code, out, _ = run(capsys, "scan", "--max-m", "70", "--max-k", "40")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,m,a,b"
    assert lines[1] == "2,5,2,4"
    disc = tmp_path / "disc.txt"
    code, out, _ = run(capsys, "classify", "--max-m", "70", "--format", "json",
                       "--discrepancies", str(disc))
    assert code == 0
    data = json.loads(out)
    assert data[0]["m"] == 5
    assert disc.read_text() == "no discrepancies\n"
    code, out, _ = run(capsys, "scan", "--max-m", "30", "--max-k", "40",
                       "--checkpoint", str(tmp_path / "ck"))
    assert code == 0
    assert (tmp_path / "ck").read_text() == "last_m=30\n"


def test_scan_reads_only_moduli_that_divide_k_squared_plus_one(capsys):
    # every row with k < 40 has m | k^2 + 1 <= 39^2 + 1 = 1522, so a bound
    # of 10^12 prints the rows of the bound 1522 and walks no further
    small = run(capsys, "scan", "--max-m", "1522", "--max-k", "40")
    assert small[0] == 0 and small[1].count("\n") == 58
    assert run(capsys, "scan", "--max-m", "1000000000000", "--max-k", "40") == small


def test_json_schema_every_command(capsys, tmp_path):
    a = tmp_path / "a.txt"
    run(capsys, "table", "-m", "5", "-a", "2", "-o", str(a))

    def js(*argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        return json.loads(out)

    table = js("table", "-m", "5", "-a", "2", "--format", "json")
    assert set(table) == {"n", "entries", "labels"} and table["n"] == 5
    assert set(js("solve", "-m", "5", "--format", "json")) == {"m", "solutions"}
    assert set(js("check", "-i", str(a), "--all", "--format", "json")) == {
        "order", "results"}
    assert set(js("k", "-m", "5", "-a", "2", "--format", "json")) == {"m", "a", "k"}
    assert set(js("order-search", "-i", str(a), "--format", "json")) == {
        "ordering", "k"}
    assert set(js("hchain", "-i", str(a), "-a", "0", "-b", "1", "-n", "1",
                  "--format", "json")) == {"base", "center", "blocks"}
    assert set(js("detect-form", "-i", str(a), "--format", "json")) == {
        "blocks", "a", "b"}
    cq = js("complete-qn", "-n", "1", "--choice", "2", "--format", "json")
    assert cq["outcome"] == "completed" and set(cq) >= {"n", "entries"}
    assert set(js("refute-q6", "--format", "json")) == {"ok", "cases"}
    dualt = js("dual", "-i", str(a), "--format", "json")
    assert set(dualt) == {"n", "entries", "labels"}
    prod = js("product", str(a), str(a), "--format", "json")
    assert prod["n"] == 25
    assert set(js("iso", str(a), str(a), "--format", "json")) == {"permutation"}
    scan = js("scan", "--max-m", "30", "--max-k", "40", "--format", "json")
    assert all(set(r) == {"k", "m", "a", "b"} for r in scan)
    cls = js("classify", "--max-m", "30", "--format", "json")
    assert all(set(r) == {"m", "a", "b", "k"} for r in cls)


def test_scan_jobs_flag(capsys):
    # --jobs is accepted and has no effect: repeated runs, with and
    # without it, print the same bytes
    for argv in (("scan", "--max-m", "1200", "--max-k", "40"),
                 ("classify", "--max-m", "500")):
        outs = [run(capsys, *argv, *extra)
                for extra in ((), (), ("--jobs", "1"), ("--jobs", "2"))]
        assert all(out == (0, outs[0][1], "") for out in outs)


def _subparsers(parser):
    """{command name: its parser} of a parser from cli._build_parser."""
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _usage_error(parser, argv):
    with pytest.raises(cli.UsageError) as info:
        parser.parse_args(argv)
    return str(info.value)


def test_one_command_build_prints_what_the_full_build_prints():
    # main builds only the command it runs; every help, usage line and
    # top-level error must read as from a parser with every command built
    full = cli._build_parser(*cli.COMMANDS)
    full_commands = _subparsers(full)
    assert list(full_commands) == list(cli.COMMANDS)
    for parser in (cli._build_parser(), *map(cli._build_parser, cli.COMMANDS)):
        assert parser.format_help() == full.format_help()
        for argv in ([], ["bogus"], ["bogus", "solve"]):
            assert _usage_error(parser, argv) == _usage_error(full, argv)
    for name in cli.COMMANDS:
        one = _subparsers(cli._build_parser(name))[name]
        assert one.format_help() == full_commands[name].format_help()


def test_one_command_build_gives_other_commands_no_argument():
    for name in cli.COMMANDS:
        for other, parser in _subparsers(cli._build_parser(name)).items():
            flags = [a.option_strings or [a.dest] for a in parser._actions]
            assert (flags == [["-h", "--help"]]) == (other != name), (name, other)


@pytest.mark.parametrize("argv", [
    ["solve", "-m", "65"],
    ["--", "classify", "--max-m", "30"],
    ["-x", "iso", "a.txt", "b.txt"],
    ["solve", "--help"],
    ["--help"],
    [],
])
def test_main_builds_only_the_command_it_runs(argv, capsys, monkeypatch):
    built = []
    build = cli._build_parser

    def spy(*names):
        built.append(names)
        return build(*names)

    monkeypatch.setattr(cli, "_build_parser", spy)
    try:
        main(argv)
    except SystemExit:
        pass
    capsys.readouterr()
    assert built == [tuple(w for w in argv if w in cli.COMMANDS)]


@pytest.mark.parametrize("argv", [
    ["classify", "--max-m", str(10 ** 20)],
    ["scan", "--max-m", str(10 ** 20), "--max-k", str(10 ** 10)],
])
def test_sweep_cap_exits_3_before_the_walk(argv, capsys, monkeypatch):
    from quadlat import gauss, sweep

    def walked(*args):
        raise AssertionError("the sweep walked past its cap")

    # the walk is gauss.primitive_norms, and each row is built by _row
    monkeypatch.setattr(gauss, "primitive_norms", walked)
    monkeypatch.setattr(sweep, "_row", walked)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("cap exceeded: the sweep would read every modulus up to ")
    assert err.endswith(f"above the cap of {sweep.MAX_SWEEP_M}\n")
