"""The package and the command line load only the modules a command runs.

Each import set is read in a fresh interpreter, from the ``quadlat``
entries of ``sys.modules`` after the command (or import) has run; for a
command, also from the standard modules in WATCHED.
"""

import importlib
import os
import subprocess
import sys

import pytest

import quadlat
from quadlat.cli import main

SRC = os.path.dirname(os.path.dirname(quadlat.__file__))

# the names `import quadlat` exported eagerly or on first use before the
# namespace became lazy, by the module they were imported from
EXPORTED = {
    "core": (
        "BASIC_IDENTITY_IDS", "CayleyTable", "IDENTITY_IDS", "TwoGenerationReport",
        "check_identity", "direct_product", "dual", "find_isomorphism", "four_cycles",
        "generated_subgroupoid", "identity_report", "is_quadratical", "quadratical_report",
        "relabel", "two_generation_report",
    ),
    "qn": ("QnDecomposition", "detect_form", "dual_element_map", "h_chain"),
    "sweep": ("ClassificationRow", "classify", "scan_k_table", "scan_with_checkpoint"),
    "tableio": ("format_table", "parse_table", "read_table", "write_table"),
    "translatable": (
        "SearchCapExceeded", "TranslatabilityReport", "all_valid_k",
        "build_idempotent_k_translatable", "feasible_k_idempotent_quadratical",
        "find_translatable_ordering", "gcd_quasigroup_property_test", "idempotent_first_row",
        "k_translatable_check", "translatability_report",
    ),
    "zm": (
        "LinearSpec", "linear_table", "quadratical_over_zm", "solve_quadratic_congruence",
        "translatability_k_linear", "translatability_k_quadratical",
    ),
    "deduction": (
        "Completed", "Contradiction", "PartialTable", "RefutationReport", "Stuck",
        "complete_qn", "refute_case", "refute_q6", "replay_trace", "trace_text",
    ),
}
SUBMODULES = ("audit", "cayley", "core", "deduction", "qn", "refdata", "steps", "sweep",
              "tableio", "translatable", "zm")

# standard modules that no command should load unless it needs them:
# dataclasses imports inspect, ast and dis, which slows every process's
# start; json serves only --format json
WATCHED = ("dataclasses", "inspect", "json")

# prints with no import of its own, so that json is loaded only by the code
PROBE = """
import sys
{code}
print(" ".join(sorted(sys.modules)))
"""

CLI_PROBE = """
from quadlat.cli import main
try:
    main({argv!r})
except SystemExit:
    pass
"""


def modules(code, cwd):
    """Every module in sys.modules after code has run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", PROBE.format(code=code)], cwd=cwd, env=env,
                         capture_output=True, text=True, check=True)
    return set(out.stdout.splitlines()[-1].split())


def loaded(code, cwd):
    return {m for m in modules(code, cwd) if m.split(".")[0] == "quadlat"}


@pytest.fixture(scope="module")
def table_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("tables") / "z13.txt"
    assert main(["table", "-m", "13", "-a", "3", "-o", str(path)]) == 0
    return str(path)


# extra: the package modules past quadlat, quadlat.cli and quadlat.errors,
# and the WATCHED modules, that the command loads
@pytest.mark.parametrize("argv, extra", [
    (["--help"], set()),
    (["solve", "-m", "65"], {"zm"}),
    (["k", "-m", "13", "-a", "3"], {"zm"}),
    (["scan", "--max-m", "100", "--max-k", "10"], {"sweep", "zm"}),
    (["classify", "--max-m", "100"], {"sweep", "zm"}),
    (["check", "-i", "{t}", "--all"], {"cayley", "core", "tableio"}),
    (["dual", "-i", "{t}"], {"cayley", "core", "tableio"}),
    (["product", "{t}", "{t}"], {"cayley", "core", "tableio"}),
    (["iso", "{t}", "{t}"], {"cayley", "core", "tableio"}),
    (["scan", "--max-m", "100", "--max-k", "10", "--format", "json"], {"sweep", "zm", "json"}),
    (["classify", "--max-m", "100", "--discrepancies", "d.txt"], {"sweep", "zm", "refdata"}),
    # the engine alone: neither the auditor (audit) nor the other
    # identities, closure and isomorphism (core)
    (["complete-qn", "-n", "2", "--choice", "2"],
     {"cayley", "qn", "steps", "deduction", "tableio"}),
    (["refute-q6"], {"cayley", "qn", "steps", "deduction"}),
    (["detect-form", "-i", "{t}"], {"cayley", "qn", "tableio"}),
    (["order-search", "-i", "{t}"], {"cayley", "tableio", "translatable"}),
])
def test_command_import_set(argv, extra, table_file, tmp_path):
    argv = [a.format(t=table_file) for a in argv]
    got = {m for m in modules(CLI_PROBE.format(argv=argv), tmp_path)
           if m.split(".")[0] == "quadlat" or m in WATCHED}
    assert got == {"quadlat", "quadlat.cli", "quadlat.errors",
                   *(m if m in WATCHED else f"quadlat.{m}" for m in extra)}


def test_package_import_set(tmp_path):
    assert loaded("import quadlat", tmp_path) == {"quadlat"}
    engine = {"quadlat", "quadlat.errors", "quadlat.cayley", "quadlat.qn", "quadlat.steps",
              "quadlat.deduction"}
    assert loaded("from quadlat import deduction", tmp_path) == engine
    # the auditor is loaded when replay_trace is first read
    assert loaded("from quadlat import deduction; deduction.replay_trace", tmp_path) == {
        *engine, "quadlat.audit"}
    assert loaded("from quadlat.deduction import replay_trace", tmp_path) == {
        *engine, "quadlat.audit"}
    # a process that only replays traces, as a verifier of saved traces
    # would: the auditor, the trace records and the seed list, no engine
    replay_only = ("from quadlat.audit import replay_trace; from quadlat.steps import Step; "
                   "replay_trace(2, 1, [Step('seed:idempotent', (0, 0), 0, ())])")
    assert loaded(replay_only, tmp_path) == {
        "quadlat", "quadlat.errors", "quadlat.cayley", "quadlat.qn", "quadlat.steps",
        "quadlat.audit"}
    assert loaded("from quadlat import CayleyTable", tmp_path) == {"quadlat", "quadlat.cayley"}


def test_exported_names_resolve():
    listed = dir(quadlat)
    for module, names in EXPORTED.items():
        owner = importlib.import_module(f"quadlat.{module}")
        for name in names:
            assert getattr(quadlat, name) is getattr(owner, name), name
            assert name in listed, name
    for module in SUBMODULES:
        assert getattr(quadlat, module) is importlib.import_module(f"quadlat.{module}")
        assert module in listed, module
    assert quadlat.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        quadlat.nonesuch


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from quadlat import *", namespace)
    for module, names in EXPORTED.items():
        owner = importlib.import_module(f"quadlat.{module}")
        for name in names:
            assert namespace[name] is getattr(owner, name), name
    assert "sys" not in namespace
    assert "sys" not in dir(quadlat)


def test_moved_exceptions_keep_their_names():
    from quadlat import core, errors, sweep, translatable

    assert core.SearchCapExceeded is translatable.SearchCapExceeded is errors.SearchCapExceeded
    assert sweep.InvariantViolation is errors.InvariantViolation


def test_unknown_identity_id(table_file, capsys):
    assert main(["check", "-i", table_file, "--id", "nonesuch"]) == 1
    choices = ", ".join(repr(ident) for ident in quadlat.IDENTITY_IDS)
    assert capsys.readouterr().err == (
        f"usage error: argument --id: invalid choice: 'nonesuch' (choose from {choices})\n")
    assert main(["check", "-i", table_file, "--id", "bookend", "--id", "mediality"]) == 0
    assert capsys.readouterr().out == "bookend: holds\nmediality: holds\n"
