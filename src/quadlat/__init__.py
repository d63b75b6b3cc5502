"""Finite quadratical quasigroups and k-translatable groupoids.

No submodule is imported with the package: each public name below, and
each submodule, is imported on first use (PEP 562), so a command loads
only the modules it runs.
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "audit": ("replay_trace",),
        "cayley": ("CayleyTable", "is_quadratical"),
        "core": (
            "BASIC_IDENTITY_IDS", "IDENTITY_IDS", "TwoGenerationReport",
            "check_identity", "direct_product", "dual", "find_isomorphism", "four_cycles",
            "generated_subgroupoid", "identity_report", "quadratical_report", "relabel",
            "two_generation_report",
        ),
        "deduction": (
            "Completed", "Contradiction", "PartialTable", "RefutationReport", "Stuck",
            "complete_qn", "refute_case", "refute_q6", "trace_text",
        ),
        "errors": ("SearchCapExceeded",),
        "qn": ("QnDecomposition", "detect_form", "dual_element_map", "h_chain"),
        "sweep": ("ClassificationRow", "classify", "scan_k_table", "scan_with_checkpoint"),
        "tableio": ("format_table", "parse_table", "read_table", "write_table"),
        "translatable": (
            "TranslatabilityReport", "all_valid_k", "build_idempotent_k_translatable",
            "feasible_k_idempotent_quadratical", "find_translatable_ordering",
            "gcd_quasigroup_property_test", "idempotent_first_row", "k_translatable_check",
            "translatability_report",
        ),
        "zm": (
            "LinearSpec", "linear_table", "quadratical_over_zm", "solve_quadratic_congruence",
            "translatability_k_linear", "translatability_k_quadratical",
        ),
    }.items()
    for name in names
}

# `from quadlat import *` binds every public name, importing its submodule
__all__ = sorted(_EXPORTS)

_SUBMODULES = frozenset({
    "audit", "cayley", "cli", "core", "deduction", "errors", "qn", "refdata", "steps",
    "sweep", "tableio", "translatable", "zm",
})


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(__getattr__(_EXPORTS[name]), name)
    if name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ is the import statement's own path (importlib.import_module
    # is not), so `python -X importtime` lists the submodules loaded here;
    # importing a submodule binds it in this namespace
    __import__(f"{__name__}.{name}")
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | _SUBMODULES)
