"""Finite quadratical quasigroups and k-translatable groupoids."""

from .core import (
    BASIC_IDENTITY_IDS,
    CayleyTable,
    IDENTITY_IDS,
    TwoGenerationReport,
    check_identity,
    direct_product,
    dual,
    find_isomorphism,
    four_cycles,
    generated_subgroupoid,
    identity_report,
    is_quadratical,
    quadratical_report,
    relabel,
    two_generation_report,
)
from .qn import QnDecomposition, detect_form, dual_element_map, h_chain
from .sweep import ClassificationRow, classify, emit, scan_k_table, scan_with_checkpoint
from .tableio import format_table, parse_table, read_table, write_table
from .translatable import (
    SearchCapExceeded,
    TranslatabilityReport,
    all_valid_k,
    build_idempotent_k_translatable,
    feasible_k_idempotent_quadratical,
    find_translatable_ordering,
    gcd_quasigroup_property_test,
    idempotent_first_row,
    k_translatable_check,
    translatability_report,
)
from .zm import (
    LinearSpec,
    linear_table,
    quadratical_over_zm,
    solve_quadratic_congruence,
    translatability_k_linear,
    translatability_k_quadratical,
)

__version__ = "0.1.0"

# quadlat.deduction is the largest module and few callers need it, so its
# names are imported on first use (PEP 562) rather than with the package.
_DEDUCTION_NAMES = frozenset({
    "Completed",
    "Contradiction",
    "PartialTable",
    "RefutationReport",
    "Stuck",
    "complete_qn",
    "refute_case",
    "refute_q6",
    "replay_trace",
    "trace_text",
})


def __getattr__(name):
    if name in _DEDUCTION_NAMES:
        from . import deduction

        return getattr(deduction, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _DEDUCTION_NAMES)
