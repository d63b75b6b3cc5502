import gc
import re
import sys
import time
import tracemalloc

import pytest

from quadlat import (
    Completed,
    Contradiction,
    Stuck,
    complete_qn,
    dual,
    find_isomorphism,
    is_quadratical,
    quadratical_over_zm,
    refute_case,
    refute_q6,
    replay_trace,
    trace_text,
)
from quadlat import audit
from quadlat.deduction import parse_choice
from quadlat.errors import SearchCapExceeded
from quadlat.qn import (
    MAX_BLOCKS, canonical_labels, check_case, dual_element_map, seed_assignments,
)
from quadlat.steps import Conflict, ReplayError, Step

import reference_replay
from conftest import block_fixture_to_canonical, untrimmed


def outcome_kind(out):
    return type(out).__name__


def test_seed_assignments_shape():
    # a cell seeded twice gets one value, except at (3 blocks, choice 4),
    # where seed:choice-eq puts 10 and seed:choice-prev puts 7 at (1, 12);
    # that choice already fails on a seed, before either reaches (1, 12)
    for blocks in range(1, 33):
        for choice in (1, 2, 3, 4):
            values = {}
            for _, cell, v in seed_assignments(blocks, choice):
                values.setdefault(cell, set()).add(v)
            clashes = {cell: vs for cell, vs in values.items() if len(vs) > 1}
            if (blocks, choice) == (3, 4):
                assert clashes == {(1, 12): {7, 10}}
            else:
                assert clashes == {}, (blocks, choice)
    out = complete_qn(3, 4)
    assert isinstance(out, Contradiction)
    assert (out.conflict.kind, out.conflict.rule, out.conflict.cell) == (
        "row-duplicate", "seed:choice-eq", (7, 4))
    assert all(step.rule.startswith("seed:") for step in out.trace)
    with pytest.raises(ValueError):
        seed_assignments(0, 1)
    with pytest.raises(ValueError):
        seed_assignments(2, 5)


def test_one_block_choices(q1, q1_dual):
    # the centre*a element can only be ab or b
    outcomes = {c: complete_qn(1, c) for c in (1, 2, 3, 4)}
    assert outcome_kind(outcomes[1]) == "Contradiction"
    assert outcome_kind(outcomes[3]) == "Contradiction"
    assert isinstance(outcomes[2], Completed)
    assert isinstance(outcomes[4], Completed)
    want = block_fixture_to_canonical(q1)
    assert outcomes[2].table.entries == want.entries
    # the choice-4 table is the dual one; its own chain lists ab = a*b first
    from quadlat import relabel

    want_dual = relabel(q1_dual, [4, 0, 2, 1, 3])
    assert outcomes[4].table.entries == want_dual.entries


def test_two_block_completion_matches_table(q2):
    outcomes = {c: complete_qn(2, c) for c in (1, 2, 3, 4)}
    assert [outcome_kind(outcomes[c]) for c in (1, 2, 3, 4)] == [
        "Contradiction", "Completed", "Contradiction", "Contradiction"]
    want = block_fixture_to_canonical(q2)
    assert outcomes[2].table.entries == want.entries


def test_three_block_completions(q3):
    outcomes = {c: complete_qn(3, c) for c in (1, 2, 3, 4)}
    assert isinstance(outcomes[1], Completed)
    assert isinstance(outcomes[2], Completed)
    assert outcome_kind(outcomes[3]) == "Contradiction"
    assert outcome_kind(outcomes[4]) == "Contradiction"
    want = block_fixture_to_canonical(q3)
    assert outcomes[1].table.entries == want.entries
    # the second completable choice gives the dual table up to isomorphism
    assert find_isomorphism(outcomes[2].table, dual(outcomes[1].table)) is not None


def test_four_block_completions(q4):
    outcomes = {c: complete_qn(4, c) for c in (1, 2, 3, 4)}
    assert isinstance(outcomes[2], Completed)
    assert isinstance(outcomes[3], Completed)
    assert outcome_kind(outcomes[4]) == "Contradiction"
    # choice 1 is not settled by pure saturation; the split search refutes it
    assert isinstance(outcomes[1], Stuck)
    case = refute_case(4, 1)
    assert case.refuted and case.max_depth_used <= 1
    want = block_fixture_to_canonical(q4)
    assert outcomes[2].table.entries == want.entries


def test_completions_isomorphic_to_linear(q3):
    out3 = complete_qn(3, 1)
    assert find_isomorphism(out3.table, quadratical_over_zm(13, 11)) is not None
    out4 = complete_qn(4, 2)
    assert find_isomorphism(out4.table, quadratical_over_zm(17, 11)) is not None
    # no order-9 linear form exists
    from quadlat import solve_quadratic_congruence

    assert solve_quadratic_congruence(9) == []


def test_completed_tables_quadratical():
    for blocks, choice in ((1, 2), (1, 4), (2, 2), (3, 1), (3, 2), (4, 2), (4, 3)):
        out = complete_qn(blocks, choice)
        assert isinstance(out, Completed)
        assert is_quadratical(out.table)
        assert out.table.n == 4 * blocks + 1


def test_trace_replay_completed():
    for blocks, choice in ((1, 2), (2, 2), (3, 1), (4, 2)):
        out = complete_qn(blocks, choice)
        replay_trace(blocks, choice, out.trace)
        # every cell is justified: the trace covers the full table
        assert len(out.trace) == (4 * blocks + 1) ** 2


def test_trace_replay_contradictions():
    for blocks, choice in ((2, 1), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4)):
        out = complete_qn(blocks, choice)
        assert isinstance(out, Contradiction)
        replay_trace(blocks, choice, out.trace, out.conflict)


def test_replay_rejects_tampering():
    out = complete_qn(2, 4)
    assert isinstance(out, Contradiction)
    # flip the value of a non-seed step
    steps = list(out.trace)
    for i, st in enumerate(steps):
        if not st.rule.startswith("seed:"):
            bad = steps[:i] + [Step(st.rule, st.cell, (st.value + 1) % 9, st.premises)]
            with pytest.raises(ReplayError):
                replay_trace(2, 4, bad)
            break
    # a foreign seed is rejected
    with pytest.raises(ReplayError):
        replay_trace(2, 4, [Step("seed:choice", (0, 1), 5, ())])


def test_replay_requires_cited_premises():
    # each of these steps, its premises dropped, printed "from []" and
    # replayed: the replay checked the premises printed, not the ones read.
    # Alterability steps of both directions: with products x*y = z*w,
    # the cells of the first two premises, step 79 fills y*z and step 80
    # fills w*x
    out = complete_qn(3, 1)
    for i, products, cell in (
            (79, ((1, 3), (12, 10)), (3, 12)), (80, ((2, 1), (9, 11)), (11, 2))):
        step = out.trace[i]
        assert (step.rule, step.premises[:2], step.cell) == ("alterability", products, cell)
        bare = step._replace(premises=())
        assert trace_text([bare]).endswith("  by alterability from []\n")
        with pytest.raises(ReplayError, match="not cited"):
            replay_trace(3, 1, out.trace[:i] + (bare,) + out.trace[i + 1:])


def test_replay_checks_premises():
    # an alterability step whose printed premise names no known cell, in
    # the whole trace of the first leaf: a cell the leaf never assigns, so
    # trace_text has no value to print for it either
    with untrimmed():
        leaf = refute_case(6, 1).leaves[0]
    i = next(i for i, step in enumerate(leaf.trace) if step.rule == "alterability")
    assigned = {step.cell for step in leaf.trace}
    unknown = next((r, c) for r in range(25) for c in range(25) if (r, c) not in assigned)
    bad = leaf.trace[i]._replace(premises=(unknown,))
    assert bad.cell == (3, 24)
    tampered = leaf.trace[:i] + (bad,) + leaf.trace[i + 1:]
    with pytest.raises(ValueError, match=re.escape(str(unknown))):
        trace_text(tampered)
    with pytest.raises(ReplayError, match="premise"):
        replay_trace(6, 1, tampered, leaf.conflict)
    # a conflict's premises are checked too, whatever its kind, by both
    # replays; the row and column kinds, which the engine no longer makes,
    # are refused as well
    replay_trace(6, 1, leaf.trace, leaf.conflict)
    ref = reference_replay.Replay(6, 1)
    for step in leaf.trace:
        ref.verify_step(step)
        ref.apply_step(step)
    for kind in ("cell-mismatch", "row-duplicate", "cell-no-candidate",
                 "row-value-impossible", "col-value-impossible"):
        conflict = Conflict(kind, "latin-cell", (0, 1), 2, (unknown,))
        with pytest.raises(ReplayError, match="premise"):
            replay_trace(6, 1, leaf.trace, conflict)
        with pytest.raises(ReplayError, match="premise"):
            ref.verify_conflict(conflict)


def test_trace_text_format():
    out = complete_qn(1, 2)
    text = trace_text(out.trace)
    first = text.splitlines()[0]
    assert first.startswith("cell(")
    assert " by seed:" in first
    out_bad = complete_qn(2, 4)
    text2 = trace_text(out_bad.trace, out_bad.conflict)
    assert text2.splitlines()[-1].startswith("conflict:")


def test_trace_text_reads_values_from_the_trace():
    # a premise is a cell: trace_text prints it with the value the earlier
    # step that assigned it states, and a cell-mismatch conflict's cell
    # with the value it already holds, so a cited cell no earlier step of
    # the trace assigns is a ValueError naming it
    trace = complete_qn(3, 1).trace
    assert trace[79].premises == ((1, 3), (12, 10), (10, 1))
    assert trace_text(trace[:80]).splitlines()[79] == (
        "cell(3,12) := 6  by alterability from [cell(1,3)=0, cell(12,10)=0, cell(10,1)=6]")
    with pytest.raises(ValueError, match=re.escape("(1, 3)")):
        trace_text(trace[79:80])
    # cited before the step that assigns it
    at = next(i for i, step in enumerate(trace) if step.cell == (10, 1))
    with pytest.raises(ValueError, match=re.escape("(10, 1)")):
        trace_text(trace[:at] + (trace[79],) + trace[at:79])
    leaf = refute_case(6, 2).leaves[0]
    assert leaf.conflict.kind == "cell-mismatch"
    at = next(i for i, step in enumerate(leaf.trace) if step.cell == leaf.conflict.cell)
    assert trace_text(leaf.trace, leaf.conflict).splitlines()[-1] == (
        "conflict: cell(1,2) := 18 clashes with existing 5  by alterability"
        " from [cell(2,3)=4, cell(21,1)=4, cell(3,21)=18]")
    assert leaf.trace[at].value == 5
    with pytest.raises(ValueError, match=re.escape(str(leaf.conflict.cell))):
        trace_text(leaf.trace[:at] + leaf.trace[at + 1:], leaf.conflict)


def test_refute_q6_all_choices():
    report = refute_q6()
    assert report.ok
    assert len(report.cases) == 4
    for case in report.cases:
        assert case.refuted
        assert case.max_depth_used <= 3
        assert len(case.leaves) >= 1
        for leaf in case.leaves:
            replay_trace(6, case.choice, leaf.trace, leaf.conflict)


def test_refute_q6_leaves_replay_from_an_empty_table():
    # the 18 leaves, each trimmed to its conflict's cone through the seeds,
    # hold 238 steps (2,792 when every leaf kept all of its seeds); both
    # replays start from an empty table
    report = refute_q6()
    leaves = [(case.choice, leaf) for case in report.cases for leaf in case.leaves]
    assert sum(len(leaf.trace) for _, leaf in leaves) == 238
    for choice, leaf in leaves:
        replay_trace(6, choice, leaf.trace, leaf.conflict)
        ref = reference_replay.Replay(6, choice)
        for step in leaf.trace:
            ref.verify_step(step)
            ref.apply_step(step)
        ref.verify_conflict(leaf.conflict)


def test_parse_choice():
    assert parse_choice(6, "2") == 2
    assert parse_choice(6, "62") == 2
    assert parse_choice(2, "24") == 4
    with pytest.raises(ValueError):
        parse_choice(6, "52")
    with pytest.raises(ValueError):
        parse_choice(6, "0")


def test_block_count_and_choice_must_be_ints():
    # refute_case(True, 1) once ran as one block and complete_qn(1, True)
    # as choice 1
    for blocks, choice in ((True, 1), (2.0, 1), (1, True), (1, 1.0)):
        for run in (complete_qn, refute_case):
            with pytest.raises(ValueError, match="must be an int|must be a slot"):
                run(blocks, choice)
        with pytest.raises(ValueError, match="must be an int|must be a slot"):
            replay_trace(blocks, choice, ())


def test_block_count_cap():
    # every function that takes a block count refuses one past
    # qn.MAX_BLOCKS before it allocates anything sized by it: without the
    # cap canonical_labels(10**6) ran 14 s with a tracemalloc peak of
    # 277 MB, and seed_assignments(10**5, 1) 33 s and 578 MB (2 CPUs,
    # Python 3.11.7)
    calls = (lambda b: complete_qn(b, 1), lambda b: refute_case(b, 2),
             lambda b: check_case(b, 1), canonical_labels, dual_element_map,
             lambda b: seed_assignments(b, 1))
    for blocks in (MAX_BLOCKS + 1, 10 ** 6, 10 ** 9):
        for call in calls:
            tracemalloc.start()
            t0 = time.monotonic()
            try:
                with pytest.raises(SearchCapExceeded, match=(
                        f"^{blocks} blocks exceed the cap of 256 blocks \\(order 1025\\)$")):
                    call(blocks)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert time.monotonic() - t0 < 1.0
            assert peak < 1_000_000
    # the cap is checked before the choice
    with pytest.raises(SearchCapExceeded):
        check_case(MAX_BLOCKS + 1, 5)
    assert len(canonical_labels(MAX_BLOCKS)) == 4 * MAX_BLOCKS + 1 == 1025
    assert len(dual_element_map(MAX_BLOCKS)) == 1024


def test_replay_block_count_cap():
    # the auditor refuses the counts the engine refuses, before it builds a
    # table or caches a seed map: at MAX_BLOCKS + 1 those peaked at tens of
    # megabytes
    before = audit._seed_rules.cache_info()
    tracemalloc.start()
    try:
        with pytest.raises(SearchCapExceeded, match=f"{MAX_BLOCKS + 1} blocks exceed"):
            replay_trace(MAX_BLOCKS + 1, 1, ())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert audit._seed_rules.cache_info() == before


def test_deduction_leaves_no_cyclic_garbage():
    # complete_qn, refute_case and replay_trace run with the cyclic
    # collector paused, which is free only while they create no cycles;
    # every choice at 1-12 blocks, replayed as the benchmark replays them.
    # The collector stays off throughout, so a cycle made by any call is
    # still there at the end.
    gc.collect()
    gc.disable()
    try:
        for blocks in range(1, 13):
            for choice in (1, 2, 3, 4):
                complete_qn(blocks, choice)
                case = refute_case(blocks, choice)
                for leaf in case.leaves:
                    replay_trace(blocks, choice, leaf.trace, leaf.conflict)
                if case.completed is not None:
                    replay_trace(blocks, choice, case.completed.trace)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _held_bytes(root) -> int:
    """sys.getsizeof summed over the distinct objects reachable from root,
    classes excluded: the memory a caller keeps by holding root."""
    seen = set()
    stack = [root]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


def test_refutation_leaves_share_cell_facts():
    # The leaves of refute_case(12, c), c = 1..4, each trimmed to the cone
    # of its conflict, seeds included, hold 7,968 steps (94,147 untrimmed).
    # With one (r, c) tuple per assigned cell shared by every premise that
    # names it, they hold about 0.66 MB (5.3 MB untrimmed).  tracemalloc
    # reads the same figures but slows the run about seventeenfold, so the
    # held objects are counted directly.
    held = [refute_case(12, choice) for choice in (1, 2, 3, 4)]
    assert sum(len(leaf.trace) for case in held for leaf in case.leaves) == 7968
    assert _held_bytes(held) < 2_500_000


def test_collector_left_as_found():
    assert gc.isenabled()
    refute_case(5, 1)
    assert gc.isenabled()
    gc.disable()
    try:
        refute_case(5, 1)
        assert not gc.isenabled()
        with pytest.raises(SearchCapExceeded):
            complete_qn(MAX_BLOCKS + 1, 1)
        assert not gc.isenabled()
    finally:
        gc.enable()
    with pytest.raises(ReplayError):
        replay_trace(2, 1, [Step("nonesuch", (0, 0), 1, ())])
    assert gc.isenabled()
