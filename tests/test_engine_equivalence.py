"""The deduction engine's rule passes skip rule instances that provably
cannot change the state.  These tests pin that the skipping changes
nothing: a golden digest of every trace for 1..12 blocks, and each pass
against its naive reference (tests/naive_passes.py) on random partial
states."""

import hashlib
import random

from quadlat import (
    CayleyTable,
    check_identity,
    quadratical_over_zm,
    solve_quadratic_congruence,
)
from quadlat.deduction import (
    Completed,
    Contradiction,
    _ConflictError,
    _least_unknown_cell,
    _saturate,
    _seed_state,
    _State,
    complete_qn,
    refute_case,
    trace_text,
)

import naive_passes
from test_properties import quadratical_test_tables

# SHA-256 of engine_digest(12), computed with the engine before any rule
# instance was skipped
ENGINE_DIGEST_1_TO_12 = "aae364d0a1d6b232195528fe11c6228e4f2c640ccf47709751afb932adf23869"


def outcome_text(out) -> str:
    if isinstance(out, Completed):
        return "completed\n" + trace_text(out.trace)
    if isinstance(out, Contradiction):
        return "contradiction\n" + trace_text(out.trace, out.conflict)
    return "stuck\n" + trace_text(out.partial.trace)


def engine_digest(max_blocks: int) -> str:
    """Traces, conflicts, verdicts, split and leaf counts of complete_qn and
    refute_case for every block count up to max_blocks and every choice."""
    h = hashlib.sha256()
    for blocks in range(1, max_blocks + 1):
        for choice in (1, 2, 3, 4):
            h.update(f"complete_qn {blocks} {choice} ".encode())
            h.update(outcome_text(complete_qn(blocks, choice)).encode())
            case = refute_case(blocks, choice)
            h.update(f"refute_case {blocks} {choice} refuted={case.refuted} "
                     f"splits={case.splits} depth={case.max_depth_used} "
                     f"leaves={len(case.leaves)}\n".encode())
            for leaf in case.leaves:
                h.update(outcome_text(leaf).encode())
            for end in (case.completed, case.stuck):
                if end is not None:
                    h.update(outcome_text(end).encode())
    return h.hexdigest()


def test_engine_digest_1_to_12_blocks():
    assert engine_digest(12) == ENGINE_DIGEST_1_TO_12


# ---------------------------------------------------------------------------
# each pass against its naive reference
# ---------------------------------------------------------------------------

def _source_traces(max_blocks):
    """Full traces to cut prefixes from: saturations, and split leaves and
    completions, which carry assume steps."""
    for blocks in range(1, max_blocks + 1):
        for choice in (1, 2, 3, 4):
            out = complete_qn(blocks, choice)
            yield blocks, choice, out.partial.trace if hasattr(out, "partial") else out.trace
            case = refute_case(blocks, choice)
            for leaf in case.leaves:
                yield blocks, choice, leaf.trace
            if case.completed is not None:
                yield blocks, choice, case.completed.trace


def _replay(st, steps) -> bool:
    """Assign steps onto st; False once one clashes with the state."""
    try:
        for step in steps:
            st.set_cell(step.cell[0], step.cell[1], step.value, step.rule,
                        step.premises, step.binding)
    except _ConflictError:
        return False
    return True


def _run(st, fn):
    before = len(st.trace)
    try:
        changed, conflict = fn(st), None
    except _ConflictError as exc:
        changed, conflict = None, exc.record
    return changed, conflict, st.trace[before:]


def test_passes_match_naive_reference():
    rng = random.Random(20240611)
    seen = {name: set() for name in naive_passes.PASSES}
    checked = 0
    for blocks, choice, trace in _source_traces(5):
        for _ in range(3):
            st = _State(blocks, choice)
            cut = rng.randrange(len(trace) + 1)
            if not _replay(st, trace[:cut]):
                continue
            # a run of passes, with more trace steps fed in between, so
            # passes meet states they have already partly examined
            for _ in range(10):
                name = rng.choice(sorted(naive_passes.PASSES))
                want = _run(st.clone(), naive_passes.PASSES[name])
                got = _run(st, getattr(_State, name))
                assert got == want, (blocks, choice, cut, name)
                checked += 1
                changed, conflict, _ = got
                seen[name].add("conflict" if conflict else bool(changed))
                if conflict is not None:
                    break
                if rng.random() < 0.7:
                    # often one step, so a single row, column and value
                    # are new to the next pass
                    more = rng.choice((1, 1, 1, 2, 3, rng.randrange(1, 40)))
                    if not _replay(st, trace[cut:cut + more]):
                        break
                    cut += more
    assert checked > 300
    for name, outcomes in seen.items():
        assert {True, False} <= outcomes, (name, outcomes)
    assert any("conflict" in outcomes for outcomes in seen.values())


def _random_latin_square(rng, n):
    rp, cp, sp = (rng.sample(range(n), n) for _ in range(3))
    return [[sp[(rp[x] + cp[y]) % n] for y in range(n)] for x in range(n)]


def _relabelled(rng, entries):
    n = len(entries)
    p = rng.sample(range(n), n)
    inv = [0] * n
    for i, x in enumerate(p):
        inv[x] = i
    return [[inv[entries[p[x]][p[y]]] for y in range(n)] for x in range(n)]


def test_passes_match_naive_on_revealed_tables():
    # cells of a hidden table revealed a few at a time, with a random pass
    # after each batch: every pass meets a small set of new rows, columns,
    # values and cells.  The hidden table is quadratical, so no rule
    # contradicts it, or a latin square, for the latin pass alone.
    rng = random.Random(7)
    hidden = [t.entries for t in quadratical_test_tables().values()
              if t.n in (5, 9, 13, 17)]
    seen = {name: set() for name in naive_passes.PASSES}
    for run in range(80):
        if run % 2:
            entries = _relabelled(rng, rng.choice(hidden))
            names = sorted(naive_passes.PASSES)
        else:
            entries = _random_latin_square(rng, rng.choice((5, 9, 13)))
            names = ["latin_pass"]
        st = _State((len(entries) - 1) // 4, 1)
        cells = [(r, c) for r in range(st.n) for c in range(st.n)]
        rng.shuffle(cells)
        while st.unknown:
            for _ in range(rng.randint(1, 3)):
                while cells and st.val[cells[-1][0]][cells[-1][1]] != -1:
                    cells.pop()
                if cells:
                    r, c = cells.pop()
                    st.set_cell(r, c, entries[r][c], "assume", (), (0,))
            name = rng.choice(names)
            want = _run(st.clone(), naive_passes.PASSES[name])
            got = _run(st, getattr(_State, name))
            assert got == want, (run, name)
            assert got[1] is None
            seen[name].add(got[0])
    for name, outcomes in seen.items():
        assert outcomes == {True, False}, (name, outcomes)


def _naive_saturate(st) -> None:
    """deduction._saturate with the naive passes."""
    if st.conflict is not None:
        return
    try:
        while True:
            while True:
                ch = naive_passes.latin_pass(st)
                ch = naive_passes.pairs_pass(st) or ch
                ch = naive_passes.alter_pass(st) or ch
                if not ch:
                    break
            if naive_passes.distrib_pass(st):
                continue
            if naive_passes.mediality_pass(st):
                continue
            return
    except _ConflictError as exc:
        st.conflict = exc.record


def test_saturation_matches_naive_saturation():
    # the seeded saturation and every first-level split branch, as
    # refute_case runs them, give the same trace and conflict both ways
    for blocks in range(1, 7):
        for choice in (1, 2, 3, 4):
            st = _seed_state(blocks, choice)
            naive = st.clone()
            naive.conflict = st.conflict
            _saturate(st)
            _naive_saturate(naive)
            assert (st.trace, st.conflict) == (naive.trace, naive.conflict)
            if st.conflict is not None or st.unknown == 0:
                continue
            r, c, cand = _least_unknown_cell(st)
            for v in range(st.n):
                if not cand >> v & 1:
                    continue
                child = st.clone()
                child.set_cell(r, c, v, "assume", (), (1,))
                naive = child.clone()
                _saturate(child)
                _naive_saturate(naive)
                assert (child.trace, child.conflict) == (naive.trace, naive.conflict)


# ---------------------------------------------------------------------------
# mediality check against its naive reference
# ---------------------------------------------------------------------------

def test_mediality_check_matches_naive():
    tables = list(quadratical_test_tables().values())
    tables += [quadratical_over_zm(m, solve_quadratic_congruence(m)[0]) for m in (29, 37, 41)]
    rng = random.Random(99)
    for _ in range(1000):
        n = rng.randint(1, 12)
        tables.append(CayleyTable.from_rows(_random_latin_square(rng, n)))
    for _ in range(200):
        n = rng.randint(1, 12)
        tables.append(CayleyTable.from_rows(
            [[rng.randrange(n) for _ in range(n)] for _ in range(n)]))
    # a medial table with one entry changed fails late in the scan
    for m, a in ((13, 3), (17, 7), (25, 4)):
        rows = [list(r) for r in quadratical_over_zm(m, a).entries]
        x, y = rng.randrange(m), rng.randrange(m)
        rows[x][y] = (rows[x][y] + 1) % m
        tables.append(CayleyTable.from_rows(rows))
    # above order 256 the plain scan runs
    n = 300
    tables.append(CayleyTable.from_function(n, lambda x, y: (2 * x + 3 * y + x * y % 5) % n))
    holds = 0
    for t in tables:
        want = naive_passes.check_mediality(t)
        assert check_identity(t, "mediality") == want, t.n
        holds += want is None
    assert holds >= 25
