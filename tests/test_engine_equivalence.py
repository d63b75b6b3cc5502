"""The deduction engine's rule passes skip rule instances that provably
cannot change the state.  These tests pin that the skipping changes
nothing: golden digests of every trace for 1..12 and 13..16 blocks (for
1..12 also with refute_case's leaves untrimmed), and each pass against its
naive reference (tests/naive_passes.py) on random partial states.  Apart
from the traces, golden digests of the search's outcomes (verdicts,
splits, depths, leaf counts, completed and stuck tables) pin what the
search decides, across changes that move every trace.  The engine runs
alterability to its fixpoint, then one latin scan of the cells, which
raises the conflict of a cell with no candidate and otherwise picks the
split cell; the scan is checked against the naive latin pass's conflict
and a plain least-candidate scan.  A naive saturation that also runs latin
elimination over the cells, rows and columns, bookend, strong elasticity,
distributivity and mediality at each fixpoint of alterability must give
the same traces, and pairs_idle_at_fixpoints checks the cell, row and
column latin views, bookend and strong elasticity at the fixpoints of
larger block counts."""

import hashlib
import itertools
import random

import pytest

from quadlat import (
    CayleyTable,
    LinearSpec,
    check_identity,
    direct_product,
    linear_table,
    quadratical_over_zm,
    solve_quadratic_congruence,
)
from quadlat import deduction
from quadlat.cayley import _medial_form
from quadlat.deduction import (
    Completed,
    Contradiction,
    _ConflictError,
    _saturate,
    _seed_state,
    _State,
    complete_qn,
    refute_case,
    trace_text,
)

import naive_passes
from conftest import untrimmed
from test_properties import quadratical_test_tables

# The trace digests below were last computed when alterability came to run
# to its fixpoint before each latin pass, and latin elimination to run over
# the cells only: the traces moved, while ENGINE_OUTCOMES_1_TO_12 and
# ENGINE_OUTCOMES_13_TO_30, taken before that change, did not.
# SHA-256 of engine_digest(12), with each leaf trimmed to its conflict's
# cone, seeds included
ENGINE_DIGEST_1_TO_12 = "12558e9f3dcfe2d88f64f7b68ec7630ff562742be8af7073084628b8032b44a1"
# SHA-256 of engine_digest(12) with the trim patched out: the whole leaf
# traces, which pin the search itself
ENGINE_DIGEST_1_TO_12_UNTRIMMED = (
    "50e5d09b66d222d2d2cd944808a6e9b186c8634975acd37a5082f53bc6256609")
# SHA-256 of engine_digest(16, first=13), computed with trimmed leaves
ENGINE_DIGEST_13_TO_16 = "22f068fbe787a65a6998c10e7b792c98120d9ac5c8215c036f1e59063b426efe"
# SHA-256 of engine_digest(30, first=17), computed with trimmed leaves.  It
# takes about two minutes, so CI checks it in a step of its own, outside
# tier-1.
ENGINE_DIGEST_17_TO_30 = "aa998c32ba2a5fac823b8b06b91ecbd06c5d81cc2772c1f25353632bb84c3d3d"
# SHA-256 of engine_outcomes_digest(12) and of engine_outcomes_digest(30,
# first=13): verdicts, splits, depths, leaf counts and completed and stuck
# tables, not traces, so a change of rule schedule that leaves the search's
# decisions alone leaves them as they are.  Computed while latin
# elimination still ran over cells, rows and columns before every
# alterability pass.  The second takes about two minutes, so CI checks it
# in a step of its own, outside tier-1.
ENGINE_OUTCOMES_1_TO_12 = "55e7bf5a42b93d56005f7c38381a420a64eb709e499f719c5998f6b78f161077"
ENGINE_OUTCOMES_13_TO_30 = "a35efb2266a6c22a202924b7cddc55701c20e10f8312e3f7fb2bd807bd516225"


def outcome_text(out) -> str:
    if isinstance(out, Completed):
        return "completed\n" + trace_text(out.trace)
    if isinstance(out, Contradiction):
        return "contradiction\n" + trace_text(out.trace, out.conflict)
    return "stuck\n" + trace_text(out.partial.trace)


def engine_digest(max_blocks: int, first: int = 1) -> str:
    """Traces, conflicts, verdicts, split and leaf counts of complete_qn and
    refute_case for every block count from first to max_blocks and every
    choice."""
    h = hashlib.sha256()
    for blocks in range(first, max_blocks + 1):
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


def _table(end):
    """The cells of a Completed or Stuck outcome, or None."""
    if end is None:
        return None
    return end.table.entries if isinstance(end, Completed) else end.partial.entries


def engine_outcomes_digest(max_blocks: int, first: int = 1) -> str:
    """What the search decides, apart from its traces: for every block
    count from first to max_blocks and every choice, complete_qn's outcome
    kind and its completed or stuck table, and refute_case's verdict,
    splits, depth, leaf count and completed or stuck table."""
    h = hashlib.sha256()
    for blocks in range(first, max_blocks + 1):
        for choice in (1, 2, 3, 4):
            out = complete_qn(blocks, choice)
            h.update(repr(("complete_qn", blocks, choice, type(out).__name__,
                           None if isinstance(out, Contradiction) else _table(out))).encode())
            case = refute_case(blocks, choice)
            h.update(repr(("refute_case", blocks, choice, case.refuted, case.splits,
                           case.max_depth_used, len(case.leaves),
                           _table(case.completed), _table(case.stuck))).encode())
    return h.hexdigest()


def test_engine_outcomes_1_to_12_blocks():
    assert engine_outcomes_digest(12) == ENGINE_OUTCOMES_1_TO_12


def test_engine_digest_1_to_12_blocks():
    assert engine_digest(12) == ENGINE_DIGEST_1_TO_12


def test_engine_digest_1_to_12_blocks_untrimmed():
    with untrimmed():
        assert engine_digest(12) == ENGINE_DIGEST_1_TO_12_UNTRIMMED


def test_engine_digest_13_to_16_blocks():
    assert engine_digest(16, first=13) == ENGINE_DIGEST_13_TO_16


# ---------------------------------------------------------------------------
# each pass against its naive reference
# ---------------------------------------------------------------------------

def _source_traces(max_blocks, first=1):
    """Full traces to cut prefixes from: saturations, and split leaves and
    completions, which carry assume steps.  The leaves are taken whole, not
    trimmed to the cones of their conflicts."""
    for blocks in range(first, max_blocks + 1):
        for choice in (1, 2, 3, 4):
            out = complete_qn(blocks, choice)
            yield blocks, choice, out.partial.trace if hasattr(out, "partial") else out.trace
            with untrimmed():
                case = refute_case(blocks, choice)
            for leaf in case.leaves:
                yield blocks, choice, leaf.trace
            if case.completed is not None:
                yield blocks, choice, case.completed.trace


def _replay(st, steps) -> bool:
    """Assign steps onto st; False once one clashes with the state."""
    try:
        for step in steps:
            st.set_cell(*step.cell, step.value, step.rule, step.premises)
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


def _least_candidates(st):
    """The plain split-cell scan: the first unknown cell, in row-major
    order, with the fewest latin candidates, as (r, c, candidates), or None
    when no cell is unknown.  A cell with no candidate is the first with the
    fewest whenever there is one."""
    full = (1 << st.n) - 1
    best = None
    for r in range(st.n):
        for c in range(st.n):
            if st.val[r][c] == -1:
                cand = ~(st.row_vals[r] | st.col_vals[c]) & full
                if best is None or bin(cand).count("1") < bin(best[2]).count("1"):
                    best = (r, c, cand)
    return best


class _Unplaced:
    """A state as the naive latin pass sees it with its latin singles left
    unplaced, as the engine's scan leaves them."""

    def __init__(self, st):
        self.st = st

    def __getattr__(self, name):
        return getattr(self.st, name)

    def set_cell(self, *args):
        return False


def _check_scan(st) -> str:
    """Run the engine's latin scan on st and check it against two oracles:
    its conflict, or its absence, must be the naive latin pass's, kind,
    cell, premises and all, and the cell it returns, or the cell its
    conflict names, the plain least-candidate scan's.  Returns "conflict",
    "single" (a split cell with one candidate), "split" or "full" (no cell
    unknown)."""
    split, conflict, steps = _run(st, _State.latin_scan)
    assert not steps
    assert conflict == _run(_Unplaced(st), naive_passes.latin_pass)[1]
    want = _least_candidates(st)
    if conflict is not None:
        assert want[2] == 0 and conflict.cell == want[:2], (conflict, want)
        return "conflict"
    assert split == want and (want is None or want[2]), (split, want)
    if split is None:
        return "full"
    return "single" if split[2].bit_count() == 1 else "split"


def _check_pass(st, name):
    """Run the engine's pass name (alter_pass or latin_scan) on st, checked
    against its oracles; returns "conflict", or what _check_scan returns,
    or alter_pass's change flag."""
    if name == "latin_scan":
        return _check_scan(st)
    want = _run(st.clone(), naive_passes.alter_pass)
    got = _run(st, _State.alter_pass)
    assert got == want, name
    changed, conflict, _ = got
    return "conflict" if conflict else changed


# the engine's two passes, by their names on _State
_ENGINE_PASSES = ("alter_pass", "latin_scan")


def test_passes_match_naive_reference():
    rng = random.Random(20240611)
    seen = {name: set() for name in _ENGINE_PASSES}
    checked = 0
    for blocks, _, trace in _source_traces(5):
        for _ in range(3):
            st = _State(4 * blocks + 1)
            cut = rng.randrange(len(trace) + 1)
            if not _replay(st, trace[:cut]):
                continue
            # a run of passes, with more trace steps fed in between, so
            # passes meet states they have already partly examined
            for _ in range(10):
                name = rng.choice(_ENGINE_PASSES)
                outcome = _check_pass(st, name)
                checked += 1
                seen[name].add(outcome)
                if outcome == "conflict":
                    break
                if rng.random() < 0.7:
                    # often one step, so a single row, column and value
                    # are new to the next pass
                    more = rng.choice((1, 1, 1, 2, 3, rng.randrange(1, 40)))
                    if not _replay(st, trace[cut:cut + more]):
                        break
                    cut += more
    assert checked > 300
    assert {True, False, "conflict"} <= seen["alter_pass"], seen
    assert {"split", "single", "conflict"} <= seen["latin_scan"], seen


def _singles_to_no_candidate(blocks, trace):
    """trace followed by the latin singles the naive latin pass places on
    the state trace builds, when the pass then meets a cell with no
    candidate, so that the state the result builds holds such a cell; None
    otherwise."""
    st = _State(4 * blocks + 1)
    if not _replay(st, trace):
        return None
    _, conflict, steps = _run(st, naive_passes.latin_pass)
    return None if conflict is None else tuple(trace) + tuple(steps)


def test_passes_match_naive_on_large_states():
    # states cut from 13- and 16-block traces, mostly near their ends, and
    # the states of leaves whose latin singles, once placed, leave a cell
    # with no candidate; the passes run in turn with one more step fed in
    # between.  The engine runs the latin scan only at a fixpoint of
    # alterability, where it finds no latin single; a state cut before that
    # fixpoint can hold one, and a leaf's last state, where alterability
    # clashed first, too
    rng = random.Random(1316)
    names = ("latin_scan", "alter_pass")
    seen = {name: set() for name in names}
    checked = 0
    for blocks in (13, 16):
        traces = list(_source_traces(blocks, first=blocks))
        with untrimmed():
            cases = [refute_case(blocks, choice) for choice in (1, 2, 3, 4)]
        cuts = [(ext, len(ext)) for case in cases for leaf in case.leaves
                if (ext := _singles_to_no_candidate(blocks, leaf.trace))]
        for _, _, trace in rng.sample(traces, 40):
            for _ in range(2):
                if rng.random() < 0.7:
                    cut = len(trace) - rng.randrange(min(len(trace), 60))
                else:
                    cut = rng.randrange(len(trace) + 1)
                cuts.append((trace, cut))
        for trace, cut in cuts:
            st = _State(4 * blocks + 1)
            if not _replay(st, trace[:cut]):
                continue
            for name in names:
                outcome = _check_pass(st, name)
                checked += 1
                seen[name].add(outcome)
                if outcome == "conflict" or not _replay(st, trace[cut:cut + 1]):
                    break
                cut += 1
    assert checked > 150
    assert {"split", "single", "conflict"} <= seen["latin_scan"], seen
    assert {True, False} <= seen["alter_pass"], seen


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
    # contradicts it, or a latin square, for the latin scan alone.
    rng = random.Random(7)
    hidden = [t.entries for t in quadratical_test_tables().values()
              if t.n in (5, 9, 13, 17)]
    seen = {name: set() for name in _ENGINE_PASSES}
    for run in range(80):
        if run % 2:
            entries = _relabelled(rng, rng.choice(hidden))
            names = _ENGINE_PASSES
        else:
            entries = _random_latin_square(rng, rng.choice((5, 9, 13)))
            names = ["latin_scan"]
        st = _State(len(entries))
        cells = [(r, c) for r in range(st.n) for c in range(st.n)]
        rng.shuffle(cells)
        while any(-1 in row for row in st.val):
            for _ in range(rng.randint(1, 3)):
                while cells and st.val[cells[-1][0]][cells[-1][1]] != -1:
                    cells.pop()
                if cells:
                    r, c = cells.pop()
                    st.set_cell(r, c, entries[r][c], "assume", ())
            name = rng.choice(names)
            outcome = _check_pass(st, name)
            assert outcome != "conflict", (run, name)
            seen[name].add(outcome)
    assert seen == {"alter_pass": {True, False},
                    "latin_scan": {"split", "single", "full"}}, seen


# the rules the engine does not run, tried in turn at each fixpoint of the
# two it runs
_UNSCHEDULED = (naive_passes.latin_lines_pass, naive_passes.pairs_pass,
                naive_passes.distrib_pass, naive_passes.mediality_pass)
# the passes pairs_idle_at_fixpoints tries at every conflict-free fixpoint:
# latin elimination over the cells, which the engine's scan only checks for
# a conflict, and the unscheduled row and column views, bookend and strong
# elasticity
_IDLE = (naive_passes.latin_pass, naive_passes.latin_lines_pass, naive_passes.pairs_pass)


def _naive_saturate(st) -> None:
    """deduction._saturate with the naive passes: alterability until it
    assigns nothing, then latin elimination over the cells, until neither
    assigns; and at each fixpoint of those two the naive passes the engine
    does not run, the row and column latin views, bookend and strong
    elasticity, distributivity and mediality.  A latin cell single, which
    the engine never places, would show as a step the engine's trace
    lacks."""
    if st.conflict is not None:
        return
    try:
        while True:
            while True:
                while naive_passes.alter_pass(st):
                    pass
                if not naive_passes.latin_pass(st):
                    break
            if not any(run(st) for run in _UNSCHEDULED):
                return
    except _ConflictError as exc:
        st.conflict = exc.record


def test_saturation_matches_naive_saturation():
    # the seeded saturation and every first-level split branch, as
    # refute_case runs them, give the same trace and conflict both ways,
    # and the split cell of the plain least-candidate scan: latin
    # elimination over the cells, rows and columns, bookend, strong
    # elasticity, distributivity and mediality find nothing at the
    # engine's fixpoints
    for blocks in range(1, 7):
        for choice in (1, 2, 3, 4):
            st = _seed_state(blocks, choice)
            naive = st.clone()
            naive.conflict = st.conflict
            split = _saturate(st)
            _naive_saturate(naive)
            assert (st.trace, st.conflict) == (naive.trace, naive.conflict)
            if st.conflict is not None:
                continue
            assert split == _least_candidates(naive)
            if split is None:
                continue
            r, c, cand = split
            for v in range(st.n):
                if not cand >> v & 1:
                    continue
                child = st.clone()
                child.set_cell(r, c, v, "assume", ())
                naive = child.clone()
                child_split = _saturate(child)
                _naive_saturate(naive)
                assert (child.trace, child.conflict) == (naive.trace, naive.conflict)
                if child.conflict is None:
                    assert child_split == _least_candidates(naive)


def pairs_idle_at_fixpoints(max_blocks: int, first: int = 1) -> int:
    """Run complete_qn and refute_case for every block count from first to
    max_blocks and every choice, and at each saturation's fixpoint that
    holds no conflict run, each on its own copy of the state, the naive
    latin passes over the cells and over the row and column views and the
    naive bookend and strong elasticity pass.  Fails if any pass assigns a
    cell or raises a conflict; returns the number of fixpoints probed.  CI
    runs it at 7..30 blocks, outside tier-1."""
    saturate = deduction._saturate
    probed = 0

    def probing(st):
        nonlocal probed
        split = saturate(st)
        if st.conflict is None:
            for idle in _IDLE:
                changed, conflict, steps = _run(st.clone(), idle)
                assert not changed and conflict is None and not steps, (
                    idle.__name__, st.n, len(st.trace), conflict,
                    steps[:1])
            probed += 1
        return split

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(deduction, "_saturate", probing)
        for blocks in range(first, max_blocks + 1):
            for choice in (1, 2, 3, 4):
                complete_qn(blocks, choice)
                refute_case(blocks, choice)
    return probed


# conflict-free fixpoints at 1..6 blocks, each choice: complete_qn's, then
# refute_case's root and branches
FIXPOINTS_1_TO_6 = 28


def test_pairs_idle_at_fixpoints():
    assert pairs_idle_at_fixpoints(6) == FIXPOINTS_1_TO_6


# ---------------------------------------------------------------------------
# mediality and alterability checks against their exhaustive scans
# ---------------------------------------------------------------------------

def _random_latin_rows(rng, n):
    """A latin square grown row by row, each row a random matching of the
    columns to the symbols they still lack (a latin rectangle always
    extends, by Hall's theorem).  Unlike _random_latin_square these are not
    all isotopes of Z_n."""
    free = [set(range(n)) for _ in range(n)]
    rows = []
    for _ in range(n):
        owner = {}

        def augment(c, seen):
            for v in rng.sample(sorted(free[c]), len(free[c])):
                if v not in seen:
                    seen.add(v)
                    if v not in owner or augment(owner[v], seen):
                        owner[v] = c
                        return True
            return False

        for c in rng.sample(range(n), n):
            augment(c, set())
        row = [0] * n
        for v, c in owner.items():
            row[c] = v
            free[c].discard(v)
        rows.append(row)
    return rows


def _isotope(rng, entries):
    """x*y = f(g(x) . h(y)) for random permutations f, g and h."""
    n = len(entries)
    f, g, h = (rng.sample(range(n), n) for _ in range(3))
    return [[f[entries[g[x]][h[y]]] for y in range(n)] for x in range(n)]


def _gl3_f2():
    """The 168 invertible 3 x 3 matrices over GF(2), each as its action on
    the vectors 0..7 (bit i is coordinate i)."""
    maps = []
    for cols in itertools.product(range(1, 8), repeat=3):
        image = [0] * 8
        for v in range(8):
            for i in range(3):
                if v >> i & 1:
                    image[v] ^= cols[i]
        if len(set(image)) == 8:
            maps.append(image)
    return maps


def _symmetric_loop(m):
    """A commutative loop of order m + 1 (m odd) with x*x = e for every x:
    x*y = (x+y)/2 mod m for x != y, with e = m the identity.  It is not a
    group for m >= 5, since a group of even order 2k > 4 with every element
    its own inverse would be elementary abelian, of order a power of 2."""
    half = (m + 1) // 2
    e = m

    def op(x, y):
        if x == e:
            return y
        if y == e:
            return x
        return e if x == y else (x + y) * half % m

    return [[op(x, y) for y in range(m + 1)] for x in range(m + 1)]


def identity_oracle_tables():
    """Tables on which the structural checks must agree with the scans:
    medial and not, latin and not, groups and loops that are not
    associative, abelian and not."""
    rng = random.Random(99)
    tables = [t.entries for t in quadratical_test_tables().values()]
    tables += [quadratical_over_zm(m, solve_quadratic_congruence(m)[0]).entries
               for m in (29, 37, 41)]
    for _ in range(1000):
        n = rng.randint(1, 12)
        tables.append(_random_latin_rows(rng, n))
        tables.append(_relabelled(rng, tables[-1]))
        tables.append(_random_latin_square(rng, n))
    for _ in range(200):
        n = rng.randint(1, 12)
        tables.append([[rng.randrange(n) for _ in range(n)] for _ in range(n)])
    # linear tables x*y = ax + by + c, medial, latin when a and b are units
    for m in range(2, 16):
        for a in range(m):
            for b in range(m):
                tables.append([[(a * x + b * y + 1) % m for y in range(m)] for x in range(m)])
    # a medial table with one entry changed fails late in the scan
    for m, a in ((13, 3), (17, 7), (25, 4)):
        for _ in range(5):
            rows = [list(r) for r in quadratical_over_zm(m, a).entries]
            x, y = rng.randrange(m), rng.randrange(m)
            rows[x][y] = (rows[x][y] + rng.randrange(1, m)) % m
            tables.append(rows)
    # S3, non-abelian: its loop isotopes are not commutative
    s3 = list(itertools.permutations(range(3)))
    s3_table = [[s3.index(tuple(p[q[i]] for i in range(3))) for q in s3] for p in s3]
    tables.append(s3_table)
    tables += [_isotope(rng, s3_table) for _ in range(20)]
    # x*y = Ax + By + c over Z2^3: medial iff AB = BA
    gl = _gl3_f2()
    commuting = 0
    for _ in range(60):
        A, B = rng.choice(gl), rng.choice(gl)
        commuting += [A[v] for v in B] == [B[v] for v in A]
        c = rng.randrange(8)
        tables.append(_relabelled(rng, [[A[x] ^ B[y] ^ c for y in range(8)] for x in range(8)]))
    assert 0 < commuting < 60
    # commutative loops that are not groups, so Light's test has to reject +
    for m in (3, 5, 7, 9, 11):
        tables.append(_symmetric_loop(m))
        tables.append(_relabelled(rng, tables[-1]))
    # relabelled direct products: Z5 x Z5, Z3 x Z5, S3 x Z2
    for t1, t2 in ((quadratical_over_zm(5, 2), quadratical_over_zm(5, 4)),
                   (linear_table(LinearSpec(3, 2, 2, 0)), quadratical_over_zm(5, 2)),
                   (CayleyTable.from_rows(s3_table),
                    CayleyTable.from_function(2, lambda x, y: (x + y) % 2))):
        tables.append(_relabelled(rng, direct_product(t1, t2).entries))
    # above order 256 the plain mediality scan runs
    n = 300
    tables.append([[(2 * x + 3 * y + x * y % 5) % n for y in range(n)] for x in range(n)])
    return [CayleyTable.from_rows(rows) for rows in tables]


def test_mediality_check_matches_naive():
    holds = {"mediality": 0, "alterability": 0}
    for t in identity_oracle_tables():
        for ident, oracle in (("mediality", naive_passes.check_mediality),
                              ("alterability", naive_passes.check_alterability)):
            want = oracle(t)
            assert check_identity(t, ident) == want, (ident, t.entries)
            holds[ident] += want is None
        # a wrong "not medial" would be hidden above by the scan that follows it
        medial_quasigroup = (check_identity(t, "latin-square") is None
                             and naive_passes.check_mediality(t) is None)
        assert (_medial_form(t) is not None) == medial_quasigroup, t.entries
    assert holds["mediality"] >= 300 and holds["alterability"] >= 25, holds
