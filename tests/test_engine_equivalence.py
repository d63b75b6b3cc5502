"""The deduction engine's rule passes skip rule instances that provably
cannot change the state.  These tests pin that the skipping changes
nothing: golden digests of every trace for 1..12 and 13..16 blocks (for
1..12 also with refute_case's leaves untrimmed), and each pass against its
naive reference (tests/naive_passes.py) on random partial states.  The
engine schedules latin elimination and alterability only; a naive
saturation that also runs bookend, strong elasticity, distributivity and
mediality at each fixpoint of those two must give the same traces, and
pairs_idle_at_fixpoints checks bookend and strong elasticity at the
fixpoints of larger block counts."""

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
    _least_unknown_cell,
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

# SHA-256 of engine_digest(12), computed when the engine stopped running
# bookend and strong elasticity; the verdicts, splits and leaf counts it
# hashes did not move then, only the steps of the traces
ENGINE_DIGEST_1_TO_12 = "abf7b61acdcefcf5ff3902ac00506194cd1eeed204813cda69e46d8fa46c6a80"
# SHA-256 of engine_digest(12) with the trim patched out: the whole leaf
# traces, which pin the search itself.  Computed at the same point.
ENGINE_DIGEST_1_TO_12_UNTRIMMED = (
    "fe15ad63f25fa693a95081bf1894927f232318c4983a307a6143b2d997b428b5")
# SHA-256 of engine_digest(16, first=13), computed with trimmed leaves
ENGINE_DIGEST_13_TO_16 = "5db3af1a268178ef2af217e4c04bfa2892cf5218c3a9c193e746cd5dc3bc8f77"
# SHA-256 of engine_digest(30, first=17), computed with trimmed leaves.  It
# takes about two minutes, so CI checks it in a step of its own, outside
# tier-1.
ENGINE_DIGEST_17_TO_30 = "d75e7dceb20ec57667737d5e5326b99b8dbe4170b806106245fd43b4f2740594"

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


def test_passes_match_naive_on_large_states():
    # states cut from 13- and 16-block traces, mostly near their ends, where
    # the latin bounds skip the most rows, columns and values, and the full
    # traces of the leaves that end in a latin conflict; the passes run in
    # turn with one more step fed in between
    rng = random.Random(1316)
    names = ("latin_pass", "alter_pass")
    seen = {name: set() for name in names}
    checked = 0
    for blocks in (13, 16):
        traces = list(_source_traces(blocks, first=blocks))
        with untrimmed():
            cases = [refute_case(blocks, choice) for choice in (1, 2, 3, 4)]
        cuts = [(case.choice, leaf.trace, len(leaf.trace)) for case in cases
                for leaf in case.leaves if leaf.conflict.rule.startswith("latin")]
        for _, choice, trace in rng.sample(traces, 40):
            for _ in range(2):
                if rng.random() < 0.7:
                    cut = len(trace) - rng.randrange(min(len(trace), 60))
                else:
                    cut = rng.randrange(len(trace) + 1)
                cuts.append((choice, trace, cut))
        for choice, trace, cut in cuts:
            st = _State(blocks, choice)
            if not _replay(st, trace[:cut]):
                continue
            for name in names:
                want = _run(st.clone(), naive_passes.PASSES[name])
                got = _run(st, getattr(_State, name))
                assert got == want, (blocks, choice, cut, name)
                checked += 1
                changed, conflict, _ = got
                seen[name].add("conflict" if conflict else bool(changed))
                if conflict is not None or not _replay(st, trace[cut:cut + 1]):
                    break
                cut += 1
    assert checked > 150
    assert {True, False, "conflict"} <= seen["latin_pass"], seen
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


# the rules the engine does not run, tried in turn at each fixpoint of the
# two it runs
_UNSCHEDULED = (naive_passes.pairs_pass, naive_passes.distrib_pass,
                naive_passes.mediality_pass)


def _naive_saturate(st) -> None:
    """deduction._saturate with the naive latin and alterability passes,
    and at each fixpoint of those two the naive bookend and strong
    elasticity, distributivity and mediality passes, which the engine does
    not run."""
    if st.conflict is not None:
        return
    try:
        while True:
            while True:
                ch = naive_passes.latin_pass(st)
                ch = naive_passes.alter_pass(st) or ch
                if not ch:
                    break
            if not any(run(st) for run in _UNSCHEDULED):
                return
    except _ConflictError as exc:
        st.conflict = exc.record


def test_saturation_matches_naive_saturation():
    # the seeded saturation and every first-level split branch, as
    # refute_case runs them, give the same trace and conflict both ways:
    # bookend, strong elasticity, distributivity and mediality find nothing
    # at the engine's fixpoints
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


def pairs_idle_at_fixpoints(max_blocks: int, first: int = 1) -> int:
    """Run complete_qn and refute_case for every block count from first to
    max_blocks and every choice, and at each saturation's fixpoint that
    holds no conflict run the naive bookend and strong elasticity pass on a
    copy of the state.  Fails if that pass assigns a cell or raises a
    conflict; returns the number of fixpoints probed.  CI runs it at 7..30
    blocks, outside tier-1."""
    saturate = deduction._saturate
    probed = 0

    def probing(st):
        nonlocal probed
        saturate(st)
        if st.conflict is None:
            changed, conflict, steps = _run(st.clone(), naive_passes.pairs_pass)
            assert not changed and conflict is None and not steps, (
                st.blocks, st.choice, len(st.trace), conflict, steps[:1])
            probed += 1

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
