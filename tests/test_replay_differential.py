"""The replay auditor against its reference (tests/reference_replay.py):
every trace of complete_qn and of refute_case for 1..7 blocks, then one
random mutation of every step and forty of every conflict.  The leaves of
refute_case are taken whole, not trimmed to the cones of their conflicts,
so that every step of every branch is mutated.

On well-formed input both replays must accept and reject the same steps
and conflicts.  Malformed input (a cell or value out of range) must be
rejected with ReplayError, where the reference may crash with IndexError
or ValueError or accept by wrapping a negative index."""

import copy
import itertools
import random

import pytest

from quadlat.audit import _Replay
from quadlat.deduction import Stuck, complete_qn, refute_case, replay_trace
from quadlat.steps import Conflict, ReplayError, Step

import reference_replay
from conftest import untrimmed

RULES = (
    "assume", "bookend", "strong-elasticity", "left-distributivity",
    "right-distributivity", "mediality", "alterability", "latin-cell-single",
    "latin-row-single", "latin-col-single", "seed:idempotent", "seed:choice",
    "no-such-rule",
)
KINDS = (
    "cell-mismatch", "row-duplicate", "col-duplicate", "cell-no-candidate",
    "row-value-impossible", "col-value-impossible", "no-such-kind",
)


def _traces(max_blocks):
    """(blocks, choice, trace, conflict or None) for every outcome."""
    for blocks in range(1, max_blocks + 1):
        for choice in (1, 2, 3, 4):
            out = complete_qn(blocks, choice)
            trace = out.partial.trace if isinstance(out, Stuck) else out.trace
            yield blocks, choice, trace, getattr(out, "conflict", None)
            with untrimmed():
                case = refute_case(blocks, choice)
            for leaf in case.leaves:
                yield blocks, choice, leaf.trace, leaf.conflict
            if case.completed is not None:
                yield blocks, choice, case.completed.trace, None


def _verdict(fn, *args) -> str:
    try:
        fn(*args)
    except ReplayError:
        return "rejected"
    except (IndexError, ValueError):
        return "crashed"
    return "accepted"


def _fork(rp):
    """A copy of rp with its own table list (val or rows) and its own
    flat int lists (the bitmasks)."""
    twin = copy.copy(rp)
    for name, lines in vars(rp).items():
        if isinstance(lines, list):
            setattr(twin, name, [line[:] if isinstance(line, list) else line
                                 for line in lines])
    return twin


def _try_step(rp, step) -> str:
    """Verify and apply step on a copy of rp, leaving rp as it was."""
    def run():
        rp.verify_step(step)
        _fork(rp).apply_step(step)
    return _verdict(run)


def _coordinate(rng, n):
    """Mostly a coordinate in range; else one out of range, or a bool,
    which indexes the table like 0 or 1 and which both replays refuse in a
    cell, a value or a premise."""
    return rng.randrange(n) if rng.random() < 0.9 else rng.choice((-1, n, 99, True, False))


def _mutate(rng, n, item):
    """item with one of its value, cell, rule or premises replaced, or for
    a conflict also its kind.  A premise is a cell, so a premise replaced
    among an alterability step's first two moves the products the step
    claims, and one with only its column moved cites a neighbour of the
    cell the engine read, in its row."""
    fields = ["value", "cell", "rule", "premises"]
    if isinstance(item, Conflict):
        fields.append("kind")
    field = rng.choice(fields)
    if field == "value":
        new = _coordinate(rng, n)
    elif field == "cell":
        new = (_coordinate(rng, n), _coordinate(rng, n))
    elif field == "rule":
        new = rng.choice(RULES)
    elif field == "premises":
        new = list(item.premises)
        if new and rng.random() < 0.5:
            # one premise's column or whole cell replaced
            i = rng.randrange(len(new))
            r, _ = new[i]
            new[i] = ((r, _coordinate(rng, n)) if rng.random() < 0.5
                      else (_coordinate(rng, n), _coordinate(rng, n)))
        else:
            new = [(_coordinate(rng, n), _coordinate(rng, n))
                   for _ in range(rng.randrange(4))]
        new = tuple(new)
    else:
        new = rng.choice(KINDS)
    return item._replace(**{field: new})


def _in_range(n, *coords) -> bool:
    return all(0 <= x < n for x in coords)


def _malformed_step(n, step) -> bool:
    return not _in_range(n, *step.cell, step.value)


def _malformed_conflict(n, conflict) -> bool:
    (r, c), v = conflict.cell, conflict.value
    if conflict.kind == "cell-no-candidate":
        return not _in_range(n, r, c)
    return not _in_range(n, r, c, v)


def _expected(reference_verdict, malformed) -> str:
    if malformed or reference_verdict == "crashed":
        return "rejected"
    return reference_verdict


def test_replay_matches_reference():
    rng = random.Random(20261018)
    counts = {"accepted": 0, "rejected": 0}
    for blocks, choice, trace, conflict in _traces(7):
        n = 4 * blocks + 1
        ref = reference_replay.Replay(blocks, choice)
        new = _Replay(blocks, choice)
        for step in trace:
            bad = _mutate(rng, n, step)
            want = _try_step(ref, bad)
            got = _try_step(new, bad)
            assert got == _expected(want, _malformed_step(n, bad)), (blocks, choice, bad, want)
            counts[got] += 1
            for rp in (ref, new):
                rp.verify_step(step)
                rp.apply_step(step)
        if conflict is None:
            continue
        new.verify_conflict(conflict)
        for _ in range(40):
            bad = _mutate(rng, n, conflict)
            want = _verdict(ref.verify_conflict, bad)
            got = _verdict(new.verify_conflict, bad)
            assert got == _expected(want, _malformed_conflict(n, bad)), (
                blocks, choice, bad, want)
            counts[got] += 1
    assert sum(counts.values()) >= 20000
    assert counts["accepted"] >= 1000, counts


def test_replay_rejects_malformed_input():
    # each of these raised IndexError or ValueError before the replay
    # checked ranges
    with pytest.raises(ReplayError):
        replay_trace(1, 1, [Step("assume", (99, 0), 0, ())])
    with pytest.raises(ReplayError):
        replay_trace(1, 1, [], Conflict(
            "cell-no-candidate", "latin-cell", (7, -1), -1, ()))
    out = complete_qn(3, 1)
    cut = next(i for i, step in enumerate(out.trace) if step.rule == "alterability")
    step = out.trace[cut]
    (x, y), (z, w) = step.premises[:2]
    ref = reference_replay.Replay(3, 1)
    for earlier in out.trace[:cut]:
        ref.verify_step(earlier)
        ref.apply_step(earlier)
    ref.verify_step(step)
    # an alterability step reads its products from the cells of its first
    # two premises, so both replays refuse a step that cites fewer than
    # three, one whose first premise's cell is not a pair or is out of
    # range, and one whose cell is neither (y, z) nor (w, x) of its premises
    unknown = next((r, c) for r in range(13) for c in range(13)
                   if (r, c) not in ((y, z), (w, x))
                   and all(s.cell != (r, c) for s in out.trace[:cut]))
    malformed = [step._replace(premises=step.premises[:k]) for k in (0, 1, 2)]
    malformed += [step._replace(premises=(cell,) + step.premises[1:])
                  for cell in ((x,), (x, y, z), (13, y), (x, -1), (99, 99))]
    malformed.append(step._replace(cell=unknown))
    for bad in malformed:
        with pytest.raises(ReplayError):
            replay_trace(3, 1, out.trace[:cut] + (bad,))
        assert _verdict(ref.verify_step, bad) != "accepted", bad
    # the engine emits no bookend, strong elasticity, distributivity or
    # mediality step, and the replay accepts only the rules the engine emits
    for rule in ("bookend", "strong-elasticity", "mediality", "left-distributivity",
                 "right-distributivity"):
        relabelled = out.trace[cut]._replace(rule=rule)
        with pytest.raises(ReplayError, match="unknown rule"):
            replay_trace(3, 1, out.trace[:cut] + (relabelled,))
    # an assumption of a value outside the table, and a conflict claiming
    # no candidate for a known cell, were accepted
    with pytest.raises(ReplayError):
        replay_trace(1, 1, [Step("assume", (0, 1), 5, ())])
    with pytest.raises(ReplayError):
        replay_trace(1, 2, complete_qn(1, 2).trace, Conflict(
            "cell-no-candidate", "latin-cell", (0, 0), -1, ()))


def _assumed(cells):
    """A trace of assume steps placing each ((r, c), v) of cells."""
    return tuple(Step("assume", cell, v, ()) for cell, v in cells)


def _no_candidate(cells):
    """A cell-no-candidate conflict at (0, 0) citing every cell of cells."""
    return Conflict("cell-no-candidate", "latin-cell", (0, 0), -1, tuple(cells))


@pytest.mark.parametrize("cells, conflict", [
    # row 0 holds every value, so its cells rule out every value at (0, 0),
    # which is one of them
    ([((0, c), c) for c in range(5)], _no_candidate((0, c) for c in range(5))),
    # the same down column 0
    ([((r, 0), r) for r in range(5)], _no_candidate((r, 0) for r in range(5))),
    # and across row 0 and column 0: values 0, 1 and 4 in the row, 2 and 3
    # in the column
    ([((0, 0), 0), ((0, 1), 1), ((0, 2), 4), ((1, 0), 2), ((2, 0), 3)],
     _no_candidate([(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)])),
])
def test_latin_rule_over_a_placed_pair_refused(cells, conflict):
    """Both replays refuse a cell-no-candidate conflict at a cell already
    placed, though its premises rule out every value there; the reference
    replay accepted each of these."""
    trace = _assumed(cells)
    replay_trace(1, 1, trace)
    with pytest.raises(ReplayError, match="already placed"):
        replay_trace(1, 1, trace, conflict)
    ref = reference_replay.Replay(1, 1)
    for step in trace:
        ref.verify_step(step)
        ref.apply_step(step)
    with pytest.raises(ReplayError, match="already placed"):
        ref.verify_conflict(conflict)


# latin singles over a cell, a row or a column, and latin conflicts over a
# row or a column, each justified under its rule: the engine places no
# latin single and runs no row or column view, so both replays refuse them
# as unknown, whether as a step or as a conflict
_ROW_COL_LATIN = [
    # value 4 has one place left in row 0
    ([((0, c), c) for c in range(4)],
     Step("latin-row-single", (0, 4), 4, tuple((0, c) for c in range(4)))),
    # value 4 has one place left in column 0
    ([((r, 0), r) for r in range(4)],
     Step("latin-col-single", (4, 0), 4, tuple((r, 0) for r in range(4)))),
    # value 4 has no place left in row 0: column 4 holds it
    ([((0, c), c) for c in range(4)] + [((1, 4), 4)],
     Conflict("row-value-impossible", "latin-row", (0, -1), 4,
              tuple((0, c) for c in range(4)) + ((1, 4),))),
    # value 4 has no place left in column 0: row 4 holds it
    ([((r, 0), r) for r in range(4)] + [((4, 1), 4)],
     Conflict("col-value-impossible", "latin-col", (-1, 0), 4,
              tuple((r, 0) for r in range(4)) + ((4, 1),))),
    # cell (0, 4) has one candidate left, 4: row 0 holds the others
    ([((0, c), c) for c in range(4)],
     Step("latin-cell-single", (0, 4), 4, tuple((0, c) for c in range(4)))),
]


@pytest.mark.parametrize("cells, item", _ROW_COL_LATIN)
def test_row_and_column_latin_refused(cells, item):
    trace = _assumed(cells)
    replay_trace(1, 1, trace)
    for rp in (_Replay(1, 1), reference_replay.Replay(1, 1)):
        for step in trace:
            rp.verify_step(step)
            rp.apply_step(step)
        verify = rp.verify_conflict if isinstance(item, Conflict) else rp.verify_step
        with pytest.raises(ReplayError, match="unknown"):
            verify(item)
    tail = (item,) if isinstance(item, Step) else ()
    with pytest.raises(ReplayError, match="unknown"):
        replay_trace(1, 1, trace + tail, None if tail else item)


def test_reordered_alterability_premises_refused():
    """Both replays compare an alterability step's first three premises by
    position (the two products, then the copied cell), so the same
    premises in any other order are refused, but for the two products
    swapped: x*y = z*w read as z*w = x*y forces the same two cells equal,
    so that order is the instance (z, w, x, y) and both replays accept
    it."""
    trace = complete_qn(3, 1).trace
    cut = next(i for i, step in enumerate(trace) if step.rule == "alterability")
    step = trace[cut]
    replay_trace(3, 1, trace[:cut + 1])
    ref = reference_replay.Replay(3, 1)
    for earlier in trace[:cut]:
        ref.verify_step(earlier)
        ref.apply_step(earlier)
    ref.verify_step(step)
    first, second, copied = step.premises
    swapped = step._replace(premises=(second, first, copied))
    replay_trace(3, 1, trace[:cut] + (swapped,))
    ref.verify_step(swapped)
    for order in itertools.permutations(step.premises):
        if order in (step.premises, swapped.premises):
            continue
        reordered = step._replace(premises=order)
        with pytest.raises(ReplayError):
            replay_trace(3, 1, trace[:cut] + (reordered,))
        with pytest.raises(ReplayError):
            ref.verify_step(reordered)


def test_bool_premise_cell_refused():
    """A bool indexes the table like 0 or 1 and equals it, so a premise
    cell (True, 3) reads the known cell (1, 3).  Both replays accepted step
    79 of complete_qn(3, 1) with the 1s of its premise cells replaced by
    True, in one premise or in all; both refuse a bool in a premise as in
    a step's cell or value."""
    trace = complete_qn(3, 1).trace
    cut = 79
    step = trace[cut]
    assert step.premises == ((1, 3), (12, 10), (10, 1))
    replay_trace(3, 1, trace[:cut + 1])
    ref = reference_replay.Replay(3, 1)
    for earlier in trace[:cut]:
        ref.verify_step(earlier)
        ref.apply_step(earlier)
    ref.verify_step(step)
    as_bool = tuple(tuple(True if x == 1 else x for x in cell) for cell in step.premises)
    for i in (0, 2, None):
        premises = as_bool if i is None else (
            step.premises[:i] + (as_bool[i],) + step.premises[i + 1:])
        assert premises == step.premises
        bad = step._replace(premises=premises)
        with pytest.raises(ReplayError, match="premise"):
            replay_trace(3, 1, trace[:cut] + (bad,))
        with pytest.raises(ReplayError, match="not an int"):
            ref.verify_step(bad)


@pytest.mark.parametrize("field, new", [
    ("cell", (1,)), ("cell", None), ("value", "x"), ("rule", None),
])
def test_malformed_step_raises_replay_error(field, new):
    # these raised ValueError, TypeError, TypeError and AttributeError
    trace = complete_qn(2, 1).trace
    bad = trace[-1]._replace(**{field: new})
    with pytest.raises(ReplayError):
        replay_trace(2, 1, trace[:-1] + (bad,))


def test_malformed_conflict_raises_replay_error():
    """verify_conflict refuses a conflict that is not a Conflict record,
    and one whose cell holds a bool, which would index row 1 like 1: with
    the row's four values and column 0's one cited, the latin scan's
    conflict at (1, 0) is justified, and at (True, 0) it is refused."""
    trace = _assumed([((1, c), c) for c in range(1, 5)] + [((2, 0), 0)])
    conflict = _no_candidate(step.cell for step in trace)._replace(cell=(1, 0))
    replay_trace(1, 1, trace, conflict)
    rp = _Replay(1, 1)
    for step in trace:
        rp.verify_step(step)
        rp.apply_step(step)
    for bad in (tuple(conflict), None, conflict._replace(cell=(True, 0))):
        with pytest.raises(ReplayError, match="malformed conflict"):
            rp.verify_conflict(bad)
    rp.verify_conflict(conflict)


def test_every_printed_premise_is_needed():
    """Dropping any one premise from any step or conflict the engine made
    is refused by both replays: each premise names a cell the rule read,
    or the one witness that rules out a value or position."""
    outcomes = [(3, 1, complete_qn(3, 1).trace, None)]
    for blocks, choice in ((4, 1), (5, 2), (6, 1), (6, 2), (6, 4)):
        with untrimmed():
            leaf = refute_case(blocks, choice).leaves[0]
        outcomes.append((blocks, choice, leaf.trace, leaf.conflict))
    rules, kinds = set(), set()
    for blocks, choice, trace, conflict in outcomes:
        replays = (_Replay(blocks, choice), reference_replay.Replay(blocks, choice))
        for item in trace + ((conflict,) if conflict else ()):
            for i in range(len(item.premises)):
                dropped = item._replace(premises=item.premises[:i] + item.premises[i + 1:])
                for rp in replays:
                    verify = rp.verify_conflict if item is conflict else rp.verify_step
                    with pytest.raises(ReplayError):
                        verify(dropped)
            if item is conflict:
                kinds.add(conflict.kind)
                continue
            rules.add(item.rule)
            for rp in replays:
                rp.verify_step(item)
                rp.apply_step(item)
    assert rules >= {"alterability"}
    assert kinds == {"cell-mismatch", "cell-no-candidate", "col-duplicate", "row-duplicate"}
