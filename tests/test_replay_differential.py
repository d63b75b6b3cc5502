"""The replay auditor against its reference (tests/reference_replay.py):
every trace of complete_qn and of refute_case for 1..7 blocks, then one
random mutation of every step and forty of every conflict.  The leaves of
refute_case are taken whole, not trimmed to the cones of their conflicts,
so that every step of every branch is mutated.

On well-formed input both replays must accept and reject the same steps
and conflicts.  Malformed input (a cell or value out of range, or a
cell-no-candidate conflict at a known cell) must be rejected with
ReplayError, where the reference may crash with IndexError or ValueError
or accept by wrapping a negative index."""

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
    return rng.randrange(n) if rng.random() < 0.9 else rng.choice((-1, n, 99))


def _mutate(rng, n, item, bindings):
    """item with one of its value, cell, rule, premises or binding
    replaced, or for a conflict also its kind."""
    fields = ["value", "cell", "rule", "premises", "binding"]
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
            # one premise's value or cell replaced
            i = rng.randrange(len(new))
            cell, v = new[i]
            new[i] = ((cell, _coordinate(rng, n)) if rng.random() < 0.5
                      else ((_coordinate(rng, n), _coordinate(rng, n)), v))
        else:
            new = [((_coordinate(rng, n), _coordinate(rng, n)), _coordinate(rng, n))
                   for _ in range(rng.randrange(4))]
        new = tuple(new)
    elif field == "binding":
        if rng.random() < 0.5:
            new = rng.choice(bindings)
        else:
            new = tuple(_coordinate(rng, n) for _ in range(rng.randrange(6)))
    else:
        new = rng.choice(KINDS)
    return item._replace(**{field: new})


def _in_range(n, *coords) -> bool:
    return all(0 <= x < n for x in coords)


def _malformed_step(n, step) -> bool:
    return not _in_range(n, *step.cell, step.value)


def _malformed_conflict(n, conflict, table) -> bool:
    (r, c), v = conflict.cell, conflict.value
    if conflict.kind == "cell-no-candidate":
        return not _in_range(n, r, c) or table[r][c] != -1
    if conflict.kind == "row-value-impossible":
        return not _in_range(n, r, v)
    if conflict.kind == "col-value-impossible":
        return not _in_range(n, c, v)
    return not _in_range(n, r, c, v)


def _expected(reference_verdict, malformed) -> str:
    if malformed or reference_verdict == "crashed":
        return "rejected"
    return reference_verdict


def test_replay_matches_reference():
    rng = random.Random(20261018)
    counts = {"accepted": 0, "rejected": 0}
    traces = list(_traces(7))
    bindings = sorted({step.binding for _, _, trace, _ in traces for step in trace})
    for blocks, choice, trace, conflict in traces:
        n = 4 * blocks + 1
        ref = reference_replay.Replay(blocks, choice)
        new = _Replay(blocks, choice)
        for step in trace:
            bad = _mutate(rng, n, step, bindings)
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
            bad = _mutate(rng, n, conflict, bindings)
            want = _verdict(ref.verify_conflict, bad)
            got = _verdict(new.verify_conflict, bad)
            assert got == _expected(want, _malformed_conflict(n, bad, ref.val)), (
                blocks, choice, bad, want)
            counts[got] += 1
    assert sum(counts.values()) >= 20000
    assert counts["accepted"] >= 1000, counts


def test_replay_rejects_malformed_input():
    # each of these raised IndexError or ValueError before the replay
    # checked ranges and binding lengths
    with pytest.raises(ReplayError):
        replay_trace(1, 1, [Step("latin-row-single", (99, 0), 0, (), ())])
    with pytest.raises(ReplayError):
        replay_trace(1, 1, [], Conflict(
            "row-value-impossible", "latin-row", (7, -1), 0, -1, (), (7, 0)))
    out = complete_qn(3, 1)
    cut = next(i for i, step in enumerate(out.trace) if step.rule == "alterability")
    shortened = out.trace[cut]._replace(binding=out.trace[cut].binding[:2])
    with pytest.raises(ReplayError, match="wrong length"):
        replay_trace(3, 1, out.trace[:cut] + (shortened,))
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
        replay_trace(1, 1, [Step("assume", (0, 1), 5, (), (1,))])
    with pytest.raises(ReplayError):
        replay_trace(1, 2, complete_qn(1, 2).trace, Conflict(
            "cell-no-candidate", "latin-cell", (0, 0), -1, -1, (), (0, 0)))


def _assumed(cells):
    """A trace of assume steps placing each ((r, c), v) of cells."""
    return tuple(Step("assume", cell, v, (), (1,)) for cell, v in cells)


@pytest.mark.parametrize("cells, conflict", [
    # a cell single at a known cell, citing every other value, its own
    # included: the open values there are only the one it claims
    ([((0, c), c) for c in range(4)],
     Conflict("cell-mismatch", "latin-cell-single", (0, 0), 4, 0,
              tuple(((0, c), c) for c in range(4)), (0, 0))),
    # a row single for a value its row already holds
    ([((0, c), c) for c in range(4)],
     Conflict("row-duplicate", "latin-row-single", (0, 4), 0, -1,
              tuple(((0, c), c) for c in range(4)), (0, 0))),
    # a column single at a known cell, for a value its column already holds
    ([((r, 0), r) for r in range(5)],
     Conflict("cell-mismatch", "latin-col-single", (0, 0), 1, 0,
              tuple(((r, 0), r) for r in range(5)), (0, 1))),
])
def test_latin_rule_over_a_placed_pair_refused(cells, conflict):
    """A latin step is refused where its view's pair is already placed;
    without that check the auditor accepted each of these conflicts,
    whose deduction is checked as a step but never applied."""
    trace = _assumed(cells)
    replay_trace(1, 1, trace)
    with pytest.raises(ReplayError, match="already placed"):
        replay_trace(1, 1, trace, conflict)
    ref = reference_replay.Replay(1, 1)
    for step in trace:
        ref.verify_step(step)
        ref.apply_step(step)
    with pytest.raises(ReplayError):
        ref.verify_conflict(conflict)


def test_reordered_alterability_premises_refused():
    """Both replays compare an alterability step's first three premises by
    position (the two products, then the copied cell), so the same
    premises in any other order are refused."""
    trace = complete_qn(3, 1).trace
    cut = next(i for i, step in enumerate(trace) if step.rule == "alterability")
    step = trace[cut]
    replay_trace(3, 1, trace[:cut + 1])
    ref = reference_replay.Replay(3, 1)
    for earlier in trace[:cut]:
        ref.verify_step(earlier)
        ref.apply_step(earlier)
    ref.verify_step(step)
    for order in itertools.permutations(step.premises):
        if order == step.premises:
            continue
        reordered = step._replace(premises=order)
        with pytest.raises(ReplayError):
            replay_trace(3, 1, trace[:cut] + (reordered,))
        with pytest.raises(ReplayError):
            ref.verify_step(reordered)


@pytest.mark.parametrize("field, new", [
    ("cell", (1,)), ("cell", None), ("value", "x"), ("rule", None),
])
def test_malformed_step_raises_replay_error(field, new):
    # these raised ValueError, TypeError, TypeError and AttributeError
    trace = complete_qn(2, 1).trace
    bad = trace[-1]._replace(**{field: new})
    with pytest.raises(ReplayError):
        replay_trace(2, 1, trace[:-1] + (bad,))


def test_every_printed_premise_is_needed():
    """Dropping any one premise from any step or conflict the engine made
    is refused by both replays: each premise names a cell the rule read,
    or the one witness that rules out a value or position."""
    outcomes = [(3, 1, complete_qn(3, 1).trace, None)]
    for blocks, choice in ((4, 1), (5, 2), (6, 1), (6, 4)):
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
    assert rules >= {"alterability", "latin-cell-single", "latin-row-single",
                     "latin-col-single"}
    assert kinds == {"cell-mismatch", "cell-no-candidate", "col-duplicate", "row-duplicate"}
