"""replay_trace on the seed steps of a trace, against the reference replay.

Every trace replays from an empty table, its seed steps verified against
the seed list of (blocks, choice) like any other step.  On engine traces
whose seed prefix was tampered with, on rebuilt traces and on seed
conflicts, replay_trace must give the verdict of tests/reference_replay.py
and of quadlat.audit._Replay run step by step.

agree_with_reference(first, last) replays every leaf and completion of
refute_case through both replays; tier-1 runs it at 1-12 blocks, and CI
at 13-30 blocks, every count that ENGINE_DIGEST_13_TO_16 and
ENGINE_DIGEST_17_TO_30 pin.
"""

import random

import pytest

from quadlat.audit import _Replay
from quadlat.deduction import Contradiction, complete_qn, refute_case, replay_trace
from quadlat.steps import ReplayError, Step

import reference_replay


def _whole(replay, trace, conflict) -> str:
    """The verdict of a replay object run over a whole trace and conflict."""
    try:
        for step in trace:
            replay.verify_step(step)
            replay.apply_step(step)
        if conflict is not None:
            replay.verify_conflict(conflict)
    except ReplayError:
        return "rejected"
    return "accepted"


def _verdicts(blocks, choice, trace, conflict) -> tuple:
    """(replay_trace, _Replay step by step, the reference) on one trace."""
    try:
        replay_trace(blocks, choice, trace, conflict)
        fast = "accepted"
    except ReplayError:
        fast = "rejected"
    return (fast, _whole(_Replay(blocks, choice), trace, conflict),
            _whole(reference_replay.Replay(blocks, choice), trace, conflict))


def agree_with_reference(first: int, last: int) -> int:
    """Replay every leaf and completion of refute_case for first..last
    blocks through replay_trace and the reference, requiring both to
    accept; returns the number of traces."""
    count = 0
    for blocks in range(first, last + 1):
        for choice in (1, 2, 3, 4):
            case = refute_case(blocks, choice)
            outcomes = [(leaf.trace, leaf.conflict) for leaf in case.leaves]
            if case.completed is not None:
                outcomes.append((case.completed.trace, None))
            for trace, conflict in outcomes:
                replay_trace(blocks, choice, trace, conflict)
                ref = reference_replay.Replay(blocks, choice)
                assert _whole(ref, trace, conflict) == "accepted", (blocks, choice)
                count += 1
    return count


def _tampered(rng, trace, k, n):
    """Copies of trace with its seed prefix trace[:k] tampered, by name."""
    i, j = sorted(rng.sample(range(k), 2))
    step = trace[i]
    swapped = list(trace)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    # a bool equals the int 0 or 1, so these steps equal the seeds they
    # replace; a trimmed leaf may keep no seed in row 0 or 1, or of value 0
    # or 1
    rows = [h for h in range(k) if trace[h].cell[0] in (0, 1)]
    if rows:
        b = rng.choice(rows)
        r, c = trace[b].cell
        yield "bool cell", trace[:b] + (trace[b]._replace(cell=(bool(r), c)),) + trace[b + 1:]
    values = [h for h in range(k) if trace[h].value in (0, 1)]
    if values:
        b = rng.choice(values)
        yield "bool value", trace[:b] + (trace[b]._replace(value=bool(trace[b].value)),) \
            + trace[b + 1:]
    yield "swapped", tuple(swapped)
    yield "dropped", trace[:i] + trace[i + 1:]
    yield "dropped last", trace[:k - 1] + trace[k:]
    known = trace[j - 1].cell
    yield "extra premise", trace[:j] + (trace[j]._replace(premises=(known,)),) + trace[j + 1:]
    yield "unknown premise", trace[:i] + (step._replace(premises=(trace[j].cell,)),) \
        + trace[i + 1:]
    yield "wrong value", trace[:i] + (step._replace(value=(step.value + 1) % n),) + trace[i + 1:]
    yield "fresh steps", tuple(Step(*s) for s in trace)
    yield "seeds only", trace[:k]
    yield "short", trace[:k - 1]


def _engine_outcomes():
    """(blocks, choice, trace, conflict) for a few engine outcomes."""
    for blocks, choice in ((1, 2), (2, 2), (3, 1), (4, 2)):
        out = complete_qn(blocks, choice)
        yield blocks, choice, out.trace, getattr(out, "conflict", None)
    for blocks, choice in ((5, 1), (5, 2), (6, 3), (7, 4)):
        case = refute_case(blocks, choice)
        for leaf in case.leaves[:3]:
            yield blocks, choice, leaf.trace, leaf.conflict
        if case.completed is not None:
            yield blocks, choice, case.completed.trace, None


# the tamperings whose verdict does not depend on the trace
EXPECTED = {
    "bool cell": "rejected", "bool value": "rejected", "unknown premise": "rejected",
    "wrong value": "rejected", "swapped": "accepted", "fresh steps": "accepted",
    "seeds only": "accepted", "short": "accepted",
}


def test_tampered_seed_prefix_same_verdict():
    rng = random.Random(19)
    tally = {"accepted": 0, "rejected": 0}
    for blocks, choice, trace, conflict in _engine_outcomes():
        # the engine seeds before it deduces, so the seed steps open the trace
        k = sum(step.rule.startswith("seed:") for step in trace)
        assert _verdicts(blocks, choice, trace, conflict) == ("accepted",) * 3
        for name, bad in _tampered(rng, trace, k, 4 * blocks + 1):
            for tail in ((conflict,) if name in ("fresh steps", "swapped") else (None,)):
                fast, slow, ref = _verdicts(blocks, choice, bad, tail)
                assert fast == slow == ref, (blocks, choice, name, fast, slow, ref)
                assert EXPECTED.get(name, fast) == fast, (blocks, choice, name)
                tally[fast] += 1
    assert tally["accepted"] >= 40 and tally["rejected"] >= 40, tally


def test_seed_conflicts_same_verdict():
    # choices whose seeds clash: the trace is seeds only and ends at a
    # seed conflict
    found = 0
    for blocks in range(1, 5):
        for choice in (1, 2, 3, 4):
            out = complete_qn(blocks, choice)
            if not (isinstance(out, Contradiction) and out.conflict.rule.startswith("seed:")):
                continue
            found += 1
            assert _verdicts(blocks, choice, out.trace, out.conflict) == ("accepted",) * 3
            wrong = out.conflict._replace(value=(out.conflict.value + 1) % (4 * blocks + 1))
            fast, slow, ref = _verdicts(blocks, choice, out.trace, wrong)
            assert fast == slow == ref
    assert found == 8


def test_block_count_must_be_an_int():
    # 5.0 blocks are refused, not replayed as 5
    leaf = refute_case(5, 1).leaves[0]
    replay_trace(5, 1, leaf.trace, leaf.conflict)
    with pytest.raises(ValueError, match="blocks must be an int, got 5.0"):
        replay_trace(5.0, 1, leaf.trace, leaf.conflict)


def test_agree_with_reference_small():
    # 433 traces: every block count the blocks benchmark runs
    assert agree_with_reference(1, 12) >= 400
