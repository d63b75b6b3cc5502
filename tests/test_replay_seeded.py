"""replay_trace's seeded start against the step-by-step replays.

replay_trace starts from a copy of a table on which the seed steps of
(blocks, choice) were verified once, when a trace begins with those very
step objects, as the engine's traces do; every other trace replays from an
empty table.  On engine traces whose seed prefix was tampered with, on
rebuilt traces and on seed conflicts it must give the verdict of
tests/reference_replay.py and of quadlat.audit._Replay run step by step.

agree_with_reference(first, last) replays every leaf and completion of
refute_case through both replays; tier-1 runs it at 1-12 blocks, and CI
at 13-30 blocks, every count that ENGINE_DIGEST_13_TO_16 and
ENGINE_DIGEST_17_TO_30 pin.
"""

import random

import pytest

from quadlat import audit
from quadlat.audit import _Replay
from quadlat.deduction import Contradiction, complete_qn, refute_case, replay_trace
from quadlat.steps import ReplayError, Step, seed_steps

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
    # a bool equals the int 0 or 1, so these steps equal the seeds they replace
    b = rng.choice([h for h in range(k) if trace[h].cell[0] in (0, 1)])
    r, c = trace[b].cell
    yield "bool cell", trace[:b] + (trace[b]._replace(cell=(bool(r), c)),) + trace[b + 1:]
    b = rng.choice([h for h in range(k) if trace[h].value in (0, 1)])
    yield "bool value", trace[:b] + (trace[b]._replace(value=bool(trace[b].value)),) \
        + trace[b + 1:]
    yield "swapped", tuple(swapped)
    yield "dropped", trace[:i] + trace[i + 1:]
    yield "dropped last", trace[:k - 1] + trace[k:]
    known = trace[j - 1].cell, trace[j - 1].value
    yield "extra premise", trace[:j] + (trace[j]._replace(premises=(known,)),) + trace[j + 1:]
    yield "unknown premise", trace[:i] + (step._replace(premises=((trace[j].cell, 0),)),) \
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
        k = len(seed_steps(blocks, choice))
        assert all(a is b for a, b in zip(trace, seed_steps(blocks, choice)))
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
    # seed conflict, and no seeded table exists for them
    found = 0
    for blocks in range(1, 5):
        for choice in (1, 2, 3, 4):
            out = complete_qn(blocks, choice)
            if not (isinstance(out, Contradiction) and out.conflict.rule.startswith("seed:")):
                continue
            found += 1
            assert audit._seeded(blocks, choice)[1] is None
            assert _verdicts(blocks, choice, out.trace, out.conflict) == ("accepted",) * 3
            wrong = out.conflict._replace(value=(out.conflict.value + 1) % (4 * blocks + 1))
            fast, slow, ref = _verdicts(blocks, choice, out.trace, wrong)
            assert fast == slow == ref
    assert found == 8


def test_seeded_start_skips_the_seed_prefix(monkeypatch):
    """The seed prefix is verified once per (blocks, choice); each trace
    that starts with it has only its other steps verified."""
    calls = []
    verify = _Replay.verify_step

    def counted(self, step):
        calls.append(step)
        return verify(self, step)

    monkeypatch.setattr(_Replay, "verify_step", counted)
    first, second = refute_case(6, 1).leaves[:2]
    k = len(seed_steps(6, 1))
    # a conflict of these kinds verifies its deduction as a step
    own = [leaf.conflict.kind in ("cell-mismatch", "row-duplicate", "col-duplicate")
           for leaf in (first, second)]
    audit._seeded.cache_clear()
    replay_trace(6, 1, first.trace, first.conflict)
    assert len(calls) == len(first.trace) + own[0]
    calls.clear()
    replay_trace(6, 1, second.trace, second.conflict)
    assert len(calls) == len(second.trace) - k + own[1]
    calls.clear()
    # equal steps that are other objects replay from an empty table
    replay_trace(6, 1, tuple(Step(*s) for s in second.trace), second.conflict)
    assert len(calls) == len(second.trace) + own[1]


def test_block_count_must_be_an_int():
    # the caches are typed, so 5.0 blocks fail as they do on an empty
    # table instead of being served the seeded table of 5
    leaf = refute_case(5, 1).leaves[0]
    replay_trace(5, 1, leaf.trace, leaf.conflict)
    with pytest.raises(TypeError):
        replay_trace(5.0, 1, leaf.trace, leaf.conflict)


def test_agree_with_reference_small():
    # 433 traces: every block count the blocks benchmark runs
    assert agree_with_reference(1, 12) >= 400


@pytest.mark.parametrize("blocks, choice", [(5, 1), (7, 2)])
def test_seeded_table_is_the_replayed_seeds(blocks, choice):
    seeds, seeded = audit._seeded(blocks, choice)
    assert seeds is seed_steps(blocks, choice)
    rp = _Replay(blocks, choice)
    for step in seeds:
        rp.verify_step(step)
        rp.apply_step(step)
    twin = seeded.copy()
    assert vars(twin) == vars(rp)
    # the copy is a table of its own
    for lines in (twin.rows, [twin.row_vals, twin.col_vals]):
        lines[0][0] = -2
    assert vars(seeded) == vars(rp)
