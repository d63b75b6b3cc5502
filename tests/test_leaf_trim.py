"""refute_case trims each leaf's trace to the cone of its conflict: the
seed steps, whole, then the steps the conflict rests on, followed back
through their premises.  For every leaf at 2-9 blocks and every choice,
the trimmed trace must be a subsequence, by identity, of the branch's
whole trace, start with the seed steps, replay under replay_trace and the
reference replay, and need every non-seed step it keeps."""

from operator import is_

import pytest

from quadlat import audit, deduction
from quadlat.audit import _Replay
from quadlat.deduction import refute_case, replay_trace
from quadlat.steps import ReplayError, seed_steps

import reference_replay
from test_replay_seeded import _whole

# a conflict of these kinds verifies its deduction as a step
OWN_STEP = ("cell-mismatch", "row-duplicate", "col-duplicate")


@pytest.fixture(scope="module")
def leaves():
    """(blocks, choice, whole trace, trimmed trace, conflict) for every leaf
    of refute_case at 2-9 blocks, both traces from the same run.  That is
    32 (blocks, choice), as many seed lists as steps.seed_steps caches, so
    every leaf's seed steps are still the cached objects when the tests
    below compare them by identity.  The two leaves at 1 block are seed
    clashes with no step to trim, like some at 2-4 blocks."""
    cone = deduction._conflict_cone
    found = []
    with pytest.MonkeyPatch.context() as mp:
        for blocks in range(2, 10):
            for choice in (1, 2, 3, 4):
                seen = []

                def both(st):
                    kept = cone(st)
                    seen.append((tuple(st.trace), kept, st.conflict))
                    return kept

                mp.setattr(deduction, "_conflict_cone", both)
                case = refute_case(blocks, choice)
                if case.completed is not None:
                    # the search stops at a completion, which keeps every
                    # cell, and drops the leaves found before it
                    assert len(case.completed.trace) == (4 * blocks + 1) ** 2
                    continue
                assert len(case.leaves) == len(seen)
                for leaf, (whole, kept, conflict) in zip(case.leaves, seen):
                    assert leaf.trace is kept and leaf.conflict is conflict
                    found.append((blocks, choice, whole, kept, conflict))
    return found


def test_trimmed_trace_is_a_subsequence(leaves):
    kept_steps = whole_steps = 0
    for blocks, choice, whole, kept, conflict in leaves:
        rest = iter(whole)
        assert all(any(step is s for s in rest) for step in kept), (blocks, choice)
        k = min(len(seed_steps(blocks, choice)), len(whole))
        kept_steps += len(kept) - k
        whole_steps += len(whole) - k
    assert len(leaves) >= 100
    # 1,545 of 27,667 non-seed steps are kept
    assert kept_steps * 5 < whole_steps, (kept_steps, whole_steps)


def test_trimmed_trace_starts_with_the_seed_steps(leaves):
    seed_conflicts = 0
    for blocks, choice, whole, kept, conflict in leaves:
        seeds = seed_steps(blocks, choice)
        if conflict.rule.startswith("seed:"):
            # the seeds clash before the last one is placed: nothing to trim
            assert kept == whole and len(kept) < len(seeds)
            assert all(map(is_, kept, seeds))
            seed_conflicts += 1
            continue
        assert len(kept) > len(seeds) and all(map(is_, seeds, kept)), (blocks, choice)
        assert not any(step.rule.startswith("seed:") for step in kept[len(seeds):])
    assert seed_conflicts == 6


def test_trimmed_trace_replays(leaves):
    for blocks, choice, _, kept, conflict in leaves:
        replay_trace(blocks, choice, kept, conflict)
        ref = reference_replay.Replay(blocks, choice)
        assert _whole(ref, kept, conflict) == "accepted", (blocks, choice)


def test_every_kept_step_is_needed(leaves):
    dropped = 0
    for blocks, choice, _, kept, conflict in leaves:
        k = min(len(seed_steps(blocks, choice)), len(kept))
        for i in range(k, len(kept)):
            with pytest.raises(ReplayError):
                replay_trace(blocks, choice, kept[:i] + kept[i + 1:], conflict)
            dropped += 1
    assert dropped >= 1500


def test_trimmed_trace_replays_from_the_seeded_table(leaves, monkeypatch):
    """replay_trace still verifies only the non-seed steps of a trimmed
    leaf, from its verified seed table."""
    calls = []
    verify = _Replay.verify_step

    def counted(self, step):
        calls.append(step)
        return verify(self, step)

    monkeypatch.setattr(_Replay, "verify_step", counted)
    for blocks, choice, _, kept, conflict in leaves:
        seeds, seeded = audit._seeded(blocks, choice)
        calls.clear()
        replay_trace(blocks, choice, kept, conflict)
        skipped = len(seeds) if seeded is not None else 0
        assert len(calls) == len(kept) - skipped + (conflict.kind in OWN_STEP), (
            blocks, choice)
