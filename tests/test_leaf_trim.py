"""refute_case trims each leaf's trace to the cone of its conflict: the
steps the conflict rests on, followed back through their premises to the
seeds and assumptions.  For every leaf at 2-10 blocks and every choice,
the trimmed trace must be a subsequence, by identity, of the branch's
whole trace, replay from an empty table under replay_trace and the
reference replay, and need every step it keeps, seeds included."""

import pytest

from quadlat import deduction
from quadlat.deduction import refute_case, replay_trace
from quadlat.steps import ReplayError

import reference_replay
from test_replay_seeded import _whole


@pytest.fixture(scope="module")
def leaves():
    """(blocks, choice, whole trace, trimmed trace, conflict) for every leaf
    of refute_case at 2-10 blocks, both traces from the same run."""
    cone = deduction._conflict_cone
    found = []
    with pytest.MonkeyPatch.context() as mp:
        for blocks in range(2, 11):
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
        kept_steps += len(kept)
        whole_steps += len(whole)
    assert len(leaves) >= 100
    # 6,872 of 101,493 steps are kept
    assert kept_steps * 10 < whole_steps, (kept_steps, whole_steps)


def test_trimmed_trace_replays(leaves):
    for blocks, choice, _, kept, conflict in leaves:
        replay_trace(blocks, choice, kept, conflict)
        ref = reference_replay.Replay(blocks, choice)
        assert _whole(ref, kept, conflict) == "accepted", (blocks, choice)


def test_every_kept_step_is_needed(leaves):
    # seed steps too: a seed the cone does not cite is not kept
    dropped = seeds = 0
    for blocks, choice, _, kept, conflict in leaves:
        for i in range(len(kept)):
            with pytest.raises(ReplayError):
                replay_trace(blocks, choice, kept[:i] + kept[i + 1:], conflict)
            dropped += 1
            seeds += kept[i].rule.startswith("seed:")
    # 6,872 steps, 4,372 of them seeds
    assert dropped >= 4000 and seeds >= 2400, (dropped, seeds)
