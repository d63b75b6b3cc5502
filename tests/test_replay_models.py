"""Both replays against models: no refutation is accepted in a case that
has a completion.

test_replay_matches_reference compares quadlat.audit._Replay with
tests/reference_replay.py, so a hole both share passes it.  A completed
table T of a case is a model: every step replayed over assumptions that
agree with T must agree with T, and no conflict may stand, whatever rule
code either replay runs.  For every (blocks, choice) up to 9 blocks that
refute_case completes, the completion's trace is replayed step by step;
at each step a seeded RNG mutates the step, and builds conflicts at its
cell, some of them duplicates that cite a true witness, then mutates
those.  Both replays must give each the same verdict, every accepted step
that is not an assumption must hold T's value, and no conflict may be
accepted.
"""

import random

from quadlat.audit import _Replay
from quadlat.deduction import complete_qn, refute_case, replay_trace
from quadlat.steps import Conflict, ReplayError

import reference_replay
from test_replay_differential import KINDS, RULES, _mutate, _try_step, _verdict

MAX_BLOCKS = 9


def _models():
    """(blocks, choice, completion) for every completable case."""
    for blocks in range(1, MAX_BLOCKS + 1):
        for choice in (1, 2, 3, 4):
            case = refute_case(blocks, choice)
            if case.completed is not None:
                yield blocks, choice, case.completed


def _conflicts(rng, rp, n, step):
    """Conflicts at step's cell before it is placed: the step as a clash,
    and duplicates of a value its row or column already holds, each
    citing the step's premises and then the cell of that value as its
    witness, under a random rule and kind; then one mutant of each."""
    r, c = step.cell
    out = [Conflict("cell-mismatch", step.rule, step.cell, step.value, step.premises)]
    for axis, cells in ((0, [(r, j) for j in range(n)]), (1, [(i, c) for i in range(n)])):
        known = [cell for cell in cells if rp.rows[cell[0]][cell[1]] != -1]
        if not known:
            continue
        witness = rng.choice(known)
        value = rp.rows[witness[0]][witness[1]]
        kind = rng.choice((("row-duplicate", "col-duplicate")[axis],) + KINDS)
        rule = rng.choice(RULES + (step.rule,))
        premises = step.premises if rng.random() < 0.5 else ()
        out.append(Conflict(kind, rule, step.cell, value, premises + (witness,)))
    return out + [_mutate(rng, n, conflict) for conflict in out]


def test_no_refutation_in_a_case_with_a_model():
    rng = random.Random(20261020)
    counts = {"steps": 0, "accepted as T's value": 0, "accepted assumptions": 0,
              "conflicts": 0}
    cases = 0
    for blocks, choice, completed in _models():
        cases += 1
        n = 4 * blocks + 1
        model = completed.table.entries
        new, ref = _Replay(blocks, choice), reference_replay.Replay(blocks, choice)
        for step in completed.trace:
            bad = _mutate(rng, n, step)
            verdict = _try_step(new, bad)
            assert verdict == _try_step(ref, bad), (blocks, choice, bad)
            counts["steps"] += 1
            if verdict == "accepted":
                (r, c), v = bad.cell, bad.value
                assert bad.rule == "assume" or model[r][c] == v, (blocks, choice, bad)
                counts["accepted assumptions" if bad.rule == "assume"
                       else "accepted as T's value"] += 1
            for conflict in _conflicts(rng, new, n, step):
                verdicts = {_verdict(rp.verify_conflict, conflict) for rp in (new, ref)}
                assert verdicts <= {"rejected", "crashed"}, (blocks, choice, conflict)
                counts["conflicts"] += 1
            for rp in (new, ref):
                rp.verify_step(step)
                rp.apply_step(step)
    assert cases == 11
    assert counts == {"steps": 5467, "accepted as T's value": 231, "accepted assumptions": 15,
                      "conflicts": 31958}, counts


def _refused(blocks, choice, trace, conflict=None) -> bool:
    """Both replays refuse the trace and conflict."""
    try:
        replay_trace(blocks, choice, trace, conflict)
        return False
    except ReplayError:
        pass
    ref = reference_replay.Replay(blocks, choice)
    try:
        for step in trace:
            ref.verify_step(step)
            ref.apply_step(step)
        if conflict is not None:
            ref.verify_conflict(conflict)
    except ReplayError:
        return True
    return False


def test_replays_refuse_an_assumption_conflict_and_cited_seed_premises():
    # complete_qn(1, 4) completes, so no conflict after its seeds may stand;
    # one ruled assume with a true witness refutes only its assumption
    seeds = complete_qn(1, 4).trace[:14]
    assert all(step.rule.startswith("seed:") for step in seeds)
    assert _refused(1, 4, seeds, Conflict("row-duplicate", "assume", (0, 2), 4, ((0, 1),)))
    # a seed step, and an assumption, that cite premises
    trace = complete_qn(2, 1).trace
    i = next(i for i, step in enumerate(trace) if step.cell == (5, 7))
    assert trace[i].rule == "seed:centre-product" and trace[i].value == 0
    assert _refused(2, 1, trace[:i] + (trace[i]._replace(premises=((0, 0), (0, 0))),))
    assert _refused(2, 1, trace[:i] + (trace[i]._replace(rule="assume", premises=((0, 0),)),))
    assert not _refused(2, 1, trace[:i] + (trace[i]._replace(rule="assume"),))
