"""Block structure of quadratical quasigroups.

Starting from two distinct elements a, b, the chain H1 = (a, ab, ba, b),
with each H(t) built from H(t-1) by the recurrence law, partitions the
quasigroup (minus the centre aba) when the quasigroup has block form; the
number of blocks n gives order 4n + 1.

BLOCK_LAWS states the five block laws once, each as a product of two
elements of H(t), H(t-1) or the centre.  seed_assignments reads it for the
deduction engine's seeds, and h_chain reads it to build each block by the
recurrence and to check the other four laws, so the engine and
detect_form cannot disagree on what a block form is.

check_blocks is the one bound on a block count: every function here that
takes one, and through check_case the engine and its auditor, refuses a
count above MAX_BLOCKS before it allocates anything sized by it.
"""

from typing import NamedTuple

from .cayley import MAX_ORDER, CayleyTable, _check_base, is_quadratical
from .errors import SearchCapExceeded, check_int

# The largest block count, 256: a table of order 4*256+1 = cayley.MAX_ORDER.
MAX_BLOCKS = (MAX_ORDER - 1) // 4


def check_blocks(blocks: int) -> None:
    """A ValueError unless blocks is a positive int, then SearchCapExceeded
    above MAX_BLOCKS, so the command line exits 3 instead of filling memory."""
    check_int("blocks", blocks, 1)
    if blocks > MAX_BLOCKS:
        raise SearchCapExceeded(
            f"{blocks} blocks exceed the cap of {MAX_BLOCKS} blocks (order {MAX_ORDER})")


class QnDecomposition(NamedTuple):
    """Base pair, centre and the chain blocks H1..Hn (t1, t2, t3, t4)."""

    base: tuple[int, int]
    center: int
    blocks: tuple[tuple[int, int, int, int], ...]

    def elements(self) -> frozenset[int]:
        out = {self.center}
        for blk in self.blocks:
            out.update(blk)
        return frozenset(out)


# A block (a, ab, ba, b) is a square about the centre aba: in the model on
# the complex plane x*y is the right-angle vertex over the segment xy.  A
# quarter turn about aba moves slot 1 to 2, 2 to 4, 4 to 3 and 3 to 1.
_TURN = (1, 2, 4, 3)


def _turn(k: int, j: int) -> int:
    """Slot k after j quarter turns; j may be negative."""
    return _TURN[(_TURN.index(k) + j) % 4]


# The five block laws, the one statement of block form: each is a product
# x*y = z for every slot k of H(t), the block at step t of the chain.  An
# element is (d, j), slot k of block t + d after j quarter turns, or None,
# the centre aba.  With P = H(t-1) and T the quarter turn:
#
#     block-cycle       H_k * H_T²k = H_Tk
#     centre-product    H_k * H_T⁻¹k = aba
#     block-recurrence  P_k * P_Tk = H_k
#     centre-row        aba * H_k = P_k
#     centre-col        H_k * aba = P_Tk
#
# The first two read H(t) alone and hold from H1 on; the last three tie
# H(t) to H(t-1).  seed_assignments seeds every law; h_chain builds each
# block by the recurrence and checks the other four.
BLOCK_LAWS = {
    "block-cycle": ((0, 0), (0, 2), (0, 1)),
    "centre-product": ((0, 0), (0, -1), None),
    "block-recurrence": ((-1, 0), (-1, 1), (0, 0)),
    "centre-row": (None, (0, 0), (-1, 0)),
    "centre-col": ((0, 0), None, (-1, 1)),
}

# the laws h_chain checks, in the order it checks them, and how it names
# the first that fails
_FAILURES = {
    "block-cycle": "block {} violates the cycle product law",
    "centre-product": "cross products in block {} do not all equal the centre",
    "centre-row": "centre row translation fails at block {}",
    "centre-col": "centre column translation fails at block {}",
}


def _in_view(names):
    """The named laws as (x, y, z) positions of x*y = z, slots 1..4 of each
    law in turn, in a chain's view [aba, *H(t), *H(t-1)], where slot k of
    H(t) sits at k and slot k of H(t-1) at 4 + k."""
    return [tuple(0 if el is None else _turn(k, el[1]) - 4 * el[0] for el in BLOCK_LAWS[name])
            for name in names for k in (1, 2, 3, 4)]


# built once, not on every call of h_chain
_RECURRENCE = _in_view(["block-recurrence"])
_CHECKS = (_in_view(list(_FAILURES)[:2]), _in_view(_FAILURES))


def h_chain(t: CayleyTable, a: int, b: int, depth: int) -> QnDecomposition:
    """Compute H1..H(depth) from base (a, b) by the recurrence law, checking
    each block against the other block laws as it is built; raises
    ValueError naming the first failing check.  Each block's checks read
    only the blocks before it, so a chain stops at its first failing block,
    however deep it was asked to go.  The base and the depth must be
    ints: a bool and a float are refused."""
    _check_base(t, a, b)
    check_int("depth", depth, 1)
    e = t.entries
    center = e[e[a][b]][a]
    blocks = []
    seen: dict[int, int] = {}
    view = [center, a, e[a][b], e[b][a], b, None, None, None, None]
    for idx in range(1, depth + 1):
        if idx > 1:
            view[5:] = view[1:5]
            view[1:5] = [e[view[x]][view[y]] for x, y, _ in _RECURRENCE]
        blk = tuple(view[1:5])
        if len(set(blk)) != 4:
            raise ValueError(f"block {idx} has repeated elements")
        if center in blk:
            raise ValueError(f"block {idx} contains the centre")
        for x in blk:
            if x in seen:
                raise ValueError(f"blocks {seen[x]} and {idx} overlap")
            seen[x] = idx
        # H1 has no block before it, so only the laws within a block hold
        holds = [e[view[x]][view[y]] == view[z] for x, y, z in _CHECKS[idx > 1]]
        if not all(holds):
            raise ValueError(list(_FAILURES.values())[holds.index(False) // 4].format(idx))
        blocks.append(blk)
    return QnDecomposition((a, b), center, tuple(blocks))


def detect_form(t: CayleyTable):
    """The lexicographically least base pair (a, b) whose chain partitions
    the table, as (blocks, a, b), or None.  The table must be quadratical
    and of order 4n + 1.

    Only pairs (0, b) are tried.  A quadratical quasigroup is left
    distributive, so every left translation y -> x*y is an automorphism;
    with x*a = 0 it maps a valid chain from (a, b), its centre and every
    block law onto a valid chain from (0, x*b).  So a valid pair exists iff
    one with a = 0 does, and the least valid pair has a = 0.  A chain that
    passes h_chain has 4n distinct elements besides its centre, so it
    covers the table.

    The left translation y -> 0*y fixes 0, since 0*0 = 0, so it maps the
    chain from (0, b) onto the chain from (0, 0*b), and the two pass or fail
    together.  Once b fails, every element of its cycle under y -> 0*y is
    passed over; each b tried is the least of its cycle, so the least valid
    b is still the one found.
    """
    if not is_quadratical(t):
        raise ValueError("table is not quadratical")
    if t.n % 4 != 1:
        raise ValueError(f"order {t.n} is not of the form 4n+1")
    depth = (t.n - 1) // 4
    if depth == 0:
        return None
    failed = set()
    for b in range(1, t.n):
        if b in failed:
            continue
        try:
            h_chain(t, 0, b, depth)
        except ValueError:
            while b not in failed:
                failed.add(b)
                b = t.entries[0][b]
            continue
        return depth, 0, b
    return None


def dual_element_map(blocks: int) -> dict[tuple[int, int], tuple[int, int]]:
    """The involution (t, k) -> (t, sigma_t(k)) on block coordinates
    relating a chain to the chain of the dual quasigroup: the element
    (t, k) of the dual's chain is the element (t, sigma_t(k)) of the
    original's, where sigma_t turns slot k t-1 times and then swaps ab and
    ba."""
    check_blocks(blocks)
    out = {}
    for t in range(1, blocks + 1):
        for k in range(1, 5):
            slot = _turn(k, t - 1)
            out[(t, k)] = (t, {2: 3, 3: 2}.get(slot, slot))
    return out


def canonical_labels(blocks: int) -> tuple[str, ...]:
    """Display labels in canonical order: aba, a, ab, ba, b, 21, 22, ..."""
    check_blocks(blocks)
    labels = ["aba", "a", "ab", "ba", "b"]
    for t in range(2, blocks + 1):
        labels.extend(f"{t}{k}" for k in range(1, 5))
    return tuple(labels)


def check_case(blocks: int, choice: int) -> None:
    """check_blocks, then a ValueError unless choice is an int slot 1..4; a
    bool and a float are refused."""
    check_blocks(blocks)
    check_int("choice", choice, 1, 4)


def seed_assignments(blocks: int, choice: int) -> list[tuple[str, tuple[int, int], int]]:
    """The deterministic seed list for a block-form table: idempotency and
    then each law of BLOCK_LAWS for every slot k, the two laws within a
    block at H1..Hn and the three that tie a block to the one before at
    H2..Hn.

    The choice centre*a = (n, c) makes block 0, the block before H1,
    block n turned s times, where s turns slot 1 to c.  The choice seeds
    are the centre row, centre column and recurrence laws from block 0 to
    block 1, and six products that hold in every completed table but are
    seeded only across that wrap."""
    check_case(blocks, choice)
    s = _TURN.index(choice)

    def at(t, k):
        # blocks 0 and -1 are blocks n and n-1 turned s times
        if t < 1:
            t, k = t + blocks, _turn(k, s)
        # the canonical numbering: the centre is 0, slot k of block t is 4(t-1) + k
        return 4 * (t - 1) + k

    def law(name, t, k):
        # the law's product at slot k of H(t), as ((x, y), x*y)
        x, y, z = (0 if el is None else at(t + el[0], _turn(k, el[1])) for el in BLOCK_LAWS[name])
        return (x, y), z

    slots = (1, 2, 3, 4)
    names = list(BLOCK_LAWS)
    seeds = [("seed:idempotent", (x, x), x) for x in range(4 * blocks + 1)]
    for first, laws in ((1, names[:2]), (2, names[2:])):
        for t in range(first, blocks + 1):
            seeds += [(f"seed:{name}", *law(name, t, k)) for name in laws for k in slots]
    seeds.append(("seed:choice", *law("centre-row", 1, 1)))
    if blocks >= 2:
        seeds += [("seed:choice-row", *law("centre-row", 1, k)) for k in (2, 3, 4)]
        seeds += [("seed:choice-col", *law("centre-col", 1, k)) for k in slots]
        # listed by the slots of block n
        seeds += [("seed:choice-wrap", *law("block-recurrence", 1, _turn(j, -s))) for j in slots]
        seeds += [("seed:choice-eq", (at(1, 4), at(2, 1)), at(0, 1)),
                  ("seed:choice-eq", (at(2, 3), at(1, 4)), at(0, 2))]
        if blocks >= 3:
            seeds += [("seed:choice-eq", (at(1, 1), at(3, 4)), at(0, 3)),
                      ("seed:choice-eq", (at(3, 4), at(1, 4)), at(0, 1))]
        seeds += [("seed:choice-prev", (at(1, 1), at(0, 1)), at(-1, 2)),
                  ("seed:choice-prev", (at(0, 2), at(1, 1)), at(-1, 2))]
    return seeds
