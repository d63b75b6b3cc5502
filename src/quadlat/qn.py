"""Block structure of quadratical quasigroups.

Starting from two distinct elements a, b, the chain H1 = (a, ab, ba, b),
H(t) = products of H(t-1) per the four recurrences, partitions the
quasigroup (minus the centre aba) when the quasigroup has block form; the
number of blocks n gives order 4n + 1.
"""

from __future__ import annotations

from typing import NamedTuple

from .cayley import CayleyTable, is_quadratical


class QnDecomposition(NamedTuple):
    """Base pair, centre and the chain blocks H1..Hn (t1, t2, t3, t4)."""

    blocks_count: int
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


def h_chain(t: CayleyTable, a: int, b: int, depth: int) -> QnDecomposition:
    """Compute H1..H(depth) from base (a, b) by the recurrences, checking
    each block against the block laws as it is built; raises ValueError
    naming the first failing check.  Each block's checks read only the
    blocks before it, so a chain stops at its first failing block, however
    deep it was asked to go."""
    if a == b:
        raise ValueError("base elements must be distinct")
    if depth < 1:
        raise ValueError(f"depth must be positive, got {depth}")
    if not (0 <= a < t.n and 0 <= b < t.n):
        raise ValueError("base elements out of range")
    e = t.entries
    center = e[e[a][b]][a]
    blocks = []
    seen: dict[int, int] = {}
    blk = (a, e[a][b], e[b][a], b)
    for idx in range(1, depth + 1):
        if idx > 1:
            p1, p2, p3, p4 = prev = blk
            blk = (e[p1][p2], e[p2][p4], e[p3][p1], e[p4][p3])
        t1, t2, t3, t4 = blk
        if len(set(blk)) != 4:
            raise ValueError(f"block {idx} has repeated elements")
        if center in blk:
            raise ValueError(f"block {idx} contains the centre")
        for x in blk:
            if x in seen:
                raise ValueError(f"blocks {seen[x]} and {idx} overlap")
            seen[x] = idx
        # within one block: t1*t4=t2, t2*t3=t4, t3*t2=t1, t4*t1=t3
        if e[t1][t4] != t2 or e[t2][t3] != t4 or e[t3][t2] != t1 or e[t4][t1] != t3:
            raise ValueError(f"block {idx} violates the cycle product law")
        if e[t1][t3] != center or e[t2][t1] != center or e[t3][t4] != center or e[t4][t2] != center:
            raise ValueError(f"cross products in block {idx} do not all equal the centre")
        if idx > 1:
            for k in range(4):
                if e[center][blk[k]] != prev[k]:
                    raise ValueError(f"centre row translation fails at block {idx}")
            down = (prev[1], prev[3], prev[0], prev[2])
            for k in range(4):
                if e[blk[k]][center] != down[k]:
                    raise ValueError(f"centre column translation fails at block {idx}")
        blocks.append(blk)
    return QnDecomposition(depth, (a, b), center, tuple(blocks))


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
    """
    if not is_quadratical(t):
        raise ValueError("table is not quadratical")
    if t.n % 4 != 1:
        raise ValueError(f"order {t.n} is not of the form 4n+1")
    depth = (t.n - 1) // 4
    if depth == 0:
        return None
    for b in range(1, t.n):
        try:
            h_chain(t, 0, b, depth)
        except ValueError:
            continue
        return depth, 0, b
    return None


def dual_element_map(blocks: int) -> dict[tuple[int, int], tuple[int, int]]:
    """The involution (t, k) -> (t, sigma_t(k)) on block coordinates
    relating a chain to the chain of the dual quasigroup: the element
    (t, k) of the dual's chain is the element (t, sigma_t(k)) of the
    original's, where sigma_t turns slot k t-1 times and then swaps ab and
    ba."""
    if blocks < 1:
        raise ValueError(f"blocks must be positive, got {blocks}")
    out = {}
    for t in range(1, blocks + 1):
        for k in range(1, 5):
            slot = _turn(k, t - 1)
            out[(t, k)] = (t, {2: 3, 3: 2}.get(slot, slot))
    return out


def canonical_index(blocks: int, t: int, k: int) -> int:
    """Canonical element numbering: centre is 0, block t slot k is
    4(t-1) + k."""
    if not (1 <= t <= blocks and 1 <= k <= 4):
        raise ValueError(f"no slot ({t}, {k}) in a {blocks}-block table")
    return 4 * (t - 1) + k


def canonical_labels(blocks: int) -> tuple[str, ...]:
    """Display labels in canonical order: aba, a, ab, ba, b, 21, 22, ..."""
    labels = ["aba", "a", "ab", "ba", "b"]
    for t in range(2, blocks + 1):
        labels.extend(f"{t}{k}" for k in range(1, 5))
    return tuple(labels)


def seed_assignments(blocks: int, choice: int) -> list[tuple[str, tuple[int, int], int]]:
    """The deterministic seed list for a block-form table: idempotency and
    the block laws, one product per slot k, with H = H(t), P = H(t-1) and
    T the quarter turn:

        block-cycle       H_k * H_T²k = H_Tk
        centre-product    H_k * H_T⁻¹k = aba
        block-recurrence  P_k * P_Tk = H_k
        centre-row        aba * H_k = P_k
        centre-col        H_k * aba = P_Tk

    The choice centre*a = (n, c) makes block 0, the block before H1,
    block n turned s times, where s turns slot 1 to c.  The choice seeds
    are the centre row, centre column and recurrence laws from block 0 to
    block 1, and six products that hold in every completed table but are
    seeded only across that wrap."""
    if blocks < 1:
        raise ValueError(f"blocks must be positive, got {blocks}")
    if choice not in (1, 2, 3, 4):
        raise ValueError(f"choice must be a slot 1..4, got {choice}")
    s = _TURN.index(choice)

    def at(t, k):
        # blocks 0 and -1 are blocks n and n-1 turned s times
        if t < 1:
            t, k = t + blocks, _turn(k, s)
        return canonical_index(blocks, t, k)

    def recurrence(t, k):
        return (at(t - 1, k), at(t - 1, _turn(k, 1))), at(t, k)

    def centre_row(t, k):
        return (0, at(t, k)), at(t - 1, k)

    def centre_col(t, k):
        return (at(t, k), 0), at(t - 1, _turn(k, 1))

    slots = (1, 2, 3, 4)
    seeds = [("seed:idempotent", (x, x), x) for x in range(4 * blocks + 1)]
    for t in range(1, blocks + 1):
        seeds += [("seed:block-cycle", (at(t, k), at(t, _turn(k, 2))), at(t, _turn(k, 1)))
                  for k in slots]
        seeds += [("seed:centre-product", (at(t, k), at(t, _turn(k, -1))), 0) for k in slots]
    for t in range(2, blocks + 1):
        seeds += [("seed:block-recurrence", *recurrence(t, k)) for k in slots]
        seeds += [("seed:centre-row", *centre_row(t, k)) for k in slots]
        seeds += [("seed:centre-col", *centre_col(t, k)) for k in slots]
    seeds.append(("seed:choice", *centre_row(1, 1)))
    if blocks >= 2:
        seeds += [("seed:choice-row", *centre_row(1, k)) for k in (2, 3, 4)]
        seeds += [("seed:choice-col", *centre_col(1, k)) for k in slots]
        # listed by the slots of block n
        seeds += [("seed:choice-wrap", *recurrence(1, _turn(j, -s))) for j in slots]
        seeds += [("seed:choice-eq", (at(1, 4), at(2, 1)), at(0, 1)),
                  ("seed:choice-eq", (at(2, 3), at(1, 4)), at(0, 2))]
        if blocks >= 3:
            seeds += [("seed:choice-eq", (at(1, 1), at(3, 4)), at(0, 3)),
                      ("seed:choice-eq", (at(3, 4), at(1, 4)), at(0, 1))]
        seeds += [("seed:choice-prev", (at(1, 1), at(0, 1)), at(-1, 2)),
                  ("seed:choice-prev", (at(0, 2), at(1, 1)), at(-1, 2))]
    return seeds
