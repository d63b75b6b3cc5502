"""Block structure of quadratical quasigroups.

Starting from two distinct elements a, b, the chain H1 = (a, ab, ba, b),
H(t) = products of H(t-1) per the four recurrences, partitions the
quasigroup (minus the centre aba) when the quasigroup has block form; the
number of blocks n gives order 4n + 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import CayleyTable, is_quadratical


@dataclass(frozen=True)
class QnDecomposition:
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


def _chain_blocks(t: CayleyTable, a: int, b: int, depth: int):
    """Blocks by the recurrences, without validation."""
    e = t.entries
    blocks = [(a, e[a][b], e[b][a], b)]
    for _ in range(1, depth):
        p1, p2, p3, p4 = blocks[-1]
        blocks.append((e[p1][p2], e[p2][p4], e[p3][p1], e[p4][p3]))
    return blocks


def _validate_chain(t: CayleyTable, blocks, center: int):
    """Name of the first structural check that fails, or None."""
    e = t.entries
    seen: dict[int, int] = {}
    for idx, (t1, t2, t3, t4) in enumerate(blocks, start=1):
        blk = (t1, t2, t3, t4)
        if len(set(blk)) != 4:
            return f"block {idx} has repeated elements"
        if center in blk:
            return f"block {idx} contains the centre"
        for x in blk:
            if x in seen:
                return f"blocks {seen[x]} and {idx} overlap"
            seen[x] = idx
        # within one block: t1*t4=t2, t2*t3=t4, t3*t2=t1, t4*t1=t3
        if e[t1][t4] != t2 or e[t2][t3] != t4 or e[t3][t2] != t1 or e[t4][t1] != t3:
            return f"block {idx} violates the cycle product law"
        if e[t1][t3] != center or e[t2][t1] != center or e[t3][t4] != center or e[t4][t2] != center:
            return f"cross products in block {idx} do not all equal the centre"
        if idx > 1:
            prev = blocks[idx - 2]
            for k in range(4):
                if e[center][blk[k]] != prev[k]:
                    return f"centre row translation fails at block {idx}"
            down = (prev[1], prev[3], prev[0], prev[2])
            for k in range(4):
                if e[blk[k]][center] != down[k]:
                    return f"centre column translation fails at block {idx}"
    return None


def h_chain(t: CayleyTable, a: int, b: int, depth: int) -> QnDecomposition:
    """Compute H1..H(depth) from base (a, b) and validate the block laws;
    raises ValueError naming the first failing check."""
    if a == b:
        raise ValueError("base elements must be distinct")
    if depth < 1:
        raise ValueError(f"depth must be positive, got {depth}")
    if not (0 <= a < t.n and 0 <= b < t.n):
        raise ValueError("base elements out of range")
    e = t.entries
    center = e[e[a][b]][a]
    blocks = _chain_blocks(t, a, b, depth)
    problem = _validate_chain(t, blocks, center)
    if problem is not None:
        raise ValueError(problem)
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
    passes _validate_chain has 4n distinct elements besides its centre,
    so it covers the table.
    """
    if not is_quadratical(t):
        raise ValueError("table is not quadratical")
    if t.n % 4 != 1:
        raise ValueError(f"order {t.n} is not of the form 4n+1")
    depth = (t.n - 1) // 4
    if depth == 0:
        return None
    e = t.entries
    for b in range(1, t.n):
        blocks = _chain_blocks(t, 0, b, depth)
        if _validate_chain(t, blocks, e[e[0][b]][0]) is None:
            return depth, 0, b
    return None


# Dual-element correspondence: the chain element (t, k) of the dual
# quasigroup equals the chain element (t, sigma_t(k)) of the original,
# where sigma_t depends only on t mod 4.
_DUAL_SLOT = {
    1: {1: 1, 2: 3, 3: 2, 4: 4},
    2: {1: 3, 2: 4, 3: 1, 4: 2},
    3: {1: 4, 2: 2, 3: 3, 4: 1},
    0: {1: 2, 2: 1, 3: 4, 4: 3},
}


def dual_element_map(blocks: int) -> dict[tuple[int, int], tuple[int, int]]:
    """The involution (t, k) -> (t, sigma_t(k)) on block coordinates
    relating a chain to the chain of the dual quasigroup."""
    if blocks < 1:
        raise ValueError(f"blocks must be positive, got {blocks}")
    out = {}
    for t in range(1, blocks + 1):
        slot = _DUAL_SLOT[t % 4]
        for k in range(1, 5):
            out[(t, k)] = (t, slot[k])
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


def dual_index_permutation(blocks: int) -> tuple[int, ...]:
    """dual_element_map as a permutation of canonical indices (centre
    fixed)."""
    perm = [0] * (4 * blocks + 1)
    for (t, k), (t2, k2) in dual_element_map(blocks).items():
        perm[canonical_index(blocks, t, k)] = canonical_index(blocks, t2, k2)
    return tuple(perm)
