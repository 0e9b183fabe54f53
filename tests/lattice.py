"""Set partition lattices for the three independence kinds: the tests' oracle.

Classical independence sums cumulants over all partitions, free independence
over non-crossing partitions, Boolean independence over interval partitions.
This module enumerates and classifies those lattices by brute force; the
counts are Bell(n), Catalan(n) and 2^(n-1). The tests compare the cumulant
recursions in symvar.cumulants against these lattice sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from symvar.cumulants import IndependenceKind
from symvar.errors import SizeError

MAX_GROUND_SET = 14


@dataclass(frozen=True)
class Partition:
    """A set partition of {1, ..., n} in canonical form.

    Blocks are sorted by their minimum element and each block's elements are
    ascending; the constructor via :meth:`from_blocks` validates and
    canonicalizes.
    """

    n: int
    blocks: tuple[tuple[int, ...], ...]

    @classmethod
    def from_blocks(cls, n, blocks):
        seen = set()
        canon = []
        for block in blocks:
            b = tuple(sorted(block))
            if not b:
                raise SizeError("empty block")
            if seen & set(b):
                raise SizeError("blocks are not disjoint")
            seen.update(b)
            canon.append(b)
        if seen != set(range(1, n + 1)):
            raise SizeError(f"blocks do not cover 1..{n}")
        canon.sort(key=lambda b: b[0])
        return cls(n, tuple(canon))

    def block_sizes(self):
        return tuple(len(b) for b in self.blocks)


def is_noncrossing(part: Partition) -> bool:
    """True iff no a<b<c<d exists with a,c in one block and b,d in another."""
    label = _labels(part)
    n = part.n
    for a in range(1, n + 1):
        for c in range(a + 2, n + 1):
            if label[a] != label[c]:
                continue
            for b in range(a + 1, c):
                if label[b] == label[a]:
                    continue
                # a block mate of b strictly beyond c closes a crossing
                if any(label[d] == label[b] for d in range(c + 1, n + 1)):
                    return False
    return True


def is_interval(part: Partition) -> bool:
    """True iff every block is a run of consecutive integers."""
    return all(b[-1] - b[0] + 1 == len(b) for b in part.blocks)


def _labels(part):
    label = [0] * (part.n + 1)
    for i, block in enumerate(part.blocks):
        for x in block:
            label[x] = i
    return label


def _growth_strings(n):
    """All restricted growth strings of length n, lexicographically."""
    a = [0] * n

    def rec(i, mx):
        if i == n:
            yield tuple(a)
            return
        for v in range(mx + 2):
            a[i] = v
            yield from rec(i + 1, max(mx, v))

    yield from rec(1, 0) if n > 1 else iter([(0,) * n])


def _from_growth_string(rgs):
    n = len(rgs)
    blocks = {}
    for i, v in enumerate(rgs, start=1):
        blocks.setdefault(v, []).append(i)
    return Partition.from_blocks(n, blocks.values())


@lru_cache(maxsize=None)
def enumerate_partitions(n: int, kind: IndependenceKind) -> tuple[Partition, ...]:
    """All partitions of {1,...,n} in the kind's lattice, in growth-string order.

    Counts: Bell(n) for classical, Catalan(n) for free, 2^(n-1) for Boolean.
    """
    if not isinstance(n, int) or n < 1 or n > MAX_GROUND_SET:
        raise SizeError(f"ground-set size must be in 1..{MAX_GROUND_SET}, got {n}")
    kind = IndependenceKind(kind)
    out = []
    for rgs in _growth_strings(n):
        part = _from_growth_string(rgs)
        if kind is IndependenceKind.FREE and not is_noncrossing(part):
            continue
        if kind is IndependenceKind.BOOLEAN and not is_interval(part):
            continue
        out.append(part)
    return tuple(out)
