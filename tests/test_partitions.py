from math import comb

import pytest

from lattice import Partition, enumerate_partitions, is_interval, is_noncrossing
from symvar.cumulants import IndependenceKind
from symvar.errors import SizeError

K = IndependenceKind


def brute_force_partitions(n):
    """Independent oracle: grow partitions element by element."""
    parts = [[]]
    for x in range(1, n + 1):
        nxt = []
        for p in parts:
            for i in range(len(p)):
                nxt.append([b + [x] if j == i else list(b) for j, b in enumerate(p)])
            nxt.append([list(b) for b in p] + [[x]])
        parts = nxt
    return [Partition.from_blocks(n, p) for p in parts]


def bell(n):
    b = [1]
    for m in range(n):
        b.append(sum(comb(m, k) * b[k] for k in range(m + 1)))
    return b[n]


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def test_singleton():
    for kind in K:
        parts = enumerate_partitions(1, kind)
        assert parts == (Partition.from_blocks(1, [[1]]),)


def test_counts_against_brute_force():
    for n in range(1, 9):
        all_parts = brute_force_partitions(n)
        assert len(set(all_parts)) == len(all_parts) == bell(n)
        nc = {p for p in all_parts if is_noncrossing(p)}
        iv = {p for p in all_parts if is_interval(p)}
        assert set(enumerate_partitions(n, K.CLASSICAL)) == set(all_parts)
        assert set(enumerate_partitions(n, K.FREE)) == nc
        assert set(enumerate_partitions(n, K.BOOLEAN)) == iv
        assert len(nc) == catalan(n)
        assert len(iv) == 2 ** (n - 1)


def test_counts_medium_n():
    for n in (9, 10):
        assert len(enumerate_partitions(n, K.CLASSICAL)) == bell(n)


def test_free_of_4_excludes_exactly_the_crossing():
    parts = enumerate_partitions(4, K.FREE)
    assert len(parts) == 14
    crossing = Partition.from_blocks(4, [[1, 3], [2, 4]])
    assert crossing not in parts
    assert crossing in enumerate_partitions(4, K.CLASSICAL)


def test_boolean_of_4():
    assert len(enumerate_partitions(4, K.BOOLEAN)) == 8


def test_lattice_inclusions():
    for n in range(1, 8):
        cl = set(enumerate_partitions(n, K.CLASSICAL))
        fr = set(enumerate_partitions(n, K.FREE))
        bo = set(enumerate_partitions(n, K.BOOLEAN))
        assert bo <= fr <= cl


def test_odd_n_has_odd_block():
    for n in (1, 3, 5, 7, 9):
        for p in enumerate_partitions(n, K.CLASSICAL):
            assert any(len(b) % 2 == 1 for b in p.blocks)


def test_is_noncrossing_examples():
    assert not is_noncrossing(Partition.from_blocks(4, [[1, 3], [2, 4]]))
    assert is_noncrossing(Partition.from_blocks(4, [[1, 4], [2, 3]]))
    assert is_noncrossing(Partition.from_blocks(4, [[1, 2, 3, 4]]))


def test_is_interval_examples():
    assert is_interval(Partition.from_blocks(4, [[1, 2], [3, 4]]))
    assert not is_interval(Partition.from_blocks(4, [[1, 3], [2], [4]]))
    assert is_interval(Partition.from_blocks(4, [[1], [2], [3], [4]]))


def test_canonical_order():
    p = Partition.from_blocks(5, [[4, 2], [5, 1], [3]])
    assert p.blocks == ((1, 5), (2, 4), (3,))


def test_enumeration_is_deterministic_and_duplicate_free():
    a = enumerate_partitions(6, K.FREE)
    b = enumerate_partitions(6, K.FREE)
    assert a == b
    assert len(set(a)) == len(a)


def test_size_errors():
    with pytest.raises(SizeError):
        enumerate_partitions(0, K.CLASSICAL)
    with pytest.raises(SizeError):
        enumerate_partitions(15, K.BOOLEAN)
    with pytest.raises(SizeError):
        Partition.from_blocks(3, [[1, 2]])
    with pytest.raises(SizeError):
        Partition.from_blocks(3, [[1, 2], [2, 3]])
