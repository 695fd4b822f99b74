import pytest
from hypothesis import given
from hypothesis import strategies as st

from partition_atlas import (
    canonical_index,
    enumerate_partitions,
    format_partition,
    partition_count,
    partition_names,
    self_conjugate_axis,
    thickness_profile,
)
from partition_atlas.partitions import _conjugate, conjugation, parse_partition

partitions_st = st.lists(st.integers(1, 12), min_size=1, max_size=10).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def _all_partitions_recursive(n, max_part=None):
    # independent oracle: plain recursion, no shared code with the enumerator
    max_part = n if max_part is None else max_part
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _all_partitions_recursive(n - first, first):
            out.append((first,) + rest)
    return out


def _count_dp(n):
    # independent oracle: direct dynamic programming over maximal part size
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            table[m] += table[m - part]
    return table[n]


def test_enumerate_n1():
    assert enumerate_partitions(1) == ((1,),)


def test_enumerate_n4_frozen():
    expected = [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert list(enumerate_partitions(4)) == expected


@pytest.mark.parametrize("n", range(1, 26))
def test_enumerate_matches_recursive_oracle(n):
    assert list(enumerate_partitions(n)) == _all_partitions_recursive(n)


@pytest.mark.parametrize("n", range(1, 31))
def test_counts_match_both_oracles(n):
    assert len(enumerate_partitions(n)) == partition_count(n) == _count_dp(n)


def test_enumerate_n30_length():
    assert len(enumerate_partitions(30)) == 5604


@pytest.mark.parametrize("n", range(1, 21))
def test_enumeration_endpoints(n):
    verts = enumerate_partitions(n)
    assert verts[0] == (n,)
    assert verts[-1] == (1,) * n


def test_enumerate_rejects_nonpositive():
    # unguarded, the enumeration loop never ends for n < 1
    with pytest.raises(ValueError):
        enumerate_partitions(0)
    with pytest.raises(ValueError):
        enumerate_partitions(-3)


def test_partition_tuples_rejects_nonpositive():
    # every table built from the partition tuples inherits the enumeration's guard
    for table in (canonical_index, partition_names, thickness_profile):
        for n in (0, -3):
            with pytest.raises(ValueError, match=f"got {n}"):
                table(n)


@pytest.mark.parametrize("n", range(1, 16))
def test_tuple_tables_match_partitions(n):
    verts = enumerate_partitions(n)
    assert canonical_index(n) == {p: i for i, p in enumerate(verts)}
    assert partition_names(n) == tuple(format_partition(p) for p in verts)


def test_conjugate_examples():
    assert _conjugate((4,)) == (1, 1, 1, 1)
    assert _conjugate((2, 1)) == (2, 1)
    assert _conjugate((3, 3, 1)) == (3, 2, 2)


@given(partitions_st)
def test_conjugate_is_involution(p):
    assert _conjugate(_conjugate(p)) == p


@given(partitions_st)
def test_conjugate_swaps_largest_and_length(p):
    assert len(_conjugate(p)) == p[0]
    assert _conjugate(p)[0] == len(p)


@pytest.mark.parametrize("n", range(1, 16))
def test_conjugate_involution_exhaustive(n):
    for p in enumerate_partitions(n):
        assert _conjugate(_conjugate(p)) == p


@pytest.mark.parametrize("n", range(1, 13))
def test_conjugation_table(n):
    sigma = conjugation(n)
    parts = enumerate_partitions(n)
    # each index goes to its conjugate's index, and back
    assert [parts[s] for s in sigma] == [_conjugate(p) for p in parts]
    assert [sigma[s] for s in sigma] == list(range(len(parts)))
    assert tuple(i for i, s in enumerate(sigma) if i == s) == self_conjugate_axis(n)
    assert conjugation(n) is sigma


def test_self_conjugate_n6_by_filter():
    axis = [p for p in enumerate_partitions(6) if _conjugate(p) == p]
    assert axis == [(3, 2, 1)]


def test_self_conjugate_examples():
    assert _conjugate((2, 1)) == (2, 1)
    assert _conjugate((4,)) != (4,)


def test_parse_format_examples():
    assert parse_partition("4,2,1") == (4, 2, 1)
    assert parse_partition("1") == (1,)
    assert format_partition((4, 2, 1)) == "4,2,1"


@given(partitions_st)
def test_parse_format_roundtrip(p):
    assert parse_partition(format_partition(p)) == p


def test_parse_rejects_increasing():
    with pytest.raises(ValueError, match="3"):
        parse_partition("2,3")


@pytest.mark.parametrize("text", ["", "a", "4,,1", "4, 1", "0", "-2", "04"])
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_partition(text)
