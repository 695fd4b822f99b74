import pytest
from hypothesis import given
from hypothesis import strategies as st

from partition_atlas import (
    Partition,
    canonical_index,
    enumerate_partitions,
    format_partition,
    parse_partition,
    partition_count,
    partition_names,
)
from partition_atlas.partitions import _partition_tuples

partitions_st = st.lists(st.integers(1, 12), min_size=1, max_size=10).map(
    lambda xs: Partition(tuple(sorted(xs, reverse=True)))
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
    assert [p.parts for p in enumerate_partitions(1)] == [(1,)]


def test_enumerate_n4_frozen():
    expected = [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert [p.parts for p in enumerate_partitions(4)] == expected


@pytest.mark.parametrize("n", range(1, 26))
def test_enumerate_matches_recursive_oracle(n):
    assert [p.parts for p in enumerate_partitions(n)] == _all_partitions_recursive(n)


@pytest.mark.parametrize("n", range(1, 31))
def test_counts_match_both_oracles(n):
    assert len(enumerate_partitions(n)) == partition_count(n) == _count_dp(n)


def test_enumerate_n30_length():
    assert len(enumerate_partitions(30)) == 5604


@pytest.mark.parametrize("n", range(1, 21))
def test_enumeration_endpoints(n):
    verts = enumerate_partitions(n)
    assert verts[0].parts == (n,)
    assert verts[-1].parts == (1,) * n


def test_enumerate_rejects_nonpositive():
    with pytest.raises(ValueError):
        enumerate_partitions(0)
    with pytest.raises(ValueError):
        enumerate_partitions(-3)


def test_partition_tuples_rejects_nonpositive():
    # the tuple enumerator guards itself: unguarded, its loop never ends for n < 1
    with pytest.raises(ValueError):
        _partition_tuples(0)
    with pytest.raises(ValueError):
        _partition_tuples(-3)


@pytest.mark.parametrize("n", range(1, 16))
def test_tuple_tables_match_partitions(n):
    verts = enumerate_partitions(n)
    assert _partition_tuples(n) == tuple(p.parts for p in verts)
    assert canonical_index(n) == {p.parts: i for i, p in enumerate(verts)}
    assert partition_names(n) == tuple(format_partition(p) for p in verts)


def test_conjugate_examples():
    assert Partition((4,)).conjugate().parts == (1, 1, 1, 1)
    assert Partition((2, 1)).conjugate().parts == (2, 1)
    assert Partition((3, 3, 1)).conjugate().parts == (3, 2, 2)


@given(partitions_st)
def test_conjugate_is_involution(p):
    assert p.conjugate().conjugate() == p


@given(partitions_st)
def test_conjugate_swaps_largest_and_length(p):
    assert p.conjugate().length == p.largest
    assert p.conjugate().largest == p.length


@pytest.mark.parametrize("n", range(1, 16))
def test_conjugate_involution_exhaustive(n):
    for p in enumerate_partitions(n):
        assert p.conjugate().conjugate() == p


def test_self_conjugate_n6_by_filter():
    axis = [p.parts for p in enumerate_partitions(6) if p.is_self_conjugate()]
    assert axis == [(3, 2, 1)]


def test_self_conjugate_examples():
    assert Partition((2, 1)).is_self_conjugate()
    assert not Partition((4,)).is_self_conjugate()


def test_parse_format_examples():
    assert parse_partition("4,2,1").parts == (4, 2, 1)
    assert parse_partition("1").parts == (1,)
    assert format_partition(Partition((4, 2, 1))) == "4,2,1"


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


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(())
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


@pytest.mark.parametrize("parts", [(2.5, 1), ("3", "1"), (True,)])
def test_partition_rejects_non_int_parts(parts):
    with pytest.raises(ValueError, match=f"got {parts[0]!r}"):
        Partition(parts)


def test_partition_stores_any_sequence_as_tuple():
    assert Partition([3, 1]).parts == (3, 1)


def test_partition_sum_cached():
    p = Partition((5, 3, 1))
    assert p.n == 9
    assert p.largest == 5
    assert p.length == 3


def test_pipeline_and_atlas_build_no_partition(tmp_path, monkeypatch):
    # vertices cross every layer as canonical indices; a Partition is built
    # only where text is parsed or a caller asks for one
    from partition_atlas.atlas import atlas_chunks
    from partition_atlas.pipeline import compute_artifacts_for_n
    from partition_atlas.thickness import thickness_profile
    from partition_atlas.transfer_graph import build_graph

    graph = build_graph(12)
    profile = thickness_profile(graph)
    built = []
    check = Partition.__post_init__

    def counted(self):
        built.append(self.parts)
        check(self)

    monkeypatch.setattr(Partition, "__post_init__", counted)
    for n in range(1, 13):
        compute_artifacts_for_n(n, tmp_path)
    assert len(built) == 0, built[:5]
    for mode in ("thickness", "zones"):
        for _ in atlas_chunks(graph, profile, mode):
            pass
    assert len(built) == 0, built[:5]
    # the count sees a construction
    Partition((2, 1))
    assert built == [(2, 1)]
