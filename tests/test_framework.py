import json

import pytest

from partition_atlas import (
    Partition,
    antennas,
    boundary_framework,
    build_graph,
    enumerate_partitions,
    framework_json,
    induced_components,
    left_boundary,
    main_chain,
    right_boundary,
    self_conjugate_axis,
)


def _count_distinct_odd(n):
    # independent oracle for the axis size
    table = [1] + [0] * n
    for part in range(1, n + 1, 2):
        for m in range(n, part - 1, -1):
            table[m] += table[m - part]
    return table[n]


def test_antennas_examples():
    assert antennas(5) == (Partition((5,)), Partition((1,) * 5))
    assert antennas(2) == (Partition((2,)), Partition((1, 1)))
    assert antennas(1) == (Partition((1,)), Partition((1,)))


def test_main_chain_n4():
    assert [p.parts for p in main_chain(4)] == [(4,), (3, 1), (2, 1, 1), (1, 1, 1, 1)]


def test_main_chain_degenerate():
    assert [p.parts for p in main_chain(2)] == [(2,), (1, 1)]
    assert [p.parts for p in main_chain(1)] == [(1,)]


@pytest.mark.parametrize("n", range(2, 16))
def test_main_chain_is_path(n):
    g = build_graph(n)
    chain = main_chain(n)
    assert len(chain) == n
    for a, b in zip(chain, chain[1:]):
        assert g.index_of(b) in g.adj[g.index_of(a)]


def test_left_boundary_examples():
    assert [p.parts for p in left_boundary(5)] == [(4, 1), (3, 2)]
    assert [p.parts for p in right_boundary(4)] == [(2, 1, 1), (2, 2)]
    assert left_boundary(1) == ()
    assert right_boundary(1) == ()


@pytest.mark.parametrize("n", range(2, 16))
def test_right_boundary_conjugates_left(n):
    left = left_boundary(n)
    right = right_boundary(n)
    assert len(left) == len(right) == n // 2
    for a, b in zip(left, right):
        assert a.conjugate() == b


def test_framework_n4_covers_everything():
    fw = boundary_framework(4)
    assert fw.all_indices == frozenset(range(5))


def test_framework_n2():
    fw = boundary_framework(2)
    assert fw.all_indices == frozenset(range(2))


@pytest.mark.parametrize("n", range(1, 16))
def test_framework_contains_antennas_and_is_conjugation_closed(n):
    g = build_graph(n)
    fw = boundary_framework(n)
    for p in fw.antennas:
        assert g.index_of(p) in fw.all_indices
    for i in fw.all_indices:
        assert g.index_of(g.vertices[i].conjugate()) in fw.all_indices


@pytest.mark.parametrize("n", range(2, 16))
def test_framework_induced_subgraph_connected(n):
    g = build_graph(n)
    members = boundary_framework(n).all_indices
    start = min(members)
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in g.adj[u]:
            if w in members and w not in seen:
                seen.add(w)
                stack.append(w)
    assert seen == set(members)


def test_induced_subgraph_connected_examples():
    g = build_graph(4)  # the path 4 - 3,1 - {2,2 / 2,1,1} - 1,1,1,1
    last = len(g.vertices) - 1
    assert induced_components(g, frozenset()) == []
    assert induced_components(g, frozenset(range(last + 1))) == [frozenset(range(last + 1))]
    assert induced_components(g, frozenset({0, 1})) == [frozenset({0, 1})]
    assert induced_components(g, frozenset({last, 0})) == [frozenset({0}), frozenset({last})]


def test_axis_examples():
    assert [p.parts for p in self_conjugate_axis(3).members] == [(2, 1)]
    assert [p.parts for p in self_conjugate_axis(1).members] == [(1,)]
    # resolved by the conjugation-fixpoint filter, not by hand
    assert [p.parts for p in self_conjugate_axis(4).members] == [(2, 2)]


@pytest.mark.parametrize("n", range(1, 21))
def test_axis_matches_fixpoint_filter(n):
    axis = {p.parts for p in self_conjugate_axis(n).members}
    fixpoints = {p.parts for p in enumerate_partitions(n) if p.conjugate() == p}
    assert axis == fixpoints


@pytest.mark.parametrize("n", range(1, 21))
def test_axis_size_matches_distinct_odd_count(n):
    assert len(self_conjugate_axis(n).members) == _count_distinct_odd(n)


def test_framework_json_shape():
    fw = boundary_framework(4)
    doc = json.loads(framework_json(fw, self_conjugate_axis(4)))
    assert doc["n"] == 4
    assert doc["antennas"] == ["4", "1,1,1,1"]
    assert doc["main_chain"] == ["4", "3,1", "2,1,1", "1,1,1,1"]
    assert doc["left_edge"] == ["3,1", "2,2"]
    assert doc["right_edge"] == ["2,1,1", "2,2"]
    assert doc["all_vertices"] == ["4", "3,1", "2,2", "2,1,1", "1,1,1,1"]
    assert doc["self_conjugate_axis"] == ["2,2"]


def test_framework_json_rejects_mismatched_axis():
    with pytest.raises(ValueError):
        framework_json(boundary_framework(4), self_conjugate_axis(5))
