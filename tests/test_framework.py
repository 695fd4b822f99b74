import json

import pytest

from partition_atlas import (
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
from partition_atlas.partitions import _conjugate
from partition_atlas.thickness import _corner_thickness


def _count_distinct_odd(n):
    # independent oracle for the axis size
    table = [1] + [0] * n
    for part in range(1, n + 1, 2):
        for m in range(n, part - 1, -1):
            table[m] += table[m - part]
    return table[n]


def test_antennas_examples():
    assert antennas(5) == ((5,), (1,) * 5)
    assert antennas(2) == ((2,), (1, 1))
    assert antennas(1) == ((1,), (1,))


def test_main_chain_n4():
    assert main_chain(4) == ((4,), (3, 1), (2, 1, 1), (1, 1, 1, 1))


def test_main_chain_degenerate():
    assert main_chain(2) == ((2,), (1, 1))
    assert main_chain(1) == ((1,),)


@pytest.mark.parametrize("n", range(2, 16))
def test_main_chain_is_path(n):
    g = build_graph(n)
    chain = boundary_framework(n).main_chain
    assert len(chain) == n
    for a, b in zip(chain, chain[1:]):
        assert b in g.adj[a]


def test_left_boundary_examples():
    assert left_boundary(5) == ((4, 1), (3, 2))
    assert right_boundary(4) == ((2, 1, 1), (2, 2))
    assert left_boundary(1) == ()
    assert right_boundary(1) == ()


@pytest.mark.parametrize("n", range(2, 16))
def test_right_boundary_conjugates_left(n):
    left = left_boundary(n)
    right = right_boundary(n)
    assert len(left) == len(right) == n // 2
    for a, b in zip(left, right):
        assert _conjugate(a) == b


@pytest.mark.parametrize("n", range(1, 16))
def test_framework_families_are_canonical_indices(n):
    # positions in the enumeration, against the parts each family names
    position = {p: i for i, p in enumerate(enumerate_partitions(n))}
    fw = boundary_framework(n)
    assert fw.antennas == tuple(position[t] for t in antennas(n))
    assert fw.main_chain == tuple(position[t] for t in main_chain(n))
    assert fw.left_edge == tuple(position[t] for t in left_boundary(n))
    assert fw.right_edge == tuple(position[t] for t in right_boundary(n))
    families = main_chain(n) + left_boundary(n) + right_boundary(n)
    assert fw.all_indices == {position[t] for t in families}


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
    for a in fw.antennas:
        assert a in fw.all_indices
    for i in fw.all_indices:
        assert g.index_of(_conjugate(g.vertices[i])) in fw.all_indices


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


def _axis_parts(n):
    return [enumerate_partitions(n)[i] for i in self_conjugate_axis(n)]


def test_axis_examples():
    assert _axis_parts(3) == [(2, 1)]
    assert _axis_parts(1) == [(1,)]
    # resolved by the conjugation-fixpoint filter, not by hand
    assert _axis_parts(4) == [(2, 2)]
    assert _axis_parts(9) == [(5, 1, 1, 1, 1), (3, 3, 3)]


@pytest.mark.parametrize("n", range(1, 21))
def test_axis_matches_fixpoint_filter(n):
    fixpoints = [i for i, p in enumerate(enumerate_partitions(n)) if _conjugate(p) == p]
    assert self_conjugate_axis(n) == tuple(fixpoints)


@pytest.mark.parametrize("n", range(1, 21))
def test_axis_size_matches_distinct_odd_count(n):
    assert len(self_conjugate_axis(n)) == _count_distinct_odd(n)


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


def test_framework_lies_below_order_3():
    # graph-free, so far past any n whose graph is built: the corner formula
    # on every member of the three families
    above = [
        p
        for n in range(1, 201)
        for family in (main_chain(n), left_boundary(n), right_boundary(n))
        for p in family
        if _corner_thickness(p) > 2
    ]
    assert not above, above[:5]
