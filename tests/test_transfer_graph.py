from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from partition_atlas import bfs_distances, boundary_framework, build_graph, enumerate_partitions
from partition_atlas.partitions import _conjugate, canonical_index, format_partition
from partition_atlas.transfer_graph import TransferGraph, automorphism_fault

small_partitions_st = st.lists(st.integers(1, 6), min_size=1, max_size=6).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def _edge_set(graph):
    return {
        (i, j) for i, row in enumerate(graph.adj) for j in row if j > i
    }


@lru_cache(maxsize=None)
def _graph(n):
    """G_n and its index, kept together: ``canonical_index`` keeps only the
    latest n, and the drawn partitions mix totals. Each total is built
    once, however the draws interleave them; :func:`_drop_graphs` lets
    the graphs go when the module's tests end."""
    return build_graph(n), canonical_index(n)


@pytest.fixture(scope="module", autouse=True)
def _drop_graphs():
    yield
    _graph.cache_clear()


def _neighbors(p):
    """The parts tuples of ``p``'s neighbours, read off the rows of ``build_graph``."""
    g, index = _graph(sum(p))
    return {g.vertices[j] for j in g.adj[index[p]]}


def test_neighbors_of_single_row():
    assert _neighbors((7,)) == _reference_neighbors((7,)) == {(6, 1)}


def test_neighbors_of_all_ones():
    assert _neighbors((1, 1, 1, 1)) == _reference_neighbors((1, 1, 1, 1)) == {(2, 1, 1)}


def test_neighbors_211_frozen():
    expected = {(3, 1), (2, 2), (1, 1, 1, 1)}
    assert _neighbors((2, 1, 1)) == _reference_neighbors((2, 1, 1)) == expected


def test_neighbors_exclude_self():
    # moving the unit back and forth between equal parts reproduces the input
    for parts in ((2, 1), (1,)):
        assert parts not in _neighbors(parts)
        assert parts not in _reference_neighbors(parts)
    assert _neighbors((1,)) == _reference_neighbors((1,)) == set()


@given(small_partitions_st)
def test_neighbors_symmetric(p):
    for q in _neighbors(p):
        assert p in _neighbors(q)
    for q in _reference_neighbors(p):
        assert p in _reference_neighbors(q)


@given(small_partitions_st)
def test_neighbors_preserve_total(p):
    expected = _reference_neighbors(p)
    assert _neighbors(p) == expected
    assert all(sum(q) == sum(p) for q in expected)


def test_build_graph_n1():
    g = build_graph(1)
    assert len(g.vertices) == 1
    assert g.edge_count == 0
    assert g.is_connected()


def test_build_graph_n2():
    g = build_graph(2)
    assert g.vertices == ((2,), (1, 1))
    assert g.edge_count == 1
    assert g.is_connected()


def test_build_graph_n4_edges_frozen():
    g = build_graph(4)
    names = dict(enumerate(map(format_partition, g.vertices)))
    got = {tuple(sorted((names[i], names[j]))) for i, j in _edge_set(g)}
    expected = {
        ("3,1", "4"),
        ("2,2", "3,1"),
        ("2,1,1", "3,1"),
        ("2,1,1", "2,2"),
        ("1,1,1,1", "2,1,1"),
    }
    assert got == expected


def test_vertices_view_is_built_once_from_parts():
    g = build_graph(7)
    # the graph holds the enumeration's own tuple, not a copy of it
    assert g.vertices is enumerate_partitions(7)
    assert all(type(p) is tuple for p in g.vertices)


def test_build_graph_rejects_nonpositive():
    with pytest.raises(ValueError):
        build_graph(0)


@pytest.mark.parametrize("n", range(2, 13))
def test_connected_small(n):
    assert build_graph(n).is_connected()


@pytest.mark.parametrize("n", range(2, 13))
def test_antenna_degrees(n):
    g = build_graph(n)
    assert len(g.adj[g.index_of((n,))]) == 1
    assert len(g.adj[g.index_of((1,) * n)]) == 1


def test_degree_examples():
    g1 = build_graph(1)
    assert g1.adj[g1.index_of((1,))] == ()
    g4 = build_graph(4)
    assert len(g4.adj[g4.index_of((3, 1))]) == 3


def test_index_of_rejects_foreign_partition():
    g = build_graph(4)
    with pytest.raises(ValueError, match="not a partition of 4"):
        g.index_of((5,))
    with pytest.raises(ValueError, match="not a partition of 4"):
        g.index_of((3, 2))


@pytest.mark.parametrize("n", range(2, 11))
def test_conjugation_is_automorphism(n):
    g = build_graph(n)
    sigma = g.conjugation_permutation()
    for i, row in enumerate(g.adj):
        assert tuple(sorted(sigma[j] for j in row)) == g.adj[sigma[i]]
    assert automorphism_fault(g, sigma) is None


def test_automorphism_fault_names_the_smallest_failing_row():
    # with any one edge of G_8 dropped from both its rows, the fault found
    # from the rows m <= sigma(m) is the smallest i of all whose row sigma
    # does not map onto row sigma(i)
    g = build_graph(8)
    sigma = g.conjugation_permutation()
    for a, b in _edge_set(g):
        adj = [set(row) for row in g.adj]
        adj[a].discard(b)
        adj[b].discard(a)
        rows = tuple(tuple(sorted(row)) for row in adj)
        broken = TransferGraph(g.n, g.vertices, rows)
        failing = [
            i for i, row in enumerate(rows) if sorted(sigma[j] for j in row) != [*rows[sigma[i]]]
        ]
        assert automorphism_fault(broken, sigma) == (min(failing) if failing else None)


@pytest.mark.parametrize("n", range(2, 13))
def test_left_boundary_is_path(n):
    g = build_graph(n)
    for k in range(1, n // 2):
        a = g.index_of((n - k, k))
        b = g.index_of((n - k - 1, k + 1))
        assert b in g.adj[a]


@pytest.mark.parametrize("n", range(1, 13))
def test_adjacency_shape(n):
    g = build_graph(n)
    for i, row in enumerate(g.adj):
        assert i not in row
        assert list(row) == sorted(set(row))
        for j in row:
            assert i in g.adj[j]
    assert sum(len(r) for r in g.adj) == 2 * g.edge_count


def _reference_neighbors(parts):
    """Unit transfers straight from the definition: move, re-sort, drop self."""
    out = set()
    for src in range(len(parts)):
        rest = list(parts)
        rest[src] -= 1
        targets = [t for t in range(len(parts)) if t != src] + [len(parts)]
        for dst in targets:
            moved = rest + [0]
            moved[dst] += 1
            out.add(tuple(sorted((x for x in moved if x > 0), reverse=True)))
    out.discard(parts)
    return out


@pytest.mark.parametrize("n", range(1, 21))
def test_adjacency_matches_definition(n):
    g = build_graph(n)
    for i, p in enumerate(g.vertices):
        assert {g.vertices[j] for j in g.adj[i]} == _reference_neighbors(p)


def test_conjugation_permutation_built_once():
    g = build_graph(9)
    sigma = g.conjugation_permutation()
    assert g.conjugation_permutation() is sigma
    assert sorted(sigma) == list(range(len(g.vertices)))
    assert all(g.vertices[sigma[i]] == _conjugate(p) for i, p in enumerate(g.vertices))


@pytest.mark.parametrize("n", [1, 6, 12])
def test_graph_is_a_record_of_its_three_fields(n):
    g = build_graph(n)
    assert g == TransferGraph(*build_graph(n))
    assert hash(g) == hash(TransferGraph(*g))
    assert repr(g) == f"TransferGraph(n={n!r}, vertices={g.vertices!r}, adj={g.adj!r})"


def test_dump_edges_n4():
    text = build_graph(4).dump_edges()
    lines = text.strip().split("\n")
    assert len(lines) == 5
    assert lines[0] == "4\t3,1"
    assert all("\t" in line for line in lines)


def test_dump_edges_n1_empty():
    assert build_graph(1).dump_edges() == ""


@pytest.mark.parametrize("n", range(1, 16))
def test_dump_edges_matches_per_edge_lines(n):
    g = build_graph(n)
    names = [format_partition(p) for p in g.vertices]
    lines = [f"{names[i]}\t{names[j]}\n" for i, row in enumerate(g.adj) for j in row if j > i]
    assert g.dump_edges() == "".join(lines)


# builds the n=30 graph with its enumeration and index warmed, so that
# only the build itself is traced, and prints what the build left held,
# its traced peak and the size of the rows
BUILD_PROBE = """
import json, sys, tracemalloc
from partition_atlas import build_graph
from partition_atlas.partitions import canonical_index, enumerate_partitions

n = 30
enumerate_partitions(n)
canonical_index(n)
tracemalloc.start()
g = build_graph(n)
held, peak = tracemalloc.get_traced_memory()
tracemalloc.stop()
rows = sum(map(sys.getsizeof, g.adj)) + sys.getsizeof(g.adj)
print(json.dumps([held, peak, rows]))
"""


def test_build_graph_holds_no_transient_copy_of_the_rows(fresh_python):
    held, peak, rows = fresh_python(BUILD_PROBE)
    # a row's list is gone before the next row's tuple is made
    assert peak < 1.8 * held, (peak, held)
    # the rows hold the index's int objects, not fresh copies of them
    assert held < 1.1 * rows, (held, rows)


def test_bfs_distances():
    g = build_graph(4)
    dist = bfs_distances(g, (0,))  # from (4)
    by_name = {format_partition(p): dist[i] for i, p in enumerate(g.vertices)}
    assert by_name == {"4": 0, "3,1": 1, "2,2": 2, "2,1,1": 2, "1,1,1,1": 3}


@pytest.mark.parametrize("n", range(1, 13))
def test_bfs_distances_from_several_sources_is_the_nearest_walk(n):
    # one walk from every source at once, as verify walks from both
    # antennas, against a walk per source and the nearest of them
    g = build_graph(n)
    fw = boundary_framework(n)
    for sources in (list(fw.antennas), sorted(fw.all_indices)):
        walks = [bfs_distances(g, [s]) for s in sources]
        assert bfs_distances(g, sources) == [min(d) for d in zip(*walks)], sources
