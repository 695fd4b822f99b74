"""The unit-transfer graph on all partitions of a fixed total."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

from .partitions import Partition, canonical_index, enumerate_partitions, format_partition


def neighbors(p: Partition) -> set[Partition]:
    """All partitions reachable from ``p`` by moving a single unit.

    A move removes one unit from a source part (deleting the part when it
    drops to zero) and either adds it to a different existing part or
    opens a new part of size one; the result is re-sorted. Outcomes equal
    to ``p`` itself are discarded, and duplicates collapse.
    """
    return {Partition(t) for t in _corner_moves(p.parts)}


def _corner_moves(parts: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The neighbors of ``parts`` as Young-diagram corner moves, each once.

    Moving a unit and re-sorting is the same as taking one box off a
    removable corner (the last row of some part value), giving mu, and
    putting one box on an addable corner of mu: row 0, a row shorter than
    the one above it, or a new row. Since mu is the unique common
    sub-diagram of two distinct neighbors, no result repeats; putting the
    box back where it came from gives ``parts`` and is skipped.
    """
    out: list[tuple[int, ...]] = []
    last = len(parts) - 1
    for i in range(last + 1):
        if i < last and parts[i] == parts[i + 1]:
            continue
        mu = list(parts)
        if mu[i] == 1:
            mu.pop()
        else:
            mu[i] -= 1
        k = len(mu)
        for j in range(k + 1):
            if j == i or (0 < j < k and mu[j - 1] == mu[j]):
                continue
            if j == k:
                out.append((*mu, 1))
            else:
                mu[j] += 1
                out.append(tuple(mu))
                mu[j] -= 1
    return out


@dataclass(frozen=True)
class TransferGraph:
    """Immutable adjacency structure over all partitions of one total.

    ``vertices`` follows the canonical enumeration order, and ``adj``
    holds the sorted neighbor indices of each vertex.
    """

    n: int
    vertices: tuple[Partition, ...]
    adj: tuple[tuple[int, ...], ...]
    parts_index: dict[tuple[int, ...], int] = field(repr=False, compare=False)
    _conjugation: tuple[int, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def index_of(self, p: Partition) -> int:
        idx = self.parts_index.get(p.parts)
        if idx is None:
            raise ValueError(f"{format_partition(p)} is not a partition of {self.n}")
        return idx

    def degree(self, p: Partition) -> int:
        return len(self.adj[self.index_of(p)])

    def neighbors_of(self, p: Partition) -> tuple[Partition, ...]:
        return tuple(self.vertices[j] for j in self.adj[self.index_of(p)])

    @property
    def edge_count(self) -> int:
        return sum(len(row) for row in self.adj) // 2

    def is_connected(self) -> bool:
        """True when the whole graph is one component."""
        return len(induced_components(self, range(len(self.vertices)))) == 1

    def conjugation_permutation(self) -> tuple[int, ...]:
        """Vertex permutation induced by conjugating every partition.

        Built on the first call and kept for the life of the graph.
        """
        if self._conjugation is None:
            sigma = tuple(self.parts_index[v.conjugate().parts] for v in self.vertices)
            object.__setattr__(self, "_conjugation", sigma)
        return self._conjugation

    def dump_edges(self) -> str:
        """Edge list, one ``"a<TAB>b"`` line per edge, in canonical order."""
        lines = []
        for i, row in enumerate(self.adj):
            left = format_partition(self.vertices[i])
            for j in row:
                if j > i:
                    lines.append(f"{left}\t{format_partition(self.vertices[j])}")
        return "\n".join(lines) + ("\n" if lines else "")


def build_graph(n: int) -> TransferGraph:
    """Build the transfer graph on all partitions of ``n``.

    Adjacency is generated independently from both endpoints of every
    edge and checked for symmetry and irreflexivity before freezing.
    """
    verts = enumerate_partitions(n)
    index = canonical_index(n)
    adj_sets = [frozenset(index[t] for t in _corner_moves(p.parts)) for p in verts]
    for i, row in enumerate(adj_sets):
        if i in row:
            raise AssertionError(f"self-loop at vertex {i} of G_{n}")
        for j in row:
            if i not in adj_sets[j]:
                raise AssertionError(f"asymmetric adjacency {i}/{j} in G_{n}")
    adj = tuple(tuple(sorted(row)) for row in adj_sets)
    return TransferGraph(n=n, vertices=verts, adj=adj, parts_index=index)


def bfs_distances(graph: TransferGraph, sources: Iterable[int]) -> list[int]:
    """Graph distance from the nearest source vertex; -1 where unreachable."""
    dist = [-1] * len(graph.vertices)
    queue: deque[int] = deque()
    for s in sources:
        if dist[s] == -1:
            dist[s] = 0
            queue.append(s)
    while queue:
        u = queue.popleft()
        for w in graph.adj[u]:
            if dist[w] == -1:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def induced_components(graph: TransferGraph, members: Iterable[int]) -> list[frozenset[int]]:
    """Connected components of the subgraph induced on ``members``.

    A walk starts from each not yet reached member in increasing order, so
    the components come out ordered by their smallest member.
    """
    order = sorted(members)
    unseen = bytearray(len(graph.vertices))
    for v in order:
        unseen[v] = 1
    components = []
    for start in order:
        if not unseen[start]:
            continue
        unseen[start] = 0
        component = [start]
        for u in component:
            for w in graph.adj[u]:
                if unseen[w]:
                    unseen[w] = 0
                    component.append(w)
        components.append(frozenset(component))
    return components
