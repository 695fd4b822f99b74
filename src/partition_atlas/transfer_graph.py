"""The unit-transfer graph on all partitions of a fixed total."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from typing import Iterable, Iterator, NamedTuple, Sequence

from .partitions import (
    canonical_index,
    conjugation,
    enumerate_partitions,
    format_partition,
    partition_names,
)


class TransferGraph(NamedTuple):
    """Adjacency structure over all partitions of one total.

    ``vertices`` holds the parts tuple of each vertex in the canonical
    enumeration order, and ``adj`` the sorted neighbor indices of each
    vertex. The index and sigma follow from ``n`` and are read from the
    per-n tables :func:`canonical_index` and :func:`conjugation`.
    """

    n: int
    vertices: tuple[tuple[int, ...], ...]
    adj: tuple[tuple[int, ...], ...]

    def index_of(self, parts: tuple[int, ...]) -> int:
        idx = canonical_index(self.n).get(parts)
        if idx is None:
            raise ValueError(f"{format_partition(parts)} is not a partition of {self.n}")
        return idx

    @property
    def edge_count(self) -> int:
        return sum(len(row) for row in self.adj) // 2

    def is_connected(self) -> bool:
        """True when one walk from vertex 0 reaches every vertex; no vertex set is built."""
        return -1 not in bfs_distances(self, [0])

    def conjugation_permutation(self) -> tuple[int, ...]:
        """Vertex permutation induced by conjugating every partition: ``conjugation(n)``."""
        return conjugation(self.n)

    def edge_chunks(self) -> Iterator[str]:
        """The text of :meth:`dump_edges`, one chunk per row with an edge ``j > i``.

        Writers pass the chunks to ``writelines``, so no more than one row's
        lines is held at a time (at n=50 the whole text is 167 MB).
        """
        names = partition_names(self.n)
        for i, row in enumerate(self.adj):
            # rows are sorted, so the edges j > i are a suffix of the row
            k = bisect_right(row, i)
            if k < len(row):
                left = names[i] + "\t"
                yield left + ("\n" + left).join([names[j] for j in row[k:]]) + "\n"

    # no pipeline step calls this; kept because perfbench/traced_step.py spans it by name
    def dump_edges(self) -> str:
        """Edge list, one ``"a<TAB>b"`` line per edge, in canonical order."""
        return "".join(self.edge_chunks())


def build_graph(n: int) -> TransferGraph:
    """Build the transfer graph on all partitions of ``n``.

    Moving one unit takes a box off a removable corner, giving mu of
    n - 1, and puts it on another addable corner of mu. So two partitions
    are adjacent exactly when both cover one mu, and that mu is unique:
    the graph is the edge-disjoint union, over mu of n - 1, of the cliques
    on the covers of mu. Each clique adds every pair from both ends.

    Each mu of n - 1 is read off its cover (*mu, 1), the partitions of n
    with a part 1, so the partitions of n - 1 are never enumerated (mu = ()
    at n = 1).
    """
    vertices = enumerate_partitions(n)
    index = canonical_index(n)
    rows: list = [[] for _ in vertices]
    # the loop runs over the index's own keys and values, so the rows hold
    # the index's int objects, not fresh copies of them
    for t, c in index.items():
        if t[-1] != 1:
            continue
        # the covers of mu = t[:-1]: one box on each addable corner, put on
        # and taken off one list in turn
        mu = list(t[:-1])
        clique = [c]
        for j in range(len(mu)):
            if j == 0 or mu[j - 1] != mu[j]:
                mu[j] += 1
                clique.append(index[tuple(mu)])
                mu[j] -= 1
        for a in clique:
            rows[a] += clique
    # a lies in one clique per lower cover, so its row holds d(a) copies of
    # a, adjacent once sorted. Each row's list gives way to its tuple at
    # once, so no row is ever held both ways.
    for a, row in enumerate(rows):
        row.sort()
        at = bisect_left(row, a)
        del row[at : at + row.count(a)]
        rows[a] = tuple(row)
    return TransferGraph(n, vertices, tuple(rows))


def automorphism_fault(graph: TransferGraph, perm: Sequence[int]) -> int | None:
    """The first vertex at which ``perm`` fails to be an involutive automorphism; None if none.

    Two steps, each naming its first failing vertex. First, sigma(sigma(v))
    = v for every v. Then, for each m <= sigma(m) in increasing order, the
    sorted image of row m must be row sigma(m). The rows of m > sigma(m)
    need no test: with u = sigma(m) < m, once row u passes, row m is its
    image, so the image of row m is row u = row sigma(m). For the same
    reason rows fail in pairs {i, sigma(i)}, so the second step names the
    smallest i whose row sigma does not map onto row sigma(i).

    A ``perm`` of the wrong length, or with an entry that is not a vertex,
    raises ``ValueError``.
    """
    adj = graph.adj
    k = len(adj)
    if len(perm) != k:
        raise ValueError(f"permutation of G_{graph.n} has {len(perm)} entries, not {k}")
    outside = next((v for v, s in enumerate(perm) if not 0 <= s < k), None)
    if outside is not None:
        raise ValueError(f"permutation of G_{graph.n} sends vertex {outside} outside 0..{k - 1}")
    fault = next((v for v, s in enumerate(perm) if perm[s] != v), None)
    if fault is not None:
        return fault
    image = perm.__getitem__
    for m, s in enumerate(perm):
        if m <= s and tuple(sorted(map(image, adj[m]))) != adj[s]:
            return m
    return None


def bfs_distances(graph: TransferGraph, sources: Iterable[int]) -> list[int]:
    """Graph distance from the nearest source vertex; -1 where unreachable."""
    dist = [-1] * len(graph.adj)
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
    unseen = bytearray(len(graph.adj))
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
