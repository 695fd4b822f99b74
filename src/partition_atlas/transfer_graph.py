"""The unit-transfer graph on all partitions of a fixed total."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

from .partitions import (
    Partition,
    _conjugate,
    _partition_tuples,
    canonical_index,
    format_partition,
    partition_names,
)


def _corner_thickness(parts: tuple[int, ...]) -> int:
    """Thickness of the vertex ``parts``, read off its Young diagram.

    Write d(x) for the number of distinct parts of x: x has d(x) removable
    and d(x) + 1 addable corners. For p of n, with mu over the lower covers
    of p (partitions of n - 1; mu = () with d = 0 when n = 1) and lam over
    its upper covers (partitions of n + 1),

        tau(p) + 1 = max(max_mu d(mu) + 1, max_lam d(lam)) = max_mu d(mu) + 1.

    Cliques. Read a partition of n as its set of n diagram cells; unions
    and intersections of diagrams are diagrams. Two vertices are adjacent
    exactly when they share n - 1 cells (see :func:`build_graph`), so
    the graph is an induced subgraph of a Johnson graph. Take adjacent A, B
    with M = A & B and L = A | B, of n - 1 and n + 1 cells. A vertex C
    adjacent to both misses one cell of A and one of B. If it misses a cell
    m of M, it holds (A | B) - {m}, which has n cells, so C = L - {m};
    otherwise C contains M. Two vertices M | {x} with x outside L and
    L - {m} with m in M share only n - 2 cells, so every clique of two or
    more members either has all members above one mu = M, the covers of
    mu, or all below one lam = L, the lower covers of lam (Godsil & Royle,
    Algebraic Graph Theory, 1.6; Stanley, EC1, 7.2). Conversely the
    d(mu) + 1 covers of mu, and the d(lam) lower covers of lam, are
    pairwise adjacent. For n = 1 the lone vertex is the one cover of
    mu = (). A largest clique through p is one of these families.

    The lam term never wins. One box changes one row, so d(lam) <= d(p) + 1.
    Unless p is the staircase (k, k-1, ..., 1), some part value v occurs
    twice, or is above 1 with no part v - 1; taking the box off the last
    row of value v then gives d(mu) >= d(p). The staircase has d(mu) = k - 1
    for every mu and d(lam) <= k for every lam.

    Counting: d(p) is the number of runs of equal parts. Take the box off
    the last row of a run of value v and length m, followed by the value w
    (w = 0 after the last run). The run disappears when m = 1, and a new
    value v - 1 appears unless v = 1 or w = v - 1, so d(mu) = d(p) + gain
    with gain = [v > 1 and w != v - 1] - [m = 1], and tau(p) is the number
    of runs plus the largest gain. One pass over the parts reads both.
    """
    runs = 0
    best = -1
    v = parts[0]
    m = 0
    for w in (*parts, 0):
        if w == v:
            m += 1
            continue
        runs += 1
        gain = (v > 1 and w != v - 1) - (m == 1)
        if gain > best:
            best = gain
        v = w
        m = 1
    return runs + best


@dataclass(frozen=True)
class TransferGraph:
    """Immutable adjacency structure over all partitions of one total.

    ``parts`` holds the parts tuple of each vertex in the canonical
    enumeration order, and ``adj`` the sorted neighbor indices of each
    vertex. ``vertices`` gives the same vertices as ``Partition`` objects.
    """

    n: int
    parts: tuple[tuple[int, ...], ...]
    adj: tuple[tuple[int, ...], ...]
    parts_index: dict[tuple[int, ...], int] = field(repr=False, compare=False)

    @cached_property
    def vertices(self) -> tuple[Partition, ...]:
        """Every vertex as a ``Partition``, in canonical order.

        Built on the first access and kept for the life of the graph; the
        pipeline itself reads ``parts`` and never builds these.
        """
        return tuple(map(Partition, self.parts))

    def index_of(self, p: Partition) -> int:
        idx = self.parts_index.get(p.parts)
        if idx is None:
            raise ValueError(f"{format_partition(p)} is not a partition of {self.n}")
        return idx

    @property
    def edge_count(self) -> int:
        return sum(len(row) for row in self.adj) // 2

    def is_connected(self) -> bool:
        """True when the whole graph is one component."""
        return len(induced_components(self, range(len(self.adj)))) == 1

    def conjugation_permutation(self) -> tuple[int, ...]:
        """Vertex permutation induced by conjugating every partition.

        Built on the first call and kept for the life of the graph.
        """
        return self._conjugation

    @cached_property
    def _conjugation(self) -> tuple[int, ...]:
        index = self.parts_index
        return tuple(index[_conjugate(t)] for t in self.parts)

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
    parts = _partition_tuples(n)
    index = canonical_index(n)
    rows: list = [[] for _ in parts]
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
    return TransferGraph(n=n, parts=parts, adj=tuple(rows), parts_index=index)


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
