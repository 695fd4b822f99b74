"""Exact per-vertex clique thickness of a transfer graph.

The thickness of a vertex is the size of the largest clique through it,
minus one. A largest clique through a partition p of n is all covers of
one partition of n - 1 below p, so the profile is read off the Young
diagrams in closed form (proof at ``transfer_graph._corner_thickness``).

:func:`clique_search_profile` computes the same values from the
adjacency rows alone: it finds every maximal clique of the graph once,
from its smallest vertex, with pivoted Bron-Kerbosch on bitmask rows. It
shares no code with the closed form and cross-checks it.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from .partitions import (
    Partition,
    _json_list,
    canonical_index,
    parse_partition,
    partition_count,
    partition_names,
)
from .transfer_graph import TransferGraph, _corner_thickness


@dataclass(frozen=True)
class ThicknessProfile:
    """Thickness of every vertex of one transfer graph.

    ``tau[i]`` is one less than the largest clique size through vertex
    ``i``; ``max_locus`` lists the indices attaining ``tau_max``.
    """

    n: int
    tau: tuple[int, ...]
    tau_max: int
    max_locus: tuple[int, ...]


def clique_search_profile(graph: TransferGraph) -> tuple[int, ...]:
    """Largest clique size through each vertex, minus one, in canonical order.

    An isolated vertex reads 0. Every clique has a smallest vertex m, and
    its other members lie in N+(m), the neighbors of m above m. So each
    maximal clique of the graph is found once, from its smallest vertex,
    as m plus a maximal clique of the subgraph induced on N+(m) (Eppstein,
    Loffler & Strash 2010), and its size is credited to m and to every
    member. A vertex's value is its largest credit, minus one. Only
    ``graph.adj`` is read, with one scratch list shared by every N+(m) of
    the graph. Each member's row is summed whole, since its entries at or
    below m carry no bit; cutting them off with a bisection per row
    measured no faster.
    """
    adj = graph.adj
    best = [1] * len(adj)
    bit = [0] * len(adj)
    cliques: list[int] = []
    for m, row in enumerate(adj):
        above = row[bisect_right(row, m) :]
        if not above:
            continue
        rows = _local_rows(adj, above, bit)
        _maximal_cliques(rows, 0, (1 << len(above)) - 1, 0, cliques)
        for c in cliques:
            size = c.bit_count() + 1
            if size > best[m]:
                best[m] = size
            while c:
                b = c & -c
                c ^= b
                w = above[b.bit_length() - 1]
                if size > best[w]:
                    best[w] = size
        cliques.clear()
    return tuple(size - 1 for size in best)


def thickness_profile(graph: TransferGraph) -> ThicknessProfile:
    """Thickness of every vertex, from the Young-diagram corner formula.

    Each value depends on its own partition alone, so the profile is
    identical for any evaluation order; only ``graph.parts`` is read.
    """
    return _corner_profile(graph.n, graph.parts)


def _corner_profile(n: int, parts: Sequence[tuple[int, ...]]) -> ThicknessProfile:
    """:func:`thickness_profile` from the vertices alone, with no graph built.

    ``parts`` are the parts tuples of every partition of ``n``, in
    canonical order.
    """
    tau = tuple(map(_corner_thickness, parts))
    tau_max = max(tau)
    locus = tuple(v for v, t in enumerate(tau) if t == tau_max)
    return ThicknessProfile(n=n, tau=tau, tau_max=tau_max, max_locus=locus)


def brute_force_local_dimension(graph: TransferGraph, p: Partition) -> int:
    """Largest clique size through ``p``, minus one, by exhaustive search.

    The reference value for :func:`clique_search_profile` at one vertex.

    Grows every clique of the neighborhood subgraph one vertex at a time,
    with no ordering, bounding, or pivoting, and records the largest size
    reached. Exponential by design; intended for cross-checks at small n.
    Shares no search code with the production path.
    """
    v = graph.index_of(p)
    members = list(graph.adj[v])
    if not members:
        return 0
    nbr = {u: set(graph.adj[u]) for u in members}
    best = 0

    def extend(size: int, candidates: list[int]) -> None:
        nonlocal best
        if size > best:
            best = size
        for i, u in enumerate(candidates):
            extend(size + 1, [w for w in candidates[i + 1 :] if w in nbr[u]])

    extend(0, members)
    # extend reaches itself through its closure cell; unbinding it breaks
    # that cycle, so the neighbour sets are freed now, not at a later gc
    del extend
    return best


def _local_rows(adj: Sequence[Sequence[int]], members: Sequence[int], bit: list[int]) -> list[int]:
    """Bitmask adjacency of the subgraph induced on ``members``.

    ``bit`` is an all-zero scratch list with one entry per vertex. It holds
    ``1 << i`` at the i-th member while the rows are summed, and is all
    zero again on return. Rows of ``adj`` are duplicate-free, so each sum
    of distinct powers of two is their bitwise or. A member's own bit is
    masked out of its row, so a self-loop cannot make
    :func:`_maximal_cliques` recurse forever.
    """
    for i, u in enumerate(members):
        bit[u] = 1 << i
    get = bit.__getitem__
    rows = [sum(map(get, adj[u])) & ~get(u) for u in members]
    for u in members:
        bit[u] = 0
    return rows


def _maximal_cliques(rows: list[int], clique: int, p: int, x: int, out: list[int]) -> None:
    """Append to ``out`` every maximal clique of the bitmask graph ``rows`` extending ``clique``.

    Bron-Kerbosch with Tomita's pivot. ``p`` holds the vertices that extend
    ``clique`` and are still to be tried, ``x`` those that extend it but
    were tried already; ``p`` is nonempty. The pivot is the vertex of
    ``p | x`` with the most neighbours in ``p``, and only the vertices of
    ``p`` outside its neighbourhood are branched on. A branch left with one
    candidate is closed in place rather than by another call. Module-level,
    so a search leaves no reference cycle for the garbage collector.
    """
    most = -1
    rest = p | x
    while rest:
        b = rest & -rest
        rest ^= b
        row = rows[b.bit_length() - 1]
        k = (p & row).bit_count()
        if k > most:
            most = k
            cover = row
    branch = p & ~cover
    while branch:
        b = branch & -branch
        branch ^= b
        row = rows[b.bit_length() - 1]
        q = p & row
        if q & (q - 1):
            _maximal_cliques(rows, clique | b, q, x & row, out)
        elif q:
            if not x & row & rows[q.bit_length() - 1]:
                out.append(clique | b | q)
        elif not x & row:
            out.append(clique | b)
        p ^= b
        x |= b


def profile_csv(graph: TransferGraph, profile: ThicknessProfile) -> str:
    """CSV export, header ``partition,tau``, rows in canonical order.

    Written directly, as :func:`profile_json` is. Partition text carries
    commas, so a name is quoted exactly when the partition has more than one
    part, as ``csv.writer`` quotes it.
    """
    if graph.n != profile.n:
        raise ValueError("graph and profile must describe the same n")
    rows = [
        f'"{name}",{t}\n' if "," in name else f"{name},{t}\n"
        for name, t in zip(partition_names(graph.n), profile.tau)
    ]
    return "partition,tau\n" + "".join(rows)


def profile_json(graph: TransferGraph, profile: ThicknessProfile) -> str:
    """JSON export with the full map plus ``tau_max`` and the maximal locus.

    Written directly, as :func:`zones.zone_json` is, with the bytes
    ``json.dumps(doc, indent=2)`` gives plus a newline.
    """
    if graph.n != profile.n:
        raise ValueError("graph and profile must describe the same n")
    names = partition_names(graph.n)
    locus = _json_list([f'"{names[i]}"' for i in profile.max_locus], 1)
    tau = ",\n    ".join([f'"{name}": {t}' for name, t in zip(names, profile.tau)])
    return (
        f'{{\n  "n": {profile.n},\n  "tau_max": {profile.tau_max},\n'
        f'  "max_locus": {locus},\n  "tau": {{\n    {tau}\n  }}\n}}\n'
    )


def profile_from_json(text: str) -> ThicknessProfile:
    """Rebuild a profile from :func:`profile_json` output, with validation.

    Any malformed, incomplete or inconsistent document raises ``ValueError``.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("profile document must be a JSON object")
    n = _typed_field(doc, "n", int)
    tau_map = _typed_field(doc, "tau", dict)
    stated_max = _typed_field(doc, "tau_max", int)
    stated_names = _typed_field(doc, "max_locus", list)
    # p(n) >= n, so the first test bounds n by the document size before
    # anything of size p(n) is computed
    if n > len(tau_map) or len(tau_map) != partition_count(n):
        raise ValueError(f"profile for n={n} lists {len(tau_map)} vertices, not p({n})")
    try:
        tau = tuple(tau_map[name] for name in partition_names(n))
    except KeyError as exc:
        raise ValueError(f"profile for n={n} lacks vertex {exc.args[0]}") from None
    if not all(type(t) is int for t in tau):
        raise ValueError(f"profile for n={n} has a non-integer thickness")
    # a largest clique through a vertex is the covers of one partition of
    # n - 1, and there are at most n of those
    if not all(0 <= t < n for t in tau):
        raise ValueError(f"profile for n={n} has a thickness outside 0..{n - 1}")
    tau_max = max(tau)
    locus = tuple(v for v, t in enumerate(tau) if t == tau_max)
    index = canonical_index(n)
    if not all(isinstance(name, str) for name in stated_names):
        raise ValueError(f"max_locus of the profile for n={n} must list partition strings")
    stated = [index.get(parse_partition(name).parts) for name in stated_names]
    if None in stated:
        raise ValueError(f"max_locus of the profile for n={n} names a foreign partition")
    if stated_max != tau_max or tuple(sorted(stated)) != locus:
        raise ValueError(f"inconsistent profile document for n={n}")
    return ThicknessProfile(n=n, tau=tau, tau_max=tau_max, max_locus=locus)


def _typed_field(doc: dict, key: str, kind: type):
    value = doc.get(key)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"profile document needs {key!r} of type {kind.__name__}")
    return value
