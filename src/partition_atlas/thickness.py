"""Exact per-vertex clique thickness of a transfer graph.

The thickness of a vertex is the size of the largest clique through it,
minus one. A largest clique through a partition p of n is all covers of
one partition of n - 1 below p, so the profile is read off the Young
diagrams in closed form (proof at ``transfer_graph._corner_thickness``).

The paper's method stays as :func:`local_simplex_dimension`, and as
:func:`clique_search_profile` for every vertex of a graph: every clique
through a vertex is that vertex plus a clique inside its neighborhood, so
each value is an exact maximum-clique search on the subgraph induced on
the neighbors. It shares no code with the closed form and cross-checks it.
"""

from __future__ import annotations

import json
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


def local_simplex_dimension(graph: TransferGraph, p: Partition) -> int:
    """Largest clique size through ``p``, minus one; 0 for an isolated vertex.

    Exact maximum-clique search on the neighborhood of ``p``, independent
    of the closed form that :func:`thickness_profile` uses.
    """
    v = graph.index_of(p)
    return _neighborhood_clique_size(graph.adj, v, [0] * len(graph.adj))


def clique_search_profile(graph: TransferGraph) -> tuple[int, ...]:
    """:func:`local_simplex_dimension` of every vertex, in canonical order.

    The same search, with one scratch list shared by every neighborhood of
    the graph instead of one allocated per vertex.
    """
    adj = graph.adj
    bit = [0] * len(adj)
    return tuple(_neighborhood_clique_size(adj, v, bit) for v in range(len(adj)))


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


def max_thickness_locus(graph: TransferGraph, profile: ThicknessProfile) -> tuple[Partition, ...]:
    """The partitions attaining ``tau_max``, in canonical order."""
    if graph.n != profile.n:
        raise ValueError("graph and profile must describe the same n")
    return tuple(Partition(graph.parts[i]) for i in profile.max_locus)


def brute_force_local_dimension(graph: TransferGraph, p: Partition) -> int:
    """Reference value for :func:`local_simplex_dimension`.

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
    return best


def _neighborhood_clique_size(adj: Sequence[Sequence[int]], v: int, bit: list[int]) -> int:
    members = adj[v]
    k = len(members)
    if k <= 1:
        return k
    return _max_clique(_local_rows(adj, members, bit))


def _local_rows(adj: Sequence[Sequence[int]], members: Sequence[int], bit: list[int]) -> list[int]:
    """Bitmask adjacency of the subgraph induced on ``members``.

    ``bit`` is an all-zero scratch list with one entry per vertex. It holds
    ``1 << i`` at the i-th member while the rows are summed, and is all
    zero again on return. Rows of ``adj`` are duplicate-free, so each sum
    of distinct powers of two is their bitwise or.
    """
    for i, u in enumerate(members):
        bit[u] = 1 << i
    get = bit.__getitem__
    rows = [sum(map(get, adj[u])) for u in members]
    for u in members:
        bit[u] = 0
    return rows


def _max_clique(rows: list[int]) -> int:
    """Size of a maximum clique of the bitmask graph ``rows``.

    Branch and bound with a greedy-coloring upper bound: the candidate set
    is colored in index order, then explored from the highest color down,
    so a branch is cut as soon as clique-so-far plus color cannot beat the
    best clique found.
    """
    return _expand(rows, 0, (1 << len(rows)) - 1, 0)


def _expand(rows: list[int], size: int, cand: int, best: int) -> int:
    """Best clique size after extending a clique of ``size`` from ``cand``.

    Module-level, so a search leaves no reference cycle for the garbage
    collector. A vertex is taken out of its color class and of ``cand``
    before its row is read, so a bit of its own in its row (a self-loop)
    cannot make the search loop.
    """
    seq: list[int] = []
    bound: list[int] = []
    uncolored = cand
    color = 0
    while uncolored:
        color += 1
        cls = uncolored
        while cls:
            bit = cls & -cls
            v = bit.bit_length() - 1
            cls ^= bit
            cls &= ~rows[v]
            uncolored ^= bit
            seq.append(v)
            bound.append(color)
    for idx in range(len(seq) - 1, -1, -1):
        if size + bound[idx] <= best:
            return best
        v = seq[idx]
        cand ^= 1 << v
        if size + 1 > best:
            best = size + 1
        nxt = cand & rows[v]
        if nxt:
            best = _expand(rows, size + 1, nxt, best)
    return best


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
