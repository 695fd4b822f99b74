"""Exact per-vertex clique thickness of a transfer graph.

The thickness of a vertex is the size of the largest clique through it,
minus one. A largest clique through a partition p of n is all covers of
one partition of n - 1 below p, so the profile is read off the Young
diagrams in closed form (proof at ``transfer_graph._corner_thickness``).

The paper's method stays as :func:`local_simplex_dimension`: every clique
through a vertex is that vertex plus a clique inside its neighborhood, so
each value is an exact maximum-clique search on the subgraph induced on
the neighbors. It shares no code with the closed form and cross-checks it.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Sequence

from .partitions import (
    Partition,
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
    return _neighborhood_clique_size(graph, graph.index_of(p))


def thickness_profile(graph: TransferGraph) -> ThicknessProfile:
    """Thickness of every vertex, from the Young-diagram corner formula.

    Each value depends on its own partition alone, so the profile is
    identical for any evaluation order; only ``graph.vertices`` is read.
    """
    tau = tuple(_corner_thickness(p.parts) for p in graph.vertices)
    tau_max = max(tau)
    locus = tuple(v for v, t in enumerate(tau) if t == tau_max)
    return ThicknessProfile(n=graph.n, tau=tau, tau_max=tau_max, max_locus=locus)


def max_thickness_locus(graph: TransferGraph, profile: ThicknessProfile) -> tuple[Partition, ...]:
    """The partitions attaining ``tau_max``, in canonical order."""
    if graph.n != profile.n:
        raise ValueError("graph and profile must describe the same n")
    return tuple(graph.vertices[i] for i in profile.max_locus)


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


def _neighborhood_clique_size(graph: TransferGraph, v: int) -> int:
    members = graph.adj[v]
    k = len(members)
    if k <= 1:
        return k
    return _max_clique(_local_rows(graph, members))


def _local_rows(graph: TransferGraph, members: Sequence[int]) -> list[int]:
    """Bitmask adjacency of the subgraph induced on ``members``."""
    pos = {u: i for i, u in enumerate(members)}
    rows = [0] * len(members)
    for i, u in enumerate(members):
        bits = 0
        for w in graph.adj[u]:
            j = pos.get(w)
            if j is not None:
                bits |= 1 << j
        rows[i] = bits
    return rows


def _max_clique(rows: list[int]) -> int:
    """Size of a maximum clique of the bitmask graph ``rows``.

    Branch and bound with a greedy-coloring upper bound: the candidate set
    is colored in index order, then explored from the highest color down,
    so a branch is cut as soon as clique-so-far plus color cannot beat the
    best clique found.
    """
    best = 0

    def expand(size: int, cand: int) -> None:
        nonlocal best
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
                cls &= ~rows[v]
                cls ^= bit
                uncolored ^= bit
                seq.append(v)
                bound.append(color)
        for idx in range(len(seq) - 1, -1, -1):
            if size + bound[idx] <= best:
                return
            v = seq[idx]
            nxt = cand & rows[v]
            if size + 1 > best:
                best = size + 1
            if nxt:
                expand(size + 1, nxt)
            cand ^= 1 << v

    expand(0, (1 << len(rows)) - 1)
    return best


def profile_csv(graph: TransferGraph, profile: ThicknessProfile) -> str:
    """CSV export, header ``partition,tau``, rows in canonical order.

    Partition text carries commas, so that field is quoted whenever the
    partition has more than one part.
    """
    if graph.n != profile.n:
        raise ValueError("graph and profile must describe the same n")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["partition", "tau"])
    writer.writerows(zip(partition_names(graph.n), profile.tau))
    return buffer.getvalue()


def profile_json(graph: TransferGraph, profile: ThicknessProfile) -> str:
    """JSON export with the full map plus ``tau_max`` and the maximal locus."""
    if graph.n != profile.n:
        raise ValueError("graph and profile must describe the same n")
    names = partition_names(graph.n)
    doc = {
        "n": profile.n,
        "tau_max": profile.tau_max,
        "max_locus": [names[i] for i in profile.max_locus],
        "tau": dict(zip(names, profile.tau)),
    }
    return json.dumps(doc, indent=2) + "\n"


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
