"""Exact per-vertex clique thickness of the transfer graph on the partitions of n.

The thickness of a vertex is the size of the largest clique through it,
minus one. A largest clique through a partition p of n is all covers of
one partition of n - 1 below p, so tau(p) is read off the Young diagram
of p in closed form (proof at :func:`_corner_thickness`). The profile is
thus a function of n alone: :func:`thickness_profile` builds no graph,
and the writers read only the profile.

:func:`clique_search_profile` computes the same values from the
adjacency rows alone: it finds every maximal clique of the graph once,
from its smallest vertex, with pivoted Bron-Kerbosch on bitmask rows.
Given an involutive automorphism, such as conjugation, it searches only
from the smaller vertex of each pair it swaps and copies each value onto
the image. It shares no code with the closed form and cross-checks it.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from typing import NamedTuple, Sequence

from .partitions import _json_list, enumerate_partitions, partition_count, partition_names
from .transfer_graph import TransferGraph, automorphism_fault


class ThicknessProfile(NamedTuple):
    """Thickness of every partition of ``n``, indexed as the vertices of its graph.

    ``tau[i]`` is one less than the largest clique size through vertex
    ``i``; ``max_locus`` lists the indices attaining ``tau_max``.
    """

    n: int
    tau: tuple[int, ...]
    tau_max: int
    max_locus: tuple[int, ...]


def thickness_profile(n: int) -> ThicknessProfile:
    """Thickness of every partition of ``n``, from the Young-diagram corner formula.

    Each value depends on its own partition alone, so no graph is built.
    The partitions come from :func:`enumerate_partitions`, so a caller
    that has just built the graph of ``n`` reuses its cached tuple.
    """
    tau = tuple(map(_corner_thickness, enumerate_partitions(n)))
    tau_max = max(tau)
    locus = tuple(v for v, t in enumerate(tau) if t == tau_max)
    return ThicknessProfile(n=n, tau=tau, tau_max=tau_max, max_locus=locus)


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


def clique_search_profile(
    graph: TransferGraph, automorphism: Sequence[int] | None = None
) -> tuple[int, ...]:
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

    ``automorphism`` is an involution sigma of the graph, such as
    ``graph.conjugation_permutation()``; None is the identity. The search
    starts only from the m of R = {m : m <= sigma(m)}, then gives each v
    the larger of its own value and sigma(v)'s. Nothing is missed. Let K
    be a maximal clique and m = min K, with sigma(m) < m, and let
    u = min sigma(K). Then u <= sigma(m) < m <= sigma(u), as sigma(u) lies
    in K, so u is in R: K or sigma(K) has its smallest vertex in R. sigma
    maps maximal cliques onto maximal cliques of the same size, so the
    size of K, credited to sigma(v) through sigma(K), comes back to v in
    the image step. sigma is proved first (see
    :func:`transfer_graph.automorphism_fault`); one that fails raises
    ``ValueError`` naming the vertex, as does one of the wrong length or
    with an entry that is not a vertex.
    """
    adj = graph.adj
    if automorphism is None:
        sigma: Sequence[int] = range(len(adj))
    else:
        fault = automorphism_fault(graph, automorphism)
        if fault is not None:
            raise ValueError(f"not an involutive automorphism of G_{graph.n} at vertex {fault}")
        sigma = automorphism
    best = [1] * len(adj)
    bit = [0] * len(adj)
    cliques: list[int] = []
    for m, row in enumerate(adj):
        if sigma[m] < m:
            continue
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
    for v, s in enumerate(sigma):
        if best[s] > best[v]:
            best[v] = best[s]
    return tuple(size - 1 for size in best)


def brute_force_local_dimension(graph: TransferGraph, p: tuple[int, ...]) -> int:
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


def profile_csv(profile: ThicknessProfile) -> str:
    """CSV export, header ``partition,tau``, rows in canonical order.

    Written directly, as :func:`profile_json` is. Partition text carries
    commas, so a name is quoted exactly when the partition has more than one
    part, as ``csv.writer`` quotes it.
    """
    rows = [
        f'"{name}",{t}\n' if "," in name else f"{name},{t}\n"
        for name, t in zip(partition_names(profile.n), profile.tau)
    ]
    return "partition,tau\n" + "".join(rows)


def profile_json(profile: ThicknessProfile) -> str:
    """JSON export with the full map plus ``tau_max`` and the maximal locus.

    Written directly, as :func:`zones.zone_json` is, with the bytes
    ``json.dumps(doc, indent=2)`` gives plus a newline.
    """
    names = partition_names(profile.n)
    locus = _json_list([f'"{names[i]}"' for i in profile.max_locus], 1)
    tau = ",\n    ".join([f'"{name}": {t}' for name, t in zip(names, profile.tau)])
    return (
        f'{{\n  "n": {profile.n},\n  "tau_max": {profile.tau_max},\n'
        f'  "max_locus": {locus},\n  "tau": {{\n    {tau}\n  }}\n}}\n'
    )


def profile_from_json(text: str) -> ThicknessProfile:
    """Rebuild a profile from :func:`profile_json` output, with validation.

    The profile is recomputed from the corner formula and returned only
    when the document states exactly its thickness map, ``tau_max`` and
    maximal locus (locus in any order). Any malformed, incomplete, stale
    or inconsistent document raises ``ValueError``.
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
    names = partition_names(n)
    try:
        tau = tuple(tau_map[name] for name in names)
    except KeyError as exc:
        raise ValueError(f"profile for n={n} lacks vertex {exc.args[0]}") from None
    if not all(type(t) is int for t in tau):
        raise ValueError(f"profile for n={n} has a non-integer thickness")
    if not all(isinstance(name, str) for name in stated_names):
        raise ValueError(f"max_locus of the profile for n={n} must list partition strings")
    # the document must hold exactly what compute writes for n
    profile = thickness_profile(n)
    if tau != profile.tau:
        name, t, expected = next(x for x in zip(names, tau, profile.tau) if x[1] != x[2])
        raise ValueError(f"profile for n={n} gives {name} thickness {t}, not {expected}")
    locus = sorted([names[i] for i in profile.max_locus])
    if stated_max != profile.tau_max or sorted(stated_names) != locus:
        raise ValueError(f"inconsistent profile document for n={n}")
    return profile


def _typed_field(doc: dict, key: str, kind: type):
    value = doc.get(key)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"profile document needs {key!r} of type {kind.__name__}")
    return value
