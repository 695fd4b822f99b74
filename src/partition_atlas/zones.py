"""Threshold thick zones and their shell/core split against the framework.

The zones are nested, T_{>=r+1} inside T_{>=r}, so every order of one
graph comes from one sweep downward from ``tau_max``: each step adds the
vertices of thickness r, reads only their rows, and merges the
components they join (:func:`zone_sweep`, one :func:`decompose` step per
order).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import eq, le
from typing import Callable, Iterable, Iterator, Sequence

from .framework import FrameworkSet
from .partitions import _json_list, canonical_index, partition_names
from .thickness import ThicknessProfile
from .transfer_graph import TransferGraph


@dataclass(frozen=True)
class ZoneComponent:
    vertices: frozenset[int]
    boundary_attached: bool


@dataclass(frozen=True)
class ZoneDecomposition:
    """One threshold zone split into boundary shell and interior core.

    ``components`` are the connected components of the subgraph induced on
    the zone, ordered by smallest member; a component is boundary-attached
    when it intersects the framework vertex set. The shell collects the
    attached components, the core everything else.
    """

    n: int
    r: int
    threshold: frozenset[int]
    exact: frozenset[int]
    components: tuple[ZoneComponent, ...]
    shell: frozenset[int]
    core: frozenset[int]


def threshold_zone(profile: ThicknessProfile, r: int) -> frozenset[int]:
    """Vertices of thickness at least ``r``; everything at r=0."""
    if r < 0:
        raise ValueError(f"r must be nonnegative, got {r}")
    return _members(profile, le, r)


def exact_regime(profile: ThicknessProfile, r: int) -> frozenset[int]:
    """Vertices of thickness exactly ``r``."""
    if r < 0:
        raise ValueError(f"r must be nonnegative, got {r}")
    return _members(profile, eq, r)


def _members(profile: ThicknessProfile, op: Callable[[int, int], bool], r: int) -> frozenset[int]:
    """The vertices v with ``op(r, tau[v])``, drawn from :func:`canonical_index`.

    A zone set then holds the index's own int objects, which the graph
    rows share too, rather than one fresh int per member (at n=36 the
    order-1 zone would hold 1.02 MB instead of 0.52 MB). A profile whose
    length is not p(n) raises ``ValueError``.
    """
    ints = canonical_index(profile.n).values()
    if len(profile.tau) != len(ints):
        raise ValueError(f"profile for n={profile.n} lists {len(profile.tau)} vertices, not p(n)")
    return frozenset(compress(ints, map(op, repeat(r), profile.tau)))


def decompose(
    graph: TransferGraph,
    framework: FrameworkSet,
    profile: ThicknessProfile,
    r: int,
    above: ZoneDecomposition | None = None,
) -> ZoneDecomposition:
    """Split the threshold zone at ``r`` relative to the framework.

    The zone of order r is the zone of order r + 1 plus the vertices of
    thickness exactly r, so the zones are grown in one sweep from the top
    order down. ``above`` is the decomposition of order r + 1 of the same
    graph; given it, this is one step of the sweep, which reads only the
    rows of the new vertices. Without it, the sweep starts from the empty
    zone above ``tau_max`` (or above r, if r is higher) and steps down to r.
    """
    if not (graph.n == framework.n == profile.n):
        raise ValueError("graph, framework and profile must describe the same n")
    if r < 0:
        raise ValueError(f"r must be nonnegative, got {r}")
    if above is None:
        empty: frozenset[int] = frozenset()
        top = max(r, profile.tau_max) + 1
        above = ZoneDecomposition(graph.n, top, empty, empty, (), empty, empty)
        for q in range(top - 1, r, -1):
            above = _grow(graph, framework, profile, q, above)
    elif above.n != graph.n or above.r != r + 1:
        raise ValueError(f"above must be the order-{r + 1} decomposition for n={graph.n}")
    return _grow(graph, framework, profile, r, above)


def zone_sweep(
    graph: TransferGraph,
    framework: FrameworkSet,
    profile: ThicknessProfile,
    low: int = 1,
) -> Iterator[ZoneDecomposition]:
    """:func:`decompose` of every order from ``tau_max`` down to ``low``.

    Each order is grown from the one before, and is handed out before the
    next is made, so a caller that writes and drops each holds no more
    than two at a time.
    """
    above = None
    for r in range(profile.tau_max, low - 1, -1):
        above = decompose(graph, framework, profile, r, above)
        yield above


def _grow(
    graph: TransferGraph,
    framework: FrameworkSet,
    profile: ThicknessProfile,
    r: int,
    above: ZoneDecomposition,
) -> ZoneDecomposition:
    """The decomposition of order ``r``, from ``above``, that of order r + 1.

    Every zone vertex is labelled with its group, and each component above
    starts as one group. The row of each new vertex is read once: the
    vertex joins one of the groups its labelled neighbors hold, or a group
    of its own, and every other group it meets is merged in, the smaller
    relabelled into the larger. So over the whole sweep each edge is read
    at most twice. A component above that gains nothing is carried over
    as it is.
    """
    adj = graph.adj
    exact = exact_regime(profile, r)
    label: dict[int, int] = {}
    # per group: the components above it holds and its new vertices; a
    # merged-away group is None
    olds: list = []
    news: list = []
    for g, comp in enumerate(above.components):
        label.update(dict.fromkeys(comp.vertices, g))
        olds.append([comp])
        news.append([])
    get = label.get
    for v in exact:
        met = set(map(get, adj[v]))
        met.discard(None)
        if met:
            own = met.pop()
        else:
            own = len(olds)
            olds.append([])
            news.append([])
        for other in met:
            if _size(olds[own], news[own]) < _size(olds[other], news[other]):
                own, other = other, own
            for comp in olds[other]:
                label.update(dict.fromkeys(comp.vertices, own))
            label.update(dict.fromkeys(news[other], own))
            olds[own] += olds[other]
            news[own] += news[other]
            olds[other] = news[other] = None
        label[v] = own
        news[own].append(v)
    # the labels go before the new sets are built, so the two never coexist
    del label, get
    border = framework.all_indices
    components = []
    for group, new in zip(olds, news):
        if group is None:
            continue
        if not new:
            components.append(group[0])
            continue
        members = frozenset().union(*[comp.vertices for comp in group], new)
        attached = any(c.boundary_attached for c in group) or not border.isdisjoint(new)
        components.append(ZoneComponent(vertices=members, boundary_attached=attached))
    if len(components) > 1:
        components.sort(key=lambda c: min(c.vertices))
    shell = [c.vertices for c in components if c.boundary_attached]
    core = [c.vertices for c in components if not c.boundary_attached]
    return ZoneDecomposition(
        n=graph.n,
        r=r,
        threshold=above.threshold | exact,
        exact=exact,
        components=tuple(components),
        shell=frozenset().union(*shell),
        core=frozenset().union(*core),
    )


def _size(olds: list[ZoneComponent], news: list[int]) -> int:
    return sum(len(comp.vertices) for comp in olds) + len(news)


@dataclass(frozen=True)
class FirstOccurrenceTable:
    """Smallest n realizing each thickness order within a computed range.

    Orders not realized by any n up to ``range_max`` are simply absent;
    absence is a truncation fact, not a value.
    """

    entries: dict[int, int]
    range_max: int


def first_occurrences(profiles: Sequence[ThicknessProfile]) -> FirstOccurrenceTable:
    """First n at which each order r >= 2 appears, over profiles for 1..N."""
    if not profiles:
        raise ValueError("at least one profile is required")
    for i, prof in enumerate(profiles):
        if prof.n != i + 1:
            raise ValueError("profiles must cover a contiguous range starting at 1")
    entries: dict[int, int] = {}
    for prof in profiles:
        for r in range(2, prof.tau_max + 1):
            entries.setdefault(r, prof.n)
    return FirstOccurrenceTable(entries=dict(sorted(entries.items())), range_max=len(profiles))


def first_occurrences_csv(table: FirstOccurrenceTable) -> str:
    """CSV export, header ``r,n_r``; explains itself when empty."""
    lines = ["r,n_r"]
    if not table.entries:
        lines.append(f"# no vertex reaches thickness 2 for any n <= {table.range_max}")
    for r, n_r in table.entries.items():
        lines.append(f"{r},{n_r}")
    return "\n".join(lines) + "\n"


def zone_json(graph: TransferGraph, decomposition: ZoneDecomposition) -> str:
    """JSON export of one decomposition, partitions in canonical text form.

    The text is written directly, with the bytes ``json.dumps(doc,
    indent=2)`` gives plus a newline; names are digits and commas, so
    nothing needs escaping.
    """
    if graph.n != decomposition.n:
        raise ValueError("graph and decomposition must describe the same n")

    table = partition_names(graph.n)
    components = [
        f'{{\n      "vertices": {_name_list(table, c.vertices, 3)},\n'
        f'      "boundary_attached": {"true" if c.boundary_attached else "false"}\n    }}'
        for c in decomposition.components
    ]
    return (
        f'{{\n  "n": {decomposition.n},\n  "r": {decomposition.r},\n'
        f'  "threshold": {_name_list(table, decomposition.threshold, 1)},\n'
        f'  "exact": {_name_list(table, decomposition.exact, 1)},\n'
        f'  "shell": {_name_list(table, decomposition.shell, 1)},\n'
        f'  "core": {_name_list(table, decomposition.core, 1)},\n'
        f'  "components": {_json_list(components, 1)}\n}}\n'
    )


def _name_list(table: Sequence[str], idxs: Iterable[int], depth: int) -> str:
    """JSON list of the names at ``idxs`` in index order, nested ``depth`` deep."""
    return _json_list([f'"{table[i]}"' for i in sorted(idxs)], depth)
