"""Threshold thick zones and their shell/core split against the framework."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .framework import FrameworkSet
from .partitions import _json_list, canonical_index, partition_names
from .thickness import ThicknessProfile
from .transfer_graph import TransferGraph, induced_components


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
    return frozenset(v for v, t in _indexed(profile) if t >= r)


def exact_regime(profile: ThicknessProfile, r: int) -> frozenset[int]:
    """Vertices of thickness exactly ``r``."""
    if r < 0:
        raise ValueError(f"r must be nonnegative, got {r}")
    return frozenset(v for v, t in _indexed(profile) if t == r)


def _indexed(profile: ThicknessProfile) -> Iterator[tuple[int, int]]:
    """``enumerate(profile.tau)``, with the indices drawn from :func:`canonical_index`.

    A zone set then holds the index's own int objects, which the graph
    rows share too, rather than one fresh int per member (at n=36 the
    order-1 zone would hold 1.02 MB instead of 0.52 MB). A profile whose
    length is not p(n) raises ``ValueError``.
    """
    return zip(canonical_index(profile.n).values(), profile.tau, strict=True)


def decompose(
    graph: TransferGraph,
    framework: FrameworkSet,
    profile: ThicknessProfile,
    r: int,
) -> ZoneDecomposition:
    """Split the threshold zone at ``r`` relative to the framework."""
    if not (graph.n == framework.n == profile.n):
        raise ValueError("graph, framework and profile must describe the same n")
    zone = threshold_zone(profile, r)
    components = []
    shell: set[int] = set()
    core: set[int] = set()
    for vs in induced_components(graph, zone):
        attached = not vs.isdisjoint(framework.all_indices)
        components.append(ZoneComponent(vertices=vs, boundary_attached=attached))
        (shell if attached else core).update(vs)
    return ZoneDecomposition(
        n=graph.n,
        r=r,
        threshold=zone,
        exact=exact_regime(profile, r),
        components=tuple(components),
        shell=frozenset(shell),
        core=frozenset(core),
    )


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
