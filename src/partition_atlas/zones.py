"""Threshold thick zones and their shell/core split against the framework.

The zones are nested, T_{>=k} inside T_{>=r} for every k > r, so a zone
grows from any higher order: one step adds the vertices with
r <= tau < k, reads only their rows, and merges the components they join
(:func:`decompose`). Every order of one graph comes from one sweep
downward from ``tau_max``, one step per order (:func:`zone_sweep`).
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import eq, le
from typing import Callable, Iterator, NamedTuple, Sequence

from .framework import FrameworkSet
from .partitions import _json_list, canonical_index, partition_names
from .thickness import ThicknessProfile
from .transfer_graph import TransferGraph


class ZoneComponent(NamedTuple):
    vertices: frozenset[int]
    boundary_attached: bool


class ZoneDecomposition:
    """One threshold zone split into boundary shell and interior core.

    ``components`` are the connected components of the subgraph induced on
    the zone, ordered by smallest member; a component is boundary-attached
    when it intersects the framework vertex set. The shell collects the
    attached components, the core everything else.

    Fields that hold the same vertex set may be one object: a component
    that is the whole zone holds ``threshold`` itself, as does ``shell``
    when every component is attached (``core`` when none is), and the
    other side is one shared empty set.

    Two decompositions are equal when every field is. Not a tuple, so that
    a caller may hold a weak reference to one.
    """

    __slots__ = ("n", "r", "threshold", "exact", "components", "shell", "core", "__weakref__")

    def __init__(
        self,
        n: int,
        r: int,
        threshold: frozenset[int],
        exact: frozenset[int],
        components: tuple[ZoneComponent, ...],
        shell: frozenset[int],
        core: frozenset[int],
    ) -> None:
        self.n = n
        self.r = r
        self.threshold = threshold
        self.exact = exact
        self.components = components
        self.shell = shell
        self.core = core

    def _values(self) -> tuple:
        return (self.n, self.r, self.threshold, self.exact, self.components, self.shell, self.core)

    def __repr__(self) -> str:
        fields = zip(self.__slots__, self._values())
        return f"ZoneDecomposition({', '.join(f'{name}={value!r}' for name, value in fields)})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())


# the one empty side of every zone whose components all fall on the other
_EMPTY: frozenset[int] = frozenset()


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

    The zone of order r is the zone of any higher order k plus the
    vertices with r <= tau < k. ``above`` is a decomposition of a higher
    order of the same graph; given it, this is one growth step, which
    reads only the rows of the added vertices. Without it, the step starts
    from the empty zone above ``tau_max`` (or above r, if r is higher).
    """
    if not (graph.n == framework.n == profile.n):
        raise ValueError("graph, framework and profile must describe the same n")
    if r < 0:
        raise ValueError(f"r must be nonnegative, got {r}")
    if above is None:
        empty: frozenset[int] = frozenset()
        top = max(r, profile.tau_max) + 1
        above = ZoneDecomposition(graph.n, top, empty, empty, (), empty, empty)
    elif above.n != graph.n or above.r <= r:
        raise ValueError(f"above must decompose an order above {r} for n={graph.n}")
    return _grow(graph, framework, profile, r, above)


def zone_sweep(
    graph: TransferGraph, framework: FrameworkSet, profile: ThicknessProfile
) -> Iterator[ZoneDecomposition]:
    """:func:`decompose` of every order from ``tau_max`` down to 1.

    Each order is grown from the one before, and is handed out before the
    next is made, so a caller that writes and drops each holds no more
    than two at a time.
    """
    above = None
    for r in range(profile.tau_max, 0, -1):
        above = decompose(graph, framework, profile, r, above)
        yield above


def _grow(
    graph: TransferGraph,
    framework: FrameworkSet,
    profile: ThicknessProfile,
    r: int,
    above: ZoneDecomposition,
) -> ZoneDecomposition:
    """The decomposition of order ``r``, from ``above``, one of a higher order.

    The added vertices are those with r <= tau < ``above.r``: the exact
    regime when ``above`` is order r + 1, as in the sweep. Every zone
    vertex is labelled with its group, and each component above starts as
    one group. The row of each added vertex is read once: the vertex joins
    one of the groups its labelled neighbors hold, or a group of its own,
    and every other group it meets is merged in, the smaller relabelled
    into the larger. So over the whole sweep each edge is read at most
    twice. A component above that gains nothing is carried over as it is.
    """
    adj = graph.adj
    exact = exact_regime(profile, r)
    if above.r == r + 1:
        added = exact
        if above.threshold and exact:
            threshold = above.threshold | exact
        else:
            # one side is empty: the zone is the other set itself, not a copy
            threshold = above.threshold or exact
    else:
        # above.threshold is T_{>=above.r}, so the rest has r <= tau < above.r;
        # from the empty zone, every member is added and no copy is made
        threshold = threshold_zone(profile, r)
        added = threshold - above.threshold if above.threshold else threshold
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
    for v in added:
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
        if _size(group, new) == len(threshold):
            # the whole zone: its one component holds the zone's own set
            members = threshold
        elif not new:
            components.append(group[0])
            continue
        else:
            members = frozenset().union(*[comp.vertices for comp in group], new)
        attached = any(c.boundary_attached for c in group) or not border.isdisjoint(new)
        components.append(ZoneComponent(vertices=members, boundary_attached=attached))
    if len(components) > 1:
        components.sort(key=lambda c: min(c.vertices))
    shell = [c.vertices for c in components if c.boundary_attached]
    core = [c.vertices for c in components if not c.boundary_attached]
    # a side that takes every component is the zone itself, the other empty
    if not core:
        shell, core = threshold, _EMPTY
    elif not shell:
        shell, core = _EMPTY, threshold
    else:
        shell, core = frozenset().union(*shell), frozenset().union(*core)
    return ZoneDecomposition(
        n=graph.n,
        r=r,
        threshold=threshold,
        exact=exact,
        components=tuple(components),
        shell=shell,
        core=core,
    )


def _size(olds: list[ZoneComponent], news: list[int]) -> int:
    return sum(len(comp.vertices) for comp in olds) + len(news)


def first_occurrences(tau_maxes: Sequence[int]) -> dict[int, int]:
    """First n at which each order r >= 2 appears, given tau_max at n = 1, 2, ...

    Orders not realized by any n of the range are simply absent; absence
    is a truncation fact, not a value.
    """
    entries: dict[int, int] = {}
    for n, tau_max in enumerate(tau_maxes, 1):
        for r in range(2, tau_max + 1):
            entries.setdefault(r, n)
    return dict(sorted(entries.items()))


def first_occurrences_csv(entries: dict[int, int], range_max: int) -> str:
    """CSV export of :func:`first_occurrences` over n = 1..``range_max``, header ``r,n_r``.

    An empty table explains itself.
    """
    lines = ["r,n_r"]
    if not entries:
        lines.append(f"# no vertex reaches thickness 2 for any n <= {range_max}")
    for r, n_r in entries.items():
        lines.append(f"{r},{n_r}")
    return "\n".join(lines) + "\n"


def zone_json(decomposition: ZoneDecomposition) -> str:
    """JSON export of one decomposition, partitions in canonical text form.

    The text is written directly, with the bytes ``json.dumps(doc,
    indent=2)`` gives plus a newline; names are digits and commas, so
    nothing needs escaping.
    """
    name = partition_names(decomposition.n).__getitem__
    # fields that share one set share its sorted names, and at one depth
    # its text; each list is one join, with the quotes in the separator
    listed: dict[int, list[str]] = {}
    texts: dict[tuple[int, int], str] = {}

    def name_list(idxs: frozenset[int], depth: int) -> str:
        if not idxs:
            return "[]"
        text = texts.get((id(idxs), depth))
        if text is None:
            names = listed.get(id(idxs))
            if names is None:
                names = listed[id(idxs)] = list(map(name, sorted(idxs)))
            pad = "  " * depth
            inner = f'",\n{pad}  "'.join(names)
            text = texts[id(idxs), depth] = f'[\n{pad}  "{inner}"\n{pad}]'
        return text

    components = [
        f'{{\n      "vertices": {name_list(c.vertices, 3)},\n'
        f'      "boundary_attached": {"true" if c.boundary_attached else "false"}\n    }}'
        for c in decomposition.components
    ]
    return (
        f'{{\n  "n": {decomposition.n},\n  "r": {decomposition.r},\n'
        f'  "threshold": {name_list(decomposition.threshold, 1)},\n'
        f'  "exact": {name_list(decomposition.exact, 1)},\n'
        f'  "shell": {name_list(decomposition.shell, 1)},\n'
        f'  "core": {name_list(decomposition.core, 1)},\n'
        f'  "components": {_json_list(components, 1)}\n}}\n'
    )
