"""Threshold thick zones and their shell/core split against the framework.

Every zone is in closed form. For the thickness of
:func:`thickness.thickness_profile` and every r >= 1, the threshold zone
T_{>=r}(n) is empty or one connected component of G_n, so
:func:`decompose` reads no graph: the zone is its own one component,
boundary-attached exactly when it meets the framework. (T_{>=0}(n) is
all of G_n, which is connected.)

Proof. Write d(x) for the number of distinct parts of x, C(mu) for the
covers of a partition mu of n - 1 (a clique of G_n), and D_r(m) for the
partitions of m with at least r distinct parts.

- (A) By the corner formula (:func:`thickness._corner_thickness`), tau(p)
  is the largest d(mu) over the lower covers mu of p. So T_{>=r}(n) is the
  union of the cliques C(mu) over mu in D_r(n - 1).
- (B) Adjacent mu and mu' of G_{n-1} share n - 2 cells, so their union
  mu | mu' is a partition of n that covers both, and C(mu) meets C(mu').
  So T_{>=r}(n) is connected when D_r(n - 1) induces a connected subgraph
  of G_{n-1}.
- (C) D_r(m) induces a connected subgraph of G_m. A member lam has at
  least r - 1 distinct parts below lam_1, which sum to at least
  r(r-1)/2, so lam_1 <= m - r(r-1)/2, with equality only at
  rho = (m - r(r-1)/2, r-1, ..., 1). Every other member has a neighbor in
  D_r(m) with a longer first row, by a one-unit transfer into row 1, so a
  chain of such transfers leads from every member to rho. Taking the box
  off the last row of a run of value v and length j, followed by the
  value w (0 after the last run), changes d by the corner formula's gain
  [v > 1 and w != v - 1] - [j = 1]; then adding a box to row 1 keeps d,
  or raises it by one when the first run has length 2 or more.

  - If some run below the first has gain >= 0, move a unit from its last
    row to row 1: d does not fall.
  - Otherwise every run below the first has length 1 and is followed by
    the value one less, so lam = (a^k, s, s-1, ..., 1) with 0 <= s < a,
    and d(lam) = s + 1. If k = 1, either s + 1 = r and lam is rho, or
    d(lam) > r and any transfer into row 1, which lowers d by at most one,
    keeps d >= r. If k >= 2, move a unit from row k: lam becomes
    (a+1, a^(k-2), a-1, s, ..., 1), a zero part dropped, where a + 1
    takes the place of a and s, ..., 1 stay, so d does not fall.

The shells and cores follow. Every framework vertex has tau <= 2 (see
:func:`framework.boundary_framework`), so for r >= 3 the zone misses the
framework: Sh_r(n) is empty and Core_r(n) = T_{>=r}(n). The framework
vertex (n-2, 2), n >= 4, has the lower cover (n-2, 1) with two distinct
parts, so tau = 2, and Sh_2(n) = T_{>=2}(n) with Core_2(n) empty from
n = 4 on (below, T_{>=2} is empty). So a :class:`ZoneDecomposition`
holds the zone, its exact regime and one bit, whether the zone meets
the framework, and reads its shell, core and component off them.

The closed form holds for the thickness ``thickness_profile(n)``
computes, not for made-up tau values, whose zones may split. The
``verify`` check "threshold zones are connected" witnesses it at every n
it checks, with no decomposition: it walks the rows of G_n inside each
level set of tau.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import eq, le
from typing import Callable, NamedTuple, Sequence

from .framework import FrameworkSet
from .partitions import _json_list, canonical_index, partition_names
from .thickness import ThicknessProfile


class ZoneComponent(NamedTuple):
    vertices: frozenset[int]
    boundary_attached: bool


# the one empty side of every zone
_EMPTY: frozenset[int] = frozenset()


class ZoneDecomposition(NamedTuple):
    """One threshold zone split into boundary shell and interior core.

    The zone is empty or one connected component (see the module
    docstring), ``attached`` when it meets the framework vertex set. So
    the split is one bit, and ``shell``, ``core`` and ``components`` are
    read off ``threshold`` and ``attached``: the shell is the whole zone
    and the core the shared empty set when it is attached, and the other
    way round when it is not.
    """

    n: int
    r: int
    threshold: frozenset[int]
    exact: frozenset[int]
    attached: bool

    @property
    def shell(self) -> frozenset[int]:
        return self.threshold if self.attached else _EMPTY

    @property
    def core(self) -> frozenset[int]:
        return _EMPTY if self.attached else self.threshold

    @property
    def components(self) -> tuple[ZoneComponent, ...]:
        """The components of the subgraph induced on the zone: none, or the zone itself."""
        return (ZoneComponent(self.threshold, self.attached),) if self.threshold else ()


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


def decompose(framework: FrameworkSet, profile: ThicknessProfile, r: int) -> ZoneDecomposition:
    """Split the threshold zone at ``r`` relative to the framework, in closed form.

    The zone is empty or one component (see the module docstring), so the
    split is whether it meets ``framework.all_indices``: then the zone is
    all shell, and otherwise all core. Every order is made from the
    profile alone, one pass for the zone and one for its exact regime.
    """
    if framework.n != profile.n:
        raise ValueError("framework and profile must describe the same n")
    threshold = threshold_zone(profile, r)
    attached = not framework.all_indices.isdisjoint(threshold)
    return ZoneDecomposition(profile.n, r, threshold, exact_regime(profile, r), attached)


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
    dec = decomposition
    names = partition_names(dec.n)
    # the zone's names are quoted once, and joined once per depth
    zone = [f'"{names[v]}"' for v in sorted(dec.threshold)]
    outer = _json_list(zone, 1)
    shell, core = (outer, "[]") if dec.attached else ("[]", outer)
    flag = "true" if dec.attached else "false"
    component = f'{{\n      "vertices": {_json_list(zone, 3)},\n'
    component += f'      "boundary_attached": {flag}\n    }}'
    exact = _json_list([f'"{names[v]}"' for v in sorted(dec.exact)], 1)
    return (
        f'{{\n  "n": {dec.n},\n  "r": {dec.r},\n  "threshold": {outer},\n'
        f'  "exact": {exact},\n  "shell": {shell},\n  "core": {core},\n'
        f'  "components": {_json_list([component] if zone else [], 1)}\n}}\n'
    )
