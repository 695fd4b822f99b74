"""Named verification checks over a computed range of n.

Each check covers one documented property of the pipeline and is one
entry of :data:`CHECKS`. The runner takes the requested range one n at a
time: it builds that n's graph, profile, framework and zones once,
evaluates every check against them, and drops them before the next n, so
memory follows the largest n of the range rather than the whole range.
The n are independent, so they may be spread over worker processes; only
each check's outcome comes back, and the outcomes are merged in n order.
It reports one result per check.
"""

from __future__ import annotations

import filecmp
import tempfile
import time
from dataclasses import dataclass, field
from itertools import zip_longest
from math import isqrt
from pathlib import Path
from typing import Callable

from . import REFERENCE_RANGE_MAX
from .atlas import _cells, atlas_chunks
from .framework import FrameworkSet, boundary_framework, self_conjugate_axis
from .partitions import enumerate_partitions, format_partition, partition_count
from .pipeline import map_n
from .thickness import (
    ThicknessProfile,
    brute_force_local_dimension,
    clique_search_profile,
    thickness_profile,
)
from .transfer_graph import TransferGraph, bfs_distances, build_graph, induced_components
from .zones import ZoneDecomposition, zone_sweep

ORACLE_RANGE_MAX = 12


@dataclass(frozen=True)
class CheckResult:
    """One verdict; ``seconds`` is the time the check took, not part of it."""

    name: str
    ok: bool
    detail: str = ""
    seconds: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class _Range:
    """The range ``n_min..n_max`` being checked."""

    n_min: int
    n_max: int


@dataclass(frozen=True)
class _Bundle:
    """Everything the checks read of one n, built once and dropped after it.

    ``zones[r]`` is the decomposition of order r, for r = 1..tau_max.
    """

    n: int
    graph: TransferGraph
    profile: ThicknessProfile
    framework: FrameworkSet
    zones: dict[int, ZoneDecomposition]


def _bundle(n: int) -> _Bundle:
    graph = build_graph(n)
    profile = thickness_profile(n)
    framework = boundary_framework(n)
    # the sweep runs from tau_max down; the checks read the orders upward
    zones = {dec.r: dec for dec in reversed(list(zone_sweep(graph, framework, profile)))}
    return _Bundle(n, graph, profile, framework, zones)


def profile_conjugation_ok(graph: TransferGraph, profile: ThicknessProfile) -> bool:
    """True when every vertex and its conjugate carry the same thickness."""
    sigma = graph.conjugation_permutation()
    return all(profile.tau[i] == profile.tau[sigma[i]] for i in range(len(sigma)))


def set_conjugation_invariant(graph: TransferGraph, vertex_set: frozenset[int]) -> bool:
    sigma = graph.conjugation_permutation()
    return all(sigma[i] in vertex_set for i in vertex_set)


def _distinct_odd_part_count(n: int) -> int:
    """Partitions of n into distinct odd parts, by subset-sum counting."""
    table = [1] + [0] * n
    for part in range(1, n + 1, 2):
        for m in range(n, part - 1, -1):
            table[m] += table[m - part]
    return table[n]


def _fail_if(condition: bool, message: str, *args: object) -> None:
    """Fail the running check; ``message`` is formatted with ``args`` only then."""
    if condition:
        raise AssertionError(message.format(*args))


# one check at one n: passed, its detail or failure message, and its seconds
_Outcome = tuple[bool, str, float]


def _outcome(check: Callable[[_Range, _Bundle], str], run: _Range, b: _Bundle) -> _Outcome:
    start = time.perf_counter()
    try:
        ok, text = True, check(run, b)
    except Exception as exc:  # a crash is a failed check, not a crash of verify
        ok, text = False, f"raised {type(exc).__name__}: {exc}"
    return ok, text, time.perf_counter() - start


def _check_n(n: int, n_min: int, n_max: int) -> list[_Outcome]:
    """One outcome per check on n's bundle; only these outlive the bundle."""
    run = _Range(n_min, n_max)
    b = _bundle(n)
    return [_outcome(check, run, b) for _, check in CHECKS]


def run_checks(n_min: int = 1, n_max: int = 30, workers: int = 1) -> list[CheckResult]:
    """Evaluate every check of :data:`CHECKS` for the range ``n_min..n_max``.

    Each check is called once per n, with that n's bundle. A check that
    raises at some n fails with the message of the smallest such n;
    otherwise the detail it returns at ``n_max`` is its verdict.

    With ``workers`` above 1 the n are spread over that many processes
    (see :func:`pipeline.map_n`); the results are the same, and each
    check's ``seconds`` is the time it spent summed over n and workers.
    """
    if not (1 <= n_min <= n_max):
        raise ValueError(f"invalid range {n_min}..{n_max}")

    per_n = map_n(_check_n, range(n_min, n_max + 1), workers, n_min, n_max)
    report: list[CheckResult] = []
    # each check's outcomes, in increasing n
    for (name, _), over_n in zip(CHECKS, zip(*per_n)):
        failed = [text for ok, text, _ in over_n if not ok]
        detail = failed[0] if failed else over_n[-1][1]
        report.append(CheckResult(name, not failed, detail, sum(s for _, _, s in over_n)))
    return report


def _check_partition_counts(run: _Range, b: _Bundle) -> str:
    size = len(enumerate_partitions(b.n))
    _fail_if(size != partition_count(b.n), "enumeration size mismatch at n={}", b.n)
    return f"p(n) agrees with the recurrence for n={run.n_min}..{run.n_max}"


def _check_enumeration_order(run: _Range, b: _Bundle) -> str:
    n = b.n
    parts = enumerate_partitions(n)
    _fail_if(parts[0] != (n,), "first vertex at n={}", n)
    _fail_if(parts[-1] != (1,) * n, "last vertex at n={}", n)
    for x, y in zip(parts, parts[1:]):
        if x <= y:
            order = f"{format_partition(x)} before {format_partition(y)}"
            raise AssertionError(f"order violation at n={n}: {order}")
    return "reverse-lexicographic, extremes at the ends"


def _check_conjugation_involution(run: _Range, b: _Bundle) -> str:
    g = b.graph
    sigma = g.conjugation_permutation()
    for i, t in enumerate(g.vertices):
        if sigma[sigma[i]] != i:
            raise AssertionError(f"involution fails at {format_partition(t)}")
        if len(g.vertices[sigma[i]]) != t[0]:
            raise AssertionError(f"largest/length swap fails at {format_partition(t)}")
    return "involution and largest/length swap hold"


def _check_adjacency_shape(run: _Range, b: _Bundle) -> str:
    n = b.n
    g = b.graph
    # back[i] lists, in increasing order, every j with i in adj[j]; an
    # edge i -> j is symmetric exactly when j is in back[i], so no row is
    # searched per edge, and a sorted symmetric row equals its back list
    back: list[list[int]] = [[] for _ in g.adj]
    for j, row in enumerate(g.adj):
        for i in row:
            back[i].append(j)
    for i, row in enumerate(g.adj):
        _fail_if(i in row, "self-loop at n={}", n)
        _fail_if(len(set(row)) != len(row), "duplicate neighbor at n={}", n)
        if tuple(back[i]) != row:
            stray = set(row).difference(back[i])
            for j in row:
                _fail_if(j in stray, "asymmetric edge {}/{} at n={}", i, j, n)
    _fail_if(sum(len(r) for r in g.adj) != 2 * g.edge_count, "degree sum at n={}", n)
    return "symmetric, irreflexive, duplicate-free"


def _check_connectivity(run: _Range, b: _Bundle) -> str:
    _fail_if(not b.graph.is_connected(), "G_{} disconnected", b.n)
    return f"G_n connected for n={run.n_min}..{run.n_max}"


def _check_conjugation_automorphism(run: _Range, b: _Bundle) -> str:
    g = b.graph
    sigma = g.conjugation_permutation()
    for i, row in enumerate(g.adj):
        image = tuple(sorted(sigma[j] for j in row))
        _fail_if(image != g.adj[sigma[i]], "automorphism fails at n={}, vertex {}", b.n, i)
    return f"every vertex for n={run.n_min}..{run.n_max}"


def _check_left_boundary_path(run: _Range, b: _Bundle) -> str:
    g = b.graph
    for x, y in zip(b.framework.left_edge, b.framework.left_edge[1:]):
        if y not in g.adj[x]:
            pair = " / ".join(map(format_partition, (g.vertices[x], g.vertices[y])))
            raise AssertionError(f"left boundary break at n={b.n}: {pair}")
    return "consecutive two-part partitions are adjacent"


def _check_antennas(run: _Range, b: _Bundle) -> str:
    if b.n >= 2:
        g = b.graph
        for a in b.framework.antennas:
            if len(g.adj[a]) != 1:
                raise AssertionError(f"degree at n={b.n}, {format_partition(g.vertices[a])}")
            if b.profile.tau[a] != 1:
                raise AssertionError(f"thickness at n={b.n}, {format_partition(g.vertices[a])}")
    return "degree 1 and thickness 1 at both extremes"


def _check_framework_shape(run: _Range, b: _Bundle) -> str:
    n = b.n
    g = b.graph
    fw = b.framework
    for a in fw.antennas:
        _fail_if(a not in fw.all_indices, "antenna missing at n={}", n)
    closed = set_conjugation_invariant(g, fw.all_indices)
    _fail_if(not closed, "framework not conjugation-invariant at n={}", n)
    for x, y in zip(fw.main_chain, fw.main_chain[1:]):
        _fail_if(y not in g.adj[x], "main chain break at n={}", n)
    if n >= 2:
        pieces = len(induced_components(g, fw.all_indices))
        _fail_if(pieces != 1, "induced framework subgraph disconnected at n={}", n)
    return "contains antennas, closed under conjugation, induced-connected"


def _check_axis_count(run: _Range, b: _Bundle) -> str:
    n = b.n
    axis = self_conjugate_axis(n)
    _fail_if(len(axis) != _distinct_odd_part_count(n), "axis size mismatch at n={}", n)
    return "axis size equals the distinct-odd-parts count"


def _check_tau_conjugation(run: _Range, b: _Bundle) -> str:
    closed = profile_conjugation_ok(b.graph, b.profile)
    _fail_if(not closed, "thickness not conjugation-invariant at n={}", b.n)
    return f"every vertex for n={run.n_min}..{run.n_max}"


def _check_clique_search(run: _Range, b: _Bundle) -> str:
    tau = b.profile.tau
    searched = clique_search_profile(b.graph)
    if searched != tau:
        i = next(i for i, t in enumerate(searched) if t != tau[i])
        name = format_partition(b.graph.vertices[i])
        raise AssertionError(f"clique search disagrees at n={b.n}, {name}")
    return f"every vertex for n={run.n_min}..{run.n_max}"


def _check_oracle_equivalence(run: _Range, b: _Bundle) -> str:
    if b.n <= ORACLE_RANGE_MAX:
        g = b.graph
        for i, p in enumerate(g.vertices):
            tau = brute_force_local_dimension(g, p)
            if tau != b.profile.tau[i]:
                raise AssertionError(f"oracle disagrees at n={b.n}, {format_partition(p)}")
    if run.n_min > ORACLE_RANGE_MAX:
        return f"no n <= {ORACLE_RANGE_MAX} in range"
    return f"exhaustive agreement for n={run.n_min}..{min(run.n_max, ORACLE_RANGE_MAX)}"


def _check_tau_bounds(run: _Range, b: _Bundle) -> str:
    tau = b.profile.tau
    for i, row in enumerate(b.graph.adj):
        _fail_if(tau[i] > len(row), "thickness exceeds degree at n={}", b.n)
    if b.n >= 2:
        _fail_if(min(tau) < 1, "thickness 0 on a non-isolated vertex at n={}", b.n)
    return "degree bound and minimum thickness hold"


def _check_max_locus(run: _Range, b: _Bundle) -> str:
    n = b.n
    g = b.graph
    prof = b.profile
    _fail_if(not prof.max_locus, "empty max locus at n={}", n)
    closed = set_conjugation_invariant(g, frozenset(prof.max_locus))
    _fail_if(not closed, "max locus not conjugation-invariant at n={}", n)
    if prof.tau_max >= 2:
        inside = not set(b.framework.antennas).isdisjoint(prof.max_locus)
        _fail_if(inside, "antenna inside max locus at n={}", n)
    return "nonempty, conjugation-invariant, antenna-free above thickness 1"


def _splits(whole: frozenset[int], parts: list[frozenset[int]]) -> bool:
    """True when ``parts`` are disjoint and together make up ``whole``.

    Their sizes must add up to ``len(whole)``. Then one nonempty part that
    is ``whole`` itself settles it; otherwise their union, built only now,
    must equal ``whole``.
    """
    parts = [part for part in parts if part]
    if sum(map(len, parts)) != len(whole):
        return False
    return (len(parts) == 1 and parts[0] is whole) or frozenset().union(*parts) == whole


def _check_zone_partition(run: _Range, b: _Bundle) -> str:
    for r, dec in b.zones.items():
        halves = [dec.shell, dec.core]
        _fail_if(not _splits(dec.threshold, halves), "shell/core at n={}, r={}", b.n, r)
        components = [c.vertices for c in dec.components]
        _fail_if(not _splits(dec.threshold, components), "components at n={}, r={}", b.n, r)
    return "shell and core split every zone exactly"


def _check_zone_nesting(run: _Range, b: _Bundle) -> str:
    decs = b.zones
    for r in range(1, b.profile.tau_max):
        nested = decs[r + 1].threshold <= decs[r].threshold
        _fail_if(not nested, "zone nesting at n={}, r={}", b.n, r)
        _fail_if(not decs[r + 1].shell <= decs[r].shell, "shell nesting at n={}, r={}", b.n, r)
    for r in range(3, b.profile.tau_max + 1):
        inside = decs[r].threshold <= decs[2].threshold
        _fail_if(not inside, "higher zone outside triangular at n={}, r={}", b.n, r)
    return "zones and shells are nested, higher orders stay triangular"


def _check_first_shell_trivial(run: _Range, b: _Bundle) -> str:
    if b.n >= 2:
        dec = b.zones[1]
        _fail_if(len(dec.shell) != len(b.graph.adj), "order-1 shell at n={}", b.n)
        _fail_if(bool(dec.core), "order-1 core at n={}", b.n)
    return "order-1 shell is everything, its core empty"


def _check_zone_conjugation(run: _Range, b: _Bundle) -> str:
    for r, dec in b.zones.items():
        for label, vs in (
            ("threshold", dec.threshold),
            ("exact", dec.exact),
            ("shell", dec.shell),
            ("core", dec.core),
        ):
            closed = set_conjugation_invariant(b.graph, vs)
            _fail_if(not closed, "{} not conjugation-invariant at n={}, r={}", label, b.n, r)
    return f"zones, shells and cores invariant for n={run.n_min}..{run.n_max}"


def _check_antenna_exclusion(run: _Range, b: _Bundle) -> str:
    n = b.n
    if n >= 2:
        antenna_idxs = set(b.framework.antennas)
        inside = any(b.profile.tau[a] >= 2 for a in antenna_idxs)
        _fail_if(inside, "antenna in the triangular regime at n={}", n)
        if 2 in b.zones:
            for comp in b.zones[2].components:
                if comp.boundary_attached:
                    touch = comp.vertices & b.framework.all_indices
                    _fail_if(
                        not (touch - antenna_idxs),
                        "order-2 component only meets the framework at an antenna, n={}",
                        n,
                    )
    return "antennas stay outside the triangular regime"


def _transitions(n_max: int) -> dict[int, int]:
    """n_r = r(r+1)/2 + 1 for each order r >= 1 with n_r <= ``n_max``."""
    return {r: r * (r + 1) // 2 + 1 for r in range(1, _staircase_order(n_max) + 1)}


def _staircase_order(n: int) -> int:
    """tau_max at ``n`` in closed form: the largest r with n_r = r(r+1)/2 + 1 <= n.

    Write delta_r = (r, r-1, ..., 1), d(x) for the number of distinct parts
    of x, and M_n for the maximal locus. By the corner formula
    (:func:`thickness._corner_thickness`), tau(p) is the largest d(mu) over
    the lower covers mu of p. A partition with r distinct parts has size at
    least r(r+1)/2, and delta_r is the only one of exactly that size. So:

    - tau_max(n) = max{r : n_r <= n}, and order r first occurs at n_r:
      d(mu) = r needs n - 1 >= r(r+1)/2, and delta_r with its largest part
      raised to make n - 1 has it.
    - M_{n_r} is the r + 1 covers of delta_r, as delta_r is the one mu of
      n_r - 1 with r distinct parts. delta_r is self-conjugate, so this
      locus is closed under conjugation.
    - |M_{n_r + 1}| = 2r + 1 for r >= 1. The mu of n_r with r distinct
      parts are (r+1, r-1, ..., 1) and (r, ..., 2, 1, 1). Each has r + 1
      covers, and they share one, their union (r+1, r-1, ..., 1, 1).

    The two table checks below test these at every n of the range.
    """
    return (isqrt(8 * n - 7) - 1) // 2


def _staircase_covers(r: int) -> set[tuple[int, ...]]:
    """The r + 1 covers of delta_r: one box added to each row, or a new row."""
    stair = tuple(range(r, 0, -1))
    return {stair[:i] + (stair[i] + 1,) + stair[i + 1 :] for i in range(r)} | {stair + (1,)}


def _check_first_occurrence_table(run: _Range, b: _Bundle) -> str:
    tau_max, expected = b.profile.tau_max, _staircase_order(b.n)
    _fail_if(tau_max != expected, "tau_max {} at n={}, expected {}", tau_max, b.n, expected)
    # the orders r >= 2 first realized in the range, after its first n
    firsts = {r: v for r, v in _transitions(run.n_max).items() if r >= 2 and v > run.n_min}
    known = {r: v for r, v in firsts.items() if v <= REFERENCE_RANGE_MAX}
    new = {r: v for r, v in firsts.items() if v > REFERENCE_RANGE_MAX}
    parts = [f"{known}"] if known else []
    if new:
        parts.append(f"new beyond n={REFERENCE_RANGE_MAX}: {new}, each at r(r+1)/2 + 1")
    return "; ".join(parts) or "no order realized in range"


def _check_max_locus_table(run: _Range, b: _Bundle) -> str:
    n, r = b.n, _staircase_order(b.n)
    n_r, size = r * (r + 1) // 2 + 1, len(b.profile.max_locus)
    if n == n_r:
        locus = {b.graph.vertices[i] for i in b.profile.max_locus}
        _fail_if(locus != _staircase_covers(r), "locus at n={} is not the covers of delta_{}", n, r)
    elif n == n_r + 1:
        _fail_if(size != 2 * r + 1, "locus size {} at n={}, expected {}", size, n, 2 * r + 1)
    ns = _transitions(run.n_max).values()
    found = {
        "covers of (r, ..., 1)": [v for v in ns if v >= run.n_min],
        "2r + 1 members": [v + 1 for v in ns if run.n_min <= v + 1 <= run.n_max],
    }
    text = "; ".join(f"{label} at n in {at}" for label, at in found.items() if at)
    return text or "no transition n in range"


def _check_rear_support(run: _Range, b: _Bundle) -> str:
    if b.n >= 7:
        dist = bfs_distances(b.graph, b.framework.antennas)
        nearest = min(dist[i] for i in b.profile.max_locus)
        _fail_if(nearest < 2, "max locus within distance 1 of an antenna at n={}", b.n)
    checked = list(range(max(7, run.n_min), run.n_max + 1))
    return f"antenna distance >= 2 for n in {checked}" if checked else "no n >= 7 in range"


def _check_layout_symmetry(run: _Range, b: _Bundle) -> str:
    cells = _cells(b.n)
    g = b.graph
    sigma = g.conjugation_permutation()
    for i, (x, y, dx, dy) in enumerate(cells):
        mirror = cells[sigma[i]]
        if (x, y) != (mirror[1], mirror[0]):
            name = format_partition(g.vertices[i])
            raise AssertionError(f"layout transpose fails at n={b.n}, {name}")
        _fail_if(abs(dx) >= 0.5 or abs(dy) >= 0.5, "offset too large at n={}", b.n)
    return "conjugation transposes every base cell"


def _check_render_determinism(run: _Range, b: _Bundle) -> str:
    n = max(run.n_min, min(7, run.n_max))
    if b.n == n:
        for mode in ("thickness", "zones"):
            # two streams, compared chunk by chunk, so neither drawing is held whole
            first = atlas_chunks(b.graph, b.profile, mode)
            second = atlas_chunks(b.graph, b.profile, mode)
            same = all(x == y for x, y in zip_longest(first, second))
            _fail_if(not same, "render differs in {} mode", mode)
    return f"byte-identical repeated renders at n={n}"


def _check_compute_idempotence(run: _Range, b: _Bundle) -> str:
    top = max(run.n_min, min(5, run.n_max))
    if b.n == top:
        # imported when the check runs, so a patched pipeline function is the one called
        from .pipeline import compute_artifacts_for_n

        with tempfile.TemporaryDirectory() as tmp:
            first = Path(tmp) / "a"
            second = Path(tmp) / "b"
            for n in range(run.n_min, top + 1):
                compute_artifacts_for_n(n, first)
                compute_artifacts_for_n(n, second)
            names = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
            other = sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
            _fail_if(names != other, "artifact sets differ")
            for rel in names:
                same = filecmp.cmp(first / rel, second / rel, shallow=False)
                _fail_if(not same, "artifact {} differs between runs", rel)
    return f"identical artifacts for n={run.n_min}..{top}"


# every check, in report order; the acceptance suite reads results by name
CHECKS: tuple[tuple[str, Callable[[_Range, _Bundle], str]], ...] = (
    ("partition counts match independent recurrence", _check_partition_counts),
    ("canonical enumeration order", _check_enumeration_order),
    ("conjugation is an involution", _check_conjugation_involution),
    ("adjacency structure", _check_adjacency_shape),
    ("graph connectivity", _check_connectivity),
    ("conjugation is a graph automorphism", _check_conjugation_automorphism),
    ("left boundary edge is a path", _check_left_boundary_path),
    ("antenna rigidity", _check_antennas),
    ("boundary framework shape", _check_framework_shape),
    ("self-conjugate axis size", _check_axis_count),
    ("thickness conjugation invariance", _check_tau_conjugation),
    ("clique search matches the corner formula", _check_clique_search),
    ("corner formula matches enumeration oracle", _check_oracle_equivalence),
    ("thickness bounds", _check_tau_bounds),
    ("maximal-thickness locus", _check_max_locus),
    ("zone decomposition partitions", _check_zone_partition),
    ("zone and shell nesting", _check_zone_nesting),
    ("first shell order is trivial", _check_first_shell_trivial),
    ("zone conjugation invariance", _check_zone_conjugation),
    ("antenna exclusion from thick zones", _check_antenna_exclusion),
    ("first-occurrence table matches expected values", _check_first_occurrence_table),
    ("maximal-thickness table matches expected values", _check_max_locus_table),
    ("maximal loci keep away from the antennas", _check_rear_support),
    ("layout conjugation symmetry", _check_layout_symmetry),
    ("rendering determinism", _check_render_determinism),
    ("artifact generation idempotence", _check_compute_idempotence),
)
