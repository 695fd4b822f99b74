"""Named verification checks over a computed range of n.

Each check covers one documented property of the pipeline and is one
entry of :data:`CHECKS`. The runner takes the requested range one n at a
time: it builds that n's graph, profile and framework once, calls every
check once on them, in report order, and drops them before the next n,
so memory follows the largest n of the range rather than the whole
range. The zone checks read the profile and the framework, as every zone
order is a closed form of the two (see :mod:`zones`); only "zone
decomposition partitions" makes the orders, one order at a time from
tau_max down.
The n are independent, so they may be spread over worker processes; only
each check's outcome comes back, and the outcomes are merged in n order.
It reports one result per check.
"""

from __future__ import annotations

import filecmp
import tempfile
import time
from bisect import bisect_left
from itertools import chain, islice, zip_longest
from math import isqrt
from operator import lt
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from . import REFERENCE_RANGE_MAX
from .atlas import _cells, atlas_chunks
from .framework import FrameworkSet, boundary_framework, self_conjugate_axis
from .partitions import enumerate_partitions, format_partition, partition_count
from .pipeline import map_n
from .thickness import (
    ThicknessProfile,
    _searched_profile,
    brute_force_local_dimension,
    thickness_profile,
)
from .transfer_graph import (
    TransferGraph,
    automorphism_fault,
    bfs_distances,
    build_graph,
    induced_components,
)
from .zones import decompose

ORACLE_RANGE_MAX = 12


class CheckResult(NamedTuple):
    """One verdict, and ``seconds``, the time the check took."""

    name: str
    ok: bool
    detail: str = ""
    seconds: float = 0.0


class _Range(NamedTuple):
    """The range ``n_min..n_max`` being checked."""

    n_min: int
    n_max: int


class _Bundle(NamedTuple):
    """What every check reads of one n, built once and dropped after it.

    ``fault`` is :func:`automorphism_fault` of the conjugation, so sigma
    is proved once per n, for the automorphism check and the clique
    search. The zone orders are not part of it: "zone decomposition
    partitions" makes them one at a time.
    """

    n: int
    graph: TransferGraph
    profile: ThicknessProfile
    framework: FrameworkSet
    fault: int | None


def _bundle(n: int) -> _Bundle:
    graph = build_graph(n)
    fault = automorphism_fault(graph, graph.conjugation_permutation())
    return _Bundle(n, graph, thickness_profile(n), boundary_framework(n), fault)


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


def _outcome(check: Callable[..., str], *args: object) -> _Outcome:
    start = time.perf_counter()
    try:
        ok, text = True, check(*args)
    except Exception as exc:  # a crash is a failed check, not a crash of verify
        ok, text = False, f"raised {type(exc).__name__}: {exc}"
    return ok, text, time.perf_counter() - start


def _check_n(n: int, n_min: int, n_max: int) -> list[_Outcome]:
    """One outcome per check on n's bundle, in report order; only these outlive the bundle."""
    run = _Range(n_min, n_max)
    b = _bundle(n)
    return [_outcome(check, run, b) for _, check in CHECKS]


def run_checks(n_min: int = 1, n_max: int = 30, workers: int = 1) -> list[CheckResult]:
    """Evaluate every check of :data:`CHECKS` for the range ``n_min..n_max``.

    Each check is called once per n with that n's bundle. A check that
    raises at some n fails with the message of the smallest such n (a
    zone check names its smallest failing order there); otherwise its
    detail at ``n_max`` is its verdict. Each check's ``seconds`` is the
    time it spent, summed over n.

    With ``workers`` above 1 the n are spread over that many processes
    (see :func:`pipeline.map_n`); the results are the same, and the
    seconds are summed over workers too.
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
    adj = b.graph.adj
    below = above = 0
    # from the last row up, so every row a mirror is sought in has been
    # found strictly increasing, and bisect finds any entry of it
    for i in range(len(adj) - 1, -1, -1):
        row = adj[i]
        if not all(map(lt, row, islice(row, 1, None))):
            _fail_if(len(set(row)) != len(row), "duplicate neighbor at n={}", n)
            raise AssertionError(f"unsorted row {i} at n={n}")
        # the diagonal splits the row: row[:k] lies below it, row[k:] above
        k = bisect_left(row, i)
        _fail_if(k < len(row) and row[k] == i, "self-loop at n={}", n)
        below += k
        above += len(row) - k
        j = _stray(adj, i, islice(row, k, None))
        _fail_if(j is not None, "asymmetric edge {}/{} at n={}", i, j, n)
    if below != above:
        # each entry above the diagonal has its own mirror below it, so the
        # surplus below holds an entry with no mirror above
        for i, row in enumerate(adj):
            j = _stray(adj, i, islice(row, bisect_left(row, i)))
            _fail_if(j is not None, "asymmetric edge {}/{} at n={}", i, j, n)
    return "symmetric, irreflexive, duplicate-free"


def _stray(adj: tuple[tuple[int, ...], ...], i: int, js: Iterable[int]) -> int | None:
    """The first j of ``js`` whose row, sorted, does not hold ``i``; None if none."""
    for j in js:
        row = adj[j]
        k = bisect_left(row, i)
        if k == len(row) or row[k] != i:
            return j
    return None


def _check_connectivity(run: _Range, b: _Bundle) -> str:
    _fail_if(not b.graph.is_connected(), "G_{} disconnected", b.n)
    return f"G_n connected for n={run.n_min}..{run.n_max}"


def _check_conjugation_automorphism(run: _Range, b: _Bundle) -> str:
    _fail_if(b.fault is not None, "automorphism fails at n={}, vertex {}", b.n, b.fault)
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
    # the search from one vertex of each conjugate pair, with sigma proved in the bundle
    if b.fault is not None:
        raise ValueError(f"not an involutive automorphism of G_{b.n} at vertex {b.fault}")
    tau = b.profile.tau
    searched = _searched_profile(b.graph.adj, b.graph.conjugation_permutation())
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


def _levels(profile: ThicknessProfile) -> list[list[int]]:
    """E_r for r = 0..tau_max, each in increasing vertex order, from one pass over tau."""
    levels: list[list[int]] = [[] for _ in range(profile.tau_max + 1)]
    for v, t in enumerate(profile.tau):
        levels[t].append(v)
    return levels


def _check_zone_partition(run: _Range, b: _Bundle) -> str:
    # the one check that reads decompose, so a broken decompose fails it:
    # each order must be the level sets of tau, attached (all shell) when
    # it meets the framework and otherwise all core; the orders are made
    # from tau_max down, so the failure kept is that of the smallest r
    levels = _levels(b.profile)
    fw = b.framework.all_indices
    size, attached, failed = 0, False, ""
    for r in range(b.profile.tau_max, 0, -1):
        dec = decompose(b.framework, b.profile, r)
        exact, zone = levels[r], dec.threshold
        size += len(exact)
        attached = attached or not fw.isdisjoint(exact)
        if (
            (dec.r, len(zone), len(dec.exact)) != (r, size, len(exact))
            or not all(map(dec.exact.__contains__, exact))
            or not all(map(zone.__contains__, chain.from_iterable(levels[r:])))
        ):
            failed = f"zone at n={b.n}, r={r}"
        elif dec.attached != attached:
            failed = f"shell/core at n={b.n}, r={r}"
    if failed:
        raise AssertionError(failed)
    return "shell and core split every zone exactly"


def _check_zone_nesting(run: _Range, b: _Bundle) -> str:
    # zones are level sets of tau, so they nest for any tau; the shells
    # nest, each empty from order 3 up and so inside Sh_2, because every
    # framework vertex has tau <= 2 (see framework.boundary_framework)
    top = max(map(b.profile.tau.__getitem__, b.framework.all_indices))
    _fail_if(top > 2, "nonempty shell at n={}, r=3", b.n)
    return "zones and shells are nested, higher orders stay triangular"


def _check_first_shell_trivial(run: _Range, b: _Bundle) -> str:
    # Sh_1 is T_{>=1} when that meets the framework, so it is everything,
    # and Core_1 empty, when no vertex has tau 0 and the framework is nonempty
    if b.profile.tau_max >= 1:
        whole = min(b.profile.tau) >= 1 and bool(b.framework.all_indices)
        _fail_if(not whole, "order-1 shell at n={}", b.n)
    return "order-1 shell is everything, its core empty"


def _check_zone_conjugation(run: _Range, b: _Bundle) -> str:
    # zones are level sets of tau and each shell or core is its zone or
    # empty, by the framework meet; so all are invariant when tau is and
    # the framework is closed under conjugation
    tau = b.profile.tau
    image = map(tau.__getitem__, b.graph.conjugation_permutation())
    low = min((min(s, t) for s, t in zip(tau, image) if s != t), default=None)
    if low is not None:
        # E_low holds one vertex of a pair and not the other; at low = 0
        # the first to split the pair is T_{>=1}
        label, r = ("exact", low) if low else ("threshold", 1)
        raise AssertionError(f"{label} not conjugation-invariant at n={b.n}, r={r}")
    closed = set_conjugation_invariant(b.graph, b.framework.all_indices)
    _fail_if(not closed, "framework not conjugation-invariant at n={}", b.n)
    return f"zones, shells and cores invariant for n={run.n_min}..{run.n_max}"


def _check_antenna_exclusion(run: _Range, b: _Bundle) -> str:
    inside = max(map(b.profile.tau.__getitem__, b.framework.antennas)) >= 2
    _fail_if(inside, "antenna in the triangular regime at n={}", b.n)
    return "antennas stay outside the triangular regime"


def _check_zone_connected(run: _Range, b: _Bundle) -> str:
    # T_{>=r} is T_{>=r+1} joined with E_r. So, with T_{>=r+1} one
    # component, it is one when a walk inside E_r, in layers, from the E_r
    # vertices next to T_{>=r+1} (at the top order, from one vertex)
    # reaches all of E_r; from tau_max down, so the failure kept is that
    # of the smallest r
    adj = b.graph.adj
    levels = _levels(b.profile)
    higher: set[int] = set()
    failed = None
    for r in range(b.profile.tau_max, 0, -1):
        exact = levels[r]
        if higher:
            layer = {v for v in exact if not higher.isdisjoint(adj[v])}
        else:
            layer = set(exact[:1])
        unseen = set(exact)
        while layer:
            unseen -= layer
            layer = unseen.intersection(chain.from_iterable(map(adj.__getitem__, layer)))
        if unseen:
            failed = r
        higher.update(exact)
    _fail_if(failed is not None, "zone not connected at n={}, r={}", b.n, failed)
    return f"every zone is one component for n={run.n_min}..{run.n_max}"


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
    ("threshold zones are connected", _check_zone_connected),
    ("first-occurrence table matches expected values", _check_first_occurrence_table),
    ("maximal-thickness table matches expected values", _check_max_locus_table),
    ("maximal loci keep away from the antennas", _check_rear_support),
    ("layout conjugation symmetry", _check_layout_symmetry),
    ("rendering determinism", _check_render_determinism),
    ("artifact generation idempotence", _check_compute_idempotence),
)
