"""Named verification checks over a computed range of n.

Each check covers one documented property of the pipeline and is one
entry of :data:`CHECKS`. The runner computes graphs and profiles once for
the requested range and evaluates every check against them, reporting one
result per check.
"""

from __future__ import annotations

import filecmp
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .atlas import layout, locus_statistics, render_atlas
from .framework import FrameworkSet, boundary_framework, self_conjugate_axis
from .partitions import enumerate_partitions, parse_partition, partition_count
from .thickness import (
    ThicknessProfile,
    brute_force_local_dimension,
    local_simplex_dimension,
    max_thickness_locus,
    thickness_profile,
)
from .transfer_graph import TransferGraph, build_graph, induced_components
from .zones import ZoneDecomposition, decompose, first_occurrences, threshold_zone

ORACLE_RANGE_MAX = 12

# reference values reproduced by the full computation, complete for n up to
# REFERENCE_RANGE_MAX, which is also the CLI's verified range; an order
# first realized past it is reported as new
REFERENCE_RANGE_MAX = 30
EXPECTED_FIRST_OCCURRENCES = {2: 4, 3: 7, 4: 11, 5: 16, 6: 22, 7: 29}
EXPECTED_MAX_LOCUS = {
    7: (3, 4, ("4,2,1", "3,3,1")),
    11: (4, 5, ("5,3,2,1", "4,4,2,1")),
    16: (5, 6, ("6,4,3,2,1", "5,5,3,2,1")),
    22: (6, 7, ("7,5,4,3,2,1", "6,6,4,3,2,1")),
    29: (7, 8, ("8,6,5,4,3,2,1", "7,7,5,4,3,2,1")),
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class _Run:
    """Everything the checks read, computed once for ``n_min..n_max``.

    ``zones[n][r]`` is the decomposition of order r, for r = 1..tau_max.
    """

    n_min: int
    n_max: int
    ns: range
    graphs: dict[int, TransferGraph]
    profiles: dict[int, ThicknessProfile]
    frameworks: dict[int, FrameworkSet]
    zones: dict[int, dict[int, ZoneDecomposition]]


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


def run_checks(n_min: int = 1, n_max: int = 30) -> list[CheckResult]:
    """Evaluate every check of :data:`CHECKS` for the range ``n_min..n_max``.

    The two golden-table checks need profiles from n=1 upward, so they
    are left out, rather than passed vacuously, when ``n_min`` is above 1.
    """
    if not (1 <= n_min <= n_max):
        raise ValueError(f"invalid range {n_min}..{n_max}")

    ns = range(n_min, n_max + 1)
    graphs = {n: build_graph(n) for n in ns}
    profiles = {n: thickness_profile(graphs[n]) for n in ns}
    frameworks = {n: boundary_framework(n) for n in ns}
    zones = {
        n: {
            r: decompose(graphs[n], frameworks[n], profiles[n], r)
            for r in range(1, profiles[n].tau_max + 1)
        }
        for n in ns
    }
    run = _Run(n_min, n_max, ns, graphs, profiles, frameworks, zones)

    results: list[CheckResult] = []
    for name, check in CHECKS:
        try:
            detail = check(run)
        except Exception as exc:  # a crash is a failed check, not a crash of verify
            results.append(CheckResult(name, False, f"raised {type(exc).__name__}: {exc}"))
            continue
        if detail is not None:
            results.append(CheckResult(name, True, detail))
    return results


def _check_partition_counts(run: _Run) -> str:
    for n in run.ns:
        size = len(enumerate_partitions(n))
        _fail_if(size != partition_count(n), "enumeration size mismatch at n={}", n)
    return f"p(n) agrees with the recurrence for n={run.n_min}..{run.n_max}"


def _check_enumeration_order(run: _Run) -> str:
    for n in run.ns:
        verts = enumerate_partitions(n)
        _fail_if(verts[0].parts != (n,), "first vertex at n={}", n)
        _fail_if(verts[-1].parts != (1,) * n, "last vertex at n={}", n)
        for a, b in zip(verts, verts[1:]):
            _fail_if(a.parts <= b.parts, "order violation at n={}: {} before {}", n, a, b)
    return "reverse-lexicographic, extremes at the ends"


def _check_conjugation_involution(run: _Run) -> str:
    for n in run.ns:
        g = run.graphs[n]
        sigma = g.conjugation_permutation()
        for i, p in enumerate(g.vertices):
            _fail_if(sigma[sigma[i]] != i, "involution fails at {}", p)
            _fail_if(g.vertices[sigma[i]].length != p.largest, "largest/length swap fails at {}", p)
    return "involution and largest/length swap hold"


def _check_adjacency_shape(run: _Run) -> str:
    for n in run.ns:
        g = run.graphs[n]
        for i, row in enumerate(g.adj):
            _fail_if(i in row, "self-loop at n={}", n)
            _fail_if(len(set(row)) != len(row), "duplicate neighbor at n={}", n)
            for j in row:
                _fail_if(i not in g.adj[j], "asymmetric edge {}/{} at n={}", i, j, n)
        _fail_if(sum(len(r) for r in g.adj) != 2 * g.edge_count, "degree sum at n={}", n)
    return "symmetric, irreflexive, duplicate-free"


def _check_connectivity(run: _Run) -> str:
    for n in run.ns:
        _fail_if(not run.graphs[n].is_connected(), "G_{} disconnected", n)
    return f"G_n connected for n={run.n_min}..{run.n_max}"


def _check_conjugation_automorphism(run: _Run) -> str:
    for n in run.ns:
        g = run.graphs[n]
        sigma = g.conjugation_permutation()
        for i, row in enumerate(g.adj):
            image = tuple(sorted(sigma[j] for j in row))
            _fail_if(image != g.adj[sigma[i]], "automorphism fails at n={}, vertex {}", n, i)
    return f"every vertex for n={run.n_min}..{run.n_max}"


def _check_left_boundary_path(run: _Run) -> str:
    for n in run.ns:
        g = run.graphs[n]
        fw = run.frameworks[n]
        for a, b in zip(fw.left_edge, fw.left_edge[1:]):
            broken = g.index_of(b) not in g.adj[g.index_of(a)]
            _fail_if(broken, "left boundary break at n={}: {} / {}", n, a, b)
    return "consecutive two-part partitions are adjacent"


def _check_antennas(run: _Run) -> str:
    for n in run.ns:
        if n < 2:
            continue
        g = run.graphs[n]
        prof = run.profiles[n]
        for p in run.frameworks[n].antennas:
            _fail_if(g.degree(p) != 1, "degree at n={}, {}", n, p)
            _fail_if(prof.tau[g.index_of(p)] != 1, "thickness at n={}, {}", n, p)
    return "degree 1 and thickness 1 at both extremes"


def _check_framework_shape(run: _Run) -> str:
    for n in run.ns:
        g = run.graphs[n]
        fw = run.frameworks[n]
        for p in fw.antennas:
            _fail_if(g.index_of(p) not in fw.all_indices, "antenna missing at n={}", n)
        closed = set_conjugation_invariant(g, fw.all_indices)
        _fail_if(not closed, "framework not conjugation-invariant at n={}", n)
        for a, b in zip(fw.main_chain, fw.main_chain[1:]):
            _fail_if(g.index_of(b) not in g.adj[g.index_of(a)], "main chain break at n={}", n)
        if n >= 2:
            pieces = len(induced_components(g, fw.all_indices))
            _fail_if(pieces != 1, "induced framework subgraph disconnected at n={}", n)
    return "contains antennas, closed under conjugation, induced-connected"


def _check_axis_count(run: _Run) -> str:
    for n in run.ns:
        axis = self_conjugate_axis(n)
        _fail_if(len(axis.members) != _distinct_odd_part_count(n), "axis size mismatch at n={}", n)
    return "axis size equals the distinct-odd-parts count"


def _check_tau_conjugation(run: _Run) -> str:
    for n in run.ns:
        closed = profile_conjugation_ok(run.graphs[n], run.profiles[n])
        _fail_if(not closed, "thickness not conjugation-invariant at n={}", n)
    return f"every vertex for n={run.n_min}..{run.n_max}"


def _check_clique_search(run: _Run) -> str:
    for n in run.ns:
        g = run.graphs[n]
        prof = run.profiles[n]
        for i, p in enumerate(g.vertices):
            tau = local_simplex_dimension(g, p)
            _fail_if(tau != prof.tau[i], "clique search disagrees at n={}, {}", n, p)
    return f"every vertex for n={run.n_min}..{run.n_max}"


def _check_oracle_equivalence(run: _Run) -> str:
    checked = [n for n in run.ns if n <= ORACLE_RANGE_MAX]
    for n in checked:
        g = run.graphs[n]
        prof = run.profiles[n]
        for i, p in enumerate(g.vertices):
            tau = brute_force_local_dimension(g, p)
            _fail_if(tau != prof.tau[i], "oracle disagrees at n={}, {}", n, p)
    if not checked:
        return f"no n <= {ORACLE_RANGE_MAX} in range"
    return f"exhaustive agreement for n={checked[0]}..{checked[-1]}"


def _check_tau_bounds(run: _Run) -> str:
    for n in run.ns:
        g = run.graphs[n]
        prof = run.profiles[n]
        for i, row in enumerate(g.adj):
            _fail_if(prof.tau[i] > len(row), "thickness exceeds degree at n={}", n)
        if n >= 2:
            _fail_if(min(prof.tau) < 1, "thickness 0 on a non-isolated vertex at n={}", n)
    return "degree bound and minimum thickness hold"


def _check_max_locus(run: _Run) -> str:
    for n in run.ns:
        g = run.graphs[n]
        prof = run.profiles[n]
        _fail_if(not prof.max_locus, "empty max locus at n={}", n)
        closed = set_conjugation_invariant(g, frozenset(prof.max_locus))
        _fail_if(not closed, "max locus not conjugation-invariant at n={}", n)
        if prof.tau_max >= 2:
            antenna_idxs = {g.index_of(p) for p in run.frameworks[n].antennas}
            inside = bool(antenna_idxs & set(prof.max_locus))
            _fail_if(inside, "antenna inside max locus at n={}", n)
    return "nonempty, conjugation-invariant, antenna-free above thickness 1"


def _check_zone_partition(run: _Run) -> str:
    for n in run.ns:
        for r, dec in run.zones[n].items():
            _fail_if(dec.shell | dec.core != dec.threshold, "shell/core at n={}, r={}", n, r)
            _fail_if(bool(dec.shell & dec.core), "shell meets core at n={}, r={}", n, r)
            union = frozenset().union(*(c.vertices for c in dec.components))
            _fail_if(union != dec.threshold, "components at n={}, r={}", n, r)
    return "shell and core split every zone exactly"


def _check_zone_nesting(run: _Run) -> str:
    for n in run.ns:
        prof = run.profiles[n]
        decs = run.zones[n]
        for r in range(1, prof.tau_max):
            nested = decs[r + 1].threshold <= decs[r].threshold
            _fail_if(not nested, "zone nesting at n={}, r={}", n, r)
            _fail_if(not decs[r + 1].shell <= decs[r].shell, "shell nesting at n={}, r={}", n, r)
        for r in range(3, prof.tau_max + 1):
            inside = decs[r].threshold <= decs[2].threshold
            _fail_if(not inside, "higher zone outside triangular at n={}, r={}", n, r)
    return "zones and shells are nested, higher orders stay triangular"


def _check_first_shell_trivial(run: _Run) -> str:
    for n in run.ns:
        if n < 2:
            continue
        dec = run.zones[n][1]
        _fail_if(len(dec.shell) != len(enumerate_partitions(n)), "order-1 shell at n={}", n)
        _fail_if(bool(dec.core), "order-1 core at n={}", n)
    return "order-1 shell is everything, its core empty"


def _check_zone_conjugation(run: _Run) -> str:
    for n in run.ns:
        g = run.graphs[n]
        for r, dec in run.zones[n].items():
            for label, vs in (
                ("threshold", dec.threshold),
                ("exact", dec.exact),
                ("shell", dec.shell),
                ("core", dec.core),
            ):
                closed = set_conjugation_invariant(g, vs)
                _fail_if(not closed, "{} not conjugation-invariant at n={}, r={}", label, n, r)
    return f"zones, shells and cores invariant for n={run.n_min}..{run.n_max}"


def _check_antenna_exclusion(run: _Run) -> str:
    for n in run.ns:
        if n < 2:
            continue
        g = run.graphs[n]
        antenna_idxs = {g.index_of(p) for p in run.frameworks[n].antennas}
        zone2 = threshold_zone(run.profiles[n], 2)
        _fail_if(bool(antenna_idxs & zone2), "antenna in the triangular regime at n={}", n)
        if 2 in run.zones[n]:
            for comp in run.zones[n][2].components:
                if comp.boundary_attached:
                    touch = comp.vertices & run.frameworks[n].all_indices
                    _fail_if(
                        not (touch - antenna_idxs),
                        "order-2 component only meets the framework at an antenna, n={}",
                        n,
                    )
    return "antennas stay outside the triangular regime"


def _check_first_occurrence_table(run: _Run) -> str | None:
    if run.n_min > 1:
        return None
    table = first_occurrences([run.profiles[n] for n in run.ns])
    known = {r: v for r, v in table.entries.items() if v <= REFERENCE_RANGE_MAX}
    new = {r: v for r, v in table.entries.items() if v > REFERENCE_RANGE_MAX}
    expected = {r: v for r, v in EXPECTED_FIRST_OCCURRENCES.items() if v <= run.n_max}
    _fail_if(known != expected, "got {}, expected {}", known, expected)
    # by the corner formula, tau = r needs a partition of n - 1 with r
    # distinct parts, so n - 1 >= 1 + 2 + ... + r; the covers of the
    # staircase (r, r-1, ..., 1) reach order r at n = r(r+1)/2 + 1
    off = {r: v for r, v in new.items() if v != r * (r + 1) // 2 + 1}
    _fail_if(bool(off), "new orders {} are not at r(r+1)/2 + 1", off)
    values = list(table.entries.values())
    _fail_if(values != sorted(set(values)), "first occurrences not strictly increasing")
    detail = f"{expected or 'no order realized in range'}"
    if new:
        detail += f"; new beyond n={REFERENCE_RANGE_MAX}: {new}, each at r(r+1)/2 + 1"
    return detail


def _check_max_locus_table(run: _Run) -> str | None:
    if run.n_min > 1:
        return None
    matched = []
    for n, (tau_max, size, reps) in EXPECTED_MAX_LOCUS.items():
        if n > run.n_max:
            continue
        g = run.graphs[n]
        prof = run.profiles[n]
        _fail_if(prof.tau_max != tau_max, "tau_max at n={}", n)
        _fail_if(len(prof.max_locus) != size, "locus size at n={}", n)
        locus = set(max_thickness_locus(g, prof))
        for text in reps:
            _fail_if(parse_partition(text) not in locus, "{} missing at n={}", text, n)
        matched.append(n)
    return f"matched at n in {matched}" if matched else "no transition n in range"


def _check_rear_support(run: _Run) -> str:
    checked = []
    for n in run.ns:
        if n < 7:
            continue
        g = run.graphs[n]
        stats = locus_statistics(g, run.frameworks[n], max_thickness_locus(g, run.profiles[n]))
        _fail_if(
            stats.antenna_distance_min < 2, "max locus within distance 1 of an antenna at n={}", n
        )
        checked.append(n)
    return f"antenna distance >= 2 for n in {checked}" if checked else "no n >= 7 in range"


def _check_layout_symmetry(run: _Run) -> str:
    for n in run.ns:
        pts = layout(n)
        g = run.graphs[n]
        sigma = g.conjugation_permutation()
        for i, p in enumerate(g.vertices):
            mirror = pts[sigma[i]]
            transposed = (pts[i].x, pts[i].y) == (mirror.y, mirror.x)
            _fail_if(not transposed, "layout transpose fails at n={}, {}", n, p)
            _fail_if(abs(pts[i].dx) >= 0.5 or abs(pts[i].dy) >= 0.5, "offset too large at n={}", n)
    return "conjugation transposes every base cell"


def _check_render_determinism(run: _Run) -> str:
    n = max(run.n_min, min(7, run.n_max))
    g = run.graphs[n]
    prof = run.profiles[n]
    locus = max_thickness_locus(g, prof)
    for mode in ("thickness", "zones"):
        first = render_atlas(g, prof, mode, highlight=locus)
        second = render_atlas(g, prof, mode, highlight=locus)
        _fail_if(first != second, "render differs in {} mode", mode)
    return f"byte-identical repeated renders at n={n}"


def _check_compute_idempotence(run: _Run) -> str:
    # imported when the check runs, so a patched pipeline function is the one called
    from .pipeline import compute_artifacts_for_n

    top = max(run.n_min, min(5, run.n_max))
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
CHECKS: tuple[tuple[str, Callable[[_Run], str | None]], ...] = (
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
