"""Named verification checks over a computed range of n.

Each check covers one documented property of the pipeline. The runner
computes graphs and profiles once for the requested range and evaluates
every check against them, reporting one result per check.
"""

from __future__ import annotations

import filecmp
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .atlas import layout, locus_statistics, render_atlas
from .framework import boundary_framework, self_conjugate_axis
from .partitions import enumerate_partitions, parse_partition, partition_count
from .thickness import (
    ThicknessProfile,
    brute_force_local_dimension,
    local_simplex_dimension,
    max_thickness_locus,
    thickness_profile,
)
from .transfer_graph import TransferGraph, build_graph, induced_components
from .zones import decompose, first_occurrences, threshold_zone

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


def run_checks(n_min: int = 1, n_max: int = 30) -> list[CheckResult]:
    """Evaluate every named check for the range ``n_min..n_max``.

    The two golden-table checks need profiles from n=1 upward, so they
    are left out, rather than passed vacuously, when ``n_min`` is above 1.
    """
    if not (1 <= n_min <= n_max):
        raise ValueError(f"invalid range {n_min}..{n_max}")

    ns = list(range(n_min, n_max + 1))
    graphs = {n: build_graph(n) for n in ns}
    profiles = {n: thickness_profile(graphs[n]) for n in ns}
    frameworks = {n: boundary_framework(n) for n in ns}
    decomposition_cache = {
        n: {
            r: decompose(graphs[n], frameworks[n], profiles[n], r)
            for r in range(1, profiles[n].tau_max + 1)
        }
        for n in ns
    }

    results: list[CheckResult] = []

    def check(name: str, fn: Callable[[], str]) -> None:
        try:
            detail = fn()
        except Exception as exc:  # a crash is a failed check, not a crash of verify
            results.append(CheckResult(name, False, f"raised {type(exc).__name__}: {exc}"))
            return
        results.append(CheckResult(name, True, detail))

    def fail_if(condition: bool, message: str) -> None:
        if condition:
            raise AssertionError(message)

    def c_partition_counts() -> str:
        for n in ns:
            fail_if(
                len(enumerate_partitions(n)) != partition_count(n),
                f"enumeration size mismatch at n={n}",
            )
        return f"p(n) agrees with the recurrence for n={n_min}..{n_max}"

    check("partition counts match independent recurrence", c_partition_counts)

    def c_enumeration_order() -> str:
        for n in ns:
            verts = enumerate_partitions(n)
            fail_if(verts[0].parts != (n,), f"first vertex at n={n}")
            fail_if(verts[-1].parts != (1,) * n, f"last vertex at n={n}")
            for a, b in zip(verts, verts[1:]):
                fail_if(a.parts <= b.parts, f"order violation at n={n}: {a} before {b}")
        return "reverse-lexicographic, extremes at the ends"

    check("canonical enumeration order", c_enumeration_order)

    def c_conjugation_involution() -> str:
        for n in ns:
            g = graphs[n]
            sigma = g.conjugation_permutation()
            for i, p in enumerate(g.vertices):
                fail_if(sigma[sigma[i]] != i, f"involution fails at {p}")
                fail_if(
                    g.vertices[sigma[i]].length != p.largest,
                    f"largest/length swap fails at {p}",
                )
        return "involution and largest/length swap hold"

    check("conjugation is an involution", c_conjugation_involution)

    def c_adjacency_shape() -> str:
        for n in ns:
            g = graphs[n]
            for i, row in enumerate(g.adj):
                fail_if(i in row, f"self-loop at n={n}")
                fail_if(len(set(row)) != len(row), f"duplicate neighbor at n={n}")
                for j in row:
                    fail_if(i not in g.adj[j], f"asymmetric edge {i}/{j} at n={n}")
            fail_if(sum(len(r) for r in g.adj) != 2 * g.edge_count, f"degree sum at n={n}")
        return "symmetric, irreflexive, duplicate-free"

    check("adjacency structure", c_adjacency_shape)

    def c_connectivity() -> str:
        for n in ns:
            fail_if(not graphs[n].is_connected(), f"G_{n} disconnected")
        return f"G_n connected for n={n_min}..{n_max}"

    check("graph connectivity", c_connectivity)

    def c_conjugation_automorphism() -> str:
        for n in ns:
            g = graphs[n]
            sigma = g.conjugation_permutation()
            for i, row in enumerate(g.adj):
                image = tuple(sorted(sigma[j] for j in row))
                fail_if(image != g.adj[sigma[i]], f"automorphism fails at n={n}, vertex {i}")
        return f"every vertex for n={n_min}..{n_max}"

    check("conjugation is a graph automorphism", c_conjugation_automorphism)

    def c_left_boundary_path() -> str:
        for n in ns:
            g = graphs[n]
            fw = frameworks[n]
            for a, b in zip(fw.left_edge, fw.left_edge[1:]):
                fail_if(
                    g.index_of(b) not in g.adj[g.index_of(a)],
                    f"left boundary break at n={n}: {a} / {b}",
                )
        return "consecutive two-part partitions are adjacent"

    check("left boundary edge is a path", c_left_boundary_path)

    def c_antennas() -> str:
        for n in ns:
            if n < 2:
                continue
            g = graphs[n]
            prof = profiles[n]
            for p in frameworks[n].antennas:
                fail_if(g.degree(p) != 1, f"degree at n={n}, {p}")
                fail_if(prof.tau[g.index_of(p)] != 1, f"thickness at n={n}, {p}")
        return "degree 1 and thickness 1 at both extremes"

    check("antenna rigidity", c_antennas)

    def c_framework_shape() -> str:
        for n in ns:
            g = graphs[n]
            fw = frameworks[n]
            for p in fw.antennas:
                fail_if(g.index_of(p) not in fw.all_indices, f"antenna missing at n={n}")
            fail_if(
                not set_conjugation_invariant(g, fw.all_indices),
                f"framework not conjugation-invariant at n={n}",
            )
            for a, b in zip(fw.main_chain, fw.main_chain[1:]):
                fail_if(
                    g.index_of(b) not in g.adj[g.index_of(a)],
                    f"main chain break at n={n}",
                )
            if n >= 2:
                fail_if(
                    len(induced_components(g, fw.all_indices)) != 1,
                    f"induced framework subgraph disconnected at n={n}",
                )
        return "contains antennas, closed under conjugation, induced-connected"

    check("boundary framework shape", c_framework_shape)

    def c_axis_count() -> str:
        for n in ns:
            axis = self_conjugate_axis(n)
            fail_if(
                len(axis.members) != _distinct_odd_part_count(n),
                f"axis size mismatch at n={n}",
            )
        return "axis size equals the distinct-odd-parts count"

    check("self-conjugate axis size", c_axis_count)

    def c_tau_conjugation() -> str:
        for n in ns:
            fail_if(
                not profile_conjugation_ok(graphs[n], profiles[n]),
                f"thickness not conjugation-invariant at n={n}",
            )
        return f"every vertex for n={n_min}..{n_max}"

    check("thickness conjugation invariance", c_tau_conjugation)

    def c_clique_search() -> str:
        for n in ns:
            g = graphs[n]
            prof = profiles[n]
            for i, p in enumerate(g.vertices):
                fail_if(
                    local_simplex_dimension(g, p) != prof.tau[i],
                    f"clique search disagrees at n={n}, {p}",
                )
        return f"every vertex for n={n_min}..{n_max}"

    check("clique search matches the corner formula", c_clique_search)

    def c_oracle_equivalence() -> str:
        checked = [n for n in ns if n <= ORACLE_RANGE_MAX]
        for n in checked:
            g = graphs[n]
            prof = profiles[n]
            for i, p in enumerate(g.vertices):
                fail_if(
                    brute_force_local_dimension(g, p) != prof.tau[i],
                    f"oracle disagrees at n={n}, {p}",
                )
        if not checked:
            return f"no n <= {ORACLE_RANGE_MAX} in range"
        return f"exhaustive agreement for n={checked[0]}..{checked[-1]}"

    check("corner formula matches enumeration oracle", c_oracle_equivalence)

    def c_tau_bounds() -> str:
        for n in ns:
            g = graphs[n]
            prof = profiles[n]
            for i, row in enumerate(g.adj):
                fail_if(prof.tau[i] > len(row), f"thickness exceeds degree at n={n}")
            if n >= 2:
                fail_if(min(prof.tau) < 1, f"thickness 0 on a non-isolated vertex at n={n}")
        return "degree bound and minimum thickness hold"

    check("thickness bounds", c_tau_bounds)

    def c_max_locus() -> str:
        for n in ns:
            g = graphs[n]
            prof = profiles[n]
            fail_if(not prof.max_locus, f"empty max locus at n={n}")
            fail_if(
                not set_conjugation_invariant(g, frozenset(prof.max_locus)),
                f"max locus not conjugation-invariant at n={n}",
            )
            if prof.tau_max >= 2:
                antenna_idxs = {g.index_of(p) for p in frameworks[n].antennas}
                fail_if(
                    bool(antenna_idxs & set(prof.max_locus)),
                    f"antenna inside max locus at n={n}",
                )
        return "nonempty, conjugation-invariant, antenna-free above thickness 1"

    check("maximal-thickness locus", c_max_locus)

    def c_zone_partition() -> str:
        for n in ns:
            for r, dec in decomposition_cache[n].items():
                fail_if(dec.shell | dec.core != dec.threshold, f"shell/core at n={n}, r={r}")
                fail_if(bool(dec.shell & dec.core), f"shell meets core at n={n}, r={r}")
                union = frozenset().union(*(c.vertices for c in dec.components)) if dec.components else frozenset()
                fail_if(union != dec.threshold, f"components at n={n}, r={r}")
        return "shell and core split every zone exactly"

    check("zone decomposition partitions", c_zone_partition)

    def c_zone_nesting() -> str:
        for n in ns:
            prof = profiles[n]
            decs = decomposition_cache[n]
            for r in range(1, prof.tau_max):
                fail_if(
                    not decs[r + 1].threshold <= decs[r].threshold,
                    f"zone nesting at n={n}, r={r}",
                )
                fail_if(
                    not decs[r + 1].shell <= decs[r].shell,
                    f"shell nesting at n={n}, r={r}",
                )
            for r in range(3, prof.tau_max + 1):
                fail_if(
                    not decs[r].threshold <= decs[2].threshold,
                    f"higher zone outside triangular at n={n}, r={r}",
                )
        return "zones and shells are nested, higher orders stay triangular"

    check("zone and shell nesting", c_zone_nesting)

    def c_first_shell_trivial() -> str:
        for n in ns:
            if n < 2:
                continue
            dec = decomposition_cache[n][1]
            fail_if(len(dec.shell) != len(enumerate_partitions(n)), f"order-1 shell at n={n}")
            fail_if(bool(dec.core), f"order-1 core at n={n}")
        return "order-1 shell is everything, its core empty"

    check("first shell order is trivial", c_first_shell_trivial)

    def c_zone_conjugation() -> str:
        for n in ns:
            g = graphs[n]
            for r, dec in decomposition_cache[n].items():
                for label, vs in (
                    ("threshold", dec.threshold),
                    ("exact", dec.exact),
                    ("shell", dec.shell),
                    ("core", dec.core),
                ):
                    fail_if(
                        not set_conjugation_invariant(g, vs),
                        f"{label} not conjugation-invariant at n={n}, r={r}",
                    )
        return f"zones, shells and cores invariant for n={n_min}..{n_max}"

    check("zone conjugation invariance", c_zone_conjugation)

    def c_antenna_exclusion() -> str:
        for n in ns:
            if n < 2:
                continue
            g = graphs[n]
            antenna_idxs = {g.index_of(p) for p in frameworks[n].antennas}
            zone2 = threshold_zone(profiles[n], 2)
            fail_if(bool(antenna_idxs & zone2), f"antenna in the triangular regime at n={n}")
            if 2 in decomposition_cache[n]:
                dec = decomposition_cache[n][2]
                for comp in dec.components:
                    if comp.boundary_attached:
                        touch = comp.vertices & frameworks[n].all_indices
                        fail_if(
                            not (touch - antenna_idxs),
                            f"order-2 component only meets the framework at an antenna, n={n}",
                        )
        return "antennas stay outside the triangular regime"

    check("antenna exclusion from thick zones", c_antenna_exclusion)

    if n_min == 1:

        def c_first_occurrence_table() -> str:
            table = first_occurrences([profiles[n] for n in ns])
            known = {r: v for r, v in table.entries.items() if v <= REFERENCE_RANGE_MAX}
            new = {r: v for r, v in table.entries.items() if v > REFERENCE_RANGE_MAX}
            expected = {r: v for r, v in EXPECTED_FIRST_OCCURRENCES.items() if v <= n_max}
            fail_if(known != expected, f"got {known}, expected {expected}")
            # by the corner formula, tau = r needs a partition of n - 1 with r
            # distinct parts, so n - 1 >= 1 + 2 + ... + r; the covers of the
            # staircase (r, r-1, ..., 1) reach order r at n = r(r+1)/2 + 1
            off = {r: v for r, v in new.items() if v != r * (r + 1) // 2 + 1}
            fail_if(bool(off), f"new orders {off} are not at r(r+1)/2 + 1")
            values = list(table.entries.values())
            fail_if(values != sorted(set(values)), "first occurrences not strictly increasing")
            detail = f"{expected or 'no order realized in range'}"
            if new:
                detail += f"; new beyond n={REFERENCE_RANGE_MAX}: {new}, each at r(r+1)/2 + 1"
            return detail

        check("first-occurrence table matches expected values", c_first_occurrence_table)

        def c_max_locus_table() -> str:
            matched = []
            for n, (tau_max, size, reps) in EXPECTED_MAX_LOCUS.items():
                if n > n_max:
                    continue
                g = graphs[n]
                prof = profiles[n]
                fail_if(prof.tau_max != tau_max, f"tau_max at n={n}")
                fail_if(len(prof.max_locus) != size, f"locus size at n={n}")
                locus = set(max_thickness_locus(g, prof))
                for text in reps:
                    fail_if(parse_partition(text) not in locus, f"{text} missing at n={n}")
                matched.append(n)
            return f"matched at n in {matched}" if matched else "no transition n in range"

        check("maximal-thickness table matches expected values", c_max_locus_table)

    def c_rear_support() -> str:
        checked = []
        for n in ns:
            if n < 7:
                continue
            g = graphs[n]
            fw = frameworks[n]
            stats = locus_statistics(g, fw, max_thickness_locus(g, profiles[n]))
            fail_if(
                stats.antenna_distance_min < 2,
                f"max locus within distance 1 of an antenna at n={n}",
            )
            checked.append(n)
        return f"antenna distance >= 2 for n in {checked}" if checked else "no n >= 7 in range"

    check("maximal loci keep away from the antennas", c_rear_support)

    def c_layout_symmetry() -> str:
        for n in ns:
            pts = layout(n)
            sigma = graphs[n].conjugation_permutation()
            for i, p in enumerate(graphs[n].vertices):
                mirror = pts[sigma[i]]
                fail_if(
                    (pts[i].x, pts[i].y) != (mirror.y, mirror.x),
                    f"layout transpose fails at n={n}, {p}",
                )
                fail_if(
                    abs(pts[i].dx) >= 0.5 or abs(pts[i].dy) >= 0.5,
                    f"offset too large at n={n}",
                )
        return "conjugation transposes every base cell"

    check("layout conjugation symmetry", c_layout_symmetry)

    def c_render_determinism() -> str:
        n = max(n_min, min(7, n_max))
        g = graphs[n]
        prof = profiles[n]
        locus = max_thickness_locus(g, prof)
        for mode in ("thickness", "zones"):
            first = render_atlas(g, prof, mode, highlight=locus)
            second = render_atlas(g, prof, mode, highlight=locus)
            fail_if(first != second, f"render differs in {mode} mode")
        return f"byte-identical repeated renders at n={n}"

    check("rendering determinism", c_render_determinism)

    def c_compute_idempotence() -> str:
        from .pipeline import compute_artifacts_for_n

        top = max(n_min, min(5, n_max))
        with tempfile.TemporaryDirectory() as tmp:
            first = Path(tmp) / "a"
            second = Path(tmp) / "b"
            for n in range(n_min, top + 1):
                compute_artifacts_for_n(n, first)
                compute_artifacts_for_n(n, second)
            names = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
            other = sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
            fail_if(names != other, "artifact sets differ")
            for rel in names:
                fail_if(
                    not filecmp.cmp(first / rel, second / rel, shallow=False),
                    f"artifact {rel} differs between runs",
                )
        return f"identical artifacts for n={n_min}..{top}"

    check("artifact generation idempotence", c_compute_idempotence)

    return results
