"""Acceptance suite: every criterion at its stated range and tolerance.

Each test prints one pass/fail line; all comparisons are exact."""

import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest
from click.testing import CliRunner

from partition_atlas import (
    boundary_framework,
    brute_force_local_dimension,
    build_graph,
    decompose,
    enumerate_partitions,
    exact_regime,
    first_occurrences,
    locus_statistics,
    max_thickness_locus,
    parse_partition,
    partition_count,
    render_atlas,
    threshold_zone,
)
from partition_atlas.cli import main as cli_main
from partition_atlas.verify import EXPECTED_FIRST_OCCURRENCES, EXPECTED_MAX_LOCUS

RANGE_MAX = 30

ATLAS_NS = (4, 7, 11, 16)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_first_occurrences(full_range):
    with criterion("1 first-occurrence reproduction"):
        profiles = [full_range.profiles[n] for n in range(1, RANGE_MAX + 1)]
        table = first_occurrences(profiles)
        assert table.entries == EXPECTED_FIRST_OCCURRENCES
        assert full_range.build_seconds < 600.0
        print(f"  (single-threaded 1..30 pipeline took {full_range.build_seconds:.1f}s)")


def test_criterion_2_maximal_locus(full_range):
    with criterion("2 maximal-locus reproduction"):
        for n, (tau_max, size, representatives) in EXPECTED_MAX_LOCUS.items():
            graph = full_range.graphs[n]
            profile = full_range.profiles[n]
            assert profile.tau_max == tau_max, f"tau_max at n={n}"
            assert len(profile.max_locus) == size, f"|M_n| at n={n}"
            locus = set(max_thickness_locus(graph, profile))
            for text in representatives:
                assert parse_partition(text) in locus, f"{text} not in M_{n}"


def _partition_count_dp(n):
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            table[m] += table[m - part]
    return table[n]


def test_criterion_3_vertex_counts():
    with criterion("3 vertex counts"):
        assert len(enumerate_partitions(30)) == 5604
        for n in range(1, RANGE_MAX + 1):
            enumerated = len(enumerate_partitions(n))
            assert enumerated == partition_count(n) == _partition_count_dp(n)


def test_criterion_4_oracle_equivalence(full_range):
    with criterion("4 oracle equivalence"):
        start = time.time()
        for n in range(1, 13):
            graph = full_range.graphs[n]
            profile = full_range.profiles[n]
            for i, p in enumerate(graph.vertices):
                assert brute_force_local_dimension(graph, p) == profile.tau[i], (
                    f"disagreement at n={n}, vertex {p}"
                )
        elapsed = time.time() - start
        assert elapsed < 60.0
        print(f"  (all vertices of G_1..G_12 cross-checked in {elapsed:.1f}s)")


def test_criterion_5_structural_suite(full_range):
    with criterion("5 structural property suite"):
        frameworks = {n: boundary_framework(n) for n in range(1, RANGE_MAX + 1)}

        for n in range(2, RANGE_MAX + 1):
            graph = full_range.graphs[n]
            profile = full_range.profiles[n]
            framework = frameworks[n]
            assert graph.is_connected(), f"G_{n} disconnected"
            for p in framework.antennas:
                assert graph.degree(p) == 1, f"antenna degree at n={n}"
                assert profile.tau[graph.index_of(p)] == 1, f"antenna tau at n={n}"

        # conjugation invariance: full to n=20, spot checks at 25 and 30
        for n in range(1, 21):
            graph = full_range.graphs[n]
            profile = full_range.profiles[n]
            sigma = graph.conjugation_permutation()
            assert all(
                profile.tau[i] == profile.tau[sigma[i]] for i in range(len(sigma))
            ), f"tau conjugation at n={n}"
            for r in range(1, profile.tau_max + 1):
                dec = decompose(graph, frameworks[n], profile, r)
                for vs in (dec.threshold, dec.exact, dec.shell, dec.core):
                    assert all(sigma[i] in vs for i in vs), f"zone conjugation n={n} r={r}"
            locus = set(profile.max_locus)
            assert all(sigma[i] in locus for i in locus), f"locus conjugation at n={n}"
        for n in (25, 30):
            graph = full_range.graphs[n]
            profile = full_range.profiles[n]
            sigma = graph.conjugation_permutation()
            locus = set(profile.max_locus)
            assert all(sigma[i] in locus for i in locus), f"locus conjugation at n={n}"
            zone3 = threshold_zone(profile, 3)
            assert all(sigma[i] in zone3 for i in zone3), f"zone-3 conjugation at n={n}"

        for n in range(2, RANGE_MAX + 1):
            graph = full_range.graphs[n]
            profile = full_range.profiles[n]
            framework = frameworks[n]
            everything = frozenset(range(len(graph.vertices)))
            decs = {
                r: decompose(graph, framework, profile, r)
                for r in range(1, profile.tau_max + 1)
            }
            assert decs[1].shell == everything, f"order-1 shell at n={n}"
            assert decs[1].core == frozenset(), f"order-1 core at n={n}"
            for r, dec in decs.items():
                assert dec.shell | dec.core == dec.threshold, f"split at n={n} r={r}"
                assert not dec.shell & dec.core, f"overlap at n={n} r={r}"
            for r in range(1, profile.tau_max):
                assert decs[r + 1].shell <= decs[r].shell, f"shell nesting n={n} r={r}"
            for r in range(3, profile.tau_max + 1):
                assert decs[r].threshold <= decs[2].threshold, f"zone nesting n={n} r={r}"
            antennas_idx = {graph.index_of(p) for p in framework.antennas}
            assert not antennas_idx & threshold_zone(profile, 2), f"antenna in T>=2, n={n}"


def test_criterion_6_rear_central_support(full_range):
    with criterion("6 rear-central descriptive support"):
        for n in range(7, RANGE_MAX + 1):
            graph = full_range.graphs[n]
            profile = full_range.profiles[n]
            framework = boundary_framework(n)
            locus = max_thickness_locus(graph, profile)
            antenna_set = set(framework.antennas)
            assert not antenna_set & set(locus), f"antenna inside M_{n}"
            stats = locus_statistics(graph, framework, locus)
            assert stats.antenna_distance_min >= 2, f"M_{n} too close to an antenna"
            if n in EXPECTED_MAX_LOCUS:
                print(
                    f"  (informational, n={n}: |M|={stats.size}"
                    f" antenna_dist_min={stats.antenna_distance_min}"
                    f" framework_dist_max={stats.framework_distance_max}"
                    f" balance_mean={stats.balance_mean:+.2f}"
                    f" axis_fraction={stats.axis_fraction:.2f})"
                )


def _tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _run_full_pipeline(out: Path, jobs: int) -> None:
    runner = CliRunner()
    result = runner.invoke(
        cli_main,
        ["compute", "--n-max", str(RANGE_MAX), "--out", str(out), "--jobs", str(jobs)],
    )
    assert result.exit_code == 0, result.output
    result = runner.invoke(cli_main, ["tables", "--n-max", str(RANGE_MAX), "--out", str(out)])
    assert result.exit_code == 0, result.output
    for n in ATLAS_NS:
        for mode in ("thickness", "zones"):
            result = runner.invoke(
                cli_main, ["atlas", "--n", str(n), "--mode", mode, "--out", str(out)]
            )
            assert result.exit_code == 0, result.output


def test_criterion_7_determinism(tmp_path_factory):
    with criterion("7 determinism across worker counts"):
        first = tmp_path_factory.mktemp("run_serial")
        second = tmp_path_factory.mktemp("run_parallel")
        _run_full_pipeline(first, jobs=1)
        _run_full_pipeline(second, jobs=4)
        tree_a = _tree(first)
        tree_b = _tree(second)
        assert tree_a.keys() == tree_b.keys()
        different = [name for name in tree_a if tree_a[name] != tree_b[name]]
        assert not different, f"artifacts differ: {different[:5]}"
        print(f"  ({len(tree_a)} artifacts byte-identical between 1 and 4 workers)")


def test_criterion_8_atlas_integrity(full_range):
    import xml.etree.ElementTree as ET

    svg = "{http://www.w3.org/2000/svg}"
    with criterion("8 atlas integrity"):
        for n in ATLAS_NS:
            graph = full_range.graphs[n]
            profile = full_range.profiles[n]
            framework = boundary_framework(n)
            locus = max_thickness_locus(graph, profile)
            p_n = len(enumerate_partitions(n))

            exact1 = exact_regime(profile, 1)
            shell2 = decompose(graph, framework, profile, 2).shell
            core3 = decompose(graph, framework, profile, 3).core
            residual = p_n - len(exact1 | shell2 | core3)

            for mode in ("thickness", "zones"):
                text = render_atlas(graph, profile, mode, highlight=locus)
                root = ET.fromstring(text)
                circles = root.findall(f".//{svg}g[@id='vertices']/{svg}circle")
                assert len(circles) == p_n, f"glyph count at n={n}, {mode}"
                outlined = [c for c in circles if "hl" in c.get("class").split()]
                assert len(outlined) == len(profile.max_locus), f"outlines at n={n}, {mode}"
                if mode == "zones":
                    marks = Counter(
                        cls for c in circles for cls in c.get("class").split()
                    )
                    assert marks["exact1"] == len(exact1), f"gray count at n={n}"
                    assert marks["skin2"] == len(shell2), f"blue count at n={n}"
                    assert marks["core3"] == len(core3), f"red count at n={n}"
                    assert marks.get("rest", 0) == residual, f"residual count at n={n}"
                    fills = Counter(c.get("fill") for c in circles)
                    assert sum(fills.values()) == p_n, f"fill partition at n={n}"
