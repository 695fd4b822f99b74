"""Acceptance suite: every criterion at its stated range and tolerance.

Criteria 1, 2, 4, 5 and 6 read the named verdicts of one ``run_checks``
over n = 1..30; 3, 7 and 8 test what ``verify`` does not. Each test
prints one pass/fail line; all comparisons are exact."""

import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest
from click.testing import CliRunner

from partition_atlas import (
    bfs_distances,
    boundary_framework,
    build_graph,
    decompose,
    enumerate_partitions,
    exact_regime,
    partition_count,
    render_atlas,
    thickness_profile,
)
from partition_atlas.cli import main as cli_main
from partition_atlas.partitions import _conjugate
from partition_atlas.verify import EXPECTED_MAX_LOCUS, run_checks

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


@pytest.fixture(scope="session")
def verdicts():
    """verify's named results for n = 1..30, computed once per session."""
    start = time.time()
    results = {r.name: r for r in run_checks(1, RANGE_MAX)}
    seconds = time.time() - start
    # covers the single-threaded 1..30 build and the n <= 12 oracle
    assert seconds < 60.0, f"run_checks(1, {RANGE_MAX}) took {seconds:.1f}s"
    print(f"  (verify 1..{RANGE_MAX}, build and oracle included, took {seconds:.1f}s)")
    return results


def assert_passed(verdicts, *names):
    for name in names:
        result = verdicts[name]
        assert result.ok, f"{name}: {result.detail}"
        print(f"  ({name}: {result.detail})")


def test_criterion_1_first_occurrences(verdicts):
    with criterion("1 first-occurrence reproduction"):
        assert_passed(verdicts, "first-occurrence table matches expected values")


def test_criterion_2_maximal_locus(verdicts):
    with criterion("2 maximal-locus reproduction"):
        assert_passed(verdicts, "maximal-thickness table matches expected values")


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


def test_criterion_4_oracle_equivalence(verdicts):
    with criterion("4 oracle equivalence"):
        assert_passed(verdicts, "corner formula matches enumeration oracle")


def test_criterion_5_structural_suite(verdicts):
    with criterion("5 structural property suite"):
        assert_passed(
            verdicts,
            "graph connectivity",
            "antenna rigidity",
            "thickness conjugation invariance",
            "zone conjugation invariance",
            "maximal-thickness locus",
            "zone decomposition partitions",
            "zone and shell nesting",
            "first shell order is trivial",
            "antenna exclusion from thick zones",
        )


def test_criterion_6_rear_central_support(verdicts):
    with criterion("6 rear-central descriptive support"):
        assert_passed(
            verdicts, "maximal-thickness locus", "maximal loci keep away from the antennas"
        )
        for n in EXPECTED_MAX_LOCUS:
            graph = build_graph(n)
            locus = thickness_profile(n).max_locus
            framework = boundary_framework(n)
            near = bfs_distances(graph, framework.antennas)
            border = bfs_distances(graph, sorted(framework.all_indices))
            parts = [graph.vertices[i] for i in locus]
            balance = sum(t[0] - len(t) for t in parts) / len(parts)
            axis = sum(t == _conjugate(t) for t in parts) / len(parts)
            print(
                f"  (informational, n={n}: |M|={len(locus)}"
                f" antenna_dist_min={min(near[i] for i in locus)}"
                f" framework_dist_max={max(border[i] for i in locus)}"
                f" balance_mean={balance:+.2f}"
                f" axis_fraction={axis:.2f})"
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


def test_criterion_8_atlas_integrity():
    import xml.etree.ElementTree as ET

    svg = "{http://www.w3.org/2000/svg}"
    with criterion("8 atlas integrity"):
        for n in ATLAS_NS:
            graph = build_graph(n)
            profile = thickness_profile(n)
            framework = boundary_framework(n)
            p_n = len(enumerate_partitions(n))

            exact1 = exact_regime(profile, 1)
            shell2 = decompose(graph, framework, profile, 2).shell
            core3 = decompose(graph, framework, profile, 3).core
            residual = p_n - len(exact1 | shell2 | core3)

            for mode in ("thickness", "zones"):
                text = render_atlas(graph, profile, mode)
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
