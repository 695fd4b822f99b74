import dataclasses
import re

import pytest

from partition_atlas import build_graph, pipeline, thickness_profile, verify
from partition_atlas.cli import main
from partition_atlas.partitions import canonical_index, enumerate_partitions


def _first_occurrence_result(n_max):
    (result,) = [
        r for r in verify.run_checks(1, n_max) if r.name.startswith("first-occurrence table")
    ]
    return result


def test_first_occurrence_beyond_reference_is_reported_as_new(monkeypatch):
    monkeypatch.setattr(verify, "REFERENCE_RANGE_MAX", 8)
    monkeypatch.setattr(verify, "EXPECTED_FIRST_OCCURRENCES", {2: 4, 3: 7})
    result = _first_occurrence_result(11)
    assert result.ok, result.detail
    assert "new beyond n=8: {4: 11}" in result.detail


def test_first_occurrence_mismatch_within_reference_fails(monkeypatch):
    monkeypatch.setattr(verify, "REFERENCE_RANGE_MAX", 8)
    monkeypatch.setattr(verify, "EXPECTED_FIRST_OCCURRENCES", {2: 4, 3: 6})
    result = _first_occurrence_result(11)
    assert not result.ok
    assert "expected {2: 4, 3: 6}" in result.detail


def test_first_occurrences_beyond_reference_follow_the_formula(monkeypatch):
    monkeypatch.setattr(verify, "REFERENCE_RANGE_MAX", 5)
    monkeypatch.setattr(verify, "EXPECTED_FIRST_OCCURRENCES", {2: 4})
    result = _first_occurrence_result(12)
    assert result.ok, result.detail
    assert "new beyond n=5: {3: 7, 4: 11}, each at r(r+1)/2 + 1" in result.detail


def test_first_occurrence_off_the_formula_fails(monkeypatch):
    # a profile that reaches order 4 at n=10, one n before the formula
    def early(n):
        prof = thickness_profile(n)
        if n != 10:
            return prof
        tau = (4, *prof.tau[1:])
        return dataclasses.replace(prof, tau=tau, tau_max=4, max_locus=(0,))

    monkeypatch.setattr(verify, "REFERENCE_RANGE_MAX", 8)
    monkeypatch.setattr(verify, "EXPECTED_FIRST_OCCURRENCES", {2: 4, 3: 7})
    monkeypatch.setattr(verify, "thickness_profile", early)
    result = _first_occurrence_result(11)
    assert not result.ok
    assert "new orders {4: 10} are not at r(r+1)/2 + 1" in result.detail


def test_clique_search_check_catches_a_wrong_profile(monkeypatch):
    def raised(n):
        prof = thickness_profile(n)
        if n != 6:
            return prof
        return dataclasses.replace(prof, tau=(prof.tau[0] + 1, *prof.tau[1:]))

    monkeypatch.setattr(verify, "thickness_profile", raised)
    results = {r.name: r for r in verify.run_checks(1, 7)}
    search = results["clique search matches the corner formula"]
    assert not search.ok
    assert "n=6, 6" in search.detail
    assert not results["corner formula matches enumeration oracle"].ok


def test_thickness_conjugation_is_checked_past_n_20(monkeypatch):
    def skewed(n):
        prof = thickness_profile(n)
        if n != 23:
            return prof
        # (23) now disagrees with its conjugate (1^23); tau_max and the locus stay
        return dataclasses.replace(prof, tau=(prof.tau[0] + 1, *prof.tau[1:]))

    monkeypatch.setattr(verify, "thickness_profile", skewed)
    results = {r.name: r for r in verify.run_checks(22, 23)}
    check = results["thickness conjugation invariance"]
    assert not check.ok
    assert "n=23" in check.detail


def test_idempotence_check_covers_the_requested_range(monkeypatch):
    real = pipeline.compute_artifacts_for_n
    calls = []

    def drifting(n, out_root):
        real(n, out_root)
        calls.append(n)
        if len(calls) == 2:
            (pipeline.n_dir(out_root, n) / "edges.txt").write_text("changed\n")

    monkeypatch.setattr(pipeline, "compute_artifacts_for_n", drifting)
    results = {r.name: r for r in verify.run_checks(6, 7)}
    assert calls == [6, 6]
    assert not results["artifact generation idempotence"].ok


def test_details_name_only_the_checked_range():
    results = verify.run_checks(21, 22)
    assert all(r.ok for r in results), [r for r in results if not r.ok]
    # only the golden tables need profiles from n=1
    assert "maximal loci keep away from the antennas" in {r.name for r in results}
    for r in results:
        for first, last in re.findall(r"n(?:=| up to )(\d+)(?:\.\.(\d+))?", r.detail):
            assert 21 <= int(first) <= int(last or first) <= 22, (r.name, r.detail)


def test_passing_verify_formats_no_partition(monkeypatch):
    # a failure message is built only when its check fails
    def refuse(parts):
        raise RuntimeError("a passing check formatted a partition")

    monkeypatch.setattr(verify, "format_partition", refuse)
    results = verify.run_checks(1, 9)
    assert all(r.ok for r in results), [r.name for r in results if not r.ok]


def test_check_names_are_unique():
    # results are read by name, so a repeated name would hide a verdict
    names = [name for name, _ in verify.CHECKS]
    assert len(names) == len(set(names))


def _with_row(row_of):
    """build_graph with row 3 of G_5 replaced by ``row_of(old_row)``."""

    def patched(n):
        graph = build_graph(n)
        if n != 5:
            return graph
        adj = list(graph.adj)
        adj[3] = tuple(row_of(adj[3]))
        return dataclasses.replace(graph, adj=tuple(adj))

    return patched


@pytest.mark.parametrize(
    "row_of, detail",
    [
        # (3,1,1) and (1^5) are not adjacent; only row 3 gains the edge
        (lambda row: sorted({*row, 6}), "asymmetric edge 3/6 at n=5"),
        (lambda row: sorted({*row, 3}), "self-loop at n=5"),
        (lambda row: (*row, row[-1]), "duplicate neighbor at n=5"),
    ],
    ids=["asymmetric", "self-loop", "duplicate"],
)
def test_adjacency_check_catches_a_malformed_row(monkeypatch, row_of, detail):
    monkeypatch.setattr(verify, "build_graph", _with_row(row_of))
    results = {r.name: r for r in verify.run_checks(1, 8)}
    check = results["adjacency structure"]
    assert not check.ok
    assert check.detail == f"raised AssertionError: {detail}"


def test_results_carry_check_seconds():
    results = verify.run_checks(1, 4)
    assert all(r.seconds >= 0 for r in results)
    assert sum(r.seconds for r in results) > 0


# sizes one n=24 bundle, with the enumeration and index warmed, and then
# runs every check over 1..24; prints the failed checks, the bundle's size
# and the run's traced peak
HOLD_PROBE = """
import json, tracemalloc
from partition_atlas import verify
from partition_atlas.partitions import canonical_index, enumerate_partitions


def traced(make):
    tracemalloc.start()
    try:
        value = make()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, held, peak


n = 24
enumerate_partitions(n)
canonical_index(n)
_, bundle, _ = traced(lambda: verify._bundle(n))
results, _, peak = traced(lambda: verify.run_checks(1, n))
print(json.dumps([[r.name for r in results if not r.ok], bundle, peak]))
"""


def test_run_checks_holds_one_n_at_a_time(fresh_python):
    failed, bundle, peak = fresh_python(HOLD_PROBE)
    assert not failed, failed
    # a runner that holds every n of the range reads 4.6 bundles here
    assert peak < 2 * bundle, (peak, bundle)


def test_run_checks_builds_each_graph_once_in_order(monkeypatch):
    built = []

    def counted(n):
        built.append(n)
        return build_graph(n)

    monkeypatch.setattr(verify, "build_graph", counted)
    results = verify.run_checks(1, 30)
    assert all(r.ok for r in results), [r for r in results if not r.ok]
    assert built == list(range(1, 31))
    # only the latest enumeration survives the run
    for cached in (enumerate_partitions, canonical_index):
        info = cached.cache_info()
        assert info.currsize == 1, cached
        cached(30)
        assert cached.cache_info().hits == info.hits + 1, cached


# the report's exact text; how the runner walks the range must not move a byte
VERIFY_12_STDOUT = """\
[PASS] partition counts match independent recurrence: p(n) agrees with the recurrence for n=1..12
[PASS] canonical enumeration order: reverse-lexicographic, extremes at the ends
[PASS] conjugation is an involution: involution and largest/length swap hold
[PASS] adjacency structure: symmetric, irreflexive, duplicate-free
[PASS] graph connectivity: G_n connected for n=1..12
[PASS] conjugation is a graph automorphism: every vertex for n=1..12
[PASS] left boundary edge is a path: consecutive two-part partitions are adjacent
[PASS] antenna rigidity: degree 1 and thickness 1 at both extremes
[PASS] boundary framework shape: contains antennas, closed under conjugation, induced-connected
[PASS] self-conjugate axis size: axis size equals the distinct-odd-parts count
[PASS] thickness conjugation invariance: every vertex for n=1..12
[PASS] clique search matches the corner formula: every vertex for n=1..12
[PASS] corner formula matches enumeration oracle: exhaustive agreement for n=1..12
[PASS] thickness bounds: degree bound and minimum thickness hold
[PASS] maximal-thickness locus: nonempty, conjugation-invariant, antenna-free above thickness 1
[PASS] zone decomposition partitions: shell and core split every zone exactly
[PASS] zone and shell nesting: zones and shells are nested, higher orders stay triangular
[PASS] first shell order is trivial: order-1 shell is everything, its core empty
[PASS] zone conjugation invariance: zones, shells and cores invariant for n=1..12
[PASS] antenna exclusion from thick zones: antennas stay outside the triangular regime
[PASS] first-occurrence table matches expected values: {2: 4, 3: 7, 4: 11}
[PASS] maximal-thickness table matches expected values: matched at n in [7, 11]
[PASS] maximal loci keep away from the antennas: antenna distance >= 2 for n in [7, 8, 9, 10, 11, 12]
[PASS] layout conjugation symmetry: conjugation transposes every base cell
[PASS] rendering determinism: byte-identical repeated renders at n=7
[PASS] artifact generation idempotence: identical artifacts for n=1..5
26/26 checks passed
"""

RUN_CHECKS_21_22 = [
    ('partition counts match independent recurrence', True, 'p(n) agrees with the recurrence for n=21..22'),
    ('canonical enumeration order', True, 'reverse-lexicographic, extremes at the ends'),
    ('conjugation is an involution', True, 'involution and largest/length swap hold'),
    ('adjacency structure', True, 'symmetric, irreflexive, duplicate-free'),
    ('graph connectivity', True, 'G_n connected for n=21..22'),
    ('conjugation is a graph automorphism', True, 'every vertex for n=21..22'),
    ('left boundary edge is a path', True, 'consecutive two-part partitions are adjacent'),
    ('antenna rigidity', True, 'degree 1 and thickness 1 at both extremes'),
    ('boundary framework shape', True, 'contains antennas, closed under conjugation, induced-connected'),
    ('self-conjugate axis size', True, 'axis size equals the distinct-odd-parts count'),
    ('thickness conjugation invariance', True, 'every vertex for n=21..22'),
    ('clique search matches the corner formula', True, 'every vertex for n=21..22'),
    ('corner formula matches enumeration oracle', True, 'no n <= 12 in range'),
    ('thickness bounds', True, 'degree bound and minimum thickness hold'),
    ('maximal-thickness locus', True, 'nonempty, conjugation-invariant, antenna-free above thickness 1'),
    ('zone decomposition partitions', True, 'shell and core split every zone exactly'),
    ('zone and shell nesting', True, 'zones and shells are nested, higher orders stay triangular'),
    ('first shell order is trivial', True, 'order-1 shell is everything, its core empty'),
    ('zone conjugation invariance', True, 'zones, shells and cores invariant for n=21..22'),
    ('antenna exclusion from thick zones', True, 'antennas stay outside the triangular regime'),
    ('maximal loci keep away from the antennas', True, 'antenna distance >= 2 for n in [21, 22]'),
    ('layout conjugation symmetry', True, 'conjugation transposes every base cell'),
    ('rendering determinism', True, 'byte-identical repeated renders at n=21'),
    ('artifact generation idempotence', True, 'identical artifacts for n=21..21'),
]


def test_verify_stdout_is_pinned(capsys):
    main(["verify", "--n-max", "12"], standalone_mode=False)
    assert capsys.readouterr().out == VERIFY_12_STDOUT


def test_run_checks_verdicts_are_pinned():
    assert [(r.name, r.ok, r.detail) for r in verify.run_checks(21, 22)] == RUN_CHECKS_21_22


def _verdicts(results):
    return [(r.name, r.ok, r.detail) for r in results]


def test_parallel_run_checks_verdicts_are_pinned():
    assert _verdicts(verify.run_checks(21, 22, workers=2)) == RUN_CHECKS_21_22


def test_parallel_run_checks_matches_one_process():
    assert _verdicts(verify.run_checks(1, 14, workers=2)) == _verdicts(verify.run_checks(1, 14))


def test_parallel_failure_names_the_smallest_failing_n(monkeypatch):
    # the axis count is off at n=9 and n=12; the pool checks n=12 first
    real = verify._distinct_odd_part_count
    monkeypatch.setattr(verify, "_distinct_odd_part_count", lambda n: real(n) + (n in (9, 12)))
    serial = verify.run_checks(1, 14)
    parallel = verify.run_checks(1, 14, workers=2)
    assert _verdicts(parallel) == _verdicts(serial)
    (check,) = [r for r in parallel if r.name == "self-conjugate axis size"]
    assert not check.ok
    assert check.detail == "raised AssertionError: axis size mismatch at n=9"
