import json
import re
import weakref

import pytest
from conftest import PAPER_FIRST_OCCURRENCES, PAPER_MAX_LOCUS, invoke

from partition_atlas import build_graph, pipeline, thickness_profile, verify
from partition_atlas.cli import main
from partition_atlas.partitions import canonical_index, enumerate_partitions, parse_partition
from partition_atlas.transfer_graph import TransferGraph
from partition_atlas.zones import ZoneDecomposition, zone_sweep

FIRST_OCCURRENCE = "first-occurrence table matches expected values"
MAX_LOCUS_TABLE = "maximal-thickness table matches expected values"


def _verdict(name, n_max, n_min=1):
    (result,) = [r for r in verify.run_checks(n_min, n_max) if r.name == name]
    return result


def _profile_changed_at(n_bad, change):
    """thickness_profile with the profile of ``n_bad`` replaced by ``change(profile)``."""

    def patched(n):
        prof = thickness_profile(n)
        return change(prof) if n == n_bad else prof

    return patched


def test_closed_forms_reproduce_the_paper_tables():
    firsts = {r: v for r, v in verify._transitions(30).items() if r >= 2}
    assert firsts == PAPER_FIRST_OCCURRENCES
    for n, (tau_max, size, members) in PAPER_MAX_LOCUS.items():
        assert verify._staircase_order(n) == tau_max
        covers = verify._staircase_covers(tau_max)
        assert len(covers) == size
        assert {parse_partition(text) for text in members} <= covers


def test_closed_forms_match_graph_free_tables(tmp_path):
    # every row that tables writes up to 40, from profiles alone
    args = ["tables", "--n-max", "40", "--allow-beyond-verified-range", "--out", str(tmp_path)]
    assert invoke(args).exit_code == 0
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert len(summary) == 41
    for row in summary[1:]:
        n, _, tau_max, size = map(int, row.split(","))
        r = verify._staircase_order(n)
        assert tau_max == r, row
        n_r = r * (r + 1) // 2 + 1
        assert size == {n_r: r + 1, n_r + 1: 2 * r + 1}.get(n, size), row
    firsts = {r: v for r, v in verify._transitions(40).items() if r >= 2}
    rows = (tmp_path / "first_occurrences.csv").read_text().splitlines()
    assert rows == ["r,n_r", *(f"{r},{v}" for r, v in firsts.items())]
    members = json.loads((tmp_path / "max_locus_members.json").read_text())
    assert members.keys() == {str(v) for v in firsts.values()}
    for r, v in firsts.items():
        assert set(map(parse_partition, members[str(v)])) == verify._staircase_covers(r), v


def test_first_occurrence_mismatch_within_reference_fails(monkeypatch):
    # order 3 one n before n_3 = 7, and one n after it
    for n_bad, tau_max, expected in ((6, 3, 2), (7, 2, 3)):

        def wrong(prof, tau_max=tau_max):
            return prof._replace(tau_max=tau_max)

        monkeypatch.setattr(verify, "thickness_profile", _profile_changed_at(n_bad, wrong))
        result = _verdict(FIRST_OCCURRENCE, 11)
        assert not result.ok
        detail = f"tau_max {tau_max} at n={n_bad}, expected {expected}"
        assert result.detail == f"raised AssertionError: {detail}"


def test_first_occurrence_off_the_formula_fails(monkeypatch):
    # a profile that reaches order 4 at n=10, one n before n_4 = 11, past
    # a lowered reference range, on a range from 1 and on one from 9
    def early(prof):
        return prof._replace(tau=(4, *prof.tau[1:]), tau_max=4, max_locus=(0,))

    monkeypatch.setattr(verify, "REFERENCE_RANGE_MAX", 8)
    monkeypatch.setattr(verify, "thickness_profile", _profile_changed_at(10, early))
    for n_min in (1, 9):
        result = _verdict(FIRST_OCCURRENCE, 11, n_min)
        assert not result.ok
        assert result.detail == "raised AssertionError: tau_max 4 at n=10, expected 3"


def test_first_occurrence_beyond_reference_is_reported_as_new(monkeypatch):
    monkeypatch.setattr(verify, "REFERENCE_RANGE_MAX", 8)
    result = _verdict(FIRST_OCCURRENCE, 11)
    assert result.ok, result.detail
    assert result.detail == "{2: 4, 3: 7}; new beyond n=8: {4: 11}, each at r(r+1)/2 + 1"


def test_first_occurrences_beyond_reference_follow_the_formula(monkeypatch):
    monkeypatch.setattr(verify, "REFERENCE_RANGE_MAX", 5)
    result = _verdict(FIRST_OCCURRENCE, 12)
    assert result.ok, result.detail
    assert result.detail == "{2: 4}; new beyond n=5: {3: 7, 4: 11}, each at r(r+1)/2 + 1"


@pytest.mark.parametrize(
    "n_bad, change, detail",
    [
        # n_3 = 7: one cover of (3, 2, 1) left out of the locus
        (7, lambda locus: locus[1:], "locus at n=7 is not the covers of delta_3"),
        # as many members, one of them swapped for (7), which has thickness 1
        (7, lambda locus: (0, *locus[1:]), "locus at n=7 is not the covers of delta_3"),
        # n_3 + 1 = 8: one member of seven left out
        (8, lambda locus: locus[1:], "locus size 6 at n=8, expected 7"),
    ],
    ids=["short-at-n_r", "swapped-at-n_r", "short-after-n_r"],
)
def test_max_locus_table_check_catches_a_wrong_locus(monkeypatch, n_bad, change, detail):
    def wrong(prof):
        return prof._replace(max_locus=change(prof.max_locus))

    monkeypatch.setattr(verify, "thickness_profile", _profile_changed_at(n_bad, wrong))
    result = _verdict(MAX_LOCUS_TABLE, 9)
    assert not result.ok
    assert result.detail == f"raised AssertionError: {detail}"


def test_clique_search_check_catches_a_wrong_profile(monkeypatch):
    def raised(n):
        prof = thickness_profile(n)
        if n != 6:
            return prof
        return prof._replace(tau=(prof.tau[0] + 1, *prof.tau[1:]))

    monkeypatch.setattr(verify, "thickness_profile", raised)
    results = {r.name: r for r in verify.run_checks(1, 7)}
    search = results["clique search matches the corner formula"]
    assert not search.ok
    assert "n=6, 6" in search.detail
    assert not results["corner formula matches enumeration oracle"].ok


def test_clique_search_check_fails_on_a_false_automorphism(monkeypatch):
    # the search proves the permutation it is given before searching with
    # it; at n=8, (4,2,1,1) and (4,1,1,1,1) swapped, all else fixed, is an
    # involution but no automorphism
    real = TransferGraph.conjugation_permutation

    def swapped(graph):
        if graph.n != 8:
            return real(graph)
        perm = list(range(len(graph.adj)))
        perm[10], perm[11] = 11, 10
        return tuple(perm)

    monkeypatch.setattr(TransferGraph, "conjugation_permutation", swapped)
    results = {r.name: r for r in verify.run_checks(7, 8)}
    search = results["clique search matches the corner formula"]
    assert not search.ok
    assert search.detail == "raised ValueError: not an involutive automorphism of G_8 at vertex 5"


def test_automorphism_check_names_the_smallest_failing_vertex(monkeypatch):
    # the edge (3,3,1,1)-(3,2,2,1) of G_8 dropped from both its rows leaves
    # the rows symmetric; its conjugate edge (4,2,2)-(4,3,1) stays, so the
    # rows of 8, 9, 13 and 14 are not mapped onto their images' rows
    def dropped(n):
        graph = build_graph(n)
        if n != 8:
            return graph
        adj = list(graph.adj)
        adj[13] = tuple(j for j in adj[13] if j != 14)
        adj[14] = tuple(j for j in adj[14] if j != 13)
        return TransferGraph(graph.n, graph.vertices, tuple(adj), graph.parts_index)

    monkeypatch.setattr(verify, "build_graph", dropped)
    results = {r.name: r for r in verify.run_checks(7, 9)}
    assert results["adjacency structure"].ok
    check = results["conjugation is a graph automorphism"]
    assert not check.ok
    assert check.detail == "raised AssertionError: automorphism fails at n=8, vertex 8"


def test_thickness_conjugation_is_checked_past_n_20(monkeypatch):
    def skewed(n):
        prof = thickness_profile(n)
        if n != 23:
            return prof
        # (23) now disagrees with its conjugate (1^23); tau_max and the locus stay
        return prof._replace(tau=(prof.tau[0] + 1, *prof.tau[1:]))

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
    # every check runs on a range that starts above 1
    assert [r.name for r in results] == [name for name, _ in verify.CHECKS]
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
        return TransferGraph(graph.n, graph.vertices, tuple(adj), graph.parts_index)

    return patched


@pytest.mark.parametrize(
    "row_of, detail",
    [
        # (3,1,1) and (1^5) are not adjacent; only row 3 gains the edge
        (lambda row: sorted({*row, 6}), "asymmetric edge 3/6 at n=5"),
        # (5) and (3,1,1) are not adjacent; row 3 gains the lower neighbor
        # 0, which does not list 3 back, so the rows hold one entry more
        # below the diagonal than above it
        (lambda row: sorted({*row, 0}), "asymmetric edge 3/0 at n=5"),
        (lambda row: sorted({*row, 3}), "self-loop at n=5"),
        (lambda row: (*row, row[-1]), "duplicate neighbor at n=5"),
        # every edge still symmetric, the last two neighbors swapped
        (lambda row: (*row[:-2], row[-1], row[-2]), "unsorted row 3 at n=5"),
    ],
    ids=["asymmetric", "asymmetric-below", "self-loop", "duplicate", "unsorted"],
)
def test_adjacency_check_catches_a_malformed_row(monkeypatch, row_of, detail):
    monkeypatch.setattr(verify, "build_graph", _with_row(row_of))
    results = {r.name: r for r in verify.run_checks(1, 8)}
    check = results["adjacency structure"]
    assert not check.ok
    assert check.detail == f"raised AssertionError: {detail}"


@pytest.mark.parametrize(
    "broken, detail",
    [
        (lambda dec, zone: dict(core=dec.threshold, shell=dec.threshold), "shell/core"),
        # as many members as the zone, one of them outside it
        (lambda dec, zone: dict(shell=frozenset([*zone[1:], 999]), core=frozenset()), "shell/core"),
        # sizes that add up to the zone's, from halves that overlap
        (
            lambda dec, zone: dict(shell=frozenset(zone[:2]), core=frozenset(zone[1:-1])),
            "shell/core",
        ),
        (lambda dec, zone: dict(components=(_component(dec, zone[1:]),)), "components"),
        (lambda dec, zone: dict(components=(_component(dec, [*zone[1:], 999]),)), "components"),
    ],
    ids=["both-the-zone", "shell-leaves-the-zone", "halves-overlap", "short", "component-leaves"],
)
def test_zone_partition_check_catches_a_broken_split(monkeypatch, broken, detail):
    def broken_at_2(graph, framework, profile):
        for dec in zone_sweep(graph, framework, profile):
            if dec.r == 2:
                dec = _changed(dec, **broken(dec, sorted(dec.threshold)))
            yield dec

    monkeypatch.setattr(verify, "zone_sweep", broken_at_2)
    result = _verdict("zone decomposition partitions", 8, 8)
    assert not result.ok
    assert result.detail == f"raised AssertionError: {detail} at n=8, r=2"


def test_zone_check_names_the_smallest_failing_order(monkeypatch):
    # the sweep reaches order 3 first at n=8; orders 3 and 2 are broken
    def broken_from_2(graph, framework, profile):
        for dec in zone_sweep(graph, framework, profile):
            yield _changed(dec, core=dec.threshold) if dec.r >= 2 else dec

    monkeypatch.setattr(verify, "zone_sweep", broken_from_2)
    result = _verdict("zone decomposition partitions", 8, 8)
    assert not result.ok
    assert result.detail == "raised AssertionError: shell/core at n=8, r=2"


def test_check_n_lets_each_zone_order_go_before_the_next_but_one(monkeypatch):
    # a weak reference to every order of n=16, tau_max 5; when the sweep
    # has made an order, every order above the one above it must be gone
    refs = []
    held = []
    sweeps = []

    def watched(graph, framework, profile):
        sweeps.append(graph.n)
        for dec in zone_sweep(graph, framework, profile):
            held.append([ref().r for ref in refs[:-1] if ref() is not None])
            refs.append(weakref.ref(dec))
            yield dec

    monkeypatch.setattr(verify, "zone_sweep", watched)
    outcomes = verify._check_n(16, 16, 16)
    assert all(ok for ok, _, _ in outcomes), outcomes
    assert sweeps == [16]
    assert [ref() for ref in refs] == [None] * 5
    assert held == [[], [], [], [], []]


def _component(dec, vertices):
    return dec.components[0]._replace(vertices=frozenset(vertices))


def _changed(dec, **fields):
    """A copy of the decomposition ``dec`` with the given fields changed."""
    kept = dict(
        n=dec.n,
        r=dec.r,
        threshold=dec.threshold,
        exact=dec.exact,
        components=dec.components,
        shell=dec.shell,
        core=dec.core,
    )
    return ZoneDecomposition(**{**kept, **fields})


def test_results_carry_check_seconds():
    results = verify.run_checks(1, 4)
    assert all(r.seconds >= 0 for r in results)
    assert sum(r.seconds for r in results) > 0


# sizes all of n=24 (its bundle and every zone order), with the
# enumeration and index warmed, and then runs every check over 1..24;
# prints the failed checks, the size of n=24 and the run's traced peak
HOLD_PROBE = """
import json, tracemalloc
from partition_atlas import verify
from partition_atlas.partitions import canonical_index, enumerate_partitions
from partition_atlas.zones import ZoneDecomposition, zone_sweep


def traced(make):
    tracemalloc.start()
    try:
        value = make()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, held, peak


def whole(n):
    b = verify._bundle(n)
    return b, list(zone_sweep(b.graph, b.framework, b.profile))


n = 24
enumerate_partitions(n)
canonical_index(n)
_, size, _ = traced(lambda: whole(n))
results, _, peak = traced(lambda: verify.run_checks(1, n))
print(json.dumps([[r.name for r in results if not r.ok], size, peak]))
"""


def test_run_checks_holds_one_n_at_a_time(fresh_python):
    failed, size, peak = fresh_python(HOLD_PROBE)
    assert not failed, failed
    # a runner that keeps every n of the range, with its zone orders,
    # reads 6.5 times the size of n=24 here
    assert peak < 2 * size, (peak, size)


# sizes a copy of the rows of G_24, then runs the adjacency check on the
# graph; prints the copy's size and the check's traced peak
ADJACENCY_PROBE = """
import json, tracemalloc
from partition_atlas import verify

b = verify._bundle(24)
tracemalloc.start()
rows = tuple(map(tuple, map(list, b.graph.adj)))
size = tracemalloc.get_traced_memory()[0]
del rows
tracemalloc.stop()
tracemalloc.start()
detail = verify._check_adjacency_shape(verify._Range(24, 24), b)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(json.dumps([detail, size, peak]))
"""


def test_adjacency_check_builds_no_copy_of_the_rows(fresh_python):
    detail, size, peak = fresh_python(ADJACENCY_PROBE)
    assert detail == "symmetric, irreflexive, duplicate-free"
    assert peak < size / 10, (peak, size)


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
[PASS] maximal-thickness table matches expected values: covers of (r, ..., 1) at n in [2, 4, 7, 11]; 2r + 1 members at n in [3, 5, 8, 12]
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
    ('first-occurrence table matches expected values', True, '{6: 22}'),
    ('maximal-thickness table matches expected values', True, 'covers of (r, ..., 1) at n in [22]'),
    ('maximal loci keep away from the antennas', True, 'antenna distance >= 2 for n in [21, 22]'),
    ('layout conjugation symmetry', True, 'conjugation transposes every base cell'),
    ('rendering determinism', True, 'byte-identical repeated renders at n=21'),
    ('artifact generation idempotence', True, 'identical artifacts for n=21..21'),
]

# n=1 is the one n with no zone order (tau_max = 0)
RUN_CHECKS_1_1 = [
    ('partition counts match independent recurrence', True, 'p(n) agrees with the recurrence for n=1..1'),
    ('canonical enumeration order', True, 'reverse-lexicographic, extremes at the ends'),
    ('conjugation is an involution', True, 'involution and largest/length swap hold'),
    ('adjacency structure', True, 'symmetric, irreflexive, duplicate-free'),
    ('graph connectivity', True, 'G_n connected for n=1..1'),
    ('conjugation is a graph automorphism', True, 'every vertex for n=1..1'),
    ('left boundary edge is a path', True, 'consecutive two-part partitions are adjacent'),
    ('antenna rigidity', True, 'degree 1 and thickness 1 at both extremes'),
    ('boundary framework shape', True, 'contains antennas, closed under conjugation, induced-connected'),
    ('self-conjugate axis size', True, 'axis size equals the distinct-odd-parts count'),
    ('thickness conjugation invariance', True, 'every vertex for n=1..1'),
    ('clique search matches the corner formula', True, 'every vertex for n=1..1'),
    ('corner formula matches enumeration oracle', True, 'exhaustive agreement for n=1..1'),
    ('thickness bounds', True, 'degree bound and minimum thickness hold'),
    ('maximal-thickness locus', True, 'nonempty, conjugation-invariant, antenna-free above thickness 1'),
    ('zone decomposition partitions', True, 'shell and core split every zone exactly'),
    ('zone and shell nesting', True, 'zones and shells are nested, higher orders stay triangular'),
    ('first shell order is trivial', True, 'order-1 shell is everything, its core empty'),
    ('zone conjugation invariance', True, 'zones, shells and cores invariant for n=1..1'),
    ('antenna exclusion from thick zones', True, 'antennas stay outside the triangular regime'),
    ('first-occurrence table matches expected values', True, 'no order realized in range'),
    ('maximal-thickness table matches expected values', True, 'no transition n in range'),
    ('maximal loci keep away from the antennas', True, 'no n >= 7 in range'),
    ('layout conjugation symmetry', True, 'conjugation transposes every base cell'),
    ('rendering determinism', True, 'byte-identical repeated renders at n=1'),
    ('artifact generation idempotence', True, 'identical artifacts for n=1..1'),
]

RUN_CHECKS_1_2 = [
    ('partition counts match independent recurrence', True, 'p(n) agrees with the recurrence for n=1..2'),
    ('canonical enumeration order', True, 'reverse-lexicographic, extremes at the ends'),
    ('conjugation is an involution', True, 'involution and largest/length swap hold'),
    ('adjacency structure', True, 'symmetric, irreflexive, duplicate-free'),
    ('graph connectivity', True, 'G_n connected for n=1..2'),
    ('conjugation is a graph automorphism', True, 'every vertex for n=1..2'),
    ('left boundary edge is a path', True, 'consecutive two-part partitions are adjacent'),
    ('antenna rigidity', True, 'degree 1 and thickness 1 at both extremes'),
    ('boundary framework shape', True, 'contains antennas, closed under conjugation, induced-connected'),
    ('self-conjugate axis size', True, 'axis size equals the distinct-odd-parts count'),
    ('thickness conjugation invariance', True, 'every vertex for n=1..2'),
    ('clique search matches the corner formula', True, 'every vertex for n=1..2'),
    ('corner formula matches enumeration oracle', True, 'exhaustive agreement for n=1..2'),
    ('thickness bounds', True, 'degree bound and minimum thickness hold'),
    ('maximal-thickness locus', True, 'nonempty, conjugation-invariant, antenna-free above thickness 1'),
    ('zone decomposition partitions', True, 'shell and core split every zone exactly'),
    ('zone and shell nesting', True, 'zones and shells are nested, higher orders stay triangular'),
    ('first shell order is trivial', True, 'order-1 shell is everything, its core empty'),
    ('zone conjugation invariance', True, 'zones, shells and cores invariant for n=1..2'),
    ('antenna exclusion from thick zones', True, 'antennas stay outside the triangular regime'),
    ('first-occurrence table matches expected values', True, 'no order realized in range'),
    ('maximal-thickness table matches expected values', True, 'covers of (r, ..., 1) at n in [2]'),
    ('maximal loci keep away from the antennas', True, 'no n >= 7 in range'),
    ('layout conjugation symmetry', True, 'conjugation transposes every base cell'),
    ('rendering determinism', True, 'byte-identical repeated renders at n=2'),
    ('artifact generation idempotence', True, 'identical artifacts for n=1..2'),
]


def test_verify_stdout_is_pinned(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["verify", "--n-max", "12"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out == VERIFY_12_STDOUT


def test_run_checks_verdicts_are_pinned():
    assert [(r.name, r.ok, r.detail) for r in verify.run_checks(21, 22)] == RUN_CHECKS_21_22


def test_run_checks_verdicts_are_pinned_from_n_1():
    assert [(r.name, r.ok, r.detail) for r in verify.run_checks(1, 1)] == RUN_CHECKS_1_1
    assert [(r.name, r.ok, r.detail) for r in verify.run_checks(1, 2)] == RUN_CHECKS_1_2


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
