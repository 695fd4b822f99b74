import dataclasses
import re

from partition_atlas import Partition, pipeline, thickness_profile, verify


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
    def early(graph):
        prof = thickness_profile(graph)
        if graph.n != 10:
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
    def raised(graph):
        prof = thickness_profile(graph)
        if graph.n != 6:
            return prof
        return dataclasses.replace(prof, tau=(prof.tau[0] + 1, *prof.tau[1:]))

    monkeypatch.setattr(verify, "thickness_profile", raised)
    results = {r.name: r for r in verify.run_checks(1, 7)}
    search = results["clique search matches the corner formula"]
    assert not search.ok
    assert "n=6, 6" in search.detail
    assert not results["corner formula matches enumeration oracle"].ok


def test_thickness_conjugation_is_checked_past_n_20(monkeypatch):
    def skewed(graph):
        prof = thickness_profile(graph)
        if graph.n != 23:
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
    def refuse(self):
        raise RuntimeError("a passing check formatted a partition")

    monkeypatch.setattr(Partition, "__str__", refuse)
    results = verify.run_checks(1, 9)
    assert all(r.ok for r in results), [r.name for r in results if not r.ok]


def test_check_names_are_unique():
    # results are read by name, so a repeated name would hide a verdict
    names = [name for name, _ in verify.CHECKS]
    assert len(names) == len(set(names))
