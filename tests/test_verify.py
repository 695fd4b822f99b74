from partition_atlas import verify


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
