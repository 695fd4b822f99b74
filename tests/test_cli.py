import json
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from partition_atlas.cli import main


def _tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_compute_small_range(tmp_path):
    out = tmp_path / "artifacts"
    result = CliRunner().invoke(
        main, ["compute", "--n-min", "1", "--n-max", "7", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    for n in range(1, 8):
        d = out / f"n{n:02d}"
        for name in ("edges.txt", "framework.json", "profile.csv", "profile.json"):
            assert (d / name).exists()
    # zone files go up to tau_max of each n
    assert (out / "n07" / "zones_r3.json").exists()
    assert not (out / "n07" / "zones_r4.json").exists()
    assert not (out / "n01" / "zones_r1.json").exists()
    doc = json.loads((out / "n07" / "profile.json").read_text())
    assert doc["tau_max"] == 3


def test_compute_is_idempotent(tmp_path):
    out = tmp_path / "artifacts"
    runner = CliRunner()
    assert runner.invoke(main, ["compute", "--n-max", "6", "--out", str(out)]).exit_code == 0
    before = _tree(out)
    assert runner.invoke(main, ["compute", "--n-max", "6", "--out", str(out)]).exit_code == 0
    assert _tree(out) == before


def test_compute_parallel_matches_serial(tmp_path):
    runner = CliRunner()
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert runner.invoke(main, ["compute", "--n-max", "6", "--out", str(serial)]).exit_code == 0
    assert (
        runner.invoke(
            main, ["compute", "--n-max", "6", "--out", str(parallel), "--jobs", "2"]
        ).exit_code
        == 0
    )
    assert _tree(serial) == _tree(parallel)


def test_compute_soft_caps_range(tmp_path):
    out = tmp_path / "artifacts"
    result = CliRunner().invoke(
        main,
        ["compute", "--n-min", "29", "--n-max", "32", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    assert "capping" in result.output
    assert (out / "n30").exists()
    assert not (out / "n31").exists()


def test_compute_refuses_range_starting_past_cap(tmp_path):
    out = tmp_path / "artifacts"
    result = CliRunner().invoke(
        main, ["compute", "--n-min", "35", "--n-max", "36", "--out", str(out)]
    )
    assert result.exit_code == 2
    assert "--allow-beyond-verified-range" in result.output
    assert not out.exists()


def test_verify_refuses_range_starting_past_cap():
    result = CliRunner().invoke(main, ["verify", "--n-min", "40", "--n-max", "41"])
    assert result.exit_code == 2
    assert "--allow-beyond-verified-range" in result.output
    assert "checks passed" not in result.output


def test_compute_rejects_bad_range(tmp_path):
    result = CliRunner().invoke(
        main, ["compute", "--n-min", "5", "--n-max", "2", "--out", str(tmp_path)]
    )
    assert result.exit_code == 2


def test_compute_rejects_negative_jobs(tmp_path):
    result = CliRunner().invoke(
        main, ["compute", "--n-max", "3", "--out", str(tmp_path), "--jobs", "-1"]
    )
    assert result.exit_code == 2
    assert "invalid worker count -1" in result.output
    assert not list(tmp_path.iterdir())


def test_tables_reuses_compute_artifacts(tmp_path):
    out = tmp_path / "artifacts"
    runner = CliRunner()
    assert runner.invoke(main, ["compute", "--n-max", "7", "--out", str(out)]).exit_code == 0
    result = runner.invoke(main, ["tables", "--n-max", "7", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert (out / "first_occurrences.csv").read_text() == "r,n_r\n2,4\n3,7\n"


def test_tables_builds_no_graph(tmp_path, monkeypatch):
    from partition_atlas import transfer_graph

    runner = CliRunner()
    computed = tmp_path / "computed"
    assert runner.invoke(main, ["compute", "--n-max", "12", "--out", str(computed)]).exit_code == 0
    assert runner.invoke(main, ["tables", "--n-max", "12", "--out", str(computed)]).exit_code == 0

    def refuse(n):
        raise AssertionError(f"tables built the graph for n={n}")

    monkeypatch.setattr(transfer_graph, "build_graph", refuse)
    fresh = tmp_path / "fresh"
    result = runner.invoke(main, ["tables", "--n-max", "12", "--out", str(fresh)])
    assert result.exit_code == 0, (result.output, result.exception)
    for name in ("first_occurrences.csv", "summary.csv", "max_locus_members.json"):
        assert (fresh / name).read_bytes() == (computed / name).read_bytes(), name


def test_tables_enumerates_each_n_once(tmp_path):
    # the max-locus table names its members while tables walks n, so no
    # first-occurrence n is enumerated a second time afterwards
    from partition_atlas.partitions import _partition_tuples

    runner = CliRunner()
    computed = tmp_path / "computed"
    assert runner.invoke(main, ["compute", "--n-max", "12", "--out", str(computed)]).exit_code == 0
    for out, n_max, flags in ((tmp_path / "fresh", 30, []), (computed, 12, ["--no-recompute"])):
        _partition_tuples.cache_clear()
        result = runner.invoke(main, ["tables", "--n-max", str(n_max), "--out", str(out), *flags])
        assert result.exit_code == 0, result.output
        assert _partition_tuples.cache_info().misses == n_max, out
    loci = json.loads((tmp_path / "fresh" / "max_locus_members.json").read_text())
    assert list(loci) == ["4", "7", "11", "16", "22", "29"]
    assert len(loci["29"]) == 8
    assert {"8,6,5,4,3,2,1", "7,7,5,4,3,2,1"} <= set(loci["29"])


def test_tables_small_ranges(tmp_path):
    runner = CliRunner()
    out = tmp_path / "a"
    assert runner.invoke(main, ["tables", "--n-max", "6", "--out", str(out)]).exit_code == 0
    assert (out / "first_occurrences.csv").read_text() == "r,n_r\n2,4\n"
    out2 = tmp_path / "b"
    assert runner.invoke(main, ["tables", "--n-max", "3", "--out", str(out2)]).exit_code == 0
    lines = (out2 / "first_occurrences.csv").read_text().strip().split("\n")
    assert lines[0] == "r,n_r"
    assert lines[1].startswith("#")


def test_tables_no_recompute_needs_artifacts(tmp_path):
    result = CliRunner().invoke(
        main,
        ["tables", "--n-max", "5", "--out", str(tmp_path / "x"), "--no-recompute"],
    )
    assert result.exit_code == 2
    assert "missing artifact" in result.output


@pytest.mark.parametrize(
    "replace",
    [
        lambda out: json.dumps({"n": 3}),
        lambda out: "[]",
        lambda out: "{not json",
        lambda out: (out / "n04" / "profile.json").read_text(),  # valid, but for n=4
    ],
    ids=["missing-keys", "not-an-object", "not-json", "wrong-n"],
)
def test_tables_rejects_malformed_profile(tmp_path, replace):
    out = tmp_path / "artifacts"
    runner = CliRunner()
    assert runner.invoke(main, ["compute", "--n-max", "4", "--out", str(out)]).exit_code == 0
    bad = out / "n03" / "profile.json"
    bad.write_text(replace(out))
    result = runner.invoke(main, ["tables", "--n-max", "4", "--out", str(out)])
    assert result.exit_code == 2
    assert "malformed artifact" in result.output
    assert str(bad) in result.output


def test_tables_rejects_unreadable_profile(tmp_path):
    out = tmp_path / "artifacts"
    runner = CliRunner()
    assert runner.invoke(main, ["compute", "--n-max", "4", "--out", str(out)]).exit_code == 0
    bad = out / "n03" / "profile.json"
    bad.unlink()
    bad.mkdir()
    result = runner.invoke(main, ["tables", "--n-max", "4", "--out", str(out)])
    assert result.exit_code == 2
    assert "malformed artifact" in result.output
    assert str(bad) in result.output


def test_tables_rejects_partial_start(tmp_path):
    result = CliRunner().invoke(
        main, ["tables", "--n-min", "3", "--n-max", "6", "--out", str(tmp_path)]
    )
    assert result.exit_code == 2


def test_atlas_writes_svg(tmp_path):
    result = CliRunner().invoke(
        main, ["atlas", "--n", "4", "--mode", "thickness", "--out", str(tmp_path)]
    )
    assert result.exit_code == 0, result.output
    path = tmp_path / "atlas_n4_thickness.svg"
    assert path.exists()
    assert path.read_text().count("<circle") == 5


def test_atlas_rejects_unverified_n(tmp_path):
    result = CliRunner().invoke(main, ["atlas", "--n", "31", "--out", str(tmp_path)])
    assert result.exit_code == 2


def test_atlas_mode_validation(tmp_path):
    result = CliRunner().invoke(
        main, ["atlas", "--n", "4", "--mode", "heatmap", "--out", str(tmp_path)]
    )
    assert result.exit_code == 2


def test_graph_dump_stdout():
    result = CliRunner().invoke(main, ["graph-dump", "--n", "4"])
    assert result.exit_code == 0
    assert result.output == "4\t3,1\n3,1\t2,2\n3,1\t2,1,1\n2,2\t2,1,1\n2,1,1\t1,1,1,1\n"


def test_graph_dump_to_file(tmp_path):
    path = tmp_path / "edges.txt"
    result = CliRunner().invoke(main, ["graph-dump", "--n", "5", "--out", str(path)])
    assert result.exit_code == 0
    assert path.exists()
    assert all("\t" in line for line in path.read_text().strip().split("\n"))


def test_compute_n1_trivial_profile(tmp_path):
    out = tmp_path / "artifacts"
    result = CliRunner().invoke(main, ["compute", "--n-max", "1", "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads((out / "n01" / "profile.json").read_text())
    assert doc == {"n": 1, "tau_max": 0, "max_locus": ["1"], "tau": {"1": 0}}


def test_verify_small_range_passes():
    result = CliRunner().invoke(main, ["verify", "--n-max", "8"])
    assert result.exit_code == 0, result.output
    assert "[FAIL]" not in result.output
    assert "checks passed" in result.output


def test_verify_reports_failures_with_exit_1(monkeypatch):
    from partition_atlas import verify
    from partition_atlas.verify import CheckResult

    # the command reads run_checks off its home module at call time
    monkeypatch.setattr(
        verify,
        "run_checks",
        lambda n_min, n_max: [
            CheckResult("good", True, ""),
            CheckResult("bad", False, "some vertices disagree"),
        ],
    )
    result = CliRunner().invoke(main, ["verify", "--n-max", "4"])
    assert result.exit_code == 1
    assert "[FAIL] bad" in result.output
    assert "1/2 checks passed" in result.output


def test_verify_prints_check_seconds_to_stderr_only(monkeypatch, capsys):
    from partition_atlas import verify
    from partition_atlas.verify import CheckResult

    # the command reads run_checks off its home module at call time
    monkeypatch.setattr(
        verify,
        "run_checks",
        lambda n_min, n_max: [
            CheckResult("first", True, "fine", 0.25),
            CheckResult("second", True, "", 1.5),
        ],
    )
    main(["verify", "--n-max", "4"], standalone_mode=False)
    captured = capsys.readouterr()
    assert captured.out == "[PASS] first: fine\n[PASS] second\n2/2 checks passed\n"
    assert captured.err == "  0.25 s  first\n  1.50 s  second\n"


def test_cli_steps_build_no_partition_per_vertex(tmp_path, monkeypatch):
    # vertices stay parts tuples on every CLI path: the Partition
    # enumeration and the graph's Partition view must both go unread
    from partition_atlas import partitions
    from partition_atlas.transfer_graph import TransferGraph

    def refuse(*args):
        raise AssertionError("a CLI step built a Partition per vertex")

    original = partitions.enumerate_partitions
    holders = [m for name, m in sys.modules.items() if name.split(".")[0] == "partition_atlas"]
    for module in holders:
        if getattr(module, "enumerate_partitions", None) is original:
            monkeypatch.setattr(module, "enumerate_partitions", refuse)
    monkeypatch.setattr(TransferGraph, "vertices", property(refuse))
    out = str(tmp_path / "artifacts")
    runner = CliRunner()
    for args in (
        ["compute", "--n-max", "9", "--out", out],
        ["tables", "--n-max", "9", "--no-recompute", "--out", out],
        ["atlas", "--n", "9", "--mode", "thickness", "--out", out],
        ["atlas", "--n", "9", "--mode", "zones", "--out", out],
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, (args, result.output, result.exception)


def test_usage_error_exit_code():
    result = CliRunner().invoke(main, ["compute", "--n-min", "0"])
    assert result.exit_code == 2
