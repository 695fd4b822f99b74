"""Self-tests of the benchmark harness, on the same workloads at small n.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run  # noqa: E402

SMALL = dict(range_max=8, atlas_n=7, single_n=10, verify_max=6)
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def failed_frac(report: dict) -> float:
    line = next(line for line in report["lines"] if " failed_frac = " in line)
    return float(re.search(r"= (\S+)", line).group(1))


@pytest.fixture(scope="module")
def reports(tmp_path_factory) -> dict:
    out = {}
    for name, steps in run.make_workloads(**SMALL).items():
        for trace in (0, 1):
            work = tmp_path_factory.mktemp(f"{name}-trace{trace}")
            out[name, trace] = run.measure(name, steps, 0, bool(trace), work)
    return out


def test_benchmark_json_names_the_workloads_and_command():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.make_workloads())
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


def test_printed_metrics_match_benchmark_json(reports):
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for (name, trace), report in reports.items():
        printed = {metric: v["unit"] for metric, v in report["metrics"].items()}
        assert printed == (per_layer if trace else end_to_end), (name, trace)
        assert report["correct"] and report["failed"] == 0, report["lines"]
        assert failed_frac(report) == 0.0


def test_trace_coverage_reported_for_each_workload(reports):
    for name in run.make_workloads():
        coverage = reports[name, 1]["metrics"]["trace.coverage"]["value"]
        assert 0.0 < coverage <= 1.0, name
        lines = reports[name, 1]["lines"]
        assert any(line.startswith(f"{name} trace.overhead_s = ") for line in lines)


def test_flipped_byte_in_copied_artifact_counts_as_failure(tmp_path):
    compute = run.make_workloads(**SMALL)["range30"][0]
    gate_on_copy = run.check_compute("copy", 1, SMALL["range_max"])

    def flip_copy_then_check(work: Path, output: str) -> list:
        assert compute.check(work, output) == []
        shutil.copytree(work / "A", work / "copy")
        victim = work / "copy" / "n05" / "profile.csv"
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0x01
        victim.write_bytes(bytes(data))
        return gate_on_copy(work, output)

    step = dataclasses.replace(compute, check=flip_copy_then_check)
    report = run.measure("range30", [step], 0, False, tmp_path)
    assert report["failed"] == 1 and not report["correct"]
    assert failed_frac(report) > 0.0


def test_refuses_jobs_above_nproc(monkeypatch, capsys):
    monkeypatch.setattr(run, "machine_facts", lambda: {"nproc": 1})
    assert run.main(["--workload", "range30", "--seed", "1", "--seconds", "1", "--trace", "0"]) == 2
    assert "exceeds nproc" in capsys.readouterr().err


def test_fails_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify30", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
