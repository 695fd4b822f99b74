import contextlib
import errno
import importlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import invoke

from partition_atlas.cli import main


def _tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_compute_small_range(tmp_path):
    out = tmp_path / "artifacts"
    result = invoke(["compute", "--n-min", "1", "--n-max", "7", "--out", str(out)])
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
    assert invoke(["compute", "--n-max", "6", "--out", str(out)]).exit_code == 0
    before = _tree(out)
    assert invoke(["compute", "--n-max", "6", "--out", str(out)]).exit_code == 0
    assert _tree(out) == before


def test_compute_parallel_matches_serial(tmp_path):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert invoke(["compute", "--n-max", "6", "--out", str(serial)]).exit_code == 0
    assert invoke(["compute", "--n-max", "6", "--out", str(parallel), "--jobs", "2"]).exit_code == 0
    assert _tree(serial) == _tree(parallel)


# runs the CLI with the given arguments, with each command's per-n task
# patched so that a worker process dies without a result as soon as it
# starts one; the workers are forked, so they find the patched tasks by
# their names in __main__
DYING_WORKER = """
import os, sys
from partition_atlas import pipeline, verify
from partition_atlas.cli import main

compute_n, table_n = pipeline.compute_artifacts_for_n, pipeline.table_entry
check_n, parent = verify._check_n, os.getpid()

def dying_compute(n, out_root):
    if os.getpid() != parent:
        os._exit(7)
    compute_n(n, out_root)

def dying_table(n, out_root, no_recompute):
    if os.getpid() != parent:
        os._exit(7)
    return table_n(n, out_root, no_recompute)

def dying_check(n, n_min, n_max):
    if os.getpid() != parent:
        os._exit(7)
    return check_n(n, n_min, n_max)

pipeline.compute_artifacts_for_n = dying_compute
pipeline.table_entry = dying_table
verify._check_n = dying_check
pipeline.cpu_count = lambda: 2
main(sys.argv[1:], prog_name="partition-atlas")
"""


# runs the CLI with the given arguments as if on two CPUs, so tables and verify pool
POOLED = """
import sys
from partition_atlas import pipeline
from partition_atlas.cli import main

pipeline.cpu_count = lambda: 2
main(sys.argv[1:], prog_name="partition-atlas")
"""

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs forked workers")


def _session(sid):
    """Pids of the live processes in session ``sid``, read from /proc."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # after the command name: state, ppid, pgrp, session, ...
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # the process ended while the list was read
        if int(fields[3]) == sid and fields[0] != "Z":
            pids.append(int(stat.parent.name))
    return pids


def _run_in_session(code, args, cwd):
    """Run ``python -c code *args`` in a session of its own; (exit code, stdout, stderr).

    Once the command has exited, no process of its session may be left.
    """
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-c", code, *args],
        cwd=cwd, env=dict(os.environ, PYTHONPATH=str(src)),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        # a pool that waits for a dead worker hangs: end the command and its workers
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
    if Path("/proc/self/stat").exists():
        left = _session(proc.pid)
        if left:
            os.killpg(proc.pid, signal.SIGKILL)
        assert not left, f"processes {left} outlived the command"
    return proc.returncode, out, err


@needs_fork
@pytest.mark.parametrize(
    "args",
    [
        ["compute", "--n-max", "20", "--jobs", "2", "--out", "a"],
        ["tables", "--n-max", "20", "--out", "a"],
        ["verify", "--n-max", "20"],
    ],
    ids=["compute", "tables", "verify"],
)
def test_a_dead_worker_ends_the_command(tmp_path, args):
    code, out, err = _run_in_session(DYING_WORKER, args, tmp_path)
    assert code == 1, err
    assert "a worker process died" in err
    assert "checks passed" not in out
    assert "wrote" not in out


@needs_fork
@pytest.mark.parametrize(
    "args, last",
    [
        (["compute", "--n-max", "12", "--jobs", "2", "--out", "a"], "computed 12 graphs into a"),
        (["tables", "--n-max", "12", "--out", "a"], "wrote a/summary.csv"),
        (["verify", "--n-max", "12"], "27/27 checks passed"),
    ],
    ids=["compute", "tables", "verify"],
)
def test_a_pooled_command_leaves_no_process(tmp_path, args, last):
    code, out, err = _run_in_session(POOLED, args, tmp_path)
    assert code == 0, err
    assert out.splitlines()[-1] == last


def _twice(n):
    return 2 * n


def test_map_n_outlasts_a_full_task_pipe():
    from partition_atlas.pipeline import map_n

    # four bytes a task: far more than one 64 KiB pipe buffer holds, in an
    # order that is neither increasing nor decreasing
    ns = [(i * 7919) % 100_000 for i in range(100_000)]
    assert map_n(_twice, ns, 2) == [2 * n for n in ns]


# runs one pool over n = 1..30 with three workers; each task returns
# 100 KB, more than one 64 KiB pipe buffer holds, so one child waits for
# room in its result pipe while the command drains another's; prints how
# many children ran a task
SEVERAL_BULKY_CHILDREN = """
import os, time
from partition_atlas.pipeline import map_n

def task(n):
    time.sleep(0.02)
    return os.getpid(), bytes([n]) * 100_000

ns = range(1, 31)
out = map_n(task, ns, 3)
assert [blob for _, blob in out] == [bytes([n]) * 100_000 for n in ns]
print(len({pid for pid, _ in out} - {os.getpid()}))
"""


@needs_fork
def test_map_n_drains_several_children_with_big_results(tmp_path):
    code, out, err = _run_in_session(SEVERAL_BULKY_CHILDREN, [], tmp_path)
    assert code == 0, err
    assert out == "2\n"


def test_map_n_raises_a_worker_exception_unchanged():
    from partition_atlas.pipeline import map_n

    parent = os.getpid()

    def task(n):
        if os.getpid() != parent:
            raise ValueError("raised in a worker", n)
        time.sleep(0.05)
        return n

    with pytest.raises(ValueError) as caught:
        map_n(task, range(1, 9), 2)
    assert type(caught.value) is ValueError
    message, n = caught.value.args
    assert message == "raised in a worker" and n in range(1, 9)


@needs_fork
def test_map_n_kills_its_workers_on_an_interrupt(tmp_path):
    from partition_atlas.pipeline import map_n

    parent, marker = os.getpid(), tmp_path / "workers"
    marker.touch()

    def task(n):
        if os.getpid() != parent:
            with open(marker, "a") as f:
                f.write(f"{os.getpid()}\n")
            time.sleep(60)
        while not marker.read_text().endswith("\n"):
            time.sleep(0.01)
        raise KeyboardInterrupt

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        map_n(task, range(1, 9), 3)
    # killed, not waited for, and reaped before the interrupt reached the caller
    assert time.monotonic() - start < 30
    workers = set(map(int, marker.read_text().split()))
    assert workers and not [pid for pid in workers if _alive(pid)]


def test_map_n_without_fork_runs_every_task_here(monkeypatch):
    from partition_atlas.pipeline import map_n

    monkeypatch.delattr(os, "fork")
    assert map_n(lambda n: (n, os.getpid()), range(1, 5), 4) == [
        (n, os.getpid()) for n in range(1, 5)
    ]


# runs one pool over n = 1..8 with two workers; the worker writes its pid
# to the file named by argv[1] at the start of each task, which takes half
# a second, and the command's own process, once that file names the
# worker, dies inside its first task without shutting the pool down
ORPHANED_WORKER = """
import os, sys, time
from partition_atlas import pipeline

parent, marker = os.getpid(), sys.argv[1]

def task(n):
    if os.getpid() != parent:
        with open(marker, "a") as f:
            f.write(f"{os.getpid()}\\n")
        time.sleep(0.5)
        return n
    while not open(marker).read().endswith("\\n"):
        time.sleep(0.01)
    os._exit(3)

open(marker, "w").close()
pipeline.map_n(task, range(1, 9), 2)
"""


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    # an exited process that no one has reaped yet is gone as well
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


@needs_fork
def test_a_worker_ends_with_the_command(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    marker = tmp_path / "workers"
    proc = subprocess.Popen(
        [sys.executable, "-c", ORPHANED_WORKER, str(marker)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)), start_new_session=True,
    )
    stray = True  # until the command and its worker are both seen gone
    try:
        assert proc.wait(timeout=60) == 3
        started = marker.read_text().split()
        (worker,) = set(map(int, started))
        deadline = time.monotonic() + 5
        while _alive(worker) and time.monotonic() < deadline:
            time.sleep(0.05)
        stray = _alive(worker)
        assert not stray, f"worker {worker} outlived the command"
        # it finished the task it had, and started no other (one more, at
        # most, if the command took long to die)
        assert len(marker.read_text().split()) <= 2, started
    finally:
        if stray:
            # end the command's process group, which holds its worker
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def test_worker_count_follows_the_affinity_mask(monkeypatch, tmp_path):
    from partition_atlas import pipeline, verify

    if hasattr(os, "sched_getaffinity"):
        assert pipeline.cpu_count() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    assert pipeline.cpu_count() == (os.cpu_count() or 1)

    # the three commands read the one helper at call time
    seen = []
    monkeypatch.setattr(pipeline, "cpu_count", lambda: 3)
    monkeypatch.setattr(
        pipeline,
        "map_n",
        lambda task, ns, workers, *args: seen.append(workers) or [task(n, *args) for n in ns],
    )
    monkeypatch.setattr(
        verify, "run_checks", lambda n_min, n_max, workers: seen.append(workers) or []
    )
    args = ["compute", "--n-max", "4", "--jobs", "0", "--out", str(tmp_path)]
    assert invoke(args).exit_code == 0
    assert invoke(["tables", "--n-max", "4", "--out", str(tmp_path)]).exit_code == 0
    assert invoke(["verify", "--n-max", "4"]).exit_code == 0
    assert seen == [3, 3, 3]


def test_compute_soft_caps_range(tmp_path):
    out = tmp_path / "artifacts"
    result = invoke(["compute", "--n-min", "29", "--n-max", "32", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "capping" in result.output
    assert (out / "n30").exists()
    assert not (out / "n31").exists()


def test_compute_refuses_range_starting_past_cap(tmp_path):
    out = tmp_path / "artifacts"
    result = invoke(["compute", "--n-min", "35", "--n-max", "36", "--out", str(out)])
    assert result.exit_code == 2
    assert "--allow-beyond-verified-range" in result.output
    assert not out.exists()


def test_verify_refuses_range_starting_past_cap():
    result = invoke(["verify", "--n-min", "40", "--n-max", "41"])
    assert result.exit_code == 2
    assert "--allow-beyond-verified-range" in result.output
    assert "checks passed" not in result.output


def test_compute_rejects_bad_range(tmp_path):
    result = invoke(["compute", "--n-min", "5", "--n-max", "2", "--out", str(tmp_path)])
    assert result.exit_code == 2


def test_compute_rejects_negative_jobs(tmp_path):
    result = invoke(["compute", "--n-max", "3", "--out", str(tmp_path), "--jobs", "-1"])
    assert result.exit_code == 2
    assert "invalid worker count -1" in result.output
    assert not list(tmp_path.iterdir())


def test_tables_reuses_compute_artifacts(tmp_path):
    out = tmp_path / "artifacts"
    assert invoke(["compute", "--n-max", "7", "--out", str(out)]).exit_code == 0
    result = invoke(["tables", "--n-max", "7", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert (out / "first_occurrences.csv").read_text() == "r,n_r\n2,4\n3,7\n"


def test_tables_builds_no_graph(tmp_path, monkeypatch):
    from partition_atlas import transfer_graph

    computed = tmp_path / "computed"
    assert invoke(["compute", "--n-max", "12", "--out", str(computed)]).exit_code == 0
    assert invoke(["tables", "--n-max", "12", "--out", str(computed)]).exit_code == 0

    def refuse(n):
        raise AssertionError(f"tables built the graph for n={n}")

    monkeypatch.setattr(transfer_graph, "build_graph", refuse)
    fresh = tmp_path / "fresh"
    result = invoke(["tables", "--n-max", "12", "--out", str(fresh)])
    assert result.exit_code == 0, (result.output, result.exception)
    for name in ("first_occurrences.csv", "summary.csv", "max_locus_members.json"):
        assert (fresh / name).read_bytes() == (computed / name).read_bytes(), name


def test_tables_enumerates_each_n_once(tmp_path, monkeypatch):
    # the max-locus table names its members while tables walks n, so no
    # first-occurrence n is enumerated a second time afterwards. The cache
    # misses are counted in this process, so every n must run here: one worker
    from partition_atlas import pipeline
    from partition_atlas.partitions import enumerate_partitions

    monkeypatch.setattr(pipeline, "cpu_count", lambda: 1)

    computed = tmp_path / "computed"
    assert invoke(["compute", "--n-max", "12", "--out", str(computed)]).exit_code == 0
    for out, n_max, flags in ((tmp_path / "fresh", 30, []), (computed, 12, ["--no-recompute"])):
        enumerate_partitions.cache_clear()
        result = invoke(["tables", "--n-max", str(n_max), "--out", str(out), *flags])
        assert result.exit_code == 0, result.output
        assert enumerate_partitions.cache_info().misses == n_max, out
    loci = json.loads((tmp_path / "fresh" / "max_locus_members.json").read_text())
    assert list(loci) == ["4", "7", "11", "16", "22", "29"]
    assert len(loci["29"]) == 8
    assert {"8,6,5,4,3,2,1", "7,7,5,4,3,2,1"} <= set(loci["29"])


TABLES = ("first_occurrences.csv", "summary.csv", "max_locus_members.json")


@needs_fork
def test_tables_on_one_and_two_workers_match(tmp_path, monkeypatch):
    from partition_atlas import pipeline

    computed = tmp_path / "computed"
    assert invoke(["compute", "--n-max", "14", "--out", str(computed)]).exit_code == 0
    written = []
    for workers in (1, 2):
        monkeypatch.setattr(pipeline, "cpu_count", lambda: workers)
        for out, flags in ((tmp_path / f"fresh{workers}", []), (computed, ["--no-recompute"])):
            result = invoke(["tables", "--n-max", "14", "--out", str(out), *flags])
            assert result.exit_code == 0, result.output
            written.append([(out / name).read_bytes() for name in TABLES])
    assert written[1:] == written[:1] * 3
    assert written[0][0] == b"r,n_r\n2,4\n3,7\n4,11\n"


@needs_fork
@pytest.mark.parametrize(
    "spoil, flags, message",
    [
        (lambda path: path.write_text("[]"), [], "malformed artifact"),
        (lambda path: path.unlink(), ["--no-recompute"], "missing artifact"),
    ],
    ids=["malformed", "missing"],
)
def test_tables_on_two_workers_names_the_smallest_bad_n(
    tmp_path, monkeypatch, spoil, flags, message
):
    # the workers take the largest n first, so n=12 is met before n=3
    from partition_atlas import pipeline

    out = tmp_path / "artifacts"
    assert invoke(["compute", "--n-max", "14", "--out", str(out)]).exit_code == 0
    for n in (3, 12):
        spoil(out / f"n{n:02d}" / "profile.json")
    monkeypatch.setattr(pipeline, "cpu_count", lambda: 2)
    result = invoke(["tables", "--n-max", "14", "--out", str(out), *flags])
    assert result.exit_code == 2, result.output
    assert f"{message} {out / 'n03' / 'profile.json'}" in result.output
    assert "n12" not in result.output
    assert not (out / "summary.csv").exists()


def test_tables_small_ranges(tmp_path):
    out = tmp_path / "a"
    assert invoke(["tables", "--n-max", "6", "--out", str(out)]).exit_code == 0
    assert (out / "first_occurrences.csv").read_text() == "r,n_r\n2,4\n"
    out2 = tmp_path / "b"
    assert invoke(["tables", "--n-max", "3", "--out", str(out2)]).exit_code == 0
    lines = (out2 / "first_occurrences.csv").read_text().strip().split("\n")
    assert lines[0] == "r,n_r"
    assert lines[1].startswith("#")


def test_tables_no_recompute_needs_artifacts(tmp_path):
    result = invoke(["tables", "--n-max", "5", "--out", str(tmp_path / "x"), "--no-recompute"])
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
    assert invoke(["compute", "--n-max", "4", "--out", str(out)]).exit_code == 0
    bad = out / "n03" / "profile.json"
    bad.write_text(replace(out))
    result = invoke(["tables", "--n-max", "4", "--out", str(out)])
    assert result.exit_code == 2
    assert "malformed artifact" in result.output
    assert str(bad) in result.output


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 2, "tau_max": 1, "max_locus": ["2"], "tau": {"2": 1, "1,1": -7}},
        {"n": 1, "tau_max": 99, "max_locus": ["1"], "tau": {"1": 99}},
    ],
    ids=["n2-negative", "n1-above-n-1"],
)
def test_tables_no_recompute_rejects_impossible_thickness(tmp_path, doc):
    out = tmp_path / "artifacts"
    assert invoke(["compute", "--n-max", "2", "--out", str(out)]).exit_code == 0
    bad = out / f"n{doc['n']:02d}" / "profile.json"
    bad.write_text(json.dumps(doc))
    args = ["tables", "--n-max", "2", "--out", str(out), "--no-recompute"]
    result = invoke(args)
    assert result.exit_code == 2
    assert f"malformed artifact {bad}: profile for n={doc['n']}" in result.output


def test_tables_no_recompute_rejects_stale_profile(tmp_path):
    # n=7's thickness 3 moved from 4,2,1 to the antenna 7, tau_max and the
    # locus restated to match: every value lies in 0..6 and the document
    # agrees with itself, but it is not what compute writes
    out = tmp_path / "artifacts"
    assert invoke(["compute", "--n-max", "7", "--out", str(out)]).exit_code == 0
    bad = out / "n07" / "profile.json"
    doc = json.loads(bad.read_text())
    doc["tau"]["4,2,1"], doc["tau"]["7"] = doc["tau"]["7"], doc["tau"]["4,2,1"]
    doc["max_locus"] = [name for name, t in doc["tau"].items() if t == doc["tau_max"]]
    bad.write_text(json.dumps(doc))
    result = invoke(["tables", "--n-max", "7", "--out", str(out), "--no-recompute"])
    assert result.exit_code == 2
    assert f"malformed artifact {bad}: profile for n=7 gives 7 thickness 3" in result.output
    assert not (out / "max_locus_members.json").exists()


def test_tables_rejects_unreadable_profile(tmp_path):
    out = tmp_path / "artifacts"
    assert invoke(["compute", "--n-max", "4", "--out", str(out)]).exit_code == 0
    bad = out / "n03" / "profile.json"
    bad.unlink()
    bad.mkdir()
    result = invoke(["tables", "--n-max", "4", "--out", str(out)])
    assert result.exit_code == 2
    assert "malformed artifact" in result.output
    assert str(bad) in result.output


def test_tables_rejects_partial_start(tmp_path):
    result = invoke(["tables", "--n-min", "3", "--n-max", "6", "--out", str(tmp_path)])
    assert result.exit_code == 2


def test_atlas_writes_svg(tmp_path):
    result = invoke(["atlas", "--n", "4", "--mode", "thickness", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    path = tmp_path / "atlas_n4_thickness.svg"
    assert path.exists()
    assert path.read_text().count("<circle") == 5


def test_atlas_rejects_unverified_n(tmp_path):
    result = invoke(["atlas", "--n", "31", "--out", str(tmp_path)])
    assert result.exit_code == 2


def test_atlas_mode_validation(tmp_path):
    result = invoke(["atlas", "--n", "4", "--mode", "heatmap", "--out", str(tmp_path)])
    assert result.exit_code == 2


def test_graph_dump_stdout():
    result = invoke(["graph-dump", "--n", "4"])
    assert result.exit_code == 0
    assert result.output == "4\t3,1\n3,1\t2,2\n3,1\t2,1,1\n2,2\t2,1,1\n2,1,1\t1,1,1,1\n"


def test_graph_dump_to_file(tmp_path):
    path = tmp_path / "edges.txt"
    result = invoke(["graph-dump", "--n", "5", "--out", str(path)])
    assert result.exit_code == 0
    assert path.exists()
    assert all("\t" in line for line in path.read_text().strip().split("\n"))


def _cannot_write(result, path, code):
    # one line naming the path, exit 1, and no traceback
    assert result.exit_code == 1, (result.output, result.exception)
    assert result.output.endswith(f"Error: cannot write {path}: {os.strerror(code)}\n")
    assert "Traceback" not in result.output


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_compute_reports_an_unwritable_output(tmp_path, jobs):
    # at --jobs 2 the error may come from a worker, pickled with its file name
    out = tmp_path / "out"
    out.mkdir()
    (out / "n01").touch()
    result = invoke(["compute", "--n-max", "2", "--out", str(out), "--jobs", jobs])
    _cannot_write(result, out / "n01", errno.EEXIST)


def test_tables_reports_an_unwritable_output(tmp_path):
    (tmp_path / "first_occurrences.csv").mkdir()
    result = invoke(["tables", "--n-max", "3", "--out", str(tmp_path)])
    _cannot_write(result, tmp_path / "first_occurrences.csv", errno.EISDIR)


def test_atlas_reports_an_unwritable_output(tmp_path):
    (tmp_path / "atlas_n3_thickness.svg").mkdir()
    result = invoke(["atlas", "--n", "3", "--out", str(tmp_path)])
    _cannot_write(result, tmp_path / "atlas_n3_thickness.svg", errno.EISDIR)


def test_graph_dump_reports_an_unwritable_output(tmp_path):
    parent = tmp_path / "file"
    parent.touch()
    result = invoke(["graph-dump", "--n", "3", "--out", str(parent / "e.txt")])
    _cannot_write(result, parent, errno.EEXIST)


def test_compute_n1_trivial_profile(tmp_path):
    out = tmp_path / "artifacts"
    result = invoke(["compute", "--n-max", "1", "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads((out / "n01" / "profile.json").read_text())
    assert doc == {"n": 1, "tau_max": 0, "max_locus": ["1"], "tau": {"1": 0}}


def test_verify_small_range_passes():
    result = invoke(["verify", "--n-max", "8"])
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
        lambda n_min, n_max, workers: [
            CheckResult("good", True, ""),
            CheckResult("bad", False, "some vertices disagree"),
        ],
    )
    result = invoke(["verify", "--n-max", "4"])
    assert result.exit_code == 1
    assert "[FAIL] bad" in result.output
    assert "1/2 checks passed" in result.output


def test_interrupt_exits_1_without_a_traceback(monkeypatch):
    from partition_atlas import verify

    def interrupted(n_min, n_max, workers):
        raise KeyboardInterrupt

    monkeypatch.setattr(verify, "run_checks", interrupted)
    try:
        result = invoke(["verify", "--n-max", "4"])
    except KeyboardInterrupt:
        pytest.fail("the interrupt escaped main")
    assert (result.exit_code, result.output, result.exception) == (1, "\nAborted!\n", None)


def test_verify_prints_check_seconds_to_stderr_only(monkeypatch, capsys):
    from partition_atlas import verify
    from partition_atlas.verify import CheckResult

    # the command reads run_checks off its home module at call time
    monkeypatch.setattr(
        verify,
        "run_checks",
        lambda n_min, n_max, workers: [
            CheckResult("first", True, "fine", 0.25),
            CheckResult("second", True, "", 1.5),
        ],
    )
    with pytest.raises(SystemExit) as exit_:
        main(["verify", "--n-max", "4"])
    assert exit_.value.code == 0
    captured = capsys.readouterr()
    assert captured.out == "[PASS] first: fine\n[PASS] second\n2/2 checks passed\n"
    assert captured.err == "  0.25 s  first\n  1.50 s  second\n"


def _record_decompose(monkeypatch):
    """Wrap ``zones.decompose`` wherever it is bound, as the benchmark's tracer
    does, and return the list of orders it makes."""
    for home in ("zones", "atlas", "pipeline"):
        importlib.import_module(f"partition_atlas.{home}")
    original = sys.modules["partition_atlas.zones"].decompose
    orders = []

    def recorded(*args, **kwargs):
        dec = original(*args, **kwargs)
        orders.append(dec.r)
        return dec

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "partition_atlas" and getattr(module, "decompose", None) is original:
            monkeypatch.setattr(module, "decompose", recorded)
    return orders


def test_decompose_is_one_call_per_order(tmp_path, monkeypatch):
    # the tracer times and counts the zones layer by its decompose spans,
    # so each order written must come from a call of its own
    from partition_atlas.pipeline import compute_artifacts_for_n

    orders = _record_decompose(monkeypatch)
    for n in range(1, 10):
        orders.clear()
        compute_artifacts_for_n(n, tmp_path)
        tau_max = json.loads((tmp_path / f"n{n:02d}" / "profile.json").read_text())["tau_max"]
        assert orders == list(range(tau_max, 0, -1)), n
    # at n=12 tau_max is 4, but the zones atlas needs only orders 3 and 2
    orders.clear()
    result = invoke(["atlas", "--n", "12", "--mode", "zones", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert orders == [3, 2]


def test_usage_error_exit_code():
    result = invoke(["compute", "--n-min", "0"])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "args, problem",
    [
        ([], "the following arguments are required: COMMAND"),
        (["compute", "--n-ma", "2"], "unrecognized arguments: --n-ma 2"),
    ],
    ids=["no-command", "abbreviated-option"],
)
def test_usage_error_names_the_problem(tmp_path, monkeypatch, args, problem):
    # an abbreviation is not taken for the option it begins, so nothing runs
    monkeypatch.chdir(tmp_path)
    result = invoke(args)
    assert result.exit_code == 2
    assert result.output.startswith("usage: partition-atlas")
    assert f"partition-atlas: error: {problem}\n" in result.output
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "args, existing",
    [
        (["compute", "--n-max", "2"], "file"),
        (["tables", "--n-max", "2"], "file"),
        (["atlas", "--n", "2"], "file"),
        (["graph-dump", "--n", "2"], "directory"),
    ],
    ids=["compute", "tables", "atlas", "graph-dump"],
)
def test_out_of_the_wrong_kind_is_a_usage_error(tmp_path, args, existing):
    # refused while parsing, before the command writes anything
    out = tmp_path / "out"
    if existing == "file":
        out.write_text("kept")
    else:
        out.mkdir()
    result = invoke([*args, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert f"error: argument --out: '{out}' is a {existing}, not a" in result.output
    assert list(tmp_path.iterdir()) == [out]
    assert out.read_text() == "kept" if existing == "file" else not list(out.iterdir())


def test_graph_dump_into_a_closed_pipe_exits_1_quietly(tmp_path):
    # as `graph-dump --n 25 | head -1`: the reader leaves after one line,
    # with most of the 480 kB edge list, far more than a pipe holds, unwritten
    src = Path(__file__).resolve().parent.parent / "src"
    with subprocess.Popen(
        [sys.executable, "-c", "from partition_atlas.cli import main; main()",
         "graph-dump", "--n", "25"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
        err = proc.stderr.read()
    assert first == b"25\t24,1\n"
    assert code == 1, err
    assert err == b""
