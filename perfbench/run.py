"""Benchmark of the partition-atlas CLI: end-to-end step times and per-layer spans.

Run from the root of a checkout (nothing needs installing; the program is
imported from ``src/``):

    python3 perfbench/run.py --workload range30 --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload's CLI steps as a user would, each in a
fresh interpreter with a fresh output directory, again and again until
``--seconds`` have passed, and reports the end-to-end metrics.
``--trace 1`` alternates an untraced pass with a traced one, in which
every step runs under ``traced_step.py`` with a span around each layer
call, and reports the per-layer metrics. Both check every artifact
against digests pinned from the seed commit (``expected.json``); a step
that exits non-zero or fails a check counts as a failed operation.

Every line but the last is a human-readable report; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
TRACED_STEP = HERE / "traced_step.py"

# What the installed ``partition-atlas`` console script runs.
CLI_ENTRY = (
    "import sys; from partition_atlas.cli import main; sys.argv[0] = 'partition-atlas'; main()"
)
PAR_JOBS = 2
SETUP_REPS = 5
STEP_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 170.0

COMPUTE_FILES = ("edges.txt", "framework.json", "profile.csv", "profile.json")
TABLE_FILES = ("first_occurrences.csv", "max_locus_members.json", "summary.csv")

# End-to-end metrics for --trace 0, and the subset of per-layer metrics
# that every workload enters, for --trace 1 (both listed in BENCHMARK.json).
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "partitions.enumerate_s": "s",
    "partitions.vertices": "count",
    "transfer_graph.build_s": "s",
    "transfer_graph.edges": "count",
    "transfer_graph.max_degree": "count",
    "transfer_graph.dump_edges_s": "s",
    "thickness.profile_s": "s",
    "thickness.us_per_vertex": "us",
    "thickness.serialize_s": "s",
    "framework.build_s": "s",
    "zones.decompose_s": "s",
    "zones.serialize_s": "s",
    "zones.components": "count",
    "pipeline.write_s": "s",
    "pipeline.bytes_written": "bytes",
    "atlas.render_s": "s",
    "atlas.svg_bytes": "bytes",
    "cli.self_s": "s",
    "trace.coverage": "1",
    "trace.overhead_s": "s",
}
# Layers only some workloads enter. They are reported on every workload
# (zero where no such call is made) but kept out of the JSON line.
PER_LAYER_PARTIAL = {
    "transfer_graph.conjugation_s": "s",
    "thickness.parse_s": "s",
    "atlas.export_tables_s": "s",
    "verify.run_checks_s": "s",
    "verify.checks_passed": "count",
    "cli.parallel_efficiency": "1",
}
# per-layer time metric -> spans whose self time it sums
SPAN_TIMES = {
    "partitions.enumerate_s": ("partitions.enumerate_partitions", "partitions.canonical_index"),
    "transfer_graph.build_s": ("transfer_graph.build_graph",),
    "transfer_graph.dump_edges_s": ("transfer_graph.dump_edges",),
    "transfer_graph.conjugation_s": ("transfer_graph.conjugation_permutation",),
    "thickness.profile_s": ("thickness.thickness_profile",),
    "thickness.serialize_s": ("thickness.profile_csv", "thickness.profile_json"),
    "thickness.parse_s": ("thickness.profile_from_json",),
    "framework.build_s": (
        "framework.boundary_framework",
        "framework.self_conjugate_axis",
        "framework.framework_json",
    ),
    "zones.decompose_s": ("zones.decompose",),
    "zones.serialize_s": ("zones.zone_json",),
    "pipeline.write_s": ("pipeline.compute_artifacts_for_n",),
    "atlas.render_s": ("atlas.render_atlas",),
    "atlas.export_tables_s": ("atlas.export_tables",),
    "verify.run_checks_s": ("verify.run_checks",),
    "cli.self_s": ("cli.main",),
}
# Serializers whose output is exactly what the pipeline writes to disk.
ARTIFACT_SPANS = (
    "transfer_graph.dump_edges",
    "framework.framework_json",
    "thickness.profile_csv",
    "thickness.profile_json",
    "zones.zone_json",
)

EXPECTED = json.loads((HERE / "expected.json").read_text())

Check = Callable[[Path, str], list]


@dataclass(frozen=True)
class Step:
    """One CLI invocation of a workload and the checks on what it produced."""

    metric: str
    args: tuple[str, ...]
    check: Check

    @property
    def jobs(self) -> int:
        return int(self.args[self.args.index("--jobs") + 1]) if "--jobs" in self.args else 1


@dataclass
class StepResult:
    step: Step
    wall_s: float
    peak_rss_mb: float
    problems: list
    spans: list = field(default_factory=list)


# ---------------------------------------------------------------- checks


def tree_digest(root: Path, files: list) -> str:
    """SHA-256 over (relative path, content digest) of ``files``, in order."""
    h = hashlib.sha256()
    for path in files:
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def compute_files(out: Path, n_min: int, n_max: int) -> list:
    files = []
    for n in range(n_min, n_max + 1):
        target = out / f"n{n:02d}"
        files += [target / name for name in COMPUTE_FILES]
        files += sorted(target.glob("zones_r*.json"), key=lambda p: int(p.stem[7:]))
    return files


def digest_problems(key: str, root: Path, files: list) -> list:
    try:
        got = tree_digest(root, files)
    except OSError as exc:
        return [f"{key}: {exc}"]
    want = EXPECTED["digests"].get(key)
    return [] if got == want else [f"{key}: digest {got[:16]} is not the pinned {str(want)[:16]}"]


def check_compute(out: str, n_min: int, n_max: int) -> Check:
    """Digest of the per-n artifacts. Every ``--jobs`` value is held to the
    same pinned digest, so their trees must be byte-identical."""
    key = f"compute:{n_min}-{n_max}"

    def check(work: Path, output: str) -> list:
        return digest_problems(key, work / out, compute_files(work / out, n_min, n_max))

    return check


def check_tables(out: str, n_max: int) -> Check:
    key = f"tables:1-{n_max}"
    want = [f"{r},{n_r}" for r, n_r in EXPECTED["first_occurrences"].items() if n_r <= n_max]

    def check(work: Path, output: str) -> list:
        problems = digest_problems(key, work / out, [work / out / name for name in TABLE_FILES])
        path = work / out / "first_occurrences.csv"
        rows = path.read_text().splitlines()[1:] if path.exists() else []
        if rows != want:
            problems.append(f"{key}: first occurrences {rows} != {want}")
        return problems

    return check


def check_atlas(out: str, n: int, mode: str) -> Check:
    key = f"atlas:{n}:{mode}"

    def check(work: Path, output: str) -> list:
        path = work / out / f"atlas_n{n}_{mode}.svg"
        problems = digest_problems(key, work / out, [path])
        circles = path.read_text().count("<circle ") if path.exists() else 0
        want = EXPECTED["partition_counts"][str(n)]
        if circles != want:
            problems.append(f"{key}: {circles} <circle> glyphs, p({n}) = {want}")
        return problems

    return check


def check_verify(work: Path, output: str) -> list:
    lines = output.splitlines()
    failed = [line for line in lines if line.startswith("[FAIL]")]
    passed = sum(line.startswith("[PASS]") for line in lines)
    summary = f"{passed}/{passed} checks passed"
    if failed or passed == 0 or summary not in lines:
        return [f"verify: {len(failed)} failing checks, {passed} passing, no '{summary}' line"]
    return []


# ------------------------------------------------------------- workloads


def make_workloads(range_max=30, atlas_n=29, single_n=36, verify_max=30, seed=0) -> dict:
    """The workloads, at the given sizes; the seed orders the two atlas renders."""
    renders = [
        Step("render_s", ("atlas", "--n", str(atlas_n), "--mode", mode, "--out", "A"),
             check_atlas("A", atlas_n, mode))
        for mode in ("thickness", "zones")
    ]
    random.Random(seed).shuffle(renders)
    top = ("--n-max", str(range_max))
    big, beyond = str(single_n), "--allow-beyond-verified-range"
    return {
        "range30": [
            Step("compute_s", ("compute", *top, "--jobs", "1", "--out", "A"),
                 check_compute("A", 1, range_max)),
            Step("compute_par_s", ("compute", *top, "--jobs", str(PAR_JOBS), "--out", "B"),
                 check_compute("B", 1, range_max)),
            Step("tables_s", ("tables", *top, "--no-recompute", "--out", "A"),
                 check_tables("A", range_max)),
            *renders,
        ],
        "single36": [
            Step("compute_s", ("compute", "--n-min", big, "--n-max", big, beyond, "--out", "A"),
                 check_compute("A", single_n, single_n)),
            Step("render_s", ("atlas", "--n", big, "--mode", "zones", beyond, "--out", "A"),
                 check_atlas("A", single_n, "zones")),
        ],
        "verify30": [
            Step("verify_s", ("verify", "--n-max", str(verify_max)), check_verify),
        ],
    }


# --------------------------------------------------------------- running


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Runs CLI processes under one work directory, within one deadline."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(work / "tmp"))
        self.env.pop("PYTHONHOME", None)
        (work / "tmp").mkdir(parents=True, exist_ok=True)

    def run(self, argv: list, cwd: Path) -> tuple:
        """Run ``argv`` to completion: (wall seconds, peak RSS in MB, exit code, output)."""
        log = self.work / "process.log"
        timeout = max(1.0, min(STEP_TIMEOUT_S, self.deadline - time.perf_counter()))
        with open(log, "wb") as sink:
            start = time.perf_counter()
            # A session of its own lets a kill reach the step's pool workers too.
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=sink,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            timer = threading.Timer(timeout, _kill_group, (proc.pid,))
            timer.start()
            try:
                # wait4 reports the peak RSS of the process and of the
                # workers it reaped, which Popen.wait would discard.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                os.wait4(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        output = log.read_text(errors="replace")
        log.unlink()
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, output

    def cli(self, args: tuple, cwd: Path) -> tuple:
        return self.run([sys.executable, "-c", CLI_ENTRY, *args], cwd)

    def run_pass(self, steps: list, name: str, traced: bool) -> list:
        """Run ``steps`` in order in a fresh output directory; check each one."""
        cwd = self.work / name
        cwd.mkdir()
        results = []
        for i, step in enumerate(steps):
            if traced and step.jobs > 1:
                continue  # spans cannot follow a step into its pool workers
            spans_path = cwd / f".spans{i}.json"
            if traced:
                wall, rss, code, output = self.run(
                    [sys.executable, str(TRACED_STEP), str(spans_path), "--", *step.args], cwd
                )
            else:
                wall, rss, code, output = self.cli(step.args, cwd)
            problems = [f"{step.args[0]}: exit code {code}"] if code != 0 else []
            problems += step.check(cwd, output)
            spans = json.loads(spans_path.read_text()) if traced and spans_path.exists() else []
            results.append(StepResult(step, wall, rss, problems, spans))
        shutil.rmtree(cwd)
        return results


def self_times(spans: list) -> dict:
    """Span name -> summed self time (duration minus time in child spans)."""
    child_time = [0.0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = defaultdict(float)
    for i, (name, _, start, end, _) in enumerate(spans):
        out[name] += end - start - child_time[i]
    return out


def step_times(results: list) -> dict:
    times: dict = defaultdict(float)
    for r in results:
        times[r.step.metric] += r.wall_s
    return times


def layer_metrics(traced: list, untraced: list) -> dict:
    """Per-layer values of one traced pass, with the matching untraced pass."""
    spans = [span for r in traced for span in r.spans]
    selfs: dict = defaultdict(float)
    for r in traced:
        for name, seconds in self_times(r.spans).items():
            selfs[name] += seconds
    counts: dict = defaultdict(int)
    max_degree = 0
    for name, _, _, _, c in spans:
        for key, value in c.items():
            counts[(name, key)] += value
        max_degree = max(max_degree, c.get("max_degree", 0))
    values = {metric: sum(selfs[s] for s in names) for metric, names in SPAN_TIMES.items()}
    vertices = counts[("transfer_graph.build_graph", "vertices")]
    traced_wall = sum(r.wall_s for r in traced)
    untraced_wall = sum(r.wall_s for r in untraced if r.step.jobs == 1)
    plain = step_times(untraced)
    values.update({
        "partitions.vertices": vertices,
        "transfer_graph.edges": counts[("transfer_graph.build_graph", "edges")],
        "transfer_graph.max_degree": max_degree,
        "thickness.us_per_vertex": 1e6 * values["thickness.profile_s"] / vertices,
        "zones.components": counts[("zones.decompose", "components")],
        "pipeline.bytes_written": sum(counts[(name, "bytes")] for name in ARTIFACT_SPANS),
        "atlas.svg_bytes": counts[("atlas.render_atlas", "bytes")],
        "verify.checks_passed": counts[("verify.run_checks", "checks_passed")],
        "cli.parallel_efficiency": (
            plain["compute_s"] / (PAR_JOBS * plain["compute_par_s"])
            if "compute_par_s" in plain else 0.0
        ),
        "trace.coverage": sum(selfs.values()) / traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    return values


# ------------------------------------------------------------- reporting


def machine_facts() -> dict:
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu or "unknown",
        "loadavg": " ".join(f"{x:.2f}" for x in os.getloadavg()),
    }


def measure(workload: str, steps: list, seconds: float, trace: bool, work: Path) -> dict:
    """Run one workload for ``seconds``; return metrics, report lines and counts."""
    start = time.perf_counter()
    runner = Runner(work, start + RUN_DEADLINE_S)
    attempted = failed = 0
    problems: list = []

    def tally(results: list) -> None:
        nonlocal attempted, failed
        for r in results:
            attempted += 1
            failed += bool(r.problems)
            problems.extend(r.problems)

    lines = []
    if not trace:
        runner.cli(("--help",), work)  # compiles bytecode once, as an installed CLI has
        setup = []
        passes = []
        while not passes or time.perf_counter() - start < seconds:
            # set-up samples are spread over the run, so that one slow
            # moment of a shared machine cannot set the median
            for _ in range(SETUP_REPS):
                wall, _, code, _ = runner.cli(("--help",), work)
                attempted += 1
                failed += code != 0
                setup.append(wall)
            passes.append(runner.run_pass(steps, f"pass{len(passes)}", traced=False))
            tally(passes[-1])
            lines.append(f"# pass {len(passes)}: " + " ".join(
                f"{r.step.metric}={r.wall_s:.4f}" for r in passes[-1]))
        metrics = {
            "setup_s": statistics.median(setup),
            # a mean over passes uses all the time measured, which steadies
            # the figure more than a median of two to four passes
            "wall_s": statistics.fmean([sum(r.wall_s for r in p) for p in passes]),
            "peak_rss_mb": statistics.median([max(r.peak_rss_mb for r in p) for p in passes]),
        }
        units = dict(END_TO_END)
        per_step = [step_times(p) for p in passes]
        for name in per_step[0]:
            metrics[name] = statistics.fmean([t[name] for t in per_step])
            units[name] = "s"
        lines.append(f"# {len(passes)} passes, {len(setup)} setup runs; times are means over "
                     "passes, setup_s and peak_rss_mb medians")
    else:
        samples: dict = defaultdict(list)
        rounds = 0
        while not rounds or time.perf_counter() - start < seconds:
            plain = runner.run_pass(steps, f"plain{rounds}", traced=False)
            traced = runner.run_pass(steps, f"traced{rounds}", traced=True)
            tally(plain)
            tally(traced)
            for name, value in layer_metrics(traced, plain).items():
                samples[name].append(value)
            rounds += 1
        metrics = {name: statistics.median(values) for name, values in samples.items()}
        units = {**PER_LAYER, **PER_LAYER_PARTIAL}
        lines.append(f"# {rounds} untraced+traced rounds; values are medians")
    metrics["failed_frac"] = failed / attempted
    units["failed_frac"] = "1"
    for name, value in metrics.items():
        lines.append(f"{workload} {name} = {value!r} {units[name]}")
    lines.extend(f"# FAILED {p}" for p in problems[:20])
    exported = END_TO_END if not trace else PER_LAYER
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": u} for name, u in exported.items()},
        "lines": lines,
    }


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(make_workloads()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "partition_atlas" / "cli.py").is_file():
        print(f"error: no partition_atlas sources under {SRC}", file=sys.stderr)
        return 2
    steps = make_workloads(seed=args.seed)[args.workload]
    facts = machine_facts()
    too_many = [s.jobs for s in steps if s.jobs > facts["nproc"]]
    if too_many:
        print(f"error: --jobs {max(too_many)} exceeds nproc={facts['nproc']}; "
              "refusing to measure the scheduler", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an error, so the running step is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(args.workload, steps, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.exists() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    print("# machine " + json.dumps(facts))
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for line in result.pop("lines"):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
