"""Summarize saved outputs of ``perfbench/run.py``: median, quartiles and spread.

    python3 perfbench/summarize.py perfbench/results/seed/*.log

Each log is the standard output of one run. Runs are grouped by workload
and trace setting. For every metric the table gives the sample count,
the median, the first and third quartiles (``statistics.quantiles(values,
n=4)``) and the spread, (q3 - q1) / median. For end-to-end metrics the
spread is compared with the bound in BENCHMARK.json; ``ok`` means it is
below a third of the bound, ``wide`` that it exceeds the bound. Every run
must have printed ``"correct": true``.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
HEADER = re.compile(r"^# workload=(\S+) seed=(\S+) seconds=(\S+) trace=(\d)$")
METRIC = re.compile(r"^(\S+) (\S+) = (\S+) (\S+)$")


def read_runs(paths: list) -> tuple:
    """(workload, trace) -> metric -> values, metric -> unit, and the logs not correct."""
    groups: dict = defaultdict(lambda: defaultdict(list))
    units: dict = {}
    incorrect = []
    for path in paths:
        lines = Path(path).read_text().splitlines()
        header = next((m for m in map(HEADER.match, lines) if m), None)
        if header is None or not lines[-1].startswith("{") or not json.loads(lines[-1])["correct"]:
            incorrect.append(str(path))
        if header is None:
            continue
        workload, trace = header.group(1), int(header.group(4))
        for match in filter(None, map(METRIC.match, lines)):
            if match.group(1) == workload:
                groups[workload, trace][match.group(2)].append(float(match.group(3)))
                units[match.group(2)] = match.group(4)
    return groups, units, incorrect


def main(paths: list) -> int:
    groups, units, incorrect = read_runs(paths)
    print("| workload | trace | metric | n | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|---|---|")
    for (workload, trace), metrics in sorted(groups.items()):
        for name, values in metrics.items():
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = values[0]
            median = statistics.median(values)
            spread = (q3 - q1) / median if median else 0.0
            bound = BOUNDS.get(name)
            verdict = ""
            if bound is not None:
                verdict = "ok" if spread < bound / 3 else "wide" if spread > bound else "near"
                verdict = f"{bound} {verdict}"
            print(
                f"| {workload} | {trace} | {name} ({units[name]}) | {len(values)} | {median:.6g} "
                f"| {q1:.6g} | {q3:.6g} | {spread:.4f} | {verdict} |"
            )
    for path in incorrect:
        print(f"NOT CORRECT: {path}")
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
