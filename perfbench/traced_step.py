"""Run one partition-atlas CLI step in process with a span around each layer call.

Usage (the benchmark runner starts this in a fresh interpreter per step):

    python3 perfbench/traced_step.py SPANS_JSON -- <partition-atlas arguments>

Each function in ``SPANNED`` is replaced, in every ``partition_atlas``
module that holds a reference to it, by a wrapper that records one span
per call. A span is ``[name, parent, start, end, counts]``; ``name`` is
``<owning module>.<function>`` and ``parent`` the index of the enclosing
span (-1 for the root). Spans stay in memory and are written to
SPANS_JSON when the step ends. The process exits with the CLI's code.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Layer entry points, by owning module. Only calls that cross a module
# boundary (or enter a TransferGraph method) get a span; helpers called
# inside a module count as that function's self time.
SPANNED = {
    "partitions": ("enumerate_partitions", "canonical_index"),
    "transfer_graph": ("build_graph",),
    "thickness": ("thickness_profile", "profile_csv", "profile_json", "profile_from_json"),
    "framework": ("boundary_framework", "self_conjugate_axis", "framework_json"),
    "zones": ("decompose", "zone_json"),
    "pipeline": ("compute_artifacts_for_n",),
    "atlas": ("render_atlas", "export_tables"),
    "verify": ("run_checks",),
}
SPANNED_METHODS = ("dump_edges", "conjugation_permutation")


def _text_bytes(text):
    return {"bytes": len(text.encode())}


def _graph_counts(graph):
    return {
        "vertices": len(graph.vertices),
        "edges": graph.edge_count,
        "max_degree": max(len(row) for row in graph.adj),
    }


# Counts recorded at the span boundary, from the call's result.
COUNTS = {
    "transfer_graph.build_graph": _graph_counts,
    "transfer_graph.dump_edges": _text_bytes,
    "thickness.profile_csv": _text_bytes,
    "thickness.profile_json": _text_bytes,
    "framework.framework_json": _text_bytes,
    "zones.zone_json": _text_bytes,
    "zones.decompose": lambda dec: {"components": len(dec.components)},
    "atlas.render_atlas": _text_bytes,
    "verify.run_checks": lambda results: {"checks_passed": sum(r.ok for r in results)},
}


class Tracer:
    """In-memory span recorder; not thread-safe (the CLI is single-threaded)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, {}]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                record[4] = count(result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Swap every spanned function for its traced wrapper, wherever it is bound."""
    for module_name in SPANNED:
        importlib.import_module(f"partition_atlas.{module_name}")
    importlib.import_module("partition_atlas.cli")
    holders = [m for name, m in sys.modules.items() if name.split(".")[0] == "partition_atlas"]
    for module_name, names in SPANNED.items():
        owner = sys.modules[f"partition_atlas.{module_name}"]
        for name in names:
            original = getattr(owner, name)
            traced = tracer.wrap(f"{module_name}.{name}", original)
            for holder in holders:
                if getattr(holder, name, None) is original:
                    setattr(holder, name, traced)
    graph_cls = sys.modules["partition_atlas.transfer_graph"].TransferGraph
    for name in SPANNED_METHODS:
        setattr(graph_cls, name, tracer.wrap(f"transfer_graph.{name}", getattr(graph_cls, name)))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_step.py SPANS_JSON -- <partition-atlas arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = Path(argv[0]), argv[2:]
    sys.path.insert(0, str(SRC))
    import partition_atlas

    if Path(partition_atlas.__file__).resolve().parent != SRC / "partition_atlas":
        print(f"partition_atlas comes from {partition_atlas.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = Tracer()
    install(tracer)
    cli_main = tracer.wrap("cli.main", sys.modules["partition_atlas.cli"].main)
    code = 0
    try:
        cli_main(cli_args, prog_name="partition-atlas")
    except SystemExit as exc:  # click always ends a standalone command this way
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        spans_path.write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
