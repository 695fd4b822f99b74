"""Per-n artifact generation shared by the CLI commands."""

from __future__ import annotations

from pathlib import Path

from .framework import boundary_framework, framework_json, self_conjugate_axis
from .thickness import profile_csv, profile_json, thickness_profile
from .transfer_graph import build_graph
from .zones import zone_json, zone_sweep


def n_dir(out_root: Path, n: int) -> Path:
    return Path(out_root) / f"n{n:02d}"


def compute_artifacts_for_n(n: int, out_root: Path) -> None:
    """Write every per-n artifact with fixed names under ``out_root``.

    Contents are a pure function of ``n``, so re-runs overwrite with
    identical bytes regardless of worker layout.
    """
    graph = build_graph(n)
    profile = thickness_profile(graph)
    framework = boundary_framework(n)
    axis = self_conjugate_axis(n)
    target = n_dir(out_root, n)
    target.mkdir(parents=True, exist_ok=True)
    with open(target / "edges.txt", "w", encoding="utf-8") as f:
        f.writelines(graph.edge_chunks())
    (target / "framework.json").write_text(framework_json(framework, axis))
    (target / "profile.csv").write_text(profile_csv(graph, profile))
    (target / "profile.json").write_text(profile_json(graph, profile))
    # each order is written as the sweep makes it, from tau_max down, and
    # dropped once the next is grown from it
    for decomposition in zone_sweep(graph, framework, profile):
        (target / f"zones_r{decomposition.r}.json").write_text(zone_json(graph, decomposition))
