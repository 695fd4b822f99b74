"""Exact thickness atlases of the unit-transfer graph on integer partitions.

The pipeline builds, for each total n, the graph whose vertices are the
partitions of n and whose edges move a single unit between parts. For
every vertex it computes the exact size of the largest clique through it,
splits the resulting threshold zones into boundary-attached shells and
interior cores, and exports tables and SVG figures.

Each public name is imported from its home module on first access, so
importing the package, or running one CLI command, loads only the layers
that are used.
"""

import importlib

__version__ = "0.1.0"

# largest n whose reference values `verify` holds in full; the CLI's
# verified range, past which an order first realized is reported as new
REFERENCE_RANGE_MAX = 30

_HOME = {
    name: module
    for module, names in {
        "atlas": "export_tables render_atlas",
        "framework": "FrameworkSet antennas boundary_framework framework_json "
        "left_boundary main_chain right_boundary self_conjugate_axis",
        "partitions": "canonical_index enumerate_partitions format_partition "
        "parse_partition partition_count partition_names",
        "thickness": "ThicknessProfile brute_force_local_dimension profile_csv "
        "profile_from_json profile_json thickness_profile",
        "transfer_graph": "TransferGraph bfs_distances build_graph induced_components",
        "zones": "ZoneComponent ZoneDecomposition decompose exact_regime "
        "first_occurrences first_occurrences_csv threshold_zone zone_json zone_sweep",
    }.items()
    for name in names.split()
}

__all__ = [
    "FrameworkSet",
    "ThicknessProfile",
    "TransferGraph",
    "ZoneComponent",
    "ZoneDecomposition",
    "antennas",
    "bfs_distances",
    "boundary_framework",
    "brute_force_local_dimension",
    "build_graph",
    "canonical_index",
    "decompose",
    "enumerate_partitions",
    "exact_regime",
    "export_tables",
    "first_occurrences",
    "first_occurrences_csv",
    "format_partition",
    "framework_json",
    "induced_components",
    "left_boundary",
    "main_chain",
    "parse_partition",
    "partition_count",
    "partition_names",
    "profile_csv",
    "profile_from_json",
    "profile_json",
    "render_atlas",
    "right_boundary",
    "self_conjugate_axis",
    "thickness_profile",
    "threshold_zone",
    "zone_json",
    "zone_sweep",
]


def __getattr__(name: str):
    """Import a public name from its home module and keep it here (PEP 562)."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
