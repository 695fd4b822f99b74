"""Exact thickness atlases of the unit-transfer graph on integer partitions.

The pipeline builds, for each total n, the graph whose vertices are the
partitions of n and whose edges move a single unit between parts. For
every vertex it computes the exact size of the largest clique through it,
splits the resulting threshold zones into boundary-attached shells and
interior cores, and exports tables and SVG figures.
"""

from .atlas import (
    LayoutPoint,
    LocusStats,
    export_tables,
    layout,
    locus_statistics,
    render_atlas,
)
from .framework import (
    AxisSet,
    FrameworkSet,
    antennas,
    boundary_framework,
    framework_json,
    left_boundary,
    main_chain,
    right_boundary,
    self_conjugate_axis,
)
from .partitions import (
    Partition,
    canonical_index,
    enumerate_partitions,
    format_partition,
    parse_partition,
    partition_count,
    partition_names,
)
from .thickness import (
    ThicknessProfile,
    brute_force_local_dimension,
    local_simplex_dimension,
    max_thickness_locus,
    profile_csv,
    profile_from_json,
    profile_json,
    thickness_profile,
)
from .transfer_graph import (
    TransferGraph,
    bfs_distances,
    build_graph,
    induced_components,
    neighbors,
)
from .zones import (
    FirstOccurrenceTable,
    ZoneComponent,
    ZoneDecomposition,
    decompose,
    exact_regime,
    first_occurrences,
    first_occurrences_csv,
    threshold_zone,
    zone_json,
)

__version__ = "0.1.0"

__all__ = [
    "AxisSet",
    "FirstOccurrenceTable",
    "FrameworkSet",
    "LayoutPoint",
    "LocusStats",
    "Partition",
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
    "layout",
    "left_boundary",
    "local_simplex_dimension",
    "locus_statistics",
    "main_chain",
    "max_thickness_locus",
    "neighbors",
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
]
