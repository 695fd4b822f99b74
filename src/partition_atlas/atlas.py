"""Deterministic layout, SVG rendering and table export."""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from pathlib import Path
from typing import Iterator, Sequence

from .framework import boundary_framework
from .partitions import _part_text, enumerate_partitions
from .thickness import ThicknessProfile
from .transfer_graph import TransferGraph
from .zones import decompose, exact_regime, first_occurrences, first_occurrences_csv

# glyph geometry, in SVG user units
CELL = 28.0
MARGIN = 36.0
RADIUS = 7.0
RING_OFFSET = 0.3  # cell fraction; must stay below 0.5 to keep cells apart

# fill per thickness value 0..8; values past the end reuse the last entry
THICKNESS_PALETTE = (
    "#bdbdbd",
    "#dadaeb",
    "#9ecae1",
    "#fdae6b",
    "#e6550d",
    "#e31a1c",
    "#a50f15",
    "#54278f",
    "#252525",
)

# zone-view fills: exactly-one-dimensional gray, order-2 shell blue,
# order-3 core red, anything else in the residual tone
ZONE_FILLS = {
    "exact1": "#b5b5b5",
    "skin2": "#3182bd",
    "core3": "#de2d26",
    "rest": "#fee6ce",
}

EDGE_STYLE = 'stroke="#c8c8c8" stroke-width="1.00"'
OUTLINE_STROKE = ('#000000', "2.50")
PLAIN_STROKE = ('#606060', "0.80")


def _cells(n: int) -> tuple[tuple[int, int, float, float], ...]:
    """One ``(x, y, dx, dy)`` point per partition of ``n``, in canonical order.

    A partition sits at the cell (x, y) = (largest part, number of parts).
    Partitions landing on the same cell are spread on a small circle
    around it in canonical order, with ring offsets ``dx``/``dy``, so
    placement is a pure function of the enumeration. Conjugation
    transposes the base cell. The offsets of a ring of m points are
    computed once per m and shared by every cell that holds m partitions.
    """
    parts = enumerate_partitions(n)
    cells: dict[tuple[int, int], list[int]] = {}
    for i, t in enumerate(parts):
        cells.setdefault((t[0], len(t)), []).append(i)
    rings: dict[int, list[tuple[float, float]]] = {1: [(0.0, 0.0)]}
    points: list = [None] * len(parts)
    for (x, y), group in cells.items():
        m = len(group)
        ring = rings.get(m)
        if ring is None:
            ring = rings[m] = [
                (
                    round(RING_OFFSET * math.cos(2.0 * math.pi * k / m), 4),
                    round(RING_OFFSET * math.sin(2.0 * math.pi * k / m), 4),
                )
                for k in range(m)
            ]
        for i, (dx, dy) in zip(group, ring):
            points[i] = (x, y, dx, dy)
    return tuple(points)


def _coord(value: float) -> str:
    return f"{value:.2f}"


# no pipeline step calls this; kept because perfbench/traced_step.py spans it by name
def render_atlas(graph: TransferGraph, profile: ThicknessProfile, mode: str) -> str:
    """SVG drawing of one transfer graph, as one string; see :func:`atlas_chunks`."""
    return "".join(atlas_chunks(graph, profile, mode))


def atlas_chunks(graph: TransferGraph, profile: ThicknessProfile, mode: str) -> Iterator[str]:
    """SVG drawing of one transfer graph, as text chunks to write in order.

    ``mode="thickness"`` fills vertices from the thickness palette.
    ``mode="zones"`` paints the exactly-one-dimensional regime gray, the
    order-2 shell blue and the order-3 core red (red wins where shell and
    core overlap), with the residual tone elsewhere; each glyph's class
    attribute records every zone it belongs to. The maximal locus
    ``profile.max_locus`` is outlined in black in both modes. Output is
    byte-deterministic for fixed inputs.

    Every ``ValueError`` is raised by this call, before the iterator is
    returned, so a rejected drawing never leaves a partial file behind.
    The chunks are the header and group lines, one chunk per row of edges
    and one per vertex, so a writer holds no more than one row at a time.
    """
    if mode not in ("thickness", "zones"):
        raise ValueError(f"unknown atlas mode {mode!r}")
    if graph.n != profile.n:
        raise ValueError("graph and profile must describe the same n")
    if len(profile.tau) != len(graph.vertices):
        raise ValueError(f"profile for n={profile.n} lists {len(profile.tau)} vertices, not p(n)")
    return _svg_chunks(graph, profile, mode)


def _svg_chunks(graph: TransferGraph, profile: ThicknessProfile, mode: str) -> Iterator[str]:
    n = graph.n
    outlined = frozenset(profile.max_locus)
    if mode == "zones":
        framework = boundary_framework(n)
        exact1 = exact_regime(profile, 1)
        # only the two sets outlive these lines, not the orders they come from
        core3 = decompose(framework, profile, 3).core
        skin2 = decompose(framework, profile, 2).shell

    # each coordinate is formatted once, and the lines and circles share
    # the strings; the cells are dropped once placed (at n=45 they hold 7 MB)
    cells = _cells(n)
    xs = [_coord(MARGIN + (x - 1 + dx) * CELL) for x, _, dx, _ in cells]
    ys = [_coord(MARGIN + (y - 1 + dy) * CELL) for _, y, _, dy in cells]
    del cells
    side = _coord(2 * MARGIN + (n - 1) * CELL)

    yield '<?xml version="1.0" encoding="UTF-8"?>\n'
    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{side}" height="{side}" viewBox="0 0 {side} {side}">\n'
    )
    yield f"<desc>{mode} atlas, n={n}</desc>\n"
    yield '<g id="edges">\n'
    # each endpoint is written as a line's first or second half, and a row
    # of lines is its second halves joined by its first half
    starts = [f'<line x1="{x}" y1="{y}" ' for x, y in zip(xs, ys)]
    ends = [f'x2="{x}" y2="{y}" {EDGE_STYLE}/>\n' for x, y in zip(xs, ys)]
    for i, row in enumerate(graph.adj):
        k = bisect_right(row, i)
        if k < len(row):
            start = starts[i]
            yield start + start.join([ends[j] for j in row[k:]])
    yield "</g>\n"
    yield '<g id="vertices">\n'
    # each title is joined where it is written, from the table of part
    # strings, so no table of p(n) names is held alongside the output
    text = _part_text(n)
    radius = _coord(RADIUS)
    for i, parts in enumerate(graph.vertices):
        classes = ["v"]
        if mode == "thickness":
            t = profile.tau[i]
            classes.append(f"t{t}")
            fill = THICKNESS_PALETTE[min(t, len(THICKNESS_PALETTE) - 1)]
        else:
            if i in exact1:
                classes.append("exact1")
            if i in skin2:
                classes.append("skin2")
            if i in core3:
                classes.append("core3")
            if len(classes) == 1:
                classes.append("rest")
            # the classes go in by rising precedence, so the last one is painted
            fill = ZONE_FILLS[classes[-1]]
        if i in outlined:
            classes.append("hl")
            stroke, stroke_width = OUTLINE_STROKE
        else:
            stroke, stroke_width = PLAIN_STROKE
        yield (
            f'<circle class="{" ".join(classes)}" cx="{xs[i]}" cy="{ys[i]}" '
            f'r="{radius}" fill="{fill}" stroke="{stroke}" '
            f'stroke-width="{stroke_width}"><title>{",".join(map(text, parts))}</title></circle>\n'
        )
    yield "</g>\n"
    yield "</svg>\n"


def export_tables(
    profiles: Sequence[ThicknessProfile],
    locus_names: Sequence[Sequence[str]],
    out_dir: Path,
) -> dict[str, Path]:
    """Write the first-occurrence, per-n summary and max-locus files.

    ``profiles`` must cover 1..N contiguously, and ``locus_names[i]``
    names the members of ``profiles[i].max_locus`` in order, so a caller
    that walks n names each locus while that n's partitions are at hand
    and no n is enumerated twice. Returns the written paths keyed by
    table name.
    """
    if not profiles or any(prof.n != i + 1 for i, prof in enumerate(profiles)):
        raise ValueError("profiles must cover a contiguous range starting at 1")
    if len(locus_names) != len(profiles):
        raise ValueError("locus_names must name the locus of every profile")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    entries = first_occurrences([prof.tau_max for prof in profiles])
    first_path = out_dir / "first_occurrences.csv"
    first_path.write_text(first_occurrences_csv(entries, len(profiles)))

    lines = ["n,p(n),tau_max,|M_n|"]
    for prof in profiles:
        lines.append(f"{prof.n},{len(prof.tau)},{prof.tau_max},{len(prof.max_locus)}")
    summary_path = out_dir / "summary.csv"
    summary_path.write_text("\n".join(lines) + "\n")

    loci: dict[str, list[str]] = {}
    for n_r in entries.values():
        loci[str(n_r)] = list(locus_names[n_r - 1])
    locus_path = out_dir / "max_locus_members.json"
    locus_path.write_text(json.dumps(loci, indent=2) + "\n")

    return {"first_occurrences": first_path, "summary": summary_path, "max_locus": locus_path}
