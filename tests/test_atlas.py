import json
import math
import xml.etree.ElementTree as ET
from collections import Counter

import pytest

from partition_atlas import (
    LayoutPoint,
    Partition,
    antennas,
    boundary_framework,
    build_graph,
    enumerate_partitions,
    export_tables,
    layout,
    locus_statistics,
    max_thickness_locus,
    render_atlas,
    self_conjugate_axis,
    thickness_profile,
)
from partition_atlas.atlas import CELL, EDGE_STYLE, MARGIN, RING_OFFSET, atlas_chunks

SVG = "{http://www.w3.org/2000/svg}"


def _circles(svg_text):
    root = ET.fromstring(svg_text)
    return root.findall(f".//{SVG}g[@id='vertices']/{SVG}circle")


def _edges(svg_text):
    root = ET.fromstring(svg_text)
    return root.findall(f".//{SVG}g[@id='edges']/{SVG}line")


def test_layout_base_cells_n4():
    pts = {str(p): pt for p, pt in zip(enumerate_partitions(4), layout(4))}
    assert (pts["3,1"].x, pts["3,1"].y) == (3, 2)
    assert (pts["2,1,1"].x, pts["2,1,1"].y) == (2, 3)
    assert (pts["4"].x, pts["4"].y) == (4, 1)


def test_layout_no_collisions_n6():
    cells = Counter((pt.x, pt.y) for pt in layout(6))
    assert max(cells.values()) == 1
    assert all(pt.dx == pt.dy == 0.0 for pt in layout(6))


def test_layout_collision_ring_n7():
    # (3,3,1) and (3,2,2) share the cell (3,3); found by scanning
    pts = {str(p): pt for p, pt in zip(enumerate_partitions(7), layout(7))}
    a, b = pts["3,3,1"], pts["3,2,2"]
    assert (a.x, a.y) == (b.x, b.y) == (3, 3)
    assert (a.dx, a.dy) != (b.dx, b.dy)
    for pt in (a, b):
        assert abs(pt.dx) < 0.5 and abs(pt.dy) < 0.5
    assert layout(7) == layout(7)


@pytest.mark.parametrize("n", range(1, 13))
def test_layout_conjugation_transposes_cells(n):
    verts = enumerate_partitions(n)
    index = {p.parts: i for i, p in enumerate(verts)}
    pts = layout(n)
    for i, p in enumerate(verts):
        mirror = pts[index[p.conjugate().parts]]
        assert (pts[i].x, pts[i].y) == (mirror.y, mirror.x)


def _layout_point_by_point(n):
    # reference: each point's ring offset computed on its own
    verts = enumerate_partitions(n)
    cells = {}
    for i, p in enumerate(verts):
        cells.setdefault((p.largest, p.length), []).append(i)
    points = [None] * len(verts)
    for (x, y), group in cells.items():
        m = len(group)
        for k, i in enumerate(group):
            if m == 1:
                dx, dy = 0.0, 0.0
            else:
                angle = 2.0 * math.pi * k / m
                dx = round(RING_OFFSET * math.cos(angle), 4)
                dy = round(RING_OFFSET * math.sin(angle), 4)
            points[i] = LayoutPoint(x=x, y=y, dx=dx, dy=dy)
    return tuple(points)


@pytest.mark.parametrize("n", range(1, 31))
def test_layout_matches_point_by_point_formula(n):
    assert layout(n) == _layout_point_by_point(n)


@pytest.mark.parametrize("n", range(1, 16))
def test_render_edge_block_matches_per_line_formatting(n):
    g = build_graph(n)
    prof = thickness_profile(g)
    coords = [
        (f"{MARGIN + (pt.x - 1 + pt.dx) * CELL:.2f}", f"{MARGIN + (pt.y - 1 + pt.dy) * CELL:.2f}")
        for pt in layout(n)
    ]
    lines = [
        f'<line x1="{coords[i][0]}" y1="{coords[i][1]}" '
        f'x2="{coords[j][0]}" y2="{coords[j][1]}" {EDGE_STYLE}/>\n'
        for i, row in enumerate(g.adj)
        for j in row
        if j > i
    ]
    expected = '<g id="edges">\n' + "".join(lines) + "</g>\n"
    for mode in ("thickness", "zones"):
        svg = render_atlas(g, prof, mode)
        start = svg.index('<g id="edges">')
        assert svg[start : svg.index("</g>\n", start) + 5] == expected, mode


def test_render_thickness_n4():
    g = build_graph(4)
    prof = thickness_profile(g)
    svg = render_atlas(g, prof, "thickness", highlight=max_thickness_locus(g, prof))
    circles = _circles(svg)
    assert len(circles) == 5
    assert len(_edges(svg)) == 5
    outlined = [c for c in circles if "hl" in c.get("class").split()]
    assert len(outlined) == 3
    taus = Counter(
        cls for c in circles for cls in c.get("class").split() if cls.startswith("t")
    )
    assert taus == {"t1": 2, "t2": 3}


def test_render_zones_n7_classes():
    g = build_graph(7)
    prof = thickness_profile(g)
    svg = render_atlas(g, prof, "zones", highlight=max_thickness_locus(g, prof))
    circles = _circles(svg)
    assert len(circles) == 15
    marks = Counter(cls for c in circles for cls in c.get("class").split())
    assert marks["exact1"] == 2
    assert marks["skin2"] == 13
    assert marks["core3"] == 4
    assert marks.get("rest", 0) == 0
    assert marks["hl"] == 4
    # painted fills partition the vertex set even where the sets overlap
    fills = Counter(c.get("fill") for c in circles)
    assert sum(fills.values()) == 15
    assert fills["#de2d26"] == 4
    assert fills["#3182bd"] == 13 - 4
    assert fills["#b5b5b5"] == 2


def test_render_n1_single_glyph():
    g = build_graph(1)
    svg = render_atlas(g, thickness_profile(g), "thickness")
    assert len(_circles(svg)) == 1
    assert len(_edges(svg)) == 0


def test_render_zones_degenerate_n():
    # n=1 has no one-dimensional regime at all; n=2 is entirely inside it
    g1 = build_graph(1)
    classes1 = _circles(render_atlas(g1, thickness_profile(g1), "zones"))[0].get("class")
    assert classes1.split() == ["v", "rest"]
    g2 = build_graph(2)
    svg2 = render_atlas(g2, thickness_profile(g2), "zones")
    assert all("exact1" in c.get("class").split() for c in _circles(svg2))


def test_render_is_deterministic():
    g = build_graph(6)
    prof = thickness_profile(g)
    for mode in ("thickness", "zones"):
        assert render_atlas(g, prof, mode) == render_atlas(g, prof, mode)


def test_render_rejects_bad_inputs():
    g = build_graph(4)
    prof = thickness_profile(g)
    with pytest.raises(ValueError):
        render_atlas(g, prof, "heatmap")
    with pytest.raises(ValueError):
        render_atlas(g, prof, "thickness", highlight=[Partition((5,))])
    with pytest.raises(ValueError):
        render_atlas(g, thickness_profile(build_graph(5)), "thickness")


def test_atlas_chunks_rejects_bad_inputs_before_iterating():
    # every check runs on the call itself, so a writer that opens its file
    # after the call never leaves a partial drawing behind
    g = build_graph(4)
    prof = thickness_profile(g)
    with pytest.raises(ValueError, match="mode"):
        atlas_chunks(g, prof, "heatmap")
    with pytest.raises(ValueError, match="same n"):
        atlas_chunks(g, thickness_profile(build_graph(5)), "zones")
    with pytest.raises(ValueError, match="not a partition of 4"):
        atlas_chunks(g, prof, "thickness", highlight=iter([Partition((5,))]))


def test_render_titles_name_partitions():
    g = build_graph(4)
    svg = render_atlas(g, thickness_profile(g), "thickness")
    titles = [c.find(f"{SVG}title").text for c in _circles(svg)]
    assert titles == ["4", "3,1", "2,2", "2,1,1", "1,1,1,1"]


def _profiles_and_loci(ns):
    graphs = [build_graph(n) for n in ns]
    profiles = [thickness_profile(g) for g in graphs]
    loci = [[str(p) for p in max_thickness_locus(g, prof)] for g, prof in zip(graphs, profiles)]
    return profiles, loci


def test_export_tables_small_range(tmp_path):
    paths = export_tables(*_profiles_and_loci(range(1, 8)), tmp_path)
    assert paths["first_occurrences"].read_text() == "r,n_r\n2,4\n3,7\n"
    summary = paths["summary"].read_text().strip().split("\n")
    assert summary[0] == "n,p(n),tau_max,|M_n|"
    assert summary[4] == "4,5,2,3"
    assert summary[7] == "7,15,3,4"
    loci = json.loads(paths["max_locus"].read_text())
    assert list(loci) == ["4", "7"]
    assert loci["4"] == ["3,1", "2,2", "2,1,1"]
    assert "4,2,1" in loci["7"] and "3,3,1" in loci["7"]


def test_export_tables_rejects_gaps(tmp_path):
    with pytest.raises(ValueError):
        export_tables(*_profiles_and_loci((1, 2, 4)), tmp_path)
    profiles, loci = _profiles_and_loci(range(1, 5))
    with pytest.raises(ValueError, match="locus_names"):
        export_tables(profiles, loci[:-1], tmp_path)


def test_locus_statistics_antennas():
    n = 6
    g = build_graph(n)
    fw = boundary_framework(n)
    stats = locus_statistics(g, fw, antennas(n))
    assert stats.size == 2
    assert stats.antenna_distance_min == stats.antenna_distance_max == 0
    assert stats.balance_min == -(n - 1)
    assert stats.balance_max == n - 1
    assert stats.balance_mean == 0.0
    assert stats.framework_distance_max == 0


def test_locus_statistics_axis_balance_zero():
    g = build_graph(8)
    fw = boundary_framework(8)
    stats = locus_statistics(g, fw, self_conjugate_axis(8).members)
    assert stats.balance_mean == 0.0
    assert stats.axis_fraction == 1.0


def test_locus_statistics_m7_avoids_antennas():
    g = build_graph(7)
    prof = thickness_profile(g)
    stats = locus_statistics(g, boundary_framework(7), max_thickness_locus(g, prof))
    assert stats.antenna_distance_min >= 2


def test_locus_statistics_rejects_empty():
    g = build_graph(4)
    with pytest.raises(ValueError):
        locus_statistics(g, boundary_framework(4), [])
