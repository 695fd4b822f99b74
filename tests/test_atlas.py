import json
import math
import xml.etree.ElementTree as ET
from collections import Counter

import pytest

from partition_atlas import (
    build_graph,
    enumerate_partitions,
    export_tables,
    render_atlas,
    thickness_profile,
)
from partition_atlas.atlas import CELL, EDGE_STYLE, MARGIN, RING_OFFSET, _cells, atlas_chunks

SVG = "{http://www.w3.org/2000/svg}"


def _circles(svg_text):
    root = ET.fromstring(svg_text)
    return root.findall(f".//{SVG}g[@id='vertices']/{SVG}circle")


def _edges(svg_text):
    root = ET.fromstring(svg_text)
    return root.findall(f".//{SVG}g[@id='edges']/{SVG}line")


def test_layout_base_cells_n4():
    pts = {str(p): pt for p, pt in zip(enumerate_partitions(4), _cells(4))}
    assert pts["3,1"][:2] == (3, 2)
    assert pts["2,1,1"][:2] == (2, 3)
    assert pts["4"][:2] == (4, 1)


def test_layout_no_collisions_n6():
    cells = Counter((x, y) for x, y, _, _ in _cells(6))
    assert max(cells.values()) == 1
    assert all(dx == dy == 0.0 for _, _, dx, dy in _cells(6))


def test_layout_collision_ring_n7():
    # (3,3,1) and (3,2,2) share the cell (3,3); found by scanning
    pts = {str(p): pt for p, pt in zip(enumerate_partitions(7), _cells(7))}
    (ax, ay, adx, ady), (bx, by, bdx, bdy) = pts["3,3,1"], pts["3,2,2"]
    assert (ax, ay) == (bx, by) == (3, 3)
    assert (adx, ady) != (bdx, bdy)
    for offset in (adx, ady, bdx, bdy):
        assert abs(offset) < 0.5
    assert _cells(7) == _cells(7)


@pytest.mark.parametrize("n", range(1, 13))
def test_layout_conjugation_transposes_cells(n):
    verts = enumerate_partitions(n)
    index = {p.parts: i for i, p in enumerate(verts)}
    pts = _cells(n)
    for i, p in enumerate(verts):
        x, y, _, _ = pts[i]
        mirror_x, mirror_y, _, _ = pts[index[p.conjugate().parts]]
        assert (x, y) == (mirror_y, mirror_x)


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
            points[i] = (x, y, dx, dy)
    return tuple(points)


@pytest.mark.parametrize("n", range(1, 31))
def test_layout_matches_point_by_point_formula(n):
    assert _cells(n) == _layout_point_by_point(n)


@pytest.mark.parametrize("n", range(1, 16))
def test_render_edge_block_matches_per_line_formatting(n):
    g = build_graph(n)
    prof = thickness_profile(g)
    coords = [
        (f"{MARGIN + (x - 1 + dx) * CELL:.2f}", f"{MARGIN + (y - 1 + dy) * CELL:.2f}")
        for x, y, dx, dy in _layout_point_by_point(n)
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
    svg = render_atlas(g, prof, "thickness")
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
    svg = render_atlas(g, prof, "zones")
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
    # n=1 has no one-dimensional regime at all, and its lone vertex is the
    # maximal locus; n=2 is entirely inside the regime
    g1 = build_graph(1)
    classes1 = _circles(render_atlas(g1, thickness_profile(g1), "zones"))[0].get("class")
    assert classes1.split() == ["v", "rest", "hl"]
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


def test_render_titles_name_partitions():
    g = build_graph(4)
    svg = render_atlas(g, thickness_profile(g), "thickness")
    titles = [c.find(f"{SVG}title").text for c in _circles(svg)]
    assert titles == ["4", "3,1", "2,2", "2,1,1", "1,1,1,1"]


def _profiles_and_loci(ns):
    graphs = [build_graph(n) for n in ns]
    profiles = [thickness_profile(g) for g in graphs]
    loci = [[str(g.vertices[i]) for i in prof.max_locus] for g, prof in zip(graphs, profiles)]
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
    with pytest.raises(ValueError):
        export_tables([], [], tmp_path)
    profiles, loci = _profiles_and_loci(range(1, 5))
    with pytest.raises(ValueError, match="locus_names"):
        export_tables(profiles, loci[:-1], tmp_path)
