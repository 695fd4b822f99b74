"""edges.txt and the atlas SVG are written chunk by chunk, never held whole.

The streamed files must be byte-identical to the in-memory texts
(``dump_edges`` and ``render_atlas``), and writing them must cost less
memory than the file they produce.
"""

import tracemalloc

from conftest import invoke

from partition_atlas import thickness, transfer_graph
from partition_atlas.atlas import render_atlas
from partition_atlas.thickness import thickness_profile
from partition_atlas.transfer_graph import build_graph

# large enough that the artifact dwarfs the per-vertex tables (p(28) = 3718
# vertices; edges.txt is 1.1 MB and the zones SVG 3.4 MB), small enough to
# build in a fraction of a second
MEMORY_N = 28


def _invoke(args):
    result = invoke(args)
    assert result.exit_code == 0, (args, result.output, result.exception)
    return result


def test_streamed_files_match_in_memory_text(tmp_path):
    out = tmp_path / "artifacts"
    _invoke(["compute", "--n-max", "12", "--out", str(out)])
    for n in range(1, 13):
        graph = build_graph(n)
        profile = thickness_profile(n)
        edges = (out / f"n{n:02d}" / "edges.txt").read_bytes()
        assert edges == graph.dump_edges().encode(), n
        for mode in ("thickness", "zones"):
            _invoke(["atlas", "--n", str(n), "--mode", mode, "--out", str(out)])
            svg = (out / f"atlas_n{n}_{mode}.svg").read_bytes()
            assert svg == render_atlas(graph, profile, mode).encode(), (n, mode)


def test_graph_dump_matches_compute_edges(tmp_path):
    out = tmp_path / "artifacts"
    _invoke(["compute", "--n-max", "12", "--out", str(out)])
    for n in range(1, 13):
        edges = (out / f"n{n:02d}" / "edges.txt").read_bytes()
        assert _invoke(["graph-dump", "--n", str(n)]).output.encode() == edges, n
        path = tmp_path / "dump" / f"{n}.txt"
        _invoke(["graph-dump", "--n", str(n), "--out", str(path)])
        assert path.read_bytes() == edges, n


def test_rejected_atlas_writes_no_file(tmp_path, monkeypatch):
    # a profile of another n must fail before the SVG is opened
    other = thickness_profile(5)
    monkeypatch.setattr(thickness, "thickness_profile", lambda n: other)
    result = invoke(["atlas", "--n", "4", "--out", str(tmp_path)])
    assert isinstance(result.exception, ValueError)
    assert not (tmp_path / "atlas_n4_thickness.svg").exists()


def _traced_peak(args) -> int:
    """Peak bytes allocated by Python while one CLI call runs."""
    tracemalloc.start()
    try:
        _invoke(args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_edges_write_holds_less_than_half_the_file(tmp_path, monkeypatch):
    graph = build_graph(MEMORY_N)
    monkeypatch.setattr(transfer_graph, "build_graph", lambda n: graph)
    path = tmp_path / "edges.txt"
    peak = _traced_peak(["graph-dump", "--n", str(MEMORY_N), "--out", str(path)])
    assert path.read_bytes() == graph.dump_edges().encode()
    assert peak < path.stat().st_size / 2, (peak, path.stat().st_size)


def test_zones_atlas_write_holds_less_than_the_file(tmp_path, monkeypatch):
    graph = build_graph(MEMORY_N)
    profile = thickness_profile(MEMORY_N)
    monkeypatch.setattr(transfer_graph, "build_graph", lambda n: graph)
    monkeypatch.setattr(thickness, "thickness_profile", lambda n: profile)
    peak = _traced_peak(["atlas", "--n", str(MEMORY_N), "--mode", "zones", "--out", str(tmp_path)])
    size = (tmp_path / f"atlas_n{MEMORY_N}_zones.svg").stat().st_size
    assert size > 3_000_000
    assert peak < size, (peak, size)
