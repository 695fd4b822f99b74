import json
import tracemalloc

import pytest

from partition_atlas import (
    boundary_framework,
    build_graph,
    decompose,
    enumerate_partitions,
    exact_regime,
    first_occurrences,
    first_occurrences_csv,
    format_partition,
    induced_components,
    thickness_profile,
    threshold_zone,
    zone_json,
)
from partition_atlas import zones
from partition_atlas.partitions import canonical_index, parse_partition


def _named(graph, idxs):
    return {format_partition(graph.vertices[i]) for i in idxs}


@pytest.fixture(scope="module")
def small_profiles():
    data = {}
    for n in range(1, 13):
        g = build_graph(n)
        data[n] = (g, thickness_profile(n), boundary_framework(n))
    return data


def test_threshold_zone_n4(small_profiles):
    g, prof, _ = small_profiles[4]
    assert _named(g, threshold_zone(prof, 2)) == {"3,1", "2,2", "2,1,1"}
    assert threshold_zone(prof, 0) == frozenset(range(5))


def test_threshold_zone_r1(small_profiles):
    for n in range(2, 13):
        g, prof, _ = small_profiles[n]
        assert threshold_zone(prof, 1) == frozenset(range(len(g.vertices)))
    _, prof1, _ = small_profiles[1]
    assert threshold_zone(prof1, 1) == frozenset()


def test_threshold_zones_nested(small_profiles):
    for n in range(1, 13):
        _, prof, _ = small_profiles[n]
        for r in range(0, prof.tau_max + 1):
            assert threshold_zone(prof, r + 1) <= threshold_zone(prof, r)


def test_exact_regime_n4(small_profiles):
    g, prof, _ = small_profiles[4]
    assert _named(g, exact_regime(prof, 1)) == {"4", "1,1,1,1"}
    assert exact_regime(prof, 3) == frozenset()


def test_exact_regime_is_complement_of_triangular(small_profiles):
    for n in range(2, 13):
        g, prof, _ = small_profiles[n]
        everything = frozenset(range(len(g.vertices)))
        assert exact_regime(prof, 1) == everything - threshold_zone(prof, 2)


def test_exact_regime_top_equals_locus_n7(small_profiles):
    g, prof, _ = small_profiles[7]
    locus = {g.index_of(parse_partition(t)) for t in ("4,2,1", "3,3,1", "3,2,2", "3,2,1,1")}
    assert exact_regime(prof, 3) == frozenset(locus)
    assert prof.max_locus == tuple(sorted(locus))


def test_negative_r_rejected(small_profiles):
    _, prof, _ = small_profiles[4]
    with pytest.raises(ValueError):
        threshold_zone(prof, -1)
    with pytest.raises(ValueError):
        exact_regime(prof, -1)


def test_zone_of_a_profile_with_the_wrong_vertex_count_is_rejected(small_profiles):
    _, prof, _ = small_profiles[4]
    short = prof._replace(tau=prof.tau[:-1])
    with pytest.raises(ValueError):
        threshold_zone(short, 1)
    with pytest.raises(ValueError):
        exact_regime(short, 1)


def test_threshold_zone_shares_the_index_ints():
    # at n=36 the 17,975 members' own ints would cost as much as the set's
    # table; at n=30 the table is the same 0.5 MB and the ints only 0.15 MB
    n = 36
    prof = thickness_profile(n)
    index = canonical_index(n)  # warmed, so only the set itself is traced

    def held(make):
        tracemalloc.start()
        try:
            zone = make()
            return tracemalloc.get_traced_memory()[0], zone
        finally:
            tracemalloc.stop()

    shared, zone = held(lambda: threshold_zone(prof, 1))
    fresh, same = held(lambda: frozenset(v for v, t in enumerate(prof.tau) if t >= 1))
    assert zone == same
    ints = {id(v) for v in index.values()}
    assert all(id(v) in ints for v in zone)
    assert shared <= 0.6 * fresh, (shared, fresh)


def test_decomposition_is_a_record_of_its_five_fields(small_profiles):
    _, prof, fw = small_profiles[8]
    dec = decompose(fw, prof, 2)
    assert dec.attached
    flipped = dec._replace(attached=False)
    same = zones.ZoneDecomposition(8, 2, dec.threshold, dec.exact, False)
    assert flipped == same and hash(flipped) == hash(same)
    assert flipped != dec
    assert zones.ZoneDecomposition._fields == ("n", "r", "threshold", "exact", "attached")
    assert repr(flipped) == (
        f"ZoneDecomposition(n=8, r=2, threshold={dec.threshold!r}, "
        f"exact={dec.exact!r}, attached=False)"
    )
    # the split follows the one bit
    assert (flipped.shell, flipped.core) == (zones._EMPTY, dec.threshold)
    assert flipped.components == (zones.ZoneComponent(dec.threshold, False),)


def test_decompose_n4_r2(small_profiles):
    g, prof, fw = small_profiles[4]
    dec = decompose(fw, prof, 2)
    assert _named(g, dec.shell) == {"3,1", "2,2", "2,1,1"}
    assert dec.core == frozenset()
    assert len(dec.components) == 1
    assert dec.components[0].boundary_attached


def test_decompose_r1_everything(small_profiles):
    for n in range(2, 13):
        g, prof, fw = small_profiles[n]
        dec = decompose(fw, prof, 1)
        assert dec.shell == frozenset(range(len(g.vertices)))
        assert dec.core == frozenset()


def test_decompose_n1_r1_empty(small_profiles):
    g, prof, fw = small_profiles[1]
    dec = decompose(fw, prof, 1)
    assert dec.threshold == frozenset()
    assert dec.components == ()
    assert dec.shell == dec.core == frozenset()


def test_decompose_r0_defined(small_profiles):
    # order 0 is defined (the whole graph is one boundary-attached shell)
    # even though the pipeline only emits orders from 1 upward
    for n in (1, 5):
        g, prof, fw = small_profiles[n]
        dec = decompose(fw, prof, 0)
        assert dec.shell == frozenset(range(len(g.vertices)))
        assert dec.core == frozenset()


def test_decompose_n7_r3_core(small_profiles):
    # the order-3 component misses the framework; the flag is computed
    g, prof, fw = small_profiles[7]
    dec = decompose(fw, prof, 3)
    assert len(dec.components) == 1
    assert not dec.components[0].boundary_attached
    assert dec.core == frozenset(prof.max_locus)
    assert dec.shell == frozenset()


def _components_by_label_propagation(graph, members):
    # reference: every member repeatedly takes the smallest label among its
    # member neighbours until nothing changes; each label is then the
    # smallest member of its component
    label = {v: v for v in members}
    changed = True
    while changed:
        changed = False
        for v in label:
            for w in graph.adj[v]:
                if w in label and label[w] < label[v]:
                    label[v] = label[w]
                    changed = True
    groups = {}
    for v, root in label.items():
        groups.setdefault(root, set()).add(v)
    return [frozenset(groups[root]) for root in sorted(groups)]


def test_decompose_components_match_label_propagation(small_profiles):
    for n, (g, prof, fw) in small_profiles.items():
        for r in range(prof.tau_max + 2):
            dec = decompose(fw, prof, r)
            expected = _components_by_label_propagation(g, dec.threshold)
            assert [c.vertices for c in dec.components] == expected, (n, r)
            for c in dec.components:
                assert c.boundary_attached == bool(c.vertices & fw.all_indices), (n, r)
            # every threshold zone up to n=30 is one component; the exact
            # regimes split, which exercises the component order
            assert induced_components(g, dec.exact) == _components_by_label_propagation(
                g, dec.exact
            ), (n, r)


def _reference(graph, framework, tau, r):
    """Order r of a decomposition, walked afresh on the graph from the profile alone."""
    zone = {v for v, t in enumerate(tau) if t >= r}
    comps = induced_components(graph, zone)
    attached = [bool(c & framework.all_indices) for c in comps]
    return {
        "threshold": zone,
        "exact": {v for v, t in enumerate(tau) if t == r},
        "components": list(zip(comps, attached)),
        "shell": set().union(*[c for c, a in zip(comps, attached) if a]),
        "core": set().union(*[c for c, a in zip(comps, attached) if not a]),
    }


def _as_reference(dec):
    return {
        "threshold": dec.threshold,
        "exact": dec.exact,
        "components": [(c.vertices, c.boundary_attached) for c in dec.components],
        "shell": dec.shell,
        "core": dec.core,
    }


def test_sweep_matches_a_walk_per_order():
    # the closed form against the components of each zone, walked on G_n
    for n in range(1, 21):
        g, fw, prof = build_graph(n), boundary_framework(n), thickness_profile(n)
        # from order 0, all of G_n, to one past tau_max, where the zone is empty
        for r in range(prof.tau_max + 2):
            dec = decompose(fw, prof, r)
            assert (dec.n, dec.r) == (n, r)
            assert _as_reference(dec) == _reference(g, fw, prof.tau, r), (n, r)


def _distinct(parts):
    return len(set(parts))


def _first_row_transfers(parts):
    """Every partition made from ``parts`` by moving one unit from a lower row to row 1."""
    for i in range(1, len(parts)):
        # only the last row of a run may give a unit, or the rows fall out of order
        if i + 1 == len(parts) or parts[i + 1] < parts[i]:
            moved = (parts[0] + 1, *parts[1:i], parts[i] - 1, *parts[i + 1 :])
            yield moved if moved[-1] else moved[:-1]


def test_partitions_with_r_distinct_parts_induce_one_piece():
    # step (C) of the proof in the zones module, on the graph itself
    for m in range(1, 25):
        g = build_graph(m)
        # up to one past the most distinct parts, where D_r(m) is empty
        for r in range(1, max(map(_distinct, g.vertices)) + 2):
            members = [v for v, parts in enumerate(g.vertices) if _distinct(parts) >= r]
            assert len(induced_components(g, members)) == (1 if members else 0), (m, r)


def test_every_member_but_rho_has_a_first_row_transfer():
    # step (C)'s case split, checked on every partition of m <= 30: each
    # member of D_r(m) other than rho = (m - r(r-1)/2, r-1, ..., 1) has a
    # one-unit transfer into row 1 that keeps r distinct parts
    for m in range(1, 31):
        for parts in enumerate_partitions(m):
            best = max(map(_distinct, _first_row_transfers(parts)), default=0)
            for r in range(1, _distinct(parts) + 1):
                rho = (m - r * (r - 1) // 2, *range(r - 1, 0, -1))
                assert parts == rho or best >= r, (parts, r)


def test_zone_fields_share_one_set_per_distinct_vertex_set():
    seen = {"one component": 0, "all attached": 0, "none attached": 0}
    for n in range(1, 21):
        prof, fw = thickness_profile(n), boundary_framework(n)
        for dec in (decompose(fw, prof, r) for r in range(prof.tau_max, 0, -1)):
            for c in dec.components:
                if len(c.vertices) == len(dec.threshold):
                    assert c.vertices is dec.threshold, (n, dec.r)
                    seen["one component"] += 1
            attached = [c.boundary_attached for c in dec.components]
            if all(attached):
                assert dec.shell is dec.threshold and dec.core is zones._EMPTY, (n, dec.r)
                seen["all attached"] += 1
            elif not any(attached):
                assert dec.core is dec.threshold and dec.shell is zones._EMPTY, (n, dec.r)
                seen["none attached"] += 1
    # every case occurs, so none of the checks above is vacuous
    assert all(seen.values()), seen


def test_decompose_partitions_zone(small_profiles):
    for n in range(1, 13):
        g, prof, fw = small_profiles[n]
        for r in range(1, prof.tau_max + 1):
            dec = decompose(fw, prof, r)
            assert dec.shell | dec.core == dec.threshold
            assert not dec.shell & dec.core
            pieces = [c.vertices for c in dec.components]
            assert sum(len(p) for p in pieces) == len(dec.threshold)


def test_shells_nested(small_profiles):
    for n in range(2, 13):
        g, prof, fw = small_profiles[n]
        decs = {r: decompose(fw, prof, r) for r in range(1, prof.tau_max + 1)}
        for r in range(1, prof.tau_max):
            assert decs[r + 1].shell <= decs[r].shell
        for r in range(3, prof.tau_max + 1):
            assert decs[r].threshold <= decs[2].threshold


def test_zone_sets_conjugation_invariant(small_profiles):
    for n in range(2, 13):
        g, prof, fw = small_profiles[n]
        sigma = g.conjugation_permutation()
        for r in range(1, prof.tau_max + 1):
            dec = decompose(fw, prof, r)
            for vs in (dec.threshold, dec.exact, dec.shell, dec.core):
                assert all(sigma[i] in vs for i in vs)


def test_antennas_outside_triangular(small_profiles):
    for n in range(2, 13):
        g, prof, _ = small_profiles[n]
        zone2 = threshold_zone(prof, 2)
        assert g.index_of(g.vertices[0]) not in zone2
        assert g.index_of(g.vertices[-1]) not in zone2


def test_decompose_rejects_mismatched_inputs(small_profiles):
    _, prof4, fw4 = small_profiles[4]
    _, prof5, fw5 = small_profiles[5]
    with pytest.raises(ValueError):
        decompose(fw4, prof5, 1)
    with pytest.raises(ValueError):
        decompose(fw5, prof4, 1)
    # an order of n=11 against the framework of n=10, and a negative order
    _, prof11, fw11 = small_profiles[11]
    fw10 = small_profiles[10][2]
    with pytest.raises(ValueError, match="same n"):
        decompose(fw10, prof11, 2)
    with pytest.raises(ValueError, match="nonnegative"):
        decompose(fw11, prof11, -1)


def test_first_occurrences_small_ranges(small_profiles):
    tau_maxes = [small_profiles[n][1].tau_max for n in range(1, 13)]
    assert first_occurrences(tau_maxes[:6]) == {2: 4}
    assert first_occurrences(tau_maxes[:3]) == {}
    assert first_occurrences([]) == {}
    entries = first_occurrences(tau_maxes)
    assert entries == {2: 4, 3: 7, 4: 11}
    values = list(entries.values())
    assert values == sorted(set(values))


def test_first_occurrences_csv(small_profiles):
    tau_maxes = [small_profiles[n][1].tau_max for n in range(1, 8)]
    assert first_occurrences_csv(first_occurrences(tau_maxes), 7) == "r,n_r\n2,4\n3,7\n"
    text = first_occurrences_csv(first_occurrences(tau_maxes[:3]), 3)
    lines = text.strip().split("\n")
    assert lines[0] == "r,n_r"
    assert lines[1].startswith("#")
    assert len(lines) == 2


def test_zone_json_n4(small_profiles):
    g, prof, fw = small_profiles[4]
    doc = json.loads(zone_json(decompose(fw, prof, 2)))
    assert doc["n"] == 4
    assert doc["r"] == 2
    assert doc["threshold"] == ["3,1", "2,2", "2,1,1"]
    assert doc["exact"] == ["3,1", "2,2", "2,1,1"]
    assert doc["shell"] == ["3,1", "2,2", "2,1,1"]
    assert doc["core"] == []
    assert doc["components"] == [
        {"vertices": ["3,1", "2,2", "2,1,1"], "boundary_attached": True}
    ]


def _zone_doc(graph, dec):
    """The document :func:`zone_json` writes, named through ``graph.vertices``."""

    def named(idxs):
        return [format_partition(graph.vertices[i]) for i in sorted(idxs)]

    return {
        "n": dec.n,
        "r": dec.r,
        "threshold": named(dec.threshold),
        "exact": named(dec.exact),
        "shell": named(dec.shell),
        "core": named(dec.core),
        "components": [
            {"vertices": named(c.vertices), "boundary_attached": c.boundary_attached}
            for c in dec.components
        ],
    }


def test_zone_json_matches_json_dumps(small_profiles):
    # zone_json writes its text directly; the json module is the reference
    seen = set()
    for n, (g, prof, fw) in small_profiles.items():
        for r in range(prof.tau_max + 2):
            dec = decompose(fw, prof, r)
            doc = _zone_doc(g, dec)
            assert zone_json(dec) == json.dumps(doc, indent=2) + "\n", (n, r)
            seen.update(key for key in ("exact", "core", "components") if not doc[key])
            seen.update(c["boundary_attached"] for c in doc["components"])
    # the layouts of empty lists and of both flags were all compared
    assert seen == {"exact", "core", "components", True, False}
