import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_atlas import (
    TransferGraph,
    boundary_framework,
    build_graph,
    decompose,
    exact_regime,
    first_occurrences,
    first_occurrences_csv,
    format_partition,
    induced_components,
    thickness_profile,
    threshold_zone,
    zone_json,
    zone_sweep,
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


def test_decompose_n4_r2(small_profiles):
    g, prof, fw = small_profiles[4]
    dec = decompose(g, fw, prof, 2)
    assert _named(g, dec.shell) == {"3,1", "2,2", "2,1,1"}
    assert dec.core == frozenset()
    assert len(dec.components) == 1
    assert dec.components[0].boundary_attached


def test_decompose_r1_everything(small_profiles):
    for n in range(2, 13):
        g, prof, fw = small_profiles[n]
        dec = decompose(g, fw, prof, 1)
        assert dec.shell == frozenset(range(len(g.vertices)))
        assert dec.core == frozenset()


def test_decompose_n1_r1_empty(small_profiles):
    g, prof, fw = small_profiles[1]
    dec = decompose(g, fw, prof, 1)
    assert dec.threshold == frozenset()
    assert dec.components == ()
    assert dec.shell == dec.core == frozenset()


def test_decompose_r0_defined(small_profiles):
    # order 0 is defined (the whole graph is one boundary-attached shell)
    # even though the pipeline only emits orders from 1 upward
    for n in (1, 5):
        g, prof, fw = small_profiles[n]
        dec = decompose(g, fw, prof, 0)
        assert dec.shell == frozenset(range(len(g.vertices)))
        assert dec.core == frozenset()


def test_decompose_n7_r3_core(small_profiles):
    # the order-3 component misses the framework; the flag is computed
    g, prof, fw = small_profiles[7]
    dec = decompose(g, fw, prof, 3)
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
            dec = decompose(g, fw, prof, r)
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
    """Order r of a decomposition, walked afresh from the profile alone."""
    zone = {v for v, t in enumerate(tau) if t >= r}
    comps = _components_by_label_propagation(graph, zone)
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


@st.composite
def _relabelled(draw):
    # G_n with its real thickness values, or with random ones: then its
    # zones split into several components, which merge as the sweep goes
    # down, and some orders are skipped altogether
    n = draw(st.integers(1, 12))
    g = build_graph(n)
    prof = thickness_profile(n)
    if draw(st.booleans()):
        tau = tuple(draw(st.lists(st.integers(0, 5), min_size=len(g.adj), max_size=len(g.adj))))
        prof = prof._replace(tau=tau, tau_max=max(tau))
    return g, boundary_framework(n), prof


@settings(deadline=None)
@given(_relabelled())
def test_sweep_matches_a_walk_per_order(case):
    g, fw, prof = case
    swept = {dec.r: dec for dec in zone_sweep(g, fw, prof)}
    assert list(swept) == list(range(prof.tau_max, 0, -1))
    # order 0 is one more step down from the sweep's last order
    swept[0] = decompose(g, fw, prof, 0, swept.get(1))
    top = prof.tau_max + 1
    decs = {r: decompose(g, fw, prof, r) for r in range(top + 1)}
    for r, dec in decs.items():
        assert (dec.n, dec.r) == (g.n, r)
        assert _as_reference(dec) == _reference(g, fw, prof.tau, r), r
        if r in swept:
            assert swept[r] == dec, r
        # a zone grows from any higher order to the same decomposition
        for k in range(r + 1, top + 1):
            assert decompose(g, fw, prof, r, decs[k]) == dec, (r, k)


def test_sweep_merges_components():
    # on a path 0-1-2-3-4 of G_5's vertices, thickness 2 on the ends and
    # the middle and 1 between them gives three order-2 pieces that one
    # order-1 component joins; vertex 6 stays apart, and only vertex 0 is
    # put in the framework
    g5 = build_graph(5)
    rows = ((1,), (0, 2), (1, 3), (2, 4), (3,), (), ())
    path = TransferGraph(5, g5.vertices, rows, g5.parts_index)
    fw = boundary_framework(5)._replace(all_indices=frozenset({0}))
    prof = thickness_profile(5)._replace(tau=(2, 1, 2, 1, 2, 0, 2), tau_max=2)
    top, low = zone_sweep(path, fw, prof)
    assert [sorted(c.vertices) for c in top.components] == [[0], [2], [4], [6]]
    assert [c.boundary_attached for c in top.components] == [True, False, False, False]
    assert top.shell == frozenset({0})
    assert top.core == frozenset({2, 4, 6})
    assert [sorted(c.vertices) for c in low.components] == [[0, 1, 2, 3, 4], [6]]
    assert [c.boundary_attached for c in low.components] == [True, False]
    # a component that gains nothing is carried over as it is
    assert low.components[1] is top.components[3]
    assert low.threshold == frozenset({0, 1, 2, 3, 4, 6})
    assert low.exact == frozenset({1, 3})
    assert low.shell == frozenset({0, 1, 2, 3, 4})
    assert low.core == frozenset({6})


def test_zone_fields_share_one_set_per_distinct_vertex_set():
    seen = {"one component": 0, "all attached": 0, "none attached": 0}
    for n in range(1, 21):
        g, prof, fw = build_graph(n), thickness_profile(n), boundary_framework(n)
        for dec in zone_sweep(g, fw, prof):
            if dec.r == prof.tau_max:
                assert dec.threshold is dec.exact, (n, dec.r)
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


def test_a_zone_with_attached_and_free_components_builds_its_shell_and_core():
    # thickness 2 on the closed neighborhood of one framework vertex and of
    # one vertex whose neighborhood misses the framework, 1 elsewhere: T>=2
    # has an attached component and a free one, a split that real
    # thickness values up to n=36 never make
    n = 12
    g, fw = build_graph(n), boundary_framework(n)
    ball = [{v, *g.adj[v]} for v in range(len(g.adj))]
    a = min(fw.all_indices - set(fw.antennas))
    near_a = set().union(*[ball[v] for v in ball[a]])
    b = next(v for v in range(len(g.adj)) if not ball[v] & (fw.all_indices | near_a))
    tau = tuple(2 if v in ball[a] | ball[b] else 1 for v in range(len(g.adj)))
    prof = thickness_profile(n)._replace(tau=tau, tau_max=2)
    top, low = zone_sweep(g, fw, prof)
    reference = [(c, bool(c & fw.all_indices)) for c in induced_components(g, top.threshold)]
    assert [attached for _, attached in reference] == [True, False]
    assert [(c.vertices, c.boundary_attached) for c in top.components] == reference
    assert top.shell == reference[0][0] and top.core == reference[1][0]
    assert top.shell | top.core == top.threshold and not top.shell & top.core
    # order 1 is all of G_n again: one attached component, the zone itself
    assert low.shell is low.threshold is low.components[0].vertices
    assert low.core is zones._EMPTY


def test_decompose_steps_from_the_order_above(small_profiles):
    g, prof, fw = small_profiles[11]
    above = None
    for r in range(prof.tau_max, 0, -1):
        above = decompose(g, fw, prof, r, above)
        assert above == decompose(g, fw, prof, r)
    assert decompose(g, fw, prof, 2, decompose(g, fw, prof, 4)) == decompose(g, fw, prof, 2)
    for same_or_lower in (2, 1):
        with pytest.raises(ValueError, match="order above 2"):
            decompose(g, fw, prof, 2, decompose(g, fw, prof, same_or_lower))
    g10, prof10, fw10 = small_profiles[10]
    with pytest.raises(ValueError):
        decompose(g10, fw10, prof10, 2, decompose(g, fw, prof, 3))
    with pytest.raises(ValueError):
        decompose(g, fw, prof, -1)


def test_decompose_partitions_zone(small_profiles):
    for n in range(1, 13):
        g, prof, fw = small_profiles[n]
        for r in range(1, prof.tau_max + 1):
            dec = decompose(g, fw, prof, r)
            assert dec.shell | dec.core == dec.threshold
            assert not dec.shell & dec.core
            pieces = [c.vertices for c in dec.components]
            assert sum(len(p) for p in pieces) == len(dec.threshold)


def test_shells_nested(small_profiles):
    for n in range(2, 13):
        g, prof, fw = small_profiles[n]
        decs = {r: decompose(g, fw, prof, r) for r in range(1, prof.tau_max + 1)}
        for r in range(1, prof.tau_max):
            assert decs[r + 1].shell <= decs[r].shell
        for r in range(3, prof.tau_max + 1):
            assert decs[r].threshold <= decs[2].threshold


def test_zone_sets_conjugation_invariant(small_profiles):
    for n in range(2, 13):
        g, prof, fw = small_profiles[n]
        sigma = g.conjugation_permutation()
        for r in range(1, prof.tau_max + 1):
            dec = decompose(g, fw, prof, r)
            for vs in (dec.threshold, dec.exact, dec.shell, dec.core):
                assert all(sigma[i] in vs for i in vs)


def test_antennas_outside_triangular(small_profiles):
    for n in range(2, 13):
        g, prof, _ = small_profiles[n]
        zone2 = threshold_zone(prof, 2)
        assert g.index_of(g.vertices[0]) not in zone2
        assert g.index_of(g.vertices[-1]) not in zone2


def test_decompose_rejects_mismatched_inputs(small_profiles):
    g4, prof4, fw4 = small_profiles[4]
    _, prof5, fw5 = small_profiles[5]
    with pytest.raises(ValueError):
        decompose(g4, fw4, prof5, 1)
    with pytest.raises(ValueError):
        decompose(g4, fw5, prof4, 1)


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
    doc = json.loads(zone_json(decompose(g, fw, prof, 2)))
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
            dec = decompose(g, fw, prof, r)
            doc = _zone_doc(g, dec)
            assert zone_json(dec) == json.dumps(doc, indent=2) + "\n", (n, r)
            seen.update(key for key in ("exact", "core", "components") if not doc[key])
            seen.update(c["boundary_attached"] for c in doc["components"])
    # the layouts of empty lists and of both flags were all compared
    assert seen == {"exact", "core", "components", True, False}
