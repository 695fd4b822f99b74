import gc
import json
import sys
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_atlas import (
    TransferGraph,
    brute_force_local_dimension,
    build_graph,
    profile_csv,
    profile_from_json,
    profile_json,
    thickness_profile,
)
from partition_atlas import partitions, thickness
from partition_atlas.partitions import (
    _conjugate,
    enumerate_partitions,
    format_partition,
    parse_partition,
    partition_names,
)
from partition_atlas.thickness import (
    _corner_thickness,
    _searched_profile,
    clique_search_profile,
)
from partition_atlas.verify import profile_conjugation_ok


def test_profile_n4_frozen():
    prof = thickness_profile(4)
    by_name = dict(zip(partition_names(4), prof.tau))
    assert by_name == {"4": 1, "3,1": 2, "2,2": 2, "2,1,1": 2, "1,1,1,1": 1}
    assert prof.tau_max == 2
    assert len(prof.max_locus) == 3


def test_isolated_vertex():
    g = build_graph(1)
    assert clique_search_profile(g) == (0,)
    assert brute_force_local_dimension(g, (1,)) == 0
    assert thickness_profile(1).tau == (0,)


@pytest.mark.parametrize("n", range(2, 13))
def test_antennas_have_thickness_one(n):
    g = build_graph(n)
    tau = clique_search_profile(g)
    assert tau[g.index_of((n,))] == 1
    assert tau[g.index_of((1,) * n)] == 1


def test_table_values_n7():
    g = build_graph(7)
    tau = clique_search_profile(g)
    assert tau[g.index_of(parse_partition("4,2,1"))] == 3
    assert tau[g.index_of(parse_partition("3,3,1"))] == 3


def test_brute_force_examples():
    assert brute_force_local_dimension(build_graph(4), (3, 1)) == 2
    assert brute_force_local_dimension(build_graph(2), (2,)) == 1
    assert brute_force_local_dimension(build_graph(11), parse_partition("5,3,2,1")) == 4


@pytest.mark.parametrize("n", range(1, 9))
def test_oracle_agreement_small(n):
    g = build_graph(n)
    prof = thickness_profile(n)
    for i, p in enumerate(g.vertices):
        assert brute_force_local_dimension(g, p) == prof.tau[i]


@pytest.mark.parametrize("n", range(1, 11))
def test_thickness_bounded_by_degree(n):
    g = build_graph(n)
    prof = thickness_profile(n)
    for i, row in enumerate(g.adj):
        assert prof.tau[i] <= len(row)


@pytest.mark.parametrize("n", range(1, 11))
def test_thickness_conjugation_invariant(n):
    g = build_graph(n)
    prof = thickness_profile(n)
    for i, p in enumerate(g.vertices):
        assert prof.tau[i] == prof.tau[g.index_of(_conjugate(p))]


def test_conjugation_check_catches_corruption():
    g = build_graph(4)
    prof = thickness_profile(4)
    assert profile_conjugation_ok(g, prof)
    # (4) and (1,1,1,1) are conjugate; raising one value breaks the symmetry
    corrupted = list(prof.tau)
    corrupted[g.index_of((4,))] = 2
    bad = prof._replace(tau=tuple(corrupted))
    assert not profile_conjugation_ok(g, bad)


def test_max_thickness_locus_examples():
    parts2 = enumerate_partitions(2)
    assert [parts2[i] for i in thickness_profile(2).max_locus] == [(2,), (1, 1)]
    parts4 = enumerate_partitions(4)
    assert [parts4[i] for i in thickness_profile(4).max_locus] == [
        (3, 1),
        (2, 2),
        (2, 1, 1),
    ]


def test_local_dimension_rejects_foreign_vertex():
    with pytest.raises(ValueError):
        brute_force_local_dimension(build_graph(4), (5,))


@pytest.mark.parametrize("n", range(1, 21))
def test_profile_matches_clique_search(n):
    g = build_graph(n)
    assert clique_search_profile(g) == thickness_profile(n).tau


def test_clique_search_leaves_no_garbage():
    g = build_graph(12)
    sigma = g.conjugation_permutation()
    gc.collect()
    gc.disable()
    try:
        assert clique_search_profile(g) == thickness_profile(12).tau
        assert clique_search_profile(g, sigma) == thickness_profile(12).tau
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_oracle_leaves_no_garbage():
    g = build_graph(12)
    tau = thickness_profile(12).tau
    gc.collect()
    gc.disable()
    try:
        assert [brute_force_local_dimension(g, p) for p in g.vertices] == list(tau)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _with_adjacency(graph, edges):
    """``graph`` with its rows replaced by the symmetric, loop-free ``edges``."""
    rows = [set() for _ in graph.adj]
    for a, b in edges:
        if a != b:
            rows[a].add(b)
            rows[b].add(a)
    adj = tuple(tuple(sorted(row)) for row in rows)
    return TransferGraph(graph.n, graph.vertices, adj)


@st.composite
def _random_adjacency(draw):
    # any symmetric adjacency on the vertices of some G_n, n <= 8 (p(8) = 22),
    # sparse enough that the unpruned oracle stays fast
    g = build_graph(draw(st.integers(1, 8)))
    k = len(g.adj)
    pair = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1))
    return _with_adjacency(g, draw(st.sets(pair, max_size=3 * k)))


@settings(deadline=None)
@given(_random_adjacency())
def test_clique_search_matches_oracle_on_any_adjacency(g):
    # the search reads only graph.adj, so it holds on graphs the corner
    # formula knows nothing about
    oracle = tuple(brute_force_local_dimension(g, p) for p in g.vertices)
    assert clique_search_profile(g) == oracle


@st.composite
def _conjugation_closed_adjacency(draw):
    # a random adjacency on the vertices of some G_n, n <= 8, that holds
    # the conjugate of each of its edges, so conjugation is an automorphism
    g = build_graph(draw(st.integers(1, 8)))
    sigma = g.conjugation_permutation()
    k = len(g.adj)
    pair = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1))
    edges = draw(st.sets(pair, max_size=2 * k))
    return _with_adjacency(g, edges | {(sigma[a], sigma[b]) for a, b in edges})


@settings(deadline=None)
@given(_conjugation_closed_adjacency())
def test_clique_search_from_one_of_each_conjugate_pair_matches_oracle(g):
    oracle = tuple(brute_force_local_dimension(g, p) for p in g.vertices)
    assert clique_search_profile(g, g.conjugation_permutation()) == oracle
    assert clique_search_profile(g) == oracle


@pytest.mark.parametrize("conjugation", [False, True], ids=["plain", "conjugation"])
def test_clique_search_starts_once_per_conjugate_pair(monkeypatch, conjugation):
    # one local search per start m with a neighbour above m; with
    # conjugation, only the starts m <= sigma(m). p(20) = 627, and 7
    # partitions of 20 are self-conjugate, so (627 + 7) / 2 = 317 starts
    # remain; the last vertex, alone, has no neighbour above it
    g = build_graph(20)
    sigma = g.conjugation_permutation()
    calls = []
    real = thickness._local_rows

    def counted(adj, members, bit):
        calls.append(members)
        return real(adj, members, bit)

    monkeypatch.setattr(thickness, "_local_rows", counted)
    searched = clique_search_profile(g, sigma if conjugation else None)
    assert searched == thickness_profile(20).tau
    starts = [m for m, row in enumerate(g.adj) if row[-1] > m]
    if conjugation:
        starts = [m for m in starts if m <= sigma[m]]
    assert len(calls) == len(starts)
    assert len(starts) == (317 if conjugation else 626)


def test_clique_search_solves_each_distinct_local_problem_once(monkeypatch):
    # the 317 starts of G_20 with conjugation pose 32 distinct local
    # problems: N+(m) relabelled 0, 1, ... in order, edges and all
    g = build_graph(20)
    sigma = g.conjugation_permutation()
    problems = set()
    for m, row in enumerate(g.adj):
        above = row[bisect_right(row, m) :]
        if above and m <= sigma[m]:
            local = {u: i for i, u in enumerate(above)}
            edges = {(local[u], local[w]) for u in above for w in g.adj[u] if w in local}
            problems.add((len(above), frozenset(edges)))
    roots = []
    real = thickness._maximal_cliques

    def counted(rows, clique, p, x, out):
        if clique == 0:
            roots.append(len(rows))
        return real(rows, clique, p, x, out)

    monkeypatch.setattr(thickness, "_maximal_cliques", counted)
    assert clique_search_profile(g, sigma) == thickness_profile(20).tau
    assert len(roots) == len(problems) == 32


@st.composite
def _two_relabelled_copies(draw):
    # a random symmetric adjacency on k vertices, laid twice onto the
    # vertices of some G_n, each copy in increasing order at positions
    # drawn at random: a start of the second copy poses the same local
    # problem as its twin in the first, on other global vertices. When
    # p(n) is odd, the vertex left over is isolated
    g = build_graph(draw(st.integers(2, 8)))
    k = len(g.adj) // 2
    pair = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1))
    edges = draw(st.sets(pair, max_size=3 * k))
    order = draw(st.permutations(range(len(g.adj))))
    first, second = sorted(order[:k]), sorted(order[k : 2 * k])
    copies = {(first[a], first[b]) for a, b in edges} | {(second[a], second[b]) for a, b in edges}
    return _with_adjacency(g, copies)


@settings(deadline=None)
@given(_two_relabelled_copies())
def test_clique_search_credits_a_solved_problem_to_each_start_of_it(g):
    oracle = tuple(brute_force_local_dimension(g, p) for p in g.vertices)
    assert clique_search_profile(g) == oracle


@pytest.mark.parametrize("n", [9, 20])
def test_clique_search_reads_each_edge_from_its_lower_end(n):
    # with every entry below the diagonal deleted, each edge is still in
    # the row of its lower end, and the search reads nothing else; the
    # verify check "adjacency structure" is what rejects such rows
    g = build_graph(n)
    upper = tuple(row[bisect_right(row, v) :] for v, row in enumerate(g.adj))
    tau = thickness_profile(n).tau
    assert clique_search_profile(TransferGraph(n, g.vertices, upper)) == tau
    assert _searched_profile(upper, g.conjugation_permutation()) == tau


def _swapped(k, a, b):
    perm = list(range(k))
    perm[a], perm[b] = b, a
    return perm


@pytest.mark.parametrize(
    "perm_of, message",
    [
        # the 3-cycle 5 -> 9 -> 10 -> 5 is no involution
        (
            lambda k: [{5: 9, 9: 10, 10: 5}.get(v, v) for v in range(k)],
            "not an involutive automorphism of G_8 at vertex 5",
        ),
        # (4,2,1,1) has 8 neighbours and (4,1,1,1,1) 4; the first row that
        # the swap does not map onto its image's row is that of (5,2,1)
        (lambda k: _swapped(k, 10, 11), "not an involutive automorphism of G_8 at vertex 5"),
        (lambda k: list(range(k - 1)), "permutation of G_8 has 21 entries, not 22"),
        (lambda k: [*range(k - 1), k], "permutation of G_8 sends vertex 21 outside 0..21"),
        (lambda k: [-1, *range(1, k)], "permutation of G_8 sends vertex 0 outside 0..21"),
    ],
    ids=["no-involution", "no-automorphism", "short", "too-large", "negative"],
)
def test_clique_search_rejects_a_false_automorphism(perm_of, message):
    g = build_graph(8)
    with pytest.raises(ValueError) as info:
        clique_search_profile(g, perm_of(len(g.adj)))
    assert str(info.value) == message


def test_clique_search_on_a_dense_adjacency():
    # the complete graph on p(7) = 15 vertices: one clique through everything
    g = build_graph(7)
    k = len(g.adj)
    complete = _with_adjacency(g, [(a, b) for a in range(k) for b in range(a)])
    assert clique_search_profile(complete) == (k - 1,) * k
    assert brute_force_local_dimension(complete, g.vertices[3]) == k - 1


def test_clique_search_terminates_on_a_self_loop():
    # a vertex listed in its own row is masked out of every local row, so
    # the search neither recurses forever nor counts the loop as a member
    g = build_graph(9)
    tau = thickness_profile(9).tau
    rows = tuple(tuple(sorted({*row, v})) for v, row in enumerate(g.adj))
    looped = TransferGraph(g.n, g.vertices, rows)
    assert clique_search_profile(looped) == tau
    for v, p in enumerate(g.vertices):
        # p lies in its own neighborhood now, next to all of it, so it
        # joins every clique there once
        assert brute_force_local_dimension(looped, p) == tau[v] + 1


def _sorted_parts(values):
    return tuple(sorted((x for x in values if x > 0), reverse=True))


def _lower_covers(parts):
    """Every partition one box below ``parts``: one unit off any part, re-sorted."""
    return {_sorted_parts(parts[:i] + (parts[i] - 1,) + parts[i + 1 :]) for i in range(len(parts))}


def _upper_covers(parts):
    """Every partition one box above ``parts``: one unit on any part, or a new part 1."""
    grown = (parts[:j] + (parts[j] + 1,) + parts[j + 1 :] for j in range(len(parts)))
    return {*map(_sorted_parts, grown), (*parts, 1)}


def _contains(big, small):
    return len(big) >= len(small) and all(a >= b for a, b in zip(big, small))


def _clique_shapes(n):
    """Every cover family of a mu of n - 1 and lower-cover family of a lam of n + 1."""
    verts = enumerate_partitions(n)
    below = enumerate_partitions(n - 1) if n > 1 else [()]
    above = enumerate_partitions(n + 1)
    shapes = {frozenset(q for q in verts if _contains(q, mu)) for mu in below}
    shapes |= {frozenset(q for q in verts if _contains(lam, q)) for lam in above}
    return shapes


def test_witness_clique_is_valid():
    """The largest cover family through p is a clique of tau(p) + 1 members."""
    for n in range(1, 13):
        g = build_graph(n)
        prof = thickness_profile(n)
        shapes = _clique_shapes(n)
        for i, p in enumerate(g.vertices):
            families = [_upper_covers(mu) for mu in _lower_covers(p)]
            for family in families:
                assert p in family
                idxs = [g.index_of(t) for t in family]
                for a in idxs:
                    for b in idxs:
                        if a != b:
                            assert b in g.adj[a]
                assert frozenset(family) in shapes, (n, p)
            assert max(len(f) for f in families) == prof.tau[i] + 1, (n, p)


def test_witness_for_isolated_vertex():
    # (1) lies one box above the empty partition only, and is its one cover
    assert _lower_covers((1,)) == {()}
    assert _upper_covers(()) == {(1,)}
    assert clique_search_profile(build_graph(1)) == (len(_upper_covers(())) - 1,)


@given(st.lists(st.integers(1, 60), min_size=1, max_size=60))
def test_corner_thickness_conjugation_invariant(xs):
    total = 0
    parts = []
    for x in sorted(xs, reverse=True):
        if total + x <= 60:
            parts.append(x)
            total += x
    p = tuple(parts)
    assert _corner_thickness(p) == _corner_thickness(_conjugate(p))


def _corner_thickness_by_values(parts):
    # reference: the counting rule read value by value over the set of parts,
    # d(mu) = d(p) - [v occurs once] + [v > 1 and v - 1 is no part]
    values = set(parts)
    d = len(values)
    return max(d - (parts.count(v) == 1) + (v > 1 and v - 1 not in values) for v in values)


@pytest.mark.parametrize("n", range(1, 26))
def test_corner_thickness_matches_value_by_value_rule(n):
    for p in enumerate_partitions(n):
        assert _corner_thickness(p) == _corner_thickness_by_values(p), p


@pytest.mark.parametrize("n", [1, 2, 7, 20])
def test_partition_names_match_format(n):
    names = partition_names(n)
    verts = enumerate_partitions(n)
    assert len(names) == len(verts)
    for i, p in enumerate(verts):
        assert names[i] == format_partition(p)


def test_profile_csv_n4():
    text = profile_csv(thickness_profile(4))
    assert text == 'partition,tau\n4,1\n"3,1",2\n"2,2",2\n"2,1,1",2\n"1,1,1,1",1\n'


def test_profile_csv_parses_back():
    import csv
    import io

    prof = thickness_profile(5)
    rows = list(csv.reader(io.StringIO(profile_csv(prof))))
    assert rows[0] == ["partition", "tau"]
    assert [r[0] for r in rows[1:]] == list(map(format_partition, enumerate_partitions(5)))
    assert [int(r[1]) for r in rows[1:]] == list(prof.tau)


@pytest.mark.parametrize("n", range(1, 13))
def test_profile_csv_matches_csv_writer(n):
    # profile_csv writes its text directly; the csv module is the reference
    import csv
    import io

    prof = thickness_profile(n)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["partition", "tau"])
    writer.writerows(zip(map(format_partition, enumerate_partitions(n)), prof.tau))
    assert profile_csv(prof) == buffer.getvalue()


def test_profile_json_roundtrip():
    prof = thickness_profile(6)
    doc = json.loads(profile_json(prof))
    assert doc["n"] == 6
    assert doc["tau_max"] == prof.tau_max
    assert list(doc["tau"]) == list(map(format_partition, enumerate_partitions(6)))
    assert profile_from_json(profile_json(prof)) == prof


@pytest.mark.parametrize("n", range(1, 13))
def test_profile_json_matches_json_dumps(n):
    # profile_json writes its text directly; the json module is the reference
    prof = thickness_profile(n)
    names = list(map(format_partition, enumerate_partitions(n)))
    doc = {
        "n": n,
        "tau_max": prof.tau_max,
        "max_locus": [names[i] for i in prof.max_locus],
        "tau": dict(zip(names, prof.tau)),
    }
    assert profile_json(prof) == json.dumps(doc, indent=2) + "\n"
    # at n = 1 and 2, tau_max = n - 1 is the top of the range the reader allows
    assert profile_from_json(profile_json(prof)) == prof


def test_profile_from_json_rejects_inconsistency():
    doc = json.loads(profile_json(thickness_profile(4)))
    doc["tau_max"] = 9
    with pytest.raises(ValueError):
        profile_from_json(json.dumps(doc))


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


_DOC4 = json.loads(profile_json(thickness_profile(4)))


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {"n": 3},
        [],
        "profile",
        _without(_DOC4, "max_locus"),
        _without(_DOC4, "tau_max"),
        pytest.param(_without(_DOC4, "tau"), id="no-tau"),
        {**_DOC4, "n": "4"},
        {**_DOC4, "n": True},
        pytest.param({**_DOC4, "tau": ["4", "3,1"]}, id="tau-not-a-map"),
        {**_DOC4, "max_locus": "3,1"},
        {**_DOC4, "max_locus": [31]},
        {**_DOC4, "max_locus": ["5"]},
        {**_DOC4, "tau_max": 2.0},
        pytest.param({**_DOC4, "tau": {**_DOC4["tau"], "3,1": "2"}}, id="tau-value-string"),
        pytest.param(
            {**_DOC4, "tau": {**_without(_DOC4["tau"], "2,2"), "9": 2}}, id="tau-foreign-vertex"
        ),
        {**_DOC4, "n": 80},
        {**_DOC4, "n": 5},
        {**_DOC4, "n": 0},
        {**_DOC4, "n": -1},
    ],
    # a case whose first 40 characters repeat another's has an explicit id
    ids=lambda doc: json.dumps(doc)[:40],
)
def test_profile_from_json_rejects_malformed(doc, monkeypatch):
    # a document is rejected before anything of size p(n) is built for a
    # large n (p(80) is about 15.8 million); every table of the partitions
    # of n comes from the one enumeration, so it is guarded in every module
    # that holds it
    original = partitions.enumerate_partitions

    def guarded(n):
        assert n <= 30, f"enumerated the partitions of {n}"
        return original(n)

    holders = [m for name, m in sys.modules.items() if name.split(".")[0] == "partition_atlas"]
    for module in holders:
        if getattr(module, "enumerate_partitions", None) is original:
            monkeypatch.setattr(module, "enumerate_partitions", guarded)
    with pytest.raises(ValueError):
        profile_from_json(json.dumps(doc))


# consistent in every other way: a thickness below 0 at n=2, above n - 1 at n=1
IMPOSSIBLE_THICKNESS = [
    {"n": 2, "tau_max": 1, "max_locus": ["2"], "tau": {"2": 1, "1,1": -7}},
    {"n": 1, "tau_max": 99, "max_locus": ["1"], "tau": {"1": 99}},
]


@pytest.mark.parametrize("doc", IMPOSSIBLE_THICKNESS, ids=["n2-negative", "n1-above-n-1"])
def test_profile_from_json_rejects_thickness_out_of_range(doc):
    # every value is compared with the corner formula, which names the vertex
    n = doc["n"]
    name, t = next((k, v) for k, v in doc["tau"].items() if not 0 <= v < n)
    with pytest.raises(ValueError, match=rf"n={n} gives {name} thickness {t}, not "):
        profile_from_json(json.dumps(doc))


def _stale_doc7():
    # n=7's profile with tau 3 moved from 4,2,1 to the antenna 7, and
    # tau_max and the locus restated to match: consistent, in 0..n-1, wrong
    doc = json.loads(profile_json(thickness_profile(7)))
    doc["tau"]["4,2,1"], doc["tau"]["7"] = doc["tau"]["7"], doc["tau"]["4,2,1"]
    doc["max_locus"] = [name for name, t in doc["tau"].items() if t == doc["tau_max"]]
    return doc


def test_profile_from_json_rejects_stale_values():
    doc = _stale_doc7()
    assert doc["max_locus"][0] == "7" and "4,2,1" not in doc["max_locus"]
    with pytest.raises(ValueError, match="profile for n=7 gives 7 thickness 3, not 1"):
        profile_from_json(json.dumps(doc))


@pytest.mark.parametrize("value", [True, 1.0], ids=["bool", "float"])
def test_profile_from_json_rejects_values_equal_to_an_int(value):
    # True and 1.0 compare equal to the antenna's thickness 1, and are still refused
    doc = json.loads(profile_json(thickness_profile(4)))
    doc["tau"]["4"] = value
    with pytest.raises(ValueError, match="n=4 has a non-integer thickness"):
        profile_from_json(json.dumps(doc))


def test_profile_from_json_accepts_the_locus_in_any_order():
    prof = thickness_profile(11)
    doc = json.loads(profile_json(prof))
    doc["max_locus"].reverse()
    assert profile_from_json(json.dumps(doc)) == prof
    doc["max_locus"].append(doc["max_locus"][0])
    with pytest.raises(ValueError, match="inconsistent profile document for n=11"):
        profile_from_json(json.dumps(doc))


def test_profile_from_json_rejects_invalid_json():
    with pytest.raises(ValueError):
        profile_from_json("{not json")
