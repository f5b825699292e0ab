import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquedyn import (
    CliqueLimitError,
    Graph,
    Limits,
    are_isomorphic,
    bits,
    clique_graph,
    complement,
    complete_graph,
    cycle_graph,
    decode,
    empty_graph,
    enumerate_regular,
    join,
    maximal_cliques,
    mask_of,
    octahedron,
    relabel,
)
from cliquedyn import behavior, cliques
from cliquedyn.census import ALL_CHECKS, run_census
from cliquedyn.regular import RegularGenSpec

from oracles import (
    bron_kerbosch_reference,
    octahedron_pairs_reference,
    octahedron_pairs_two_pass_reference,
)
from strategies import graphs


def assert_induces_octahedron(g: Graph, pairs, t: int) -> None:
    """t disjoint non-adjacent pairs, every cross pair adjacent, by has_edge alone."""
    assert len(pairs) == t
    verts = [v for pair in pairs for v in pair]
    assert len(set(verts)) == 2 * t and all(0 <= v < g.n for v in verts)
    for i, (a, b) in enumerate(pairs):
        assert not g.has_edge(a, b)
        for c, d in pairs[:i]:
            assert all(g.has_edge(u, v) for u in (a, b) for v in (c, d))


def naive_maximal_cliques(g: Graph) -> set[int]:
    """Filter all 2^n subsets: complete and not extendable."""
    result = set()
    verts = list(range(g.n))
    for size in range(1, g.n + 1):
        for sub in combinations(verts, size):
            if any(not g.has_edge(u, v) for u, v in combinations(sub, 2)):
                continue
            m = mask_of(sub)
            extendable = any(
                all((g.rows[v] >> u) & 1 for u in sub) for v in verts if v not in sub
            )
            if not extendable:
                result.add(m)
    return result


def test_k4_single_clique():
    cl = maximal_cliques(complete_graph(4))
    assert [tuple(bits(m)) for m in cl] == [(0, 1, 2, 3)]


def test_c4_cliques_are_edges():
    cl = maximal_cliques(cycle_graph(4))
    assert [tuple(bits(m)) for m in cl] == [(0, 1), (0, 3), (1, 2), (2, 3)]


def test_o3_has_eight_triangles():
    cl = maximal_cliques(octahedron(3))
    assert len(cl) == 8
    assert all(m.bit_count() == 3 for m in cl)


def test_empty_graph_no_cliques():
    assert len(maximal_cliques(empty_graph(0))) == 0
    assert [tuple(bits(m)) for m in maximal_cliques(empty_graph(3))] == [(0,), (1,), (2,)]


def test_deterministic_order():
    g = octahedron(3)
    assert maximal_cliques(g) == maximal_cliques(g)
    sets = [tuple(bits(m)) for m in maximal_cliques(g)]
    assert sets == sorted(sets)


def test_cap_raises_with_partial_count():
    with pytest.raises(CliqueLimitError) as err:
        maximal_cliques(octahedron(5), cap=3)
    assert err.value.cap == 3


def test_clique_deeper_than_recursion_limit():
    limit = sys.getrecursionlimit()
    n = max(1500, limit + 100)
    cl = maximal_cliques(complete_graph(n))
    assert cl == ((1 << n) - 1,)
    assert sys.getrecursionlimit() == limit


@given(graphs())
def test_matches_naive_oracle(g):
    assert set(maximal_cliques(g)) == naive_maximal_cliques(g)


def test_matches_naive_oracle_many_random():
    rng = random.Random(99)
    for _ in range(5000):
        n = rng.randrange(0, 8)
        pairs = n * (n - 1) // 2
        g = Graph.from_upper_bits(n, rng.getrandbits(pairs) if pairs else 0)
        assert set(maximal_cliques(g)) == naive_maximal_cliques(g)


def test_constructed_families_match_oracle():
    from cliquedyn import complete_bipartite, disjoint_union, matching_graph

    family = [
        complete_graph(5),
        cycle_graph(6),
        octahedron(3),
        complete_bipartite(3, 3),
        disjoint_union([complete_graph(3), cycle_graph(4)]),
        matching_graph(3),
    ]
    for g in family:
        assert set(maximal_cliques(g)) == naive_maximal_cliques(g)


def test_dense_graphs_match_naive_oracle_and_cap_boundary():
    # long chains of vertices adjacent to all the rest of P, which graphs()
    # on at most 7 vertices rarely builds; the cap trips exactly past the count
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randrange(9, 13)
        p = rng.choice((0.7, 0.8, 0.9, 0.95))
        g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        cl = maximal_cliques(g)
        assert list(cl) == sorted(naive_maximal_cliques(g), key=lambda m: tuple(bits(m)))
        assert maximal_cliques(g, cap=len(cl)) == cl
        with pytest.raises(CliqueLimitError):
            maximal_cliques(g, cap=len(cl) - 1)


def test_matches_reference_on_every_cubic_10_census_iterate(monkeypatch):
    # every enumeration the (3, 10) census makes under the acceptance limits,
    # capped ones included: both give the same tuple or both raise at the cap
    calls = []

    def recording(g, cap=cliques.DEFAULT_CLIQUE_CAP):
        calls.append((g, cap))
        return maximal_cliques(g, cap)

    monkeypatch.setattr(cliques, "maximal_cliques", recording)
    monkeypatch.setattr(behavior, "maximal_cliques", recording)
    run_census(RegularGenSpec(3, 10), ALL_CHECKS, Limits(15, 400, 40_000))
    monkeypatch.undo()
    capped = screened = 0
    for g, cap in calls:
        pairs = cliques._octahedron_pairs(g, cap.bit_length())
        reference = octahedron_pairs_reference(g, cap.bit_length())
        if reference is not None:
            # the one-seed pass runs first and finds what it always found
            assert pairs == reference
        try:
            expected = bron_kerbosch_reference(g, cap)
        except CliqueLimitError:
            capped += 1
            if pairs is not None:
                # the octahedron screen raises these before enumerating
                assert_induces_octahedron(g, pairs, cap.bit_length())
                screened += 1
            with pytest.raises(CliqueLimitError) as err:
                maximal_cliques(g, cap)
            assert err.value.cap == cap
            continue
        assert pairs is None
        assert maximal_cliques(g, cap) == expected
    assert len(calls) > 60 and capped == 15 and screened >= 8
    assert max(g.n for g, _ in calls) > 200


@pytest.mark.parametrize("g6,steps,order", [("I{Og_cI@W", 4, 332), ("I{OWp?D?w", 3, 226)])
def test_wide_pass_finds_the_octahedron_the_one_seed_greedy_misses(g6, steps, order):
    # the 332- and 226-vertex iterates of the cubic n = 10 census, which
    # the SCAN cap of 400 cliques stops: only the width-4 pass proves it
    g = complement(decode(g6))
    for _ in range(steps):
        g, _ = clique_graph(g)
    assert g.n == order
    assert octahedron_pairs_reference(g, 9) is None
    assert_induces_octahedron(g, cliques._octahedron_pairs(g, 9), 9)
    with pytest.raises(CliqueLimitError):
        maximal_cliques(g, cap=400)


def test_planted_octahedron_trips_the_cap_exactly_at_its_clique_count():
    # O_t has 2^t maximal cliques, and O_t joined to H has 2^t times H's:
    # the screen raises below 2^t and leaves the outcome to enumeration at it
    rng = random.Random(23)
    for t in range(1, 8):
        perm = list(range(2 * t))
        rng.shuffle(perm)
        h_n = rng.randrange(1, 7)
        h = Graph.from_edges(h_n, [(u, v) for u in range(h_n) for v in range(u + 1, h_n) if rng.random() < 0.8])
        planted = relabel(octahedron(t), perm)
        for g in (planted, join(octahedron(t), h)):
            assert_induces_octahedron(g, cliques._octahedron_pairs(g, t), t)
            with pytest.raises(CliqueLimitError) as err:
                maximal_cliques(g, cap=(1 << t) - 1)
            assert err.value.cap == (1 << t) - 1
            try:
                expected = bron_kerbosch_reference(g, 1 << t)
            except CliqueLimitError:
                with pytest.raises(CliqueLimitError):
                    maximal_cliques(g, cap=1 << t)
            else:
                assert maximal_cliques(g, cap=1 << t) == expected
        assert len(maximal_cliques(planted, cap=1 << t)) == 1 << t


@st.composite
def dense_graphs_and_caps(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    p = draw(st.sampled_from((0.7, 0.8, 0.9)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
    return g, draw(st.integers(min_value=1, max_value=100))


@settings(max_examples=100, deadline=None)
@given(dense_graphs_and_caps())
def test_octahedron_screen_fires_only_past_the_cap(case):
    g, cap = case
    pairs = cliques._octahedron_pairs(g, cap.bit_length())
    assert pairs == octahedron_pairs_two_pass_reference(g, cap.bit_length())
    reference = octahedron_pairs_reference(g, cap.bit_length())
    if reference is not None:
        assert pairs == reference
    if pairs is None:
        return
    assert_induces_octahedron(g, pairs, cap.bit_length())
    with pytest.raises(CliqueLimitError):
        bron_kerbosch_reference(g, cap)


def test_octahedron_search_matches_the_two_pass_reference():
    # pair for pair: seeded dense graphs, some with a planted O_t, at the t
    # of caps 3 to 400, and every graph the SCAN cubic n = 10 census
    # enumerates, the capped iterates of up to 373 vertices included
    rng = random.Random(31)
    cases = []
    for _ in range(400):
        t = rng.choice((2, 3, 4, 6, 9))
        n = rng.randrange(2 * t, 2 * t + 40)
        p = rng.choice((0.7, 0.8, 0.9, 0.95))
        g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        if rng.random() < 0.3:
            g = join(octahedron(t), g)
            perm = list(range(g.n))
            rng.shuffle(perm)
            g = relabel(g, perm)
        cases.append((g, t))
    for h in enumerate_regular(RegularGenSpec(3, 10)):
        g = complement(h)
        for _ in range(15):
            cases.append((g, 9))
            try:
                g, _ = clique_graph(g, cap=400)
            except CliqueLimitError:
                break
    found = 0
    for g, t in cases:
        pairs = cliques._octahedron_pairs(g, t)
        assert pairs == octahedron_pairs_two_pass_reference(g, t)
        if pairs is not None:
            assert_induces_octahedron(g, pairs, t)
            found += 1
    assert 100 < found < len(cases) - 100
    assert max(g.n for g, _ in cases) > 300


def test_order_and_clique_graph_match_reference_on_random_graphs():
    # the bit-string sort key against sorting the vertex tuples, and each
    # clique graph row against pairwise intersection, up to 55 vertices
    rng = random.Random(59)
    for n in range(10, 56):
        p = rng.choice((0.2, 0.4, 0.6)) if n < 40 else 0.2
        g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        expected = bron_kerbosch_reference(g, cliques.DEFAULT_CLIQUE_CAP)
        kg, cl = clique_graph(g)
        assert cl == expected
        # given the cliques, it neither enumerates nor reads the cap
        assert clique_graph(g, 1, cliques=maximal_cliques(g)) == (kg, cl)
        assert kg.rows == tuple(
            sum(1 << j for j, b in enumerate(cl) if j != i and a & b) for i, a in enumerate(cl)
        )


@given(graphs(min_n=1))
def test_every_vertex_in_some_clique(g):
    covered = 0
    for m in maximal_cliques(g):
        covered |= m
    assert covered == g.full_mask()


@given(graphs())
def test_cliques_complete_and_maximal(g):
    for m in maximal_cliques(g):
        vs = list(bits(m))
        for u, v in combinations(vs, 2):
            assert g.has_edge(u, v)
        for w in range(g.n):
            if not (m >> w) & 1:
                assert not all((g.rows[w] >> u) & 1 for u in vs)


@given(graphs())
def test_clique_graph_adjacency_is_intersection(g):
    kg, cl = clique_graph(g)
    assert kg.n == len(cl)
    for i in range(kg.n):
        for j in range(i + 1, kg.n):
            assert kg.has_edge(i, j) == bool(cl[i] & cl[j])


def test_clique_graph_of_complete_is_k1():
    for n in range(1, 6):
        kg, _ = clique_graph(complete_graph(n))
        assert kg == complete_graph(1)


def test_clique_graph_of_c4_is_c4():
    kg, _ = clique_graph(cycle_graph(4))
    assert are_isomorphic(kg, cycle_graph(4))


def test_clique_graph_of_o3_is_o4():
    kg, _ = clique_graph(octahedron(3))
    assert are_isomorphic(kg, octahedron(4))


def test_clique_graph_of_o2_is_o2():
    kg, _ = clique_graph(octahedron(2))
    assert are_isomorphic(kg, octahedron(2))
