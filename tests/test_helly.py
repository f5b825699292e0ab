import random

import pytest
from hypothesis import given, settings

from cliquedyn import (
    Graph,
    OracleLimitError,
    check_cotriangle_cover,
    complement,
    complete_bipartite,
    complete_graph,
    cone_apex,
    cotriangle_adjacent_vertices,
    cotriangle_count,
    cotriangles,
    cycle_graph,
    disjoint_union,
    empty_graph,
    extended_triangle,
    helly_brute_oracle,
    helly_witnesses,
    is_helly,
    mask_of,
    maximal_cliques,
    octahedron,
    triangle_count,
    triangles,
)

from strategies import graphs


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


def test_triangle_counts():
    assert triangle_count(complete_graph(4)) == 4
    assert len(triangles(complete_graph(4))) == 4
    assert triangle_count(petersen()) == 0
    assert triangle_count(complement(petersen())) == 30


def test_triangles_match_brute_force():
    rng = random.Random(1)
    from itertools import combinations

    for _ in range(200):
        n = rng.randrange(0, 8)
        pairs = n * (n - 1) // 2
        g = Graph.from_upper_bits(n, rng.getrandbits(pairs) if pairs else 0)
        brute = {
            t
            for t in combinations(range(n), 3)
            if g.has_edge(t[0], t[1]) and g.has_edge(t[0], t[2]) and g.has_edge(t[1], t[2])
        }
        assert set(triangles(g)) == brute
        assert triangle_count(g) == len(brute)


def test_cotriangle_counts():
    assert cotriangle_count(complete_graph(5)) == 0
    assert cotriangle_count(empty_graph(5)) == 10
    assert cotriangle_count(cycle_graph(5)) == 0
    assert cotriangles(cycle_graph(6)) == [(0, 2, 4), (1, 3, 5)]


def test_extended_triangle_examples():
    k3 = complete_graph(3)
    assert extended_triangle(k3, (0, 1, 2)) == mask_of([0, 1, 2])
    o3 = octahedron(3)
    t = triangles(o3)[0]
    assert extended_triangle(o3, t) == o3.full_mask()
    k4 = complete_graph(4)
    assert extended_triangle(k4, (0, 1, 2)) == k4.full_mask()
    with pytest.raises(ValueError):
        extended_triangle(cycle_graph(4), (0, 1, 2))


def test_cone_apex():
    assert cone_apex(complete_graph(1)) == 0
    star = Graph.from_edges(6, [(0, i) for i in range(1, 6)])
    assert cone_apex(star) == 0
    assert cone_apex(octahedron(3)) is None


def test_helly_examples():
    assert is_helly(complete_bipartite(3, 3)).is_helly
    assert is_helly(complement(disjoint_union([cycle_graph(3), cycle_graph(4)]))).is_helly
    assert is_helly(complement(disjoint_union([cycle_graph(4), cycle_graph(4)]))).is_helly
    verdict = is_helly(octahedron(3))
    assert not verdict.is_helly
    assert verdict.witness is not None


def test_helly_witness_is_sound():
    verdict = is_helly(octahedron(3))
    t = verdict.witness
    o3 = octahedron(3)
    ext = extended_triangle(o3, t)
    # no vertex of the extended triangle dominates it
    from cliquedyn import bits

    assert all(o3.rows[v] & ext != ext & ~(1 << v) for v in bits(ext))
    assert t in helly_witnesses(o3)


@given(graphs())
def test_helly_witness_is_first_of_all_witnesses(g):
    assert is_helly(g).witness == (helly_witnesses(g) or [None])[0]


def test_triangle_free_graphs_are_helly():
    assert is_helly(petersen()).is_helly
    assert is_helly(cycle_graph(9)).is_helly
    assert is_helly(empty_graph(4)).is_helly


def test_brute_oracle_examples():
    assert helly_brute_oracle(cycle_graph(4))
    assert not helly_brute_oracle(octahedron(3))
    assert helly_brute_oracle(petersen())


def test_brute_oracle_cap():
    with pytest.raises(OracleLimitError):
        helly_brute_oracle(octahedron(5), clique_cap=20)


@settings(max_examples=150)
@given(graphs())
def test_is_helly_matches_brute_oracle(g):
    if len(maximal_cliques(g)) <= 20:
        assert is_helly(g).is_helly == helly_brute_oracle(g)


def test_named_graphs_match_brute_oracle():
    named = [
        complete_graph(4),
        complete_graph(5),
        cycle_graph(4),
        cycle_graph(7),
        octahedron(1),
        octahedron(2),
        octahedron(3),
        complete_bipartite(3, 3),
        petersen(),
        complement(cycle_graph(7)),
        complement(cycle_graph(6)),
        complement(disjoint_union([cycle_graph(3), cycle_graph(4)])),
        complement(disjoint_union([cycle_graph(3), cycle_graph(5)])),
        disjoint_union([complete_bipartite(3, 3), complete_bipartite(3, 3)]),
        complement(disjoint_union([complete_bipartite(3, 3)] * 2)),
    ]
    for g in named:
        assert is_helly(g).is_helly == helly_brute_oracle(g, clique_cap=20)


def test_cotriangle_adjacent_vertices_examples():
    k33 = complete_bipartite(3, 3)
    assert cotriangle_adjacent_vertices(k33, (0, 1, 2)) == mask_of([3, 4, 5])
    assert cotriangle_adjacent_vertices(empty_graph(5), (0, 1, 2)) == 0
    c6 = cycle_graph(6)
    assert cotriangle_adjacent_vertices(c6, (0, 2, 4)) == mask_of([1, 3, 5])
    with pytest.raises(ValueError):
        cotriangle_adjacent_vertices(complete_graph(3), (0, 1, 2))


def test_cotriangle_adjacency_duality():
    # x adjacent to cotriangle T in g iff x has <= 1 neighbors in T
    # within the complement
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randrange(3, 8)
        pairs = n * (n - 1) // 2
        g = Graph.from_upper_bits(n, rng.getrandbits(pairs))
        co = complement(g)
        for t in cotriangles(g):
            adj = cotriangle_adjacent_vertices(g, t)
            tm = mask_of(t)
            for x in range(n):
                if (tm >> x) & 1:
                    continue
                in_complement = (co.rows[x] & tm).bit_count()
                assert bool((adj >> x) & 1) == (in_complement <= 1)


def test_cover_check_examples():
    two_k33 = disjoint_union([complete_bipartite(3, 3)] * 2)
    assert check_cotriangle_cover(two_k33, 3) == []
    assert check_cotriangle_cover(cycle_graph(5), 2) == []
    assert check_cotriangle_cover(complete_bipartite(3, 3), 3) == []
    with pytest.raises(ValueError):
        check_cotriangle_cover(Graph.from_edges(3, [(0, 1)]), 1)


def test_extended_triangle_size_bound_for_helly_complements():
    # for k-regular g with Helly complement, every triangle T of the
    # complement has |ext(T)| <= n - k
    for g, k in [
        (disjoint_union([complete_bipartite(3, 3)] * 2), 3),
        (cycle_graph(7), 2),
        (disjoint_union([cycle_graph(4), cycle_graph(4)]), 2),
    ]:
        co = complement(g)
        if not is_helly(co).is_helly:
            continue
        from cliquedyn import triangles as tri

        for t in tri(co):
            assert extended_triangle(co, t).bit_count() <= g.n - k
