import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cliquedyn import (
    Graph,
    bits,
    complement,
    complete_bipartite,
    complete_graph,
    connected_components,
    cycle_graph,
    disjoint_union,
    empty_graph,
    induced,
    is_connected,
    join,
    mask_of,
    matching_graph,
    octahedron,
    relabel,
)
from cliquedyn.graphs import complement_components

from strategies import graphs, permutations_of


def test_cycle_small():
    c3 = cycle_graph(3)
    assert sorted(c3.edges()) == [(0, 1), (0, 2), (1, 2)]
    c4 = cycle_graph(4)
    assert c4.n == 4 and c4.edge_count() == 4
    assert set(c4.degrees()) == {2}


def test_cycle_rejects_small_n():
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_octahedron_small():
    o1 = octahedron(1)
    assert o1.n == 2 and o1.edge_count() == 0
    o2 = octahedron(2)
    assert o2.n == 4 and o2.edge_count() == 4 and set(o2.degrees()) == {2}
    o3 = octahedron(3)
    assert o3.n == 6 and o3.edge_count() == 12 and set(o3.degrees()) == {4}
    with pytest.raises(ValueError):
        octahedron(0)


def test_complement_of_complete_is_empty():
    assert complement(complete_graph(4)) == empty_graph(4)


def test_disjoint_union_counts():
    g = disjoint_union([matching_graph(1), matching_graph(1)])
    assert g.n == 4 and g.edge_count() == 2
    h = disjoint_union([cycle_graph(3), cycle_graph(5)])
    assert h.n == 8 and h.edge_count() == 8
    with pytest.raises(ValueError):
        disjoint_union([])


def test_complement_of_two_triangles_is_k33():
    g = complement(disjoint_union([cycle_graph(3), cycle_graph(3)]))
    # complement of 2K3 is complete bipartite between the two triangles
    assert g.edge_count() == 9
    assert set(g.degrees()) == {3}
    from cliquedyn import are_isomorphic

    assert are_isomorphic(g, complete_bipartite(3, 3))


def test_join_small():
    k2 = join(complete_graph(1), complete_graph(1))
    assert k2 == complete_graph(2)
    c4 = join(empty_graph(2), empty_graph(2))
    from cliquedyn import are_isomorphic

    assert are_isomorphic(c4, cycle_graph(4))


def test_join_union_complement_identity():
    # complement(union(g, h)) == join(complement(g), complement(h)) exactly
    g = cycle_graph(4)
    h = complete_graph(3)
    assert complement(disjoint_union([g, h])) == join(complement(g), complement(h))


def test_union_join_associative_exactly():
    a, b, c = cycle_graph(3), complete_graph(2), empty_graph(2)
    assert disjoint_union([a, disjoint_union([b, c])]) == disjoint_union(
        [disjoint_union([a, b]), c]
    )
    assert join(a, join(b, c)) == join(join(a, b), c)


def test_induced_and_relabel():
    c5 = cycle_graph(5)
    sub = induced(c5, [0, 1, 2])
    assert sorted(sub.edges()) == [(0, 1), (1, 2)]
    back = relabel(c5, [1, 2, 3, 4, 0])
    assert set(back.degrees()) == {2}
    with pytest.raises(ValueError):
        relabel(c5, [0, 0, 1, 2, 3])


@given(graphs(), st.data())
def test_relabel_moves_each_pair_with_its_endpoints(g, data):
    p = data.draw(permutations_of(g.n))
    h = relabel(g, p)
    assert h.edge_count() == g.edge_count()
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert g.has_edge(u, v) == h.has_edge(p[u], p[v])


def test_induced_full_mask_returns_the_graph():
    c5 = cycle_graph(5)
    assert induced(c5, c5.full_mask()) is c5
    assert induced(c5, range(c5.n)) is c5


def _induced_bit_by_bit(g, mask):
    keep = list(bits(mask))
    index = {v: i for i, v in enumerate(keep)}
    rows = [0] * len(keep)
    for v in keep:
        for w in bits(g.rows[v] & mask):
            rows[index[v]] |= 1 << index[w]
    return Graph(len(keep), rows)


@given(graphs(), st.data())
def test_induced_matches_bit_by_bit_reference(g, data):
    mask = data.draw(
        st.sampled_from([0, g.full_mask()]) | st.integers(0, g.full_mask()),
        label="mask",
    )
    assert induced(g, mask) == _induced_bit_by_bit(g, mask)


@pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 257, 300])
def test_induced_few_run_masks_on_large_graphs(n):
    # masks of one to n/2 runs on graphs wider than a machine word
    rng = random.Random(n)
    g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3])
    full = g.full_mask()
    masks = [0, full >> (n // 2) << (n // 2), full & int("01" * n, 2), 1 << (n - 1)]
    for v in {0, n // 2, n - 1, rng.randrange(n)}:
        masks.append(full & ~(1 << v))
        for w in {0, n - 1, rng.randrange(n)} - {v}:
            masks.append(full & ~(1 << v) & ~(1 << w))
    for mask in masks:
        assert induced(g, mask) == _induced_bit_by_bit(g, mask)


def test_induced_rejects_vertices_outside_the_graph():
    c5 = cycle_graph(5)
    for bad in (1 << 5, 0b100011, -1, [0, 5]):
        with pytest.raises(ValueError):
            induced(c5, bad)


def test_components():
    g = disjoint_union([cycle_graph(3), complete_graph(2)])
    comps = connected_components(g)
    assert comps == [mask_of([0, 1, 2]), mask_of([3, 4])]
    assert not is_connected(g)
    assert is_connected(cycle_graph(6))
    assert is_connected(empty_graph(0))


def test_complement_components_match_the_complement_on_every_small_graph():
    # every labeled graph on at most 6 vertices: 33 868 of them
    for n in range(7):
        pairs = n * (n - 1) // 2
        for packed in range(1 << pairs):
            g = Graph.from_upper_bits(n, packed)
            assert complement_components(g) == connected_components(complement(g))


def _random_graph(rng: random.Random, n: int, p: float) -> Graph:
    return Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


def test_complement_components_match_the_complement_on_random_graphs():
    rng = random.Random(20261020)
    for n in (0, 1, 2, 3, 8, 15, 31, 47, 64, 70):
        for p in (0.0, 0.1, 0.5, 0.8, 0.95, 1.0):
            g = _random_graph(rng, n, p)
            assert complement_components(g) == connected_components(complement(g))
    # relabeled joins have several complement components, not in vertex order
    for _ in range(60):
        parts = [
            _random_graph(rng, rng.randrange(1, 18), rng.choice((0.2, 0.5, 0.8)))
            for _ in range(rng.randrange(2, 5))
        ]
        g = parts[0]
        for part in parts[1:]:
            g = join(g, part)
        perm = list(range(g.n))
        rng.shuffle(perm)
        g = relabel(g, perm)
        comps = complement_components(g)
        assert comps == connected_components(complement(g))
        assert len(comps) >= len(parts)


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])


@given(graphs())
def test_validate_passes_on_constructed(g):
    g.validate()


@given(graphs())
def test_complement_involution(g):
    assert complement(complement(g)) == g


@given(graphs())
def test_complement_degrees(g):
    co = complement(g)
    for v in range(g.n):
        assert co.degree(v) == g.n - 1 - g.degree(v)


@given(graphs())
def test_components_partition_vertices(g):
    comps = connected_components(g)
    total = 0
    for mask in comps:
        assert mask & total == 0
        total |= mask
    assert total == g.full_mask()


@given(graphs(max_n=6), graphs(max_n=6))
def test_union_complement_join_identity(g, h):
    assert complement(disjoint_union([g, h])) == join(complement(g), complement(h))


def test_bits_mask_roundtrip():
    assert list(bits(mask_of([0, 3, 5]))) == [0, 3, 5]
    assert mask_of([]) == 0


def test_from_upper_bits_reads_pair_0_1_from_the_top_bit():
    assert list(Graph.from_upper_bits(3, 0b100).edges()) == [(0, 1)]
    assert list(Graph.from_upper_bits(3, 0b010).edges()) == [(0, 2)]
    assert list(Graph.from_upper_bits(3, 0b001).edges()) == [(1, 2)]
    # row-major pairs (0,1), (0,2), (0,3), (1,2), (1,3), (2,3) from bit 5 down
    assert list(Graph.from_upper_bits(4, 0b100001).edges()) == [(0, 1), (2, 3)]
    assert list(Graph.from_upper_bits(4, 0b001100).edges()) == [(0, 3), (1, 2)]
