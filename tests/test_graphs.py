import pytest
from hypothesis import given
from hypothesis import strategies as st

from cliquedyn import (
    Graph,
    bits,
    common_neighbors,
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

from strategies import graphs


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


def test_common_neighbors():
    k4 = complete_graph(4)
    assert common_neighbors(k4, 0, 1) == mask_of([2, 3])
    c5 = cycle_graph(5)
    assert common_neighbors(c5, 0, 1) == 0
    k33 = complete_bipartite(3, 3)
    assert common_neighbors(k33, 0, 1) == mask_of([3, 4, 5])
    with pytest.raises(ValueError):
        common_neighbors(k4, 1, 1)
    with pytest.raises(ValueError):
        common_neighbors(k4, 0, 7)


def test_induced_and_relabel():
    c5 = cycle_graph(5)
    sub = induced(c5, [0, 1, 2])
    assert sorted(sub.edges()) == [(0, 1), (1, 2)]
    back = relabel(c5, [1, 2, 3, 4, 0])
    assert set(back.degrees()) == {2}
    with pytest.raises(ValueError):
        relabel(c5, [0, 0, 1, 2, 3])


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


def test_components():
    g = disjoint_union([cycle_graph(3), complete_graph(2)])
    comps = connected_components(g)
    assert comps == [mask_of([0, 1, 2]), mask_of([3, 4])]
    assert not is_connected(g)
    assert is_connected(cycle_graph(6))
    assert is_connected(empty_graph(0))


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
