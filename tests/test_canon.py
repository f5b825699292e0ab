import random

from hypothesis import given, settings

from cliquedyn import (
    are_isomorphic,
    canonical_form,
    canonical_graph,
    canonical_labeling,
    complement,
    complete_graph,
    cycle_graph,
    disjoint_union,
    find_coaffination,
    is_coaffination,
    isomorphic_brute,
    matching_graph,
    octahedron,
    relabel,
)
from cliquedyn.canon import automorphisms_brute

from strategies import graphs


def test_c5_self_complementary():
    c5 = cycle_graph(5)
    assert canonical_form(c5) == canonical_form(complement(c5))
    assert isomorphic_brute(c5, complement(c5))


def test_distinguishes_c6_from_2c3():
    c6 = cycle_graph(6)
    two_c3 = disjoint_union([cycle_graph(3), cycle_graph(3)])
    assert canonical_form(c6) != canonical_form(two_c3)
    assert not are_isomorphic(c6, two_c3)


def test_octahedron2_is_c4():
    assert are_isomorphic(octahedron(2), cycle_graph(4))


@given(graphs())
def test_relabel_invariance(g):
    rng = random.Random(11)
    base = canonical_form(g)
    for _ in range(4):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_form(relabel(g, perm)) == base


def test_relabel_invariance_many_trials():
    rng = random.Random(3)
    from cliquedyn import Graph

    for _ in range(300):
        n = rng.randrange(1, 9)
        pairs = n * (n - 1) // 2
        g = Graph.from_upper_bits(n, rng.getrandbits(pairs) if pairs else 0)
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(relabel(g, perm))


@settings(max_examples=60)
@given(graphs(max_n=6), graphs(max_n=6))
def test_canonical_equality_matches_brute_force(g, h):
    assert (canonical_form(g) == canonical_form(h)) == isomorphic_brute(g, h)


def test_canonical_graph_is_isomorphic_to_input():
    g = disjoint_union([cycle_graph(5), complete_graph(3)])
    cg = canonical_graph(g)
    assert isomorphic_brute(g, cg)
    assert canonical_form(cg) == canonical_form(g)


@given(graphs(max_n=9))
def test_canonical_graph_matches_relabel_by_canonical_labeling(g):
    # oracle: relabel g by the inverse of its canonical labeling
    label = canonical_labeling(g)
    inv = [0] * g.n
    for pos, v in enumerate(label):
        inv[v] = pos
    assert canonical_graph(g) == relabel(g, inv)


def test_symmetric_graphs_canonize():
    # large automorphism groups exercise the orbit pruning
    for g in (octahedron(5), complete_graph(8), matching_graph(5), cycle_graph(12)):
        perm = list(range(g.n))
        random.Random(5).shuffle(perm)
        assert canonical_form(g) == canonical_form(relabel(g, perm))


def test_coaffination_of_complement_cycles():
    for n in range(3, 13):
        g = complement(cycle_graph(n))
        sigma = find_coaffination(g)
        assert sigma is not None, f"complement of C_{n} should have a coaffination"
        assert is_coaffination(g, sigma)


def test_k2_has_no_coaffination():
    assert find_coaffination(complete_graph(2)) is None


def test_2k2_coaffination():
    g = matching_graph(2)
    sigma = find_coaffination(g)
    assert sigma is not None
    assert is_coaffination(g, sigma)


def test_complete_graphs_have_no_coaffination():
    for n in range(1, 6):
        assert find_coaffination(complete_graph(n)) is None


def test_empty_graph_coaffination_is_none():
    from cliquedyn import empty_graph

    assert find_coaffination(empty_graph(0)) is None
    assert not is_coaffination(empty_graph(0), ())
    sigma = find_coaffination(empty_graph(4))
    assert sigma is not None and is_coaffination(empty_graph(4), sigma)


@settings(max_examples=40)
@given(graphs(min_n=1, max_n=6))
def test_coaffination_agrees_with_brute_force(g):
    sigma = find_coaffination(g)
    brute = [
        p
        for p in automorphisms_brute(g)
        if all(p[v] != v and not (g.rows[v] >> p[v]) & 1 for v in range(g.n))
    ]
    if sigma is None:
        assert not brute
    else:
        assert is_coaffination(g, sigma)
        assert brute
