import hashlib
import json
import os
import random
import subprocess
import sys
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquedyn import (
    Graph,
    RegularGenSpec,
    are_isomorphic,
    canon,
    canonical_form,
    canonical_graph,
    canonical_labeling,
    complement,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    enumerate_regular,
    find_coaffination,
    is_coaffination,
    matching_graph,
    octahedron,
    relabel,
)

from oracles import (
    automorphisms_brute,
    canonical_search_reference,
    find_coaffination_reference,
    isomorphic_brute,
    refine_reference,
)
from strategies import graphs, permutations_of


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


def _random_graph(rng, n, p):
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def test_isomorphic_brute_matches_every_permutation():
    # the oracle against the definition: some permutation carries g's edges onto h's
    rng = random.Random(23)
    seen = set()
    for _ in range(400):
        n = rng.randrange(0, 7)
        g = _random_graph(rng, n, rng.random())
        perm = list(range(n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        if rng.random() < 0.5 and n >= 4:
            # one double edge swap a-b, c-d -> a-d, c-b keeps every degree
            a, b, c, d = rng.sample(range(n), 4)
            if h.has_edge(a, b) and h.has_edge(c, d) and not h.has_edge(a, d) and not h.has_edge(c, b):
                edges = set(h.edges()) - {(min(a, b), max(a, b)), (min(c, d), max(c, d))}
                edges |= {(min(a, d), max(a, d)), (min(c, b), max(c, b))}
                h = Graph.from_edges(n, edges)
        expected = any(
            all(g.has_edge(u, v) == h.has_edge(q[u], q[v]) for u in range(n) for v in range(u + 1, n))
            for q in permutations(range(n))
        )
        assert isomorphic_brute(g, h) == expected
        seen.add(expected)
    assert seen == {True, False}


def _random_ordered_partition(rng, n):
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), rng.randrange(0, n))) if n > 1 else []
    return [
        sum(1 << v for v in order[a:b]) for a, b in zip([0] + cuts, cuts + [n])
    ]


def test_refine_matches_reference_on_random_partitions():
    # non-equitable partitions, splitters of every size and worklists in any
    # order: the singleton shortcut must split exactly as counting does
    rng = random.Random(31)
    early = 0
    for _ in range(1500):
        n = rng.randrange(1, 17)
        g = _random_graph(rng, n, rng.choice((0.1, 0.3, 0.5, 0.7, 0.9)))
        cells = _random_ordered_partition(rng, n)
        worklist = rng.sample(cells, rng.randrange(0, len(cells) + 1))
        worklist += [1 << v for v in rng.sample(range(n), rng.randrange(0, min(n, 4) + 1))]
        rng.shuffle(worklist)
        queued = list(worklist)
        got = canon._refine(g.rows, list(cells), queued)
        assert got == refine_reference(g.rows, list(cells), list(worklist))
        # _refine works the worklist in place, so splitters left in it mean
        # the partition turned discrete with work still queued
        early += len(cells) < n and bool(queued)
    assert early > 600  # 712 of the 1500 cases


def test_individualize_matches_refining_the_split_cell():
    # from an equitable partition, cutting out v and refining by [{v}, rest]
    rng = random.Random(37)
    checked = 0
    for _ in range(1000):
        n = rng.randrange(2, 17)
        g = _random_graph(rng, n, rng.choice((0.2, 0.5, 0.8)))
        start = _random_ordered_partition(rng, n) if rng.random() < 0.5 else [(1 << n) - 1]
        cells = refine_reference(g.rows, list(start), list(start))
        targets = [i for i, c in enumerate(cells) if c & (c - 1)]
        if not targets:
            continue
        tgt = rng.choice(targets)
        v = rng.choice([u for u in range(n) if (cells[tgt] >> u) & 1])
        rest = cells[tgt] & ~(1 << v)
        split = cells[:tgt] + [1 << v, rest] + cells[tgt + 1 :]
        assert canon._individualize(g.rows, cells, tgt, v) == refine_reference(
            g.rows, split, [1 << v, rest]
        )
        checked += 1
    assert checked > 400


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
    assert find_coaffination(empty_graph(0)) is None
    assert not is_coaffination(empty_graph(0), ())
    sigma = find_coaffination(empty_graph(4))
    assert sigma is not None and is_coaffination(empty_graph(4), sigma)


def test_is_coaffination_checks_both_halves():
    # the same swap of the two pairs is a coaffination of 2K2 but not of P3 + K1,
    # where it moves every vertex off its closed neighborhood and misses both edges
    perm = (2, 3, 0, 1)
    assert is_coaffination(matching_graph(2), perm)
    assert not is_coaffination(Graph.from_edges(4, [(0, 1), (1, 2)]), perm)
    # automorphisms that are not coaffinations: a C4 rotation sends 0 to its
    # neighbor 1, and a C5 reflection fixes 0
    assert not is_coaffination(cycle_graph(4), (1, 2, 3, 0))
    assert not is_coaffination(cycle_graph(5), (0, 4, 3, 2, 1))


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


def _coaffination_inputs():
    rng = random.Random(26)
    inputs = []
    for _ in range(300):
        n = rng.randint(1, 12)
        p = rng.choice((0.2, 0.5, 0.8))
        inputs.append(Graph.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    symmetric = [octahedron(m) for m in (1, 2, 3, 4, 5, 40)]
    symmetric += [complement(cycle_graph(n)) for n in (*range(3, 14), 40)]
    symmetric += [
        complement(disjoint_union([cycle_graph(3)] * a + [cycle_graph(5)] * b))
        for a in range(4)
        for b in range(3)
        if a + b
    ]
    for g in symmetric:
        perm = list(range(g.n))
        rng.shuffle(perm)
        inputs += [g, relabel(g, perm)]
    return inputs


COAFFINATION_INPUTS = _coaffination_inputs()


@pytest.mark.parametrize(
    "cap,found", [(1, 0), (2, 12), (5, 31), (50, 79), (canon.COAFF_NODE_CAP, 83)]
)
def test_find_coaffination_matches_recursive_reference(cap, found, monkeypatch):
    # the stack search makes the recursive search's decisions, so it
    # returns the same permutation, or None, under every node budget;
    # the budgets below the largest stop some searches that it completes
    monkeypatch.setattr(canon, "COAFF_NODE_CAP", cap)
    sigmas = [find_coaffination(g) for g in COAFFINATION_INPUTS]
    assert sigmas == [find_coaffination_reference(g, cap) for g in COAFFINATION_INPUTS]
    assert all(is_coaffination(g, s) for g, s in zip(COAFFINATION_INPUTS, sigmas) if s)
    assert sum(s is not None for s in sigmas) == found


def _canon_pin_inputs():
    rng = random.Random(17)
    shapes = [complete_graph(n) for n in range(1, 13)] + [empty_graph(n) for n in range(1, 13)]
    shapes += [complete_bipartite(a, a) for a in range(1, 7)]
    shapes += [octahedron(m) for m in range(2, 7)] + [matching_graph(m) for m in range(1, 7)]
    shapes += [cycle_graph(n) for n in range(3, 13)]
    shapes += [complement(cycle_graph(n)) for n in range(3, 13)]
    for _ in range(150):
        n = rng.randrange(1, 13)
        p = rng.choice((0.1, 0.3, 0.5, 0.7, 0.9))
        shapes.append(
            Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        )
    out = []
    for g in shapes:
        perm = list(range(g.n))
        rng.shuffle(perm)
        out += [g, relabel(g, perm)]
    return out


def test_canonical_labelings_and_forms_are_pinned():
    # the labeling, not only the form: which of the automorphic best
    # leaves the search keeps is part of its output
    h = hashlib.sha256()
    for g in _canon_pin_inputs():
        h.update(json.dumps([canonical_labeling(g), canonical_form(g)]).encode() + b"\n")
    assert h.hexdigest() == "717cd5fe76b47e6e7225a855f5cb531e887b73e8bc41d49f61feb86012773fcc"


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=7))
def test_recorded_generators_are_automorphisms(g):
    # the search skips sibling branches along these, so each must be a true automorphism
    search = canon._CanonSearch(g)
    search.run()
    assert set(search.generators) <= set(automorphisms_brute(g))


SYMMETRIC_SHAPES = [
    complete_graph(15),
    empty_graph(15),
    complete_graph(40),
    empty_graph(40),
    complete_bipartite(7, 7),
    complete_bipartite(20, 20),
    octahedron(8),
    octahedron(20),
    matching_graph(8),
    disjoint_union([complete_graph(4)] * 3),
]
SYMMETRIC_IDS = ["K15", "E15", "K40", "E40", "K7_7", "K20_20", "O8", "O20", "8K2", "3K4"]


@pytest.mark.parametrize("g", SYMMETRIC_SHAPES, ids=SYMMETRIC_IDS)
def test_search_leaves_on_symmetric_graphs_are_at_most_n(g, monkeypatch):
    leaves = 0
    real_leaf = canon._CanonSearch._leaf

    def counting_leaf(self, *args):
        nonlocal leaves
        leaves += 1
        assert leaves <= g.n, "more search leaves than vertices"
        return real_leaf(self, *args)

    monkeypatch.setattr(canon._CanonSearch, "_leaf", counting_leaf)
    label = canonical_labeling(g)
    monkeypatch.undo()
    inv = [0] * g.n
    for pos, v in enumerate(label):
        inv[v] = pos
    assert canonical_graph(g) == relabel(g, inv)


def _search_triple(g):
    """(labeling, leaf rows in visit order, generators) of one stack search."""
    search = canon._CanonSearch(g, {})  # an empty memo records every leaf and hits none
    return search.run(), search.leaves, search.generators


def _cubic_10_inputs():
    # here a level meets orbits of two or more unexplored vertices, and
    # once it explores one vertex of such an orbit it skips all the others
    rng = random.Random(29)
    out = []
    for g in enumerate_regular(RegularGenSpec(3, 10)):
        perm = list(range(g.n))
        rng.shuffle(perm)
        out += [g, relabel(g, perm)]
    return out


@pytest.mark.parametrize(
    "inputs",
    [_canon_pin_inputs, lambda: SYMMETRIC_SHAPES, _cubic_10_inputs],
    ids=["pinned", "symmetric", "cubic-10"],
)
def test_canonical_search_matches_recursive_reference(inputs):
    # the stack search with its per-level orbits makes the recursive
    # search's decisions: the same leaves in the same order, the same
    # generators and the same labeling
    for g in inputs():
        assert _search_triple(g) == canonical_search_reference(g)


@settings(deadline=None)
@given(graphs(max_n=9))
def test_canonical_search_matches_recursive_reference_on_small_graphs(g):
    assert _search_triple(g) == canonical_search_reference(g)


def test_empty_graph_past_a_recursion_limit_of_100_canonizes_and_classifies():
    # the canonical search keeps its levels on a stack: E_200's first path
    # individualizes 199 vertices, twice the frames the limit allows
    probe = (
        "import sys; from cliquedyn import canonical_form, classify_behavior, empty_graph, encode; "
        "sys.setrecursionlimit(100); g = empty_graph(200); r = classify_behavior(g); "
        "print(canonical_form(g) == encode(g), r.status, r.tail, r.period)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(canon.__file__).parents[1])},
    )
    assert (out.returncode, out.stdout) == (0, "True convergent 0 1\n"), out.stderr[-300:]


# -- the leaf memo of canonical_graph -----------------------------------------

def _count_leaves(monkeypatch):
    """Count `_leaf` calls from now until the monkeypatch is undone."""
    calls = [0]
    real_leaf = canon._CanonSearch._leaf

    def counting_leaf(self, *args):
        calls[0] += 1
        return real_leaf(self, *args)

    monkeypatch.setattr(canon._CanonSearch, "_leaf", counting_leaf)
    return calls


@settings(deadline=None)
@given(graphs(min_n=1, max_n=9), st.data())
def test_relabeling_of_a_known_graph_stops_at_its_first_leaf(g, data):
    known: dict = {}
    cg = canonical_graph(g, known)
    assert cg == canonical_graph(g)
    h = relabel(g, data.draw(permutations_of(g.n)))
    with pytest.MonkeyPatch.context() as mp:
        leaves = _count_leaves(mp)
        got = canonical_graph(h, known)
    assert leaves[0] == 1
    assert got == canonical_graph(h) == cg


@settings(deadline=None)
@given(st.data())
def test_memo_of_other_classes_changes_no_answer(data):
    # same order, so first rows and leaf tuples of the same length meet
    n = data.draw(st.integers(min_value=1, max_value=6))
    g = data.draw(graphs(min_n=n, max_n=n))
    others = data.draw(st.lists(graphs(min_n=n, max_n=n), max_size=12))
    known: dict = {}
    form = canonical_form(g)
    for h in others:
        if canonical_form(h) != form:
            canonical_graph(h, known)
    assert canonical_graph(g, known) == canonical_graph(g)


def test_memo_keys_are_relabelings_of_their_values():
    rng = random.Random(41)
    known: dict = {}
    for _ in range(200):
        n = rng.randrange(1, 10)
        g = _random_graph(rng, n, rng.choice((0.2, 0.5, 0.8)))
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(relabel(g, perm), known) == canonical_form(g)
    assert known
    for rel, cg in known.items():
        assert type(rel) is tuple and len(rel) == cg.n
        assert canonical_graph(Graph(cg.n, rel)) == cg


def test_relabelings_of_searched_graphs_are_one_leaf_searches(monkeypatch):
    # symmetric shapes and orders past the hypothesis property's
    rng = random.Random(43)
    shapes = [octahedron(4), complete_bipartite(4, 4), complement(cycle_graph(10)), cycle_graph(9)]
    shapes += [_random_graph(rng, rng.randrange(4, 13), rng.random()) for _ in range(30)]
    known: dict = {}
    for g in shapes:
        canonical_graph(g, known)
    leaves = _count_leaves(monkeypatch)
    for g in shapes:
        for _ in range(5):
            perm = list(range(g.n))
            rng.shuffle(perm)
            before = leaves[0]
            canonical_graph(relabel(g, perm), known)
            assert leaves[0] == before + 1
