import hashlib
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquedyn import (
    Graph,
    are_isomorphic,
    bits,
    canonical_form,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    is_connected,
    matching_graph,
    random_regular,
    relabel,
)
from cliquedyn import canon, encode, regular
from cliquedyn.canon import canonical_graph
from cliquedyn.regular import (
    RegularGenSpec,
    _common_neighbours_raise,
    _placed_swap_raises,
    _pruned_labeled_regular,
    _regular_classes,
    _sorted_canonical,
    enumerate_regular,
)

import oracles
from oracles import (
    _partitions_min_part,
    common_neighbours_raise_reference,
    edge_insert,
    enumerate_regular_brute,
    irreducible_cubic_connected,
    low_degree_classes_reference,
    pruned_labeled_regular_reference,
    sorted_canonical_reference,
    transposition_raises,
    two_switch,
)
from strategies import graphs


def classes(k, n, **kw):
    return list(enumerate_regular(RegularGenSpec(k=k, n=n, **kw)))


def canon_set(graphs):
    return {canonical_form(g) for g in graphs}


def test_cubic_small_counts():
    assert len(classes(3, 4)) == 1
    assert are_isomorphic(classes(3, 4)[0], complete_graph(4))
    conn6 = classes(3, 6, connected_only=True)
    assert len(conn6) == 2


def test_low_degree_class_lists_match_the_structural_reference(cold_class_cache):
    # the matching and one union of cycles per partition of n, byte for
    # byte against the generic route; their complements, which take the
    # same flip as every other degree and are the dearest to canonize,
    # up to n = 14
    cache = cold_class_cache()
    for n in range(3, 21):
        for k in sorted({1, 2} | ({n - 2, n - 3} if n <= 14 else set())):
            if RegularGenSpec(k, n).satisfiable():
                got = [encode(g) for g in cache(k, n)]
                assert got == [encode(g) for g in low_degree_classes_reference(k, n)], (k, n)


@pytest.mark.parametrize("n,leaves", [(12, 12), (16, 46), (20, 189)])
def test_two_regular_leaf_counts_are_pinned(n, leaves):
    assert len(_pruned_labeled_regular(n, 2)) == leaves


def test_two_regular_n9_members():
    got = canon_set(classes(2, 9))
    want = canon_set(
        [
            cycle_graph(9),
            disjoint_union([cycle_graph(3), cycle_graph(6)]),
            disjoint_union([cycle_graph(4), cycle_graph(5)]),
            disjoint_union([cycle_graph(3)] * 3),
        ]
    )
    assert got == want


def test_unsatisfiable_spec_warns_and_yields_nothing():
    with pytest.warns(UserWarning):
        assert classes(3, 7) == []
    with pytest.warns(UserWarning):
        assert classes(5, 4) == []


def test_deterministic_output_order():
    a = [canonical_form(g) for g in classes(3, 8)]
    b = [canonical_form(g) for g in classes(3, 8)]
    assert a == b == sorted(a)


@pytest.fixture
def cold_class_cache(monkeypatch):
    """Install a private empty class cache for this test, and return it.

    The recursion and `enumerate_regular` look `_regular_classes` up in
    the module, so both fill the private cache, and the shared warm
    cache comes back after the test. A name imported from the module
    still points to the shared cache.
    """

    def install():
        cache = lru_cache(maxsize=None)(regular._regular_classes.__wrapped__)
        monkeypatch.setattr(regular, "_regular_classes", cache)
        return cache

    return install


def test_ceiling_is_checked_once_per_request(cold_class_cache, monkeypatch):
    cache = cold_class_cache()
    spec = RegularGenSpec(k=4, n=9)
    assert list(enumerate_regular(spec, ceiling=9)) == list(enumerate_regular(spec))
    assert cache.cache_info().currsize == 1
    # K_n comes through the complement route, as every k > (n - 1) / 2 does
    for n in list(range(1, 9)) + [16, 30]:
        assert list(enumerate_regular(RegularGenSpec(k=n - 1, n=n))) == [complete_graph(n)]
    # nothing is generated past here, so a request the rule lets through
    # stops at once instead of running a large enumeration
    monkeypatch.setattr(regular, "_regular_classes", lambda k, n: ())
    # the route's degree sets the ceiling, and the error waits for the first next
    late = enumerate_regular(RegularGenSpec(k=12, n=16))
    with pytest.raises(ValueError, match=r"^exhaustive cubic enumeration capped at n=14 \(requested 16\)$"):
        next(late)
    with pytest.raises(ValueError, match=r"^exhaustive 4-regular enumeration capped at n=9 \(requested 10\)$"):
        next(enumerate_regular(RegularGenSpec(k=5, n=10), ceiling=9))
    with pytest.raises(ValueError, match=r"^exhaustive 4-regular enumeration capped at n=11 \(requested 12\)$"):
        next(enumerate_regular(RegularGenSpec(k=4, n=12)))
    # an explicit cubic ceiling is clamped to ORDER_CEILING_MAX
    with pytest.raises(ValueError, match=r"^exhaustive cubic enumeration capped at n=20 \(requested 22\)$"):
        next(enumerate_regular(RegularGenSpec(k=3, n=22), ceiling=30))


def test_ceiling_rule_decides_without_generating(monkeypatch):
    # nothing is generated, so every decision is the rule's alone
    monkeypatch.setattr(regular, "_regular_classes", lambda k, n: ())

    def refused(k, n, ceiling=None):
        try:
            list(enumerate_regular(RegularGenSpec(k, n), ceiling))
        except ValueError:
            return True
        return False

    # by default cubic stops at 14 and every other degree from 4 up at 11
    for n in range(1, 46):
        for k in range(n):
            if RegularGenSpec(k, n).satisfiable():
                d = min(k, n - 1 - k)
                assert refused(k, n) == (d >= 3 and n > (14 if d == 3 else 11)), (k, n)
    # an explicit ceiling holds up to 20 and is cut there
    for ceiling in range(4, 31):
        for n in range(7, 31):
            for k in {3, 4, n - 4, n - 5}:
                if RegularGenSpec(k, n).satisfiable() and min(k, n - 1 - k) >= 3:
                    assert refused(k, n, ceiling) == (n > min(ceiling, 20)), (k, n, ceiling)
    with pytest.raises(ValueError, match=r"^exhaustive 4-regular enumeration capped at n=20 \(requested 22\)$"):
        next(enumerate_regular(RegularGenSpec(4, 22), ceiling=30))


def test_ceiling_below_one_is_refused_for_every_degree_and_mode(monkeypatch):
    monkeypatch.setattr(regular, "_regular_classes", lambda k, n: ())
    specs = [RegularGenSpec(1, 8), RegularGenSpec(2, 8), RegularGenSpec(3, 8), RegularGenSpec(6, 8),
             RegularGenSpec(3, 30, mode="random", count=1)]
    for spec in specs:
        for ceiling in (0, -1):
            late = enumerate_regular(spec, ceiling)  # the error waits for the first next
            with pytest.raises(ValueError, match=rf"^ceiling must be positive, got {ceiling}$"):
                next(late)


def test_ceiling_is_enforced(monkeypatch):
    # explicit override allows it (kept tiny here: n=16 would be slow)
    assert len(list(enumerate_regular(RegularGenSpec(k=4, n=9), ceiling=9))) == 16
    # the refusals are the rule's alone: with nothing generated, a request
    # the rule let through would return at once instead of raising
    monkeypatch.setattr(regular, "_regular_classes", lambda k, n: ())
    with pytest.raises(ValueError):
        classes(4, 12)
    with pytest.raises(ValueError):
        classes(3, 16)  # default cubic ceiling is 14


@pytest.mark.parametrize("k,n", [(3, 4), (3, 6), (1, 6), (2, 7), (2, 8), (4, 7)])
def test_matches_brute_force_fast_cases(k, n, brute_regular_forms):
    assert canon_set(classes(k, n)) == brute_regular_forms(k, n)


@pytest.mark.slow
@pytest.mark.parametrize("k,n", [(3, 8), (4, 8), (5, 8), (2, 6)])
def test_matches_brute_force_slow_cases(k, n, brute_regular_forms):
    assert canon_set(classes(k, n)) == brute_regular_forms(k, n)


def _has_reducible_edge(g):
    # edge {x,y} is reducible when deleting x,y and reconnecting their
    # other neighbors pairwise keeps the graph simple
    from cliquedyn import bits

    for x, y in g.edges():
        a, b = (w for w in bits(g.rows[x]) if w != y)
        c, d = (w for w in bits(g.rows[y]) if w != x)
        if g.has_edge(a, b) or g.has_edge(c, d):
            continue
        if {a, b} == {c, d}:
            continue
        return True
    return False


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_irreducible_family_matches_census(n):
    # the explicitly constructed irreducible family must be exactly the
    # connected classes without a reducible edge
    family = canon_set(irreducible_cubic_connected(n))
    census = {
        canonical_form(g)
        for g in classes(3, n, connected_only=True)
        if not _has_reducible_edge(g)
    }
    assert family == census


@pytest.mark.slow
@pytest.mark.parametrize("n", [12, 14])
def test_irreducible_family_matches_census_large(n):
    spec = RegularGenSpec(k=3, n=n, connected_only=True)
    family = canon_set(irreducible_cubic_connected(n))
    census = {
        canonical_form(g)
        for g in enumerate_regular(spec)
        if not _has_reducible_edge(g)
    }
    assert family == census


def test_irreducible_family_is_empty_below_four_and_at_odd_orders():
    for n in list(range(4)) + list(range(5, 16, 2)):
        assert irreducible_cubic_connected(n) == []


def test_cubic_known_class_counts():
    assert len(classes(3, 6)) == 2
    assert len(classes(3, 8)) == 6
    assert len(classes(3, 8, connected_only=True)) == 5
    assert len(classes(3, 10, connected_only=True)) == 19


@pytest.mark.slow
def test_cubic_n12_counts():
    assert len(classes(3, 12, connected_only=True)) == 85
    assert len(classes(3, 12)) == 94


def test_complement_route():
    # 5-regular on 8 vertices enumerates via 2-regular complements
    got = classes(5, 8)
    assert len(got) == 3
    assert all(set(g.degrees()) == {5} for g in got)


def test_degenerate_degrees():
    assert len(classes(0, 5)) == 1
    assert len(classes(6, 7)) == 1
    assert are_isomorphic(classes(1, 6)[0], matching_graph(3))


def test_two_switch_c4():
    c4 = cycle_graph(4)
    out = two_switch(c4, (1, 2), (3, 0))
    assert sorted(out.edges()) == [(0, 1), (0, 2), (1, 3), (2, 3)]
    assert are_isomorphic(out, cycle_graph(4))


def test_two_switch_c6_gives_relabeled_c6():
    # replacing {0,1},{3,4} by {0,3},{1,4} re-wires C_6 into another 6-cycle
    out = two_switch(cycle_graph(6), (0, 1), (3, 4))
    assert are_isomorphic(out, cycle_graph(6))
    # the other orientation of the same edge pair splits into two triangles
    out2 = two_switch(cycle_graph(6), (0, 1), (4, 3))
    assert are_isomorphic(out2, disjoint_union([cycle_graph(3), cycle_graph(3)]))


def test_two_switch_errors_name_failed_pair():
    c4 = cycle_graph(4)
    with pytest.raises(ValueError, match="not an edge"):
        two_switch(c4, (0, 2), (1, 3))
    with pytest.raises(ValueError, match="already adjacent"):
        two_switch(cycle_graph(5), (0, 1), (4, 3))
    with pytest.raises(ValueError, match="distinct"):
        two_switch(c4, (0, 1), (1, 2))
    with pytest.raises(ValueError, match=r"0\.\.3, got \(0, 1\) and \(4, 2\)"):
        two_switch(c4, (0, 1), (4, 2))
    with pytest.raises(ValueError, match=r"0\.\.3, got \(1, 2\) and \(-1, 0\)"):
        two_switch(c4, (1, 2), (-1, 0))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_two_switch_preserves_degrees(seed):
    import random as _random

    rng = _random.Random(seed)
    g = random_regular(3, 10, seed=seed)
    edges = list(g.edges())
    for _ in range(20):
        e1 = rng.choice(edges)
        e2 = rng.choice(edges)
        if rng.getrandbits(1):
            e2 = (e2[1], e2[0])
        try:
            g2 = two_switch(g, e1, e2)
        except ValueError:
            continue
        assert g2.degrees() == g.degrees()
        g = g2
        edges = list(g.edges())


def test_random_regular_unique_small_classes():
    # only one 1-regular graph on 6 vertices and one 2-regular on 5
    assert are_isomorphic(random_regular(1, 6, seed=5), matching_graph(3))
    assert are_isomorphic(random_regular(2, 5, seed=9), cycle_graph(5))


def test_random_regular_zero_degree_is_the_empty_graph():
    for n in range(1, 9):
        for seed in (0, 1, 7, 12345):
            assert random_regular(0, n, seed=seed) == empty_graph(n)


def test_random_regular_deterministic():
    a = random_regular(3, 12, seed=123)
    b = random_regular(3, 12, seed=123)
    assert a == b
    c = random_regular(3, 12, seed=124)
    assert a != c


def test_random_regular_is_regular():
    for k, n, seed in [(3, 10, 0), (4, 11, 1), (6, 20, 2), (5, 12, 3)]:
        g = random_regular(k, n, seed=seed)
        assert set(g.degrees()) == {k}
        g.validate()


def test_random_regular_rejects_bad_params():
    with pytest.raises(ValueError):
        random_regular(3, 5, seed=0)
    with pytest.raises(ValueError):
        random_regular(5, 5, seed=0)
    # Random(-2) draws Random(2)'s stream, so a census from seed -2 would repeat graphs
    with pytest.raises(ValueError, match="-2"):
        random_regular(3, 12, seed=-2)
    with pytest.raises(ValueError, match="-2"):
        list(enumerate_regular(RegularGenSpec(k=3, n=12, mode="random", count=5, seed=-2)))


def test_random_mode_stream():
    spec = RegularGenSpec(k=3, n=8, mode="random", count=5, seed=7)
    got = list(enumerate_regular(spec))
    assert len(got) == 5
    assert all(set(g.degrees()) == {3} for g in got)


@pytest.mark.parametrize(
    "k,n,digest",
    [
        (3, 30, "a8ce65a79f08c95059e6f4906f1c17405c2a32b52dfe9d8ad4ac31b2a6f3cd6f"),
        (4, 40, "2b1894221ba60e588d4c7c41b4d529851041b447e9aa1d22603afafb60f11052"),
        (6, 60, "663238f96a1dabfe8b445c3fdcd9ed9ad3ddaaa7bd387777c86297f6366d8758"),
        # edge counts m = 3, 5, 12, 8, 30, 9, 17: tiny, or at or just past
        # a power of two, where the width of the index draw changes
        (1, 6, "dc226a7d9b3628a4cbbbad30023bc5198291827208e99bcb315a63cc56cf81b0"),
        (2, 5, "31634cd811186e9d3fc90f345fbf3417d0e9d63debfc02722d6f0f4a95086f9b"),
        (3, 8, "24060c122391b2d8ef01b34e4107547f7add69270f2eacc1149fa4538b15ca99"),
        (2, 8, "8f3ec8a3fef47bbc35e3bc6d7e600d0172b0201ee11b01e307a66ed85090f85d"),
        (5, 12, "0e9b17b9182cb8645b813ea51194ae8d7bc2ca952cfe5338ec94785e25733314"),
        (3, 6, "0d3b7c5874c2be84e446cbecd453e20c0e7144ba3c8b45912744776a865c8b17"),
        (1, 34, "74b5d8dd621e1b2856462f45e540954716bc69708dde49d33dffb3949091e98d"),
    ],
)
def test_random_regular_seeded_outputs_are_pinned(k, n, digest):
    # seeds 0..9; computed with the burn-in drawing through randrange, so
    # they guard the inlined draw and any later rewrite of the pairing
    listing = "\n".join(encode(random_regular(k, n, seed=s)) for s in range(10))
    assert hashlib.sha256(listing.encode()).hexdigest() == digest


def test_inline_index_draw_matches_randrange():
    # _burn_in inlines this loop in place of rng.randrange(m); an interpreter
    # whose randrange draws differently must fail here, not change outputs
    import random

    for m in range(2, 301):
        ref = random.Random(m)
        rng = random.Random(m)
        width = m.bit_length()
        for _ in range(50):
            i = rng.getrandbits(width)
            while i >= m:
                i = rng.getrandbits(width)
            assert i == ref.randrange(m)
            # the burn-in interleaves one-bit draws for the edge orientation
            assert rng.getrandbits(1) == ref.getrandbits(1)


@pytest.mark.parametrize("k,n", [(3, 30), (4, 40), (6, 20)])
@pytest.mark.parametrize("seed", [0, 1])
def test_burn_in_replays_two_switch(k, n, seed):
    # the same pairing, then BURN_IN_FACTOR * n attempts drawn in the
    # burn-in's order (i, j, skip i == j, then the orientation bit), each
    # switched through the reference two_switch and skipped where it refuses
    import random

    rng = random.Random(seed)
    edges = None
    while edges is None:
        edges = regular._try_pairing(rng, n, k)
    edges = sorted(edges)
    g = Graph.from_edges(n, edges)
    m = len(edges)
    for _ in range(regular.BURN_IN_FACTOR * n):
        i = rng.randrange(m)
        j = rng.randrange(m)
        if i == j:
            continue
        (a, b), (u, v) = edges[i], edges[j]
        if rng.getrandbits(1):
            u, v = v, u
        try:
            g = two_switch(g, (a, b), (u, v))
        except ValueError:
            continue
        edges[i], edges[j] = (a, u), (b, v)
    assert g == random_regular(k, n, seed=seed)


# -- the cubic expansion closure as an oracle --------------------------------

@lru_cache(maxsize=None)
def _cubic_classes_all_pairs(n):
    """The expansion closure inserting every unordered edge pair (oracle).

    Built from the 2-edge reduction theorem, not from labelings, so it
    shares nothing with the library's row-by-row route but the final
    canonical sort. Its unions are every multiset of connected classes
    over each partition of n into even parts >= 4.
    """
    if n < 4 or n % 2:
        return ()
    if n == 4:
        return (canonical_graph(complete_graph(4)),)
    candidates = []
    for g in _cubic_classes_all_pairs(n - 2):
        for e1, e2 in combinations(list(g.edges()), 2):
            candidates.append(edge_insert(g, e1, e2))
    for part in _partitions_min_part(n, 4):
        if len(part) < 2 or any(p % 2 for p in part):
            continue
        sizes = {}
        for p in part:
            sizes[p] = sizes.get(p, 0) + 1
        pools = [
            list(
                combinations_with_replacement(
                    [g for g in _cubic_classes_all_pairs(s) if is_connected(g)], mult
                )
            )
            for s, mult in sorted(sizes.items())
        ]
        for choice in product(*pools):
            candidates.append(disjoint_union([g for group in choice for g in group]))
    candidates.extend(irreducible_cubic_connected(n))
    return _sorted_canonical(candidates)


@pytest.mark.parametrize(
    "n", [6, 8, 10, pytest.param(12, marks=pytest.mark.slow)]
)
def test_orbit_pruned_cubic_classes_match_all_pairs_oracle(n, cold_class_cache):
    assert cold_class_cache()(3, n) == _cubic_classes_all_pairs(n)


@pytest.mark.parametrize(
    "n,digest",
    [
        (10, "a947ceb3adb7199fbff75de6ee3696cca307222cbb106bf1bf341817c7b4aa75"),
        (12, "52768e92a390cc0d6b20d2f2740ad6477756cb880498ce600bab1069f6ba281a"),
    ],
)
def test_cubic_class_list_digest_is_pinned(n, digest):
    listing = "\n".join(sorted(encode(g) for g in _regular_classes(3, n)))
    assert hashlib.sha256(listing.encode()).hexdigest() == digest


# -- transposition-pruned generic route --------------------------------------

def _tail_ge(a, b):
    # lexicographic from the low bit: first differing position must be in a
    diff = a ^ b
    if not diff:
        return True
    return bool(a & (diff & -diff))


def _consecutive_pruned_labeled_regular(n, k):
    """The generic route pruned only by N(0) = {1..k} and the consecutive-row rule (oracle)."""
    rows = [0] * n
    deg = [0] * n
    out = []

    def feasible(v):
        residual = [k - deg[w] for w in range(v + 1, n)]
        if sum(residual) % 2:
            return False
        open_idx = [w for w in range(v + 1, n) if deg[w] < k]
        for w in open_idx:
            free = sum(1 for u in open_idx if u != w and not (rows[w] >> u) & 1)
            if k - deg[w] > free:
                return False
        return True

    def place(v):
        if v == n:
            out.append(Graph(n, rows.copy()))
            return
        need = k - deg[v]
        if need < 0:
            return
        avail = [w for w in range(v + 1, n) if deg[w] < k and not (rows[v] >> w) & 1]
        if need > len(avail):
            return
        for combo in combinations(avail, need):
            for w in combo:
                rows[v] |= 1 << w
                rows[w] |= 1 << v
                deg[v] += 1
                deg[w] += 1
            ok = True
            if v >= 1:
                low = (1 << (v - 1)) - 1
                if (rows[v - 1] & low) == (rows[v] & low):
                    ok = _tail_ge(rows[v - 1] >> (v + 1), rows[v] >> (v + 1))
            if ok and feasible(v):
                place(v + 1)
            for w in combo:
                rows[v] &= ~(1 << w)
                rows[w] &= ~(1 << v)
                deg[v] -= 1
                deg[w] -= 1

    for w in range(1, k + 1):
        rows[0] |= 1 << w
        rows[w] |= 1
        deg[w] = 1
    deg[0] = k
    place(1)
    return out


_GENERIC_CASES = [
    (n, k) for n in range(5, 10) for k in range(2, n - 1) if (n * k) % 2 == 0
]


@pytest.mark.parametrize("n,k", _GENERIC_CASES)
def test_transposition_pruning_keeps_every_class(n, k):
    assert _sorted_canonical(_pruned_labeled_regular(n, k)) == _sorted_canonical(
        _consecutive_pruned_labeled_regular(n, k)
    )


def _upper_string(g):
    return "".join(
        str((g.rows[i] >> j) & 1) for i in range(g.n) for j in range(i + 1, g.n)
    )


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=9))
def test_transposition_test_matches_string_comparison(g):
    before = _upper_string(g)
    for a, b in combinations(range(g.n), 2):
        swap = list(range(g.n))
        swap[a], swap[b] = b, a
        after = _upper_string(relabel(g, swap))
        assert transposition_raises(g.rows[a], g.rows[b], a, b) == (after > before)
    # with rows 0..v placed, the placed columns of two later neighbours
    # decide their swap whenever they differ
    for v in range(g.n):
        placed = (2 << v) - 1
        for w in range(v + 1, g.n - 1):
            rw, rx = g.rows[w] & placed, g.rows[w + 1] & placed
            if rw != rx:
                assert transposition_raises(rw, rx, w, w + 1) == transposition_raises(
                    g.rows[w], g.rows[w + 1], w, w + 1
                )


@st.composite
def partial_row_states(draw):
    """(rows, v, cm): rows 0..v-1 placed, the rest on columns < v, and a combination for row v.

    The rows of w >= v + 1 are sorted so that every consecutive pair of
    them passes its swap test, as at a node of the generic route; they
    are drawn from a small pool so that equal rows are common.
    """
    n = draw(st.integers(min_value=2, max_value=10))
    v = draw(st.integers(min_value=0, max_value=n - 1))
    placed = draw(graphs(min_n=v, max_n=v))
    pool = draw(st.lists(st.integers(min_value=0, max_value=(1 << v) - 1), min_size=1, max_size=3))
    masks = [draw(st.sampled_from(pool)) for _ in range(v, n)]
    # the lowest column where two rows differ decides their swap
    masks[1:] = sorted(masks[1:], key=lambda m: int(f"{m:0{v + 1}b}"[::-1], 2), reverse=True)
    rows = list(placed.rows) + masks
    for w in range(v, n):
        for a in bits(masks[w - v]):
            rows[a] |= 1 << w
    cm = draw(st.integers(min_value=0, max_value=(1 << n) - 1)) & -(2 << v)  # within v+1..n-1
    return rows, v, cm


@settings(max_examples=300, deadline=None)
@given(partial_row_states())
def test_mask_rule_and_placed_swap_helper_match_the_per_pair_calls(state):
    rows, v, cm = state
    n = len(rows)
    assert not any(
        transposition_raises(rows[w], rows[w + 1], w, w + 1) for w in range(v + 1, n - 1)
    )
    tied = sum(1 << w for w in range(v + 2, n) if rows[w] == rows[w - 1])
    after = list(rows)
    after[v] |= cm
    for w in bits(cm):
        after[w] |= 1 << v
    assert bool(tied & cm & ~(cm << 1)) == any(
        transposition_raises(after[w], after[w + 1], w, w + 1) for w in range(v + 1, n - 1)
    )
    assert _placed_swap_raises(rows, after[v], v) == any(
        transposition_raises(rows[a], after[v], a, v) for a in range(v)
    )
    if v:
        assert _common_neighbours_raise(after, v) == common_neighbours_raise_reference(after, v)


def _maximal_labeling(g):
    """The labeling of g with the largest upper-triangle string, by brute force."""
    pairs = list(combinations(range(g.n), 2))
    best = None
    for order in permutations(range(g.n)):  # new vertex i is old vertex order[i]
        key = tuple((g.rows[order[i]] >> order[j]) & 1 for i, j in pairs)
        if best is None or key > best[0]:
            best = (key, order)
    perm = [0] * g.n
    for new, old in enumerate(best[1]):
        perm[old] = new
    return relabel(g, perm)


def test_maximal_labeling_survives_the_generic_pruning():
    checked = 0
    for n in range(2, 8):
        for k in range(1, n):
            if (n * k) % 2:
                continue
            for g in enumerate_regular_brute(k, n):
                h = _maximal_labeling(g)
                assert h.rows[0] == sum(1 << w for w in range(1, k + 1))
                assert not any(
                    transposition_raises(h.rows[a], h.rows[b], a, b)
                    for a, b in combinations(range(n), 2)
                )
                # the common-neighbour counts both rules bound by c(0, 1) and c(1, 2)
                common = {
                    (a, b): (h.rows[a] & h.rows[b]).bit_count()
                    for a, b in combinations(range(n), 2)
                }
                assert common[0, 1] == max(c for e, c in common.items() if h.has_edge(*e))
                if common[0, 1] == 0 and n > 2:
                    assert common[1, 2] == max(common.values())
                assert not any(_common_neighbours_raise(h.rows, v) for v in range(1, n))
                if k >= 2:
                    assert h in _pruned_labeled_regular(n, k)
                checked += 1
    assert checked == 19


@pytest.mark.parametrize(
    "n,k,leaves,digest",
    [
        (9, 4, 39, "d04f3a896fdc443722bbe98ca7149d46c8ef9d8052fdf3ef47a649dd33fdf285"),
        (10, 4, 218, "bc32b673d4a4501c460703ea8aac4d97f01e68c49d46783e29f3891e11ed556d"),
        (11, 4, 1473, "569159f279a9414b8b629e3d29996755081b5ff4454ec193d5cfd7816bec557b"),
    ],
)
def test_generic_route_leaf_count_and_class_list_are_pinned(n, k, leaves, digest):
    labeled = _pruned_labeled_regular(n, k)
    assert len(labeled) == leaves
    assert all(g.rows[0] == (1 << (k + 1)) - 2 for g in labeled)
    listing = "\n".join(sorted(encode(g) for g in classes(k, n)))
    assert hashlib.sha256(listing.encode()).hexdigest() == digest


_REFERENCE_CASES = [
    (n, k) for n in range(4, 10) for k in range(2, n - 1) if (n * k) % 2 == 0
] + [(10, 3), (12, 3), (10, 4), (11, 4), pytest.param(14, 3, marks=pytest.mark.slow)]


def _record_rule_calls(monkeypatch, module, name):
    """Record (v, rows 0..v) at every call of a common-neighbour rule function."""
    calls = []
    rule = getattr(module, name)

    def recorded(rows, v):
        calls.append((v, tuple(rows[: v + 1])))
        return rule(rows, v)

    monkeypatch.setattr(module, name, recorded)
    return calls


@pytest.mark.parametrize("n,k", _REFERENCE_CASES)
def test_generic_route_matches_the_per_pair_reference(n, k, monkeypatch):
    # Both routes reach the common-neighbour rules exactly on the partial
    # graphs that pass both swap tests, so equal call records mean equal
    # swap decisions in the same order. Leaves alone would not show a
    # missing unplaced-pair test: the placed-pair test drops the same
    # graphs later.
    seen = _record_rule_calls(monkeypatch, regular, "_common_neighbours_raise")
    expected = _record_rule_calls(monkeypatch, oracles, "common_neighbours_raise_reference")
    assert [g.rows for g in _pruned_labeled_regular(n, k)] == [
        g.rows for g in pruned_labeled_regular_reference(n, k)
    ]
    assert seen == expected


# -- one full canonical search per class ---------------------------------------

@pytest.mark.parametrize(
    "k,n",
    [(3, n) for n in range(4, 13, 2)] + [(4, n) for n in range(5, 12)] + [(5, 8), (5, 10), (6, 10)],
)
def test_class_lists_match_one_plain_search_per_leaf(k, n, cold_class_cache, monkeypatch):
    # the leaf memo only skips searches: the class list is the same, byte for byte
    monkeypatch.setattr(regular, "_sorted_canonical", sorted_canonical_reference)
    expected = cold_class_cache()(k, n)
    monkeypatch.setattr(regular, "_sorted_canonical", _sorted_canonical)
    assert cold_class_cache()(k, n) == expected


def _count_searches(monkeypatch):
    """Count canonical_graph calls from `regular`, and the searches that pass their first leaf."""
    counts = {"calls": 0, "full": 0}
    real_leaf = canon._CanonSearch._leaf

    def leaf(self, *args):
        first = self.first is None
        resume = real_leaf(self, *args)
        counts["full"] += first and resume >= 0
        return resume

    def counting_canonical_graph(*args):
        counts["calls"] += 1
        return canonical_graph(*args)

    monkeypatch.setattr(canon._CanonSearch, "_leaf", leaf)
    monkeypatch.setattr(regular, "canonical_graph", counting_canonical_graph)
    return counts


@pytest.mark.parametrize("k,n,count", [(3, 12, 94), (4, 10, 60), (4, 11, 266)])
def test_one_full_search_per_class(k, n, count, cold_class_cache, monkeypatch):
    leaves = len(_pruned_labeled_regular(n, k))
    cache = cold_class_cache()
    counts = _count_searches(monkeypatch)
    assert len(cache(k, n)) == count
    assert counts == {"calls": leaves, "full": count}


def test_full_searches_repeat_on_a_cold_cache(cold_class_cache, monkeypatch):
    # no memo outlives its call, so a cold request costs the same each time
    cache = cold_class_cache()
    counts = _count_searches(monkeypatch)
    specs = (RegularGenSpec(3, 12), RegularGenSpec(4, 9))
    seen = []
    for _ in range(2):
        cache.cache_clear()
        before = dict(counts)
        assert sum(len(list(enumerate_regular(spec))) for spec in specs) == 110
        seen.append({key: counts[key] - before[key] for key in counts})
    assert seen[0] == seen[1] == {"calls": 340 + 39, "full": 110}
