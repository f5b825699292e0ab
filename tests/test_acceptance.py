"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The heavyweight artifacts (exhaustive cubic censuses) are shared
module-scoped fixtures.
"""
import hashlib
import random

import pytest

from cliquedyn import (
    DEFAULT_LIMITS,
    Limits,
    are_isomorphic,
    canonical_form,
    certificate_is_valid,
    check_cotriangle_cover,
    classify_behavior,
    clique_graph,
    complement,
    complete_bipartite,
    complete_graph,
    connected_components,
    cycle_graph,
    disjoint_union,
    empty_graph,
    encode,
    helly_threshold,
    induced,
    is_connected,
    is_helly,
    matching_graph,
    maximal_cliques,
    octahedron,
    random_regular,
    threshold_poly,
    verify_triangle_sum,
    vertex_cotriangle_cap,
)
from cliquedyn.behavior import OctahedronCertificate
from cliquedyn.bounds import cotriangle_adjacency_profile
from cliquedyn.graphs import Graph, bits
from cliquedyn.regular import RegularGenSpec, enumerate_regular

from oracles import helly_brute_oracle

# tight enough to dispose of divergent iterates quickly, generous enough
# that every convergent complement in these censuses closes its loop
SCAN_LIMITS = Limits(max_iterations=15, max_vertices=400, max_cliques=40_000)


def report(num: int, text: str) -> None:
    print(f"PASS criterion {num}: {text}")


@pytest.fixture(scope="module")
def two_regular_upto_9():
    out = []
    for n in range(3, 10):
        out.extend(enumerate_regular(RegularGenSpec(k=2, n=n)))
    return out


@pytest.fixture(scope="module")
def cubic_12():
    return list(enumerate_regular(RegularGenSpec(k=3, n=12)))


@pytest.fixture(scope="module")
def cubic_14():
    return list(enumerate_regular(RegularGenSpec(k=3, n=14)))


def test_criterion_1_octahedron_series():
    for m in (1, 2):
        g = octahedron(m)
        assert is_helly(g).is_helly, f"O_{m} must be Helly"
        r = classify_behavior(g)
        assert r.is_convergent, f"O_{m} must converge"
    for m in range(3, 7):
        g = octahedron(m)
        assert not is_helly(g).is_helly, f"O_{m} must not be Helly"
        r = classify_behavior(g)
        assert r.is_divergent and isinstance(r.certificate, OctahedronCertificate)
        assert r.certificate.m == m and r.detected_at == 0
        assert certificate_is_valid(g, r.certificate)
    report(1, "octahedra m=1,2 Helly+convergent; m=3..6 non-Helly divergent")


def test_criterion_2_cycle_complements():
    for n in range(4, 13):
        g = complement(cycle_graph(n))
        r = classify_behavior(g, DEFAULT_LIMITS)
        if n >= 8:
            assert r.is_divergent, f"complement of C_{n} must be divergent"
            assert r.certificate.kind == "cycle-complement"
            assert certificate_is_valid(g, r.certificate)
        else:
            assert r.is_convergent, f"complement of C_{n} must converge"
            assert r.tail is not None and r.period >= 1
    report(2, "cycle complements divergent iff n >= 8; n <= 7 converge in default limits")


def test_criterion_3_two_regular_equivalence(two_regular_upto_9):
    assert len(two_regular_upto_9) == 14
    for g in two_regular_upto_9:
        co = complement(g)
        helly = is_helly(co).is_helly
        r = classify_behavior(co, DEFAULT_LIMITS)
        assert r.status != "unknown", "no Unknown allowed in the 2-regular sweep"
        assert helly == r.is_convergent
    report(3, "2-regular n<=9: complement Helly iff convergent, zero Unknowns")


def test_criterion_4_cubic_bound_tightness(cubic_12, cubic_14, brute_regular_forms):
    # brute-force cross-check of the enumeration route at small orders first
    for n in (4, 6, 8):
        fast = {canonical_form(g) for g in enumerate_regular(RegularGenSpec(k=3, n=n))}
        brute = brute_regular_forms(3, n)
        assert fast == brute, f"enumeration disagrees with brute force at n={n}"

    connected_14 = sum(1 for g in cubic_14 if is_connected(g))
    assert connected_14 == 509, f"connected cubic count at n=14 is {connected_14}"
    listing_14 = "\n".join(sorted(encode(g) for g in cubic_14))
    assert hashlib.sha256(listing_14.encode()).hexdigest() == (
        "ebe779f7e3fdd0cbe23f401d87b5ea233fc5470327a142e643af13bd5442550f"
    ), "cubic class list at n=14 changed"

    helly_12 = [g for g in cubic_12 if is_helly(complement(g)).is_helly]
    assert len(helly_12) >= 1
    target = canonical_form(disjoint_union([complete_bipartite(3, 3)] * 2))
    assert any(canonical_form(g) == target for g in helly_12), "2xK33 exemplar missing"

    helly_14 = [g for g in cubic_14 if is_helly(complement(g)).is_helly]
    assert helly_14 == [], "no cubic graph on 14 vertices may have a Helly complement"
    report(4, "cubic censuses: n=12 has the 2xK33 Helly exemplar, n=14 has none (509 connected classes)")


def test_criterion_5_convergent_nonhelly_search(cubic_14):
    hit = None
    for g in cubic_14:
        co = complement(g)
        if is_helly(co).is_helly:
            continue
        r = classify_behavior(co, SCAN_LIMITS)
        if r.is_convergent:
            hit = (g, r)
            break
    assert hit is not None, "no convergent non-Helly complement found at n=14"
    g, r = hit
    co = complement(g)
    # re-validate the convergence trace from scratch
    cur = co
    for _ in range(r.tail):
        cur, _ = clique_graph(cur)
    first = canonical_form(cur)
    for _ in range(r.period):
        cur, _ = clique_graph(cur)
    assert canonical_form(cur) == first
    assert not is_helly(co).is_helly
    report(5, f"found cubic n=14 exemplar with convergent non-Helly complement "
              f"(tail {r.tail}, period {r.period})")


def test_criterion_6_triangle_sum_identity(two_regular_upto_9, cubic_12, cubic_14):
    for g in two_regular_upto_9 + cubic_12 + cubic_14:
        assert verify_triangle_sum(g)
    count = 0
    seed = 0
    while count < 1000:
        k = (seed % 6) + 1
        n = (seed * 7) % 27 + 4
        seed += 1
        if not (0 <= k < n <= 30) or (n * k) % 2:
            continue
        g = random_regular(k, n, seed=seed)
        assert verify_triangle_sum(g), f"identity failed for k={k} n={n} seed={seed}"
        count += 1
    report(6, "triangle/cotriangle sum identity exact on censuses + 1000 random regular graphs")


def _check_vertex_cap(g: Graph, k: int) -> None:
    cap = vertex_cotriangle_cap(g.n, k)
    profile = cotriangle_adjacency_profile(g)
    kkk = complete_bipartite(k, k)
    comp_of = {}
    for mask in connected_components(g):
        part = induced(g, mask)
        is_kkk = part.n == 2 * k and are_isomorphic(part, kkk)
        for v in bits(mask):
            comp_of[v] = is_kkk
    for v, c in enumerate(profile):
        assert c <= cap, f"vertex {v} exceeds the cotriangle cap"
        if c == cap:
            assert comp_of[v], "cap attained outside a K_{k,k} component"
        if comp_of[v]:
            assert c == cap, "K_{k,k} component vertex below the cap"


def test_criterion_7_per_vertex_cotriangle_cap(cubic_12, cubic_14):
    for g in cubic_12 + cubic_14:
        _check_vertex_cap(g, 3)
    done = 0
    seed = 0
    while done < 200:
        n = (12, 14, 16, 20)[seed % 4]
        g = random_regular(3, n, seed=1000 + seed)
        seed += 1
        _check_vertex_cap(g, 3)
        done += 1
    report(7, "per-vertex cotriangle cap holds; equality exactly at K_{3,3} components")


def test_criterion_8_cotriangle_cover(two_regular_upto_9, cubic_12, cubic_14):
    checked = 0
    for k, pool in ((2, two_regular_upto_9), (3, cubic_12 + cubic_14)):
        for g in pool:
            if is_helly(complement(g)).is_helly:
                assert check_cotriangle_cover(g, k) == []
                checked += 1
    assert checked >= 1
    report(8, f"cover check empty for all {checked} censused graphs with Helly complement")


def test_criterion_9_helly_oracle_equivalence():
    rng = random.Random(424242)
    trials = 0
    while trials < 5000:
        n = rng.randrange(0, 8)
        pairs = n * (n - 1) // 2
        g = Graph.from_upper_bits(n, rng.getrandbits(pairs) if pairs else 0)
        if len(maximal_cliques(g)) > 20:
            continue
        assert is_helly(g).is_helly == helly_brute_oracle(g)
        trials += 1
    named = [
        complete_graph(4),
        complete_graph(5),
        cycle_graph(3),
        cycle_graph(4),
        cycle_graph(5),
        cycle_graph(7),
        octahedron(1),
        octahedron(2),
        octahedron(3),
        complete_bipartite(3, 3),
        matching_graph(2),
        matching_graph(3),
        empty_graph(5),
        complement(cycle_graph(5)),
        complement(cycle_graph(6)),
        complement(cycle_graph(7)),
        complement(cycle_graph(8)),
        complement(disjoint_union([cycle_graph(3), cycle_graph(3)])),
        complement(disjoint_union([cycle_graph(3), cycle_graph(4)])),
        complement(disjoint_union([cycle_graph(3), cycle_graph(5)])),
        complement(disjoint_union([cycle_graph(4), cycle_graph(4)])),
        disjoint_union([complete_bipartite(3, 3)] * 2),
        complement(disjoint_union([complete_bipartite(3, 3)] * 2)),
    ]
    for g in named:
        assert is_helly(g).is_helly == helly_brute_oracle(g)
    report(9, "fast Helly decision matches the brute-force oracle on 5000 random + named graphs")


def test_criterion_10_threshold_table():
    assert helly_threshold(1) == 5
    assert helly_threshold(2) == 9
    assert helly_threshold(3) == 13
    for k in range(1, 21):
        n = helly_threshold(k)
        assert threshold_poly(n, k) > 0
        assert threshold_poly(n - 1, k) <= 0
    report(10, "N(1)=5, N(2)=9, N(3)=13; sign flip of the bound polynomial at N(k) for k<=20")


def test_criterion_11_clique_operator_oracles():
    kg, _ = clique_graph(cycle_graph(4))
    assert are_isomorphic(kg, cycle_graph(4))
    for n in range(1, 7):
        kg, _ = clique_graph(complete_graph(n))
        assert kg == complete_graph(1)
    kg, _ = clique_graph(octahedron(3))
    assert are_isomorphic(kg, octahedron(4))
    report(11, "K(C4)=C4, K(K_n)=K1, K(O3)=O4 against independently built targets")
