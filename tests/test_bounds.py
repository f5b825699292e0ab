from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cliquedyn import (
    Graph,
    bits,
    bound_report,
    bound_table,
    complement,
    complete_bipartite,
    complete_graph,
    cotriangle_adjacency_profile,
    cotriangle_lower_bound,
    cotriangle_lower_bound_exact,
    cotriangles,
    cycle_graph,
    disjoint_union,
    helly_threshold,
    random_regular,
    threshold_poly,
    triangle_sum_rhs,
    verify_triangle_sum,
    vertex_cotriangle_cap,
)

from oracles import cotriangle_adjacent_vertices
from strategies import graphs


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


def test_triangle_sum_rhs_values():
    assert triangle_sum_rhs(5, 2) == 0
    assert triangle_sum_rhs(4, 3) == 4
    assert triangle_sum_rhs(10, 3) == 30


def test_triangle_sum_rhs_parity_guard():
    with pytest.raises(ValueError):
        triangle_sum_rhs(5, 3)  # no 3-regular graph on 5 vertices


def test_verify_triangle_sum_examples():
    assert verify_triangle_sum(petersen())
    assert verify_triangle_sum(complete_bipartite(3, 3))
    assert verify_triangle_sum(cycle_graph(7))
    with pytest.raises(ValueError):
        verify_triangle_sum(Graph.from_edges(3, [(0, 1)]))


def test_cotriangle_lower_bound_values():
    assert cotriangle_lower_bound(14, 3) == 140
    # 20 - 18 - 6; vacuous since negative
    assert cotriangle_lower_bound(6, 3) == -4
    for n in range(1, 8):
        assert cotriangle_lower_bound(n, 0) == comb(n, 3)


def test_cotriangle_lower_bound_fractional_cases():
    # nk(k-1) not divisible by 6: the exact value is fractional and the
    # integer form is its ceiling, still a valid lower bound
    exact = cotriangle_lower_bound_exact(22, 5)
    assert exact.denominator != 1
    assert cotriangle_lower_bound(22, 5) == -((-exact.numerator) // exact.denominator)


def test_vertex_cotriangle_cap_values():
    assert vertex_cotriangle_cap(14, 3) == 25
    assert vertex_cotriangle_cap(8, 1) == 0
    k = 4
    assert vertex_cotriangle_cap(4 * k, k) == comb(k, 2) * 2 * k + comb(k, 3)
    with pytest.raises(ValueError):
        vertex_cotriangle_cap(11, 3)
    with pytest.raises(ValueError, match="k >= 1"):
        vertex_cotriangle_cap(5, 0)


def test_threshold_poly_values():
    assert threshold_poly(14, 3) == 10
    for k in range(1, 8):
        assert threshold_poly(3 * k, k) == -2 * k * k + k
        assert threshold_poly(3 * k, k) < 0


def test_threshold_poly_roots():
    # integer check of the root location: poly changes sign at 3k +- sqrt(2k^2-k)
    for k in range(1, 30):
        n = helly_threshold(k)
        assert threshold_poly(n, k) > 0
        assert threshold_poly(n - 1, k) <= 0


def test_helly_threshold_values():
    assert helly_threshold(1) == 5
    assert helly_threshold(2) == 9
    assert helly_threshold(3) == 13
    with pytest.raises(ValueError):
        helly_threshold(0)


def test_threshold_monotone():
    values = [helly_threshold(k) for k in range(1, 21)]
    assert values == sorted(values)


def test_count_cotriangles_at_vertex_examples():
    assert cotriangle_adjacency_profile(complete_graph(5))[0] == 0
    two_k33 = disjoint_union([complete_bipartite(3, 3)] * 2)
    profile = cotriangle_adjacency_profile(two_k33)
    for x in range(12):
        assert profile[x] == vertex_cotriangle_cap(12, 3) == 19
    assert cotriangle_adjacency_profile(cycle_graph(6))[0] == 1


def test_incidence_count_examples():
    assert sum(cotriangle_adjacency_profile(complete_graph(6))) == 0
    assert sum(cotriangle_adjacency_profile(cycle_graph(6))) == 6


def _profile_oracle(g):
    """Per-vertex cotriangle adjacency counts from one pass over every cotriangle."""
    counts = [0] * g.n
    for t in cotriangles(g):
        for v in bits(cotriangle_adjacent_vertices(g, t)):
            counts[v] += 1
    return counts


def _at_vertex_oracle(g, x):
    """Cotriangles with at least two members adjacent to x, by testing each one."""
    row = g.rows[x]
    total = 0
    for a, b, c in cotriangles(g):
        if ((row >> a) & 1) + ((row >> b) & 1) + ((row >> c) & 1) >= 2:
            total += 1
    return total


@given(graphs())
def test_incidence_double_counting(g):
    # vertex side (the library) against the cotriangle side (the definition)
    by_cotriangle = sum(
        cotriangle_adjacent_vertices(g, t).bit_count() for t in cotriangles(g)
    )
    profile = cotriangle_adjacency_profile(g)
    assert sum(profile) == by_cotriangle
    assert profile == [_at_vertex_oracle(g, x) for x in range(g.n)]


def test_incidence_double_counting_many_random():
    import random

    rng = random.Random(17)
    for _ in range(500):
        n = rng.randrange(0, 9)
        pairs = n * (n - 1) // 2
        g = Graph.from_upper_bits(n, rng.getrandbits(pairs) if pairs else 0)
        profile = cotriangle_adjacency_profile(g)
        assert sum(profile) == sum(_profile_oracle(g))
        for x in range(n):
            assert profile[x] == _at_vertex_oracle(g, x)


@given(graphs(max_n=10))
def test_profile_matches_cotriangle_oracle(g):
    assert cotriangle_adjacency_profile(g) == _profile_oracle(g)


@pytest.mark.parametrize("k,n", [(3, 30), (4, 40), (6, 60)])
def test_profile_matches_cotriangle_oracle_on_random_regular(k, n):
    for seed in range(4):
        g = random_regular(k, n, seed=seed)
        profile = cotriangle_adjacency_profile(g)
        assert profile == _profile_oracle(g)
        for x in (0, n // 2, n - 1):
            assert profile[x] == _at_vertex_oracle(g, x)
        assert max(profile) <= vertex_cotriangle_cap(n, k)


def test_bound_report_contradiction_is_exact():
    # identity: n*cap - k*lb_exact == -(k*n/6) * poly, so the
    # contradiction flag must match the poly sign for n >= 4k
    for k in range(1, 7):
        for n in range(4 * k, 4 * k + 12):
            rep = bound_report(n, k)
            lhs = Fraction(n * rep.per_vertex_cap) - k * cotriangle_lower_bound_exact(n, k)
            assert lhs == -Fraction(k * n, 6) * threshold_poly(n, k)
            assert rep.contradiction == (threshold_poly(n, k) > 0)


def test_bound_table_rows():
    rows = bound_table(3)
    assert [r.k for r in rows] == [1, 2, 3]
    assert [r.n for r in rows] == [5, 9, 13]
    assert all(r.contradiction for r in rows)
    with pytest.raises(ValueError):
        bound_table(0)


def test_triangle_sum_exhaustive_small_orders():
    from cliquedyn.regular import RegularGenSpec, enumerate_regular

    for n in range(3, 10):
        for k in range(0, n):
            if (n * k) % 2:
                continue
            for g in enumerate_regular(RegularGenSpec(k=k, n=n)):
                assert verify_triangle_sum(g)


def test_triangle_sum_exhaustive_n10_all_degrees():
    from cliquedyn.regular import RegularGenSpec, enumerate_regular

    for k in range(0, 10):
        for g in enumerate_regular(RegularGenSpec(k=k, n=10)):
            assert verify_triangle_sum(g)


@given(graphs(min_n=1, max_n=6))
def test_triangle_sum_relabel_invariant(g):
    import random as _random

    from cliquedyn import relabel
    from cliquedyn.helly import triangle_count

    perm = list(range(g.n))
    _random.Random(1).shuffle(perm)
    h = relabel(g, perm)
    total = triangle_count(g) + triangle_count(complement(g))
    assert triangle_count(h) + triangle_count(complement(h)) == total


@given(st.integers(1, 40))
def test_threshold_matches_float_estimate(k):
    # the exact integer threshold agrees with the real-valued inequality
    import math

    bound = 3 * k + math.sqrt(2 * k * k - k)
    n = helly_threshold(k)
    assert n > bound
    assert n - 1 <= bound + 1e-9
