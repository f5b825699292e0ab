import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquedyn import (
    ConnectedSumCertificate,
    CycleComplementCertificate,
    Limits,
    OctahedronCertificate,
    ThreeSummandsCertificate,
    are_isomorphic,
    canonical_form,
    certificate_is_valid,
    classify_behavior,
    clique_graph,
    complement,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    divergence_certificate,
    empty_graph,
    is_helly,
    join_summands,
    octahedron,
)
from cliquedyn.graph6 import decode

from strategies import graphs


def test_join_summands_examples():
    g = complement(disjoint_union([cycle_graph(3), cycle_graph(5)]))
    parts = join_summands(g)
    assert len(parts) == 2
    forms = {canonical_form(p) for _, p in parts}
    assert forms == {
        canonical_form(complement(cycle_graph(3))),
        canonical_form(complement(cycle_graph(5))),
    }

    k33 = complete_bipartite(3, 3)
    parts = join_summands(k33)
    assert len(parts) == 2
    assert all(p.edge_count() == 0 and p.n == 3 for _, p in parts)

    c5 = cycle_graph(5)
    parts = join_summands(c5)
    assert len(parts) == 1 and parts[0][1] is c5

    with pytest.raises(ValueError):
        join_summands(empty_graph(0))


@given(graphs(min_n=1))
def test_join_summands_reconstruct(g):
    from cliquedyn import join

    parts = join_summands(g)
    rebuilt = parts[0][1]
    order = list(parts[0][0])
    for block, part in parts[1:]:
        rebuilt = join(rebuilt, part)
        order.extend(block)
    # rebuilt graph under the block ordering must equal g
    from cliquedyn import relabel

    perm = [0] * g.n
    for new, old in enumerate(order):
        perm[old] = new
    assert relabel(g, perm) == rebuilt


def test_octahedron_certificates():
    cert = divergence_certificate(octahedron(3))
    assert isinstance(cert, OctahedronCertificate) and cert.m == 3
    assert certificate_is_valid(octahedron(3), cert)
    cert4 = divergence_certificate(octahedron(4))
    assert isinstance(cert4, OctahedronCertificate) and cert4.m == 4
    # small octahedra are not divergent
    assert divergence_certificate(octahedron(2)) is None
    assert divergence_certificate(octahedron(1)) is None


def test_cycle_complement_certificates():
    for n in range(8, 13):
        g = complement(cycle_graph(n))
        cert = divergence_certificate(g)
        assert isinstance(cert, CycleComplementCertificate) and cert.n == n
        assert certificate_is_valid(g, cert)
    for n in range(4, 8):
        assert divergence_certificate(complement(cycle_graph(n))) is None
    # complement 2-regular but disconnected: not a cycle complement
    g = complement(disjoint_union([cycle_graph(4), cycle_graph(5)]))
    cert = divergence_certificate(g)
    assert not isinstance(cert, CycleComplementCertificate)
    assert cert is None or certificate_is_valid(g, cert)


def test_connected_sum_certificate():
    g = complement(disjoint_union([cycle_graph(3), cycle_graph(5)]))
    cert = divergence_certificate(g)
    assert isinstance(cert, ConnectedSumCertificate)
    assert certificate_is_valid(g, cert)


def test_three_summands_certificate():
    g = complement(disjoint_union([cycle_graph(3)] * 3))
    cert = divergence_certificate(g)
    assert isinstance(cert, ThreeSummandsCertificate)
    assert certificate_is_valid(g, cert)


def test_c4_gets_no_certificate():
    # both join summands are coaffinable but neither is connected
    assert divergence_certificate(cycle_graph(4)) is None


def test_tampered_certificates_fail_validation():
    g = octahedron(3)
    cert = divergence_certificate(g)
    bad = OctahedronCertificate(cert.m, tuple(reversed(cert.mapping)))
    # reversing the pairing map breaks adjacency preservation
    assert not certificate_is_valid(g, bad) or are_isomorphic(g, g)
    wrong_graph = cycle_graph(6)
    assert not certificate_is_valid(wrong_graph, cert)


def test_classify_small_convergent():
    r = classify_behavior(complete_graph(5))
    assert r.is_convergent and r.tail <= 1 and r.period == 1

    r = classify_behavior(cycle_graph(4))
    assert r.is_convergent and (r.tail, r.period) == (0, 1)

    r = classify_behavior(empty_graph(0))
    assert r.is_convergent and (r.tail, r.period) == (0, 1)

    r = classify_behavior(complete_graph(1))
    assert r.is_convergent and (r.tail, r.period) == (0, 1)


def test_classify_divergent_at_iterate_zero():
    r = classify_behavior(octahedron(4))
    assert r.is_divergent
    assert isinstance(r.certificate, OctahedronCertificate)
    assert r.certificate.m == 4
    assert r.detected_at == 0


def test_classify_prism_cycle():
    r = classify_behavior(complement(cycle_graph(6)))
    assert r.is_convergent and (r.tail, r.period) == (0, 2)


def test_convergence_repetition_is_recheckable():
    g = complement(cycle_graph(7))
    r = classify_behavior(g)
    assert r.is_convergent
    cur = g
    for _ in range(r.tail):
        cur, _ = clique_graph(cur)
    first = canonical_form(cur)
    for _ in range(r.period):
        cur, _ = clique_graph(cur)
    assert canonical_form(cur) == first


def test_unknown_on_tight_limits():
    # a divergent graph whose certificate is suppressed by tiny caps
    g = octahedron(5)
    r = classify_behavior(g, Limits(max_iterations=2, max_vertices=5, max_cliques=10))
    # octahedron certificate fires immediately regardless of caps
    assert r.is_divergent
    # but a convergent graph with too-small iteration allowance is unknown
    r2 = classify_behavior(
        complement(cycle_graph(7)), Limits(max_iterations=30, max_vertices=20000, max_cliques=3)
    )
    assert r2.status == "unknown" and r2.limit == "clique-cap"


def test_vertex_cap_stops_before_building_the_iterate():
    # complement of a cubic graph on 8 vertices; K(g) has 16 vertices
    g = decode("G?~vf_")
    limits = Limits(max_iterations=30, max_vertices=8, max_cliques=2_000_000)
    r = classify_behavior(g, limits)
    assert r.status == "unknown" and r.limit == "vertex-cap"
    assert r.max_order_seen <= limits.max_vertices


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=7), st.integers(1, 16), st.integers(1, 4))
def test_clique_cap_above_vertex_cap_only_relabels(g, max_vertices, max_iterations):
    # the clique enumeration is bounded by min(max_cliques, max_vertices),
    # so raising max_cliques past max_vertices changes only the label
    tight = classify_behavior(g, Limits(max_iterations, max_vertices, max_vertices))
    loose = classify_behavior(g, Limits(max_iterations, max_vertices, 10 * max_vertices))
    a, b = tight.to_json(), loose.to_json()
    if tight.limit == "clique-cap":
        assert b.pop("limit") == "vertex-cap"
        a.pop("limit")
    assert a == b


def test_iteration_cap_reports_unknown():
    r = classify_behavior(
        complement(cycle_graph(6)), Limits(max_iterations=1, max_vertices=100, max_cliques=100)
    )
    # prism alternates with K_{2,3}; one application cannot close the loop
    assert r.status == "unknown" and r.limit == "iteration-cap"


def test_trace_is_recorded():
    r = classify_behavior(complement(cycle_graph(6)))
    assert len(r.trace) >= 2
    assert r.trace[0].order == 6


def test_limits_validation():
    with pytest.raises(ValueError):
        Limits(max_iterations=0)


def test_k_octahedron_doubling():
    for m in (2, 3):
        kg, _ = clique_graph(octahedron(m))
        assert are_isomorphic(kg, octahedron(2 ** (m - 1)))


def test_helly_graphs_do_not_classify_divergent():
    candidates = [
        complete_bipartite(3, 3),
        complement(disjoint_union([cycle_graph(3), cycle_graph(4)])),
        complement(disjoint_union([cycle_graph(4), cycle_graph(4)])),
        complement(cycle_graph(7)),
        cycle_graph(9),
        complete_graph(6),
    ]
    for g in candidates:
        assert is_helly(g).is_helly
        r = classify_behavior(g)
        assert not r.is_divergent
        assert r.is_convergent


@settings(max_examples=30, deadline=None)
@given(graphs(max_n=6))
def test_certificates_always_validate(g):
    cert = divergence_certificate(g)
    if cert is not None:
        assert certificate_is_valid(g, cert)


@settings(max_examples=25, deadline=None)
@given(graphs(max_n=5))
def test_classification_result_is_sound(g):
    r = classify_behavior(g, Limits(max_iterations=8, max_vertices=300, max_cliques=5000))
    if r.is_convergent:
        cur = g
        for _ in range(r.tail):
            cur, _ = clique_graph(cur)
        first = canonical_form(cur)
        for _ in range(r.period):
            cur, _ = clique_graph(cur)
        assert canonical_form(cur) == first
    elif r.is_divergent:
        cur = g
        for _ in range(r.detected_at):
            cur, _ = clique_graph(cur)
        assert certificate_is_valid(cur, r.certificate)
