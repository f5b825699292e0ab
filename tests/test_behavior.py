import hashlib
import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquedyn import (
    DEFAULT_LIMITS,
    CliqueLimitError,
    ConnectedSumCertificate,
    CycleComplementCertificate,
    Graph,
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
    enumerate_regular,
    is_helly,
    join,
    join_summands,
    octahedron,
    relabel,
    triangle_count,
)
import cliquedyn.cliques
from cliquedyn import behavior
from cliquedyn.behavior import clique_count
from cliquedyn.graph6 import decode
from cliquedyn.regular import RegularGenSpec

from oracles import (
    classify_behavior_reference,
    divergence_certificate_reference,
    isomorphic_brute,
    triangle_count_reference,
)
import oracles
from strategies import graphs, permutations_of


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


def test_connected_sum_certificate_past_the_recursion_limit():
    # the coaffination search places one summand vertex per level; with
    # more levels than the recursion limit allows frames, it still finishes
    limit = sys.getrecursionlimit()
    g = join(complement(cycle_graph(limit + 100)), empty_graph(2))
    cert = divergence_certificate(g)
    assert isinstance(cert, ConnectedSumCertificate)
    assert certificate_is_valid(g, cert)
    assert sys.getrecursionlimit() == limit


def test_three_summands_certificate():
    g = complement(disjoint_union([cycle_graph(3)] * 3))
    cert = divergence_certificate(g)
    assert isinstance(cert, ThreeSummandsCertificate)
    assert certificate_is_valid(g, cert)


def test_c4_gets_no_certificate():
    # both join summands are coaffinable but neither is connected
    assert divergence_certificate(cycle_graph(4)) is None


def _swap(seq, i, j):
    out = list(seq)
    out[i], out[j] = out[j], out[i]
    return tuple(out)


def test_tampered_certificates_fail_validation():
    # each certificate validates as issued and fails after one tampering
    g = octahedron(3)
    cert = divergence_certificate(g)
    assert certificate_is_valid(g, cert)
    # 0 and 1 are antipodal in g; sending 1 to 2 maps the non-edge {0, 1} onto an edge
    assert not certificate_is_valid(g, OctahedronCertificate(cert.m, _swap(cert.mapping, 1, 2)))
    assert not certificate_is_valid(cycle_graph(6), cert)

    g = complement(cycle_graph(8))
    cert = divergence_certificate(g)
    assert certificate_is_valid(g, cert)
    assert not certificate_is_valid(g, CycleComplementCertificate(cert.n, _swap(cert.mapping, 0, 1)))

    g = complement(disjoint_union([cycle_graph(3)] * 3))
    cert = divergence_certificate(g)
    assert certificate_is_valid(g, cert)
    first, second, *rest = cert.blocks
    moved = (first[:-1], second + first[-1:], *rest)
    assert not certificate_is_valid(g, ThreeSummandsCertificate(moved, cert.coaffinations))

    # each summand is the complement of C6; swapping the ends of the cycle edges
    # 01, 23 and 45 moves every vertex off its closed neighborhood in the summand
    # but sends the cycle edge 12 to the non-edge 03, so it is no automorphism
    g = complement(disjoint_union([cycle_graph(6)] * 3))
    cert = divergence_certificate(g)
    assert isinstance(cert, ThreeSummandsCertificate) and cert.blocks[0] == tuple(range(6))
    assert certificate_is_valid(g, cert)
    swapped = ((1, 0, 3, 2, 5, 4),) + cert.coaffinations[1:]
    assert not certificate_is_valid(g, ThreeSummandsCertificate(cert.blocks, swapped))

    g = complement(disjoint_union([cycle_graph(3), cycle_graph(5)]))
    cert = divergence_certificate(g)
    assert certificate_is_valid(g, cert)
    fixed = (tuple(range(len(cert.blocks[0]))),) + cert.coaffinations[1:]
    assert not certificate_is_valid(g, ConnectedSumCertificate(cert.blocks, fixed, cert.connected_index))
    other = 1 - cert.connected_index
    assert not certificate_is_valid(g, ConnectedSumCertificate(cert.blocks, cert.coaffinations, other))


def test_short_or_out_of_range_certificates_fail_validation():
    # K3 is Helly, hence convergent; three blocks with no coaffination prove nothing
    k3 = complete_graph(3)
    assert not certificate_is_valid(k3, ThreeSummandsCertificate(((0,), (1,), (2,)), ()))
    # K_{2,2,1}: the singleton block has no coaffination, so two of three is short
    k221 = complement(disjoint_union([complete_graph(2), complete_graph(2), complete_graph(1)]))
    short = ThreeSummandsCertificate(((0, 1), (2, 3), (4,)), ((1, 0), (1, 0)))
    assert not certificate_is_valid(k221, short)
    # C4 = K_{2,2} is convergent; an empty third block must not make it a three-summand join
    c4 = cycle_graph(4)
    blocks = tuple(block for block, _ in join_summands(c4))
    padded = ThreeSummandsCertificate(blocks + ((),), ((1, 0), (1, 0), ()))
    assert not certificate_is_valid(c4, padded)
    g = complement(disjoint_union([cycle_graph(3), cycle_graph(5)]))
    cert = divergence_certificate(g)
    assert isinstance(cert, ConnectedSumCertificate)
    for index in (5, 2, cert.connected_index - 2):
        assert not certificate_is_valid(g, ConnectedSumCertificate(cert.blocks, cert.coaffinations, index))


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


def test_clique_cap_at_iterate_zero_is_not_enumerated_again(monkeypatch):
    # C7-bar has 7 maximal cliques; the cap of 3 stops iterate 0 as a clique-cap
    g = complement(cycle_graph(7))
    limits = Limits(5, 10, 3)
    r = classify_behavior(g, limits)
    assert r.status == "unknown" and r.limit == "clique-cap" and len(r.trace) == 1
    calls = []
    real = behavior.maximal_cliques

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(behavior, "maximal_cliques", counting)
    assert clique_count(g, r, limits) is None
    assert calls == []


def test_screen_builds_no_complement_on_random_inputs(monkeypatch):
    # the complement is built only for the cycle walk, after every degree
    # of g is n - 3; seeded G(n, 0.25) inputs and their iterates never get there
    scan = Limits(max_iterations=15, max_vertices=400, max_cliques=40_000)
    calls = []
    real = behavior.complement

    def counting(g):
        calls.append(g.n)
        return real(g)

    monkeypatch.setattr(behavior, "complement", counting)
    # the patched name is the one the screen calls
    assert classify_behavior(complement(cycle_graph(9)), scan).is_divergent
    assert calls == [9]
    calls.clear()
    rng = random.Random(25)
    iterates = 0
    for n in range(12, 20):
        for _ in range(4):
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.25]
            iterates += len(classify_behavior(Graph.from_edges(n, edges), scan).trace)
    assert iterates > 100
    assert calls == []


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


# -- pinned report bytes -------------------------------------------------------

def _pin_inputs():
    rng = random.Random(8)
    out = []
    for _ in range(400):
        n = rng.randrange(1, 14)
        p = rng.choice((0.2, 0.4, 0.5, 0.6, 0.8))
        out.append(
            Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        )
    # one per certified shape, each divergent at iterate 0
    return out + [
        octahedron(3),
        complement(cycle_graph(8)),
        complement(disjoint_union([cycle_graph(3), cycle_graph(5)])),
        complement(disjoint_union([cycle_graph(3)] * 3)),
    ]


_PIN_LIMITS = (
    Limits(max_iterations=15, max_vertices=400, max_cliques=40_000),
    Limits(max_iterations=4, max_vertices=60, max_cliques=30),
    Limits(max_iterations=6, max_vertices=25, max_cliques=1000),
)


@pytest.mark.parametrize(
    "limits, tripped, digest",
    [
        (
            _PIN_LIMITS[0],
            {"vertex-cap"},
            "124c8224c6571fa91041a0100715ba74d87c83f312c7245df8b55b78553ba4b3",
        ),
        (
            _PIN_LIMITS[1],
            {"clique-cap", "iteration-cap"},
            "6d601d9c6257f6fe4a558e2dc9aac88dcecccd64deae6fd0fb4c5dd878969fbe",
        ),
        (
            _PIN_LIMITS[2],
            {"vertex-cap", "iteration-cap"},
            "9501d15fb58821d7897f1ca4e741b735170aae9edf204d94d7b90a77da1e2cd8",
        ),
    ],
)
def test_classify_behavior_reports_are_pinned(limits, tripped, digest):
    # seeded G(n, p), n < 14; the digests were computed before the
    # classifier's exits and invariant scan were rewritten, so they guard
    # every trace fingerprint ("~" and canonical) and every exit's fields
    h = hashlib.sha256()
    outcomes = set()
    for g in _pin_inputs():
        doc = classify_behavior(g, limits).to_json()
        h.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
        outcomes.add(doc.get("limit") or doc["status"])
        if doc["status"] == "divergent" and doc["detected_at"] == 0:
            outcomes.add("divergent-at-0")
    assert h.hexdigest() == digest
    assert outcomes == {"convergent", "divergent", "divergent-at-0"} | tripped


def test_trace_orders_and_edge_counts_are_the_iterates():
    # the classifier takes each trace entry's edge count from the degree
    # sum of its invariant; replaying the clique graph sequence recounts it.
    # The reference, which canonizes both iterates of every repeat, gives
    # the same report.
    outcomes = set()
    for limits in _PIN_LIMITS:
        for g in _pin_inputs():
            doc = classify_behavior(g, limits).to_json()
            assert doc == classify_behavior_reference(g, limits).to_json()
            cur = g
            for i, stat in enumerate(doc["trace"]):
                if i:
                    cur, _ = clique_graph(cur)
                assert stat[:2] == [cur.n, cur.edge_count()]
            if doc["status"] == "divergent":
                outcomes.add("divergent-at-0" if doc["detected_at"] == 0 else "divergent-later")
            else:
                outcomes.add(doc.get("limit") or doc["status"])
    assert outcomes == {
        "convergent",
        "divergent-at-0",
        "divergent-later",
        "clique-cap",
        "vertex-cap",
        "iteration-cap",
    }


def _certificate_pin_inputs():
    rng = random.Random(9)
    shapes = [octahedron(m) for m in range(3, 7)]
    shapes += [complement(cycle_graph(n)) for n in range(8, 13)]
    shapes += [
        complement(disjoint_union([cycle_graph(3), cycle_graph(5)])),
        complement(disjoint_union([cycle_graph(3)] * 3)),
        join(octahedron(2), cycle_graph(5)),
    ]
    out = []
    for g in shapes:
        for _ in range(4):
            perm = list(range(g.n))
            rng.shuffle(perm)
            out.append(relabel(g, perm))
    for _ in range(400):
        n = rng.randrange(1, 14)
        p = rng.choice((0.6, 0.7, 0.8, 0.9))
        out.append(
            Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        )
    return out


def test_divergence_certificates_are_pinned():
    # relabeled inputs pin each shape's mapping and block order, not only its kind
    h = hashlib.sha256()
    kinds = set()
    for g in _certificate_pin_inputs():
        cert = divergence_certificate(g)
        h.update(json.dumps(cert and cert.to_json(), sort_keys=True).encode() + b"\n")
        kinds.add(cert and cert.kind)
    assert kinds == {None, "octahedron", "cycle-complement", "three-summands", "connected-sum"}
    assert h.hexdigest() == "213fdb512f8a3e448257cf823e485aec29b7c3227d84606448ffbda01ce6e646"


def test_screen_and_triangle_count_match_the_replaced_code_on_pinned_inputs():
    for g in _certificate_pin_inputs() + [empty_graph(0)]:
        assert divergence_certificate(g) == divergence_certificate_reference(g)
        assert triangle_count(g) == triangle_count_reference(g)


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=9))
def test_screen_and_triangle_count_match_the_replaced_code(g):
    assert divergence_certificate(g) == divergence_certificate_reference(g)
    assert triangle_count(g) == triangle_count_reference(g)


@settings(max_examples=200, deadline=None)
@given(st.lists(graphs(min_n=1, max_n=5), min_size=2, max_size=3), st.data())
def test_screen_matches_the_replaced_code_on_joins(summands, data):
    g = summands[0]
    for part in summands[1:]:
        g = join(g, part)
    g = relabel(g, data.draw(permutations_of(g.n)))
    assert divergence_certificate(g) == divergence_certificate_reference(g)
    assert triangle_count(g) == triangle_count_reference(g)


# -- the star proof of period-2 repeats -----------------------------------------

SCAN = Limits(max_iterations=15, max_vertices=400, max_cliques=40_000)


def _converge_inputs(seed: int, count: int = 200) -> list[Graph]:
    # the benchmark's converge shape: G(n, 0.25), n = 12..19 in equal shares
    rng = random.Random(seed)
    out = []
    for idx in range(count):
        n = 12 + idx % 8
        out.append(
            Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.25])
        )
    return out


def test_converge_shaped_reports_are_pinned():
    # computed before period-2 repeats were proved from stars; 181 of the
    # 200 end on such a repeat
    h = hashlib.sha256()
    periods = []
    for g in _converge_inputs(1219):
        doc = classify_behavior(g, SCAN).to_json()
        h.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
        periods.append(doc.get("period"))
    assert periods.count(2) == 181
    assert h.hexdigest() == "c678f50d3255a1650b0d729896bb9b8498034379acad357d0bb989e0bf599833"


def _all_graphs(max_n: int):
    for n in range(max_n + 1):
        pairs = n * (n - 1) // 2
        for upper in range(1 << pairs):
            yield Graph.from_upper_bits(n, upper)


def test_classify_behavior_matches_the_reference():
    # the reference builds, screens and canonizes both iterates of every
    # repeat; the pinned inputs are compared in
    # test_trace_orders_and_edge_counts_are_the_iterates
    cases = [(g, SCAN) for g in _converge_inputs(77)]
    cases += [(complement(h), SCAN) for h in enumerate_regular(RegularGenSpec(3, 10))]
    cases += [(g, DEFAULT_LIMITS) for g in _all_graphs(5)]
    for g, limits in cases:
        assert classify_behavior(g, limits).to_json() == classify_behavior_reference(g, limits).to_json()


def _star_passes(g: Graph, steps: int, cap: int):
    """(H, K^2(H), cliques of H, cliques of K(H)) for each iterate H of g,
    up to `steps` clique graphs, whose stars pass the star test."""
    iterates, cliques = [g], []
    try:
        for _ in range(steps):
            nxt, found = clique_graph(iterates[-1], cap=cap)
            iterates.append(nxt)
            cliques.append(found)
    except CliqueLimitError:
        pass
    for i in range(2, len(iterates)):
        h = iterates[i - 2]
        if behavior._stars_are_the_cliques(h.n, cliques[i - 2], cliques[i - 1]):
            yield h, iterates[i], cliques[i - 2], cliques[i - 1]


def _star_map(h: Graph, cliques, next_cliques) -> list[int]:
    # v -> the vertex of K^2(H) that is v's star
    index = {m: k for k, m in enumerate(next_cliques)}
    return [index[sum(1 << k for k, m in enumerate(cliques) if m >> v & 1)] for v in range(h.n)]


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=8))
def test_star_pass_proves_the_period_two_repeat(g):
    # the classifier neither builds nor screens K^2(H) on a pass, so no
    # certificate may exist for it: the screen finds none either
    for h, k2, cliques, next_cliques in _star_passes(g, 4, 300):
        if h.n <= 8:
            assert isomorphic_brute(h, k2)
        else:
            assert are_isomorphic(h, k2)
        assert relabel(h, _star_map(h, cliques, next_cliques)) == k2
        assert divergence_certificate(k2) is None


def test_star_pass_proves_the_period_two_repeat_on_converge_inputs():
    passes = 0
    for g in _converge_inputs(78, 40):
        for h, k2, cliques, next_cliques in _star_passes(g, 6, 400):
            assert are_isomorphic(h, k2)
            assert relabel(h, _star_map(h, cliques, next_cliques)) == k2
            passes += 1
    assert passes >= 30


def test_no_certificate_where_the_star_test_passes():
    # the seeded twin of the hypothesis test's last assertion, on
    # converge-shaped inputs, whose iterates are larger
    passes = 0
    for g in _converge_inputs(79, 300):
        for _, k2, _, _ in _star_passes(g, 6, 400):
            assert divergence_certificate(k2) is None
            passes += 1
    assert passes >= 300


def _counting(monkeypatch, name, *modules):
    # the orders of the graphs `name` is called on, through any of modules
    calls = []
    real = getattr(modules[0], name)

    def counting(*args, **kwargs):
        calls.append(args[0].n)
        return real(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return calls


def test_period_two_repeat_is_settled_by_one_canonical_form(monkeypatch):
    # K(K_{2,3}) is the prism and K(prism) is K_{2,3} again, iterates 5, 6, 5;
    # the stars of K_{2,3} are the prism's cliques, so one form fingerprints both
    g = complete_bipartite(2, 3)
    calls = _counting(monkeypatch, "canonical_form", behavior)
    r = classify_behavior(g)
    assert (r.tail, r.period) == (0, 2)
    assert [t.order for t in r.trace] == [5, 6, 5]
    assert calls == [5]
    # the reference, patched the same way, canonizes both iterates
    ref_calls = _counting(monkeypatch, "canonical_form", oracles)
    assert classify_behavior_reference(g).to_json() == r.to_json()
    assert ref_calls == [5, 5]


def test_period_two_repeat_is_neither_built_nor_screened(monkeypatch):
    # K_{2,3}'s stars are the prism's cliques, so iterate 2 is settled once
    # they are listed: two enumerations, one iterate built, two screens
    g = complete_bipartite(2, 3)
    listed = _counting(monkeypatch, "maximal_cliques", behavior, cliquedyn.cliques)
    built = _counting(monkeypatch, "clique_graph", behavior)
    screened = _counting(monkeypatch, "divergence_certificate", behavior)
    r = classify_behavior(g)
    assert (listed, built, screened) == ([5, 6], [5], [5, 6])
    # the reference builds the repeat and screens it
    ref_built = _counting(monkeypatch, "clique_graph", oracles)
    ref_screened = _counting(monkeypatch, "divergence_certificate", oracles)
    assert classify_behavior_reference(g).to_json() == r.to_json()
    assert (ref_built, ref_screened) == ([5, 6], [5, 6, 5])


def test_twin_stars_are_not_a_repeat():
    # K2's two vertices share one star, so its stars are K(K2)'s one clique
    # as a set; only n distinct stars prove the repeat, and K2 has period 1
    r = classify_behavior(complete_graph(2))
    assert (r.status, r.tail, r.period) == ("convergent", 1, 1)
    assert not behavior._stars_are_the_cliques(2, (0b11,), (0b1,))
