import json

import pytest

from cliquedyn import (
    Limits,
    are_isomorphic,
    canonical_form,
    complement,
    complete_bipartite,
    cycle_graph,
    disjoint_union,
    maximal_cliques,
)
from cliquedyn.census import ALL_CHECKS, run_census, search_graphs
from cliquedyn.graph6 import decode
from cliquedyn.regular import RegularGenSpec

TIGHT = Limits(max_iterations=15, max_vertices=400, max_cliques=40_000)


def canon(g):
    return canonical_form(g)


def test_census_k2_n8_matches_known_behavior():
    rep = run_census(RegularGenSpec(k=2, n=8), checks=("helly", "behavior"))
    assert rep.total == 3
    assert rep.totals["helly_complement"] == 1
    assert rep.totals["behavior"] == {"convergent": 1, "divergent": 2}
    helly_g6 = rep.exemplars["helly-complement"]
    assert len(helly_g6) == 1
    assert are_isomorphic(
        decode(helly_g6[0]), disjoint_union([cycle_graph(4), cycle_graph(4)])
    )
    # the divergent ones are C_8 and C_3 u C_5
    div = {canon(decode(s)) for s in rep.exemplars["divergent-complement"]}
    assert div == {
        canon(cycle_graph(8)),
        canon(disjoint_union([cycle_graph(3), cycle_graph(5)])),
    }


def test_census_k2_n9_all_divergent():
    rep = run_census(RegularGenSpec(k=2, n=9), checks=("behavior",))
    assert rep.total == 4
    assert rep.totals["behavior"] == {"divergent": 4}


def test_census_records_sorted_and_deterministic():
    rep1 = run_census(RegularGenSpec(k=2, n=8), checks=("helly", "triangle-sum"))
    rep2 = run_census(RegularGenSpec(k=2, n=8), checks=("helly", "triangle-sum"))
    assert rep1.to_json(include_runtime=False) == rep2.to_json(include_runtime=False)
    keys = [r.graph6 for r in rep1.records]
    assert keys == sorted(keys)
    assert rep1.totals["triangle_sum_failures"] == 0


def test_census_parallel_matches_sequential():
    seq = run_census(RegularGenSpec(k=3, n=8), checks=("helly", "behavior"), jobs=1)
    par = run_census(RegularGenSpec(k=3, n=8), checks=("helly", "behavior"), jobs=2)
    assert seq.to_json(include_runtime=False) == par.to_json(include_runtime=False)


def test_census_json_shape():
    rep = run_census(RegularGenSpec(k=2, n=6), checks=("helly",))
    doc = json.loads(rep.to_json())
    assert doc["spec"]["k"] == 2
    assert doc["total"] == 2
    assert "runtime_seconds" in doc
    assert all("graph6" in r and "counts" in r for r in doc["records"])
    doc2 = json.loads(rep.to_json(include_runtime=False))
    assert "runtime_seconds" not in doc2


def test_census_random_mode():
    spec = RegularGenSpec(k=3, n=10, mode="random", count=6, seed=3)
    rep = run_census(spec, checks=("triangle-sum",))
    assert rep.total == 6
    assert rep.totals["triangle_sum_failures"] == 0


def test_census_cotriangle_checks():
    rep = run_census(
        RegularGenSpec(k=3, n=12),
        checks=("helly", "cotriangle-bound", "cotriangle-cover"),
    )
    assert rep.totals["cotriangle_bound_failures"] == 0
    assert rep.totals["cover_violations"] == 0
    # the K33 u K33 exemplar attains the per-vertex cap
    eq = rep.exemplars["cap-equality"]
    target = canon(disjoint_union([complete_bipartite(3, 3)] * 2))
    assert any(canon(decode(s)) == target for s in eq)


@pytest.mark.parametrize("limits", [TIGHT, Limits(3, 5, 12)])
def test_complement_cliques_match_enumeration_and_trace(limits):
    rep = run_census(RegularGenSpec(k=3, n=8), checks=ALL_CHECKS, limits=limits)
    for r in rep.records:
        count = len(maximal_cliques(complement(decode(r.graph6))))
        expected = count if count <= limits.max_cliques else None
        assert r.counts["complement_cliques"] == expected
        trace = r.behavior["trace"]
        if len(trace) >= 2:
            assert r.counts["complement_cliques"] == trace[1][0]


def test_helly_complement_never_classifies_divergent():
    # cross-module: a Helly graph is convergent, so no censused graph
    # with a Helly complement may report a divergent complement
    for spec in (RegularGenSpec(k=3, n=8), RegularGenSpec(k=2, n=8), RegularGenSpec(k=1, n=6)):
        rep = run_census(spec, checks=("helly", "behavior"), limits=TIGHT)
        for r in rep.records:
            if r.complement_helly:
                assert r.behavior["status"] != "divergent"
                assert r.behavior["status"] == "convergent"


def test_search_helly_complement_k3_n12():
    hits = search_graphs(3, 12, "helly-complement")
    assert len(hits) == 1
    assert are_isomorphic(
        decode(hits[0]["graph6"]), disjoint_union([complete_bipartite(3, 3)] * 2)
    )


def test_search_zero_hits_k1_n8():
    # the only 1-regular graph on 8 vertices is 4K2, whose complement is
    # a divergent octahedron, hence not Helly
    hits = search_graphs(1, 8, "helly-complement")
    assert hits == []


def test_search_divergent_complement():
    hits = search_graphs(2, 9, "divergent-complement", limits=TIGHT)
    assert len(hits) == 4
    assert all(h["evidence"]["behavior"]["status"] == "divergent" for h in hits)


def test_search_rejects_unknown_target():
    with pytest.raises(ValueError):
        search_graphs(2, 8, "no-such-target")


def test_search_budget_and_max_hits():
    hits = search_graphs(2, 9, "divergent-complement", limits=TIGHT, max_hits=2)
    assert len(hits) == 2
    hits = search_graphs(2, 9, "divergent-complement", limits=TIGHT, budget=1)
    assert len(hits) == 1
