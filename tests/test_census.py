import hashlib
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
from cliquedyn.census import ALL_CHECKS, SEARCH_TARGETS, _record_for_graph, run_census, search_graphs
from cliquedyn.graph6 import decode
from cliquedyn.regular import RegularGenSpec

TIGHT = Limits(max_iterations=15, max_vertices=400, max_cliques=40_000)


def canon(g):
    return canonical_form(g)


def test_cubic_10_census_report_is_pinned():
    # the census reaches capped iterates of 226-373 vertices, which the
    # seeded G(n, p) pins of the classifier never do
    doc = run_census(RegularGenSpec(3, 10), ALL_CHECKS, TIGHT).to_json(include_runtime=False)
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "1c3f30b30e314b6a1c8151255c59500a55becfeda1e745a3e017960d3930dd70"
    )


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
    keys = [r["graph6"] for r in rep1.records]
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


def test_cap_equality_reads_only_components_holding_an_equality_vertex():
    # C4 = K_{2,2} attains the per-vertex cap; the C12 component has no equality vertex
    for parts in ([cycle_graph(4), cycle_graph(12)], [cycle_graph(12), cycle_graph(4)]):
        rec = _record_for_graph((disjoint_union(parts), 2, ("cotriangle-bound",), TIGHT))
        assert len(rec["cap_equality_vertices"]) == 4
        assert rec["cap_equality_components_ok"]


def test_zero_regular_census_skips_the_cotriangle_bound():
    # every vertex of E_n meets the cap 0, but its component is K1: the
    # K_{k,k} characterization needs k >= 1, so no bound keys and no exemplar
    rep = run_census(RegularGenSpec(k=0, n=5))
    (rec,) = rep.records
    assert not {"cotriangle_bound_ok", "cap_equality_vertices", "cap_equality_components_ok"} & set(rec)
    assert "cap-equality" not in rep.exemplars
    assert rep.totals["cap_equality_graphs"] == 0
    assert rep.totals["cotriangle_bound_failures"] == 0


@pytest.mark.parametrize("limits", [TIGHT, Limits(3, 5, 12)])
def test_complement_cliques_match_enumeration_and_trace(limits):
    rep = run_census(RegularGenSpec(k=3, n=8), checks=ALL_CHECKS, limits=limits)
    for r in rep.records:
        count = len(maximal_cliques(complement(decode(r["graph6"]))))
        expected = count if count <= limits.max_cliques else None
        assert r["counts"]["complement_cliques"] == expected
        trace = r["behavior"]["trace"]
        if len(trace) >= 2:
            assert r["counts"]["complement_cliques"] == trace[1][0]


def test_helly_complement_never_classifies_divergent():
    # cross-module: a Helly graph is convergent, so no censused graph
    # with a Helly complement may report a divergent complement
    for spec in (RegularGenSpec(k=3, n=8), RegularGenSpec(k=2, n=8), RegularGenSpec(k=1, n=6)):
        rep = run_census(spec, checks=("helly", "behavior"), limits=TIGHT)
        for r in rep.records:
            if r["helly"]:
                assert r["behavior"]["status"] != "divergent"
                assert r["behavior"]["status"] == "convergent"


def test_search_helly_complement_k3_n12():
    hits = search_graphs(RegularGenSpec(k=3, n=12), "helly-complement")
    assert len(hits) == 1
    assert are_isomorphic(
        decode(hits[0]["graph6"]), disjoint_union([complete_bipartite(3, 3)] * 2)
    )


def test_search_zero_hits_k1_n8():
    # the only 1-regular graph on 8 vertices is 4K2, whose complement is
    # a divergent octahedron, hence not Helly
    hits = search_graphs(RegularGenSpec(k=1, n=8), "helly-complement")
    assert hits == []


def test_search_divergent_complement():
    hits = search_graphs(RegularGenSpec(k=2, n=9), "divergent-complement", limits=TIGHT)
    assert len(hits) == 4
    assert all(h["evidence"]["behavior"]["status"] == "divergent" for h in hits)


def test_census_rejects_unknown_checks():
    spec = RegularGenSpec(k=2, n=8)
    with pytest.raises(ValueError, match="triangle_sum"):
        run_census(spec, ("helly", "triangle_sum"))
    with pytest.raises(ValueError, match="'helly'"):
        run_census(spec, "helly")


def test_search_rejects_unknown_target():
    with pytest.raises(ValueError):
        search_graphs(RegularGenSpec(k=2, n=8), "no-such-target")


def test_census_rejects_fewer_than_one_job():
    for jobs in (0, -4):
        with pytest.raises(ValueError, match=f"census jobs must be at least 1, got {jobs}"):
            run_census(RegularGenSpec(k=2, n=8), ("helly",), jobs=jobs)


@pytest.mark.parametrize("name", ["budget", "max_hits"])
@pytest.mark.parametrize("value", [0, -1])
def test_search_rejects_budget_and_max_hits_below_one(name, value):
    with pytest.raises(ValueError, match=f"search {name} must be at least 1, got {value}"):
        search_graphs(RegularGenSpec(k=3, n=8), "helly-complement", **{name: value})


def test_search_budget_and_max_hits():
    hits = search_graphs(RegularGenSpec(k=2, n=9), "divergent-complement", limits=TIGHT, max_hits=2)
    assert len(hits) == 2
    hits = search_graphs(RegularGenSpec(k=2, n=9), "divergent-complement", limits=TIGHT, budget=1)
    assert len(hits) == 1


SCAN = Limits(max_iterations=15, max_vertices=400, max_cliques=40_000)


@pytest.mark.parametrize("k, n", [(3, 10), (3, 12), (2, 9), (4, 9)])
def test_search_hits_are_the_census_exemplars(k, n):
    # the search's hit test and the census's exemplar buckets must agree
    spec = RegularGenSpec(k=k, n=n)
    exemplars = run_census(spec, ("helly", "behavior"), SCAN).exemplars
    for target in SEARCH_TARGETS:
        hits = search_graphs(spec, target, SCAN)
        assert [h["graph6"] for h in hits] == exemplars.get(target, [])


def test_census_records_have_keys_only_for_the_checks_that_ran():
    spec = RegularGenSpec(k=2, n=8)
    base = {"graph6", "order", "degree", "counts"}
    doc = json.loads(run_census(spec, ("helly",)).to_json())
    assert all(set(r) == base | {"helly", "helly_witness"} for r in doc["records"])
    # a Helly complement keeps its witness key, as null
    assert [r["helly_witness"] for r in doc["records"] if r["helly"]] == [None]
    assert all(len(r["helly_witness"]) == 3 for r in doc["records"] if not r["helly"])
    doc = json.loads(run_census(spec, ("triangle-sum",)).to_json())
    assert all(set(r) == base | {"triangle_sum_ok"} for r in doc["records"])
    # without the Helly check no record is called non-Helly
    rep = run_census(spec, ("behavior",))
    assert set(rep.exemplars) == {"convergent-complement", "divergent-complement"}
    assert rep.totals["convergent_nonhelly"] == 0
