"""Census sweeps over k-regular graphs and the targeted search driver.

A census generates graphs for a RegularGenSpec and evaluates the
requested checks per graph. Helly and behavior are always evaluated on
the complement (this is the side the counting results speak about);
the triangle-sum identity and the cotriangle bounds are evaluated on
the graph itself. Reports are merged in graph6 order so identical specs
and seeds produce identical reports.
"""
from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from . import graph6
from .behavior import DEFAULT_LIMITS, Limits, classify_behavior, clique_count
from .bounds import (
    cotriangle_adjacency_profile,
    vertex_cotriangle_cap,
    verify_triangle_sum,
)
from .canon import are_isomorphic
from .cliques import CliqueLimitError
from .graphs import Graph, complement, complete_bipartite, connected_components, induced
from .helly import check_cotriangle_cover, cotriangle_count, is_helly, triangle_count
from .regular import RegularGenSpec, enumerate_regular

ALL_CHECKS = ("helly", "behavior", "triangle-sum", "cotriangle-bound", "cotriangle-cover")

SEARCH_TARGETS = (
    "convergent-nonhelly-complement",
    "helly-complement",
    "divergent-complement",
)


@dataclass
class GraphRecord:
    graph6: str
    order: int
    degree: int
    counts: dict = field(default_factory=dict)
    complement_helly: bool | None = None
    helly_witness: list | None = None
    behavior: dict | None = None
    triangle_sum_ok: bool | None = None
    cotriangle_bound_ok: bool | None = None
    cap_equality_vertices: list | None = None
    cap_equality_components_ok: bool | None = None
    cover_violations: int | None = None

    def to_json(self) -> dict:
        out = {
            "graph6": self.graph6,
            "order": self.order,
            "degree": self.degree,
            "counts": self.counts,
        }
        if self.complement_helly is not None:
            out["helly"] = self.complement_helly
            out["helly_witness"] = self.helly_witness
        if self.behavior is not None:
            out["behavior"] = self.behavior
        if self.triangle_sum_ok is not None:
            out["triangle_sum_ok"] = self.triangle_sum_ok
        if self.cotriangle_bound_ok is not None:
            out["cotriangle_bound_ok"] = self.cotriangle_bound_ok
            out["cap_equality_vertices"] = self.cap_equality_vertices
            out["cap_equality_components_ok"] = self.cap_equality_components_ok
        if self.cover_violations is not None:
            out["cover_violations"] = self.cover_violations
        return out


@dataclass
class CensusReport:
    spec: dict
    checks: tuple[str, ...]
    total: int
    totals: dict
    records: list[GraphRecord]
    exemplars: dict
    runtime_seconds: float

    def to_json(self, include_runtime: bool = True) -> str:
        doc = {
            "spec": self.spec,
            "checks": list(self.checks),
            "total": self.total,
            "totals": self.totals,
            "exemplars": self.exemplars,
            "records": [r.to_json() for r in self.records],
        }
        if include_runtime:
            doc["runtime_seconds"] = round(self.runtime_seconds, 3)
        return json.dumps(doc, indent=2, sort_keys=True)

    @property
    def any_unknown(self) -> bool:
        return any(
            r.behavior is not None and r.behavior.get("status") == "unknown"
            for r in self.records
        )


def _component_is_kkk(g: Graph, vertex: int, k: int) -> bool:
    for mask in connected_components(g):
        if (mask >> vertex) & 1:
            part = induced(g, mask)
            return part.n == 2 * k and are_isomorphic(part, complete_bipartite(k, k))
    return False


def _record_for_graph(task: tuple) -> GraphRecord:
    g, k, checks, limits = task
    rec = GraphRecord(graph6=graph6.encode(g), order=g.n, degree=k)
    co = complement(g)
    rec.counts = {
        "edges": g.edge_count(),
        "triangles": triangle_count(g),
        "cotriangles": cotriangle_count(g),
    }
    if "helly" in checks or "cotriangle-cover" in checks:
        verdict = is_helly(co)
        rec.complement_helly = verdict.is_helly
        rec.helly_witness = list(verdict.witness) if verdict.witness else None
    if "behavior" in checks:
        result = classify_behavior(co, limits)
        rec.behavior = result.to_json()
        try:
            rec.counts["complement_cliques"] = clique_count(co, result, limits)
        except CliqueLimitError:
            rec.counts["complement_cliques"] = None
    if "triangle-sum" in checks:
        rec.triangle_sum_ok = verify_triangle_sum(g)
    if "cotriangle-bound" in checks and g.n >= 4 * k:
        cap = vertex_cotriangle_cap(g.n, k)
        profile = cotriangle_adjacency_profile(g)
        rec.cotriangle_bound_ok = all(c <= cap for c in profile)
        eq = [v for v, c in enumerate(profile) if c == cap]
        rec.cap_equality_vertices = eq
        rec.cap_equality_components_ok = all(_component_is_kkk(g, v, k) for v in eq)
    if "cotriangle-cover" in checks and rec.complement_helly:
        rec.cover_violations = len(check_cotriangle_cover(g, k))
    return rec


def run_census(
    spec: RegularGenSpec,
    checks=ALL_CHECKS,
    limits: Limits = DEFAULT_LIMITS,
    jobs: int = 1,
    ceiling: int | None = None,
) -> CensusReport:
    """Generate per `spec`, run the requested checks, aggregate a report.

    Per-graph classification limits are recorded as Unknown in the
    records; they never abort the census. With jobs > 1 the per-graph
    work fans out to a process pool; the merged report is identical to
    a sequential run.
    """
    checks = tuple(c for c in ALL_CHECKS if c in set(checks))
    start = time.monotonic()
    graphs = list(enumerate_regular(spec, ceiling=ceiling))
    tasks = [(g, spec.k, checks, limits) for g in graphs]
    if jobs and jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_record_for_graph, tasks, chunksize=8))
    else:
        records = [_record_for_graph(t) for t in tasks]
    records.sort(key=lambda r: r.graph6)

    totals: dict = {"graphs": len(records)}
    exemplars: dict = {}

    def bucket(name: str, rec: GraphRecord):
        exemplars.setdefault(name, []).append(rec.graph6)

    if "helly" in checks or "cotriangle-cover" in checks:
        totals["helly_complement"] = sum(1 for r in records if r.complement_helly)
        for r in records:
            if r.complement_helly:
                bucket("helly-complement", r)
    if "behavior" in checks:
        by_status: dict[str, int] = {}
        for r in records:
            status = r.behavior["status"]
            by_status[status] = by_status.get(status, 0) + 1
            bucket(f"{status}-complement", r)
            if status == "convergent" and r.complement_helly is False:
                bucket("convergent-nonhelly-complement", r)
        totals["behavior"] = by_status
        totals["convergent_nonhelly"] = len(
            exemplars.get("convergent-nonhelly-complement", [])
        )
    if "triangle-sum" in checks:
        totals["triangle_sum_failures"] = sum(
            1 for r in records if r.triangle_sum_ok is False
        )
    if "cotriangle-bound" in checks:
        totals["cotriangle_bound_failures"] = sum(
            1 for r in records if r.cotriangle_bound_ok is False
        )
        totals["cap_equality_graphs"] = sum(
            1 for r in records if r.cap_equality_vertices
        )
        for r in records:
            if r.cap_equality_vertices:
                bucket("cap-equality", r)
    if "cotriangle-cover" in checks:
        totals["cover_violations"] = sum(r.cover_violations or 0 for r in records)
    runtime = time.monotonic() - start
    return CensusReport(
        spec=spec.to_json(),
        checks=checks,
        total=len(records),
        totals=totals,
        records=records,
        exemplars=exemplars,
        runtime_seconds=runtime,
    )


def search_graphs(
    k: int,
    n: int,
    target: str,
    budget: int | None = None,
    seed: int = 0,
    limits: Limits = DEFAULT_LIMITS,
    connected_only: bool = False,
    mode: str = "exhaustive",
    max_hits: int | None = None,
    ceiling: int | None = None,
) -> list[dict]:
    """Stream candidates through a target predicate and collect hits.

    Targets: convergent-nonhelly-complement, helly-complement,
    divergent-complement. `budget` caps the number of candidates
    examined; `max_hits` stops early once enough hits are found. Each
    hit carries its evidence (Helly verdict and, where relevant, the
    behavior report) so it can be re-validated independently.
    """
    if target not in SEARCH_TARGETS:
        raise ValueError(f"unknown search target {target!r}; use one of {SEARCH_TARGETS}")
    if mode == "exhaustive":
        spec = RegularGenSpec(k=k, n=n, connected_only=connected_only)
    else:
        spec = RegularGenSpec(
            k=k,
            n=n,
            mode="random",
            count=budget or 1000,
            seed=seed,
            connected_only=connected_only,
        )
    hits: list[dict] = []
    examined = 0
    for g in enumerate_regular(spec, ceiling=ceiling):
        if budget is not None and examined >= budget:
            break
        examined += 1
        co = complement(g)
        verdict = is_helly(co)
        evidence: dict = {"helly": verdict.is_helly}
        if verdict.witness:
            evidence["helly_witness"] = list(verdict.witness)
        hit = False
        if target == "helly-complement":
            hit = verdict.is_helly
        else:
            result = classify_behavior(co, limits)
            evidence["behavior"] = result.to_json()
            if target == "divergent-complement":
                hit = result.is_divergent
            else:
                hit = result.is_convergent and not verdict.is_helly
        if hit:
            hits.append({"graph6": graph6.encode(g), "evidence": evidence})
            if max_hits is not None and len(hits) >= max_hits:
                break
    return hits
