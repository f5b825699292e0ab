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
from collections import Counter
from dataclasses import dataclass

from . import graph6
from .behavior import DEFAULT_LIMITS, Limits, classify_behavior, clique_count
from .bounds import cotriangle_adjacency_profile, triangle_sum_rhs, vertex_cotriangle_cap
from .canon import are_isomorphic
from .graphs import complement, complete_bipartite, connected_components, induced, mask_of
from .helly import check_cotriangle_cover, is_helly, triangle_count
from .regular import RegularGenSpec, enumerate_regular

ALL_CHECKS = ("helly", "behavior", "triangle-sum", "cotriangle-bound", "cotriangle-cover")

SEARCH_TARGETS = (
    "convergent-nonhelly-complement",
    "helly-complement",
    "divergent-complement",
)


@dataclass
class CensusReport:
    spec: dict
    checks: tuple[str, ...]
    total: int
    totals: dict
    records: list[dict]
    exemplars: dict
    runtime_seconds: float

    def to_json(self, include_runtime: bool = True) -> str:
        doc = {
            "spec": self.spec,
            "checks": list(self.checks),
            "total": self.total,
            "totals": self.totals,
            "exemplars": self.exemplars,
            "records": self.records,
        }
        if include_runtime:
            doc["runtime_seconds"] = round(self.runtime_seconds, 3)
        return json.dumps(doc, indent=2, sort_keys=True)

    @property
    def any_unknown(self) -> bool:
        return "unknown" in self.totals.get("behavior", {})


def _record_for_graph(task: tuple) -> dict:
    """One census record in report form, with keys only for the checks that ran."""
    g, k, checks, limits = task
    co = complement(g)
    counts = {
        "edges": g.edge_count(),
        "triangles": triangle_count(g),
        "cotriangles": triangle_count(co),
    }
    rec: dict = {"graph6": graph6.encode(g), "order": g.n, "degree": k, "counts": counts}
    if "helly" in checks or "cotriangle-cover" in checks:
        verdict = is_helly(co)
        rec["helly"] = verdict.is_helly
        rec["helly_witness"] = list(verdict.witness) if verdict.witness else None
    if "behavior" in checks:
        result = classify_behavior(co, limits)
        rec["behavior"] = result.to_json()
        counts["complement_cliques"] = clique_count(co, result, limits)
    if "triangle-sum" in checks:
        rec["triangle_sum_ok"] = (
            counts["triangles"] + counts["cotriangles"] == triangle_sum_rhs(g.n, k)
        )
    if "cotriangle-bound" in checks and k >= 1 and g.n >= 4 * k:
        cap = vertex_cotriangle_cap(g.n, k)
        profile = cotriangle_adjacency_profile(g)
        rec["cotriangle_bound_ok"] = all(c <= cap for c in profile)
        eq = [v for v, c in enumerate(profile) if c == cap]
        rec["cap_equality_vertices"] = eq
        eq_mask = mask_of(eq)
        rec["cap_equality_components_ok"] = not eq or all(
            are_isomorphic(induced(g, comp), complete_bipartite(k, k))
            for comp in connected_components(g)
            if comp & eq_mask
        )
    if "cotriangle-cover" in checks and rec["helly"]:
        rec["cover_violations"] = len(check_cotriangle_cover(g, k))
    return rec


def _exemplar_buckets(rec: dict) -> list[str]:
    """Exemplar lists a census record, or a search hit's evidence, belongs to."""
    out = []
    if rec.get("helly"):
        out.append("helly-complement")
    if "behavior" in rec:
        status = rec["behavior"]["status"]
        out.append(f"{status}-complement")
        if status == "convergent" and rec.get("helly") is False:
            out.append("convergent-nonhelly-complement")
    if rec.get("cap_equality_vertices"):
        out.append("cap-equality")
    return out


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
    if isinstance(checks, str):
        raise ValueError(f"census checks must be a sequence of names, got the string {checks!r}")
    unknown = [c for c in checks if c not in ALL_CHECKS]
    if unknown:
        raise ValueError(f"unknown census checks {unknown}; use some of {ALL_CHECKS}")
    checks = tuple(c for c in ALL_CHECKS if c in set(checks))
    if jobs < 1:
        raise ValueError(f"census jobs must be at least 1, got {jobs}")
    start = time.monotonic()
    graphs = list(enumerate_regular(spec, ceiling=ceiling))
    tasks = [(g, spec.k, checks, limits) for g in graphs]
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_record_for_graph, tasks, chunksize=8))
    else:
        records = [_record_for_graph(t) for t in tasks]
    records.sort(key=lambda r: r["graph6"])

    exemplars: dict = {}
    for rec in records:
        for name in _exemplar_buckets(rec):
            exemplars.setdefault(name, []).append(rec["graph6"])
    totals: dict = {"graphs": len(records)}
    if "helly" in checks or "cotriangle-cover" in checks:
        totals["helly_complement"] = len(exemplars.get("helly-complement", []))
    if "behavior" in checks:
        totals["behavior"] = dict(Counter(r["behavior"]["status"] for r in records))
        totals["convergent_nonhelly"] = len(exemplars.get("convergent-nonhelly-complement", []))
    if "triangle-sum" in checks:
        totals["triangle_sum_failures"] = sum(not r["triangle_sum_ok"] for r in records)
    if "cotriangle-bound" in checks:
        totals["cotriangle_bound_failures"] = sum(
            r.get("cotriangle_bound_ok") is False for r in records
        )
        totals["cap_equality_graphs"] = len(exemplars.get("cap-equality", []))
    if "cotriangle-cover" in checks:
        totals["cover_violations"] = sum(r.get("cover_violations", 0) for r in records)
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
    spec: RegularGenSpec,
    target: str,
    limits: Limits = DEFAULT_LIMITS,
    budget: int | None = None,
    max_hits: int | None = None,
    ceiling: int | None = None,
) -> list[dict]:
    """Stream the graphs of `spec` through a target predicate and collect hits.

    Targets: convergent-nonhelly-complement, helly-complement,
    divergent-complement. `budget` caps the number of candidates
    examined; `max_hits` stops early once enough hits are found. Each
    hit carries its evidence (Helly verdict and, where relevant, the
    behavior report) so it can be re-validated independently.
    """
    if target not in SEARCH_TARGETS:
        raise ValueError(f"unknown search target {target!r}; use one of {SEARCH_TARGETS}")
    for name, value in (("budget", budget), ("max_hits", max_hits)):
        if value is not None and value < 1:
            raise ValueError(f"search {name} must be at least 1, got {value}")
    hits: list[dict] = []
    for examined, g in enumerate(enumerate_regular(spec, ceiling=ceiling)):
        if budget is not None and examined >= budget:
            break
        co = complement(g)
        verdict = is_helly(co)
        evidence: dict = {"helly": verdict.is_helly}
        if verdict.witness:
            evidence["helly_witness"] = list(verdict.witness)
        if target != "helly-complement":
            evidence["behavior"] = classify_behavior(co, limits).to_json()
        if target in _exemplar_buckets(evidence):
            hits.append({"graph6": graph6.encode(g), "evidence": evidence})
            if max_hits is not None and len(hits) >= max_hits:
                break
    return hits
