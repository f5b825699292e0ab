"""Benchmark workloads: seeded input streams, the library call each input
becomes, and the checks every output must pass.

Each workload draws its inputs from a `random.Random` seeded by the
workload name and the `--seed` argument; the library only sees the
generated graphs and specs. Input properties the cost depends on (graph
order, degree) are drawn in shuffled blocks that hold each value once,
so every run covers them in equal shares whatever the seed. The two
exhaustive workloads, `enumerate` and `census-cubic`, repeat one fixed
request, so their inputs do not depend on the seed.
"""
from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass
from typing import Callable, Iterator

import cliquedyn as cd
from cliquedyn import ALL_CHECKS, RegularGenSpec

# the acceptance suite's scan limits
SCAN = cd.Limits(max_iterations=15, max_vertices=400, max_cliques=40_000)
STREAM_CHECKS = ("helly", "triangle-sum", "cotriangle-bound", "cotriangle-cover")
LIMIT_NAMES = ("clique-cap", "vertex-cap", "iteration-cap")
EDGE_PROBABILITY = 0.25

# input sizes per scale; "tiny" exists for the smoke test
SIZES = {
    "full": {
        # (k, n) -> class count; the digest covers the sorted graph6 lists
        "enumerate": (((3, 12), 94), ((4, 9), 16),
                      "3069339dcde73e6478b9dd44de126c370151408d390536da42308c66a84b6180"),
        "converge": tuple(range(12, 20)),
        "census-cubic": (10, 21),  # n, number of cubic graphs on n vertices
        "stream-checks": ((3, 30), (4, 40), (6, 60)),
    },
    "tiny": {
        "enumerate": (((3, 8), 6), ((4, 7), 2),
                      "abb042834fa235762b0475115b3f994769cf9783fb7a21c96d3fc8f53ca58aff"),
        "converge": tuple(range(6, 10)),
        "census-cubic": (8, 6),
        "stream-checks": ((3, 14), (4, 20)),
    },
}


class CheckFailed(AssertionError):
    """An output failed its correctness check."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], Iterator]  # seed -> endless stream of request inputs
    call: Callable[[object], object]  # one request against the library
    check: Callable[[object, object], None]  # (input, output); raises CheckFailed
    encode: Callable[[object], str]  # canonical text of an output, for digests
    replay_prefix: int  # leading outputs a fresh interpreter must reproduce
    unknown: Callable[[object], int] | None = None  # classifications that ended `unknown`
    items: int = 1  # items one request completes, for items_per_s
    block: int = 0  # requests per items_per_s block; 0 takes the whole run


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _stratified(rng: random.Random, values) -> Iterator:
    while True:
        block = list(values)
        rng.shuffle(block)
        yield from block


def _gnp(rng: random.Random, n: int, p: float) -> cd.Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return cd.Graph.from_edges(n, edges)


def _fixed(request):
    def inputs(seed):
        while True:
            yield request
    return inputs


# -- enumerate ---------------------------------------------------------------

def _clear_caches() -> None:
    """Empty every lru_cache in the library, so each request starts cold
    as a fresh CLI process does."""
    for modname, mod in list(sys.modules.items()):
        if mod is not None and modname.startswith("cliquedyn"):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _enumerate(sizes) -> Workload:
    *shapes, expected_digest = sizes
    specs = tuple(RegularGenSpec(k, n) for (k, n), _ in shapes)

    def call(specs):
        _clear_caches()
        # through the package, so a traced run sees the call
        return tuple(list(cd.enumerate_regular(spec)) for spec in specs)

    def encode(out):
        return json.dumps([sorted(cd.encode(g) for g in graphs) for graphs in out])

    def check(specs, out):
        for ((k, n), count), graphs in zip(shapes, out):
            require(len(graphs) == count, f"{len(graphs)} classes of {k}-regular graphs on {n}, not {count}")
        require(digest(encode(out)) == expected_digest, "class list digest")

    return Workload(
        name="enumerate",
        inputs=_fixed(specs),
        call=call,
        check=check,
        encode=encode,
        replay_prefix=1,
        items=sum(count for _, count in shapes),
    )


# -- converge ----------------------------------------------------------------

def certificate_from_json(doc: dict):
    """Rebuild a divergence certificate from its report JSON."""
    kind = doc["kind"]
    if kind == "octahedron":
        return cd.OctahedronCertificate(doc["m"], tuple(doc["mapping"]))
    if kind == "cycle-complement":
        return cd.CycleComplementCertificate(doc["n"], tuple(doc["mapping"]))
    blocks = tuple(tuple(b) for b in doc["blocks"])
    coaffs = tuple(tuple(c) for c in doc["coaffinations"])
    if kind == "three-summands":
        return cd.ThreeSummandsCertificate(blocks, coaffs)
    if kind == "connected-sum":
        return cd.ConnectedSumCertificate(blocks, coaffs, doc["connected_index"])
    raise CheckFailed(f"unknown certificate kind {kind!r}")


def _iterates(g: cd.Graph, count: int, trace: list) -> list[cd.Graph]:
    """K^0(g) .. K^count(g), each checked against the reported trace."""
    out = [g]
    for _ in range(count):
        out.append(cd.clique_graph(out[-1], cap=SCAN.max_cliques)[0])
    for idx, cur in enumerate(out):
        require(trace[idx][:2] == [cur.n, cur.edge_count()], f"trace mismatch at iterate {idx}")
    return out


def check_behavior(g: cd.Graph, doc: dict) -> None:
    """Re-validate one behavior report (`BehaviorResult.to_json()` form)."""
    status = doc["status"]
    trace = doc["trace"]
    if status == "divergent":
        at = doc["detected_at"]
        require(len(trace) == at + 1, "divergent trace length")
        cur = _iterates(g, at, trace)[-1]
        require(cd.certificate_is_valid(cur, certificate_from_json(doc["certificate"])),
                "divergence certificate does not re-validate")
    elif status == "convergent":
        tail, period = doc["tail"], doc["period"]
        require(tail >= 0 and period >= 1 and len(trace) == tail + period + 1,
                "convergent trace length")
        its = _iterates(g, tail + period, trace)
        require(cd.canonical_form(its[tail]) == cd.canonical_form(its[-1]),
                "replayed iterates do not repeat")
    else:
        require(status == "unknown" and doc["limit"] in LIMIT_NAMES, f"bad status {status!r}")


def _converge(orders) -> Workload:
    def inputs(seed):
        rng = _rng("converge", seed)
        for n in _stratified(rng, orders):
            yield _gnp(rng, n, EDGE_PROBABILITY)

    return Workload(
        name="converge",
        inputs=inputs,
        call=lambda g: cd.classify_behavior(g, SCAN),
        check=lambda g, res: check_behavior(g, res.to_json()),
        encode=lambda res: json.dumps(res.to_json(), sort_keys=True),
        replay_prefix=200,
        unknown=lambda res: res.status == "unknown",
        # 0.4% of inputs hit a cap and take ~40% of the request time, so a
        # whole-run figure follows the seed's draws; a block holds three
        # rounds of the 8 shuffled orders
        block=24,
    )


# -- census-cubic ------------------------------------------------------------

def _census_cubic(sizes) -> Workload:
    n, classes = sizes

    def call(spec):
        return cd.run_census(spec, ALL_CHECKS, SCAN).to_json(include_runtime=False)

    def check(spec, text):
        report = json.loads(text)
        records = report["records"]
        require(report["total"] == classes == len(records), f"{classes} cubic graphs on {n} vertices")
        forms = set()
        for rec in records:
            g = cd.decode(rec["graph6"])
            require(g.n == n and all(d == 3 for d in g.degrees()), "record is not a cubic graph")
            forms.add(cd.canonical_form(g))
            co = cd.complement(g)
            check_behavior(co, rec["behavior"])
            # clique-Helly graphs are K-convergent
            require(not (rec["helly"] and rec["behavior"]["status"] == "divergent"),
                    "divergent Helly complement")
            require(rec["triangle_sum_ok"] is True, "triangle-sum identity")
            if rec["helly"]:
                require(rec["cover_violations"] == 0, "cotriangle cover violated")
        require(len(forms) == classes, "records are not pairwise non-isomorphic")
        require(report["totals"]["cover_violations"] == 0, "cover violations")

    return Workload(
        name="census-cubic",
        inputs=_fixed(RegularGenSpec(3, n)),
        call=call,
        check=check,
        encode=lambda text: text,
        replay_prefix=1,
        unknown=lambda text: sum(r["behavior"]["status"] == "unknown" for r in json.loads(text)["records"]),
        items=classes,
    )


# -- stream-checks -----------------------------------------------------------

def _stream_checks(shapes) -> Workload:
    def inputs(seed):
        rng = _rng("stream-checks", seed)
        for k, n in _stratified(rng, shapes):
            yield RegularGenSpec(k, n, mode="random", count=1, seed=rng.randrange(2**32))

    def call(spec):
        return cd.run_census(spec, STREAM_CHECKS, SCAN).to_json(include_runtime=False)

    def check(spec, text):
        report = json.loads(text)
        require(report["total"] == 1 and len(report["records"]) == 1, "census of one")
        rec = report["records"][0]
        g = cd.decode(rec["graph6"])
        require(g.n == spec.n and all(d == spec.k for d in g.degrees()),
                "record is not the requested regular graph")
        require(rec["triangle_sum_ok"] is True, "triangle-sum identity")
        require(rec["cotriangle_bound_ok"] is True, "per-vertex cotriangle cap")
        # every n here is above the threshold N(k), so no complement is Helly
        require(spec.n >= cd.helly_threshold(spec.k), "order below the Helly threshold")
        require(report["totals"]["helly_complement"] == 0, "Helly complement above N(k)")
        require(report["totals"]["cover_violations"] == 0, "cover violations")

    return Workload(
        name="stream-checks",
        inputs=inputs,
        call=call,
        check=check,
        encode=lambda text: text,
        replay_prefix=30,
    )


def build(name: str, scale: str = "full") -> Workload:
    sizes = SIZES[scale][name]
    return {
        "enumerate": _enumerate,
        "converge": _converge,
        "census-cubic": _census_cubic,
        "stream-checks": _stream_checks,
    }[name](sizes)


NAMES = tuple(SIZES["full"])
