"""Per-layer tracing from outside the library.

`Tracer.install` replaces each public function in TRACED with a timing
wrapper, in every `cliquedyn` module namespace that holds it, so calls
between modules (``behavior.clique_graph``, ``census.is_helly``,
``regular.canonical_graph``) are seen as well as calls from the
benchmark. Hot helpers (``bits``, ``mask_of``, ``Graph`` methods) are
left alone: their cost shows up as self time of the traced caller.

Spans are kept in memory, tagged with the request id, and written out
once at the end of a run. A span's self time is its duration minus the
time covered by its direct child spans.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

import cliquedyn as cd

# (module, attribute) of every traced public function
TRACED = (
    ("graphs", "complement"),
    ("graphs", "induced"),
    ("graphs", "connected_components"),
    ("graph6", "encode"),
    ("cliques", "maximal_cliques"),
    ("cliques", "clique_graph"),
    ("helly", "is_helly"),
    ("helly", "triangle_count"),
    ("helly", "cotriangle_count"),
    ("helly", "check_cotriangle_cover"),
    ("canon", "canonical_form"),
    ("canon", "canonical_graph"),
    ("canon", "are_isomorphic"),
    ("canon", "find_coaffination"),
    ("behavior", "classify_behavior"),
    ("behavior", "divergence_certificate"),
    ("behavior", "join_summands"),
    ("regular", "enumerate_regular"),
    ("regular", "random_regular"),
    ("bounds", "cotriangle_adjacency_profile"),
    ("bounds", "verify_triangle_sum"),
    ("census", "run_census"),
    ("census", "CensusReport.to_json"),
)

LAYERS = ("graphs", "graph6", "cliques", "helly", "canon", "behavior", "regular", "bounds", "census")

# per-layer metrics: name -> unit; every traced run reports all of them
CALLS = (
    "graphs.complement", "graphs.induced", "graph6.encode",
    "cliques.maximal_cliques", "cliques.clique_graph",
    "canon.canonical_form", "canon.canonical_graph", "canon.are_isomorphic",
    "canon.find_coaffination", "regular.random_regular",
    "behavior.classify_behavior", "behavior.divergence_certificate",
    "behavior.join_summands", "helly.is_helly", "helly.triangle_count",
    "bounds.cotriangle_adjacency_profile", "bounds.verify_triangle_sum",
)
SELF_TIMES = CALLS + (
    "graphs.connected_components", "regular.enumerate_regular",
    "helly.cotriangle_count", "helly.check_cotriangle_cover",
    "census.run_census", "census.CensusReport.to_json",
)
COUNTERS = (
    "cliques.maximal_cliques.cliques_out", "cliques.maximal_cliques.cap_hits",
    "cliques.clique_graph.out_vertices", "canon.find_coaffination.found",
    "regular.candidates", "regular.classes", "behavior.iterates",
    "behavior.status.convergent", "behavior.status.divergent", "behavior.status.unknown",
    "behavior.limit.clique-cap", "behavior.limit.vertex-cap", "behavior.limit.iteration-cap",
    "census.report_bytes",
)
RATIOS = (
    "cliques.useful_ratio", "regular.useful_ratio", "behavior.canon_per_iterate",
    "helly.is_helly.positive_ratio", "trace.overhead_ratio",
)


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.calls": "count" for name in CALLS}
    units.update({f"{name}.self_s": "s" for name in SELF_TIMES})
    units["cliques.maximal_cliques.capped_s"] = "s"
    units.update({name: "bytes" if name.endswith("_bytes") else "count" for name in COUNTERS})
    units.update({name: "ratio" for name in RATIOS})
    units.update({f"{layer}.self_share": "ratio" for layer in LAYERS})
    return units


def _on_maximal_cliques(counts: Counter, args, out) -> None:
    counts["cliques.maximal_cliques.cliques_out"] += len(out)


def _on_clique_graph(counts: Counter, args, out) -> None:
    counts["cliques.clique_graph.out_vertices"] += out[0].n


def _on_find_coaffination(counts: Counter, args, out) -> None:
    counts["canon.find_coaffination.found"] += out is not None


def _on_is_helly(counts: Counter, args, out) -> None:
    counts["helly.is_helly.positive"] += out.is_helly


def _on_classify_behavior(counts: Counter, args, out) -> None:
    counts[f"behavior.status.{out.status}"] += 1
    if out.limit is not None:
        counts[f"behavior.limit.{out.limit}"] += 1
    counts["behavior.iterates"] += len(out.trace)


def _on_enumerate_regular(counts: Counter, args, out) -> None:
    if args[0].mode == "exhaustive":
        counts["regular.classes"] += len(out)


def _on_to_json(counts: Counter, args, out) -> None:
    counts["census.report_bytes"] += len(out.encode())


ON_RESULT = {
    "cliques.maximal_cliques": _on_maximal_cliques,
    "cliques.clique_graph": _on_clique_graph,
    "canon.find_coaffination": _on_find_coaffination,
    "helly.is_helly": _on_is_helly,
    "behavior.classify_behavior": _on_classify_behavior,
    "regular.enumerate_regular": _on_enumerate_regular,
    "census.CensusReport.to_json": _on_to_json,
}

# calls counted by the namespace they were made from
ON_CALL_FROM = {
    ("canon.canonical_graph", "regular"): "regular.candidates",
    ("canon.canonical_form", "behavior"): "behavior.canon_calls",
}


class Tracer:
    """Span recorder; wrappers are in place only between install and uninstall."""

    def __init__(self):
        self.request = -1
        # (request, name, via, start, end, self_s, parent span index)
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._covered: list[float] = []
        self._patches: list[tuple[object, str, object, object]] | None = None

    # -- recording --------------------------------------------------------

    def _enter(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._open.append(idx)
        self._covered.append(0.0)
        return idx

    def _leave(self, idx: int, name: str, via: str, start: float) -> float:
        end = time.perf_counter()
        self._open.pop()
        covered = self._covered.pop()
        dur = end - start
        if self._covered:
            self._covered[-1] += dur
        parent = self._open[-1] if self._open else -1
        self.spans[idx] = (self.request, name, via, start, end, dur - covered, parent)
        return dur

    def _wrap(self, fn, name: str, via: str):
        on_result = ON_RESULT.get(name)
        from_counter = ON_CALL_FROM.get((name, via))
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if from_counter:
                counts[from_counter] += 1
            idx = self._enter()
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except cd.CliqueLimitError as exc:
                dur = self._leave(idx, name, via, start)
                if name == "cliques.maximal_cliques":
                    counts["cliques.maximal_cliques.cap_hits"] += 1
                    counts["cliques.maximal_cliques.capped_cliques"] += exc.cap
                    counts["cliques.maximal_cliques.capped_s"] += dur
                raise
            except BaseException:
                self._leave(idx, name, via, start)
                raise
            self._leave(idx, name, via, start)
            if on_result:
                on_result(counts, args, out)
            return out

        return traced

    def _wrap_generator(self, fn, name: str, via: str):
        # the generator is drained inside one span, so the span covers
        # full consumption; the workloads drain it immediately anyway
        eager = self._wrap(lambda *a, **kw: tuple(fn(*a, **kw)), name, via)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            yield from eager(*args, **kwargs)

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every TRACED function wherever a cliquedyn module holds it."""
        if self._patches is None:
            self._patches = self._find_patches()
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._patches or ():
            setattr(owner, key, original)

    def _find_patches(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every place to wrap."""
        patches = []
        modules = [
            (modname.rpartition(".")[2], mod)
            for modname, mod in sorted(sys.modules.items())
            if mod is not None and (modname == "cliquedyn" or modname.startswith("cliquedyn."))
        ]
        for home, attr in TRACED:
            name = f"{home}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(sys.modules[f"cliquedyn.{home}"], cls_name)
                original = getattr(cls, meth)
                patches.append((cls, meth, original, self._wrap(original, name, home)))
                continue
            original = getattr(sys.modules[f"cliquedyn.{home}"], attr)
            wrap = self._wrap_generator if attr == "enumerate_regular" else self._wrap
            for via, mod in modules:
                for key, value in vars(mod).items():
                    if value is original:
                        patches.append((mod, key, original, wrap(original, name, via)))
        return patches

    # -- results ----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def metrics(self, request_seconds: float, overhead_ratio: float) -> dict[str, float]:
        """Every per-layer metric; ratios with a zero base read 0."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        layer_self: Counter = Counter()
        for span in self.spans:
            name, own = span[1], span[5]
            calls[name] += 1
            self_s[name] += own
            layer_self[name.split(".")[0]] += own
        c = self.counts
        out: dict[str, float] = {}
        for name in CALLS:
            out[f"{name}.calls"] = calls[name]
        for name in SELF_TIMES:
            out[f"{name}.self_s"] = self_s[name]
        out["cliques.maximal_cliques.capped_s"] = c["cliques.maximal_cliques.capped_s"]
        for name in COUNTERS:
            out[name] = c[name]

        def ratio(num, den):
            return num / den if den else 0.0

        returned = c["cliques.maximal_cliques.cliques_out"]
        out["cliques.useful_ratio"] = ratio(returned, returned + c["cliques.maximal_cliques.capped_cliques"])
        out["regular.useful_ratio"] = ratio(c["regular.classes"], c["regular.candidates"])
        out["behavior.canon_per_iterate"] = ratio(c["behavior.canon_calls"], c["behavior.iterates"])
        out["helly.is_helly.positive_ratio"] = ratio(c["helly.is_helly.positive"], calls["helly.is_helly"])
        out["trace.overhead_ratio"] = overhead_ratio
        for layer in LAYERS:
            out[f"{layer}.self_share"] = ratio(layer_self[layer], request_seconds)
        return out
