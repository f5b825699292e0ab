"""Clique-graph dynamics: divergence certificates and the convergence classifier.

A graph is convergent when the iterated clique graph sequence repeats an
isomorphism class, and divergent when some iterate matches one of four
certified divergent shapes:

  * an octahedron O_m with m >= 3,
  * the complement of a cycle C_n with n >= 8,
  * a join of >= 3 summands, each with a coaffination,
  * a join of two summands, both with coaffinations, one connected.

Certificates carry explicit witnesses (isomorphism maps, summand blocks,
coaffination permutations) and re-validate independently. The classifier
reports Unknown when a resource limit trips; it never guesses.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .canon import canonical_form, find_coaffination, is_coaffination
from .cliques import CliqueLimitError, clique_graph, maximal_cliques
from .helly import triangle_count
from .graphs import (
    Graph,
    bits,
    complement,
    connected_components,
    cycle_graph,
    induced,
    is_connected,
    octahedron,
)


@dataclass(frozen=True)
class Limits:
    """Resource limits for classify_behavior.

    The next iterate has one vertex per maximal clique, so the smaller of
    max_cliques and max_vertices bounds each clique enumeration and no
    iterate past max_vertices is built. Such a stop is labelled
    "clique-cap" if max_cliques <= max_vertices, else "vertex-cap".
    """

    max_iterations: int = 30
    max_vertices: int = 20_000
    max_cliques: int = 2_000_000

    def __post_init__(self):
        if self.max_iterations < 1 or self.max_vertices < 1 or self.max_cliques < 1:
            raise ValueError("limits must be positive")


DEFAULT_LIMITS = Limits()


@dataclass(frozen=True)
class OctahedronCertificate:
    """g is isomorphic to O_m; mapping[v] is the O_m vertex for g-vertex v."""

    m: int
    mapping: tuple[int, ...]
    kind: str = field(default="octahedron", init=False)

    def to_json(self) -> dict:
        return {"kind": self.kind, "m": self.m, "mapping": list(self.mapping)}


@dataclass(frozen=True)
class CycleComplementCertificate:
    """g is isomorphic to the complement of C_n."""

    n: int
    mapping: tuple[int, ...]
    kind: str = field(default="cycle-complement", init=False)

    def to_json(self) -> dict:
        return {"kind": self.kind, "n": self.n, "mapping": list(self.mapping)}


@dataclass(frozen=True)
class ThreeSummandsCertificate:
    """g is a join of >= 3 summands, each with a coaffination.

    blocks are the summand vertex sets in g; coaffinations[i] permutes
    block i positionally (local indices into blocks[i]).
    """

    blocks: tuple[tuple[int, ...], ...]
    coaffinations: tuple[tuple[int, ...], ...]
    kind: str = field(default="three-summands", init=False)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "blocks": [list(b) for b in self.blocks],
            "coaffinations": [list(c) for c in self.coaffinations],
        }


@dataclass(frozen=True)
class ConnectedSumCertificate:
    """g is a join of two coaffinable summands, at least one connected."""

    blocks: tuple[tuple[int, ...], ...]
    coaffinations: tuple[tuple[int, ...], ...]
    connected_index: int
    kind: str = field(default="connected-sum", init=False)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "blocks": [list(b) for b in self.blocks],
            "coaffinations": [list(c) for c in self.coaffinations],
            "connected_index": self.connected_index,
        }


Certificate = (
    OctahedronCertificate
    | CycleComplementCertificate
    | ThreeSummandsCertificate
    | ConnectedSumCertificate
)


def join_summands(g: Graph) -> list[tuple[tuple[int, ...], Graph]]:
    """Maximal join decomposition: (vertex block, induced summand) pairs.

    The summands are the connected components of the complement, induced
    back in g; each returned summand therefore has a connected
    complement, and g equals the iterated join of the summands.
    """
    if g.n == 0:
        raise ValueError("the empty graph has no join decomposition")
    comps = connected_components(complement(g))
    return [(tuple(bits(mask)), induced(g, mask)) for mask in comps]


def _octahedron_certificate(g: Graph) -> OctahedronCertificate | None:
    n = g.n
    if n < 6 or n % 2:
        return None
    if any(row.bit_count() != n - 2 for row in g.rows):
        return None
    co = complement(g)
    mapping = [-1] * n
    pair = 0
    for v in range(n):
        if mapping[v] >= 0:
            continue
        partner = co.rows[v].bit_length() - 1
        mapping[v] = 2 * pair
        mapping[partner] = 2 * pair + 1
        pair += 1
    return OctahedronCertificate(n // 2, tuple(mapping))


def _cycle_complement_certificate(g: Graph) -> CycleComplementCertificate | None:
    n = g.n
    if n < 8:
        return None
    # degree n - 3 in g is degree 2 in the complement; only such g build it
    if any(row.bit_count() != n - 3 for row in g.rows):
        return None
    co = complement(g)
    if not is_connected(co):
        return None
    # walk the single cycle of the complement
    mapping = [-1] * n
    prev, cur = -1, 0
    for pos in range(n):
        mapping[cur] = pos
        nxt = [w for w in bits(co.rows[cur]) if w != prev]
        prev, cur = cur, nxt[0]
    return CycleComplementCertificate(n, tuple(mapping))


def divergence_certificate(g: Graph, coaff_node_cap: int = 200_000) -> Certificate | None:
    """First applicable divergence certificate, or None.

    Checked in a fixed order for reproducibility: octahedron, cycle
    complement, three coaffinable summands, connected sum. A None result
    is not a convergence claim.
    """
    if g.n == 0:
        return None
    cert = _octahedron_certificate(g)
    if cert is not None and cert.m >= 3:
        return cert
    ccert = _cycle_complement_certificate(g)
    if ccert is not None:
        return ccert
    summands = join_summands(g)
    if len(summands) < 2:
        return None
    coaffs = []
    for _, part in summands:
        sigma = find_coaffination(part, node_cap=coaff_node_cap)
        if sigma is None:
            return None
        coaffs.append(sigma)
    blocks = tuple(block for block, _ in summands)
    if len(summands) >= 3:
        return ThreeSummandsCertificate(blocks, tuple(coaffs))
    for idx, (_, part) in enumerate(summands):
        if part.n > 0 and is_connected(part):
            return ConnectedSumCertificate(blocks, tuple(coaffs), idx)
    return None


def _maps_onto(g: Graph, target: Graph, mapping: tuple[int, ...]) -> bool:
    """Check mapping is an edge-by-edge isomorphism from g onto target."""
    if g.n != target.n or sorted(mapping) != list(range(g.n)):
        return False
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v) != target.has_edge(mapping[u], mapping[v]):
                return False
    return True


def certificate_is_valid(g: Graph, cert: Certificate) -> bool:
    """Re-check a certificate against the graph it was issued for."""
    if isinstance(cert, OctahedronCertificate):
        if cert.m < 3 or g.n != 2 * cert.m:
            return False
        return _maps_onto(g, octahedron(cert.m), cert.mapping)
    if isinstance(cert, CycleComplementCertificate):
        if cert.n < 8 or g.n != cert.n:
            return False
        return _maps_onto(g, complement(cycle_graph(cert.n)), cert.mapping)
    if isinstance(cert, (ThreeSummandsCertificate, ConnectedSumCertificate)):
        blocks = cert.blocks
        if isinstance(cert, ThreeSummandsCertificate) and len(blocks) < 3:
            return False
        if isinstance(cert, ConnectedSumCertificate) and len(blocks) != 2:
            return False
        flat = sorted(v for b in blocks for v in b)
        if flat != list(range(g.n)):
            return False
        # blocks partition g into a join: all cross edges present
        for i, bi in enumerate(blocks):
            for j in range(i + 1, len(blocks)):
                for u in bi:
                    for v in blocks[j]:
                        if not g.has_edge(u, v):
                            return False
        for block, sigma in zip(blocks, cert.coaffinations):
            part = induced(g, block)
            if not is_coaffination(part, sigma):
                return False
        if isinstance(cert, ConnectedSumCertificate):
            part = induced(g, blocks[cert.connected_index])
            if part.n == 0 or not is_connected(part):
                return False
        return True
    return False


@dataclass(frozen=True)
class IterateStat:
    order: int
    edges: int
    fingerprint: str  # hex prefix of the canonical form when computed

    def to_json(self) -> list:
        return [self.order, self.edges, self.fingerprint]


@dataclass(frozen=True)
class BehaviorResult:
    """Outcome of iterating the clique graph operator on one input.

    status is "convergent" (tail/period set), "divergent" (certificate
    and the iterate where it fired) or "unknown" (which limit tripped).
    """

    status: str
    tail: int | None = None
    period: int | None = None
    certificate: Certificate | None = None
    detected_at: int | None = None
    limit: str | None = None
    iterations_done: int = 0
    max_order_seen: int = 0
    trace: tuple[IterateStat, ...] = ()

    @property
    def is_convergent(self) -> bool:
        return self.status == "convergent"

    @property
    def is_divergent(self) -> bool:
        return self.status == "divergent"

    def to_json(self) -> dict:
        out: dict = {
            "status": self.status,
            "iterations_done": self.iterations_done,
            "max_order_seen": self.max_order_seen,
            "trace": [t.to_json() for t in self.trace],
        }
        if self.status == "convergent":
            out["tail"] = self.tail
            out["period"] = self.period
        elif self.status == "divergent":
            out["certificate"] = self.certificate.to_json()
            out["detected_at"] = self.detected_at
        else:
            out["limit"] = self.limit
        return out


def _fingerprint(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()[:12]


def _iterate_invariant(g: Graph) -> tuple:
    inv: tuple = (g.n, g.edge_count(), tuple(sorted(g.degrees())))
    if g.n <= 64:
        inv += (triangle_count(g),)
    return inv


def classify_behavior(g: Graph, limits: Limits = DEFAULT_LIMITS) -> BehaviorResult:
    """Iterate the clique graph operator and classify the behavior.

    Each iterate is first screened for a divergence certificate (a
    certified-divergent iterate makes the input divergent, since the
    tail of its iterated sequence is contained in the input's).
    Convergence is detected when a canonical form repeats; the first
    repetition fixes tail and period. Limit hits yield Unknown.

    Canonical forms are only computed when two iterates collide on
    cheap invariants (order, size, degree multiset, small-order
    triangle count), so growing divergent sequences never pay for
    canonization. Trace fingerprints are canonical where computed and
    invariant-derived (marked with "~") otherwise.
    """
    iterates: list[Graph] = []
    invariants: list[tuple] = []
    buckets: dict[tuple, list[int]] = {}
    canon_cache: dict[int, str] = {}

    def canon_of(idx: int) -> str:
        if idx not in canon_cache:
            canon_cache[idx] = canonical_form(iterates[idx])
        return canon_cache[idx]

    def build_trace() -> tuple[IterateStat, ...]:
        out = []
        for idx, cur in enumerate(iterates):
            if idx in canon_cache:
                fp = _fingerprint(canon_cache[idx])
            else:
                fp = "~" + _fingerprint(repr(invariants[idx]))[:11]
            out.append(IterateStat(cur.n, cur.edge_count(), fp))
        return tuple(out)

    cur = g
    max_order = g.n
    for i in range(limits.max_iterations + 1):
        max_order = max(max_order, cur.n)
        cert = divergence_certificate(cur)
        if cert is not None:
            iterates.append(cur)
            invariants.append((cur.n, cur.edge_count(), ()))
            return BehaviorResult(
                "divergent",
                certificate=cert,
                detected_at=i,
                iterations_done=i,
                max_order_seen=max_order,
                trace=build_trace(),
            )
        inv = _iterate_invariant(cur)
        iterates.append(cur)
        invariants.append(inv)
        tail = None
        bucket = buckets.get(inv, [])
        if bucket:
            my_form = canon_of(i)
            for j in bucket:
                if canon_of(j) == my_form:
                    tail = j
                    break
        if tail is not None:
            return BehaviorResult(
                "convergent",
                tail=tail,
                period=i - tail,
                iterations_done=i,
                max_order_seen=max_order,
                trace=build_trace(),
            )
        buckets.setdefault(inv, []).append(i)
        if i == limits.max_iterations:
            break
        try:
            cur, _ = clique_graph(cur, cap=min(limits.max_cliques, limits.max_vertices))
        except CliqueLimitError:
            return BehaviorResult(
                "unknown",
                limit="clique-cap" if limits.max_cliques <= limits.max_vertices else "vertex-cap",
                iterations_done=i,
                max_order_seen=max_order,
                trace=build_trace(),
            )
    return BehaviorResult(
        "unknown",
        limit="iteration-cap",
        iterations_done=limits.max_iterations,
        max_order_seen=max_order,
        trace=build_trace(),
    )


def clique_count(g: Graph, result: BehaviorResult, limits: Limits) -> int:
    """Number of maximal cliques of g, where result = classify_behavior(g, limits).

    Iterate 1, when the trace has it, has one vertex per clique of g and
    was enumerated under a cap no larger than limits.max_cliques, so its
    order is the count. Only a shorter trace enumerates g again, which
    raises CliqueLimitError past limits.max_cliques.
    """
    if len(result.trace) >= 2:
        return result.trace[1].order
    return len(maximal_cliques(g, cap=limits.max_cliques))
