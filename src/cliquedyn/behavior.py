"""Clique-graph dynamics: divergence certificates and the convergence classifier.

A graph is convergent when the iterated clique graph sequence repeats an
isomorphism class, and divergent when some iterate matches one of four
certified divergent shapes:

  * an octahedron O_m with m >= 3,
  * the complement of a cycle C_n with n >= 8,
  * a join of >= 3 summands, each with a coaffination,
  * a join of two summands, both with coaffinations, one connected.

All four are facts about the components of the complement, so
`divergence_certificate` reads them off those components, which
`graphs.complement_components` finds from g's own rows without building
the complement. O_m's complement is m disjoint edges, so its components
are m >= 3 vertex pairs; a cycle complement's complement is one cycle;
and the two join shapes have two or more components, whose induced
subgraphs in g are the summands of `join_summands`.

Certificates carry explicit witnesses (isomorphism maps, summand blocks,
coaffination permutations), and each certificate validates itself:
`validate(g)` re-checks its witness against g alone, sharing no code with
the search that issued it. The classifier reports Unknown when a
resource limit trips; it never guesses.

A certificate proves divergence, so no iterate of a sequence that
repeats has one. The classifier leans on that: when the clique stars
of iterate i - 2 prove iterate i isomorphic to it, iterate i is
neither built nor screened.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import ClassVar

from .canon import canonical_form, find_coaffination, is_coaffination
from .cliques import DEFAULT_CLIQUE_CAP, CliqueLimitError, clique_graph, maximal_cliques
from .helly import triangle_count
from .graphs import (
    Graph,
    bits,
    complement,
    complement_components,
    cycle_graph,
    induced,
    is_connected,
    octahedron,
    relabel,
)


@dataclass(frozen=True)
class Limits:
    """Resource limits for classify_behavior.

    The next iterate has one vertex per maximal clique, so the smaller of
    max_cliques and max_vertices bounds each clique enumeration and no
    iterate past max_vertices is built. Such a stop is labelled
    "clique-cap" if max_cliques <= max_vertices, else "vertex-cap".
    A cap can trip before any clique is listed: an induced octahedron
    O_t with 2^t past the cap proves that many maximal cliques, so the
    stop is the one the full enumeration would reach. The search for one
    is greedy (two passes, see `cliques`); where it misses, the
    enumeration runs to the cap.
    """

    max_iterations: int = 30
    max_vertices: int = 20_000
    max_cliques: int = DEFAULT_CLIQUE_CAP

    def __post_init__(self):
        if self.max_iterations < 1 or self.max_vertices < 1 or self.max_cliques < 1:
            raise ValueError("limits must be positive")


DEFAULT_LIMITS = Limits()


@dataclass(frozen=True)
class Certificate:
    """A divergence witness for one graph.

    Its report form is `kind` followed by the dataclass fields, tuples
    as lists; `validate(g)` re-checks the witness against g alone.
    """

    kind: ClassVar[str]

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        for f in fields(self):
            out[f.name] = _as_lists(getattr(self, f.name))
        return out

    def validate(self, g: Graph) -> bool:
        raise NotImplementedError


def _as_lists(value):
    return [_as_lists(v) for v in value] if isinstance(value, tuple) else value


@dataclass(frozen=True)
class OctahedronCertificate(Certificate):
    """g is isomorphic to O_m; mapping[v] is the O_m vertex for g-vertex v."""

    kind: ClassVar[str] = "octahedron"
    m: int
    mapping: tuple[int, ...]

    def validate(self, g: Graph) -> bool:
        return self.m >= 3 and g.n == 2 * self.m and _maps_onto(g, octahedron(self.m), self.mapping)


@dataclass(frozen=True)
class CycleComplementCertificate(Certificate):
    """g is isomorphic to the complement of C_n."""

    kind: ClassVar[str] = "cycle-complement"
    n: int
    mapping: tuple[int, ...]

    def validate(self, g: Graph) -> bool:
        return (
            self.n >= 8
            and g.n == self.n
            and _maps_onto(g, complement(cycle_graph(self.n)), self.mapping)
        )


@dataclass(frozen=True)
class ThreeSummandsCertificate(Certificate):
    """g is a join of >= 3 summands, each with a coaffination.

    blocks are the summand vertex sets in g; coaffinations[i] permutes
    block i positionally (local indices into blocks[i]).
    """

    kind: ClassVar[str] = "three-summands"
    blocks: tuple[tuple[int, ...], ...]
    coaffinations: tuple[tuple[int, ...], ...]

    def validate(self, g: Graph) -> bool:
        return len(self.blocks) >= 3 and _is_coaffinable_join(g, self.blocks, self.coaffinations)


@dataclass(frozen=True)
class ConnectedSumCertificate(Certificate):
    """g is a join of two coaffinable summands, at least one connected."""

    kind: ClassVar[str] = "connected-sum"
    blocks: tuple[tuple[int, ...], ...]
    coaffinations: tuple[tuple[int, ...], ...]
    connected_index: int

    def validate(self, g: Graph) -> bool:
        return (
            len(self.blocks) == 2
            and 0 <= self.connected_index < 2
            and _is_coaffinable_join(g, self.blocks, self.coaffinations)
            and is_connected(induced(g, self.blocks[self.connected_index]))
        )


def join_summands(g: Graph) -> list[tuple[tuple[int, ...], Graph]]:
    """Maximal join decomposition: (vertex block, induced summand) pairs.

    The summands are the connected components of the complement, induced
    back in g; each returned summand therefore has a connected
    complement, and g equals the iterated join of the summands.
    """
    if g.n == 0:
        raise ValueError("the empty graph has no join decomposition")
    return [(tuple(bits(mask)), induced(g, mask)) for mask in complement_components(g)]


def _cycle_complement_certificate(g: Graph) -> CycleComplementCertificate | None:
    """Certificate for g, whose complement is connected.

    That complement is a cycle iff its degrees are all 2, that is, iff
    every degree of g is n - 3; only then is it built, for the walk.
    """
    n = g.n
    if n < 8 or any(row.bit_count() != n - 3 for row in g.rows):
        return None
    co = complement(g)
    mapping = [-1] * n
    prev, cur = -1, 0
    for pos in range(n):
        mapping[cur] = pos
        nxt = [w for w in bits(co.rows[cur]) if w != prev]
        prev, cur = cur, nxt[0]
    return CycleComplementCertificate(n, tuple(mapping))


def divergence_certificate(g: Graph) -> Certificate | None:
    """First applicable divergence certificate, or None.

    Every shape is read off the components of the complement: a single
    one can only be a cycle complement; blocks that are all pairs (with
    n >= 6) make g the octahedron O_{n/2}, block i's lower vertex mapping
    to 2i and its higher to 2i + 1; otherwise the blocks are induced and
    tried as a join, three coaffinable summands before a connected sum.
    The shapes exclude each other, so the order stays octahedron, cycle
    complement, three summands, connected sum. A None result is not a
    convergence claim.
    """
    if g.n == 0:
        return None
    comps = complement_components(g)
    if len(comps) == 1:
        return _cycle_complement_certificate(g)
    blocks = tuple(tuple(bits(mask)) for mask in comps)
    if g.n >= 6 and all(len(block) == 2 for block in blocks):
        mapping = [0] * g.n
        for i, (lo, hi) in enumerate(blocks):
            mapping[lo], mapping[hi] = 2 * i, 2 * i + 1
        return OctahedronCertificate(len(blocks), tuple(mapping))
    parts = [induced(g, mask) for mask in comps]
    coaffs = []
    for part in parts:
        sigma = find_coaffination(part)
        if sigma is None:
            return None
        coaffs.append(sigma)
    if len(parts) >= 3:
        return ThreeSummandsCertificate(blocks, tuple(coaffs))
    for idx, part in enumerate(parts):
        if is_connected(part):
            return ConnectedSumCertificate(blocks, tuple(coaffs), idx)
    return None


def _maps_onto(g: Graph, target: Graph, mapping: tuple[int, ...]) -> bool:
    """Check mapping is an isomorphism from g onto target."""
    return g.n == target.n and sorted(mapping) == list(range(g.n)) and relabel(g, mapping) == target


def _is_coaffinable_join(g: Graph, blocks, coaffinations) -> bool:
    """The non-empty blocks partition V(g), every cross edge is present, and
    coaffinations[i] is a coaffination of the summand on blocks[i]."""
    if len(coaffinations) != len(blocks) or not all(blocks):
        return False
    if sorted(v for b in blocks for v in b) != list(range(g.n)):
        return False
    cross = ((u, v) for i, bi in enumerate(blocks) for bj in blocks[i + 1:] for u in bi for v in bj)
    return all(g.has_edge(u, v) for u, v in cross) and all(
        is_coaffination(induced(g, b), sigma) for b, sigma in zip(blocks, coaffinations)
    )


def certificate_is_valid(g: Graph, cert: Certificate) -> bool:
    """Re-check a certificate against the graph it was issued for."""
    return isinstance(cert, Certificate) and cert.validate(g)


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
    degrees = sorted(map(int.bit_count, g.rows))
    inv: tuple = (g.n, sum(degrees) // 2, tuple(degrees))
    if g.n <= 64:
        inv += (triangle_count(g),)
    return inv


def _stars_are_the_cliques(n: int, cliques: tuple[int, ...], next_cliques: tuple[int, ...]) -> bool:
    """Whether the stars of H are the maximal cliques of K(H).

    H has n vertices and maximal cliques `cliques`, vertex k of K(H)
    being cliques[k]; next_cliques are the maximal cliques of K(H). The
    star of v is the mask of the cliques through v. H has n stars, so
    they are built only when K(H) has n cliques.
    """
    if len(next_cliques) != n:
        return False
    stars = [0] * n
    for k, m in enumerate(cliques):
        bit = 1 << k
        while m:
            low = m & -m
            stars[low.bit_length() - 1] |= bit
            m ^= low
    return set(stars) == set(next_cliques)


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

    Most sequences end with iterate i isomorphic to iterate i - 2, and
    a star test proves that repeat before iterate i is built. The star
    of a vertex v of H = iterate i - 2 is the set of H's maximal cliques
    through v. If the n stars of H are the maximal cliques of K(H),
    v -> star(v) is an isomorphism from H onto K^2(H), since u ~ v
    exactly when their stars meet. For a clique-Helly H the maximal
    cliques of K(H) are its maximal stars (Escalante, "Über iterierte
    Clique-Graphen", 1973; Bandelt and Prisner, "Clique graphs and Helly
    graphs", 1991), so the test passes whenever K(H) has n cliques. It
    runs once K(H)'s cliques are enumerated, and when it passes,
    iterate i is neither built nor screened: the sequence is periodic,
    and each certificate proves divergence, so none exists for iterate
    i under any labeling. Iterate i takes iterate i - 2's invariant,
    and iterate i - 2's canonical form fingerprints both. No earlier
    iterate can match: each was compared with iterate i - 2, on the
    same invariant and form, when iterate i - 2 was reached. So the same
    repeat is reported with the same fingerprints as by building
    iterate i and comparing it with every earlier one.
    """
    iterates: list[Graph] = []
    invariants: list[tuple] = []
    canon_cache: dict[int, str] = {}
    known: dict[tuple[int, ...], Graph] = {}  # leaf rows of this call's searches

    def canon_of(idx: int) -> str:
        if idx not in canon_cache:
            canon_cache[idx] = canonical_form(iterates[idx], known)
        return canon_cache[idx]

    def result(status: str, done: int, **found) -> BehaviorResult:
        # every invariant starts with the iterate's order and edge count
        trace = []
        for idx, inv in enumerate(invariants):
            if idx in canon_cache:
                fp = _fingerprint(canon_cache[idx])
            else:
                fp = "~" + _fingerprint(repr(inv))[:11]
            trace.append(IterateStat(inv[0], inv[1], fp))
        return BehaviorResult(
            status,
            iterations_done=done,
            max_order_seen=max(t.order for t in trace),
            trace=tuple(trace),
            **found,
        )

    cur = g
    cliques: tuple[int, ...] | None = None  # the maximal cliques of iterate i - 1
    for i in range(limits.max_iterations + 1):
        iterates.append(cur)
        cert = divergence_certificate(cur)
        if cert is not None:
            invariants.append((cur.n, cur.edge_count(), ()))
            return result("divergent", i, certificate=cert, detected_at=i)
        inv = _iterate_invariant(cur)
        invariants.append(inv)
        for j in range(i):
            if invariants[j] == inv and canon_of(i) == canon_of(j):
                return result("convergent", i, tail=j, period=i - j)
        if i == limits.max_iterations:
            break
        try:
            cl = maximal_cliques(cur, cap=min(limits.max_cliques, limits.max_vertices))
        except CliqueLimitError:
            limit = "clique-cap" if limits.max_cliques <= limits.max_vertices else "vertex-cap"
            return result("unknown", i, limit=limit)
        if cliques is not None and _stars_are_the_cliques(iterates[i - 1].n, cliques, cl):
            # iterate i + 1 is iterate i - 1 up to isomorphism: not built
            invariants.append(invariants[i - 1])
            canon_cache[i + 1] = canon_of(i - 1)
            return result("convergent", i + 1, tail=i - 1, period=2)
        cur, _ = clique_graph(cur, cliques=cl)
        cliques = cl
    return result("unknown", limits.max_iterations, limit="iteration-cap")


def clique_count(g: Graph, result: BehaviorResult, limits: Limits) -> int | None:
    """Number of maximal cliques of g, or None past limits.max_cliques.

    result must be classify_behavior(g, limits). Iterate 1, when the
    trace has it, has one vertex per clique of g, enumerated under a cap
    no larger than limits.max_cliques, so its order is the count. A
    clique-cap stop at iterate 0 already ran that enumeration under
    limits.max_cliques and raised, so it gives None at once; any other
    shorter trace enumerates g once.
    """
    if len(result.trace) >= 2:
        return result.trace[1].order
    if result.limit == "clique-cap":
        return None
    try:
        return len(maximal_cliques(g, cap=limits.max_cliques))
    except CliqueLimitError:
        return None
