"""Triangle and cotriangle machinery and the clique-Helly decision.

A graph is (clique-)Helly iff for every triangle T the extended triangle
(the induced subgraph on vertices adjacent to at least two members of T)
is a cone. That polynomial test is implemented here next to a
brute-force oracle that checks the defining property over all
subfamilies of cliques, used to cross-validate the fast path.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .cliques import maximal_cliques
from .graphs import Graph, bits, complement


class OracleLimitError(RuntimeError):
    """Brute-force Helly oracle refused an input with too many cliques."""

    def __init__(self, count: int, cap: int):
        super().__init__(f"{count} cliques exceed the oracle cap of {cap}")
        self.count = count
        self.cap = cap


@dataclass(frozen=True)
class HellyVerdict:
    is_helly: bool
    witness: tuple[int, int, int] | None = None

    def __bool__(self) -> bool:
        return self.is_helly


def _iter_triangles(g: Graph) -> Iterator[tuple[int, int, int]]:
    rows = g.rows
    for u in range(g.n):
        ru = rows[u] >> (u + 1)
        for off in bits(ru):
            v = u + 1 + off
            for w in bits(rows[u] & (rows[v] >> (v + 1) << (v + 1))):
                yield (u, v, w)


def triangles(g: Graph) -> list[tuple[int, int, int]]:
    """All 3-vertex completes, each once, ordered lexicographically."""
    return list(_iter_triangles(g))


def triangle_count(g: Graph) -> int:
    total = 0
    rows = g.rows
    for u in range(g.n):
        for off in bits(rows[u] >> (u + 1)):
            v = u + 1 + off
            total += (rows[u] & (rows[v] >> (v + 1) << (v + 1))).bit_count()
    return total


def cotriangles(g: Graph) -> list[tuple[int, int, int]]:
    """Independent triples of g, computed as triangles of the complement."""
    return triangles(complement(g))


def cotriangle_count(g: Graph) -> int:
    return triangle_count(complement(g))


def is_triangle(g: Graph, t) -> bool:
    a, b, c = t
    if len({a, b, c}) != 3 or not all(0 <= v < g.n for v in (a, b, c)):
        return False
    return g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)


def extended_triangle(g: Graph, t) -> int:
    """Mask of vertices adjacent to >= 2 members of triangle t.

    Contains t itself, since each member is adjacent to the other two.
    """
    a, b, c = t
    if not is_triangle(g, (a, b, c)):
        raise ValueError(f"{tuple(t)} is not a triangle of the graph")
    ra, rb, rc = g.rows[a], g.rows[b], g.rows[c]
    return (ra & rb) | (ra & rc) | (rb & rc)


def cone_apex(g: Graph) -> int | None:
    """A vertex adjacent to all others, or None. K_1 is a cone with apex 0."""
    target = g.n - 1
    for v in range(g.n):
        if g.rows[v].bit_count() == target:
            return v
    return None


def _ext_has_apex(g: Graph, ext: int) -> bool:
    # cone test on the induced subgraph: apex must dominate ext, not all of g
    for v in bits(ext):
        if g.rows[v] & ext == ext & ~(1 << v):
            return True
    return False


def is_helly(g: Graph) -> HellyVerdict:
    """Decide the clique-Helly property via extended triangles.

    Triangle-free graphs are Helly vacuously. A negative verdict carries
    a witness triangle whose extended triangle has no apex: the first in
    lexicographic order, found without listing the triangles after it.
    """
    for t in _iter_triangles(g):
        a, b, c = t
        ra, rb, rc = g.rows[a], g.rows[b], g.rows[c]
        ext = (ra & rb) | (ra & rc) | (rb & rc)
        if not _ext_has_apex(g, ext):
            return HellyVerdict(False, t)
    return HellyVerdict(True, None)


def helly_witnesses(g: Graph) -> list[tuple[int, int, int]]:
    """Every triangle whose extended triangle is not a cone (diagnostics)."""
    out = []
    for t in triangles(g):
        if not _ext_has_apex(g, extended_triangle(g, t)):
            out.append(t)
    return out


def helly_brute_oracle(g: Graph, clique_cap: int = 20) -> bool:
    """Check the Helly property directly over all subfamilies of cliques.

    Exponential in the clique count, so inputs with more than
    `clique_cap` cliques are rejected.
    """
    masks = maximal_cliques(g).masks
    c = len(masks)
    if c > clique_cap:
        raise OracleLimitError(c, clique_cap)
    full = g.full_mask()
    # subsets ordered by increasing popcount would exit marginally earlier;
    # plain order is fast enough below the cap
    for sub in range(1, 1 << c):
        chosen = [masks[i] for i in bits(sub)]
        inter = full
        for m in chosen:
            inter &= m
        if inter:
            continue
        pairwise = all(
            chosen[i] & chosen[j]
            for i in range(len(chosen))
            for j in range(i + 1, len(chosen))
        )
        if pairwise:
            return False
    return True


def is_cotriangle(g: Graph, t) -> bool:
    a, b, c = t
    if len({a, b, c}) != 3 or not all(0 <= v < g.n for v in (a, b, c)):
        return False
    return not (g.has_edge(a, b) or g.has_edge(a, c) or g.has_edge(b, c))


def cotriangle_adjacent_vertices(g: Graph, t) -> int:
    """Mask of vertices with >= 2 neighbors in the cotriangle t.

    Members of t are never included: t is independent, so each member
    has zero neighbors inside it.
    """
    a, b, c = t
    if not is_cotriangle(g, (a, b, c)):
        raise ValueError(f"{tuple(t)} is not a cotriangle of the graph")
    ra, rb, rc = g.rows[a], g.rows[b], g.rows[c]
    return (ra & rb) | (ra & rc) | (rb & rc)


def check_cotriangle_cover(g: Graph, k: int) -> list[tuple[tuple[int, int, int], int]]:
    """Cotriangles of a k-regular graph with fewer than k adjacent vertices.

    Returns (cotriangle, adjacent-vertex count) pairs. When the
    complement of g is Helly the returned list is necessarily empty.
    """
    if any(d != k for d in g.degrees()):
        raise ValueError(f"graph is not {k}-regular")
    violations = []
    for t in cotriangles(g):
        count = cotriangle_adjacent_vertices(g, t).bit_count()
        if count < k:
            violations.append((t, count))
    return violations
