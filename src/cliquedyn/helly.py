"""Triangle and cotriangle machinery and the clique-Helly decision.

A graph is (clique-)Helly iff for every triangle T the extended triangle
(the induced subgraph on vertices adjacent to at least two members of T)
is a cone; `is_helly` makes that polynomial test.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .graphs import Graph, bits, complement


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
        # with v cleared, q is u's neighbours above v: u < v < w counts once
        q = rows[u] >> (u + 1) << (u + 1)
        while q:
            low = q & -q
            q ^= low
            total += (q & rows[low.bit_length() - 1]).bit_count()
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
    if not is_triangle(g, t):
        raise ValueError(f"{tuple(t)} is not a triangle of the graph")
    return _two_neighbor_mask(g, t)


def _two_neighbor_mask(g: Graph, t) -> int:
    """Mask of vertices adjacent to at least two members of the triple t."""
    a, b, c = t
    ra, rb, rc = g.rows[a], g.rows[b], g.rows[c]
    return (ra & rb) | (ra & rc) | (rb & rc)


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
        if not _ext_has_apex(g, _two_neighbor_mask(g, t)):
            return HellyVerdict(False, t)
    return HellyVerdict(True, None)


def check_cotriangle_cover(g: Graph, k: int) -> list[tuple[tuple[int, int, int], int]]:
    """Cotriangles of a k-regular graph with fewer than k adjacent vertices.

    Returns (cotriangle, adjacent-vertex count) pairs. When the
    complement of g is Helly the returned list is necessarily empty.
    """
    if any(d != k for d in g.degrees()):
        raise ValueError(f"graph is not {k}-regular")
    violations = []
    for t in cotriangles(g):
        count = _two_neighbor_mask(g, t).bit_count()
        if count < k:
            violations.append((t, count))
    return violations
