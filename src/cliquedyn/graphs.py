"""Immutable simple graphs over dense vertex indices with bitmask adjacency.

Vertices are 0..n-1. Row i is a Python int whose bit j is set iff {i, j} is
an edge, so neighborhood queries, intersections and popcounts are
word-parallel. Graphs are values: every editing operation returns a new
Graph, which makes sharing across worker processes safe.

Vertex sets are passed around as bitmasks (plain ints); see `bits` and
`mask_of` for conversion helpers.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Sequence


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of a mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask with the given vertex indices set."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Graph:
    """Simple undirected graph with bit-row adjacency.

    Invariants: rows are symmetric (adj[u][v] == adj[v][u]), irreflexive
    (no bit v in row v) and exactly n wide. Construction from internal
    operations preserves these; `validate` re-checks them and is exercised
    by the test suite.
    """

    __slots__ = ("n", "rows", "_hash")

    def __init__(self, n: int, rows: Sequence[int]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(rows) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
        self.n = n
        self.rows = tuple(rows)
        self._hash = None

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

    @classmethod
    def from_upper_bits(cls, n: int, packed: int) -> "Graph":
        """Build from row-major upper-triangle bits, pair (0, 1) in the top
        bit n(n - 1)/2 - 1 and pair (n - 2, n - 1) in bit 0."""
        rows = [0] * n
        pos = n * (n - 1) // 2 - 1
        for i in range(n):
            for j in range(i + 1, n):
                if (packed >> pos) & 1:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
                pos -= 1
        return cls(n, rows)

    def validate(self) -> None:
        """Raise ValueError if symmetry, irreflexivity or width fail."""
        full = (1 << self.n) - 1
        for v, row in enumerate(self.rows):
            if row & ~full:
                raise ValueError(f"row {v} has bits beyond n={self.n}")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for u in range(self.n):
            for v in bits(self.rows[u]):
                if not (self.rows[v] >> u) & 1:
                    raise ValueError(f"asymmetric pair ({u}, {v})")

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(map(int.bit_count, self.rows))

    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.rows)) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            higher = self.rows[u] >> (u + 1)
            for off in bits(higher):
                yield (u, u + 1 + off)

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self.rows))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


def empty_graph(n: int) -> Graph:
    return Graph(n, [0] * n)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, [full & ~(1 << v) for v in range(n)])


def cycle_graph(n: int) -> Graph:
    """The n-cycle 0-1-...-(n-1)-0; requires n >= 3."""
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def matching_graph(m: int) -> Graph:
    """m disjoint edges (2i, 2i+1); the graph mK2."""
    if m < 0:
        raise ValueError("matching size must be non-negative")
    return Graph.from_edges(2 * m, [(2 * i, 2 * i + 1) for i in range(m)])


def octahedron(m: int) -> Graph:
    """The m-th octahedron: complement of m disjoint edges, 2m vertices."""
    if m < 1:
        raise ValueError(f"octahedron index must be >= 1, got {m}")
    return complement(matching_graph(m))


def complete_bipartite(a: int, b: int) -> Graph:
    left = (1 << a) - 1
    right = ((1 << b) - 1) << a
    return Graph(a + b, [right] * a + [left] * b)


def complement(g: Graph) -> Graph:
    full = g.full_mask()
    return Graph(g.n, [full & ~row & ~(1 << v) for v, row in enumerate(g.rows)])


def disjoint_union(parts: Sequence[Graph]) -> Graph:
    """Concatenate vertex blocks in order, with no cross-block edges."""
    if not parts:
        raise ValueError("disjoint union of an empty list is not defined")
    rows: list[int] = []
    offset = 0
    for part in parts:
        rows.extend(row << offset for row in part.rows)
        offset += part.n
    return Graph(offset, rows)


def join(a: Graph, b: Graph) -> Graph:
    """Disjoint union of a and b plus all edges between the two blocks."""
    a_mask = (1 << a.n) - 1
    b_mask = ((1 << b.n) - 1) << a.n
    rows = [row | b_mask for row in a.rows]
    rows.extend((row << a.n) | a_mask for row in b.rows)
    return Graph(a.n + b.n, rows)


def induced(g: Graph, vertices: int | Iterable[int]) -> Graph:
    """Induced subgraph; vertices may be a mask or an iterable of indices.

    The new graph uses indices 0..k-1 in increasing order of the original
    vertex numbers. A full mask returns g itself. That is safe because a
    full mask keeps every vertex at its own index and Graph is immutable.

    The mask is cut into maximal runs of consecutive kept vertices. Each
    run keeps its order and moves down by the number of dropped vertices
    below it, so a kept row is copied with one shift and mask per run,
    and the result is the same as renaming its bits one at a time.
    """
    mask = vertices if isinstance(vertices, int) else mask_of(vertices)
    if mask < 0 or mask >> g.n:
        raise ValueError(f"vertex set has a vertex outside 0..{g.n - 1}")
    if mask == g.full_mask():
        return g
    runs: list[tuple[int, int]] = []  # (run mask, dropped vertices below it)
    kept = 0
    m = mask
    while m:
        low = m & -m
        run = m & ~(m + low)
        runs.append((run, low.bit_length() - 1 - kept))
        kept += run.bit_count()
        m ^= run
    rows = []
    for run, shift in runs:
        first = (run & -run).bit_length() - 1
        for row in g.rows[first : first + run.bit_count()]:
            nr = 0
            for r, s in runs:
                nr |= (row & r) >> s
            rows.append(nr)
    return Graph(kept, rows)


def permuted_rows(rows: Sequence[int], perm: Sequence[int]) -> list[int]:
    """Adjacency rows after each vertex v is renamed perm[v]."""
    out = [0] * len(rows)
    for v, r in enumerate(rows):
        nr = 0
        while r:
            low = r & -r
            nr |= 1 << perm[low.bit_length() - 1]
            r ^= low
        out[perm[v]] = nr
    return out


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Apply vertex permutation: vertex v of g becomes perm[v]."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("relabeling must be a permutation of 0..n-1")
    return Graph(g.n, permuted_rows(g.rows, perm))


def connected_components(g: Graph) -> list[int]:
    """Component vertex masks, ordered by smallest contained vertex."""
    seen = 0
    comps = []
    full = g.full_mask()
    for v in range(g.n):
        if (seen >> v) & 1:
            continue
        frontier = 1 << v
        comp = 0
        while frontier:
            comp |= frontier
            nxt = 0
            for u in bits(frontier):
                nxt |= g.rows[u]
            frontier = nxt & ~comp & full
        comps.append(comp)
        seen |= comp
    return comps


def complement_components(g: Graph) -> list[int]:
    """`connected_components(complement(g))`, read off g's own rows.

    A vertex u outside a frontier F is a complement neighbour of some
    vertex of F unless it is g-adjacent to every vertex of F. So a BFS
    round ANDs the rows of F into the unvisited set, which keeps the
    vertices not reached, and stops as soon as that set is empty.
    """
    rows = g.rows
    left = g.full_mask()
    comps = []
    while left:
        frontier = left & -left
        comp = 0
        while frontier:
            comp |= frontier
            left &= ~frontier
            stay = left
            while frontier and stay:
                low = frontier & -frontier
                stay &= rows[low.bit_length() - 1]
                frontier ^= low
            frontier = left & ~stay
        comps.append(comp)
    return comps


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    return len(connected_components(g)) == 1
