"""Maximal clique enumeration and the clique graph operator.

Enumeration is Bron-Kerbosch with pivot selection on an explicit stack,
all state kept in bitmasks. A configurable cap converts runaway clique
counts (typical for iterated clique graphs of divergent inputs) into a
CliqueLimitError instead of an unbounded run.
"""
from __future__ import annotations

from .graphs import Graph, bits

DEFAULT_CLIQUE_CAP = 2_000_000


class CliqueLimitError(RuntimeError):
    """Clique count exceeded the configured cap."""

    def __init__(self, cap: int):
        super().__init__(f"maximal clique count exceeded the cap of {cap}")
        self.cap = cap


def maximal_cliques(g: Graph, cap: int = DEFAULT_CLIQUE_CAP) -> tuple[int, ...]:
    """All maximal cliques of g as vertex masks, deduplicated, in deterministic order.

    Order is lexicographic on the sorted vertex tuples. The empty graph
    has no cliques; an isolated vertex is a clique of size one.
    """
    rows = g.rows
    out: list[int] = []
    if g.n == 0:
        return ()
    # frames (R, P, X, branches left); never more than |clique| + 1 deep
    stack: list[tuple[int, int, int, int]] = []
    r, p, x = 0, g.full_mask(), 0
    while True:
        if p:
            # pivot: vertex of P|X covering most of P
            pivot = -1
            best = -1
            for u in bits(p | x):
                c = (p & rows[u]).bit_count()
                if c > best:
                    best = c
                    pivot = u
                    if c == p.bit_count():
                        break
            todo = p & ~rows[pivot]
            if todo:
                stack.append((r, p, x, todo))
        elif not x:
            out.append(r)
            if len(out) > cap:
                raise CliqueLimitError(cap)
        if not stack:
            break
        r, p, x, todo = stack.pop()
        vb = todo & -todo
        if todo != vb:
            stack.append((r, p ^ vb, x | vb, todo ^ vb))
        row = rows[vb.bit_length() - 1]
        r, p, x = r | vb, p & row, x & row
    out.sort(key=lambda m: tuple(bits(m)))
    return tuple(out)


def clique_graph(g: Graph, cap: int = DEFAULT_CLIQUE_CAP) -> tuple[Graph, tuple[int, ...]]:
    """The intersection graph of the maximal cliques of g.

    Vertex i of the returned graph is clique mask i of the returned
    tuple; vertices are adjacent iff the cliques share a vertex.
    """
    cl = maximal_cliques(g, cap=cap)
    k = len(cl)
    rows = [0] * k
    # cliques through a common vertex form a complete block in K(g)
    through: list[list[int]] = [[] for _ in range(g.n)]
    for i, m in enumerate(cl):
        for v in bits(m):
            through[v].append(i)
    for group in through:
        if len(group) < 2:
            continue
        gm = 0
        for i in group:
            gm |= 1 << i
        for i in group:
            rows[i] |= gm
    for i in range(k):
        rows[i] &= ~(1 << i)
    return Graph(k, rows), cl
