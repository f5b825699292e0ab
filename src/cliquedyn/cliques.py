"""Maximal clique enumeration and the clique graph operator.

Enumeration is Bron-Kerbosch with pivot selection (Tomita, Tanaka and
Takahashi, 2006) on an explicit stack, all state kept in bitmasks;
candidates adjacent to all the other candidates join the clique without
a branch. A configurable cap converts runaway clique counts (typical for
iterated clique graphs of divergent inputs) into a CliqueLimitError
instead of an unbounded run.

The cap can trip before any clique is listed: each of the 2^t maximal
cliques of an induced octahedron O_t extends to its own maximal clique
of the graph (Moon and Moser, 1965), so an induced O_t with 2^t > cap
proves the raise. Iterates of divergent graphs carry large octahedra,
since K(O_m) is O_{2^(m-1)} (Neumann-Lara, 1978). The search for one is
greedy, one seed per step and then four, and a miss leaves the raise
to the enumeration.
"""
from __future__ import annotations

from bisect import insort

from .graphs import Graph, mask_of

DEFAULT_CLIQUE_CAP = 2_000_000
# greedy octahedron search passes: seeds tried per step, in order
OCTAHEDRON_WIDTHS = (1, 4)


class CliqueLimitError(RuntimeError):
    """Clique count exceeded the configured cap."""

    def __init__(self, cap: int):
        super().__init__(f"maximal clique count exceeded the cap of {cap}")
        self.cap = cap


def maximal_cliques(g: Graph, cap: int = DEFAULT_CLIQUE_CAP) -> tuple[int, ...]:
    """All maximal cliques of g as vertex masks, deduplicated, in deterministic order.

    Order is lexicographic on the sorted vertex tuples. The empty graph
    has no cliques; an isolated vertex is a clique of size one.

    At each node (R, P, X) one scan of P counts |P & N(u)| per vertex.
    The vertices whose count is |P| - 1 are adjacent to all the rest of
    P, so every maximal clique of G[P] contains them: they move into R
    in one step, and X keeps only their common neighbours. The node then
    reports the same cliques as plain pivoting Bron-Kerbosch, so the
    sorted output is the same, and CliqueLimitError is raised exactly
    when there are more than `cap` cliques. The pivot is the vertex of
    the remaining P | X with most neighbours in P. Before any node, an
    induced O_t with 2^t > cap found by `_octahedron_pairs` raises at once.
    """
    rows = g.rows
    out: list[int] = []
    if g.n == 0:
        return ()
    if _octahedron_pairs(g, cap.bit_length()) is not None:
        raise CliqueLimitError(cap)
    # frames (R, P, X, branches left) hold untried siblings only: a node
    # descends into its lowest branch at once; one frame per clique vertex
    stack: list[tuple[int, int, int, int]] = []
    r, p, x = 0, g.full_mask(), 0
    while True:
        rest = p
        todo = 0
        if p:
            size = p.bit_count()
            best = -1
            pivot_row = 0
            universal = 0
            q = p
            while q:
                low = q & -q
                row = rows[low.bit_length() - 1]
                c = (p & row).bit_count()
                if c == size - 1:
                    universal |= low
                elif c > best:
                    best = c
                    pivot_row = row
                q ^= low
            if universal:
                r |= universal
                rest = p ^ universal
                q = universal
                while q:
                    low = q & -q
                    x &= rows[low.bit_length() - 1]
                    q ^= low
        if rest:
            # what is left of X is adjacent to every moved vertex, so its
            # counts into p exceed those into rest by as much as P's do
            q = x
            while q:
                low = q & -q
                row = rows[low.bit_length() - 1]
                c = (p & row).bit_count()
                if c > best:
                    best = c
                    pivot_row = row
                    if c == size:
                        break
                q ^= low
            todo = rest & ~pivot_row
        elif not x:
            out.append(r)
            if len(out) > cap:
                raise CliqueLimitError(cap)
        if todo:
            p = rest
        elif stack:
            r, p, x, todo = stack.pop()
        else:
            break
        vb = todo & -todo
        if todo != vb:
            stack.append((r, p ^ vb, x | vb, todo ^ vb))
        row = rows[vb.bit_length() - 1]
        r, p, x = r | vb, p & row, x & row
    # distinct maximal cliques are never nested, so the lowest vertex
    # where two differ lies in the one whose sorted tuple comes first:
    # the bit strings read from vertex 0 up, descending, give that order
    # (bin's unpadded string decides at that vertex, before either ends)
    out.sort(key=lambda m: bin(m)[::-1], reverse=True)
    return tuple(out)


def _octahedron_pairs(g: Graph, t: int) -> list[tuple[int, int]] | None:
    """t disjoint non-adjacent pairs, each adjacent to all the others, or None.

    Such pairs induce O_t. The search is greedy and may miss one: each
    pair comes from `alive`, the common neighbours of the pairs before
    it. A pass of width w tries the best partner (the one that keeps
    most of `alive`) of each of the w alive vertices with fewest alive
    non-neighbours, and keeps the pair that keeps most; one pass per
    width in OCTAHEDRON_WIDTHS, until one finds t pairs. A vertex of an
    induced O_t has degree 2t - 2 to n - 2, so only those start alive,
    and there is no search unless 2t degrees reach 2t - 2.
    """
    n, rows = g.n, g.rows
    if n < 2 * t:
        return None
    degrees = list(map(int.bit_count, rows))
    if sorted(degrees)[-2 * t] < 2 * t - 2:
        return None
    start = mask_of(v for v, d in enumerate(degrees) if 2 * t - 2 <= d <= n - 2)
    if start.bit_count() < 2 * t:
        return None
    for width in OCTAHEDRON_WIDTHS:
        alive = start
        pairs: list[tuple[int, int]] = []
        while len(pairs) < t:
            size = alive.bit_count()
            if size < 2 * (t - len(pairs)):
                break
            # (count, vertex), ascending; the count of alive vertices off
            # the row includes the vertex itself, so 2 is one non-neighbour
            # and none can do better
            seeds: list[tuple[int, int]] = []
            q = alive
            while q:
                low = q & -q
                q ^= low
                v = low.bit_length() - 1
                c = size - (alive & rows[v]).bit_count()
                if 1 < c and (len(seeds) < width or c < seeds[-1][0]):
                    insort(seeds, (c, v))
                    del seeds[width:]
                    if len(seeds) == width and seeds[-1][0] == 2:
                        break
            if not seeds:
                break
            # |keep & rows[b]| is what the pair (a, b) keeps of alive: the
            # first seed, then the first partner, to keep most wins
            best = -1
            for _, a in seeds:
                keep = alive & rows[a]
                q = alive ^ keep ^ (1 << a)
                while q:
                    low = q & -q
                    q ^= low
                    v = low.bit_length() - 1
                    c = (keep & rows[v]).bit_count()
                    if c > best:
                        best, pair = c, (a, v)
            pairs.append(pair)
            alive &= rows[pair[0]] & rows[pair[1]]
        if len(pairs) == t:
            return pairs
    return None


def clique_graph(
    g: Graph, cap: int = DEFAULT_CLIQUE_CAP, *, cliques: tuple[int, ...] | None = None
) -> tuple[Graph, tuple[int, ...]]:
    """The intersection graph of the maximal cliques of g.

    Vertex i of the returned graph is clique mask i of the returned
    tuple; vertices are adjacent iff the cliques share a vertex.
    `cliques`, when given, must be `maximal_cliques(g)` as a caller has
    already enumerated it: it is used as is, and `cap` is not read.
    """
    cl = maximal_cliques(g, cap=cap) if cliques is None else cliques
    # through[v]: mask of the cliques through v; a clique's row is the
    # union of its vertices' masks, less itself
    through = [0] * g.n
    for i, m in enumerate(cl):
        bit = 1 << i
        while m:
            low = m & -m
            through[low.bit_length() - 1] |= bit
            m ^= low
    rows: list[int] = []
    for i, m in enumerate(cl):
        row = 0
        while m:
            low = m & -m
            row |= through[low.bit_length() - 1]
            m ^= low
        rows.append(row & ~(1 << i))
    return Graph(len(cl), rows), cl
