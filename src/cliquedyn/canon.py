"""Canonical labeling, isomorphism tests and coaffination search.

The canonizer refines an ordered partition to equitability, then
backtracks over individualizations of the first smallest non-singleton
cell. Each leaf is compared with the first leaf and the best leaf only.
A leaf equal to one of them gives an automorphism that fixes their
common prefix pointwise and maps the earlier leaf's branch onto this
one, so the search jumps back to the depth where the two paths part.
Each level merges the recorded automorphisms that fix its prefix into a
union-find of orbits, once each, and skips candidates in explored
orbits. The canonical form of a graph is the graph6 string of the best
relabeling; two graphs are isomorphic iff their forms are equal.

A caller that canonizes many graphs can pass one `known` dict to every
call: it maps the relabeled rows of each leaf of the full searches so
far to their canonical graph. A search whose first leaf is in it stops
there. That is exact: each leaf's rows are the graph relabeled by a
permutation, so a hit proves the graph isomorphic to one already
searched in full, and isomorphic graphs have one canonical graph. A
miss runs the full search. The hits are a matter of speed only, and
they come every time: the search tree is built from the isomorphism
type alone (McKay and Piperno, "Practical graph isomorphism II", 2014),
and a leaf skipped by automorphism pruning or a jump back has the rows
of one the search visited, so the first leaf of a relabeled graph has
rows the earlier search recorded. The full searches of an exhaustive
class list are then one per class: 94, 60 and 266 at (k, n) = (3, 12),
(4, 10) and (4, 11), against 340, 218 and 1 473 labeled graphs.
"""
from __future__ import annotations

from . import graph6
from .graphs import Graph, bits, mask_of, permuted_rows, relabel

# search-node budget of one find_coaffination call
COAFF_NODE_CAP = 200_000


def _refine(rows: tuple[int, ...], cells: list[int], worklist: list[int]) -> list[int]:
    """Refine an ordered partition to equitability.

    Cells are vertex masks. Splitting a cell orders the fragments by
    their neighbor count into the splitter, ascending, so the result
    depends only on the isomorphism type of (graph, ordered partition).
    A singleton splitter {s} gives counts 0 and 1 only, so its split of
    a cell is `cell & ~rows[s]` then `cell & rows[s]`, the same two
    fragments in the same order as counting each vertex would give.
    Any other splitter counts a cell's vertices in order until one
    differs from the first; a cell with no such vertex stays whole, and
    only a cell that splits is grouped by count.
    Cells are never empty, so n cells are singletons, which no splitter
    splits: the refinement stops there, leaving the worklist unread.
    """
    n = len(rows)
    while worklist and len(cells) < n:
        splitter = worklist.pop()
        new_cells: list[int] = []
        if splitter and splitter & (splitter - 1) == 0:
            row = rows[splitter.bit_length() - 1]
            for cell in cells:
                near = cell & row
                if near and near != cell:
                    new_cells += (cell ^ near, near)
                    worklist += (cell ^ near, near)
                else:
                    new_cells.append(cell)
            cells = new_cells
            continue
        for cell in cells:
            if cell & (cell - 1) == 0:  # empty or singleton
                new_cells.append(cell)
                continue
            low = cell & -cell
            first = (rows[low.bit_length() - 1] & splitter).bit_count()
            q = cell ^ low
            while q:
                low = q & -q
                d = (rows[low.bit_length() - 1] & splitter).bit_count()
                if d != first:
                    break
                q ^= low
            else:  # every count equal: the cell stays whole
                new_cells.append(cell)
                continue
            # the vertices before `low` all count `first`; group the rest
            groups = {first: cell ^ q, d: low}
            q ^= low
            while q:
                low = q & -q
                d = (rows[low.bit_length() - 1] & splitter).bit_count()
                groups[d] = groups.get(d, 0) | low
                q ^= low
            for d in sorted(groups):
                part = groups[d]
                new_cells.append(part)
                worklist.append(part)
        cells = new_cells
    return cells


def _individualize(rows: tuple[int, ...], cells: list[int], tgt: int, v: int) -> list[int]:
    """Cut v out of cell `tgt` of an equitable partition, then refine.

    The result is `_refine(rows, cells[:tgt] + [{v}, rest] + cells[tgt + 1:],
    [{v}, rest])`, with rest = the cell less v. That worklist pops rest
    first. In an equitable partition the vertices of a cell all have the
    same count into the old cell, and their count into rest is that less
    one exactly when they are adjacent to v. So the pop splits every cell
    by v, the adjacent fragment first, and this does it without counting.
    Once every cell is split by v, {v} splits nothing, so it is dropped
    from the worklist.
    """
    row = rows[v]
    cell = cells[tgt]
    new_cells: list[int] = []
    worklist: list[int] = []
    for c in cells[:tgt] + [1 << v, cell & ~(1 << v)] + cells[tgt + 1 :]:
        near = c & row
        if near and near != c:
            new_cells += (near, c ^ near)
            worklist += (near, c ^ near)
        else:
            new_cells.append(c)
    return _refine(rows, new_cells, worklist)


def _first_target_cell(cells: list[int]) -> int:
    """Index of the first cell of minimal size >= 2, or -1 if discrete."""
    best = -1
    best_size = 0
    for i, cell in enumerate(cells):
        if cell & (cell - 1):
            size = cell.bit_count()
            if size == 2:
                return i
            if best < 0 or size < best_size:
                best = i
                best_size = size
    return best


class _CanonSearch:
    def __init__(self, g: Graph, known: dict[tuple[int, ...], Graph] | None = None):
        self.rows = g.rows
        self.n = g.n
        self.first: tuple | None = None  # (relabeled rows, label, individualized path)
        self.best: tuple | None = None  # the same record for the least rows so far
        self.generators: list[tuple[int, ...]] = []
        self.moved: list[int] = []  # moved[i]: mask of the vertices generators[i] moves
        self.known = known
        self.hit: Graph | None = None  # known[first leaf's rows] when the search stopped there
        self.leaves: list[tuple[int, ...]] = []  # relabeled rows of every leaf, kept for `known`

    def run(self) -> list[int]:
        """Search as one loop over a stack of levels; return the best labeling.

        Level i picks the i-th vertex of the path. It holds its cells, the
        target cell's index, `left` (the cell's vertices neither tried nor in
        an explored orbit), its prefix, how many generators it has merged,
        and its orbits: `root` maps each vertex of a class of two or more to
        the class's root, and `members` each root to the class's mask. A
        leaf's resume depth d keeps levels 0..d.
        """
        if self.n == 0:
            return []
        rows, gens, moved = self.rows, self.generators, self.moved
        full = (1 << self.n) - 1
        cells = _refine(rows, [full], [full])
        prefix: tuple[int, ...] = ()
        stack: list[list] = []
        while True:
            tgt = _first_target_cell(cells)
            if tgt >= 0:
                stack.append([cells, tgt, cells[tgt], prefix, 0, {}, {}])
            else:
                del stack[self._leaf(cells, prefix) + 1 :]
            while stack:  # the deepest level with a candidate left takes the next
                cells, tgt, left, prefix, merged, root, members = level = stack[-1]
                if merged < len(gens) and left != cells[tgt]:  # orbits prune only after a pick
                    # the generators fixing the prefix apply, a set that only grows
                    # while the level is on the stack; they map the cell onto itself,
                    # and joining each moved vertex with its image gives their orbits.
                    # A class holding a vertex no longer in `left` is explored.
                    prefix_mask = mask_of(prefix)
                    for i in range(merged, len(gens)):
                        if moved[i] & prefix_mask:
                            continue
                        for x in bits(moved[i] & cells[tgt]):
                            a, b = root.get(x, x), root.get(gens[i][x], gens[i][x])
                            if a != b:
                                ma, mb = members.get(a, 1 << a), members.get(b, 1 << b)
                                if ma.bit_count() < mb.bit_count():
                                    a, b, ma, mb = b, a, mb, ma
                                for u in bits(mb):
                                    root[u] = a
                                members[a] = ma = ma | mb
                                if ma & ~left:
                                    left &= ~ma
                    level[4] = len(gens)
                if left:
                    break
                stack.pop()
            else:
                break
            low = left & -left
            v = low.bit_length() - 1
            level[2] = left & ~members.get(root.get(v, v), low)  # v's orbit is explored
            cells = _individualize(rows, cells, tgt, v)
            prefix += (v,)
        return self.best[1] if self.best else []  # no best after a stop at a known leaf

    def _leaf(self, cells: list[int], path: tuple[int, ...]) -> int:
        """Record a leaf against the first and best leaves; return the resume depth."""
        label = [cell.bit_length() - 1 for cell in cells]
        inv = [0] * self.n
        for pos, v in enumerate(label):
            inv[v] = pos
        rel = tuple(permuted_rows(self.rows, inv))
        if self.known is not None:
            if self.first is None and rel in self.known:
                self.hit = self.known[rel]
                return -1  # below every depth, so the stack empties
            self.leaves.append(rel)
        if self.first is None:
            self.first = self.best = (rel, label, path)
            return len(path)
        for rec_rel, rec_label, rec_path in (self.first, self.best):
            if rel == rec_rel:
                gen = [0] * self.n
                moved = 0
                for pos in range(self.n):
                    gen[rec_label[pos]] = label[pos]
                    if rec_label[pos] != label[pos]:
                        moved |= 1 << rec_label[pos]
                self.generators.append(tuple(gen))
                self.moved.append(moved)
                depth = 0
                while path[depth] == rec_path[depth]:
                    depth += 1
                return depth
        if rel < self.best[0]:
            self.best = (rel, label, path)
        return len(path)


def canonical_labeling(g: Graph) -> list[int]:
    """A labeling (position -> original vertex) realizing the canonical form."""
    return _CanonSearch(g).run()


def canonical_graph(g: Graph, known: dict[tuple[int, ...], Graph] | None = None) -> Graph:
    """g relabeled by canonical_labeling; the rows are the search's best leaf.

    `known`, when given, maps the relabeled rows of every leaf of earlier
    full searches to their canonical graphs. A search whose first leaf is
    in it stops there and returns that graph; any other search runs in
    full and adds all its leaves to it.
    """
    search = _CanonSearch(g, known)
    search.run()
    if search.hit is not None:
        return search.hit
    cg = Graph(g.n, search.best[0] if search.best else ())
    if known is not None:
        for rel in search.leaves:
            known[rel] = cg
    return cg


def canonical_form(g: Graph, known: dict[tuple[int, ...], Graph] | None = None) -> str:
    """Relabeling-invariant identifier: graph6 of the canonical labeling.

    canonical_form(g) == canonical_form(h) iff g and h are isomorphic.
    `known` is passed to canonical_graph.
    """
    return graph6.encode(canonical_graph(g, known))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    return canonical_form(g) == canonical_form(h)


def is_coaffination(g: Graph, perm: tuple[int, ...] | list[int]) -> bool:
    """Check that perm is an automorphism moving every vertex off its closed neighborhood.

    The graph on zero vertices has no coaffination, as in `find_coaffination`.
    """
    if g.n == 0 or sorted(perm) != list(range(g.n)):
        return False
    for v in range(g.n):
        img = perm[v]
        if img == v or (g.rows[v] >> img) & 1:
            return False
    return relabel(g, perm) == g


def find_coaffination(g: Graph) -> tuple[int, ...] | None:
    """Automorphism sigma with sigma(x) outside N[x] for every x, or None.

    The constraint is folded into the backtracking as a candidate filter
    rather than enumerating the automorphism group first: a vertex may go
    only to a vertex of its degree that is neither itself nor a
    neighbour. Vertices are placed in `order`, fewest candidates first,
    and the search is one loop over an explicit stack of levels: level i
    keeps `left[i]`, the untried candidates of `order[i]`, and
    `image[i]`, its current image. A candidate is tried, lowest first,
    when it is unused and keeps adjacency with every placed vertex. A
    level with no candidate left is popped and the level below tries its
    next one, so the depth is bounded by n and not by the interpreter's
    recursion limit. The graph on zero vertices has no coaffination by
    convention. COAFF_NODE_CAP bounds the number of levels opened; past
    it the search reports None, which callers treat as "no certificate
    found" (never as a wrong answer).
    """
    n = g.n
    if n == 0:
        return None
    deg = g.degrees()
    rows = g.rows
    of_degree: dict[int, int] = {}
    for v in range(n):
        of_degree[deg[v]] = of_degree.get(deg[v], 0) | 1 << v
    base = [of_degree[deg[v]] & ~rows[v] & ~(1 << v) for v in range(n)]
    if not all(base):
        return None
    order = sorted(range(n), key=lambda v: base[v].bit_count())
    left = [0] * n
    image = [-1] * n
    used = 0
    nodes = 0
    i = 0
    while True:
        v = order[i]
        if image[i] < 0:  # level i opens
            nodes += 1
            if nodes > COAFF_NODE_CAP:
                return None
            left[i] = base[v] & ~used
        else:  # back from level i + 1: free the current image
            used ^= 1 << image[i]
            image[i] = -1
        row = rows[v]
        while left[i]:
            low = left[i] & -left[i]
            left[i] ^= low
            w = low.bit_length() - 1
            rw = rows[w]
            for j in range(i):
                if (row >> order[j] ^ rw >> image[j]) & 1:
                    break
            else:
                image[i] = w
                used |= low
                break
        if image[i] >= 0:
            i += 1
            if i == n:
                return tuple(w for _, w in sorted(zip(order, image)))
        elif i == 0:
            return None
        else:
            i -= 1
