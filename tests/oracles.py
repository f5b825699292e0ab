"""Reference implementations that the tests compare the library against.

Most decide their question from the definition, exponentially where
they must, and reuse no fast-path kernel of the function they check.
They live here, outside the package, so that no library code can call
one. Fifteen are the library's earlier code, kept as it was when other
code replaced it: plain pivoting Bron-Kerbosch, the one-seed greedy
octahedron search and the two-pass search that followed it, partition
refinement that counts every vertex into every splitter, the triangle
count that walks neighbours with `bits`,
the graph6 encoder that packs one bit per step and the decoder that
unpacks one bit per step, the classifier that canonizes both iterates
of every repeat, the divergence screen
that builds the complement and the full join decomposition of every
graph, the recursive canonical search and coaffination search, the
class list step that runs one full canonical search per labeled
graph, the generic regular
route that tests every swap with its own call, the degree 1 and 2
class lists built from their structure: one perfect matching, and one
union of cycles per partition of n, and the 2-switch that the random
generator's burn-in inlines. The cubic expansion closure
at the end is not brute force either: it is a second exhaustive cubic
route, built from the 2-edge reduction theorem rather than from
labelings.
"""
from bisect import insort
from collections import Counter
from itertools import combinations, permutations

from cliquedyn import (
    DEFAULT_LIMITS,
    BehaviorResult,
    CliqueLimitError,
    ConnectedSumCertificate,
    CycleComplementCertificate,
    Graph,
    OctahedronCertificate,
    ThreeSummandsCertificate,
    Limits,
    bits,
    canonical_form,
    canonical_graph,
    clique_graph,
    complement,
    connected_components,
    cycle_graph,
    divergence_certificate,
    disjoint_union,
    empty_graph,
    encode,
    find_coaffination,
    induced,
    is_connected,
    mask_of,
    matching_graph,
    maximal_cliques,
    triangle_count,
)
from cliquedyn.behavior import IterateStat, _fingerprint, _iterate_invariant
from cliquedyn.canon import _first_target_cell, _individualize, _refine
from cliquedyn.cliques import OCTAHEDRON_WIDTHS
from cliquedyn.graph6 import Graph6Error
from cliquedyn.graphs import permuted_rows


def isomorphic_brute(g: Graph, h: Graph) -> bool:
    """Exhaustive isomorphism oracle, independent of the canonizer.

    Plain backtracking over vertex assignments with degree and adjacency
    consistency checks; exponential, for small-n testing only.
    """
    if g.n != h.n:
        return False
    if g.n > 10:
        raise ValueError("brute-force isomorphism oracle capped at n=10")
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    n = g.n
    gd = g.degrees()
    hd = h.degrees()
    assigned = [-1] * n

    def extend(v: int, used: int) -> bool:
        # w can take v when its edges to the images of 0..v-1 are `need`
        if v == n:
            return True
        need = 0
        for u in range(v):
            if (g.rows[v] >> u) & 1:
                need |= 1 << assigned[u]
        for w in range(n):
            if (used >> w) & 1 or gd[v] != hd[w] or h.rows[w] & used != need:
                continue
            assigned[v] = w
            if extend(v + 1, used | 1 << w):
                return True
        return False

    return extend(0, 0)


def automorphisms_brute(g: Graph) -> list[tuple[int, ...]]:
    """All automorphisms by exhaustive search; for small-n testing only."""
    if g.n > 8:
        raise ValueError("brute-force automorphism listing capped at n=8")
    out = []
    deg = g.degrees()
    for perm in permutations(range(g.n)):
        if any(deg[v] != deg[perm[v]] for v in range(g.n)):
            continue
        if all(
            ((g.rows[u] >> v) & 1) == ((g.rows[perm[u]] >> perm[v]) & 1)
            for u in range(g.n)
            for v in range(u + 1, g.n)
        ):
            out.append(perm)
    return out


def bron_kerbosch_reference(g: Graph, cap: int) -> tuple[int, ...]:
    """Maximal cliques by plain pivoting Bron-Kerbosch, sorted as `maximal_cliques` sorts.

    Every node scans P | X for the pivot that covers most of P and
    branches on the rest of P; nothing moves into R without a branch.
    Raises CliqueLimitError once more than `cap` cliques are found.
    """
    rows = g.rows
    out: list[int] = []
    if g.n == 0:
        return ()
    stack: list[tuple[int, int, int, int]] = []
    r, p, x = 0, g.full_mask(), 0
    while True:
        if p:
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


def octahedron_pairs_reference(g: Graph, t: int) -> list[tuple[int, int]] | None:
    """t pairs inducing O_t by the one-seed greedy `_octahedron_pairs` had, or None.

    Each pair comes from `alive`, the common neighbours of the pairs
    before it, seeded at the vertex with fewest alive non-neighbours,
    with the partner that keeps most of `alive`. Only vertices of degree
    2t - 2 to n - 2 start alive.
    """
    n, rows = g.n, g.rows
    if n < 2 * t:
        return None
    alive = mask_of(v for v, row in enumerate(rows) if 2 * t - 2 <= row.bit_count() <= n - 2)
    pairs: list[tuple[int, int]] = []
    while len(pairs) < t:
        if alive.bit_count() < 2 * (t - len(pairs)):
            return None
        # alive & ~row counts the vertex itself: 2 is one non-neighbour
        a, fewest = -1, n + 1
        for v in bits(alive):
            c = (alive & ~rows[v]).bit_count()
            if 1 < c < fewest:
                a, fewest = v, c
                if c == 2:
                    break
        if a < 0:
            return None
        keep = alive & rows[a]
        b = max(bits(alive & ~rows[a] & ~(1 << a)), key=lambda v: (keep & rows[v]).bit_count())
        pairs.append((a, b))
        alive = keep & rows[b]
    return pairs


def octahedron_pairs_two_pass_reference(g: Graph, t: int) -> list[tuple[int, int]] | None:
    """t pairs inducing O_t by the greedy passes `_octahedron_pairs` had, or None.

    One pass per width in OCTAHEDRON_WIDTHS: each step ranks the alive
    vertices by `(alive & ~row).bit_count()`, takes each of the `width`
    best seeds' partner by one `max` and the best pair by a second.
    """
    n, rows = g.n, g.rows
    if n < 2 * t:
        return None
    start = mask_of(v for v, row in enumerate(rows) if 2 * t - 2 <= row.bit_count() <= n - 2)
    if start.bit_count() < 2 * t:
        return None
    for width in OCTAHEDRON_WIDTHS:
        alive = start
        pairs: list[tuple[int, int]] = []
        while len(pairs) < t and alive.bit_count() >= 2 * (t - len(pairs)):
            seeds: list[tuple[int, int]] = []
            for v in bits(alive):
                c = (alive & ~rows[v]).bit_count()
                if 1 < c and (len(seeds) < width or c < seeds[-1][0]):
                    insort(seeds, (c, v))
                    del seeds[width:]
                    if len(seeds) == width and seeds[-1][0] == 2:
                        break
            if not seeds:
                break
            tried = []
            for _, a in seeds:
                keep = alive & rows[a]
                tried.append((a, max(bits(alive & ~keep & ~(1 << a)), key=lambda v: (keep & rows[v]).bit_count())))
            a, b = max(tried, key=lambda ab: (alive & rows[ab[0]] & rows[ab[1]]).bit_count())
            pairs.append((a, b))
            alive &= rows[a] & rows[b]
        if len(pairs) == t:
            return pairs
    return None


def refine_reference(rows, cells: list[int], worklist: list[int]) -> list[int]:
    """Ordered partition refinement that counts each vertex into each splitter.

    Pops the worklist from the end; each cell splits into fragments by
    neighbour count into the splitter, ascending, and every fragment of
    a split cell joins the worklist. Mutates `worklist`.
    """
    while worklist:
        splitter = worklist.pop()
        new_cells: list[int] = []
        for cell in cells:
            if cell & (cell - 1) == 0:
                new_cells.append(cell)
                continue
            groups: dict[int, int] = {}
            for v in bits(cell):
                d = (rows[v] & splitter).bit_count()
                groups[d] = groups.get(d, 0) | (1 << v)
            if len(groups) == 1:
                new_cells.append(cell)
                continue
            for d in sorted(groups):
                new_cells.append(groups[d])
                worklist.append(groups[d])
        cells = new_cells
    return cells


def triangle_count_reference(g: Graph) -> int:
    """Triangles u < v < w, walking each u's higher neighbours v with `bits`."""
    total = 0
    rows = g.rows
    for u in range(g.n):
        for off in bits(rows[u] >> (u + 1)):
            v = u + 1 + off
            total += (rows[u] & (rows[v] >> (v + 1) << (v + 1))).bit_count()
    return total


def helly_brute_oracle(g: Graph, clique_cap: int = 20) -> bool:
    """Check the Helly property directly over all subfamilies of cliques.

    Exponential in the clique count, so the enumeration itself stops
    with CliqueLimitError once g shows more than `clique_cap` cliques.
    """
    masks = maximal_cliques(g, cap=clique_cap)
    c = len(masks)
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


def _two_neighbor_vertices(g: Graph, t) -> list[int]:
    """Vertices with at least two neighbours in t, counted one member of t at a time."""
    counts = Counter(v for u in t for v in bits(g.rows[u]))
    return sorted(v for v, c in counts.items() if c >= 2)


def helly_witnesses(g: Graph) -> list[tuple[int, int, int]]:
    """Every triangle whose extended triangle is not a cone, in lexicographic order."""
    out = []
    for t in combinations(range(g.n), 3):
        if not all(g.has_edge(a, b) for a, b in combinations(t, 2)):
            continue
        ext = _two_neighbor_vertices(g, t)
        if not any(all(g.has_edge(v, u) for u in ext if u != v) for v in ext):
            out.append(t)
    return out


def cotriangle_adjacent_vertices(g: Graph, t) -> int:
    """Mask of vertices with >= 2 neighbors in the cotriangle t."""
    in_range = len(set(t)) == 3 and all(0 <= v < g.n for v in t)
    if not in_range or any(g.has_edge(a, b) for a, b in combinations(t, 2)):
        raise ValueError(f"{tuple(t)} is not a cotriangle of the graph")
    return mask_of(_two_neighbor_vertices(g, t))


def encode_reference(g: Graph) -> str:
    """`graph6.encode` as it was: the upper triangle packed one bit per step."""
    n = g.n
    out = []
    if n <= 62:
        out.append(chr(63 + n))
    elif n <= 258047:
        out.append("~")
        out.extend(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))
    elif n <= 68719476735:
        out.append("~~")
        out.extend(chr(63 + ((n >> s) & 63)) for s in (30, 24, 18, 12, 6, 0))
    else:
        raise ValueError(f"n={n} exceeds the graph6 length range")
    acc = 0
    nbits = 0
    for j in range(1, n):
        col = g.rows[j]
        for i in range(j):
            acc = (acc << 1) | ((col >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + acc))
                acc = 0
                nbits = 0
    if nbits:
        acc <<= 6 - nbits
        out.append(chr(63 + acc))
    return "".join(out)


def decode_reference(text: str) -> Graph:
    """`graph6.decode` as it was: the upper triangle unpacked one bit per step."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[10:]
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    data = [ord(c) - 63 for c in s]
    for pos, val in enumerate(data):
        if not 0 <= val <= 63:
            raise Graph6Error(f"character {s[pos]!r} outside graph6 range", pos)
    if data[0] < 63:
        n = data[0]
        body = 1
    elif len(data) >= 2 and data[1] < 63:
        if len(data) < 4:
            raise Graph6Error("truncated extended length header", len(s))
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = 4
    else:
        if len(data) < 8:
            raise Graph6Error("truncated long length header", len(s))
        n = 0
        for val in data[2:8]:
            n = (n << 6) | val
        body = 8
    need_bits = n * (n - 1) // 2
    need_chars = (need_bits + 5) // 6
    if len(data) - body != need_chars:
        raise Graph6Error(
            f"expected {need_chars} body chars for n={n}, got {len(data) - body}",
            min(body + need_chars, len(s)),
        )
    rows = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            val = data[body + pos // 6]
            if (val >> (5 - pos % 6)) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            pos += 1
    if need_bits % 6:
        tail = data[body + need_chars - 1]
        if tail & ((1 << (6 - need_bits % 6)) - 1):
            raise Graph6Error("nonzero padding bits", body + need_chars - 1)
    return Graph(n, rows)


def classify_behavior_reference(g: Graph, limits: Limits = DEFAULT_LIMITS) -> BehaviorResult:
    """`classify_behavior` as it was: every repeat is settled by
    canonizing both iterates, with no star test."""
    iterates: list[Graph] = []
    invariants: list[tuple] = []
    canon_cache: dict[int, str] = {}
    known: dict = {}

    def canon_of(idx: int) -> str:
        if idx not in canon_cache:
            canon_cache[idx] = canonical_form(iterates[idx], known)
        return canon_cache[idx]

    def result(status: str, done: int, **found) -> BehaviorResult:
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
            cur, _ = clique_graph(cur, cap=min(limits.max_cliques, limits.max_vertices))
        except CliqueLimitError:
            limit = "clique-cap" if limits.max_cliques <= limits.max_vertices else "vertex-cap"
            return result("unknown", i, limit=limit)
    return result("unknown", limits.max_iterations, limit="iteration-cap")


def divergence_certificate_reference(g: Graph):
    """`divergence_certificate` read off the full join decomposition of g.

    Every call builds the complement, its components by a BFS over it,
    and the blocks and induced summands, before any shape is tested; a
    single summand is tested as a cycle complement on g's own degrees.
    """
    if g.n == 0:
        return None
    summands = [
        (tuple(bits(mask)), induced(g, mask)) for mask in connected_components(complement(g))
    ]
    if len(summands) == 1:
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
    blocks = tuple(block for block, _ in summands)
    if g.n >= 6 and all(len(block) == 2 for block in blocks):
        mapping = [0] * g.n
        for i, (lo, hi) in enumerate(blocks):
            mapping[lo], mapping[hi] = 2 * i, 2 * i + 1
        return OctahedronCertificate(len(blocks), tuple(mapping))
    coaffs = []
    for _, part in summands:
        sigma = find_coaffination(part)
        if sigma is None:
            return None
        coaffs.append(sigma)
    if len(summands) >= 3:
        return ThreeSummandsCertificate(blocks, tuple(coaffs))
    for idx, (_, part) in enumerate(summands):
        if is_connected(part):
            return ConnectedSumCertificate(blocks, tuple(coaffs), idx)
    return None


def find_coaffination_reference(g: Graph, node_cap: int) -> tuple[int, ...] | None:
    """`find_coaffination` as the recursive search it was, under a node budget.

    The constraint is folded into the backtracking as a candidate filter
    rather than enumerating the automorphism group first. The graph on
    zero vertices has no coaffination by convention. `node_cap` bounds
    the search; on cap exhaustion the search reports None, which callers
    treat as "no certificate found" (never as a wrong answer).
    """
    n = g.n
    if n == 0:
        return None
    deg = g.degrees()
    rows = g.rows
    full = (1 << n) - 1
    base_candidates = []
    for v in range(n):
        cand = full & ~rows[v] & ~(1 << v)
        cand = mask_of(u for u in bits(cand) if deg[u] == deg[v])
        if not cand:
            return None
        base_candidates.append(cand)
    # assign vertices in order of fewest candidates first
    order = sorted(range(n), key=lambda v: base_candidates[v].bit_count())
    assigned: list[int] = [-1] * n
    used = 0
    nodes = 0

    def backtrack(idx: int) -> bool:
        nonlocal used, nodes
        if idx == n:
            return True
        nodes += 1
        if nodes > node_cap:
            return False
        v = order[idx]
        cand = base_candidates[v] & ~used
        for w in bits(cand):
            ok = True
            for prev_idx in range(idx):
                u = order[prev_idx]
                if ((rows[v] >> u) & 1) != ((rows[w] >> assigned[u]) & 1):
                    ok = False
                    break
            if not ok:
                continue
            assigned[v] = w
            used |= 1 << w
            if backtrack(idx + 1):
                return True
            used &= ~(1 << w)
            assigned[v] = -1
            if nodes > node_cap:
                return False
        return False

    if backtrack(0):
        return tuple(assigned)
    return None


def canonical_search_reference(g: Graph):
    """The canonical search as the recursion it was: (labeling, leaves, generators).

    `leaves` holds the relabeled rows of every leaf in visit order, and
    `generators` the automorphisms recorded from leaves equal to the first
    or the best one. Each level rebuilds the orbits of its explored
    candidates under the generators that fix its prefix whenever a
    generator has been recorded since it last looked.
    """
    n = g.n
    rows = g.rows
    first = best = None  # (relabeled rows, label, path)
    leaves: list[tuple[int, ...]] = []
    generators: list[tuple[int, ...]] = []
    moved: list[int] = []

    def orbit_closure(seed: list[int], gens: list[tuple[int, ...]]) -> set[int]:
        out = set(seed)
        frontier = list(seed)
        while frontier:
            v = frontier.pop()
            for gen in gens:
                if gen[v] not in out:
                    out.add(gen[v])
                    frontier.append(gen[v])
        return out

    def leaf(cells: list[int], path: tuple[int, ...]) -> int:
        nonlocal first, best
        label = [cell.bit_length() - 1 for cell in cells]
        inv = [0] * n
        for pos, v in enumerate(label):
            inv[v] = pos
        rel = tuple(permuted_rows(rows, inv))
        leaves.append(rel)
        if first is None:
            first = best = (rel, label, path)
            return len(path)
        for rec_rel, rec_label, rec_path in (first, best):
            if rel == rec_rel:
                gen = [0] * n
                for pos in range(n):
                    gen[rec_label[pos]] = label[pos]
                generators.append(tuple(gen))
                moved.append(mask_of(u for u in range(n) if gen[u] != u))
                depth = 0
                while path[depth] == rec_path[depth]:
                    depth += 1
                return depth
        if rel < best[0]:
            best = (rel, label, path)
        return len(path)

    def descend(cells: list[int], prefix: tuple[int, ...], prefix_mask: int) -> int:
        tgt = _first_target_cell(cells)
        if tgt < 0:
            return leaf(cells, prefix)
        applicable: list[tuple[int, ...]] = []
        gen_count = -1
        explored: list[int] = []
        closure: set[int] = set()
        for v in bits(cells[tgt]):
            if len(generators) != gen_count:
                gen_count = len(generators)
                applicable = [
                    gen for gen, mask in zip(generators, moved) if not mask & prefix_mask
                ]
                closure = orbit_closure(explored, applicable)
            if v in closure:
                continue
            explored.append(v)
            closure |= orbit_closure([v], applicable)
            resume = descend(
                _individualize(rows, cells, tgt, v), prefix + (v,), prefix_mask | 1 << v
            )
            if resume < len(prefix):
                return resume
        return len(prefix)

    if n:
        full = (1 << n) - 1
        descend(_refine(rows, [full], [full]), (), 0)
    return (best[1] if best else []), leaves, generators


def sorted_canonical_reference(graphs) -> tuple[Graph, ...]:
    """One canonical graph per class of `graphs`, sorted by graph6.

    Each graph gets its own full canonical search, with no leaf memo
    shared between them.
    """
    by_form: dict[str, Graph] = {}
    for g in graphs:
        cg = canonical_graph(g)
        by_form[encode(cg)] = cg
    return tuple(by_form[s] for s in sorted(by_form))


def _partitions_min_part(n: int, min_part: int):
    """Partitions of n into parts >= min_part, descending, lex order."""

    def rec(rest: int, cap: int, acc: list[int]):
        if rest == 0:
            yield tuple(acc)
            return
        top = min(cap, rest)
        for p in range(top, min_part - 1, -1):
            if rest - p == 0 or rest - p >= min_part:
                acc.append(p)
                yield from rec(rest - p, p, acc)
                acc.pop()

    yield from rec(n, n, [])


def low_degree_classes_reference(k: int, n: int) -> tuple[Graph, ...]:
    """The k-regular class list on n vertices when k or n - 1 - k is at most 2.

    Built from the structure of the sparse side, d = min(k, n - 1 - k):
    E_n for d = 0, the perfect matching for d = 1, and for d = 2 one
    union of cycles per partition of n into parts >= 3. Complements give
    the dense side, and `sorted_canonical_reference` the sorted list.
    """
    d = min(k, n - 1 - k)
    if d == 0:
        graphs = [empty_graph(n)]
    elif d == 1:
        graphs = [matching_graph(n // 2)]
    elif d == 2:
        graphs = [
            disjoint_union([cycle_graph(p) for p in part])
            for part in _partitions_min_part(n, 3)
        ]
    else:
        raise ValueError(f"no structural class list for degree {d}")
    if d != k:
        graphs = [complement(g) for g in graphs]
    return sorted_canonical_reference(graphs)


def enumerate_regular_brute(k: int, n: int, max_n: int = 8) -> list[Graph]:
    """Independent brute-force census: all labeled graphs, brute-force dedup.

    No symmetry pruning and no shared canonical machinery: isomorphism
    is decided by permutation search, with cheap invariants only used to
    shortcut comparisons. Exponential; capped at small n.
    """
    if n > max_n:
        raise ValueError(f"brute-force enumeration capped at n={max_n}")
    if not (0 <= k < n) or (n * k) % 2:
        return []
    reps: list[Graph] = []
    invariants: list[tuple] = []
    for g in _all_labeled_regular(n, k):
        inv = _cheap_invariant(g)
        found = False
        for rep, rinv in zip(reps, invariants):
            if rinv == inv and isomorphic_brute(g, rep):
                found = True
                break
        if not found:
            reps.append(g)
            invariants.append(inv)
    reps.sort(key=encode)
    return reps


def _cheap_invariant(g: Graph) -> tuple:
    per_vertex = []
    for v in range(g.n):
        tri = 0
        for u in bits(g.rows[v]):
            tri += (g.rows[v] & g.rows[u]).bit_count()
        per_vertex.append(tri // 2)
    return (triangle_count(g), tuple(sorted(per_vertex)))


def _all_labeled_regular(n: int, k: int):
    rows = [0] * n
    deg = [0] * n

    def place(v: int):
        if v == n:
            yield Graph(n, rows.copy())
            return
        need = k - deg[v]
        if need < 0:
            return
        avail = [w for w in range(v + 1, n) if deg[w] < k]
        if need > len(avail):
            return
        for combo in combinations(avail, need):
            for w in combo:
                rows[v] |= 1 << w
                rows[w] |= 1 << v
                deg[v] += 1
                deg[w] += 1
            yield from place(v + 1)
            for w in combo:
                rows[v] &= ~(1 << w)
                rows[w] &= ~(1 << v)
                deg[v] -= 1
                deg[w] -= 1

    yield from place(0)


# -- the generic route with one call per swap test --------------------------

def transposition_raises(ra: int, rv: int, a: int, v: int) -> bool:
    """Whether swapping labels a < v gives a larger upper-triangle string.

    The string lists rows 0, 1, ... with columns ascending, 1 > 0; ra
    and rv are the full rows of a and v. The swap changes the string
    only where rows a and v differ outside columns a and v, so the first
    change is at the lowest such column c: in row c at column a when
    c < a, in row a at column c when c > a. Either way the swapped
    string holds rv's bit c there.
    """
    diff = (ra ^ rv) & ~((1 << a) | (1 << v))
    return bool(rv & diff & -diff)


def placed_swap_raises_reference(rows: list[int], rv: int, v: int) -> bool:
    """Whether swapping the labels of some placed a < v with v raises the string.

    The generic route's placed-pair test before it read the swaps off the
    sorted reversed rows: one comparison per a < v, each on the lowest
    bit of rows[a] ^ rv outside bits a and v (see `transposition_raises`).
    """
    bit_v = 1 << v
    for a in range(v):
        diff = (rows[a] ^ rv) & ~((1 << a) | bit_v)
        if rv & diff & -diff:
            return True
    return False


def common_neighbours_raise_reference(rows: list[int], v: int) -> bool:
    """`regular._common_neighbours_raise` as `any` over generator expressions.

    Rule 1 scans every a < v and keeps the neighbours of v; rule 2 every
    a < v. The docstring of the library function gives both rules.
    """
    rv = rows[v]
    top = (rows[0] & rows[1]).bit_count()
    if any((rows[a] & rv).bit_count() > top for a in range(v) if rv >> a & 1):
        return True
    if top or v < 2:
        return False
    bound = (rows[1] & rows[2]).bit_count()
    return any((rows[a] & rv).bit_count() > bound for a in range(v))


def pruned_labeled_regular_reference(n: int, k: int):
    """Labeled k-regular graphs whose labeling no decided transposition improves.

    Once row v is placed, rows 0..v never change, so two kinds of swap
    are decided: a < v with v, on their full rows, and two unplaced
    neighbours w, w + 1, on their columns in rows 0..v, which are all
    that an unplaced row holds so far. For the latter the lowest column
    c <= v where those differ fixes the first change of the string, in
    row c, whatever the later rows hold; adjacent pairs suffice because
    lexicographic order is transitive. The partial graph is dropped once
    a decided swap gives a larger upper-triangle string, or once
    `common_neighbours_raise_reference` finds a count on rows 0..v that the
    maximal labeling cannot have. The lexicographically maximal labeling
    of every class passes both tests, so every class keeps a
    representative (at v = 0 only N(0) = {1..k} survives), and canonical
    deduplication downstream yields the full census.
    """
    rows = [0] * n
    out: list[Graph] = []

    def place(v: int):
        if v == n:
            out.append(Graph(n, rows.copy()))
            return
        avail = [w for w in range(v + 1, n) if rows[w].bit_count() < k]
        for combo in combinations(avail, k - rows[v].bit_count()):
            for w in combo:
                rows[v] |= 1 << w
                rows[w] |= 1 << v
            rv = rows[v]
            if not any(
                transposition_raises(rows[a], rv, a, v) for a in range(v)
            ) and not any(
                transposition_raises(rows[w], rows[w + 1], w, w + 1)
                for w in range(v + 1, n - 1)
            ) and not (v and common_neighbours_raise_reference(rows, v)):
                place(v + 1)
            for w in combo:
                rows[v] &= ~(1 << w)
                rows[w] &= ~(1 << v)

    place(0)
    return out


# -- the 2-switch that the random burn-in inlines -----------------------------

def two_switch(g: Graph, e1: tuple[int, int], e2: tuple[int, int]) -> Graph:
    """Replace edges {a,b},{u,v} by {a,u},{b,v}; preserves all degrees.

    Requires both edges present, the four vertices distinct and in range,
    and the new pairs non-adjacent. Violations raise ValueError naming
    the pair.
    """
    a, b = e1
    u, v = e2
    if not all(0 <= x < g.n for x in (a, b, u, v)):
        raise ValueError(f"2-switch endpoints must lie in 0..{g.n - 1}, got {e1} and {e2}")
    if len({a, b, u, v}) != 4:
        raise ValueError(f"2-switch endpoints must be distinct, got {e1} and {e2}")
    if not g.has_edge(a, b):
        raise ValueError(f"({a}, {b}) is not an edge")
    if not g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge")
    if g.has_edge(a, u):
        raise ValueError(f"vertices {a} and {u} are already adjacent")
    if g.has_edge(b, v):
        raise ValueError(f"vertices {b} and {v} are already adjacent")
    drop = {tuple(sorted(e1)), tuple(sorted(e2))}
    kept = [e for e in g.edges() if e not in drop]
    return Graph.from_edges(g.n, kept + [(a, u), (b, v)])


# -- the cubic expansion closure ---------------------------------------------

def edge_insert(g: Graph, e1: tuple[int, int], e2: tuple[int, int]) -> Graph:
    """Subdivide two distinct edges and join the two new vertices."""
    a, b = e1
    c, d = e2
    n = g.n
    x, y = n, n + 1
    rows = list(g.rows) + [0, 0]
    rows[a] &= ~(1 << b)
    rows[b] &= ~(1 << a)
    rows[c] &= ~(1 << d)
    rows[d] &= ~(1 << c)
    for p, q in ((x, a), (x, b), (y, c), (y, d), (x, y)):
        rows[p] |= 1 << q
        rows[q] |= 1 << p
    return Graph(n + 2, rows)


def diamond_block(i: int) -> list[tuple[int, int]]:
    # diamond on 4i..4i+3: chord (4i, 4i+1), tips 4i+2 and 4i+3
    b = 4 * i
    return [(b, b + 1), (b, b + 2), (b, b + 3), (b + 1, b + 2), (b + 1, b + 3)]


def tip_partitions(tips: list[int], n_pairs: int, n_triples: int):
    """Partitions of the tip list into n_pairs 2-blocks and n_triples 3-blocks."""
    if not tips:
        yield []
        return
    first = tips[0]
    rest = tips[1:]
    if n_pairs:
        for other in rest:
            remaining = [t for t in rest if t != other]
            for tail in tip_partitions(remaining, n_pairs - 1, n_triples):
                yield [(first, other)] + tail
    if n_triples:
        for pair in combinations(rest, 2):
            remaining = [t for t in rest if t not in pair]
            for tail in tip_partitions(remaining, n_pairs, n_triples - 1):
                yield [(first,) + pair] + tail


def irreducible_cubic_connected(n: int) -> list[Graph]:
    """Connected cubic graphs on n vertices with no reducible edge.

    These are assemblies of vertex-disjoint diamonds whose tips are
    matched up pairwise or attached in triples to connector vertices.
    Every edge of such a graph is blocked for the 2-edge reduction, and
    conversely a reduction-free connected cubic graph has this shape.
    At n = 4 joining the diamond's tips gives K4; above that such an edge
    closes off a K4 component, which the connectivity test drops. There
    is no diamond below n = 4, and odd n fails every parity test.
    """
    out: list[Graph] = []
    for d in range(1, n // 4 + 1):
        c = n - 4 * d
        if 3 * c > 2 * d or (2 * d - 3 * c) % 2:
            continue
        p = (2 * d - 3 * c) // 2
        tips = [4 * i + 2 + j for i in range(d) for j in (0, 1)]
        edges_base = [e for i in range(d) for e in diamond_block(i)]
        for blocks in tip_partitions(tips, p, c):
            edges = list(edges_base)
            extra = 0
            for block in blocks:
                if len(block) == 2:
                    edges.append(block)
                else:
                    v = 4 * d + extra
                    extra += 1
                    edges.extend((v, t) for t in block)
            g = Graph.from_edges(4 * d + extra, edges)
            if is_connected(g):
                out.append(g)
    return out
