"""Exhaustive and random generation of k-regular graphs.

Random graphs come from the pairing model, mixed by a burn-in of
random 2-switches.

Exhaustive enumeration dispatches by degree:

  * k = 0 is the single class E_n,
  * k > (n-1)/2, k = n-1 included, is enumerated through complements,
  * every other degree, from 1 up, uses row-by-row backtracking
    that drops a partial graph once a swap of two vertices that its
    placed rows already decide would give a larger upper-triangle
    string, or once a placed pair has more common neighbours than the
    lexicographically largest labeling allows: no edge more than
    vertices 0 and 1, and, when 0 and 1 have none, no pair more than
    vertices 1 and 2. The swaps are a placed vertex against the one
    just placed, and two consecutive unplaced vertices; for the latter
    the run rule suffices: among each run of consecutive unplaced
    vertices whose rows are equal so far, the new row's neighbours are
    a prefix of the run. The placed swaps are read off the placed rows
    sorted by rev(r), the sum of 2^(n-1-c) over the columns c of a row,
    so that the lowest column where two rows differ decides their order.
    The swap of a placed a with the new vertex v raises the string
    exactly when rev(rv - {a}) > rev(rows[a] - {v}): a non-neighbour of
    v raises when its rev is below rev(rv), and a neighbour only then,
    so a walk up the sorted list decides every placed swap after v's at
    most k placed neighbours and one entry more. So few labeled leaves
    reach canonization, and no degree feasibility test is needed.

All paths deduplicate through canonical forms and emit canonically
labeled graphs sorted by their graph6 string, so output order is
reproducible.
"""
from __future__ import annotations

import random
import warnings
from bisect import bisect
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import combinations

from . import graph6
from .canon import canonical_graph
from .graphs import Graph, complement, empty_graph, is_connected

# An exhaustive route of degree d >= 3 stops at n = 2 * EDGE_CEILING // d
# by default: cubic at 14, 4-regular at 11. Cold class lists, CPU on a
# shared 2-vCPU VM under Python 3.11, two runs each: the last orders
# allowed take (3, 14), 21 edges, 0.50-0.57 s and (4, 11), 22 edges,
# 0.18-0.26 s; the first refused, 24 edges each, take (3, 16) 5.9-7.4 s
# and (4, 12) 1.4 s. An explicit ceiling replaces the default, and
# ORDER_CEILING_MAX caps both, since the generator keeps every leaf.
EDGE_CEILING = 22
ORDER_CEILING_MAX = 20


@dataclass(frozen=True)
class RegularGenSpec:
    """What to generate: degree, order, mode and connectivity filter."""

    k: int
    n: int
    mode: str = "exhaustive"  # or "random"
    count: int = 0
    seed: int = 0
    connected_only: bool = False

    def __post_init__(self):
        if self.k < 0 or self.n < 0:
            raise ValueError("degree and order must be non-negative")
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown generation mode {self.mode!r}")
        if self.mode == "random" and self.count < 1:
            raise ValueError("random mode needs a positive sample count")

    def satisfiable(self) -> bool:
        return 0 <= self.k < self.n and (self.n * self.k) % 2 == 0

    def to_json(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# random generation: pairing model plus 2-switch burn-in

_PAIRING_TRIES = 100_000
BURN_IN_FACTOR = 200


def random_regular(k: int, n: int, seed: int = 0) -> Graph:
    """Seeded random k-regular graph via the pairing model.

    Stubs are paired repeatedly, re-shuffling only the conflicted stubs,
    then the result is mixed with 200*n random 2-switch attempts.
    Identical (k, n, seed) always produce the identical edge set. The
    seed must be non-negative, since `Random(-s)` repeats `Random(s)`.

    The burn-in draws each edge index with the `getrandbits` rejection
    loop that `Random.randrange(m)` runs in CPython, inlined, so the
    seeded outputs equal those of a plain `randrange` loop. The test
    `test_random_regular_seeded_outputs_are_pinned` pins their sha256,
    and `test_inline_index_draw_matches_randrange` compares the draw
    with `randrange`, so an interpreter whose `randrange` differs fails
    loudly.
    """
    if not 0 <= k < n:
        raise ValueError(f"need 0 <= k < n, got k={k}, n={n}")
    if (n * k) % 2:
        raise ValueError(f"n*k must be even, got n={n}, k={k}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = random.Random(seed)
    edges = None
    for _ in range(_PAIRING_TRIES):
        edges = _try_pairing(rng, n, k)
        if edges is not None:
            break
    if edges is None:
        raise RuntimeError(f"pairing model failed after {_PAIRING_TRIES} attempts")
    return _burn_in(rng, n, sorted(edges))


def _try_pairing(rng: random.Random, n: int, k: int) -> set[tuple[int, int]] | None:
    edges: set[tuple[int, int]] = set()
    stubs = list(range(n)) * k
    while stubs:
        conflicted: dict[int, int] = {}
        rng.shuffle(stubs)
        it = iter(stubs)
        for s1, s2 in zip(it, it):
            if s1 > s2:
                s1, s2 = s2, s1
            if s1 != s2 and (s1, s2) not in edges:
                edges.add((s1, s2))
            else:
                conflicted[s1] = conflicted.get(s1, 0) + 1
                conflicted[s2] = conflicted.get(s2, 0) + 1
        if conflicted and all(p in edges for p in combinations(sorted(conflicted), 2)):
            return None
        stubs = [v for v, c in conflicted.items() for _ in range(c)]
    return edges


def _burn_in(rng: random.Random, n: int, edges: list[tuple[int, int]]) -> Graph:
    bit = [1 << v for v in range(n)]
    rows = [0] * n
    for u, v in edges:
        rows[u] |= bit[v]
        rows[v] |= bit[u]
    m = len(edges)
    if m >= 2:
        # each index draw is the rejection loop randrange(m) runs
        getrandbits = rng.getrandbits
        width = m.bit_length()
        for _ in range(BURN_IN_FACTOR * n):
            i = getrandbits(width)
            while i >= m:
                i = getrandbits(width)
            j = getrandbits(width)
            while j >= m:
                j = getrandbits(width)
            if i == j:
                continue
            a, b = edges[i]
            u, v = edges[j]
            if getrandbits(1):
                u, v = v, u
            if a == u or a == v or b == u or b == v:
                continue
            ra, rb = rows[a], rows[b]
            if ra & bit[u] or rb & bit[v]:
                continue
            # edges ab, uv present and au, bv absent: each row flips two bits
            rows[a] = ra ^ bit[b] ^ bit[u]
            rows[b] = rb ^ bit[a] ^ bit[v]
            rows[u] ^= bit[v] ^ bit[a]
            rows[v] ^= bit[u] ^ bit[b]
            edges[i] = (a, u)
            edges[j] = (b, v)
    return Graph(n, rows)


# ---------------------------------------------------------------------------
# exhaustive enumeration

def enumerate_regular(spec: RegularGenSpec, ceiling: int | None = None):
    """Yield the generated graphs for a RegularGenSpec.

    Exhaustive mode yields exactly one canonically labeled representative
    per isomorphism class, sorted by graph6 string. Random mode yields
    `count` seeded samples (classes may repeat). Unsatisfiable degree
    specs warn and yield nothing. For the degree d the route enumerates
    (k or n - 1 - k, whichever is smaller), an exhaustive order n with
    d >= 3 is refused past its ceiling: by default n * d / 2 <= 22 edges,
    or `ceiling` when given, and never past n = 20. A ceiling below 1 is
    refused for every degree and mode. A refusal raises ValueError on the
    first `next`.
    """
    if ceiling is not None and ceiling < 1:
        raise ValueError(f"ceiling must be positive, got {ceiling}")
    if not spec.satisfiable():
        warnings.warn(
            f"no {spec.k}-regular graphs on {spec.n} vertices exist", stacklevel=2
        )
        return
    if spec.mode == "random":
        graphs = (random_regular(spec.k, spec.n, seed=spec.seed + i) for i in range(spec.count))
    else:
        d = min(spec.k, spec.n - 1 - spec.k)  # degree the route enumerates
        if d >= 3:
            lid = min(2 * EDGE_CEILING // d if ceiling is None else ceiling, ORDER_CEILING_MAX)
            if spec.n > lid:
                route = "cubic" if d == 3 else f"{d}-regular"
                raise ValueError(
                    f"exhaustive {route} enumeration capped at n={lid} (requested {spec.n})"
                )
        graphs = _regular_classes(spec.k, spec.n)
    for g in graphs:
        if not spec.connected_only or is_connected(g):
            yield g


def _sorted_canonical(graphs) -> tuple[Graph, ...]:
    known: dict[tuple[int, ...], Graph] = {}  # leaf rows of this call's searches
    # a memo hit returns the graph of a class already searched, so each
    # class is encoded once; graph6 is injective, so the sort has no ties
    classes = dict.fromkeys(canonical_graph(g, known) for g in graphs)
    return tuple(sorted(classes, key=graph6.encode))


@lru_cache(maxsize=None)
def _regular_classes(k: int, n: int) -> tuple[Graph, ...]:
    if k == 0:
        return (empty_graph(n),)
    if 2 * k > n - 1:
        return _sorted_canonical(complement(g) for g in _regular_classes(n - 1 - k, n))
    return _sorted_canonical(_pruned_labeled_regular(n, k))


# -- generic degrees: pruned row-by-row backtracking -------------------------

def _placed_swap_raises(placed: list[tuple[int, int]], rv: int, rev_v: int, v: int,
                        weight: list[int]) -> bool:
    """Whether swapping the labels of some placed a < v with v raises the string.

    `placed` lists (rev(rows[a]), a) for the placed rows, ascending; rv
    is the candidate row v and rev_v = rev(rv), with rev(r) the sum of
    weight[c] = 2^(n-1-c) over the columns c of r. The walk up the list
    stops at the first entry not below rev_v, where no swap can raise,
    and at the first non-neighbour of v below it, which raises, so it
    reads at most v's placed neighbours and one entry more. The proof is
    in `_pruned_labeled_regular`.
    """
    for rev_a, a in placed:
        if rev_a >= rev_v:
            return False
        if not rv >> a & 1 or rev_v - weight[a] > rev_a - weight[v]:
            return True
    return False


def _common_neighbours_raise(rows: list[int], v: int) -> bool:
    """Whether placed row v >= 1 breaks a common-neighbour bound of the maximal labeling.

    With c(x, y) the number of common neighbours, the partial graph is
    dropped when (1) some edge (a, v), a < v, has c(a, v) > c(0, 1), or
    (2) c(0, 1) = 0, v >= 2 and some pair (a, v), a < v, has
    c(a, v) > c(1, 2). Every count it takes is final: rows 0..v are,
    and so are the columns below v of every later row.

    Rule 1 counts each neighbour a < v on its row. Rule 2 reads c(a, v)
    as the number of v's neighbours w whose rows hold column a, so it
    takes the at most k rows of rv, not the v rows below it: folding
    them in one at a time, held[j] keeps the columns seen in more than j
    of them, so a count above the bound b is a bit of held[b] below
    column v.

    No class loses its lexicographically largest labeling. Its row 0 is
    {1..k}, so row 1 reads 1^c 0^(k-1-c) 1^(k-1-c) 0... from column 2
    on, with c = c(0, 1), and grows with c: c(0, 1) is the maximum over
    all edges. If that maximum is 0, the graph is triangle-free and
    vertex 2 lies in N(0) minus N(1), so row 2 reads
    0^(k-2) 1^(c12-1) 0^(k-c12) 1^(k-c12) 0... from column 3 on, with
    c12 = c(1, 2), and grows with c12. Any pair with a common neighbour
    can take labels 1 and 2, so c(1, 2) is the maximum over all pairs.
    That labeling passes every transposition test too, so every class
    keeps a leaf.
    """
    rv = rows[v]
    top = (rows[0] & rows[1]).bit_count()
    lower = rv & ((1 << v) - 1)  # the neighbours a < v
    while lower:
        low = lower & -lower
        if (rows[low.bit_length() - 1] & rv).bit_count() > top:
            return True
        lower ^= low
    if top or v < 2:
        return False
    bound = (rows[1] & rows[2]).bit_count()
    held = [0] * (bound + 1)  # held[j]: the columns in more than j of the rows seen
    q = rv
    while q:
        low = q & -q
        r = rows[low.bit_length() - 1]
        j = bound
        while j:
            held[j] |= held[j - 1] & r
            j -= 1
        held[0] |= r
        q ^= low
    return bool(held[bound] & ((1 << v) - 1))


def _pruned_labeled_regular(n: int, k: int):
    """Labeled k-regular graphs whose labeling no decided transposition improves.

    Once row v is placed, rows 0..v never change, so two kinds of swap
    are decided: a < v with v, on their full rows, and two unplaced
    neighbours w, w + 1, on their columns in rows 0..v, which are all
    that an unplaced row holds so far. For the latter the lowest column
    c <= v where those differ fixes the first change of the string, in
    row c, whatever the later rows hold; adjacent pairs suffice because
    lexicographic order is transitive. The partial graph is dropped once
    a decided swap gives a larger upper-triangle string, or once
    `_common_neighbours_raise` finds a count on rows 0..v that the
    maximal labeling cannot have. The lexicographically maximal labeling
    of every class passes both tests, so every class keeps a
    representative (at v = 0 only N(0) = {1..k} survives), and canonical
    deduplication downstream yields the full census.

    The unplaced pairs cost one mask test per combination, before the
    combination touches `rows`. Every pair (w, w + 1) with w >= v + 1
    already passed at depth v - 1 (at v = 0 all their rows are 0). A
    pair whose rows differ below column v keeps its lowest difference,
    and so its answer, when column v is added. A pair whose rows are
    equal differs only in column v, and its swap raises exactly when
    w + 1 joins row v and w does not. So with `tied` the vertices
    w >= v + 2 whose row equals row w - 1, a combination with mask cm
    fails exactly when tied & cm & ~(cm << 1) is nonzero: row v must
    take a prefix of every run of equal rows. The test only cuts
    earlier; a partial graph it drops would fail the placed-pair test
    once row w + 1 is placed.

    The placed pairs cost O(k) per combination, not O(v). Let rev(r) be
    the sum of 2^(n-1-c) over the columns c of a row r, so that a lower
    column weighs more: of two sets, the one holding the lowest column
    where they differ has the larger rev. The swap (a, v), a < v,
    changes the string only where rows a and v differ outside columns a
    and v, so the first change is at the lowest such column c: in row c
    at column a when c < a, in row a at column c when c > a. Either way
    the swapped string holds rv's bit c there, so the swap raises exactly
    when rev(rv - {a}) > rev(rows[a] - {v}). `placed` keeps the pairs
    (rev(rows[a]), a) of the placed rows sorted; a row's pair goes in
    when the row is placed and comes out on backtrack. When a is not
    adjacent to v neither set loses an element, and the swap raises
    exactly when rev(rows[a]) < rev(rv): the least listed value that is
    not one of v's at most k placed neighbours decides every
    non-neighbour at once. A neighbour a raises when
    rev(rv) - 2^(n-1-a) > rev(rows[a]) - 2^(n-1-v), which, as
    2^(n-1-a) > 2^(n-1-v), needs rev(rows[a]) < rev(rv) too. So
    `_placed_swap_raises` walks the list up from its least pair, takes
    one comparison per neighbour, and stops at the first pair not below
    rev(rv) (no later pair raises) or at the first non-neighbour (it
    raises). rev(rv) is rev(rows[v]) before the combination, computed
    once per node, plus one weight per chosen column.
    """
    rows = [0] * n
    weight = [1 << (n - 1 - c) for c in range(n)]
    placed: list[tuple[int, int]] = []  # (rev(rows[a]), a) of the placed rows, ascending
    out: list[Graph] = []

    def place(v: int):
        if v == n:
            out.append(Graph(n, rows.copy()))
            return
        avail = [w for w in range(v + 1, n) if rows[w].bit_count() < k]
        tied = 0
        for w in avail:
            if w - 1 > v and rows[w] == rows[w - 1]:
                tied |= 1 << w
        bit_v = 1 << v
        base = rows[v]
        rev_base = 0
        q = base
        while q:
            low = q & -q
            rev_base += weight[low.bit_length() - 1]
            q ^= low
        for combo in combinations(avail, k - base.bit_count()):
            cm = 0
            for w in combo:
                cm |= 1 << w
            if tied & cm & ~(cm << 1):
                continue
            rv = base | cm
            rev_v = rev_base
            for w in combo:
                rev_v += weight[w]
            if _placed_swap_raises(placed, rv, rev_v, v, weight):
                continue
            rows[v] = rv  # the rules read later rows below column v only, so theirs can wait
            if v and _common_neighbours_raise(rows, v):
                continue
            for w in combo:
                rows[w] |= bit_v
            i = bisect(placed, (rev_v, v))
            placed.insert(i, (rev_v, v))
            place(v + 1)
            del placed[i]
            for w in combo:
                rows[w] ^= bit_v
        rows[v] = base

    place(0)
    return out
