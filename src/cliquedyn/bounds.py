"""Exact counting formulas for k-regular graphs and their verification.

Everything is integer or Fraction arithmetic; the square root in the
Helly threshold is eliminated algebraically, so boundary orders are
classified exactly rather than through floating point.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from math import comb, isqrt

from .graphs import Graph, complement
from .helly import triangle_count


def triangle_sum_rhs(n: int, k: int) -> int:
    """Value of t(G) + t(complement(G)) for any k-regular G on n vertices.

    Equals C(n,3) - n*k*(n-k-1)/2. The product is even whenever the
    parameters admit a regular graph; odd products indicate misuse and
    raise.
    """
    if not 0 <= k < n:
        raise ValueError(f"need 0 <= k < n, got k={k}, n={n}")
    prod = n * k * (n - k - 1)
    if prod % 2:
        raise ValueError(
            f"n*k*(n-k-1) = {prod} is odd; no {k}-regular graph on {n} vertices exists"
        )
    return comb(n, 3) - prod // 2


def verify_triangle_sum(g: Graph) -> bool:
    """Check the triangle/cotriangle sum identity on a regular graph."""
    if g.n == 0:
        return True
    degs = g.degrees()
    k = degs[0]
    if any(d != k for d in degs):
        raise ValueError("triangle-sum identity only applies to regular graphs")
    return triangle_count(g) + triangle_count(complement(g)) == triangle_sum_rhs(g.n, k)


def cotriangle_lower_bound_exact(n: int, k: int) -> Fraction:
    """Exact rational lower bound on the cotriangle count of a k-regular graph."""
    if not 0 <= k < n:
        raise ValueError(f"need 0 <= k < n, got k={k}, n={n}")
    return (
        Fraction(comb(n, 3))
        - Fraction(n * k * (n - 1 - k), 2)
        - Fraction(n * k * (k - 1), 6)
    )


def cotriangle_lower_bound(n: int, k: int) -> int:
    """Integer form of the cotriangle lower bound (ceiling of the exact value).

    The exact value is integral for most parameters; when it is not
    (k = 2 mod 3 with n not divisible by 3), the ceiling is still a
    valid lower bound for the integer cotriangle count. Negative values
    mean the bound is vacuous.
    """
    exact = cotriangle_lower_bound_exact(n, k)
    return -((-exact.numerator) // exact.denominator)


def vertex_cotriangle_cap(n: int, k: int) -> int:
    """Max cotriangles adjacent to one vertex of a k-regular graph, n >= 4k.

    C(k,2)*(n-2k) + C(k,3); attained exactly at vertices whose component
    is K_{k,k}. Below n = 4k the bound is not asserted and the call is
    rejected; so is k = 0, where every vertex meets the cap 0 but its
    component is K1, not K_{0,0}.
    """
    if k < 1:
        raise ValueError(f"per-vertex cotriangle cap defined for k >= 1, got {k}")
    if n < 4 * k:
        raise ValueError(f"per-vertex cotriangle cap requires n >= 4k, got n={n}, k={k}")
    return comb(k, 2) * (n - 2 * k) + comb(k, 3)


def threshold_poly(n: int, k: int) -> int:
    """Quadratic n^2 - 6kn + (7k^2 + k), with roots 3k +- sqrt(2k^2 - k).

    Positive exactly when the incidence bracketing between the
    cotriangle lower bound and the per-vertex cap is contradictory,
    which forces non-Helly complements.
    """
    return n * n - 6 * k * n + 7 * k * k + k


def helly_threshold(k: int) -> int:
    """Least n with n > 3k + sqrt(2k^2 - k), in exact integer arithmetic.

    Every k-regular graph on at least this many vertices has a
    non-Helly complement.
    """
    if k < 1:
        raise ValueError(f"threshold defined for k >= 1, got {k}")
    disc = 2 * k * k - k
    return 3 * k + isqrt(disc) + 1


def _cotriangles_at(nx: int, co: tuple[int, ...]) -> int:
    """Cotriangles with at least two members in the neighbourhood mask nx.

    `co` holds the complement rows. Two inline low-bit loops walk the
    non-adjacent pairs a < b of nx; `pairs` then holds the members of nx
    above b that are non-adjacent to a, so `common & pairs` is the set of
    third members c > b inside nx.
    """
    total = 0
    rest = nx
    while rest:
        low = rest & -rest
        rest ^= low
        ca = co[low.bit_length() - 1]
        pairs = ca & rest
        while pairs:
            lb = pairs & -pairs
            pairs ^= lb
            common = ca & co[lb.bit_length() - 1]
            total += common.bit_count() - 2 * (common & pairs).bit_count()
    return total


def cotriangle_adjacency_profile(g: Graph) -> list[int]:
    """Per-vertex cotriangle adjacency counts, in O(n * k^2) popcounts.

    Entry x counts the cotriangles {a, b, c} of g with at least two
    members in N = N(x). x is never a member: it is adjacent to the
    members in N, and a cotriangle is independent. Let co[v] be the
    complement row of v, and S(x) the sum of |co[a] & co[b]| over the
    non-adjacent pairs a < b in N; |co[a] & co[b]| is the number of c
    that complete {a, b} to a cotriangle. A cotriangle with exactly two
    members in N is counted once in S(x), by its one pair inside N; one
    with all three members in N is counted three times, once per pair.
    With T3(x) the number of cotriangles inside N, the entry is
    therefore S(x) - 2 * T3(x). Both terms come from one double loop
    over N: T3(x) is the sum of |co[a] & co[b] & N| restricted to c > b.
    """
    co = complement(g).rows
    return [_cotriangles_at(nx, co) for nx in g.rows]


@dataclass(frozen=True)
class BoundReport:
    """All bound quantities for one (n, k) pair.

    incidence_lo / incidence_hi are the integer products
    k * cotriangle_lower_bound and n * vertex_cotriangle_cap;
    `contradiction` is evaluated on the exact rational values, since the
    identity n*T - k*C = -(k*n/6) * poly holds exactly.
    """

    n: int
    k: int
    cotriangle_lb: int
    per_vertex_cap: int | None
    poly_value: int
    threshold: int
    incidence_lo: int
    incidence_hi: int | None
    contradiction: bool

    def to_json(self) -> dict:
        out = asdict(self)
        out["cotriangle_lower_bound"] = out.pop("cotriangle_lb")
        return out


def bound_report(n: int, k: int) -> BoundReport:
    lb = cotriangle_lower_bound(n, k)
    cap = vertex_cotriangle_cap(n, k) if n >= 4 * k else None
    contradiction = False
    if cap is not None:
        contradiction = k * cotriangle_lower_bound_exact(n, k) > n * cap
    return BoundReport(
        n=n,
        k=k,
        cotriangle_lb=lb,
        per_vertex_cap=cap,
        poly_value=threshold_poly(n, k),
        threshold=helly_threshold(k),
        incidence_lo=k * lb,
        incidence_hi=n * cap if cap is not None else None,
        contradiction=contradiction,
    )


def bound_table(k_max: int) -> list[BoundReport]:
    """One report per degree 1..k_max, each evaluated at its threshold order."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    return [bound_report(helly_threshold(k), k) for k in range(1, k_max + 1)]
