"""The cyclic sieving check: independent counts of rotation-fixed forests.

For each divisor d of n the forests fixed by the rotation of order d are
counted five ways:

* orbit: generate the fixed forests directly over the chord orbits of the
  rotation,
* filter: walk all of F(n, k) and keep the fixed forests, testing each
  group of forests that share all chords but the last once per rotation
  instead of rotating whole forests,
* bijection (d >= 2 only): actually build every fixed forest from the small
  side and count the images, each decomposed back to its own source,
* closed: a product formula with a case split on how d meets k,
* poly: evaluate the count q-polynomial at a primitive d-th root of unity,
  from its coefficients folded modulo q^d - 1 and a Moebius sum over the
  divisors of d, in integers only. The fold modulo q^d - 1 is read off
  the polynomial's fold modulo q^n - 1, summed once per polynomial and
  kept on it, so each f(n, k; q) is folded once for all d.

ROUTES is the one table of them: for each route its count of one cell, its
stream of fixed forests when it has one, and its bound on n. check_bound
refuses an n over a route's bound before the command line runs that route;
verify_csp runs on each cell every route whose bound admits n, and
check_verify_bound refuses an n that fewer than two routes admit, where
there would be nothing to compare. verify_csp and every counting command
of the command line read the table, and no route's bound lives elsewhere.
Sieving holds when every route lands on the same integer for every d. The
routes share argument validation (forest.check_n, forest.check_d) and a
few primitives that tests pin on their own; the route ledger test lists
each shared function with its reason. No route reads another's
intermediate results.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from math import comb, gcd
from typing import NamedTuple

from . import bijections, enumeration
from .forest import NonCrossingForest, check_d, check_n
from .qpoly import forest_count, forest_count_poly

# The routes that enumerate walk sets that grow about sevenfold per vertex:
# at n = 12 the largest cell, F(12, 3), holds 31 million forests.
MAX_ENUM_N = 12
MAX_POLY_N = 100
# Every count at n <= 2000 stays far below Python's 4300-digit limit on
# int-to-str conversion, and takes well under a second.
MAX_CLOSED_N = 2000


def closed_form_eval(n: int, k: int, d: int) -> int:
    """Product-formula count of the forests in F(n, k) fixed by the rotation
    of order d.

    d = 1 counts everything. When d divides k the fixed forests are glued
    d-fold copies, counted by (n' - k' + 1) * |F(n', k')| over the good
    vertices, with n' = n/d and k' = k/d. When d = 2 and k is odd they are
    diameter foldings, counted by the marked forests on n/2 vertices. No
    other case admits a fixed forest.
    """
    check_n(n, k)
    check_d(d, n)
    if d == 1:
        return forest_count(n, k)
    if k % d == 0:
        np_, kp = n // d, k // d
        return (np_ - kp + 1) * forest_count(np_, kp)
    if d == 2 and k % 2 == 1:
        np_, kp = n // 2, (k + 1) // 2
        return comb(np_, kp - 1) * comb(3 * np_ - 2 * kp, np_ - kp)
    return 0


def _mobius(m: int) -> int:
    """The Moebius function of m >= 1: 0 when a square divides m, else -1
    to the number of its prime factors.

    >>> [_mobius(m) for m in range(1, 11)]
    [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    """
    sign, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if m > 1 else sign


def poly_eval(n: int, k: int, d: int) -> int:
    """The count q-polynomial of F(n, k) evaluated at a primitive d-th root
    of unity w, in integers only.

    Folded modulo q^d - 1, the polynomial leaves b_s for s = 1 .. d: the
    sum of its coefficients at the exponents congruent to s mod d. They
    are read from its fold modulo q^n - 1 (QPoly.fold(n)), which the
    polynomial keeps, so every divisor d of n sums n entries, not the
    whole coefficient list: since d divides n, b_s is the sum of the
    fold's entries at the residues congruent to s mod d. Its value at
    every root of order dividing d is an integer exactly when b_s depends
    only on gcd(s, d) (Reiner, Stanton and White 2004, Prop. 2.1); this is
    checked, and the first s that breaks it is named. Then the powers w^s
    with gcd(s, d) = g sum to the Ramanujan sum mu(d/g), so f(w) is the
    sum of mu(d/g) b_g over the divisors g of d. No polynomial is divided.
    """
    check_n(n, k)
    check_d(d, n)
    r = forest_count_poly(n, k).fold(n)
    b = {s: sum(r[s % d::d]) for s in range(1, d + 1)}
    for s, c in b.items():
        g = gcd(s, d)
        if c != b[g]:
            raise ValueError(f"value at a primitive {d}-th root of unity is not an "
                             f"integer: modulo q^{d} - 1, q^{s} has coefficient {c} "
                             f"and q^{g}, with gcd({s}, {d}) = {g}, has {b[g]}")
    return sum(_mobius(d // g) * c for g, c in b.items() if d % g == 0)


def fixed_count_bijection(n: int, k: int, d: int) -> int:
    """Count fixed forests by building them all from the small side, each
    decomposed back to its own source. Zero when neither structural map
    applies (which is the claim that no fixed forest exists)."""
    return sum(1 for _ in bijections.enumerate_images(n, k, d))


class Route(NamedTuple):
    """One count route. max_n is its bound on n: the command line refuses a
    larger n for it, and verify_csp does not run it there. least_d is the
    smallest d verify_csp reports it for."""

    count: Callable[[int, int, int], int]
    stream: Callable[[int, int, int], Iterator[NonCrossingForest]] | None
    max_n: int
    least_d: int


# Each count and stream looks its function up by module-level name at call
# time, so whatever is bound to that name (a tracer's wrapper, say) is what
# runs. Order is the column order of the report. The orbit route walks its
# own orbits at d = 1 too, but there every orbit is one chord and its walk
# over every k of one n takes 5.5-6.6x what the filter route's walks take
# (5.6-6.6x at n = 9, 5.5-6.4x at n = 10), so verify_csp reports it from
# d = 2.
ROUTES: dict[str, Route] = {
    "filter": Route(
        lambda n, k, d: enumeration.count_forests(n, k, d),
        lambda n, k, d: enumeration.enumerate_forests(n, k, d),
        MAX_ENUM_N, 1,
    ),
    "poly": Route(lambda n, k, d: poly_eval(n, k, d), None, MAX_POLY_N, 1),
    "closed": Route(lambda n, k, d: closed_form_eval(n, k, d), None, MAX_CLOSED_N, 1),
    "bijection": Route(
        lambda n, k, d: fixed_count_bijection(n, k, d),
        lambda n, k, d: bijections.enumerate_images(n, k, d),
        MAX_ENUM_N, 2,
    ),
    "orbit": Route(
        lambda n, k, d: enumeration.count_invariant(n, k, d),
        lambda n, k, d: enumeration.enumerate_invariant(n, k, d),
        MAX_ENUM_N, 2,
    ),
}


def check_bound(name: str, n: int) -> None:
    """Refuse n over the bound of route name. The command line calls this
    before it runs a single route; the count functions themselves are not
    bounded."""
    max_n = ROUTES[name].max_n
    if n > max_n:
        raise ValueError(f"n = {n} exceeds the bound of the {name} route ({max_n})")


def check_verify_bound(n: int) -> None:
    """Refuse n that fewer than two routes admit, one route or none: a cell
    that one route counts has nothing to be compared with."""
    bound = sorted(r.max_n for r in ROUTES.values())[-2]
    if n > bound:
        raise ValueError(f"n = {n} exceeds the bound of verify ({bound}), "
                         "past which fewer than two routes count a cell")


class CspRow(NamedTuple):
    """One (n, k, d) cell: the count of every route run on it, keyed by
    route name in ROUTES order."""

    n: int
    k: int
    d: int
    counts: dict[str, int]

    @property
    def agree(self) -> bool:
        return len(set(self.counts.values())) == 1


def verify_csp(n: int, k: int | None = None) -> tuple[CspRow, ...]:
    """Run every route of ROUTES whose bound admits n over all divisors of
    n, for one k or all of them, and give one row per (k, d) cell. Every
    count, the filter route's included, is its route's count of that one
    cell. n must pass check_verify_bound."""
    check_n(n, k)
    check_verify_bound(n)
    rows = []
    for kk in (k,) if k is not None else range(1, n + 1):
        for d in enumeration.divisors(n):
            counts = {name: r.count(n, kk, d) for name, r in ROUTES.items()
                      if d >= r.least_d and n <= r.max_n}
            rows.append(CspRow(n, kk, d, counts))
    return tuple(rows)
