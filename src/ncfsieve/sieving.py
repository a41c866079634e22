"""The cyclic sieving check: independent counts of rotation-fixed forests.

For each divisor d of n the forests fixed by the rotation of order d are
counted five ways:

* orbit: generate the fixed forests directly over the chord orbits of the
  rotation,
* filter: walk all of F(n, k) and keep the fixed forests, testing each
  group of forests that share all chords but the last once per rotation
  instead of rotating whole forests,
* bijection (d >= 2 only): actually build every fixed forest from the small
  side through the structural maps and count distinct images,
* closed: a product formula with a case split on how d meets k,
* poly: evaluate the count q-polynomial at a primitive d-th root of unity.

ROUTES is the one table of them: for each route its count of one cell, its
stream of fixed forests when it has one, and the bound on n the command
line puts on it. verify_csp, `ncfsieve fixed` and `ncfsieve enumerate` all
read it. Sieving holds when every route lands on the same integer for every
d. The routes share argument validation (forest.check_n, forest.check_d) and
nothing else: no route reads another's intermediate results.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from math import comb
from typing import NamedTuple

from . import bijections, enumeration
from .forest import NonCrossingForest, check_d, check_n
from .qpoly import eval_at_root, forest_count, forest_count_poly

ENV_MAX_N = "NCF_SIEVE_MAX_N"
DEFAULT_MAX_N = 12
MAX_POLY_N = 100
# Every count at n <= 2000 stays far below Python's 4300-digit limit on
# int-to-str conversion, and takes well under a second.
MAX_CLOSED_N = 2000


def size_guard(n: int) -> None:
    """Bound on n for the routes that enumerate: DEFAULT_MAX_N, or the value
    of the NCF_SIEVE_MAX_N environment variable."""
    raw = os.environ.get(ENV_MAX_N)
    if raw is None:
        cap = DEFAULT_MAX_N
    else:
        try:
            cap = int(raw)
        except ValueError:
            raise ValueError(f"{ENV_MAX_N} must be an integer, got {raw!r}") from None
    if n > cap:
        raise ValueError(
            f"n = {n} exceeds the enumeration guard ({cap}); "
            f"set {ENV_MAX_N} higher to allow it"
        )


def poly_guard(n: int) -> None:
    if n > MAX_POLY_N:
        raise ValueError(f"n = {n} exceeds the q-polynomial bound ({MAX_POLY_N})")


def closed_guard(n: int) -> None:
    if n > MAX_CLOSED_N:
        raise ValueError(f"n = {n} exceeds the closed-form bound ({MAX_CLOSED_N})")


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


def poly_eval(n: int, k: int, d: int) -> int:
    """The count q-polynomial of F(n, k) evaluated at a primitive d-th root
    of unity, computed exactly in the cyclotomic quotient ring."""
    check_n(n, k)
    check_d(d, n)
    value = eval_at_root(forest_count_poly(n, k), d)
    return value.as_integer()


def fixed_count_brute(n: int, k: int, d: int) -> int:
    """The filter route's count of one cell, read from invariant_counts."""
    check_n(n, k)
    check_d(d, n)
    return enumeration.invariant_counts(n, k)[d]


def fixed_count_bijection(n: int, k: int, d: int) -> int:
    """Count fixed forests by building them all from the small side and
    checking the images are distinct. Zero when neither structural map
    applies (which is the claim that no fixed forest exists)."""
    return sum(1 for _ in bijections.enumerate_images(n, k, d))


class Route(NamedTuple):
    """One count route. least_d is the smallest d verify_csp reports it for."""

    count: Callable[[int, int, int], int]
    stream: Callable[[int, int, int], Iterator[NonCrossingForest]] | None
    guard: Callable[[int], None]
    least_d: int


# Each count and stream looks its function up by module-level name at call
# time, so whatever is bound to that name (a tracer's wrapper, say) is what
# runs. Order is the column order of the report. The orbit route at d = 1 is the plain
# enumeration, so verify_csp leaves it to the filter route there.
ROUTES: dict[str, Route] = {
    "filter": Route(
        lambda n, k, d: fixed_count_brute(n, k, d),
        lambda n, k, d: enumeration.enumerate_forests(n, k, d),
        size_guard, 1,
    ),
    "poly": Route(lambda n, k, d: poly_eval(n, k, d), None, poly_guard, 1),
    "closed": Route(lambda n, k, d: closed_form_eval(n, k, d), None, closed_guard, 1),
    "bijection": Route(
        lambda n, k, d: fixed_count_bijection(n, k, d),
        lambda n, k, d: bijections.enumerate_images(n, k, d),
        size_guard, 2,
    ),
    "orbit": Route(
        lambda n, k, d: sum(1 for _ in enumeration.enumerate_invariant(n, k, d)),
        lambda n, k, d: enumeration.enumerate_invariant(n, k, d),
        size_guard, 2,
    ),
}

# The report has always called the filter route's column "brute".
_REPORT_KEYS = {"filter": "brute"}


@dataclass(frozen=True)
class CspRow:
    """One (n, k, d) cell: the count of every route run on it, keyed by
    route name in ROUTES order."""

    n: int
    k: int
    d: int
    counts: dict[str, int]

    @property
    def agree(self) -> bool:
        return len(set(self.counts.values())) == 1

    @property
    def columns(self) -> dict[str, int]:
        """The counts under their report names."""
        return {_REPORT_KEYS.get(name, name): c for name, c in self.counts.items()}

    def to_json_dict(self) -> dict:
        return {"n": self.n, "k": self.k, "d": self.d, **self.columns,
                "agree": self.agree}


@dataclass(frozen=True)
class CspReport:
    n: int
    rows: tuple[CspRow, ...]

    @property
    def all_agree(self) -> bool:
        return all(r.agree for r in self.rows)


def verify_csp(n: int, k: int | None = None) -> CspReport:
    """Run every route of ROUTES over all divisors of n, for one k or all
    of them, and report cell by cell.

    The filter counts for all divisors come from a single enumeration pass
    per k.
    """
    check_n(n, k)
    rows = []
    for kk in (k,) if k is not None else range(1, n + 1):
        filtered = enumeration.invariant_counts(n, kk)
        for d in enumeration.divisors(n):
            counts = {
                name: filtered[d] if name == "filter" else r.count(n, kk, d)
                for name, r in ROUTES.items()
                if d >= r.least_d
            }
            rows.append(CspRow(n, kk, d, counts))
    return CspReport(n, tuple(rows))


def _verify_cell(cell: tuple[int, int]) -> CspReport:
    """Module-level wrapper so process pools can map over (n, k) cells."""
    return verify_csp(*cell)
