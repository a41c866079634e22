"""Exact q-analogue arithmetic over the integers.

Polynomials in q are dense integer coefficient tuples (index = exponent),
trailing zeros trimmed. Everything that is a theorem about integrality is
asserted at runtime rather than assumed: q-binomials and the forest-count
polynomial are built as products followed by divisions that must leave a
zero remainder, never through rational arithmetic; no floating point
anywhere. Evaluation at a root of unity is not done here: QPoly.fold(m)
gives a polynomial's coefficients summed by exponent mod m, once per m
and kept on the instance, and the poly route (sieving.poly_eval) sums the
fold modulo q^n - 1 in integers.

Every q-polynomial is built from one primitive: multiply by the ratio
[a]_q / [b]_q of two q-integers, in one checked pass over the
coefficients. A q-polynomial is a start polynomial and a list of passes
(a, b), and one runner, _run, applies them in order; no other code calls
the primitive. A q-binomial is a ladder of passes, one per factor
[a-b+i]_q / [i]_q. The forest polynomial starts from its first q-binomial
and carries the second's ladder, then one pass by [1]_q / [2n-k]_q, so no
two dense polynomials are ever multiplied. That start is taken only when
no cell of n is cached; otherwise the cell steps from the nearest cached
f(n, j), one cell at a time, and each step is six passes by single
q-integers, three multiplied in, then three divided out, from the
identity that ties neighbouring cells. These checked passes are the only
arithmetic on polynomials in this module. The cache holds the cells of
one n, the last asked, and they are always one run of consecutive k: the
first cell cached for another n empties it, since every caller asks for
the cells of one n together.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import sub

from .forest import check_n, is_int, read_only


class ExactDivisionError(ArithmeticError):
    """A division that was promised to be exact left a remainder."""


def _ratio_q_int(cs, a: int, b: int) -> list[int]:
    """Coefficients of P(q) * [a]_q / [b]_q, where P has coefficients cs,
    in one pass, insisting on a zero remainder.

    From [m]_q = (1 - q^m) / (1 - q) the result R obeys
    (1 - q^b) R = (1 - q^a) P, so R_j = P_j - P_(j-a) + R_(j-b): each
    residue class of j mod b is a running sum of the a-step differences of
    P. Run over every j up to deg P + a, the recurrence must close: the
    entries past deg R = deg P + a - b are the remainder terms, and any
    nonzero one raises ExactDivisionError.
    """
    if b < 1:
        raise ZeroDivisionError("division by [0]_q")
    cs = list(cs)
    pad = [0] * a
    out = list(map(sub, cs + pad, pad + cs))
    for r in range(b):
        out[r::b] = accumulate(out[r::b])
    size = max(len(cs) + a - b, 0)
    if any(out[size:]):
        raise ExactDivisionError(
            f"degree-{len(cs) - 1} polynomial times [{a}]_q is not divisible by [{b}]_q"
        )
    del out[size:]
    return out


class QPoly:
    """Dense integer polynomial in q, a value: its coefficients with
    trailing zeros trimmed. It keeps each fold(m) it has computed; that is
    no field, so ==, hash and repr read coeffs alone.

    >>> QPoly((1, 2, 0, 0)).coeffs
    (1, 2)
    >>> QPoly((1, 0, 1)).pretty()
    '1 + q^2'
    """

    coeffs: tuple[int, ...]
    __setattr__ = __delattr__ = read_only
    # m -> fold(m), for each m asked
    _folds = None

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.__dict__["coeffs"] = tuple(cs)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"QPoly(coeffs={self.coeffs!r})"

    def fold(self, m: int) -> tuple[int, ...]:
        """The coefficients summed by exponent mod m, m >= 1: entry t, for
        t = 0 .. m-1, is the sum of those at the exponents congruent to t,
        so the polynomial is sum_t fold(m)[t] q^t modulo q^m - 1. Summed
        once per m and kept on the instance; the result is shared, and is
        a tuple, so no caller can change it.

        >>> QPoly((1, 2, 3, 4, 5)).fold(2)
        (9, 6)
        """
        folds = self._folds
        if folds is None:
            folds = self.__dict__["_folds"] = {}
        r = folds.get(m)
        if r is None:
            cs = self.coeffs
            r = folds[m] = tuple(sum(cs[t::m]) for t in range(m))
        return r

    def pretty(self) -> str:
        """Human-readable form, ascending powers: '1 + q^2 + q^4'."""
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                term = str(mag)
            elif i == 1:
                term = "q" if mag == 1 else f"{mag}*q"
            else:
                term = f"q^{i}" if mag == 1 else f"{mag}*q^{i}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


def _run(cs, passes) -> list[int]:
    """Coefficients of P(q) times [a]_q / [b]_q for each pass (a, b) in
    turn, where P has coefficients cs: one pass of _ratio_q_int each, every
    one checked to leave no remainder, not assumed to."""
    for a, b in passes:
        cs = _ratio_q_int(cs, a, b)
    return cs


def _binomial_passes(a: int, b: int) -> list[tuple[int, int]]:
    """The passes that multiply by [a choose b]_q, which is zero outside
    0 <= b <= a: there, one pass by [0]_q.

    The ratio recurrence
    [a-b+i choose i]_q = [a-b+i-1 choose i-1]_q * [a-b+i]_q / [i]_q for
    i = 1 .. b, with b replaced by min(b, a - b). Every partial product is
    the start times a q-binomial, so coefficients stay as small as the
    answer's.
    """
    if b < 0 or b > a:
        return [(0, 1)]
    b = min(b, a - b)
    return [(a - b + i, i) for i in range(1, b + 1)]


def q_binomial(a: int, b: int) -> QPoly:
    """Gaussian binomial [a choose b]_q, zero outside 0 <= b <= a.

    >>> q_binomial(4, 2).coeffs
    (1, 1, 2, 1, 1)
    """
    if not is_int(a) or not is_int(b) or a < 0:
        raise ValueError(f"q_binomial needs ints a >= 0 and b, got a={a!r}, b={b!r}")
    return QPoly(_run([1], _binomial_passes(a, b)))


def forest_count(n: int, k: int) -> int:
    """Number of non-crossing forests on n vertices with k components:
    C(n, k-1) * C(3n-2k-1, n-k) / (2n-k), checked to divide exactly."""
    check_n(n, k)
    num = math.comb(n, k - 1) * math.comb(3 * n - 2 * k - 1, n - k)
    q, r = divmod(num, 2 * n - k)
    if r:
        raise ArithmeticError(f"count formula not integral at n={n}, k={k}")
    return q


def _forest_passes(n: int, k: int, j: int | None) -> list[tuple[int, int]]:
    """The passes that give f(n, k) from its neighbour f(n, j), j = k +- 1,
    or, for j None, from [n choose k-1]_q.

    From [n choose k-1]_q, [3n-2k-1 choose n-k]_q is multiplied in by its
    ladder, never built on its own, then one pass by [1]_q / [2n-k]_q.
    Starting from the small factor keeps every pass's polynomial short.

    From a neighbour, the product formula gives, for 1 <= m < n,
    f(n, m) [n-m+1]_q [n-m]_q [2n-m]_q = f(n, m+1) [m]_q [3n-2m-1]_q [3n-2m-2]_q,
    with m = min(k, j): low is f(n, m)'s side and high f(n, m+1)'s. The
    neighbour's side is multiplied in by three q-integers, then f(n, k)'s
    side divided out by three. Every partial quotient is f(n, k) times the
    q-integers still to divide, a polynomial, so each division must leave
    no remainder.
    """
    if j is None:
        return _binomial_passes(3 * n - 2 * k - 1, n - k) + [(1, 2 * n - k)]
    m = min(k, j)
    low = (n - m + 1, n - m, 2 * n - m)
    high = (m, 3 * n - 2 * m - 1, 3 * n - 2 * m - 2)
    ups, downs = (high, low) if j > k else (low, high)
    return [(a, 1) for a in ups] + [(1, b) for b in downs]


# (n, k) -> f(n, k) for the last n asked, one run of consecutive k: _build
# empties it before it caches a cell of another n, and a cell of the same
# n is built by stepping from the run's nearer end, each cell stepped
# through cached as if asked for. Keys are only ever checked pairs of
# ints, so (2.0, 1) or (True, 1) never reach an entry.
_FOREST_POLYS: dict[tuple[int, int], QPoly] = {}


def _build(n: int, k: int, start: QPoly, j: int | None) -> QPoly:
    """f(n, k) from start, which is f(n, j) or, for j None,
    [n choose k-1]_q, by the passes of _forest_passes: checked
    nonnegative, then cached, the cache emptied first if it holds
    another n."""
    f = QPoly(_run(start.coeffs, _forest_passes(n, k, j)))
    if min(f.coeffs, default=0) < 0:
        raise ArithmeticError(f"negative coefficient in forest polynomial n={n}, k={k}")
    if _FOREST_POLYS and next(iter(_FOREST_POLYS))[0] != n:
        _FOREST_POLYS.clear()
    _FOREST_POLYS[n, k] = f
    return f


def forest_count_poly(n: int, k: int) -> QPoly:
    """q-analogue of the forest count: the q-binomial product
    [n choose k-1]_q [3n-2k-1 choose n-k]_q divided exactly by [2n-k]_q.

    With no cell of n cached, f(n, k) starts from [n choose k-1]_q and
    takes a ladder of about n passes (_forest_passes). Any other cell
    starts from the nearest cached f(n, j) and steps to k one cell at a
    time, six passes of one q-integer per cell, each cell stepped through
    built as if asked for: checked and cached. So the cached cells of n
    are always one run of consecutive k, and a cell next to the run costs
    six passes. A far jump pays for every cell in between: f(100, 60)
    right after f(100, 1) takes 59 steps, 354 passes that touch 18 times
    the coefficients of its 82-pass ladder. All starts give the same
    polynomial. The division is checked exact pass by pass, and
    nonnegativity of the coefficients, a theorem about this quotient, is
    checked on each result, so any arithmetic regression surfaces as a
    hard error. The polynomial keeps its folds (QPoly.fold), so a cached
    one is folded once per modulus. The cache holds only the cells of the
    last n asked: the first cell built for another n empties it, so cells
    asked in (n, k) order, or in any order within each n, reuse their
    neighbours, and a random order across n rebuilds each cell from its
    ladder.
    forest_count_poly.cache_clear() empties the cache, folds and all.

    >>> forest_count_poly(3, 1).coeffs
    (1, 0, 1, 0, 1)
    """
    check_n(n, k)
    f = _FOREST_POLYS.get((n, k))
    if f is not None:
        return f
    j = next((j for t in range(1, n) for j in (k + t, k - t)
              if (n, j) in _FOREST_POLYS), None)
    if j is None:
        return _build(n, k, q_binomial(n, k - 1), None)
    f = _FOREST_POLYS[n, j]
    step = 1 if k > j else -1
    for i in range(j + step, k + step, step):
        f = _build(n, i, f, i - step)
    return f


forest_count_poly.cache_clear = _FOREST_POLYS.clear
