"""Exact q-analogue arithmetic over the integers.

Polynomials in q are dense integer coefficient tuples (index = exponent),
trailing zeros trimmed. Everything that is a theorem about integrality is
asserted at runtime rather than assumed: q-binomials and the forest-count
polynomial are built as products followed by divisions that must leave a
zero remainder, never through rational arithmetic. "Evaluation at a
primitive d-th root of unity" is performed exactly as reduction modulo the
d-th cyclotomic polynomial; no floating point anywhere.

Every q-polynomial is built from one primitive: multiply or divide by a
q-integer [m]_q, each one pass over the coefficients. A q-binomial is a
ladder of such steps, and the forest polynomial carries the same ladder
from its first q-binomial through the second before the last division by
[2n-k]_q, so no two dense polynomials are ever multiplied. Long division is
left to small divisors such as cyclotomic polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import sub

from .forest import check_n


class ExactDivisionError(ArithmeticError):
    """A division that was promised to be exact left a remainder."""


def _mul_q_int(cs, m: int) -> list[int]:
    """Coefficients of P(q) * [m]_q, where P has coefficients cs: entry j
    is the sum of the window cs[j-m+1 .. j], read off prefix sums."""
    prefix = [0] * m + list(accumulate(list(cs) + [0] * (m - 1)))
    return list(map(sub, prefix[m:], prefix[:-m]))


def _div_q_int(cs, m: int) -> list[int]:
    """Coefficients of P(q) / [m]_q, insisting on a zero remainder.

    From (1 - q) P = (1 - q^m) Q the quotient obeys
    Q_j = P_j - P_(j-1) + Q_(j-m), so each residue class of j mod m is a
    running sum of the first differences of P. Run over every j up to
    deg P + 1, the recurrence must close: the entries past deg Q are the
    remainder terms, and any nonzero one raises ExactDivisionError.
    """
    if m < 1:
        raise ZeroDivisionError("division by [0]_q")
    cs = list(cs)
    diff = list(map(sub, cs + [0], [0] + cs))
    quot = [0] * len(diff)
    for r in range(m):
        quot[r::m] = accumulate(diff[r::m])
    size = max(len(cs) - m + 1, 0)
    if any(quot[size:]):
        raise ExactDivisionError(
            f"degree-{len(cs) - 1} polynomial is not divisible by [{m}]_q"
        )
    return quot[:size]


@dataclass(frozen=True)
class QPoly:
    """Dense integer polynomial in q.

    >>> (q_int(3) * q_int(2)).coeffs
    (1, 2, 2, 1)
    >>> QPoly((1, 0, -1)).exact_div(QPoly((1, 1))).coeffs
    (1, -1)
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "QPoly") -> "QPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    def __neg__(self) -> "QPoly":
        return QPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other):
        """Product by the double loop over coefficient pairs, or by an
        integer scalar. The package itself only scales: its q-polynomials
        are built by [m]_q steps, and this product serves callers and
        tests."""
        if isinstance(other, int):
            return QPoly(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPoly(())
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return QPoly(out)

    __rmul__ = __mul__

    def __call__(self, x: int) -> int:
        """Evaluate at an integer point (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __divmod__(self, other) -> tuple["QPoly", "QPoly"]:
        """Long division over the integers.

        Raises ExactDivisionError as soon as a quotient coefficient would
        leave the integers (never happens for monic divisors).
        """
        if isinstance(other, int):
            other = QPoly((other,))
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        dcs = other.coeffs
        dlead = dcs[-1]
        dd = len(dcs) - 1
        rem = list(self.coeffs)
        if len(rem) <= dd:
            return QPoly(()), QPoly(rem)
        quot = [0] * (len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if not c:
                continue
            t, r = divmod(c, dlead)
            if r:
                raise ExactDivisionError(
                    f"coefficient {c} not divisible by leading coefficient {dlead}"
                )
            quot[i - dd] = t
            for j, oc in enumerate(dcs):
                rem[i - dd + j] -= t * oc
        return QPoly(quot), QPoly(rem)

    def exact_div(self, other) -> "QPoly":
        """Divide, insisting on a zero remainder."""
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ExactDivisionError(
                f"remainder {r.coeffs} dividing degree-{self.degree} polynomial"
            )
        return q

    def pretty(self, var: str = "q") -> str:
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
                term = var if mag == 1 else f"{mag}*{var}"
            else:
                term = f"{var}^{i}" if mag == 1 else f"{mag}*{var}^{i}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


@lru_cache(maxsize=None)
def q_int(a: int) -> QPoly:
    """The q-integer [a]_q = 1 + q + ... + q^(a-1); [0]_q is zero.

    >>> q_int(3).coeffs
    (1, 1, 1)
    """
    if a < 0:
        raise ValueError(f"q_int needs a >= 0, got {a}")
    return QPoly((1,) * a)


def _times_q_binomial(cs, a: int, b: int) -> list[int]:
    """Coefficients of P(q) * [a choose b]_q, where P has coefficients cs;
    empty outside 0 <= b <= a.

    Built by the ratio recurrence
    [a-b+i choose i]_q = [a-b+i-1 choose i-1]_q * [a-b+i]_q / [i]_q for
    i = 1 .. b, with b replaced by min(b, a - b). Every partial product is
    P times a q-binomial, so coefficients stay as small as the answer's, and
    each step is one multiplication and one division by a q-integer. Every
    division is checked to leave no remainder, not assumed to.
    """
    if b < 0 or b > a:
        return []
    b = min(b, a - b)
    cs = list(cs)
    for i in range(1, b + 1):
        cs = _div_q_int(_mul_q_int(cs, a - b + i), i)
    return cs


@lru_cache(maxsize=None)
def q_binomial(a: int, b: int) -> QPoly:
    """Gaussian binomial [a choose b]_q, zero outside 0 <= b <= a.

    >>> q_binomial(4, 2).coeffs
    (1, 1, 2, 1, 1)
    """
    if a < 0:
        raise ValueError(f"q_binomial needs a >= 0, got {a}")
    return QPoly(_times_q_binomial([1], a, b))


def forest_count(n: int, k: int) -> int:
    """Number of non-crossing forests on n vertices with k components:
    C(n, k-1) * C(3n-2k-1, n-k) / (2n-k), checked to divide exactly."""
    check_n(n, k)
    num = math.comb(n, k - 1) * math.comb(3 * n - 2 * k - 1, n - k)
    q, r = divmod(num, 2 * n - k)
    if r:
        raise ArithmeticError(f"count formula not integral at n={n}, k={k}")
    return q


# typed: forest_count_poly(2.0, 1) or (True, 1) must reach the check, not
# the cached entry of (2, 1) or (1, 1).
@lru_cache(maxsize=None, typed=True)
def forest_count_poly(n: int, k: int) -> QPoly:
    """q-analogue of the forest count: the q-binomial product divided
    exactly by [2n-k]_q.

    The small factor [n choose k-1]_q comes from the q_binomial table and
    the large one [3n-2k-1 choose n-k]_q is multiplied into it by [m]_q
    steps, never tabled on its own; starting from the small factor keeps
    every step's polynomial short. Polynomiality and nonnegativity of the
    coefficients are theorems about this quotient; both are enforced here
    so any arithmetic regression surfaces as a hard error.

    >>> forest_count_poly(3, 1).coeffs
    (1, 0, 1, 0, 1)
    """
    check_n(n, k)
    num = _times_q_binomial(q_binomial(n, k - 1).coeffs, 3 * n - 2 * k - 1, n - k)
    f = QPoly(_div_q_int(num, 2 * n - k))
    if any(c < 0 for c in f.coeffs):
        raise ArithmeticError(f"negative coefficient in forest polynomial n={n}, k={k}")
    return f


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> QPoly:
    """The d-th cyclotomic polynomial, by exact division of q^d - 1 by the
    cyclotomics of the proper divisors of d. cyclotomic(1) = q - 1.

    >>> cyclotomic(6).coeffs
    (1, -1, 1)
    """
    if d < 1:
        raise ValueError(f"cyclotomic needs d >= 1, got {d}")
    p = QPoly((-1,) + (0,) * (d - 1) + (1,))
    for e in range(1, d):
        if d % e == 0:
            p = p.exact_div(cyclotomic(e))
    return p


@dataclass(frozen=True)
class CyclotomicResidue:
    """An element of Z[q] / (d-th cyclotomic): the exact value of an integer
    polynomial at a primitive d-th root of unity.

    Stored as the canonical remainder, so equality of residues is equality
    of the represented algebraic numbers. The coefficients are first folded
    modulo q^d - 1, which the d-th cyclotomic divides, so the long division
    only ever sees a polynomial of degree below d.
    """

    d: int
    residue: QPoly

    def __init__(self, d: int, poly: QPoly):
        if d < 1:
            raise ValueError(f"root order must be >= 1, got {d}")
        folded = QPoly(tuple(sum(poly.coeffs[r::d]) for r in range(d)))
        _, rem = divmod(folded, cyclotomic(d))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "residue", rem)

    def is_zero(self) -> bool:
        return self.residue.is_zero()

    def as_integer(self) -> int:
        """The residue as a plain integer; fails if it is not rational."""
        if self.residue.degree > 0:
            raise ValueError(
                f"value {self.residue.pretty()} at a primitive {self.d}-th root "
                "of unity is not an integer"
            )
        return self.residue.coeffs[0] if self.residue.coeffs else 0

    def __mul__(self, c: int) -> "CyclotomicResidue":
        return CyclotomicResidue(self.d, self.residue * c)

    __rmul__ = __mul__


def eval_at_root(p: QPoly, d: int) -> CyclotomicResidue:
    """p evaluated at a primitive d-th root of unity, exactly.

    For d = 1 this is reduction mod q - 1, i.e. the value p(1).
    """
    return CyclotomicResidue(d, p)


def q_lucas(a: int, b: int, d: int) -> CyclotomicResidue:
    """Value of [a choose b]_q at a primitive d-th root of unity via the
    q-Lucas factorization C(a//d, b//d) * [a mod d choose b mod d]_q(w)."""
    if a < 0 or b < 0:
        raise ValueError(f"q_lucas needs a, b >= 0, got a={a}, b={b}")
    if d < 2:
        raise ValueError(f"q_lucas needs d >= 2, got {d}")
    return math.comb(a // d, b // d) * eval_at_root(q_binomial(a % d, b % d), d)


def _phi_multiplicity(p: QPoly, d: int) -> int:
    """Multiplicity of the d-th cyclotomic as a factor of p."""
    phi = cyclotomic(d)
    m = 0
    while not p.is_zero():
        q, r = divmod(p, phi)
        if not r.is_zero():
            break
        m += 1
        p = q
    return m


@dataclass(frozen=True)
class QIntRootCheck:
    """Report of the root-of-unity facts about q-integers for one (a, b, d).

    mult_a / mult_b witness the cyclotomic multiplicities found in [a]_q and
    [b]_q. Checks with an empty premise are None.
    """

    a: int
    b: int
    d: int
    mult_a: int
    mult_b: int
    simple_zero_ok: bool
    unit_value_ok: bool | None
    ratio_ok: bool | None

    @property
    def ok(self) -> bool:
        return self.simple_zero_ok and self.unit_value_ok is not False \
            and self.ratio_ok is not False


def q_int_root_check(a: int, b: int, d: int) -> QIntRootCheck:
    """Verify, for the given (a, b, d), the three facts used throughout the
    root-of-unity evaluations:

    * [x]_q has a simple zero at a primitive d-th root w iff d != 1 and
      d | x (multiplicity exactly 1 there, 0 otherwise);
    * [a]_q(w) = 1 whenever a = 1 (mod d), for d >= 2;
    * when a = b (mod d), the ratio [a]_q/[b]_q at w equals a/b if d divides
      both and 1 otherwise. With a common zero the ratio is taken after
      stripping the shared cyclotomic factor; the comparison is done by
      exact cross-multiplication.
    """
    if a < 1 or b < 1:
        raise ValueError(f"q_int_root_check needs a, b >= 1, got a={a}, b={b}")
    if d < 1:
        raise ValueError(f"q_int_root_check needs d >= 1, got {d}")

    mult_a = _phi_multiplicity(q_int(a), d)
    mult_b = _phi_multiplicity(q_int(b), d)

    def expected_mult(x: int) -> int:
        return 1 if (d != 1 and x % d == 0) else 0

    simple_zero_ok = mult_a == expected_mult(a) and mult_b == expected_mult(b)

    unit_value_ok: bool | None = None
    if d >= 2 and a % d == 1:
        unit_value_ok = eval_at_root(q_int(a), d).residue == QPoly((1,))

    ratio_ok: bool | None = None
    if a % d == b % d:
        if mult_a != mult_b:
            ratio_ok = False
        else:
            phi = cyclotomic(d)
            pa, pb = q_int(a), q_int(b)
            for _ in range(mult_a):
                pa = pa.exact_div(phi)
                pb = pb.exact_div(phi)
            ra = eval_at_root(pa, d)
            rb = eval_at_root(pb, d)
            if a % d == 0:
                ratio_ok = (ra * b).residue == (rb * a).residue
            else:
                ratio_ok = ra.residue == rb.residue

    return QIntRootCheck(a, b, d, mult_a, mult_b, simple_zero_ok,
                         unit_value_ok, ratio_ok)
