"""Exact q-arithmetic against independent oracles and frozen values."""

import hashlib
import math
import random
import weakref
from functools import lru_cache
from itertools import zip_longest
from math import comb, gcd
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

import ncfsieve.qpoly as qp
from ncfsieve import sieving
from ncfsieve.qpoly import (
    ExactDivisionError,
    QPoly,
    forest_count,
    forest_count_poly,
    q_binomial,
)


# ------------------------------------------------------ reference oracles


def _schoolbook_mul(a, b) -> QPoly:
    """Reference product: the double loop over coefficient pairs."""
    a, b = QPoly(tuple(a)).coeffs, QPoly(tuple(b)).coeffs
    if not a or not b:
        return QPoly(())
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return QPoly(out)


def _ref_divmod(p: QPoly, divisor: QPoly) -> tuple[QPoly, QPoly]:
    """Reference long division over the integers.

    Raises ExactDivisionError as soon as a quotient coefficient would
    leave the integers (never happens for monic divisors).
    """
    if not divisor.coeffs:
        raise ZeroDivisionError("polynomial division by zero")
    dcs = divisor.coeffs
    dlead = dcs[-1]
    dd = len(dcs) - 1
    rem = list(p.coeffs)
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


def _ref_exact_div(p: QPoly, divisor: QPoly) -> QPoly:
    """Reference division, insisting on a zero remainder."""
    quot, rem = _ref_divmod(p, divisor)
    if rem.coeffs:
        raise ExactDivisionError(
            f"remainder {rem.coeffs} dividing degree-{len(p.coeffs) - 1} polynomial"
        )
    return quot


@lru_cache(maxsize=None)
def _ref_cyclotomic(d: int) -> QPoly:
    """Reference cyclotomic: q^d - 1 divided exactly by the cyclotomics of
    the proper divisors of d."""
    p = QPoly((-1,) + (0,) * (d - 1) + (1,))
    for e in range(1, d):
        if d % e == 0:
            p = _ref_exact_div(p, _ref_cyclotomic(e))
    return p


def _ref_residue(p: QPoly, d: int) -> QPoly:
    """Reference value of p at a primitive d-th root of unity: its
    remainder modulo the d-th cyclotomic, by long division. The value is an
    integer exactly when the remainder is a constant."""
    return _ref_divmod(p, _ref_cyclotomic(d))[1]


def _poly_eval_of(p: QPoly, d: int) -> int:
    """The poly route's value of p at a primitive d-th root of unity:
    poly_eval(d, 1, d) with the count polynomial replaced by p."""
    with patch.object(sieving, "forest_count_poly", lambda n, k: p):
        return sieving.poly_eval(d, 1, d)


@lru_cache(maxsize=None)
def _ref_q_factorial(a: int) -> QPoly:
    out = QPoly((1,))
    for i in range(1, a + 1):
        out = _schoolbook_mul(out.coeffs, (1,) * i)
    return out


@lru_cache(maxsize=None)
def _ref_q_binomial(a: int, b: int) -> QPoly:
    """Reference q-binomial: [a]_q! divided by [b]_q! [a-b]_q! by long
    division, which must leave no remainder."""
    if b < 0 or b > a:
        return QPoly(())
    den = _schoolbook_mul(_ref_q_factorial(b).coeffs, _ref_q_factorial(a - b).coeffs)
    return _ref_exact_div(_ref_q_factorial(a), den)


def _ref_forest_count_poly(n: int, k: int) -> QPoly:
    num = _schoolbook_mul(_ref_q_binomial(n, k - 1).coeffs,
                          _ref_q_binomial(3 * n - 2 * k - 1, n - k).coeffs)
    return _ref_exact_div(num, QPoly((1,) * (2 * n - k)))


def is_symmetric(p: QPoly) -> bool:
    """Palindromic coefficient sequence."""
    return p.coeffs == p.coeffs[::-1]


def is_unimodal(p: QPoly) -> bool:
    """Coefficients rise (weakly) then fall (weakly)."""
    cs = p.coeffs
    i = 0
    while i + 1 < len(cs) and cs[i] <= cs[i + 1]:
        i += 1
    while i + 1 < len(cs) and cs[i] >= cs[i + 1]:
        i += 1
    return i >= len(cs) - 1


# ---------------------------------------------------------------- QPoly core


def test_zero_and_trim():
    assert QPoly(()).coeffs == ()
    assert QPoly((0, 0, 0)) == QPoly(())
    assert QPoly((1, 2, 0, 0)).coeffs == (1, 2)
    # a value: equality, hash and repr go by the trimmed coefficients
    p = QPoly([1, 2, 0])
    assert p == QPoly((1, 2)) and hash(p) == hash(QPoly((1, 2)))
    assert p != QPoly((1, 2, 1)) and p != (1, 2)
    assert repr(p) == "QPoly(coeffs=(1, 2))"
    with pytest.raises(AttributeError):
        p.coeffs = (3,)
    with pytest.raises(AttributeError):
        del p.coeffs
    assert p.coeffs == (1, 2)
    # fold(m) sums the coefficients by exponent mod m; it is kept on the
    # instance, once per m, and is no field: ==, hash and repr ignore it
    q, fresh = QPoly(range(-3, 10)), QPoly(range(-3, 10))
    for m in (1, 2, 3, 5, 12, 13, 20):
        assert q.fold(m) == tuple(sum(q.coeffs[t::m]) for t in range(m)), m
        assert q.fold(m) is q.fold(m)
    assert sorted(q._folds) == [1, 2, 3, 5, 12, 13, 20] and fresh._folds is None
    assert q == fresh and hash(q) == hash(fresh) and repr(q) == repr(fresh)
    assert QPoly(()).fold(3) == (0, 0, 0)


# what `qpoly --pretty` prints: signs, unit coefficients and skipped zero
# terms
@pytest.mark.parametrize("coeffs, text", [
    ((), "0"),
    ((-1,), "-1"),
    ((1, 1), "1 + q"),
    ((2, -2), "2 - 2*q"),
    ((0, -1, 0, 2, -3), "-q + 2*q^3 - 3*q^4"),
    ((0, 0, 1), "q^2"),
])
def test_pretty(coeffs, text):
    assert QPoly(coeffs).pretty() == text


coeff_lists = st.lists(st.integers(-30, 30), min_size=0, max_size=12)
wide_coeffs = st.one_of(
    st.integers(-30, 30),
    st.integers(-(10**30), 10**30),
    st.integers(10**30 - 5, 10**30 + 5),
    st.integers(-(10**30) - 5, -(10**30) + 5),
)
wide_lists = st.lists(wide_coeffs, min_size=0, max_size=40)


@given(wide_lists, st.integers(1, 25))
def test_run_divides_what_it_multiplies(a, m):
    # the ratio [a]_q / [b]_q of two q-integers is the two sweeps a, -b
    p = QPoly(tuple(a))
    prod = qp._run(p.coeffs, [m, -1])
    assert QPoly(prod) == _schoolbook_mul(p.coeffs, (1,) * m)
    assert QPoly(qp._run(prod, [1, -m])) == p


@given(wide_lists, st.integers(0, 25), st.integers(1, 25))
def test_run_matches_product(a, top, b):
    # the sweeps top, -b on P [b]_q give the schoolbook product P [top]_q
    pb = _schoolbook_mul(a, (1,) * b)
    assert QPoly(qp._run(pb.coeffs, [top, -b])) == _schoolbook_mul(a, (1,) * top)


@given(st.lists(st.integers(-30, 30), min_size=1, max_size=20), st.integers(2, 25),
       st.integers(0, 50), st.integers(-5, 5).filter(bool), st.integers(0, 30))
def test_run_rejects_perturbation(a, m, pos, delta, top):
    prod = qp._run(a, [m, -1])
    prod += [0] * (pos + 1 - len(prod))
    prod[pos] += delta
    with pytest.raises(ExactDivisionError):
        qp._run(prod, [1, -m])
    # P [top]_q / [m]_q is exact whenever m divides top, since [m]_q then
    # divides [top]_q; otherwise the perturbation leaves a remainder
    if top % m:
        with pytest.raises(ExactDivisionError):
            qp._run(prod, [top, -m])
    else:
        ratio = _ref_exact_div(QPoly((1,) * top), QPoly((1,) * m))
        assert QPoly(qp._run(prod, [top, -m])) == _schoolbook_mul(prod, ratio.coeffs)


@given(wide_lists, st.integers(0, 14), st.integers(-2, 16))
def test_times_q_binomial_matches_product(a, top, b):
    # any start polynomial, not only [1]: the binomial's sweeps must divide
    # exactly whatever they are run from, and give zero outside 0 <= b <= top
    p = QPoly(tuple(a))
    assert QPoly(qp._run(p.coeffs, qp._binomial_passes(top, b))) == _schoolbook_mul(
        p.coeffs, _ref_q_binomial(top, b).coeffs)


def test_binomial_ladder_interleaves_its_sweeps():
    # each division by [i]_q follows the multiplication by [a-b+i]_q, so
    # the i-th division leaves [a-b+i choose i]_q, no larger than the
    # answer; all multiplications first would give the same answer through
    # larger partial products
    for a in range(25):
        for b in range(a + 1):
            low = min(b, a - b)
            cs, i = [1], 0
            for s in qp._binomial_passes(a, b):
                cs = qp._run(cs, [s])
                if s < 0:
                    i += 1
                    assert QPoly(cs) == _ref_q_binomial(a - low + i, i), (a, b, i)
            assert i == low and QPoly(cs) == _ref_q_binomial(a, b), (a, b)


def test_run_edges():
    assert qp._run([], [1, -4]) == []
    assert QPoly(qp._run([], [5, -2])) == QPoly(())
    assert qp._run([3, 0, -2], [1, -1]) == [3, 0, -2]
    assert qp._run([1, 1], [2, -2]) == [1, 1]
    with pytest.raises(ExactDivisionError):
        qp._run([1, 1], [1, -3])  # nonzero and of degree below that of [3]_q
    with pytest.raises(ExactDivisionError):
        qp._run([1], [2, -4])  # degree 1 times [2]_q, still below [4]_q
    # one sweep alone, or none
    assert qp._run([1, 1], [2]) == [1, 1, -1, -1]
    assert qp._run([1, 1, -1, -1], [-2]) == [1, 1]
    assert qp._run((3, 0, -2), []) == [3, 0, -2]
    with pytest.raises(ExactDivisionError):
        qp._run([1, 1], [-1])  # 1 + q is not a multiple of 1 - q


@given(wide_lists, st.booleans(), st.integers(1, 3), st.integers(1, 25))
def test_division_by_one_minus_q_to_the_b_matches_long_division(a, exact, t, b):
    # a neighbour step divides P (1 - q)^t by 1 - q^b, t = 3, 2, 1, since the
    # q-integers it multiplies in keep their (1 - q) factors. [b]_q is prime
    # to 1 - q, so that is exact exactly when [b]_q divides P, and the
    # quotient is (1 - q)^(t-1) times P / [b]_q
    p = _schoolbook_mul(a, (1,) * b) if exact else QPoly(tuple(a))
    x = p
    for _ in range(t):
        x = _schoolbook_mul(x.coeffs, (1, -1))
    quot, rem = _ref_divmod(p, QPoly((1,) * b))
    if rem.coeffs:
        with pytest.raises(ExactDivisionError):
            qp._run(x.coeffs, [-b])
        return
    for _ in range(t - 1):
        quot = _schoolbook_mul(quot.coeffs, (1, -1))
    assert QPoly(qp._run(x.coeffs, [-b])) == quot


@given(st.lists(st.integers(-(10**6), 10**6), max_size=60), st.integers(1, 12),
       st.lists(st.integers(-50, 50), min_size=12, max_size=12))
def test_folded_residue_matches_long_division(a, d, v):
    # a: any polynomial. fixed: a with its fold modulo q^d - 1 moved onto
    # the class function s -> v[gcd(s, d)], so its value at every root of
    # order dividing d is an integer, which the fold and Moebius sum must
    # give as the reference remainder
    fixed = list(a) + [0] * d
    for s in range(d):
        fixed[s] += v[gcd(s, d) - 1] - sum(fixed[s::d])
    fixed = QPoly(fixed)
    assert QPoly((_poly_eval_of(fixed, d),)) == _ref_residue(fixed, d)
    # a itself: a value is the reference remainder; a remainder that is not
    # a constant is not an integer, so poly_eval must refuse it
    rem = _ref_residue(QPoly(a), d)
    try:
        got = QPoly((_poly_eval_of(QPoly(a), d),))
    except ValueError:
        got = None  # not an integer at some root of order dividing d
    if got is not None:
        assert got == rem
    if len(rem.coeffs) > 1:
        assert got is None


@given(coeff_lists, coeff_lists)
def test_divmod_reconstructs(a, b):
    pa, pb = QPoly(tuple(a)), QPoly(tuple(b))
    if not pb.coeffs:
        with pytest.raises(ZeroDivisionError):
            _ref_divmod(pa, pb)
        return
    try:
        quot, rem = _ref_divmod(pa, pb)
    except ExactDivisionError:
        return
    rest = QPoly([x - r for x, r in zip_longest(pa.coeffs, rem.coeffs, fillvalue=0)])
    assert _schoolbook_mul(quot.coeffs, pb.coeffs) == rest
    assert len(rem.coeffs) < len(pb.coeffs)


@given(coeff_lists, coeff_lists)
def test_product_then_exact_div(a, b):
    pa, pb = QPoly(tuple(a)), QPoly(tuple(b))
    if not pb.coeffs:
        return
    assert _ref_exact_div(_schoolbook_mul(a, b), pb) == pa


def test_exact_div_rejects_remainder():
    with pytest.raises(ExactDivisionError):
        _ref_exact_div(QPoly((1, 1, 1)), QPoly((1, 1)))


# ------------------------------------------------------- q-integer ladder


def test_q_int_values():
    # [a]_q is the two sweeps a, -1 from 1; [0]_q is the one sweep 0
    assert QPoly(qp._run([1], [0])) == QPoly(())
    assert qp._run([1], [1, -1]) == [1]
    assert qp._run([1], [4, -1]) == [1, 1, 1, 1]
    assert qp._run([1], [3, -1, 2, -1]) == [1, 2, 2, 1]
    assert qp._run([1], [6, -3]) == [1, 0, 0, 1]  # [6]_q / [3]_q = 1 + q^3


def test_q_int_telescopes():
    # (q - 1) [a]_q == q^a - 1
    for a in range(1, 15):
        lhs = QPoly(qp._run([-1, 1], [a, -1]))
        rhs = QPoly(tuple([-1] + [0] * (a - 1) + [1]))
        assert lhs == rhs


_RUN = qp._run


def _recording_step(monkeypatch, at=None):
    """Patch _run with a stand-in for the real runner that records each
    sweep list it is handed. For sweep number at, counted over all the
    lists in turn, it runs the sweeps before it, adds 1 to the constant
    term, and runs that sweep alone, which must raise."""
    calls = []

    def run(cs, sweeps):
        i = -1 if at is None else at - sum(map(len, calls))
        calls.append(list(sweeps))
        if not 0 <= i < len(sweeps):
            return _RUN(cs, sweeps)
        cs = _RUN(cs, sweeps[:i])
        _RUN([cs[0] + 1, *cs[1:]], sweeps[i:i + 1])
        raise AssertionError(f"sweep {at}, {sweeps[i]}, took a perturbed input")

    monkeypatch.setattr(qp, "_run", run)
    return calls


def _forest_6(k, near=None):
    """forest_count_poly(6, k) with only its neighbour f(6, near) cached, or
    with nothing cached, so that it starts from [6 choose k-1]_q."""
    forest_count_poly.cache_clear()
    if near is not None:
        qp._FOREST_POLYS[6, near] = _ref_forest_count_poly(6, near)
    return forest_count_poly(6, k)


# every sweep of the runs each start takes, in order. f(6, 2) from nothing:
# the ladder of [6 choose 1]_q, then that of [13 choose 4]_q and [10]_q
# divided out as 1, -10, each ratio of q-integers two sweeps. f(6, 2) from
# f(6, 3) and f(6, 3) from f(6, 2): three q-integers multiplied in as
# 1 - q^a, then three divided out as 1 - q^b, the (1 - q) factors
# cancelling
KERNEL_STEPS = {
    "forest": [6, -1, 10, -1, 11, -2, 12, -3, 13, -4, 1, -10],
    "forest-down": [2, 13, 12, -5, -4, -10],
    "forest-up": [5, 4, 10, -2, -13, -12],
}
KERNEL_CALLS = {
    "forest": lambda: _forest_6(2),
    "forest-down": lambda: _forest_6(2, 3),
    "forest-up": lambda: _forest_6(3, 2),
}


def test_forest_passes_are_the_kernel_steps():
    assert qp._forest_passes(6, 2, 3) == KERNEL_STEPS["forest-down"]
    assert qp._forest_passes(6, 3, 2) == KERNEL_STEPS["forest-up"]
    assert qp._forest_passes(6, 2, None) == KERNEL_STEPS["forest"][2:]


@pytest.mark.parametrize("what", sorted(KERNEL_STEPS))
def test_every_step_is_a_checked_kernel_pass(monkeypatch, what):
    calls = _recording_step(monkeypatch)
    KERNEL_CALLS[what]()
    assert [s for run in calls for s in run] == KERNEL_STEPS[what]
    assert len(calls) == (2 if what == "forest" else 1)
    # the input of every division sweep is a multiple of 1 - q, so with a
    # unit added it is 1 at q = 1, where 1 - q^b is 0: it leaves a
    # remainder, which that very sweep reports and the caller lets surface.
    # Every division is probed: six in the cold start's two runs, three in
    # a step's one
    divisions = [at for at, s in enumerate(KERNEL_STEPS[what]) if s < 0]
    assert len(divisions) == (6 if what == "forest" else 3)
    for at in divisions:
        _recording_step(monkeypatch, at)
        with pytest.raises(ExactDivisionError):
            KERNEL_CALLS[what]()


def test_forest_count_poly_rejects_a_negative_coefficient(monkeypatch):
    # nothing is cached, so forest_count_poly(6, 2) starts from
    # [6 choose 1]_q, and the result of its ladder is negated here
    def negated_ladder(cs, sweeps):
        out = _RUN(cs, sweeps)
        if sweeps[-2:] == [1, -10]:
            out[0] = -out[0]
        return out

    monkeypatch.setattr(qp, "_run", negated_ladder)
    with pytest.raises(ArithmeticError, match="negative coefficient"):
        _forest_6(2)
    assert (6, 2) not in qp._FOREST_POLYS


@pytest.mark.parametrize("k, near", [(2, 3), (3, 2)])
def test_forest_step_rejects_a_negative_coefficient(monkeypatch, k, near):
    # the neighbour is cached, so forest_count_poly(6, k) starts from it,
    # and the result of its one run of six sweeps is negated here
    forest_count_poly.cache_clear()
    forest_count_poly(6, near)
    calls = []

    def negated_step(cs, sweeps):
        calls.append(list(sweeps))
        out = _RUN(cs, sweeps)
        out[0] = -out[0]
        return out

    monkeypatch.setattr(qp, "_run", negated_step)
    with pytest.raises(ArithmeticError, match="negative coefficient"):
        forest_count_poly(6, k)
    assert calls == [KERNEL_STEPS["forest-down" if near > k else "forest-up"]]
    assert (6, k) not in qp._FOREST_POLYS


@pytest.mark.parametrize("n", range(1, 41))
def test_forest_step_matches_the_ladder(n):
    # both starts of every cell: [n choose k-1]_q with the ladder, and each
    # neighbour with its six sweeps
    ladder = [None] + [qp._run(q_binomial(n, k - 1).coeffs, qp._forest_passes(n, k, None))
                       for k in range(1, n + 1)]
    for k in range(1, n + 1):
        if k < n:
            assert qp._run(ladder[k + 1], qp._forest_passes(n, k, k + 1)) == ladder[k], k
        if k > 1:
            assert qp._run(ladder[k - 1], qp._forest_passes(n, k, k - 1)) == ladder[k], k


def _sweeps(calls):
    """The number of coefficient sweeps in the sweep lists of calls."""
    return sum(map(len, calls))


def test_forest_sweep_takes_one_step_per_cell(monkeypatch):
    # a count of runs and sweeps, not a timing: the ladder's 80 sweeps at
    # k = 1, [40 choose 0]_q taking none, then one run of six sweeps per
    # step (a fresh ladder per cell would take 2440 sweeps)
    forest_count_poly.cache_clear()
    calls = _recording_step(monkeypatch)
    forest_count_poly(40, 1)
    assert len(calls) == 2 and _sweeps(calls) == 80
    for k in range(2, 41):
        forest_count_poly(40, k)
    assert calls[2:] == [qp._forest_passes(40, k, k - 1) for k in range(2, 41)]
    assert _sweeps(calls) == 80 + 6 * 39


def _ladder(n, k):
    """f(n, k) by its ladder from [n choose k-1]_q, with no cache, as
    test_forest_step_matches_the_ladder pins it."""
    return QPoly(qp._run(q_binomial(n, k - 1).coeffs, qp._forest_passes(n, k, None)))


def _forest_from(monkeypatch, n, k, cached):
    """forest_count_poly(n, k) with only the cells f(n, j), j in cached, in
    the cache, and the sweep lists it runs."""
    forest_count_poly.cache_clear()
    for j in cached:
        qp._FOREST_POLYS[n, j] = _ladder(n, j)
    calls = _recording_step(monkeypatch)
    return forest_count_poly(n, k), calls


def test_forest_count_poly_steps_from_the_nearest_cached_cell(monkeypatch):
    # counts of runs and sweeps, not timings. From f(40, 1), f(40, 3) is
    # two steps of six sweeps, not its ladder of 80 sweeps ([40 choose 2]_q,
    # then 76); f(40, 2) is built on the way, and stays cached
    f, calls = _forest_from(monkeypatch, 40, 3, [1])
    assert calls == [qp._forest_passes(40, 2, 1), qp._forest_passes(40, 3, 2)]
    assert _sweeps(calls) == 12
    assert f == _ladder(40, 3)
    assert len(qp._binomial_passes(40, 2) + qp._forest_passes(40, 3, None)) == 80
    assert sorted(qp._FOREST_POLYS) == [(40, 1), (40, 2), (40, 3)]
    assert qp._FOREST_POLYS[40, 2] == _ladder(40, 2)
    # the nearest cached cell is the start, whichever side it is on
    f, calls = _forest_from(monkeypatch, 40, 4, [1, 6])
    assert calls == [qp._forest_passes(40, 5, 6), qp._forest_passes(40, 4, 5)]
    assert f == _ladder(40, 4)
    assert sorted(qp._FOREST_POLYS) == [(40, 1), (40, 4), (40, 5), (40, 6)]
    # however far: from f(100, 1), f(100, 60) is 59 steps, 354 sweeps,
    # though its ladder of 164 sweeps would write fewer coefficients, and
    # every cell between is cached
    f, calls = _forest_from(monkeypatch, 100, 60, [1])
    assert calls == [qp._forest_passes(100, i, i - 1) for i in range(2, 61)]
    assert len(calls) == 59 and _sweeps(calls) == 354
    assert sorted(qp._FOREST_POLYS) == [(100, k) for k in range(1, 61)]
    assert f == _ladder(100, 60)


def test_forest_count_poly_checks_before_the_cache():
    # each bad pair equals the key of a cached cell, so only the check
    # refuses it
    for cell, bads in (((2, 1), [(2.0, 1), (2, True)]), ((1, 1), [(True, 1)])):
        forest_count_poly(*cell)
        assert cell in qp._FOREST_POLYS
        for bad in bads:
            with pytest.raises(ValueError):
                forest_count_poly(*bad)


def test_forest_count_poly_cache_is_bounded():
    # the table holds the cells of the last n asked, and the first cell
    # built for another n empties it
    forest_count_poly.cache_clear()
    for n in range(1, 21):
        for k in range(1, n + 1):
            forest_count_poly(n, k)
    assert sorted(qp._FOREST_POLYS) == [(20, k) for k in range(1, 21)]
    forest_count_poly(21, 5)
    assert list(qp._FOREST_POLYS) == [(21, 5)]


@lru_cache(maxsize=None)
def _pascal_q_binomial(a: int, b: int) -> tuple[int, ...]:
    """[a choose b]_q by the q-Pascal rule
    [a choose b]_q = [a-1 choose b-1]_q + q^b [a-1 choose b]_q."""
    if b < 0 or b > a:
        return ()
    if b in (0, a):
        return (1,)
    out = [*_pascal_q_binomial(a - 1, b - 1), *[0] * (a - b)]
    for i, c in enumerate(_pascal_q_binomial(a - 1, b)):
        out[i + b] += c
    return tuple(out)


@lru_cache(maxsize=None)
def _pascal_forest_count_poly(n: int, k: int) -> QPoly:
    """f(n, k) from the q-Pascal binomials, their schoolbook product and a
    long division by [2n-k]_q: none of the package's sweeps."""
    num = _schoolbook_mul(_pascal_q_binomial(n, k - 1),
                          _pascal_q_binomial(3 * n - 2 * k - 1, n - k))
    quot, rem = _ref_divmod(num, QPoly((1,) * (2 * n - k)))
    assert not rem.coeffs
    return quot


TABLE_MAX_N = 40


class PolyTable(RuleBasedStateMachine):
    """forest_count_poly and cache_clear() in any order. After each call
    the answer is the reference, the table holds one run of consecutive k
    of one n with the k asked in it, and _build ran once for a cold n, or
    else once per cell between k and the nearest cached cell."""

    def __init__(self):
        super().__init__()
        forest_count_poly.cache_clear()
        self.build = patch.object(qp, "_build", wraps=qp._build)
        self.builds = self.build.start()
        self.asked = None

    def teardown(self):
        self.build.stop()
        forest_count_poly.cache_clear()

    @rule(data=st.data())
    def ask(self, data):
        # the n of the table half the time, so that the start rule is met
        ns = st.integers(1, TABLE_MAX_N)
        if qp._FOREST_POLYS:
            ns = st.sampled_from([next(iter(qp._FOREST_POLYS))[0]]) | ns
        n = data.draw(ns, label="n")
        k = data.draw(st.integers(1, n), label="k")
        cached = [j for m, j in qp._FOREST_POLYS if m == n]
        steps = min((abs(k - j) for j in cached), default=1)
        self.builds.reset_mock()
        assert forest_count_poly(n, k) == _pascal_forest_count_poly(n, k)
        assert self.builds.call_count == steps
        self.asked = n, k

    @rule()
    def clear(self):
        forest_count_poly.cache_clear()
        self.asked = None

    @invariant()
    def one_run_of_one_n(self):
        cells = sorted(qp._FOREST_POLYS)
        if self.asked is None:
            assert cells == []
            return
        n, k = self.asked
        ks = [j for _, j in cells]
        assert cells == [(n, j) for j in range(ks[0], ks[-1] + 1)]
        assert k in ks


def test_poly_table_under_any_call_order():
    run_state_machine_as_test(PolyTable, settings=settings(
        max_examples=12, stateful_step_count=12, derandomize=True, database=None,
        deadline=None))


def _partitions_in_box(rows: int, cols: int) -> list[int]:
    """Coefficient list of the generating function of partitions with at
    most `rows` parts, each part at most `cols`. Independent oracle for
    q_binomial(rows + cols, rows)."""
    counts = [0] * (rows * cols + 1)
    stack = [(0, cols, 0)]  # (parts used, bound on next part, running sum)
    while stack:
        used, bound, total = stack.pop()
        counts[total] += 1
        if used == rows:
            continue
        for part in range(1, bound + 1):
            stack.append((used + 1, part, total + part))
    return counts


@pytest.mark.parametrize("a", range(0, 13))
def test_q_binomial_counts_partitions_in_box(a):
    for b in range(0, a + 1):
        expect = _partitions_in_box(b, a - b)
        got = list(q_binomial(a, b).coeffs)
        got += [0] * (len(expect) - len(got))
        assert got == expect, (a, b)


def test_q_binomial_edge_cases():
    assert q_binomial(5, -1) == QPoly(())
    assert q_binomial(5, 6) == QPoly(())
    assert q_binomial(0, 0).coeffs == (1,)
    assert q_binomial(4, 2).coeffs == (1, 1, 2, 1, 1)


def test_q_binomial_specializes_to_binomial():
    for a in range(13):
        for b in range(a + 1):
            assert sum(q_binomial(a, b).coeffs) == comb(a, b)


def test_q_binomial_symmetric_unimodal():
    for a in range(12):
        for b in range(a + 1):
            p = q_binomial(a, b)
            assert is_symmetric(p)
            assert is_unimodal(p)


# --------------------------------------------------- reference cyclotomics


def test_cyclotomic_frozen():
    assert _ref_cyclotomic(1).coeffs == (-1, 1)
    assert _ref_cyclotomic(2).coeffs == (1, 1)
    assert _ref_cyclotomic(4).coeffs == (1, 0, 1)
    assert _ref_cyclotomic(6).coeffs == (1, -1, 1)
    assert _ref_cyclotomic(12).coeffs == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("m", range(1, 61))
def test_cyclotomic_product_identity(m):
    prod = QPoly((1,))
    for e in range(1, m + 1):
        if m % e == 0:
            prod = _schoolbook_mul(prod.coeffs, _ref_cyclotomic(e).coeffs)
    expect = QPoly(tuple([-1] + [0] * (m - 1) + [1]))
    assert prod == expect


def test_cyclotomic_degree_is_totient():
    def totient(m):
        return sum(1 for i in range(1, m + 1) if math.gcd(i, m) == 1)

    for m in range(1, 40):
        assert len(_ref_cyclotomic(m).coeffs) - 1 == totient(m)


@pytest.mark.parametrize("fn, args", [
    (sieving.poly_eval, (4, 2, True)),
    (sieving.poly_eval, (4, 2, 2.0)),
    (sieving.poly_eval, (True, 1, 1)),
    (q_binomial, (True, True)),
    (q_binomial, (2.5, 1)),
    (q_binomial, (4, 2.0)),
])
def test_rejects_bools_and_non_ints(fn, args):
    # the ints cached first: a cache keyed on 1 == True must not answer True
    assert forest_count_poly(1, 1) == QPoly((1,))
    with pytest.raises(ValueError):
        fn(*args)


# ------------------------------------------------- values at roots of unity


def test_residue_reduces():
    # q^2 is -1 at a primitive 4-th root, and q^6 folds to it; q^5 folds
    # to q, which is no integer there
    assert _poly_eval_of(QPoly((0, 0, 1)), 4) == -1
    assert _poly_eval_of(QPoly((0, 0, 0, 0, 0, 0, 1)), 4) == -1
    assert _poly_eval_of(QPoly(()), 3) == 0
    with pytest.raises(ValueError, match=r"q\^3 has coefficient 0 and q\^1"):
        _poly_eval_of(QPoly((0, 0, 0, 0, 0, 1)), 4)


def test_residue_as_integer_rejects_nonconstant(monkeypatch):
    # q is i at a primitive 4-th root of unity, no integer: the poly route
    # refuses it
    monkeypatch.setattr(sieving, "forest_count_poly", lambda n, k: QPoly((0, 1)))
    assert _ref_residue(QPoly((0, 1)), 4) == QPoly((0, 1))
    with pytest.raises(ValueError, match="primitive 4-th root of unity is not an integer"):
        sieving.poly_eval(4, 2, 4)


def test_poly_eval_refuses_a_fold_that_is_no_class_function(monkeypatch):
    # q - q^2 is 1 at a primitive 6-th root of unity but i sqrt(3) at a
    # primitive cube root: folded modulo q^6 - 1, q^4 and q^2 differ though
    # gcd(4, 6) = gcd(2, 6), so no count of fixed points gives it
    p = QPoly((0, 1, -1))
    assert _ref_residue(p, 6) == QPoly((1,))
    assert len(_ref_residue(p, 3).coeffs) == 2
    monkeypatch.setattr(sieving, "forest_count_poly", lambda n, k: p)
    for k in range(1, 7):
        with pytest.raises(ValueError) as err:
            sieving.poly_eval(6, k, 6)
        assert str(err.value) == (
            "value at a primitive 6-th root of unity is not an integer: modulo "
            "q^6 - 1, q^4 has coefficient 0 and q^2, with gcd(4, 6) = 2, has -1")


def test_poly_eval_is_the_reference_remainder():
    # every cell with n <= 30: the fold and Moebius sum give the remainder
    # of f(n, k; q) modulo the d-th cyclotomic, by long division
    cells = 0
    for n in range(1, 31):
        for k in range(1, n + 1):
            f = forest_count_poly(n, k)
            for d in range(1, n + 1):
                if n % d == 0:
                    assert QPoly((sieving.poly_eval(n, k, d),)) == _ref_residue(f, d), (n, k, d)
                    cells += 1
    assert cells == 1949


def test_poly_eval_folds_the_polynomial_it_is_given():
    # the fold lives on the polynomial, not in a table keyed by (n, k): a
    # warm cell's fold does not answer for a patched polynomial of the
    # same cell, and emptying the cache drops the folds with it
    forest_count_poly.cache_clear()
    assert sieving.poly_eval(6, 2, 3) == 0
    p = forest_count_poly(6, 2)
    assert p._folds == {6: p.fold(6)}
    with patch.object(sieving, "forest_count_poly", lambda n, k: QPoly((5,))):
        assert sieving.poly_eval(6, 2, 3) == 5
    assert sieving.poly_eval(6, 2, 3) == 0
    gone = weakref.ref(p)
    del p
    forest_count_poly.cache_clear()
    assert gone() is None
    assert forest_count_poly(6, 2)._folds is None


def test_poly_eval_rejects_d_below_1():
    # checked before the fold, which would divide by d
    for d in (0, -4):
        with pytest.raises(ValueError, match="must be a divisor"):
            sieving.poly_eval(4, 2, d)


def test_poly_eval_frozen():
    assert sieving.poly_eval(3, 1, 3) == 0
    assert _poly_eval_of(q_binomial(4, 2), 2) == 2
    # d = 1 means q = 1, i.e. plain counting
    assert sieving.poly_eval(4, 2, 1) == 14


# ----------------------------------------------------------------- q-Lucas


def test_ref_residue_of_q_binomial_is_q_lucas():
    # [a choose b]_q at a primitive d-th root: C(a//d, b//d) times
    # [a mod d choose b mod d]_q there
    assert _ref_residue(q_binomial(4, 2), 2) == QPoly((2,))
    assert _ref_residue(q_binomial(5, 3), 3) == QPoly((1,))
    assert _ref_residue(q_binomial(7, 3), 3) == QPoly((2,))


def test_poly_eval_of_q_binomial_is_q_lucas():
    # [a choose b]_q is a sieving polynomial for the b-subsets of Z/a, so
    # at every d dividing a the poly route evaluates it, and q-Lucas gives
    # C(a/d, b/d) when d divides b, else 0 ([0 choose b mod d]_q = 0)
    for a in range(1, 16):
        for b in range(0, a + 1):
            for d in range(2, a + 1):
                if a % d == 0:
                    lucas = comb(a // d, b // d) if b % d == 0 else 0
                    assert _poly_eval_of(q_binomial(a, b), d) == lucas, (a, b, d)


def test_q_int_unit_value():
    # [a]_q at a primitive d-th root equals 1 when a % d == 1, d >= 2
    for d in range(2, 12):
        for a in range(1, 40):
            if a % d == 1:
                assert _poly_eval_of(QPoly((1,) * a), d) == 1, (a, d)


# ------------------------------------------------------------ forest counts


def test_forest_count_frozen():
    assert forest_count(1, 1) == 1
    assert forest_count(2, 1) == 1
    assert forest_count(3, 2) == 3
    assert forest_count(4, 1) == 12
    assert forest_count(4, 2) == 14
    assert forest_count(5, 1) == 55
    assert [forest_count(6, k) for k in range(1, 7)] == [273, 429, 275, 90, 15, 1]
    assert forest_count(12, 7) == 1106028


@pytest.mark.parametrize("a", range(0, 30))
def test_q_binomial_matches_factorial_quotient(a):
    for b in range(0, a + 1):
        assert q_binomial(a, b) == _ref_q_binomial(a, b), (a, b)


@pytest.mark.parametrize("n", range(1, 17))
def test_forest_count_poly_matches_reference(n):
    for k in range(1, n + 1):
        assert forest_count_poly(n, k) == _ref_forest_count_poly(n, k), (n, k)


@pytest.mark.parametrize("k", (1, 20, 40, 60))
def test_forest_count_poly_n60(k):
    p = forest_count_poly(60, k)
    assert sum(p.coeffs) == forest_count(60, k)
    assert is_symmetric(p)


def test_forest_count_poly_frozen():
    assert forest_count_poly(2, 1).coeffs == (1,)
    assert forest_count_poly(3, 1).coeffs == (1, 0, 1, 0, 1)
    for n in range(1, 9):
        assert forest_count_poly(n, n).coeffs == (1,)


# sha256 over the lines f"{n} {k} {coeffs}\n" of forest_count_poly for every
# cell with n <= 40 in (n, k) order, then k = 1, 34, 67, 99 at n = 100: the
# kernel's outputs as they stood before each ladder step was fused into one
# pass, pinned up to the poly route's bound
FOREST_POLY_CELLS = [(n, k) for n in range(1, 41) for k in range(1, n + 1)] + [
    (100, k) for k in (1, 34, 67, 99)]
FOREST_POLY_DIGEST = "5b9bf0eb0e6cd02234a87d1016af122353577ad437171994dfe9ac515a154341"


def test_forest_count_poly_matches_the_frozen_digest():
    h = hashlib.sha256()
    for n, k in FOREST_POLY_CELLS:
        h.update(f"{n} {k} {forest_count_poly(n, k).coeffs}\n".encode())
    assert (len(FOREST_POLY_CELLS), h.hexdigest()) == (824, FOREST_POLY_DIGEST)


def test_forest_count_poly_matches_the_digest_in_any_order():
    # shuffled across n, nearly every cell starts from its ladder, since
    # the table keeps one n; shuffled within each n, a cell meets its
    # neighbours cached from above, from below or not at all. Every path
    # must give the frozen polynomials
    rng = random.Random(22)
    across = rng.sample(FOREST_POLY_CELLS, len(FOREST_POLY_CELLS))
    within = sorted(FOREST_POLY_CELLS, key=lambda cell: (cell[0], rng.random()))
    for order in (across, within):
        forest_count_poly.cache_clear()
        got = {cell: forest_count_poly(*cell).coeffs for cell in order}
        h = hashlib.sha256()
        for n, k in FOREST_POLY_CELLS:
            h.update(f"{n} {k} {got[n, k]}\n".encode())
        assert h.hexdigest() == FOREST_POLY_DIGEST, order[:3]


def test_forest_count_poly_specializes():
    for n in range(1, 13):
        for k in range(1, n + 1):
            assert sum(forest_count_poly(n, k).coeffs) == forest_count(n, k)


def test_forest_count_poly_nonnegative_and_divides():
    # the division by the q-integer [2n-k] must come out exact with
    # nonnegative coefficients; the constructor raises otherwise
    for n in range(1, 15):
        for k in range(1, n + 1):
            p = forest_count_poly(n, k)
            assert all(c >= 0 for c in p.coeffs)
            assert _schoolbook_mul((1,) * (2 * n - k), p.coeffs) == _schoolbook_mul(
                q_binomial(n, k - 1).coeffs, q_binomial(3 * n - 2 * k - 1, n - k).coeffs
            )


def test_forest_count_rejects_bad_args():
    for bad in ((0, 1), (3, 0), (3, 4), (-1, 1)):
        with pytest.raises(ValueError):
            forest_count(*bad)
        with pytest.raises(ValueError):
            forest_count_poly(*bad)


@pytest.mark.parametrize("n", range(1, 19))
def test_forest_count_poly_symmetric(n):
    # coefficient sequences of the count polynomials read the same backwards
    for k in range(1, n + 1):
        assert is_symmetric(forest_count_poly(n, k))
