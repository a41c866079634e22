"""Fixed-point counts along every route, plus the closed-form case split,
and the argument checks every public entry point shares."""

import json
import pickle
import time
from collections.abc import Iterator
from math import comb

import pytest

from ncfsieve.bijections import decompose_periodic, enumerate_images, tree_extents
from ncfsieve.enumeration import (
    count_forests,
    count_invariant,
    divisors,
    enumerate_forests,
    enumerate_invariant,
)
from ncfsieve.forest import NonCrossingForest
from ncfsieve.qpoly import forest_count, forest_count_poly
from ncfsieve.sieving import (
    ROUTES,
    CspRow,
    closed_form_eval,
    fixed_count_bijection,
    poly_eval,
    verify_csp,
)


def test_closed_form_frozen_values():
    assert closed_form_eval(4, 2, 2) == 2
    assert closed_form_eval(4, 1, 2) == 4
    assert closed_form_eval(4, 3, 2) == 2
    assert closed_form_eval(4, 2, 4) == 0
    assert closed_form_eval(3, 1, 3) == 0
    assert closed_form_eval(12, 7, 1) == 1106028
    for n in (1, 2, 5, 9):
        for d in (dd for dd in range(1, n + 1) if n % dd == 0):
            assert closed_form_eval(n, n, d) == 1


def test_closed_form_cases():
    # d | k: scaled count of the quotient
    assert closed_form_eval(8, 4, 2) == 3 * forest_count(4, 2)
    assert closed_form_eval(9, 3, 3) == 3 * forest_count(3, 1)
    # d = 2, odd k: the marked-object count 3n' - 2k' choose pattern
    assert closed_form_eval(6, 3, 2) == 15
    # neither: empty fixed set
    assert closed_form_eval(6, 2, 3) == 0
    assert closed_form_eval(8, 2, 8) == 0


def test_closed_form_validates_arguments():
    with pytest.raises(ValueError):
        closed_form_eval(6, 2, 4)  # d does not divide n
    with pytest.raises(ValueError):
        closed_form_eval(6, 7, 2)
    with pytest.raises(ValueError):
        closed_form_eval(0, 1, 1)


def test_poly_eval_matches_closed_form_everywhere():
    # no enumeration involved, so a wide grid is cheap
    for n in range(1, 13):
        for k in range(1, n + 1):
            for d in (dd for dd in range(1, n + 1) if n % dd == 0):
                assert poly_eval(n, k, d) == closed_form_eval(n, k, d), (n, k, d)


def test_poly_eval_matches_closed_form_n40():
    n = 40
    t0 = time.perf_counter()
    for k in range(1, n + 1):
        for d in (dd for dd in range(1, n + 1) if n % dd == 0):
            assert poly_eval(n, k, d) == closed_form_eval(n, k, d), (n, k, d)
    elapsed = time.perf_counter() - t0
    assert elapsed < 20.0, f"poly route at n = 40 took {elapsed:.1f}s"


@pytest.mark.parametrize("name", list(ROUTES))
def test_every_route_matches_closed_form(name):
    # A stream of distinct, d-invariant forests of F(n, k) as long as the
    # fixed set is that fixed set, so the streams of all routes agree too.
    route = ROUTES[name]
    for n in range(1, 9):
        for k in range(1, n + 1):
            for d in (dd for dd in divisors(n) if dd >= route.least_d):
                expected = closed_form_eval(n, k, d)
                assert route.count(n, k, d) == expected, (name, n, k, d)
                if route.stream is None:
                    continue
                forests = list(route.stream(n, k, d))
                assert len(forests) == expected, (name, n, k, d)
                assert len({f.edges for f in forests}) == expected
                for f in forests:
                    assert f.is_d_invariant(d) and len(f.edges) == n - k, (name, f)


def test_filter_stream_is_fast_at_12_6_2():
    # rotating, sorting and comparing each of the 4,441,668 forests of
    # F(12, 6) took 33.7 s (one core of a 2-core x86 machine)
    t0 = time.perf_counter()
    drained = sum(1 for _ in ROUTES["filter"].stream(12, 6, 2))
    elapsed = time.perf_counter() - t0
    assert drained == closed_form_eval(12, 6, 2) == 1100
    assert elapsed < 10.0, f"filter stream of (12, 6, 2) took {elapsed:.1f}s"


def test_fixed_count_bijection_rejects_identity_rotation():
    with pytest.raises(ValueError):
        fixed_count_bijection(6, 3, 1)


def test_verify_csp_frozen_4_2():
    rows = verify_csp(4, 2)
    by_d = {row.d: row.counts["filter"] for row in rows}
    assert by_d == {1: 14, 2: 2, 4: 0}
    assert all(row.agree for row in rows)


def test_verify_csp_frozen_6():
    rows = verify_csp(6)
    got = {(r.k, r.d): r.counts["filter"] for r in rows if r.d == 2}
    assert got == {(1, 2): 21, (2, 2): 9, (3, 2): 15, (4, 2): 6,
                   (5, 2): 3, (6, 2): 1}
    assert {r.counts["filter"] for r in rows if r.k == 6} == {1}
    assert all(r.agree for r in rows)


def test_verify_csp_row_shape():
    rows = verify_csp(6, 3)
    assert isinstance(rows, tuple)
    assert [row.d for row in rows] == [1, 2, 3, 6]
    for row in rows:
        assert isinstance(row, CspRow)
        assert row.n == 6 and row.k == 3
        assert row.agree
        if row.d == 1:
            assert list(row.counts) == ["filter", "poly", "closed"]
        else:
            assert list(row.counts) == list(ROUTES)
        assert len(set(row.counts.values())) == 1
        # immutable, and sent whole between the processes of verify --workers
        with pytest.raises(AttributeError):
            row.d = 1
        assert pickle.loads(pickle.dumps(row)) == row


def test_verify_csp_reads_every_route_through_routes(monkeypatch):
    # each column is its route's count of the cell, the filter route's
    # included: no batch entry point stands in for it
    sentinels = {name: object() for name in ROUTES}
    for name, route in ROUTES.items():
        monkeypatch.setitem(ROUTES, name, route._replace(
            count=lambda n, k, d, s=sentinels[name]: s))
    rows = verify_csp(6)
    assert len(rows) == 6 * len(divisors(6))
    for row in rows:
        assert row.counts, (row.k, row.d)
        for name, count in row.counts.items():
            assert count is sentinels[name], (row.k, row.d, name)


def test_verify_csp_runs_each_route_up_to_its_bound(monkeypatch):
    # past n = 12 only poly and closed admit n; past n = 100 fewer than two
    # routes do, one (closed) or none, and there is nothing to compare
    def unreachable(n, k, d):
        raise AssertionError(f"an enumerating route ran at n = {n}")

    for name in ("filter", "orbit", "bijection"):
        monkeypatch.setitem(ROUTES, name, ROUTES[name]._replace(count=unreachable))
    rows = verify_csp(13, 3)
    assert [row.d for row in rows] == [1, 13]
    for row in rows:
        assert list(row.counts) == ["poly", "closed"] and row.agree
    for n in (101, 5000):
        with pytest.raises(ValueError, match=f"^n = {n} exceeds"):
            verify_csp(n)


def test_report_json_layout():
    rows = [row.to_json_dict() for row in verify_csp(4, 2)]
    assert [r["d"] for r in rows] == [1, 2, 4]
    for r in rows:
        assert (r["n"], r["k"]) == (4, 2)
        keys = list(r)
        if r["d"] == 1:
            assert keys == ["n", "k", "d", "brute", "poly", "closed", "agree"]
        else:
            assert keys == ["n", "k", "d", "brute", "poly", "closed",
                            "bijection", "orbit", "agree"]
    json.dumps(rows)  # must be serializable as-is


def check_fixed_count_identity(np_: int, kp: int) -> bool:
    """The binomial identity behind the diameter count:
    C(n', k'-1) * C(3n'-2k', n'-k') == (3n'-2k') * |F(n', k')|."""
    lhs = comb(np_, kp - 1) * comb(3 * np_ - 2 * kp, np_ - kp)
    return lhs == (3 * np_ - 2 * kp) * forest_count(np_, kp)


def test_fixed_count_identity():
    assert check_fixed_count_identity(2, 1)
    assert check_fixed_count_identity(6, 3)
    for np_ in range(1, 21):
        for kp in range(1, np_ + 1):
            assert check_fixed_count_identity(np_, kp), (np_, kp)


def _consume(result):
    """Run a call to the point where it validates: streams check their
    arguments when the first item is asked for."""
    if isinstance(result, Iterator):
        next(result, None)


# Every public entry point that takes (n, k, d), (n, k) or n, by arity.
ENTRY_POINTS = [
    (fn.__name__, fn, 3)
    for fn in (enumerate_forests, enumerate_invariant, enumerate_images,
               closed_form_eval, poly_eval, count_forests, count_invariant,
               fixed_count_bijection)
] + [
    (f"ROUTES[{name!r}].{part}", getattr(route, part), 3)
    for name, route in ROUTES.items()
    for part in ("count", "stream")
    if getattr(route, part) is not None
] + [
    (fn.__name__, fn, 2)
    for fn in (enumerate_forests, count_forests, forest_count, forest_count_poly,
               verify_csp)
] + [("NonCrossingForest", NonCrossingForest, 1)]

# Entry points that take d with a forest on n = 6 vertices.
D_ENTRY_POINTS = [
    ("is_d_invariant", lambda f, d: f.is_d_invariant(d)),
    ("tree_extents", tree_extents),
    ("decompose_periodic", decompose_periodic),
]


def _bad_calls():
    for name, fn, arity in ENTRY_POINTS:
        for n in (0, True, 2.0):
            yield name, fn, (n, 1, 1)[:arity], "n must be a positive integer"
        if arity >= 2:
            for k in (0, 7):
                yield name, fn, (6, k, 1)[:arity], "k must satisfy 1 <= k <= n"
        if arity == 3:
            yield name, fn, (6, 2, 4), "d = 4 must be a divisor of n = 6"
    forest = NonCrossingForest(6, [(1, 4)])
    for name, fn in D_ENTRY_POINTS:
        yield name, fn, (forest, 4), "d = 4 must be a divisor of n = 6"


BAD_CALLS = list(_bad_calls())


@pytest.mark.parametrize(
    "fn, args, message",
    [call[1:] for call in BAD_CALLS],
    ids=[f"{call[0]}{call[2]!r}" for call in BAD_CALLS],
)
def test_entry_points_share_argument_checks(fn, args, message):
    with pytest.raises(ValueError, match=message):
        _consume(fn(*args))
