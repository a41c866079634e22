"""Fixed-point counts along every route, plus the closed-form case split."""

import json
import time

import pytest

from ncfsieve.qpoly import forest_count
from ncfsieve.sieving import (
    CspReport,
    CspRow,
    check_fixed_count_identity,
    closed_form_eval,
    fixed_count_bijection,
    fixed_count_brute,
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


def test_fixed_count_routes_agree_small():
    for n in range(1, 9):
        for k in range(1, n + 1):
            for d in (dd for dd in range(2, n + 1) if n % dd == 0):
                brute = fixed_count_brute(n, k, d)
                assert brute == closed_form_eval(n, k, d)
                assert brute == fixed_count_bijection(n, k, d)


def test_fixed_count_bijection_rejects_identity_rotation():
    with pytest.raises(ValueError):
        fixed_count_bijection(6, 3, 1)


def test_verify_csp_frozen_4_2():
    report = verify_csp(4, 2)
    by_d = {row.d: row.brute for row in report.rows}
    assert by_d == {1: 14, 2: 2, 4: 0}
    assert report.all_agree


def test_verify_csp_frozen_6():
    report = verify_csp(6)
    got = {(r.k, r.d): r.brute for r in report.rows if r.d == 2}
    assert got == {(1, 2): 21, (2, 2): 9, (3, 2): 15, (4, 2): 6,
                   (5, 2): 3, (6, 2): 1}
    assert {r.brute for r in report.rows if r.k == 6} == {1}
    assert report.all_agree


def test_verify_csp_row_shape():
    report = verify_csp(6, 3)
    assert isinstance(report, CspReport)
    for row in report.rows:
        assert isinstance(row, CspRow)
        assert row.n == 6 and row.k == 3
        assert row.agree
        assert row.brute == row.poly == row.closed
        if row.d == 1:
            assert row.bijection is None
        else:
            assert row.bijection == row.brute


def test_verify_csp_no_bijection_flag():
    report = verify_csp(6, 2, bijection=False)
    assert all(row.bijection is None for row in report.rows)
    assert report.all_agree


def test_report_json_layout():
    report = verify_csp(4, 2)
    doc = report.to_json_dict()
    assert doc["n"] == 4
    rows = doc["rows"]
    assert [r["d"] for r in rows] == [1, 2, 4]
    for r in rows:
        keys = list(r)
        assert keys[-1] == "agree"
        if r["d"] == 1:
            assert "bijection" not in r
        else:
            assert keys.index("bijection") < keys.index("agree")
    json.dumps(doc)  # must be serializable as-is


def test_fixed_count_identity():
    assert check_fixed_count_identity(2, 1)
    assert check_fixed_count_identity(6, 3)
    for np_ in range(1, 21):
        for kp in range(1, np_ + 1):
            assert check_fixed_count_identity(np_, kp), (np_, kp)
