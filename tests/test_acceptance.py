"""Acceptance gate.

Each test covers one acceptance criterion end to end at its stated size and
time budget and prints a single PASS line (visible with ``pytest -s`` or in
the captured-output section). Budgets are asserted, so a regression that
blows one up fails loudly instead of just getting slow.
"""

import math
import time

from ncfsieve.bijections import (
    all_marks,
    classify_vertices,
    construct_diameter,
    construct_periodic,
    decompose_diameter,
    decompose_periodic,
    _scan_window_start,
    tree_extents,
)
from ncfsieve.enumeration import count_forests, divisors, enumerate_forests, enumerate_invariant
from ncfsieve.qpoly import eval_at_root, forest_count, forest_count_poly, q_binomial, q_lucas
from ncfsieve.sieving import verify_csp
from window_oracle import raycast_window_start


def test_criterion_1_counts():
    t0 = time.perf_counter()
    for n in range(1, 11):
        for k in range(1, n + 1):
            assert count_forests(n, k) == forest_count(n, k), (n, k)
    assert count_forests(12, 7) == 1106028 == forest_count(12, 7)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"count sweep took {elapsed:.1f}s"
    print(f"\nPASS criterion 1: enumeration matches product formula for "
          f"all n<=10 and (12,7), {elapsed:.1f}s")


def test_criterion_2_csp_triple():
    t0 = time.perf_counter()
    cells = 0
    for n in range(1, 11):
        report = verify_csp(n)
        assert report.all_agree, [r for r in report.rows if not r.agree]
        cells += len(report.rows)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"CSP sweep took {elapsed:.1f}s"
    print(f"PASS criterion 2: root-of-unity evaluations equal fixed-point "
          f"counts on {cells} cells, n<=10, {elapsed:.1f}s")


def test_criterion_3_round_trips():
    t0 = time.perf_counter()
    big_checked = 0
    for n in range(2, 13):
        for k in range(1, n + 1):
            for d in (dd for dd in divisors(n) if dd >= 2):
                for big in enumerate_invariant(n, k, d):
                    if k % d == 0:
                        phi, v = decompose_periodic(big, d)
                        assert construct_periodic(phi, v, d) == big
                    else:
                        phi, mark = decompose_diameter(big)
                        assert construct_diameter(phi, mark) == big
                    big_checked += 1
    small_checked = 0
    for np_ in range(1, 7):
        for kp in range(1, np_ + 1):
            for phi in enumerate_forests(np_, kp):
                for d in (2, 3):
                    for v in classify_vertices(phi):
                        assert decompose_periodic(
                            construct_periodic(phi, v, d), d
                        ) == (phi, v)
                        small_checked += 1
                for mark in all_marks(phi):
                    assert decompose_diameter(
                        construct_diameter(phi, mark)
                    ) == (phi, mark)
                    small_checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"round trips took {elapsed:.1f}s"
    print(f"PASS criterion 3: round trips exact both ways "
          f"({big_checked} invariant forests n<=12, {small_checked} "
          f"constructions from n'<=6), {elapsed:.1f}s")


def test_criterion_4_polynomiality():
    t0 = time.perf_counter()
    for n in range(1, 15):
        for k in range(1, n + 1):
            p = forest_count_poly(n, k)  # raises if the division is inexact
            assert all(c >= 0 for c in p.coeffs), (n, k)
            assert p(1) == forest_count(n, k), (n, k)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"polynomiality sweep took {elapsed:.1f}s"
    print(f"PASS criterion 4: quotient polynomial exists with nonnegative "
          f"coefficients for all n<=14, {elapsed:.1f}s")


def test_criterion_5_q_lucas():
    t0 = time.perf_counter()
    cells = 0
    for d in range(2, 13):
        for a in range(0, 31):
            for b in range(0, a + 1):
                lhs = q_lucas(a, b, d)
                rhs = eval_at_root(q_binomial(a, b), d)
                assert lhs == rhs, (a, b, d)
                cells += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"q-Lucas sweep took {elapsed:.1f}s"
    print(f"PASS criterion 5: factored root evaluation matches direct "
          f"evaluation on {cells} binomial cells, {elapsed:.1f}s")


def test_criterion_6_identity():
    t0 = time.perf_counter()
    for np_ in range(1, 51):
        for kp in range(1, np_ + 1):
            lhs = math.comb(np_, kp - 1) * math.comb(3 * np_ - 2 * kp, np_ - kp)
            assert lhs == (3 * np_ - 2 * kp) * forest_count(np_, kp) or (
                3 * np_ - 2 * kp == 0 and lhs == 0
            )
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"identity sweep took {elapsed:.1f}s"
    print(f"PASS criterion 6: marked-count identity holds for all n'<=50, "
          f"{elapsed:.1f}s")


def test_criterion_7_structure():
    t0 = time.perf_counter()
    forests = 0
    for n in range(2, 13):
        for k in range(1, n + 1):
            for d in (dd for dd in divisors(n) if dd >= 2):
                for big in enumerate_invariant(n, k, d):
                    forests += 1
                    exts = tree_extents(big, d)
                    assert sum(len(e.vertices) for e in exts) == n
                    sm = [e for e in exts if e.self_mapped]
                    if d == 2 and k % 2 == 1:
                        assert len(sm) == 1
                        half = n // 2
                        diam = [e for e in big.edges if e[1] - e[0] == half]
                        assert len(diam) == 1
                        assert set(diam[0]) <= set(sm[0].vertices)
                    else:
                        assert not sm and k % d == 0
                        assert _scan_window_start(big, d) == raycast_window_start(big, d)
    elapsed = time.perf_counter() - t0
    assert elapsed < 15.0, f"orbit structure checks took {elapsed:.1f}s"
    print(f"PASS criterion 7: orbit structure of trees as expected on "
          f"{forests} invariant forests n<=12, {elapsed:.1f}s")
