"""Structural bijections: golden examples, exhaustive round trips, and the
lemmas the decompositions lean on.

The golden forests were traced by hand through the conventions (clockwise
labels, scan order 1, n, n-1, ..., 2) and are frozen here; any drift in a
convention breaks these before anything subtle does.
"""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncfsieve.bijections import (
    BijectionError,
    Mark,
    _handoff,
    _periodic_image,
    _scan_window_start,
    all_marks,
    classify_vertices,
    construct_diameter,
    construct_periodic,
    decompose_diameter,
    decompose_periodic,
    enumerate_images,
    tree_extents,
)
from ncfsieve.enumeration import divisors, enumerate_forests, enumerate_invariant
from ncfsieve.forest import NonCrossingForest
from window_oracle import raycast_window_start, signature_good_vertices

F12 = NonCrossingForest(12, [(1, 2), (1, 8), (3, 7), (4, 7), (9, 11)])
F24 = NonCrossingForest(
    24,
    [(1, 2), (3, 19), (4, 7), (7, 15), (8, 13), (9, 11),
     (13, 14), (16, 19), (1, 20), (21, 23)],
)
F8 = NonCrossingForest(8, [(3, 4), (5, 8), (6, 8), (2, 8)])
F16_MARKV = NonCrossingForest(
    16,
    [(3, 4), (5, 16), (6, 16), (8, 16), (8, 10), (8, 13), (8, 14),
     (11, 12), (2, 16)],
)
F16_MARKE = NonCrossingForest(
    16,
    [(3, 4), (5, 8), (6, 8), (8, 10), (8, 16), (11, 12), (13, 16),
     (14, 16), (2, 16)],
)


# ------------------------------------------------------------------- goldens


def test_golden_vertex_classification():
    good = classify_vertices(F12)
    assert good == frozenset({1, 2, 4, 7, 8, 11})
    assert frozenset(range(1, 13)) - good == frozenset({3, 5, 6, 9, 10, 12})


def test_golden_periodic_construct():
    assert construct_periodic(F12, 4, 2) == F24


def test_golden_periodic_decompose():
    assert _scan_window_start(F24, 2) == 16
    assert decompose_periodic(F24, 2) == (F12, 4)


def test_golden_diameter_construct():
    assert construct_diameter(F8, Mark(8)) == F16_MARKV
    assert construct_diameter(F8, Mark(8, (5, 8))) == F16_MARKE


def test_golden_diameter_decompose():
    assert decompose_diameter(F16_MARKV) == (F8, Mark(8))
    assert decompose_diameter(F16_MARKE) == (F8, Mark(8, (5, 8)))


def test_golden_tree_extents():
    ext = {e.vertices: (e.first, e.last) for e in tree_extents(F24, 2)}
    assert ext[(3, 16, 19)] == (16, 3)
    assert ext[(4, 7, 15)] == (4, 15)
    assert ext[(1, 2, 20)] == (20, 2)
    assert ext[(5,)] == (5, 5)


def test_golden_complete_small_fiber():
    # all four forests in F(4, 1) fixed by the half turn, via the marks of
    # the single forest in F(2, 1)
    imgs = sorted(f.edges for f in enumerate_images(4, 1, 2))
    assert imgs == sorted(
        [
            ((1, 2), (1, 3), (3, 4)),
            ((1, 2), (2, 4), (3, 4)),
            ((1, 3), (1, 4), (2, 3)),
            ((1, 4), (2, 3), (2, 4)),
        ]
    )


# ------------------------------------------------------------ vertex classes


def test_good_vertex_count_is_edges_plus_one():
    for n in range(1, 8):
        for k in range(1, n + 1):
            for phi in enumerate_forests(n, k):
                good = classify_vertices(phi)
                assert len(good) == len(phi.edges) + 1
                assert good <= frozenset(range(1, n + 1))


def test_all_marks_count():
    for n in range(1, 8):
        for k in range(1, n + 1):
            for phi in enumerate_forests(n, k):
                marks = all_marks(phi)
                assert len(marks) == 3 * n - 2 * k
                assert len(set(marks)) == len(marks)


# ------------------------------------------------------------- round trips


def test_periodic_round_trip_small_to_big():
    for np_ in range(1, 6):
        for kp in range(1, np_ + 1):
            for phi in enumerate_forests(np_, kp):
                for d in (2, 3):
                    for v in sorted(classify_vertices(phi)):
                        big = construct_periodic(phi, v, d)
                        assert big.n == d * np_
                        assert big.component_count() == d * kp
                        assert decompose_periodic(big, d) == (phi, v)


def test_diameter_round_trip_small_to_big():
    for np_ in range(1, 6):
        for kp in range(1, np_ + 1):
            for phi in enumerate_forests(np_, kp):
                for mark in all_marks(phi):
                    big = construct_diameter(phi, mark)
                    assert big.n == 2 * np_
                    assert big.component_count() == 2 * kp - 1
                    assert decompose_diameter(big) == (phi, mark)


def test_round_trip_big_to_small():
    for n in range(2, 11):
        for k in range(1, n + 1):
            for d in (dd for dd in divisors(n) if dd >= 2):
                for big in enumerate_invariant(n, k, d):
                    if k % d == 0:
                        phi, v = decompose_periodic(big, d)
                        assert v in classify_vertices(phi)
                        assert construct_periodic(phi, v, d) == big
                    else:
                        assert d == 2 and k % 2 == 1
                        phi, mark = decompose_diameter(big)
                        assert construct_diameter(phi, mark) == big


def test_bad_vertices_collapse_onto_good_images():
    # gluing at a bad vertex duplicates the image of some good vertex
    for np_, kp in ((4, 2), (5, 2), (5, 3)):
        for phi in enumerate_forests(np_, kp):
            good = classify_vertices(phi)
            good_images = {construct_periodic(phi, g, 2) for g in good}
            for b in frozenset(range(1, np_ + 1)) - good:
                assert _periodic_image(phi, b, 2) in good_images


# ------------------------------------------------------------------- errors


def test_construct_periodic_rejects_bad_vertex():
    with pytest.raises(BijectionError, match="bad"):
        construct_periodic(F12, 3, 2)


def test_construct_periodic_rejects_small_d():
    with pytest.raises(ValueError):
        construct_periodic(F12, 4, 1)


def test_decompose_periodic_rejects_non_invariant():
    f = NonCrossingForest(6, [(1, 2)])
    with pytest.raises(BijectionError, match="not invariant"):
        decompose_periodic(f, 2)


def test_decompose_periodic_rejects_odd_regime():
    big = construct_diameter(F8, Mark(8))  # k = 7, not divisible by 2
    with pytest.raises(BijectionError, match="diameter regime"):
        decompose_periodic(big, 2)


def test_decompose_diameter_rejects_even_regime():
    with pytest.raises(BijectionError, match="periodic regime"):
        decompose_diameter(F24)


def test_decompose_diameter_rejects_non_invariant():
    with pytest.raises(BijectionError):
        decompose_diameter(NonCrossingForest(6, [(1, 2)]))


def test_construct_diameter_rejects_foreign_mark_edge():
    with pytest.raises(BijectionError, match="not an edge"):
        construct_diameter(F8, Mark(8, (1, 8)))
    with pytest.raises(BijectionError, match="not incident"):
        construct_diameter(F8, Mark(2, (3, 4)))


def test_tree_extents_rejects_d_1_and_non_invariant():
    with pytest.raises(ValueError):
        tree_extents(F24, 1)
    with pytest.raises(BijectionError):
        tree_extents(NonCrossingForest(6, [(1, 2)]), 2)


def test_handoff_is_the_one_step_between_sets():
    assert _handoff({1, 2}, {3, 4}, "entry") == (2, 3)
    assert _handoff({5, 6}, {1, 2}, "exit") == (6, 1)  # wraps past n
    assert _handoff({4}, {1}, "exit") == (4, 1)
    for kind in ("entry", "exit"):
        with pytest.raises(BijectionError, match=f"one {kind} transition.*found 2"):
            _handoff({1, 3}, {2, 4}, kind)
        with pytest.raises(BijectionError, match=f"one {kind} transition.*found 0"):
            _handoff({1}, set(), kind)


# ------------------------------------------------------- structural lemmas


def test_window_starts_agree_scan_vs_raycast():
    for n in range(2, 11):
        for k in range(1, n + 1):
            for d in (dd for dd in divisors(n) if dd >= 2 and k % dd == 0):
                for big in enumerate_invariant(n, k, d):
                    assert _scan_window_start(big, d) == raycast_window_start(big, d)


def test_extent_window_contains_whole_trees():
    # the canonical window never cuts a tree
    for n in range(2, 11):
        for k in range(1, n + 1):
            for d in (dd for dd in divisors(n) if dd >= 2 and k % dd == 0):
                for big in enumerate_invariant(n, k, d):
                    w = _scan_window_start(big, d)
                    window = {(w - 1 + i) % n + 1 for i in range(n // d)}
                    for comp in big.components():
                        inside = comp & window
                        assert inside in (frozenset(), comp)


def test_self_mapped_tree_iff_odd_half_turn():
    for n in range(2, 11):
        for k in range(1, n + 1):
            for d in (dd for dd in divisors(n) if dd >= 2):
                for big in enumerate_invariant(n, k, d):
                    exts = tree_extents(big, d)
                    sm = [e for e in exts if e.self_mapped]
                    if d == 2 and k % 2 == 1:
                        assert len(sm) == 1
                        # the surviving tree carries the diameter edge
                        tree = set(sm[0].vertices)
                        diam = [
                            e for e in big.edges if e[1] - e[0] == n // 2
                        ]
                        assert len(diam) == 1
                        assert set(diam[0]) <= tree
                    else:
                        assert not sm
                        assert k % d == 0


def test_extents_cover_each_tree_once():
    for big in enumerate_invariant(10, 4, 2):
        exts = tree_extents(big, 2)
        assert sorted(v for e in exts for v in e.vertices) == list(range(1, 11))
        for e in exts:
            if not e.self_mapped:
                assert e.first in e.vertices
                assert e.last in e.vertices


# ---------------------------------------------------------------- hypothesis


@st.composite
def _random_forest(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, n))
    pool = list(enumerate_forests(n, k))
    return pool[draw(st.integers(0, len(pool) - 1))]


@settings(max_examples=60, deadline=None)
@given(_random_forest(), st.integers(2, 4))
def test_random_periodic_round_trip(phi, d):
    for v in classify_vertices(phi):
        big = construct_periodic(phi, v, d)
        assert decompose_periodic(big, d) == (phi, v)


@st.composite
def _glued_case(draw, max_np=80, max_n=400):
    """A forest phi on up to max_np vertices, kept greedily from random
    chords (mostly short ones, so that many fit), with a good vertex and a
    fold d that glue it to at most max_n vertices."""
    np_ = draw(st.integers(1, max_np))
    d = draw(st.integers(2, max(2, max_n // np_)))
    spans = st.integers(1, 3) | st.integers(1, max(1, np_ - 1))
    starts = draw(st.lists(st.tuples(st.integers(1, np_), spans),
                           min_size=np_, max_size=3 * np_))
    edges = []
    for u, span in starts:
        try:
            NonCrossingForest(np_, edges + [(u, (u - 1 + span) % np_ + 1)])
        except ValueError:
            continue
        edges.append((u, (u - 1 + span) % np_ + 1))
    phi = NonCrossingForest(np_, edges)
    v = draw(st.sampled_from(sorted(signature_good_vertices(phi))))
    return phi, v, d


@settings(max_examples=80, deadline=None)
@given(_glued_case())
def test_sweep_regions_match_oracles_on_glued_forests(case):
    phi, v, d = case
    big = construct_periodic(phi, v, d)
    for f in (phi, big):
        good = classify_vertices(f)
        assert good == signature_good_vertices(f)
        assert len(good) == len(f.edges) + 1
    assert _scan_window_start(big, d) == raycast_window_start(big, d)
    assert decompose_periodic(big, d) == (phi, v)


def test_regions_of_a_large_glued_forest_are_fast():
    # with one frozenset of enclosing chords per vertex, classifying this
    # forest took 13.5 s and cutting it in halves, which classifies the
    # 10000-vertex half, 3.3 s (one core of a 2-core x86 machine)
    v = min(classify_vertices(F8))
    big = construct_periodic(F8, v, 2500)
    half = construct_periodic(F8, v, 1250)
    assert big.n == 20000 and len(big.edges) == 10000
    t0 = time.perf_counter()
    good = classify_vertices(big)
    t1 = time.perf_counter()
    assert decompose_periodic(big, 2) == (half, 1)
    t2 = time.perf_counter()
    assert len(good) == 10001
    assert t1 - t0 < 0.5, f"classify_vertices took {t1 - t0:.2f}s"
    assert t2 - t1 < 0.5, f"decompose_periodic took {t2 - t1:.2f}s"


@settings(max_examples=60, deadline=None)
@given(_random_forest(), st.data())
def test_random_diameter_round_trip(phi, data):
    marks = all_marks(phi)
    mark = marks[data.draw(st.integers(0, len(marks) - 1))]
    big = construct_diameter(phi, mark)
    assert decompose_diameter(big) == (phi, mark)
