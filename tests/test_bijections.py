"""Structural bijections: golden examples, exhaustive round trips, and the
lemmas the decompositions lean on.

The golden forests were traced by hand through the conventions (clockwise
labels, scan order 1, n, n-1, ..., 2) and are frozen here; any drift in a
convention breaks these before anything subtle does.
"""

import hashlib
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncfsieve import bijections
from ncfsieve import forest as forest_module
from ncfsieve.bijections import (
    BijectionError,
    Mark,
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
from ncfsieve.sieving import ROUTES
from window_oracle import (
    components,
    handoff,
    raycast_window_start,
    sets_tree_extents,
    signature_good_vertices,
)

# Line count and SHA-256 of the outputs in test_maps_match_the_frozen_outputs
LINES = 6330
DIGEST = "b14368cb395457a1b96d5c76c70f9599b57ac7fdc14a44c8cf74b3aa984c6e1e"

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
    mark = decompose_diameter(F16_MARKE)[1]
    with pytest.raises(AttributeError):
        mark.vertex = 1
    with pytest.raises(AttributeError):
        mark.edge = None
    assert mark == Mark(8, (5, 8))


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


# --------------------------------------------------------- the bijection route


@pytest.mark.parametrize("cell", [(8, 4, 2), (8, 3, 2)], ids=["periodic", "diameter"])
def test_route_refuses_a_map_that_collapses_sources(monkeypatch, cell):
    # Each map made many-to-one: every phi cut at its least good vertex
    # whatever v is asked for, and every mark stripped of its edge. Each
    # image is still a valid fixed forest; only the route's own check that
    # it decomposes back to its source sees the collapse.
    periodic, diameter = bijections.construct_periodic, bijections.construct_diameter
    monkeypatch.setattr(
        bijections, "construct_periodic",
        lambda phi, v, d: periodic(phi, min(classify_vertices(phi)), d))
    monkeypatch.setattr(bijections, "construct_diameter",
                        lambda phi, mark: diameter(phi, Mark(mark.vertex)))
    with pytest.raises(BijectionError):
        ROUTES["bijection"].count(*cell)


def test_bijection_route_holds_no_images():
    # 6006 images of the diameter regime; holding their edge lists took
    # 3.8 MB of traced peak, streaming them about 0.01 MB
    stream = ROUTES["bijection"].stream(12, 3, 2)
    tracemalloc.start()
    try:
        drained = sum(1 for _ in stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert drained == 6006
    assert peak < 500_000, f"traced peak {peak} bytes"


def test_bijection_route_yields_before_its_walk_ends(monkeypatch):
    def one_phi(n, k, d):
        yield next(enumerate_invariant(n, k, d))
        raise RuntimeError("the walk was drained past its first forest")

    monkeypatch.setattr(bijections, "enumerate_invariant", one_phi)
    first = next(ROUTES["bijection"].stream(12, 3, 2))
    assert first.n == 12 and first.is_d_invariant(2)


# ------------------------------------------------------------ vertex classes


def test_good_vertex_count_is_edges_plus_one():
    for n in range(1, 8):
        for k in range(1, n + 1):
            for phi in enumerate_forests(n, k):
                good = classify_vertices(phi)
                assert len(good) == len(phi.edges) + 1
                assert good <= frozenset(range(1, n + 1))


def test_classify_vertices_on_a_validated_phi_runs_no_sweep(monkeypatch):
    phi = NonCrossingForest(12, F12.edges)

    def no_sweep(*args):
        raise AssertionError("a validated forest was swept again")

    monkeypatch.setattr(forest_module, "innermost_chords", no_sweep)
    assert classify_vertices(phi) == frozenset({1, 2, 4, 7, 8, 11})
    assert _scan_window_start(F24, 2) == 16


def test_a_periodic_round_trip_sweeps_three_forests(monkeypatch):
    # the enumerated forest for its window, phi when it is validated and
    # the image when it is validated; phi's good vertices reuse its sweep
    sweeps = []
    sweep = forest_module.innermost_chords

    def counting(n, edges):
        sweeps.append(n)
        return sweep(n, edges)

    big = NonCrossingForest._unchecked(24, F24.edges)
    monkeypatch.setattr(forest_module, "innermost_chords", counting)
    phi, v = decompose_periodic(big, 2)
    assert construct_periodic(phi, v, 2) == big
    assert sweeps == [24, 12, 24]


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


def test_tree_extents_rejects_chord_sets_that_pass_invariance():
    # unchecked chord sets that rotation fixes but that are no non-crossing
    # forest; each must fail with BijectionError, not KeyError or IndexError
    crossing = NonCrossingForest._unchecked(4, ((1, 3), (2, 4)))
    assert crossing.is_d_invariant(2)
    with pytest.raises(BijectionError, match="2 self-mapped trees"):
        tree_extents(crossing, 2)
    triangle = NonCrossingForest._unchecked(3, ((1, 2), (1, 3), (2, 3)))
    assert triangle.is_d_invariant(3)
    with pytest.raises(BijectionError, match="close a cycle"):
        tree_extents(triangle, 3)
    # the trees {1, 4, 6} and {2, 5, 8} swap under the half turn and
    # interleave, so the first meets the second in three handoffs
    woven = NonCrossingForest._unchecked(8, ((1, 4), (2, 8), (4, 6), (5, 8)))
    assert woven.is_d_invariant(2)
    with pytest.raises(BijectionError, match="3 handoffs"):
        tree_extents(woven, 2)


def test_tree_extents_keeps_the_overlap_guard(monkeypatch):
    # invariance rules out a tree that partly overlaps its image; with the
    # invariance test bypassed the guard still reports one
    monkeypatch.setattr(NonCrossingForest, "is_d_invariant", lambda self, d: True)
    with pytest.raises(BijectionError, match="partially overlaps"):
        tree_extents(NonCrossingForest(6, [(1, 2), (2, 4)]), 2)


def test_handoff_is_the_one_step_between_sets():
    assert handoff({1, 2}, {3, 4}) == (2, 3)
    assert handoff({5, 6}, {1, 2}) == (6, 1)  # wraps past n
    assert handoff({4}, {1}) == (4, 1)
    with pytest.raises(BijectionError, match="one transition.*found 2"):
        handoff({1, 3}, {2, 4})
    with pytest.raises(BijectionError, match="one transition.*found 0"):
        handoff({1}, set())


def _invariant_cases(max_n):
    for n in range(2, max_n + 1):
        for d in (dd for dd in divisors(n) if dd >= 2):
            for k in range(1, n + 1):
                for big in enumerate_invariant(n, k, d):
                    yield big, d


def test_tree_extents_match_the_sets_oracle():
    # one labelled sweep against a graph search and a sorted merge per tree,
    # on every (forest, d >= 2) with n <= 10, tree order included
    cases = 0
    for big, d in _invariant_cases(10):
        assert tree_extents(big, d) == sets_tree_extents(big, d), (big, d)
        cases += 1
    assert cases == 3165


def test_first_is_the_entry_from_the_preimage():
    # tree_extents reads first off the exit into the image, rotated back;
    # here it is found directly as the step from the preimage into the tree
    for big, d in _invariant_cases(10):
        n = big.n
        s = n // d
        for e in tree_extents(big, d):
            if e.self_mapped:
                continue
            tree = set(e.vertices)
            pre = {(x - 1 - s) % n + 1 for x in tree}
            assert e.first == handoff(pre, tree)[1], (big, d)


def test_last_is_the_exit_into_the_image():
    for big, d in _invariant_cases(10):
        n = big.n
        s = n // d
        for e in tree_extents(big, d):
            if e.self_mapped:
                continue
            tree = set(e.vertices)
            image = {(x - 1 + s) % n + 1 for x in tree}
            assert e.last == handoff(tree, image)[0], (big, d)


def test_maps_match_the_frozen_outputs():
    # every decomposition of a fixed forest with n <= 10 and every image of a
    # small forest on up to 10 vertices, hashed; the digest was taken from
    # the maps as they stood before the labels were computed inline
    lines = []
    for big, d in _invariant_cases(10):
        if big.component_count() % d == 0:
            phi, v = decompose_periodic(big, d)
            lines.append(f"P {big.edges} {d} {phi.edges} {v}")
        else:
            phi, mark = decompose_diameter(big)
            lines.append(f"D {big.edges} {phi.edges} {mark.vertex} {mark.edge}")
    for np_ in range(1, 6):
        for kp in range(1, np_ + 1):
            for phi in enumerate_forests(np_, kp):
                for v in sorted(classify_vertices(phi)):
                    for d in range(2, 10 // np_ + 1):
                        big = construct_periodic(phi, v, d)
                        lines.append(f"p {phi.edges} {v} {d} {big.edges}")
                for mark in all_marks(phi):
                    big = construct_diameter(phi, mark)
                    lines.append(f"d {phi.edges} {mark.vertex} {mark.edge} {big.edges}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (LINES, DIGEST)


def test_half_turn_maps_match_the_frozen_outputs_to_twelve():
    # every decomposition of a half-turn fixed forest with odd k and n <= 12,
    # and every image of a marked forest on up to 6 vertices, hashed; the
    # digest was taken before the decomposition folded labels mod n/2 and
    # the construction placed every edge by one rule
    lines = []
    for n in range(2, 13, 2):
        for k in range(1, n + 1, 2):
            for big in enumerate_invariant(n, k, 2):
                phi, mark = decompose_diameter(big)
                lines.append(f"D {big.edges} {phi.edges} {mark.vertex} {mark.edge}")
    assert len(lines) == 16993
    for np_ in range(1, 7):
        for kp in range(1, np_ + 1):
            for phi in enumerate_forests(np_, kp):
                for mark in all_marks(phi):
                    big = construct_diameter(phi, mark)
                    lines.append(f"d {phi.edges} {mark.vertex} {mark.edge} {big.edges}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (
        33986, "db168279277989fa0af64ed9390526c1942cf24f4630a707567d789ed7f18acb")


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
                    for comp in components(big):
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
