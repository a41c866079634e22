"""Chord-diagram model: validation, crossing geometry, rotation."""

import json
import time
from enum import IntEnum
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncfsieve import forest as forest_module
from ncfsieve.enumeration import chord_table, enumerate_forests
from ncfsieve.forest import (
    NonCrossingForest,
    chord,
    check_vertex,
    crosses,
    innermost_chords,
    rotate_label,
    undo_joins,
    union_edges,
)
from window_oracle import components, rotate


def test_chord_normalizes():
    assert chord(5, 2) == (2, 5)
    assert chord(2, 5) == (2, 5)


def test_chord_rejects_loops():
    with pytest.raises(ValueError):
        chord(3, 3)


def test_check_vertex():
    check_vertex(1, 4)
    check_vertex(4, 4)
    for bad in (0, 5, -1, True, 1.0, "2"):
        with pytest.raises(ValueError):
            check_vertex(bad, 4)


def test_rotate_label_convention():
    # one step clockwise sends i to i+1, wrapping n to 1
    assert rotate_label(1, 1, 4) == 2
    assert rotate_label(4, 1, 4) == 1
    assert rotate_label(3, -1, 4) == 2
    assert rotate_label(2, 8, 4) == 2


# ------------------------------------------------------------------ crossing


def test_crosses_frozen():
    n = 6
    assert crosses((1, 3), (2, 4), n)
    assert not crosses((1, 2), (3, 4), n)
    assert not crosses((1, 4), (2, 3), n)  # nested
    assert crosses((2, 5), (3, 6), n)


def test_shared_endpoint_never_crosses():
    n = 8
    for b in range(2, 9):
        for d in range(2, 9):
            if b == d:
                continue
            assert not crosses((1, b), (1, d), n)


def _crosses_by_alternation(e1, e2, n):
    """Oracle: two chords cross iff their endpoints alternate around the
    circle. Walk the circle once and record which chord each endpoint
    belongs to."""
    if set(e1) & set(e2):
        return False
    walk = [v for v in range(1, n + 1) if v in e1 or v in e2]
    pattern = tuple(1 if v in e1 else 2 for v in walk)
    return pattern in ((1, 2, 1, 2), (2, 1, 2, 1))


@given(st.integers(4, 12), st.data())
def test_crosses_matches_alternation_oracle(n, data):
    pick = st.lists(
        st.integers(1, n), min_size=4, max_size=4, unique=True
    )
    a, b, c, d = data.draw(pick)
    e1, e2 = chord(a, b), chord(c, d)
    assert crosses(e1, e2, n) == _crosses_by_alternation(e1, e2, n)
    assert crosses(e2, e1, n) == crosses(e1, e2, n)


def test_crosses_matches_the_validator_sweep():
    # the filter, orbit and bijection routes all read crosses, so a wrong
    # one could make them agree on a wrong count; the validator's sweep
    # finds crossings without it, on every pair of distinct chords
    for n in range(2, 13):
        for e1, e2 in combinations(chord_table(n), 2):
            for pair in ([e1, e2], [e2, e1]):
                if crosses(*pair, n):
                    with pytest.raises(ValueError, match="cross"):
                        innermost_chords(n, pair)
                else:
                    innermost_chords(n, pair)


# ---------------------------------------------------------------- validation


def test_valid_forest():
    f = NonCrossingForest(4, [(2, 1), (3, 4)])
    assert f.n == 4
    assert f.edges == ((1, 2), (3, 4))


def test_rejects_crossing():
    with pytest.raises(ValueError, match="cross"):
        NonCrossingForest(4, [(1, 3), (2, 4)])


def test_rejects_cycle():
    with pytest.raises(ValueError, match="cycle"):
        NonCrossingForest(3, [(1, 2), (2, 3), (1, 3)])


def test_cycle_error_names_the_enclosed_face_chord():
    # (1, 3) is innermost over no gap: the face beneath it is the triangle
    with pytest.raises(ValueError, match=r"edge \(1, 3\) closes a cycle"):
        NonCrossingForest(3, [(1, 2), (2, 3), (1, 3)])


@pytest.mark.parametrize("n", range(1, 7))
def test_every_chord_set_against_networkx(n):
    # accepted exactly when no two chords cross and networkx finds no cycle
    chords = chord_table(n)
    m = len(chords)
    clash = [sum(1 << j for j in range(m) if crosses(chords[i], chords[j], n))
             for i in range(m)]
    for mask in range(1 << m):
        picked = [i for i in range(m) if mask >> i & 1]
        sub = [chords[i] for i in picked]
        if any(clash[i] & mask for i in picked):
            with pytest.raises(ValueError, match="cross"):
                NonCrossingForest(n, sub)
            continue
        graph = nx.Graph()
        graph.add_nodes_from(range(1, n + 1))
        graph.add_edges_from(sub)
        if nx.is_forest(graph):
            assert NonCrossingForest(n, sub).edges == tuple(sub)
        else:
            with pytest.raises(ValueError, match="cycle"):
                NonCrossingForest(n, sub)


class _Label(IntEnum):
    ONE = 1
    THREE = 3


def test_labels_off_the_fast_path():
    # bools are rejected; int subclasses are checked and kept
    with pytest.raises(ValueError, match="vertex True"):
        NonCrossingForest(4, [(True, 2)])
    with pytest.raises(ValueError, match="vertex"):
        NonCrossingForest(4, [(1.0, 2)])
    with pytest.raises(ValueError, match="degenerate"):
        NonCrossingForest(4, [(2, 2)])
    f = NonCrossingForest(4, [(_Label.THREE, _Label.ONE), (3, 4)])
    assert f.edges == ((1, 3), (3, 4))
    assert f == NonCrossingForest(4, [(1, 3), (3, 4)])


def test_rejects_duplicate_edge():
    with pytest.raises(ValueError, match="duplicate"):
        NonCrossingForest(4, [(1, 2), (2, 1)])


def test_rejects_out_of_range():
    with pytest.raises(ValueError):
        NonCrossingForest(4, [(1, 5)])
    with pytest.raises(ValueError):
        NonCrossingForest(0, [])


def _pair(n):
    return st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1])


def _chord_lists(max_n=12):
    """A circle size and a list of label pairs on it, in any orientation."""
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(_pair(n), max_size=8)))


def _near_forests(max_n=12):
    """A forest kept greedily from random pairs (each pair is kept when the
    pairwise and networkx checks allow it), maybe with one more random pair
    put in at a random place, so large valid and nearly valid inputs are
    common."""
    def keep(case):
        n, pairs, extra, at = case
        kept = []
        graph = nx.Graph()
        for u, v in pairs:
            c = chord(u, v)
            if graph.has_node(u) and graph.has_node(v) and nx.has_path(graph, u, v):
                continue
            if any(crosses(c, chord(*p), n) for p in kept):
                continue
            kept.append((u, v))
            graph.add_edge(u, v)
        if extra is not None:
            kept.insert(at % (len(kept) + 1), extra)
        return n, kept

    return st.integers(2, max_n).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(_pair(n), min_size=n, max_size=4 * n),
        st.none() | _pair(n),
        st.integers(0, 4 * n),
    )).map(keep)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_chord_lists(), _near_forests()))
@example((6, [(1, 3), (1, 5), (2, 3)]))  # nested, shared left end: valid
@example((6, [(1, 4), (1, 6), (2, 5)]))  # (1,4) and (2,5) cross
@example((6, [(1, 5), (3, 5), (2, 4)]))  # (3,5) and (2,4) cross
@example((5, [(1, 3), (3, 1)]))  # a reversed duplicate
@example((5, [(2, 4), (1, 5), (2, 4)]))  # duplicate inside a chord
@example((8, [(1, 8), (1, 2), (2, 8)]))  # cycle, no crossing
def test_check_matches_pairwise_oracle(case):
    # accepted exactly when the normalized chords are distinct, no pair
    # crosses and networkx sees no cycle; components as networkx finds them,
    # and the sweep's entry for v the shortest chord (a, b) with a < v <= b
    n, pairs = case
    chords = [chord(u, v) for u, v in pairs]
    graph = nx.Graph()
    graph.add_nodes_from(range(1, n + 1))
    graph.add_edges_from(chords)
    valid = (
        len(set(chords)) == len(chords)
        and not any(crosses(a, b, n) for a, b in combinations(chords, 2))
        and nx.is_forest(graph)
    )
    try:
        f = NonCrossingForest(n, iter(pairs))
    except ValueError:
        assert not valid
        return
    assert valid
    assert f.edges == tuple(sorted(chords))
    expected = sorted((frozenset(c) for c in nx.connected_components(graph)), key=min)
    assert components(f) == tuple(expected)
    assert f.component_count() == len(expected)
    assert innermost_chords(n, f.edges) == [
        min((c for c in chords if c[0] < v <= c[1]), key=lambda c: c[1] - c[0],
            default=None)
        for v in range(1, n + 1)
    ]
    assert f.innermost() == innermost_chords(n, f.edges)


@pytest.mark.parametrize("shape", ["star", "path"])
def test_large_forest_builds_fast(shape):
    # checking every pair of chords took about 2.4 s on each of these
    n = 2000
    if shape == "star":
        edges = [(1, v) for v in range(2, n + 1)]
    else:
        edges = [(v, v + 1) for v in range(1, n)]
    t0 = time.perf_counter()
    f = NonCrossingForest(n, edges)
    elapsed = time.perf_counter() - t0
    assert f.component_count() == 1 and len(components(f)) == 1
    assert elapsed < 0.5, f"{shape} on {n} vertices took {elapsed:.2f}s"


def test_edges_sorted_canonically():
    f = NonCrossingForest(6, [(5, 6), (1, 2), (3, 4)])
    assert f.edges == ((1, 2), (3, 4), (5, 6))


def test_equality_and_hash():
    a = NonCrossingForest(4, [(1, 2)])
    b = NonCrossingForest(4, [(2, 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != NonCrossingForest(5, [(1, 2)])
    assert a != NonCrossingForest(4, [(1, 3)])
    # a forest equals a forest only, not a tuple of its fields
    assert a != (4, ((1, 2),))
    for name in ("n", "edges", "_inner"):
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b and a.n == 4 and a.edges == ((1, 2),)


def test_innermost_is_kept_but_is_no_field(monkeypatch):
    edges = ((1, 2), (1, 8), (3, 7), (4, 7), (9, 11))
    # given reversed and in reverse order, kept as the sweep of the edges
    # the constructor ordered
    checked = NonCrossingForest(12, [(v, u) for u, v in reversed(edges)])
    unchecked = NonCrossingForest._unchecked(12, edges)
    expected = innermost_chords(12, edges)
    sweeps = []

    def counting(n, chords):
        sweeps.append(n)
        return innermost_chords(n, chords)

    monkeypatch.setattr(forest_module, "innermost_chords", counting)
    # the validating constructor kept the sweep its check made
    assert checked.innermost() == expected and sweeps == []
    # an unchecked forest sweeps on the first call only
    assert unchecked.innermost() == expected and sweeps == [12]
    assert unchecked.innermost() is unchecked.innermost() and sweeps == [12]
    assert checked == unchecked and hash(checked) == hash(unchecked)
    assert repr(checked) == f"NonCrossingForest(n=12, edges={edges!r})"
    assert NonCrossingForest._unchecked(12, edges) == unchecked


# ---------------------------------------------------------------- structure


def test_components_by_least_label():
    f = NonCrossingForest(12, [(1, 2), (1, 8), (3, 7), (4, 7), (9, 11)])
    assert components(f) == tuple(map(frozenset, (
        {1, 2, 8}, {3, 4, 7}, {5}, {6}, {9, 11}, {10}, {12},
    )))
    assert f.component_count() == 7


def test_component_count_is_n_minus_edges():
    f = NonCrossingForest(8, [(3, 4), (5, 8), (6, 8), (2, 8)])
    assert f.component_count() == 8 - len(f.edges) == 4


def test_component_labels_are_the_largest_vertex_of_each_tree():
    # entry x is the largest vertex of x's tree as networkx finds it, on
    # every forest with n <= 8
    forests = 0
    for n in range(1, 9):
        graph = nx.empty_graph(range(1, n + 1))
        for k in range(1, n + 1):
            for f in enumerate_forests(n, k):
                graph.add_edges_from(f.edges)
                want = [0] * (n + 1)
                for tree in nx.connected_components(graph):
                    top = max(tree)
                    for x in tree:
                        want[x] = top
                assert f.component_labels() == want, f
                graph.remove_edges_from(f.edges)
                forests += 1
    assert forests == 53272
    f = NonCrossingForest(12, [(1, 2), (1, 8), (3, 7), (4, 7), (9, 11)])
    assert f.component_labels() == [0, 8, 8, 7, 7, 5, 6, 7, 8, 11, 10, 11, 12]


def test_union_edges_and_undo_joins_take_back_exactly():
    n = 6
    parent = list(range(n + 1))
    undo: list[int] = []
    assert union_edges(parent, undo, [(5, 6)]) == 1
    assert (parent, undo) == ([0, 1, 2, 3, 4, 6, 6], [5])
    # the third edge closes a cycle: the call takes back its own two joins
    assert union_edges(parent, undo, [(1, 2), (2, 3), (1, 3)]) == 2
    assert (parent, undo) == ([0, 1, 2, 3, 4, 6, 6], [5])
    # each root is the larger of the two it joins
    assert union_edges(parent, undo, [(1, 2), (2, 3), (3, 4), (1, 6)]) == 4
    assert parent == [0, 2, 3, 4, 6, 6, 6]
    undo_joins(parent, undo, len(undo))
    assert (parent, undo) == (list(range(n + 1)), [])


# ------------------------------------------------------------------ rotation


def test_rotate_identity_and_period():
    f = NonCrossingForest(6, [(1, 2), (4, 6)])
    assert rotate(f, 0) == f
    assert rotate(f, 6) == f
    assert rotate(rotate(f, 2), 4) == f
    assert rotate(f, 1) == NonCrossingForest(6, [(2, 3), (5, 1)])


def test_rotate_matches_rotate_label():
    f = NonCrossingForest(9, [(1, 9), (2, 4), (2, 8), (5, 7)])
    for s in range(-9, 19):
        moved = sorted(chord(rotate_label(u, s, 9), rotate_label(v, s, 9))
                       for u, v in f.edges)
        assert rotate(f, s).edges == tuple(moved), s


def test_is_d_invariant():
    f = NonCrossingForest(4, [(1, 2), (3, 4)])
    assert f.is_d_invariant(1)
    assert f.is_d_invariant(2)
    assert not f.is_d_invariant(4)
    with pytest.raises(ValueError):
        f.is_d_invariant(3)
    with pytest.raises(ValueError):
        f.is_d_invariant(0)


def test_is_d_invariant_matches_rotate():
    # is_d_invariant sorts the rotated chords without building a forest;
    # rotate builds one, and the two must agree on every forest with n <= 8
    checked = 0
    for n in range(1, 9):
        divs = [d for d in range(1, n + 1) if n % d == 0]
        for k in range(1, n + 1):
            for f in enumerate_forests(n, k):
                for d in divs:
                    assert f.is_d_invariant(d) == (rotate(f, n // d) == f), (f, d)
                    checked += 1
            # and refuses every d that does not divide n, on one forest a cell
            for d in (0, -n, n + 1, *(d for d in range(2, n) if n % d)):
                with pytest.raises(ValueError, match="divisor"):
                    f.is_d_invariant(d)
    assert checked == 198964


def test_rotation_preserves_validity():
    f = NonCrossingForest(12, [(1, 2), (1, 8), (3, 7), (4, 7), (9, 11)])
    for s in range(12):
        g = rotate(f, s)
        # revalidate from scratch
        assert NonCrossingForest(g.n, g.edges) == g
        assert g.component_count() == f.component_count()


# ---------------------------------------------------------------------- JSON


def test_json_round_trip():
    f = NonCrossingForest(8, [(3, 4), (5, 8), (6, 8), (2, 8)])
    blob = json.dumps(f.to_json())
    assert NonCrossingForest.from_json(json.loads(blob)) == f


def test_from_json_validates():
    with pytest.raises(ValueError):
        NonCrossingForest.from_json({"n": 4})
    with pytest.raises(ValueError):
        NonCrossingForest.from_json({"n": 4, "edges": [[1, 3], [2, 4]]})
    with pytest.raises(ValueError):
        NonCrossingForest.from_json({"n": 4, "edges": [[1]]})
    with pytest.raises(ValueError):
        NonCrossingForest.from_json([4, []])


def test_to_dot_mentions_every_edge():
    f = NonCrossingForest(4, [(1, 2), (2, 3)])
    dot = f.to_dot(name="x")
    assert dot.startswith("graph x")
    assert "1 -- 2" in dot and "2 -- 3" in dot


# ------------------------------------------------------------------ escape


def test_unchecked_matches_checked_on_valid_input():
    edges = ((1, 2), (3, 7), (4, 7))
    assert NonCrossingForest._unchecked(8, edges) == NonCrossingForest(8, edges)
