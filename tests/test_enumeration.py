"""Enumeration against independent oracles.

The main oracle builds every subset of chords outright (2^m of them),
filters with networkx for acyclicity and a direct pairwise loop for
crossings, and compares censuses. A second, structurally different
recursive generator covers n = 7 and 8, where 2^21 and 2^28 subsets would
be too many. The fixed-point counts are pinned to a per-forest set filter.
"""

import hashlib
import time
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncfsieve import enumeration
from ncfsieve.enumeration import (
    chord_table,
    count_forests,
    divisors,
    enumerate_forests,
    enumerate_invariant,
    invariant_counts,
    rotation_perm,
)
from ncfsieve.forest import NonCrossingForest, crosses
from ncfsieve.qpoly import forest_count
from ncfsieve.sieving import ROUTES, closed_form_eval


def _census_by_subsets(n: int) -> dict[int, set]:
    """Every non-crossing forest on n vertices, by component count, found by
    brute subset filtering. Exponential; keep n <= 6."""
    chords = chord_table(n)
    out: dict[int, set] = {k: set() for k in range(1, n + 1)}
    for r in range(0, n):
        for sub in combinations(chords, r):
            if any(
                crosses(e1, e2, n) for e1, e2 in combinations(sub, 2)
            ):
                continue
            g = nx.Graph()
            g.add_nodes_from(range(1, n + 1))
            g.add_edges_from(sub)
            if nx.is_forest(g):
                out[n - r].add(tuple(sorted(sub)))
    return out


@pytest.mark.parametrize("n", range(1, 7))
def test_matches_subset_census(n):
    oracle = _census_by_subsets(n)
    for k in range(1, n + 1):
        ours = {f.edges for f in enumerate_forests(n, k)}
        assert ours == oracle[k], (n, k)


def _recursive_forests(n: int, k: int):
    """Independent generator: plain recursion over the chord list with
    set-based bookkeeping, no bitmasks, no union-find."""
    chords = chord_table(n)

    def parent_of(roots, x):
        while roots[x] != x:
            x = roots[x]
        return x

    def rec(i, picked, roots):
        if n - len(picked) == k:
            yield tuple(picked)
            return
        if i == len(chords):
            return
        for j in range(i, len(chords)):
            e = chords[j]
            if any(crosses(e, f, n) for f in picked):
                continue
            ra, rb = parent_of(roots, e[0]), parent_of(roots, e[1])
            if ra == rb:
                continue
            nr = dict(roots)
            nr[ra] = rb
            yield from rec(j + 1, picked + [e], nr)

    roots0 = {x: x for x in range(1, n + 1)}
    yield from rec(0, [], roots0)


@pytest.mark.parametrize("n", range(1, 9))
def test_matches_recursive_generator(n):
    for k in range(1, n + 1):
        ours = [f.edges for f in enumerate_forests(n, k)]
        theirs = sorted(_recursive_forests(n, k))
        assert ours == theirs, (n, k)


def test_counts_match_formula():
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert count_forests(n, k) == forest_count(n, k), (n, k)


def test_count_is_length_of_stream():
    for n in range(1, 10):
        for k in range(1, n + 1):
            assert count_forests(n, k) == len(list(enumerate_forests(n, k))), (n, k)


def test_stream_is_lexicographic_and_duplicate_free():
    for n in range(1, 8):
        for k in range(1, n + 1):
            seen = [f.edges for f in enumerate_forests(n, k)]
            assert seen == sorted(set(seen)), (n, k)


def test_every_emitted_forest_is_valid():
    for f in enumerate_forests(7, 3):
        g = NonCrossingForest(f.n, f.edges)  # full revalidation
        assert g.component_count() == 3


def test_edge_cases():
    assert [f.edges for f in enumerate_forests(1, 1)] == [()]
    assert [f.edges for f in enumerate_forests(4, 4)] == [()]
    assert count_forests(2, 1) == 1
    with pytest.raises(ValueError):
        count_forests(4, 0)
    with pytest.raises(ValueError):
        count_forests(4, 5)
    with pytest.raises(ValueError):
        count_forests(0, 1)


# ------------------------------------------------------------------ rotation


def test_rotation_perm_is_a_bijection_of_period_d():
    for n in (4, 6, 9):
        for s in range(1, n):
            perm = rotation_perm(n, s)
            assert sorted(perm) == list(range(len(perm)))
    perm = rotation_perm(6, 2)
    cur = list(range(len(perm)))
    for _ in range(3):
        cur = [perm[i] for i in cur]
    assert cur == list(range(len(perm)))


# ------------------------------------------------------- invariant streams


def _per_forest_filter(n: int, k: int) -> dict[int, int]:
    """Reference fixed-point counts: map every forest's chord indices
    through each rotation and test membership in a set, one forest at a
    time."""
    index = {c: i for i, c in enumerate(chord_table(n))}
    perms = {d: rotation_perm(n, n // d) for d in divisors(n) if d >= 2}
    counts = dict.fromkeys(divisors(n), 0)
    for f in enumerate_forests(n, k):
        t = [index[e] for e in f.edges]
        counts[1] += 1
        ts = set(t)
        for d, perm in perms.items():
            for i in t:
                if perm[i] not in ts:
                    break
            else:
                counts[d] += 1
    return counts


def test_invariant_counts_batches_single_d_counts():
    for n in range(1, 10):
        for k in range(1, n + 1):
            batch = invariant_counts(n, k)
            assert batch == _per_forest_filter(n, k), (n, k)
            assert {d: count_forests(n, k, d) for d in batch} == batch, (n, k)


@pytest.mark.parametrize("n, least_k", [(11, 6), (12, 8)])
def test_invariant_counts_past_ten_match_closed_form(n, least_k):
    # the walk's floor and rotation cuts act on component and chord counts
    # that grow with n; above n = 10 the cells with few edges stay cheap
    for k in range(least_k, n + 1):
        assert invariant_counts(n, k) == {
            d: closed_form_eval(n, k, d) for d in divisors(n)}, (n, k)


def test_filter_count_walks_only_its_d(monkeypatch):
    # one cell's count tests one rotation, not every divisor of n
    seen = []

    def recording(n, k, ds=(1,)):
        seen.append(ds)
        return iter(())

    monkeypatch.setattr(enumeration, "_leaf_groups", recording)
    ROUTES["filter"].count(12, 6, 2)
    assert seen == [(2,)]


def test_fixed_stream_is_the_per_forest_filter():
    # enumerate_forests(n, k, d) tests groups of the walk; the oracle
    # rotates, sorts and compares every forest of F(n, k) whole
    for n in range(1, 10):
        for k in range(1, n + 1):
            forests = list(enumerate_forests(n, k))
            for d in divisors(n):
                by_filter = [f.edges for f in forests if f.is_d_invariant(d)]
                assert [f.edges for f in enumerate_forests(n, k, d)] == by_filter, (
                    n, k, d)


def test_invariant_stream_really_is_invariant():
    for n in (6, 8, 9):
        for k in range(1, n + 1):
            for d in divisors(n):
                for f in enumerate_invariant(n, k, d):
                    assert f.is_d_invariant(d), (n, k, d, f)
                    assert f.component_count() == k


# sha256 over every d >= 2 cell of n, k ascending then d ascending, of
# repr([f.edges for f in enumerate_invariant(n, k, d)]); taken from the
# chord-level orbit walk that preceded the orbit-mask walk
ORBIT_STREAM_SHA256 = {
    2: "82b5b9ea7c9ca0c113f9a2b7b8243e297ea9d7e57db519cf68fdf8261c1a655e",
    3: "1a7d947cd9fd7be5101ea440ec1e29d7d35a1604d854c6ea678c5b2a4a84e114",
    4: "d24d61c58ca61bf7b60535782a3e5624744c89aad0d711221aebf6c490289d45",
    5: "68a208b4cb9071e9edfb17c90a281072a6e8612f828a7090c84a482be9c06c89",
    6: "63a11636435fa2ac6465947d405d5ebc264f40cf8a7b0076725c84bbdcc47148",
    7: "2516106340479f25c79622c9c1eff51035a6ece97a293e85b52a4acd106fa232",
    8: "098f2c008ade85da35cfa2af9114ba03f02df76a454ea808ee024ccd61bf920f",
    9: "5eeef39b04869bc0308f3311c838ab351acea3981771a1abeb7a77d3d743b037",
    10: "e28721615540f9d02f60953b6b07bfaff124ce28bdeefe750a8a30f087bd19ad",
    11: "b4e145d9c3dbcf8bede6e6c04f8ae2106934d0b559b9889268dd22cb95a552ea",
    12: "6ca171e45226462708892d177f836a5e8eaee74fb307ac295ca167ead9a50800",
}


@pytest.mark.parametrize("n", sorted(ORBIT_STREAM_SHA256))
def test_orbit_stream_order_is_pinned(n):
    # the benchmark samples forests by their position in this stream, so
    # its order is part of the route's contract, not only its set
    h = hashlib.sha256()
    for k in range(1, n + 1):
        for d in divisors(n)[1:]:
            h.update(repr([f.edges for f in enumerate_invariant(n, k, d)]).encode())
    assert h.hexdigest() == ORBIT_STREAM_SHA256[n]


def test_orbit_route_streams():
    # sorting all 976,752 forests of this cell first took 8 to 10 s
    t0 = time.perf_counter()
    first = next(enumerate_invariant(20, 10, 2))
    elapsed = time.perf_counter() - t0
    assert first.is_d_invariant(2) and first.component_count() == 10
    assert first == NonCrossingForest(20, first.edges)
    assert elapsed < 1.0, f"first forest of (20, 10, 2) took {elapsed:.2f}s"


def test_invariant_rejects_bad_method_and_divisor():
    with pytest.raises(ValueError):
        list(enumerate_invariant(6, 2, 4))
    # the orbit stream is the only one here; the others live in sieving.ROUTES
    with pytest.raises(TypeError):
        list(enumerate_invariant(6, 2, 2, method="filter"))
    with pytest.raises(ValueError):
        invariant_counts(6, 0)


def test_frozen_invariant_values():
    assert invariant_counts(4, 3)[2] == 2
    assert invariant_counts(4, 2)[4] == 0
    assert invariant_counts(4, 1)[2] == 4
    for n in range(1, 9):
        assert invariant_counts(n, n) == dict.fromkeys(divisors(n), 1)
    inv = sorted(f.edges for f in enumerate_invariant(4, 2, 2))
    assert inv == [((1, 2), (3, 4)), ((1, 4), (2, 3))]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_cell_against_filter(data):
    n = data.draw(st.integers(1, 9))
    k = data.draw(st.integers(1, n))
    d = data.draw(st.sampled_from(divisors(n)))
    direct = sorted(f.edges for f in enumerate_invariant(n, k, d))
    by_filter = sorted(
        f.edges for f in enumerate_forests(n, k) if f.is_d_invariant(d)
    )
    assert direct == by_filter
