"""Exhaustive generation of non-crossing forests and their rotation-fixed
subsets.

The core is one backtracking walk over the chord list in lexicographic
order, kept in bitmasks. A frame holds a single int: the chords that may
still join the selection, which is ~(banned | closed) & ge(floor) with

* banned: the OR of the precomputed crossing masks of the chosen chords,
* closed: the chords whose two endpoints already lie in one component,
* ge(floor): the chords after the last one chosen.

Choosing chord i removes from the candidates the chords that cross it
and, as i merges components A and B, the chords with one end in each:
star[A] & star[B], where star[r] is the OR of the chords incident to the
vertices of the component rooted at r. A union-find with an undo stack
finds those two roots, once per chosen chord. A node with fewer
candidates than chords still to choose is cut.

At a node one chord short of a forest, every remaining candidate completes
one, so the walk handles the prefix with its whole completing mask instead
of visiting the leaves one by one. This group is also where the fixed-point
filter runs: for each rotation asked for, the walk tests the prefix once
and yields the mask of completions that give a fixed forest. Enumeration
expands a mask low bit first, which keeps the stream lexicographic and
lazy; counting takes its popcount. No forest is rotated whole, so the
filter route's count (invariant_counts) and its stream (enumerate_forests
with d) read the same test.

Rotation-fixed forests can additionally be generated directly by the same
backtracking over whole chord orbits of the rotation subgroup, which stays
cheap at sizes where the walk over all of F(n, k) is hopeless. This orbit
route and the fixed-point filter are two of the count routes in
sieving.ROUTES.
"""

from __future__ import annotations

from functools import lru_cache

from .forest import (
    Chord,
    NonCrossingForest,
    check_d,
    check_n,
    chord,
    crosses,
    rotate_label,
    union_edges,
)


def divisors(n: int) -> tuple[int, ...]:
    return tuple(d for d in range(1, n + 1) if n % d == 0)


@lru_cache(maxsize=None)
def chord_table(n: int) -> tuple[Chord, ...]:
    """All chords of the n-circle in lexicographic order."""
    return tuple((u, v) for u in range(1, n) for v in range(u + 1, n + 1))


@lru_cache(maxsize=None)
def _chord_index(n: int) -> dict:
    return {c: i for i, c in enumerate(chord_table(n))}


@lru_cache(maxsize=None)
def _cross_masks(n: int) -> tuple[int, ...]:
    chords = chord_table(n)
    m = len(chords)
    masks = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if crosses(chords[i], chords[j], n):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return tuple(masks)


@lru_cache(maxsize=None)
def rotation_perm(n: int, s: int) -> tuple[int, ...]:
    """Permutation of chord indices induced by rotating s steps."""
    idx = _chord_index(n)
    return tuple(
        idx[chord(rotate_label(u, s, n), rotate_label(v, s, n))]
        for (u, v) in chord_table(n)
    )


def _leaf_groups(n: int, k: int, ds: tuple[int, ...] = (1,)):
    """Yield (prefix, d, fixed) for every node of the walk that is one chord
    short of a forest in F(n, k), for k < n, and every d in ds for which
    fixed is not 0.

    prefix is the increasing list of chosen chord indices (one list, reused:
    copy it to keep it) and fixed the mask of chords j after prefix[-1] such
    that prefix + [j] is a forest of F(n, k) that the rotation r of order d
    maps onto itself. At d = 1 every completion counts. For d >= 2 let S be
    the prefix; since |r(S)| = |S|:

    * r(S) = S: the fixed forests are those whose j is fixed by r itself;
    * r(S) minus S is one chord j: only S + {j} can be fixed, and it is
      when j completes S and r(j) is the one chord of S outside r(S);
    * otherwise none is, and the test stops at the second missing chord.

    A node two chords short whose prefix already misses three chords under
    r cannot get down to one with one more chord, so r is not tested below
    it. Groups come in lexicographic order of prefix, so expanding each
    mask low bit first lists the forests in lexicographic order.
    """
    need = n - k
    chords = chord_table(n)
    cross = _cross_masks(n)
    m = len(chords)
    full = (1 << m) - 1
    plain = 1 in ds  # d = 1 takes every completion, with no rotation tested
    rots = []
    for d in ds:
        if d > 1:
            perm = rotation_perm(n, n // d)
            fixed = sum(1 << i for i in range(m) if perm[i] == i)
            rots.append((d, tuple(1 << j for j in perm), fixed))
    prefix: list[int] = []
    if need == 1:
        if plain:
            yield prefix, 1, full
        for d, _, fixed in rots:
            if fixed:
                yield prefix, d, fixed
        return
    star = [0] * (n + 1)
    for i, (u, v) in enumerate(chords):
        star[u] |= 1 << i
        star[v] |= 1 << i
    parent = list(range(n + 1))
    size = [1] * (n + 1)
    undo: list[tuple[int, int, int]] = []
    last = need - 2  # depth whose chosen chord leaves one to go
    stack = [full]  # candidate mask per depth
    # Inline union-find: a root-find call per chord made this walk 6% slower.
    while stack:
        depth = len(stack) - 1
        cand = stack[-1]
        if depth == last:
            heads = []  # (d, rbit, fixed, r(prefix)) for each d still possible
            if rots:
                sp = 0
                for i in prefix:
                    sp |= 1 << i
                for d, rbit, fixed in rots:
                    rsp = 0
                    for i in prefix:
                        rsp |= rbit[i]
                    if (rsp & ~sp).bit_count() <= 2:
                        heads.append((d, rbit, fixed, rsp))
            prefix.append(0)
            while cand:
                low = cand & -cand
                cand ^= low
                i = low.bit_length() - 1
                u, v = chords[i]
                while parent[u] != u:
                    u = parent[u]
                while parent[v] != v:
                    v = parent[v]
                completing = cand & ~(cross[i] | star[u] & star[v])
                if not completing:
                    continue
                prefix[last] = i
                if plain:
                    yield prefix, 1, completing
                if heads:
                    s = sp | low
                    for d, rbit, fixed, rsp in heads:
                        rs = rsp | rbit[i]
                        miss = rs & ~s
                        if not miss:
                            found = completing & fixed
                        elif miss & (miss - 1) or rbit[miss.bit_length() - 1] != s & ~rs:
                            continue
                        else:
                            found = completing & miss
                        if found:
                            yield prefix, d, found
            prefix.pop()
        elif cand.bit_count() >= need - depth:
            low = cand & -cand
            cand ^= low
            stack[-1] = cand
            i = low.bit_length() - 1
            u, v = chords[i]
            while parent[u] != u:
                u = parent[u]
            while parent[v] != v:
                v = parent[v]
            if size[u] < size[v]:
                u, v = v, u
            stack.append(cand & ~(cross[i] | star[u] & star[v]))
            undo.append((v, u, star[u]))
            parent[v] = u
            size[u] += size[v]
            star[u] |= star[v]
            prefix.append(i)
            continue
        stack.pop()
        if undo:
            v, u, s = undo.pop()
            parent[v] = v
            size[u] -= size[v]
            star[u] = s
            prefix.pop()


def enumerate_forests(n: int, k: int, d: int = 1):
    """Stream the non-crossing forests on n vertices with k components that
    the rotation of order d maps onto themselves; at d = 1, all of them.
    This is the filter route's stream.

    Deterministic: lexicographic in the canonical sorted edge list, no
    duplicates, nothing materialized.

    >>> [f.edges for f in enumerate_forests(4, 2, 2)]
    [((1, 2), (3, 4)), ((1, 4), (2, 3))]
    """
    check_n(n, k)
    check_d(d, n)
    if k == n:
        yield NonCrossingForest._unchecked(n, ())
        return
    chords = chord_table(n)
    for prefix, _, fixed in _leaf_groups(n, k, (d,)):
        head = tuple(chords[i] for i in prefix)
        while fixed:
            low = fixed & -fixed
            fixed ^= low
            yield NonCrossingForest._unchecked(
                n, head + (chords[low.bit_length() - 1],)
            )


def count_forests(n: int, k: int) -> int:
    """|F(n, k)| by the walk: the popcounts of the completing masks, with
    no forest built and no rotation tested."""
    check_n(n, k)
    if k == n:
        return 1
    return sum(fixed.bit_count() for _, _, fixed in _leaf_groups(n, k))


def invariant_counts(n: int, k: int) -> dict[int, int]:
    """Fixed-forest counts for every d | n in one pass of the walk: the
    popcounts of the masks _leaf_groups yields for each d."""
    check_n(n, k)
    ds = divisors(n)
    if k == n:
        return dict.fromkeys(ds, 1)
    counts = dict.fromkeys(ds, 0)
    for _, d, fixed in _leaf_groups(n, k, ds):
        counts[d] += fixed.bit_count()
    return counts


@lru_cache(maxsize=None)
def _orbit_table(n: int, d: int):
    """Chord orbits under rotation by n/d steps, dropping orbits whose own
    members cross each other (no invariant forest can use them). Each entry
    is (member indices, edge count, union of crossing masks, member mask,
    member chords), sorted by minimal member."""
    perm = rotation_perm(n, n // d)
    cross = _cross_masks(n)
    chords = chord_table(n)
    m = len(perm)
    seen = [False] * m
    orbits = []
    for i in range(m):
        if seen[i]:
            continue
        orb = [i]
        j = perm[i]
        while j != i:
            orb.append(j)
            j = perm[j]
        omask = 0
        cmask = 0
        for j in orb:
            seen[j] = True
            omask |= 1 << j
            cmask |= cross[j]
        if cmask & omask:
            continue
        members = tuple(sorted(orb))
        ends = tuple(chords[j] for j in members)
        orbits.append((members, len(orb), cmask, omask, ends))
    orbits.sort()
    return tuple(orbits)


def _iter_invariant_index_sets(n: int, k: int, d: int):
    """Chord-index tuples of every d-invariant forest in F(n, k), generated
    orbit by orbit. Emission order is by orbit choice, not lexicographic."""
    need = n - k
    if need == 0:
        yield ()
        return
    orbits = _orbit_table(n, d)
    t = len(orbits)
    suffix = [0] * (t + 1)
    for j in range(t - 1, -1, -1):
        suffix[j] = suffix[j + 1] + orbits[j][1]
    parent = list(range(n + 1))
    size = [1] * (n + 1)
    taken: list[tuple[int, ...]] = []
    edges_in = 0
    undo: list[tuple[int, int]] = []
    # frame: [next orbit, banned mask, edges owned]; each edge is one union.
    # A frame that completes a forest yields it and is popped next round.
    stack: list[list] = [[0, 0, 0]]
    while stack:
        frame = stack[-1]
        j, banned = frame[0], frame[1]
        while edges_in < need and j < t and suffix[j] >= need - edges_in:
            members, sz, cmask, omask, ends = orbits[j]
            j += 1
            if sz > need - edges_in or banned & omask:
                continue
            if union_edges(parent, size, undo, ends) < sz:
                continue  # the orbit closes a cycle, and nothing was joined
            frame[0] = j
            taken.append(members)
            edges_in += sz
            if edges_in == need:
                out: list[int] = []
                for mem in taken:
                    out.extend(mem)
                yield tuple(sorted(out))
            stack.append([j, banned | cmask, sz])
            break
        else:
            stack.pop()
            if frame[2]:
                for _ in range(frame[2]):
                    rv, ru = undo.pop()
                    size[ru] -= size[rv]
                    parent[rv] = rv
                taken.pop()
                edges_in -= frame[2]


def enumerate_invariant(n: int, k: int, d: int):
    """Stream the forests in F(n, k) fixed by the rotation of order d: the
    orbit route. They are generated directly over the chord orbits of the
    rotation and yielded as found, in the walk's deterministic order: by
    orbit choice, each orbit taken or skipped in order of least member
    chord. d = 1 is the plain enumeration, in lexicographic order."""
    check_n(n, k)
    check_d(d, n)
    if d == 1:
        yield from enumerate_forests(n, k)
        return
    chords = chord_table(n)
    for t in _iter_invariant_index_sets(n, k, d):
        yield NonCrossingForest._unchecked(n, tuple(chords[i] for i in t))
