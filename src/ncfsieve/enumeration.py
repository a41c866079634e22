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
one, so the walk yields the prefix with its whole completing mask instead
of visiting the leaves one by one. Enumeration expands the mask low bit
first, which keeps the stream lexicographic and lazy; counting takes its
popcount; the fixed-point filter tests the prefix once per rotation and
reads the fixed completions off the mask.

Rotation-fixed forests can additionally be generated directly by the same
backtracking over whole chord orbits of the rotation subgroup, which stays
cheap at sizes where filtering the full stream is hopeless. This orbit
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


def _leaf_groups(n: int, k: int):
    """Yield (prefix, completing) for every node of the walk that is one
    chord short of a forest in F(n, k), for k < n.

    prefix is the increasing list of chosen chord indices (one list, reused:
    copy it to keep it) and completing the nonzero mask of chords j after
    prefix[-1] such that prefix + [j] is a forest of F(n, k). Groups come in
    lexicographic order of prefix, so expanding each mask low bit first
    lists F(n, k) in lexicographic order.
    """
    need = n - k
    chords = chord_table(n)
    cross = _cross_masks(n)
    full = (1 << len(chords)) - 1
    prefix: list[int] = []
    if need == 1:
        yield prefix, full
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
                if completing:
                    prefix[last] = i
                    yield prefix, completing
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


def enumerate_forests(n: int, k: int):
    """Stream every non-crossing forest on n vertices with k components.

    Deterministic: lexicographic in the canonical sorted edge list, no
    duplicates, nothing materialized.
    """
    check_n(n, k)
    if k == n:
        yield NonCrossingForest._unchecked(n, ())
        return
    chords = chord_table(n)
    for prefix, completing in _leaf_groups(n, k):
        head = tuple(chords[i] for i in prefix)
        while completing:
            low = completing & -completing
            completing ^= low
            yield NonCrossingForest._unchecked(
                n, head + (chords[low.bit_length() - 1],)
            )


def count_forests(n: int, k: int) -> int:
    """|F(n, k)| by the walk: the popcounts of the completing masks, with
    no forest built."""
    check_n(n, k)
    if k == n:
        return 1
    return sum(completing.bit_count() for _, completing in _leaf_groups(n, k))


def invariant_counts(n: int, k: int) -> dict[int, int]:
    """Fixed-forest counts for every d | n in one pass of the walk.

    counts[1] sums the completing masks' popcounts. For d >= 2 let r be the
    rotation of order d and S a group's prefix; a forest S + {j} is fixed
    when r maps it onto itself. Since |r(S)| = |S|:

    * r(S) = S: the fixed forests are those whose j is fixed by r itself,
      completing & fixed_d;
    * r(S) minus S is one chord j: only S + {j} can be fixed, and it is
      when j completes S and r(j) is the one chord of S outside r(S);
    * otherwise none is, and the test stops at the second chord of S whose
      image is missing.
    """
    check_n(n, k)
    if k == n:
        return dict.fromkeys(divisors(n), 1)
    counts = dict.fromkeys(divisors(n), 0)
    m = len(chord_table(n))
    rots = []
    for d in divisors(n)[1:]:
        perm = rotation_perm(n, n // d)
        fixed = sum(1 << i for i in range(m) if perm[i] == i)
        rots.append((d, tuple(1 << j for j in perm), fixed))
    leaves = 0
    for prefix, completing in _leaf_groups(n, k):
        leaves += completing.bit_count()
        s = 0
        for i in prefix:
            s |= 1 << i
        for d, rbit, fixed in rots:
            missing = rs = 0
            for i in prefix:
                b = rbit[i]
                rs |= b
                if not s & b:
                    if missing:
                        break
                    missing = b
            else:
                if not missing:
                    counts[d] += (completing & fixed).bit_count()
                elif completing & missing:
                    if rbit[missing.bit_length() - 1] == s & ~rs:
                        counts[d] += 1
    counts[1] = leaves
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
