"""Exhaustive generation of non-crossing forests and their rotation-fixed
subsets.

The core is one backtracking walk over the chord list in lexicographic
order, kept in bitmasks. A frame holds a single int: the chords that may
still join the selection, which is ~(banned | closed) & after(last) with

* banned: the OR of the precomputed crossing masks of the chosen chords,
* closed: the chords whose two endpoints already lie in one component,
* after(last): the chords after the last one chosen.

Choosing chord i removes from the candidates the chords that cross it
and, as i merges components A and B, the chords with one end in each:
star[A] & star[B], where star[r] is the OR of the chords incident to the
vertices of the component rooted at r. A union-find with an undo stack
finds those two roots, once per chosen chord, and keeps the largest vertex
of each component. Three cuts keep the walk off dead ends; each drops only
subtrees that hold no forest asked for, so the walk still meets every one:

* count: a node with fewer candidates than chords still to choose is cut;
* floor: every chord after (u, v) in the order has both ends at u or
  above, so once (u, v) is chosen a component whose largest vertex is below
  u is final. The forest keeps those components and has at least one more,
  the one of u, so choosing (u, v) with k of them already final leads
  nowhere. Neither does any later candidate at that node, whose first end
  is no smaller, so the node is left there;
* rotation: a forest fixed by r holds r(S) for every S inside it, so
  r(S) minus S must lie among the chords still to choose. Each rotation
  carries S and r(S) down the walk, one OR per chosen chord, and is
  dropped below the first node where r(S) minus S outnumbers the chords
  still to choose or holds a chord outside the node's candidates. A
  subtree with no rotation left, when d = 1 is not asked for, is not
  entered.

At a node one chord short of a forest, every remaining candidate completes
one, so the walk handles the prefix with its whole completing mask instead
of visiting the leaves one by one. This group is also where the fixed-point
filter runs: for each rotation asked for, the walk tests the prefix once
and yields the mask of completions that give a fixed forest. Enumeration
expands a mask low bit first, which keeps the stream lexicographic and
lazy; counting takes its popcount. No forest is rotated whole, so the
filter route's count (count_forests with d, or invariant_counts for every
d at once) and its stream (enumerate_forests with d) read the same test.

Rotation-fixed forests can additionally be generated directly by
backtracking over whole chord orbits of the rotation, which stays cheap at
sizes where the walk over all of F(n, k) is hopeless. That walk is kept in
orbit-index masks: a frame is one int, the orbits that may still join,
which is after(last) & ~crossing & fits(left) with

* crossing: the OR of the precomputed masks of the orbits that cross a
  chosen one,
* fits(left): the orbits with at most as many chords as are still to
  choose.

An orbit that closes a cycle is found by union-find when it is tried. One
cut keeps the walk off dead ends: no orbit has more than d chords, so a
frame whose candidates number fewer than (chords still to choose) / d
holds no fixed forest and is left. Each mask and the cut drop only orbit
choices that complete nothing, so the walk meets every fixed forest, in
the order of an uncut walk. It yields each forest as a chord mask, whose
bits read low first are its sorted edge list. This orbit route and the
fixed-point filter are two of the count routes in sieving.ROUTES.
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


# One entry per n <= 12 the walks reach (csp-sweep: 261 hits, 9 misses).
@lru_cache(maxsize=None)
def chord_table(n: int) -> tuple[Chord, ...]:
    """All chords of the n-circle in lexicographic order."""
    return tuple((u, v) for u in range(1, n) for v in range(u + 1, n + 1))


# One entry per n <= 12 the walks reach (csp-sweep: 78 hits, 9 misses).
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


# One entry per (n, n/d), 35 for n <= 12 (csp-sweep: 98 hits, 17 misses).
@lru_cache(maxsize=None)
def rotation_perm(n: int, s: int) -> tuple[int, ...]:
    """Permutation of chord indices induced by rotating s steps."""
    idx = {c: i for i, c in enumerate(chord_table(n))}
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

    On the way down the walk applies the count, floor and rotation cuts of
    the module docstring. The floor cut is exact because no chord chosen
    later touches a vertex below the floor, the first end of the last chord
    chosen, so a component final there is a component of every forest below
    the node. The rotation cut is exact because a fixed forest F that holds
    S holds r(S) too, and r(S) minus S lies in F minus S, which has as many
    chords as are still to choose and lies inside the candidates of the
    node below: chords after the last one chosen that cross no chord of S
    and join no two vertices S connects. At the last level it is the test
    above, and the r(prefix) carried down makes that test one OR per
    candidate and rotation. Groups come in lexicographic order of prefix,
    so expanding each mask low bit first lists the forests in
    lexicographic order.
    """
    need = n - k
    chords = chord_table(n)
    cross = _cross_masks(n)
    m = len(chords)
    full = (1 << m) - 1
    plain = 1 in ds  # d = 1 takes every completion, with no rotation tested
    rots = []  # (d, rotated bit per chord, fixed chords, r(prefix))
    for d in ds:
        if d > 1:
            perm = rotation_perm(n, n // d)
            fixed = sum(1 << i for i in range(m) if perm[i] == i)
            rots.append((d, tuple(1 << j for j in perm), fixed, 0))
    prefix: list[int] = []
    if need == 1:
        if plain:
            yield prefix, 1, full
        for d, _, fixed, _ in rots:
            if fixed:
                yield prefix, d, fixed
        return
    star = [0] * (n + 1)
    for i, (u, v) in enumerate(chords):
        star[u] |= 1 << i
        star[v] |= 1 << i
    parent = list(range(n + 1))
    size = [1] * (n + 1)
    top = list(range(n + 1))  # largest vertex of each root's component
    tops = (1 << (n + 1)) - 2  # bit w: w is the top of its component
    below = [(1 << u) - 1 for u in range(n + 1)]  # the vertices below u
    undo: list[tuple[int, int, int, int, int]] = []
    last = need - 2  # depth whose chosen chord leaves one to go
    stack = [full]  # candidate mask per depth
    lives = [rots]  # rotations still possible below each depth
    sp = 0  # the prefix as a mask
    # Inline union-find: a root-find call per chord made this walk 6% slower.
    while stack:
        depth = len(stack) - 1
        cand = stack[-1]
        if depth == last:
            live = lives[-1]
            prefix.append(0)
            while cand:
                low = cand & -cand
                cand ^= low
                i = low.bit_length() - 1
                u, v = chords[i]
                if (tops & below[u]).bit_count() >= k:
                    break  # floor cut; later candidates start no lower
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
                if live:
                    s = sp | low
                    for d, rbit, fixed, rsp in live:
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
            i = low.bit_length() - 1
            u, v = chords[i]
            if (tops & below[u]).bit_count() < k:  # else the floor cut
                cand ^= low
                stack[-1] = cand
                while parent[u] != u:
                    u = parent[u]
                while parent[v] != v:
                    v = parent[v]
                nxt = cand & ~(cross[i] | star[u] & star[v])
                s = sp | low
                left = need - depth - 1
                live = []  # the rotation cut
                for d, rbit, fixed, rsp in lives[-1]:
                    rs = rsp | rbit[i]
                    miss = rs & ~s
                    if not miss & ~nxt and miss.bit_count() <= left:
                        live.append((d, rbit, fixed, rs))
                if not (plain or live):
                    continue
                if size[u] < size[v]:
                    u, v = v, u
                stack.append(nxt)
                lives.append(live)
                undo.append((v, u, star[u], top[u], tops))
                parent[v] = u
                size[u] += size[v]
                star[u] |= star[v]
                if top[v] < top[u]:
                    tops ^= 1 << top[v]
                else:
                    tops ^= 1 << top[u]
                    top[u] = top[v]
                prefix.append(i)
                sp = s
                continue
        stack.pop()
        lives.pop()
        if undo:
            v, u, star[u], top[u], tops = undo.pop()
            parent[v] = v
            size[u] -= size[v]
            sp ^= 1 << prefix.pop()


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


def count_forests(n: int, k: int, d: int = 1) -> int:
    """The number of forests in F(n, k) that the rotation of order d maps
    onto themselves; at d = 1, |F(n, k)|. The filter route's count of one
    cell: the popcounts of the masks the walk yields for this d alone."""
    check_n(n, k)
    check_d(d, n)
    if k == n:
        return 1
    return sum(fixed.bit_count() for _, _, fixed in _leaf_groups(n, k, (d,)))


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


# One entry per (n, d), 35 for n <= 12 (csp-sweep: 81 hits, 17 misses).
@lru_cache(maxsize=None)
def _orbit_table(n: int, d: int):
    """Chord orbits under rotation by n/d steps, dropping orbits whose own
    members cross each other (no invariant forest can use them), sorted by
    least member chord. Returns (sizes, crossing, members, ends, fits):
    per orbit its chord count, the mask of the orbits it crosses, the mask
    of its member chords and its member chords in order; fits[r] is the
    mask of the orbits with at most r chords, for 0 <= r < n."""
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
        if not cmask & omask:
            orbits.append((min(orb), len(orb), cmask, omask))
    orbits.sort()
    sizes = tuple(sz for _, sz, _, _ in orbits)
    crossing = tuple(
        sum(1 << b for b, other in enumerate(orbits) if cmask & other[3])
        for _, _, cmask, _ in orbits
    )
    members = tuple(omask for _, _, _, omask in orbits)
    ends = tuple(
        tuple(chords[j] for j in range(m) if omask >> j & 1) for omask in members
    )
    fits = tuple(
        sum(1 << a for a, sz in enumerate(sizes) if sz <= r) for r in range(n)
    )
    return sizes, crossing, members, ends, fits


def _invariant_masks(n: int, k: int, d: int):
    """Chord masks of every d-invariant forest in F(n, k), generated orbit
    by orbit: each orbit taken or skipped in order of least member chord.

    A frame is one int, the mask of the orbits that may still join: those
    after the last one chosen, less the orbits that cross a chosen one,
    less the orbits with more chords than are still to choose. An orbit
    joins when its chords close no cycle, tested by union_edges on a
    union-find with undo.

    The count cut: every orbit has at most d chords, so a frame whose d *
    popcount(candidates) is below the chords still to choose completes
    nothing. The walk leaves such a frame, and skips a candidate whose own
    frame would be one before it joins anything. The cut and the masks
    drop only orbit choices that complete no forest, so the walk meets
    every fixed forest, in the order of an uncut walk.
    """
    need = n - k
    if need == 0:
        yield 0
        return
    sizes, crossing, members, ends, fits = _orbit_table(n, d)
    parent = list(range(n + 1))
    size = [1] * (n + 1)
    undo: list[tuple[int, int]] = []
    stack = [fits[need]]  # candidate orbits per depth
    taken: list[int] = []  # the orbit chosen at each depth below the first
    left = need  # chords still to choose
    mask = 0  # the chosen chords
    while stack:
        cand = stack[-1]
        while cand and d * cand.bit_count() >= left:
            low = cand & -cand
            cand ^= low
            j = low.bit_length() - 1
            sz = sizes[j]
            rest = left - sz
            nxt = cand & ~crossing[j] & fits[rest]
            if d * nxt.bit_count() < rest:
                continue  # the count cut, before any join
            if union_edges(parent, size, undo, ends[j]) < sz:
                continue  # the orbit closes a cycle, and nothing was joined
            stack[-1] = cand
            stack.append(nxt)  # with no chord left, fits[0] is empty
            taken.append(j)
            left = rest
            mask |= members[j]
            if not rest:
                yield mask
            break
        else:
            stack.pop()
            if taken:
                j = taken.pop()
                sz = sizes[j]
                for _ in range(sz):
                    rv, ru = undo.pop()
                    size[ru] -= size[rv]
                    parent[rv] = rv
                left += sz
                mask ^= members[j]


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
    for mask in _invariant_masks(n, k, d):
        edges = []
        while mask:  # low bit first: the sorted edge list
            low = mask & -mask
            mask ^= low
            edges.append(chords[low.bit_length() - 1])
        yield NonCrossingForest._unchecked(n, tuple(edges))
