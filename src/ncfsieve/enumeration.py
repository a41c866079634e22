"""Exhaustive generation of non-crossing forests and their rotation-fixed
subsets.

The core is one backtracking walk over the chord list in lexicographic
order, kept in bitmasks. A frame holds a single int: the chords that may
still join the selection, which is ~(banned | closed) & after(last) with

* banned: the OR of the precomputed crossing masks of the chosen chords,
* closed: the chords whose two endpoints already lie in one component,
* after(last): the chords after the last one chosen.

Every frame runs one candidate loop, lowest chord first. Choosing chord
i removes from the candidates the chords that cross it and, as i merges
components A and B, the chords with one end in each: star[A] & star[B],
where star[r] is the OR of the chords incident to the vertices of the
component rooted at r. A union-find with an undo stack finds those two
roots, once per candidate tried. It links the smaller root under the
larger, so the root of each component is its largest vertex. Three
cuts keep the walk off dead ends; each drops only subtrees that hold no
forest asked for, so the walk still meets every one:

* count: the loop's condition, no fewer candidates than chords to choose;
* floor: every chord after (u, v) in the order has both ends at u or
  above, so once (u, v) is chosen a component whose largest vertex is below
  u is final. The forest keeps those components and has at least one more,
  the one of u, so choosing (u, v) with k of them already final leads
  nowhere. Neither does any later candidate at that node, whose first end
  is no smaller, so the node is left there;
* rotation: a forest fixed by r holds r(S) for every S inside it, so
  r(S) minus S must lie among the chords still to choose. At d >= 2 the
  walk carries S and r(S) down, one OR per chosen chord, and does not
  enter a node where r(S) minus S outnumbers the chords still to choose
  or holds a chord outside the node's candidates.

One chord short of a forest, the candidates below chord i are the chords
that complete the prefix with i, so the loop pushes no frame and handles
the prefix with its whole completing mask instead of visiting the leaves
one by one. This group is also where the fixed-point filter runs: at
d >= 2 the walk tests the prefix once against the rotation and keeps the
mask of completions that give a fixed forest. One walk serves one d.
Enumeration has the walk yield each mask and expands it low bit first,
which keeps the stream lexicographic and lazy. Counting asks the walk to
tally instead: it adds each mask's popcount to a local sum and yields that
sum alone when it ends, so no group leaves the walk and no forest is
built. No forest is rotated whole, so the filter route's count
(count_forests with d) and its stream (enumerate_forests with d) read the
same test.

Rotation-fixed forests can additionally be generated directly by
backtracking over whole chord orbits of the rotation, which stays cheap at
sizes where the walk over all of F(n, k) is hopeless. That walk is kept in
orbit-index masks: a frame is one int, the orbits that may still join,
which is after(last) & ~crossing & fits(left) with

* crossing: the OR of the precomputed masks of the orbits that cross a
  chosen one,
* fits(left): the orbits with at most as many chords as are still to
  choose.

The orbit table behind those masks reads its own crossings, one row per
orbit, the chords its least chord crosses (rotation maps crossings to
crossings), and none of the filter walk's all-pairs masks.

An orbit that closes a cycle is found by union-find when it is tried. One
cut keeps the walk off dead ends: no orbit has more than d chords, so a
frame whose candidates number fewer than (chords still to choose) / d
holds no fixed forest and is left. Each mask and the cut drop only orbit
choices that complete nothing, so the walk meets every fixed forest, in
the order of an uncut walk. It yields each forest as the chords of its
chosen orbits, unsorted, and the stream sorts them into the edge list;
the orbit route's count counts the yields and builds no forest. The
orbit route walks its own orbits at every d, d = 1 included, where every
orbit is one chord, so it shares no walk with the fixed-point filter:
the two are independent count routes in sieving.ROUTES. The bijection
route takes its small forests from the orbit walk at d = 1.
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
    undo_joins,
    union_edges,
)


def divisors(n: int) -> tuple[int, ...]:
    return tuple(d for d in range(1, n + 1) if n % d == 0)


def chord_table(n: int) -> tuple[Chord, ...]:
    """All chords of the n-circle in lexicographic order."""
    return tuple((u, v) for u in range(1, n) for v in range(u + 1, n + 1))


# One entry per n <= 12 the walks reach (csp-sweep: 134 hits, 9 misses); a
# build takes 0.9-2.0 ms at n = 10-12 on a 2-core x86 machine.
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


def rotation_perm(n: int, s: int) -> tuple[int, ...]:
    """Permutation of chord indices induced by rotating s steps."""
    idx = {c: i for i, c in enumerate(chord_table(n))}
    return tuple(
        idx[chord(rotate_label(u, s, n), rotate_label(v, s, n))]
        for (u, v) in chord_table(n)
    )


def _leaf_groups(n: int, k: int, d: int = 1, tally: bool = False):
    """Yield (prefix, fixed) for every node of the walk that is one chord
    short of a forest in F(n, k), for k < n, at which fixed is not 0.

    With tally, the walk yields one int and nothing else: it adds
    fixed.bit_count() to a local int at each group instead, and yields that
    sum when it ends, the number of forests in F(n, k) that the rotation of
    order d fixes.

    prefix is the mask of the chosen chord indices and fixed the mask of
    chords j above prefix's highest such that prefix + {j} is a forest of
    F(n, k) that the rotation r of order d maps onto itself. At d = 1 every
    completion counts and no rotation is tested. For d >= 2 let S be the
    prefix; since |r(S)| = |S|:

    * r(S) = S: the fixed forests are those whose j is fixed by r itself;
    * r(S) minus S is one chord j: only S + {j} can be fixed, and it is
      when j completes S and r(j) is the one chord of S outside r(S);
    * otherwise none is, and the test stops at the second missing chord.

    The union-find links the smaller root under the larger, so its roots
    are the largest vertices of the components, and tops is the mask of the
    roots. The floor cut counts the roots below the floor. Each join pushes
    (child, root, star of the root, prefix, r(prefix)) on the undo stack,
    and the pop restores the root's star, the prefix and r(prefix) from it
    and makes the child a root again.

    One candidate loop runs per frame, with the count cut as its condition,
    exact at the last level too: the chord tried needs one more after it. A
    candidate i meets the floor cut, which leaves the node, then the root
    finds that give nxt, the candidates below it. At the last level nxt, the
    completions of prefix + [i], goes through the test above; higher up the
    rotation cut and the push follow. The floor cut is exact because no
    chord chosen later touches a vertex below the floor, the first end of
    the last chord chosen, so a component final there is a component of
    every forest below the node. The rotation cut is exact because a fixed
    forest F that holds S holds r(S) too, and r(S) minus S lies in F minus
    S, which has as many chords as are still to choose and lies inside the
    candidates of the node below: chords after the last one chosen that
    cross no chord of S and join no two vertices S connects. At the last
    level it is the test above, and the r(prefix) carried down, one mask on
    the undo stack, makes that test one OR per candidate. Groups
    come in lexicographic order of prefix, so expanding each mask low bit
    first lists the forests in lexicographic order.
    """
    need = n - k
    chords = chord_table(n)
    cross = _cross_masks(n)
    m = len(chords)
    full = (1 << m) - 1
    rot = d > 1
    if rot:
        perm = rotation_perm(n, n // d)
        rbit = tuple(1 << j for j in perm)  # the rotated bit per chord
        fixed = sum(1 << i for i in range(m) if perm[i] == i)
    else:
        fixed = full
    if need == 1:
        if tally:
            yield fixed.bit_count()
        elif fixed:
            yield 0, fixed
        return
    star = [0] * (n + 1)
    for i, (u, v) in enumerate(chords):
        star[u] |= 1 << i
        star[v] |= 1 << i
    parent = list(range(n + 1))
    tops = (1 << (n + 1)) - 2  # bit w: w is a root, its component's largest vertex
    below = [(1 << u) - 1 for u in range(n + 1)]  # the vertices below u
    undo: list[tuple[int, int, int, int, int]] = []
    stack = [full]  # candidate mask per depth
    sp = 0  # the prefix as a mask
    rsp = rs = 0  # r(prefix), and r of the prefix with one chord more
    total = 0  # the popcounts, when tallying
    # Inline union-find: a root-find call per chord made this walk 6% slower.
    while stack:
        cand = stack[-1]
        want = need + 1 - len(stack)  # chords still to choose, this one included
        while cand.bit_count() >= want:
            low = cand & -cand
            cand ^= low
            i = low.bit_length() - 1
            u, v = chords[i]
            if (tops & below[u]).bit_count() >= k:
                cand = 0  # the floor cut; later candidates start no lower
                continue
            while parent[u] != u:
                u = parent[u]
            while parent[v] != v:
                v = parent[v]
            nxt = cand & ~(cross[i] | star[u] & star[v])
            if rot:
                s = sp | low
                rs = rsp | rbit[i]
                miss = rs & ~s
            if want == 2:  # nxt is the mask of chords completing prefix + [i]
                if rot:
                    if not miss:
                        nxt &= fixed
                    elif miss & (miss - 1) or rbit[miss.bit_length() - 1] != s & ~rs:
                        continue
                    else:
                        nxt &= miss
                if tally:
                    total += nxt.bit_count()
                elif nxt:
                    yield sp | low, nxt
                continue
            if rot and (miss & ~nxt or miss.bit_count() > want - 1):
                continue  # the rotation cut
            if u < v:
                u, v = v, u
            stack[-1] = cand
            stack.append(nxt)
            undo.append((v, u, star[u], sp, rsp))
            parent[v] = u
            star[u] |= star[v]
            tops ^= 1 << v
            sp |= low
            rsp = rs
            break
        else:
            stack.pop()
            if undo:
                v, u, star[u], sp, rsp = undo.pop()
                parent[v] = v
                tops ^= 1 << v
    if tally:
        yield total


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
    for prefix, fixed in _leaf_groups(n, k, d):
        head = ()
        while prefix:
            low = prefix & -prefix
            prefix ^= low
            head += (chords[low.bit_length() - 1],)
        while fixed:
            low = fixed & -fixed
            fixed ^= low
            yield NonCrossingForest._unchecked(
                n, head + (chords[low.bit_length() - 1],)
            )


def count_forests(n: int, k: int, d: int = 1) -> int:
    """The number of forests in F(n, k) that the rotation of order d maps
    onto themselves; at d = 1, |F(n, k)|. The filter route's count of one
    cell: the walk for this d alone, tallying its popcounts and yielding
    their sum as its one value."""
    check_n(n, k)
    check_d(d, n)
    if k == n:
        return 1
    (count,) = _leaf_groups(n, k, d, tally=True)
    return count


# One entry per (n, d), 35 for n <= 12 (csp-sweep: 102 hits, 21 misses); a
# build takes 0.3-4.8 ms at n = 10-12 on a 2-core x86 machine.
@lru_cache(maxsize=None)
def _orbit_table(n: int, d: int):
    """Chord orbits under rotation by n/d steps, dropping orbits whose own
    members cross each other (no invariant forest can use them), in order
    of least member chord. Returns (sizes, crossing, ends, fits): per orbit
    its chord count, the mask of the orbits it crosses and its member
    chords in order; fits[r] is the mask of the orbits with at most r
    chords, for 0 <= r < n.

    One row per orbit, the chords its least chord crosses, is enough:
    rotation maps crossings to crossings, so an orbit meets another, or
    itself, exactly when its row holds a chord of that orbit.
    """
    perm = rotation_perm(n, n // d)
    chords = chord_table(n)
    seen = [False] * len(chords)
    orbits = []  # (row, members mask) per orbit kept
    for i, least in enumerate(chords):
        if seen[i]:
            continue  # else i is the least chord of its orbit
        omask = 0
        j = i
        while not seen[j]:
            seen[j] = True
            omask |= 1 << j
            j = perm[j]
        row = sum(1 << j for j, c in enumerate(chords) if crosses(least, c, n))
        if not row & omask:
            orbits.append((row, omask))
    sizes = tuple(omask.bit_count() for _, omask in orbits)
    crossing = tuple(
        sum(1 << b for b, (_, omask) in enumerate(orbits) if row & omask)
        for row, _ in orbits
    )
    ends = tuple(
        tuple(c for j, c in enumerate(chords) if omask >> j & 1) for _, omask in orbits
    )
    fits = tuple(
        sum(1 << a for a, sz in enumerate(sizes) if sz <= r) for r in range(n)
    )
    return sizes, crossing, ends, fits


def _orbit_walk(n: int, k: int, d: int):
    """Every d-invariant forest in F(n, k), generated orbit by orbit: each
    orbit taken or skipped in order of least member chord. Yields (chosen,
    leaf) per forest: chosen is the list of the chords of the orbits taken
    on the way down (one list, reused: copy it to keep it) and leaf the
    chords of the orbit that completes the forest. Together they are the
    forest's edges, unsorted.

    A frame is one int, the mask of the orbits that may still join: those
    after the last one chosen, less the orbits that cross a chosen one,
    less the orbits with more chords than are still to choose. An orbit
    joins when its chords close no cycle, tested by union_edges on a
    union-find with undo, and undo_joins takes it back; its chords are
    appended to chosen on the join and cut off again on the undo. A leaf
    orbit, one that uses up the chords still to choose, is joined, handed
    out and taken back inside the candidate loop, with no frame of its
    own.

    The count cut: every orbit has at most d chords, so a frame whose d *
    popcount(candidates) is below the chords still to choose completes
    nothing. The walk leaves such a frame, and skips a candidate whose own
    frame would be one before it joins anything. The cut and the masks
    drop only orbit choices that complete no forest, so the walk meets
    every fixed forest, in the order of an uncut walk.
    """
    need = n - k
    if need == 0:
        yield [], ()
        return
    sizes, crossing, ends, fits = _orbit_table(n, d)
    parent = list(range(n + 1))
    undo: list[int] = []
    stack = [fits[need]]  # candidate orbits per depth
    taken: list[int] = []  # the orbit chosen at each depth below the first
    chosen: list[Chord] = []  # the chords of the taken orbits
    left = need  # chords still to choose
    while stack:
        cand = stack[-1]
        while cand and d * cand.bit_count() >= left:
            low = cand & -cand
            cand ^= low
            j = low.bit_length() - 1
            sz = sizes[j]
            rest = left - sz
            if not rest:  # a leaf orbit
                if union_edges(parent, undo, ends[j]) == sz:
                    yield chosen, ends[j]
                    undo_joins(parent, undo, sz)
                continue
            nxt = cand & ~crossing[j] & fits[rest]
            if d * nxt.bit_count() < rest:
                continue  # the count cut, before any join
            if union_edges(parent, undo, ends[j]) < sz:
                continue  # the orbit closes a cycle, and nothing was joined
            stack[-1] = cand
            stack.append(nxt)
            taken.append(j)
            left = rest
            chosen += ends[j]
            break
        else:
            stack.pop()
            if taken:
                j = taken.pop()
                sz = sizes[j]
                undo_joins(parent, undo, sz)
                left += sz
                del chosen[-sz:]


def count_invariant(n: int, k: int, d: int) -> int:
    """The orbit route's count of one cell: the yields of the orbit walk
    counted, no forest built."""
    check_n(n, k)
    check_d(d, n)
    return sum(1 for _ in _orbit_walk(n, k, d))


def enumerate_invariant(n: int, k: int, d: int):
    """Stream the forests in F(n, k) fixed by the rotation of order d, for
    any d | n: the orbit route. They come straight from the orbit walk and
    are yielded as found, in its deterministic order: by orbit choice, each
    orbit taken or skipped in order of least member chord. Each forest's
    edges are the chords of its chosen orbits, sorted in one C sort.

    At d = 1 every orbit is one chord and the order is lexicographic, the
    filter walk's order; the bijection route takes its small forests from
    here at d = 1, so that it shares no walk with the filter route.

    >>> [f.edges for f in enumerate_invariant(4, 2, 2)]
    [((1, 2), (3, 4)), ((1, 4), (2, 3))]
    """
    check_n(n, k)
    check_d(d, n)
    for chosen, leaf in _orbit_walk(n, k, d):
        edges = [*chosen, *leaf]
        edges.sort()
        yield NonCrossingForest._unchecked(n, tuple(edges))
