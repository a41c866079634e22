"""Test-only oracles for the regions of the periodic decomposition and for
the trees of an invariant forest.

The library reads which gaps share a region off one chord sweep. The
functions here derive the same facts another way, so the tests can play the
two against each other: the window start from which gaps share the
center's region, and the good vertices from the set of chords enclosing
each gap. tree_extents finds the trees by their union-find labels
(component_labels) and sorts each tree's vertices together with its
image's; sets_tree_extents finds the trees by a graph search, rotates each
as a set and merges it with its image. Both walk a sorted merge for the
handoff, so the oracle's independence rests on its graph search for the
trees. rotate builds a forest's rotation
whole, the oracle for NonCrossingForest.is_d_invariant, and components
groups the vertices by NonCrossingForest.component_labels.
orbit_table_by_pairs builds the orbit walk's table from the filter walk's
all-pairs crossing masks, one row per chord, where the library reads one
row per orbit.
"""

from ncfsieve.bijections import BijectionError, TreeExtent
from ncfsieve.enumeration import _cross_masks, chord_table, rotation_perm
from ncfsieve.forest import NonCrossingForest


def signature_good_vertices(forest: NonCrossingForest) -> frozenset[int]:
    """Independent derivation of classify_vertices(forest), the good vertices.

    Group the vertices by the set of chords (a, b) with a < v <= b, the
    chords that enclose the gap just before v, and keep the first vertex of
    each group in scan order 1, n, n-1, ..., 2.
    """
    n = forest.n
    groups: dict[frozenset, list[int]] = {}
    for v in range(1, n + 1):
        sig = frozenset(e for e in forest.edges if e[0] < v <= e[1])
        groups.setdefault(sig, []).append(v)
    return frozenset(min(vs, key=lambda v: (1 - v) % n) for vs in groups.values())


def raycast_window_start(forest: NonCrossingForest, d: int) -> int:
    """Independent derivation of decompose_periodic's window start.

    The cut gaps that work are exactly the gaps lying in the same region of
    the chord arrangement as the circle's center, so walk the scan order and
    return the first gap no chord separates from the center. A chord (a, b)
    pens a gap away from the center when the gap sits on the chord's minor
    side.
    """
    n = forest.n
    np_ = n // d
    for t in range(np_):
        w = (-t) % n + 1
        trapped = False
        for a, b in forest.edges:
            span = b - a
            if 2 * span == n:
                raise BijectionError("diameter edge in the periodic regime")
            inside = a < w <= b
            minor_is_inside = 2 * span < n
            if inside == minor_is_inside:
                trapped = True
                break
        if not trapped:
            return w
    raise BijectionError("no gap shares the center's region")


def handoff(src: set[int], dst: set[int]) -> tuple[int, int]:
    """The unique step (u, w) in circular order over the vertices of src
    and dst that goes from u in src to w in dst."""
    seq = sorted(src | dst)
    hits = [(u, w) for u, w in zip(seq, seq[1:] + seq[:1]) if u in src and w in dst]
    if len(hits) != 1:
        raise BijectionError(
            f"expected one transition in circular order, found {len(hits)}"
        )
    return hits[0]


def search_components(forest: NonCrossingForest) -> list[frozenset[int]]:
    """The trees of a forest as vertex sets, ordered by least vertex, found
    by a depth-first search over the edges."""
    adj: dict[int, list[int]] = {x: [] for x in range(1, forest.n + 1)}
    for u, v in forest.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen: set[int] = set()
    comps = []
    for x in adj:
        if x in seen:
            continue
        seen.add(x)
        stack, comp = [x], {x}
        while stack:
            for y in adj[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    comp.add(y)
                    stack.append(y)
        comps.append(frozenset(comp))
    return comps


def sets_tree_extents(forest: NonCrossingForest, d: int) -> tuple[TreeExtent, ...]:
    """Independent derivation of tree_extents(forest, d) on a d-invariant
    forest: rotate each tree as a set, then merge it with its image."""
    n = forest.n
    s = n // d
    extents = []
    for comp in search_components(forest):
        tree = tuple(sorted(comp))
        image = {(x - 1 + s) % n + 1 for x in comp}
        if image == comp:
            extents.append(TreeExtent(tree, None, None, True))
            continue
        if image & comp:
            raise BijectionError(f"tree {tree} partially overlaps its rotation image")
        # The entry into T from its preimage is the exit from T into its
        # image rotated back one step.
        last, w = handoff(set(comp), image)
        extents.append(TreeExtent(tree, (w - 1 - s) % n + 1, last, False))
    return tuple(extents)


def rotate(forest: NonCrossingForest, s: int) -> NonCrossingForest:
    """The forest after s clockwise rotation steps, built whole. Rotation
    is a symmetry of the circle, so the result is again a valid
    non-crossing forest; rotate(forest, n) is the forest itself."""
    n = forest.n
    s %= n
    if s == 0 or not forest.edges:
        return forest
    t = n - s  # labels above t wrap around to 1
    moved = []
    for u, v in forest.edges:
        u = u + s if u <= t else u - t
        v = v + s if v <= t else v - t
        moved.append((u, v) if u < v else (v, u))
    moved.sort()
    return NonCrossingForest._unchecked(n, tuple(moved))


def components(forest: NonCrossingForest) -> tuple[frozenset[int], ...]:
    """The trees of a forest as vertex sets, ordered by least vertex, read
    off the library's component_labels."""
    groups: dict[int, list[int]] = {}
    for x, root in enumerate(forest.component_labels()[1:], 1):
        groups.setdefault(root, []).append(x)
    return tuple(frozenset(g) for g in groups.values())


def orbit_table_by_pairs(n: int, d: int):
    """Independent derivation of enumeration._orbit_table(n, d): each
    orbit's crossing mask is the OR of the all-pairs rows of every member
    chord, and the orbits are sorted by least member chord."""
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
    ends = tuple(
        tuple(chords[j] for j in range(m) if omask >> j & 1)
        for _, _, _, omask in orbits
    )
    fits = tuple(
        sum(1 << a for a, sz in enumerate(sizes) if sz <= r) for r in range(n)
    )
    return sizes, crossing, ends, fits
