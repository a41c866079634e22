"""Structural maps between rotation-invariant forests and smaller marked
forests.

A non-crossing forest fixed by the rotation of order d is a repeating
pattern: one window of n/d consecutive vertices determines everything else.
Fixed forests exist in exactly two regimes, and each gets a bijection.

d divides the component count
    The forest is d rotated copies of a forest phi on n/d vertices laid side
    by side. Cutting it back open needs a canonical cut point. The chords of
    phi carve the disk into regions (one more region than there are edges),
    cutting at two vertices of the same region gives the same glued forest,
    and each region contributes one canonical representative, a "good"
    vertex. Good vertices therefore parametrize the fibers exactly:
    |fixed| = (#regions) * |F(n/d, k/d)|.

d = 2, component count odd
    The half turn permutes the trees and an odd count forces a tree mapped
    to itself. A tree can only survive an order-2 rotation through an edge
    joining antipodal vertices, so the forest carries a unique diameter
    edge. Contracting it folds the forest onto a forest on n/2 vertices plus
    a mark recording how the fold point's neighbors split between the two
    diameter endpoints: either a bare vertex (everything on one side) or an
    incident edge naming where the split starts.

Each map checks its input and the canonical choices the theory makes, and
raises BijectionError when one fails: the constructions, the vertex, the
fold or the mark and that the cut vertex is good; the decompositions, the
forest's invariance (is_d_invariant compares sorted rotated chords, with no
forest built) and regime, the unique diameter or edge-closed window and the
count of the edges they fold, and they rederive the cut vertex or the mark
from scratch. The constructions do not test their image again: each places
every chord of phi at all its rotated positions, so the image is invariant
whatever the input. Round trips through both directions are checked
exhaustively by the test suite. Each map computes labels by inline
arithmetic and builds every forest it returns, image or phi, through the
validating NonCrossingForest constructor, which also orders each chord.

tree_extents describes the orbit structure behind both regimes: it reads
one component label per vertex and finds where every tree hands off to its
rotated image in one walk around the tree and its image. No map and no
route calls it; the benchmark's roundtrip workload and the tests check it
on the forests the maps build.

enumerate_images is the bijection count route: it builds every fixed forest
of one cell from the small side and decomposes each back to its own source,
so distinct sources prove distinct images. It takes each small forest phi
from the orbit walk at d = 1 (enumeration.enumerate_invariant), so it shares
no walk with the filter route. A validated forest keeps the region sweep its
check made (innermost), so classify_vertices on a phi built by a map or by
the constructor sweeps nothing again.
"""

from __future__ import annotations

from typing import NamedTuple

from .enumeration import enumerate_invariant
from .forest import (
    Chord,
    NonCrossingForest,
    check_d,
    check_n,
    check_vertex,
    chord,
    is_int,
)


class BijectionError(ValueError):
    """Input outside the domain of a structural map, or a canonical choice
    that failed to exist (which would mean the structure theory is wrong)."""


class Mark(NamedTuple):
    """A marked vertex, optionally with a marked incident edge."""

    vertex: int
    edge: Chord | None = None


class TreeExtent(NamedTuple):
    """One tree of an invariant forest with the endpoints of its circular
    extent, or flagged as mapped to itself by the rotation."""

    vertices: tuple[int, ...]
    first: int | None
    last: int | None
    self_mapped: bool


def classify_vertices(phi: NonCrossingForest) -> frozenset[int]:
    """The good vertices of phi: one canonical representative per region.

    Two vertices are equivalent when no chord of phi separates the circular
    gap just before one from the gap just before the other; the classes are
    the regions the chords cut the disk into, told apart by the innermost
    chord over the gap. The good vertex of a region is the first one the
    scan 1, n, n-1, ..., 2 meets. A forest with e edges has exactly e + 1
    good vertices.
    """
    inner = phi.innermost()
    first: dict[Chord | None, int] = {}
    for v in (1, *range(phi.n, 1, -1)):
        first.setdefault(inner[v - 1], v)
    return frozenset(first.values())


def all_marks(phi: NonCrossingForest) -> tuple[Mark, ...]:
    """Every mark phi admits: one per vertex, then one per (edge, endpoint)
    pair. With e edges that is n + 2e marks."""
    marks = [Mark(v) for v in range(1, phi.n + 1)]
    for e in phi.edges:
        marks.append(Mark(e[0], e))
        marks.append(Mark(e[1], e))
    return tuple(marks)


def tree_extents(forest: NonCrossingForest, d: int) -> tuple[TreeExtent, ...]:
    """Locate each tree of a d-invariant forest relative to its rotated
    neighbors, in the order of the trees' least vertices.

    Let s = n/d be one rotation step. For a tree T not mapped to itself,
    walking the circle through the vertices of T together with those of its
    image under the rotation passes from T to the image exactly once; that
    handoff's vertex in T is last(T), and its vertex in the image, rotated
    back one step, is first(T), the entry into T from its preimage. Trees
    mapped to themselves get first = last = None.

    Each vertex carries its tree's label from component_labels, the largest
    vertex of its tree, so every table is a list indexed by label. One pass
    over the labels against the labels s steps on checks that the rotation
    maps every tree onto one tree. Then the vertices of each tree not
    mapped to itself are sorted together with its image's, and one walk
    around that list counts the steps from the tree into the image.

    Raises BijectionError if the chords close a cycle, if a tree overlaps
    its image without being equal to it, if a tree meets its image other
    than at one handoff, or if the self-mapped trees violate the parity
    theory (at most one, only when d = 2 and the component count is odd).
    Once the forest is invariant no tree can partly overlap its image, and
    a tree disjoint from its image has at least one handoff; those checks
    stay as guards. Unlike the image checks the constructions no longer
    make, tests reach them, with is_d_invariant patched to pass.
    """
    n = forest.n
    check_d(d, n, least=2)
    if not forest.is_d_invariant(d):
        raise BijectionError(f"forest is not invariant under rotation of order {d}")
    s = n // d
    labs = forest.component_labels()
    # img[c] is the tree that the vertices of tree c rotate into, and trees
    # lists the labels in the order of the trees' least vertices.
    img = [0] * (n + 1)
    members: list[list[int] | None] = [None] * (n + 1)
    trees = []
    for x, c, b in zip(range(1, n + 1), labs[1:], labs[s + 1:] + labs[1:s + 1]):
        tree = members[c]
        if tree is None:
            members[c] = [x]
            img[c] = b
            trees.append(c)
        elif img[c] != b:
            raise BijectionError(f"a tree partially overlaps its rotation by {s}")
        else:
            tree.append(x)
    # Rotation permutes the vertices, so once every vertex of a tree lands
    # in one tree, each tree lands onto a tree of its own.
    k = len(trees)
    if k != n - len(forest.edges):
        raise BijectionError("the chords close a cycle; not a forest")
    extents = []
    self_mapped_count = 0
    for c in trees:
        tree = tuple(members[c])
        if img[c] == c:
            self_mapped_count += 1
            extents.append(TreeExtent(tree, None, None, True))
            continue
        # the tree and its image in circular order, each vertex beside the
        # next one, the wrap from the last back to the first included
        ring = sorted(members[c] + members[img[c]])
        steps = [(x, w) for x, w in zip(ring, ring[1:] + ring[:1])
                 if labs[x] == c != labs[w]]
        if len(steps) != 1:
            raise BijectionError(
                f"tree {tree} has {len(steps)} handoffs to its image in "
                "circular order, expected one"
            )
        [(last, w)] = steps
        extents.append(TreeExtent(tree, (w - 1 - s) % n + 1, last, False))
    if self_mapped_count == 0:
        if k % d:
            raise BijectionError(
                f"no self-mapped tree but component count {k} is not a multiple of {d}"
            )
    elif not (d == 2 and self_mapped_count == 1 and k % 2 == 1):
        raise BijectionError(
            f"{self_mapped_count} self-mapped trees with d={d}, k={k}"
        )
    return tuple(extents)


def _periodic_image(phi: NonCrossingForest, v: int, d: int) -> NonCrossingForest:
    """Glue d rotated copies of phi, cut at v, with no goodness check."""
    np_ = phi.n
    n = d * np_
    j1 = (1 - v) % np_
    # Copy j of phi's vertex a gets label (j * np_ + (a - v) % np_ - j1) % n + 1;
    # c runs over j * np_. The constructor orders each pair.
    edges = []
    for a, b in phi.edges:
        oa = (a - v) % np_ - j1
        ob = (b - v) % np_ - j1
        for c in range(0, n, np_):
            edges.append(((c + oa) % n + 1, (c + ob) % n + 1))
    return NonCrossingForest(n, edges)


def construct_periodic(phi: NonCrossingForest, v: int, d: int) -> NonCrossingForest:
    """Build the d-invariant forest on d * phi.n vertices obtained by cutting
    the circle at the good vertex v and chaining d copies of phi.

    The copy of phi's vertex 1 nearest the cut keeps label 1; which copy is
    immaterial since the image is invariant under shifting by phi.n. Raises
    BijectionError when v is bad (the image would duplicate the one cut at
    the good vertex of v's region).
    """
    check_vertex(v, phi.n)
    if not is_int(d) or d < 2:
        raise ValueError(f"fold d = {d!r} must be an integer >= 2 to glue copies of "
                         f"a forest on {phi.n} vertices")
    good = classify_vertices(phi)
    if v not in good:
        raise BijectionError(
            f"vertex {v} is bad for this forest; good vertices: {sorted(good)}"
        )
    return _periodic_image(phi, v, d)


def decompose_periodic(forest: NonCrossingForest, d: int) -> tuple[NonCrossingForest, int]:
    """Invert construct_periodic: recover (phi, good vertex).

    The canonical window is the first run of n/d consecutive vertices, in
    scan order 1, n, n-1, ..., 2 of its starting vertex, that no edge
    enters or leaves. Invariance guarantees a hit within the first n/d
    candidates.
    """
    n = forest.n
    check_d(d, n, least=2)
    if not forest.is_d_invariant(d):
        raise BijectionError(f"forest is not invariant under rotation of order {d}")
    k = forest.component_count()
    if k % d:
        raise BijectionError(
            f"component count {k} is not a multiple of {d}; "
            "this is the diameter regime, not the periodic one"
        )
    np_ = n // d
    # Each copy of phi's vertex x sits at a label congruent to x mod n/d.
    start = _scan_window_start(forest, d)
    v = (start - 1) % np_ + 1
    edges = []
    for a, b in forest.edges:
        if (a - start) % n < np_ and (b - start) % n < np_:
            edges.append(((a - 1) % np_ + 1, (b - 1) % np_ + 1))
    if len(edges) * d != len(forest.edges):
        raise BijectionError(
            f"window holds {len(edges)} edges, expected {len(forest.edges)}/{d}"
        )
    phi = NonCrossingForest(np_, edges)
    if v not in classify_vertices(phi):
        raise BijectionError(f"recovered cut vertex {v} is not good")
    return phi, v


def construct_diameter(phi: NonCrossingForest, mark: Mark) -> NonCrossingForest:
    """Build the half-turn invariant forest on 2 * phi.n vertices encoded by
    a marked forest.

    The marked vertex v is doubled into the two endpoints of the diameter
    edge; the rest of phi is copied onto one half of the circle and mirrored
    onto the other. With a bare vertex mark every neighbor of v attaches to
    the same diameter endpoint as vertex v + 1's side; a marked edge (v, w)
    sends w and every neighbor clockwise from it to the opposite endpoint.
    """
    np_ = phi.n
    check_vertex(mark.vertex, np_)
    v = mark.vertex
    split_at = np_  # past every neighbor of v: a bare vertex splits none off
    if mark.edge is not None:
        e = chord(*mark.edge)
        if e not in phi.edges:
            raise BijectionError(f"marked edge {e} is not an edge of the forest")
        if v not in e:
            raise BijectionError(f"marked edge {e} is not incident to vertex {v}")
        w = e[1] if e[0] == v else e[0]
        split_at = (w - v) % np_
    n = 2 * np_
    qb = (1 - v) % np_
    # Position p, counted clockwise from the upper copy of v, gets label
    # (p - qb) % n + 1, and phi's vertex a sits at position (a - v) % np_,
    # save that v's end of an edge to a neighbor at or past split_at sits at
    # v's lower copy, position np_. The constructor orders each pair.
    edges = [((n - qb) % n + 1, (np_ - qb) % n + 1)]
    for a, b in phi.edges:
        pa = (a - v) % np_
        pb = (b - v) % np_
        if pa * pb == 0 and pa + pb >= split_at:
            pa, pb = pa or np_, pb or np_
        edges.append(((pa - qb) % n + 1, (pb - qb) % n + 1))
        edges.append(((pa + np_ - qb) % n + 1, (pb + np_ - qb) % n + 1))
    return NonCrossingForest(n, edges)


def decompose_diameter(forest: NonCrossingForest) -> tuple[NonCrossingForest, Mark]:
    """Invert construct_diameter: recover the marked forest.

    Finds the unique diameter edge, names its endpoint with vertex 1 on the
    clockwise side the upper one (or vertex 1 itself when it is an
    endpoint), reads phi off the right half, and reconstructs the mark from
    the lower endpoint's neighbors in that half.
    """
    n = forest.n
    if not forest.is_d_invariant(2):
        raise BijectionError("forest is not invariant under the half turn")
    k = forest.component_count()
    if k % 2 == 0:
        raise BijectionError(
            f"component count {k} is even; this is the periodic regime"
        )
    np_ = n // 2
    diameters = [e for e in forest.edges if e[1] - e[0] == np_]
    if len(diameters) != 1:
        raise BijectionError(
            f"expected exactly one diameter edge, found {len(diameters)}"
        )
    x, y = diameters[0]
    upper = x if (1 - x) % n < np_ else y
    v = (upper - 1) % np_ + 1
    # each label a folds onto phi's vertex (a - 1) % np_ + 1, both ends of
    # the diameter onto v; offsets q run clockwise from the upper end, the
    # right half with the lower end at q = np_. The constructor orders each pair.
    edges = []
    lower_offsets = []
    for a, b in forest.edges:
        qa = (a - upper) % n
        qc = (b - upper) % n
        if qa > qc:
            qa, qc = qc, qa
        if qc > np_ or qa == 0 and qc == np_:  # the left half, or the diameter
            continue
        edges.append(((a - 1) % np_ + 1, (b - 1) % np_ + 1))
        if qc == np_:  # into the lower end
            lower_offsets.append(qa)
    if 2 * len(edges) + 1 != len(forest.edges):
        raise BijectionError("folded edge count does not match")
    phi = NonCrossingForest(np_, edges)
    if lower_offsets:
        mark = Mark(v, chord(v, (v - 1 + min(lower_offsets)) % np_ + 1))
    else:
        mark = Mark(v)
    return phi, mark


def _scan_window_start(forest: NonCrossingForest, d: int) -> int:
    """First vertex w in scan order whose window of n/d consecutive vertices
    no edge enters or leaves. An edge does so exactly when it separates the
    gap before w from the gap before w + n/d, so the two gaps must share a
    region. Invariance puts a hit among the first n/d candidates; running
    out means the forest was not actually periodic."""
    n = forest.n
    np_ = n // d
    inner = forest.innermost()
    for t in range(np_):
        w = (-t) % n + 1
        if inner[w - 1] == inner[(w - 1 + np_) % n]:
            return w
    raise BijectionError("no edge-closed window found; forest is not periodic")


def enumerate_images(n: int, k: int, d: int):
    """Stream the forests in F(n, k) fixed by the rotation of order d >= 2:
    the bijection route. Each is built from its source, (phi, v) or (phi,
    mark), by its regime's map and yielded once the inverse gives that source
    back, so distinct sources prove distinct images; phi in orbit-walk order,
    then v ascending or all_marks order. None when neither map applies: no
    fixed forest exists. Library calls are unbounded (see check_bound)."""
    check_n(n, k)
    check_d(d, n, least=2)
    if k % d == 0:
        for phi in enumerate_invariant(n // d, k // d, 1):
            for v in sorted(classify_vertices(phi)):
                image = construct_periodic(phi, v, d)
                if decompose_periodic(image, d) != (phi, v):
                    raise BijectionError(f"cell ({n}, {k}, {d}): source "
                                         f"({phi}, {v}) is not recovered")
                yield image
    elif d == 2 and k % 2 == 1:
        for phi in enumerate_invariant(n // 2, (k + 1) // 2, 1):
            for mark in all_marks(phi):
                image = construct_diameter(phi, mark)
                if decompose_diameter(image) != (phi, mark):
                    raise BijectionError(f"cell ({n}, {k}, 2): source "
                                         f"({phi}, {mark}) is not recovered")
                yield image
