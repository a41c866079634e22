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

The decompositions rederive every canonical choice from scratch and raise
BijectionError when the input is not actually in the image. Round trips
through both directions are checked exhaustively by the test suite.

enumerate_images is the bijection count route: it builds every fixed forest
of one cell from the small side and insists the images are distinct.
"""

from __future__ import annotations

from dataclasses import dataclass

from .enumeration import enumerate_forests
from .forest import (
    Chord,
    NonCrossingForest,
    check_d,
    check_n,
    check_vertex,
    chord,
    innermost_chords,
    rotate_label,
)


class BijectionError(ValueError):
    """Input outside the domain of a structural map, or a canonical choice
    that failed to exist (which would mean the structure theory is wrong)."""


@dataclass(frozen=True)
class Mark:
    """A marked vertex, optionally with a marked incident edge."""

    vertex: int
    edge: Chord | None = None


@dataclass(frozen=True)
class TreeExtent:
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
    inner = innermost_chords(phi.n, phi.edges)
    first: dict[Chord | None, int] = {}
    for v in (1, *range(phi.n, 1, -1)):
        first.setdefault(inner[v - 1], v)
    if len(first) != len(phi.edges) + 1:
        raise BijectionError(
            f"expected {len(phi.edges) + 1} vertex regions, found {len(first)}"
        )
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
    neighbors.

    Let s = n/d be one rotation step. For a tree T not mapped to itself,
    walking the circle through the vertices of T together with those of its
    preimage under the rotation passes from preimage to T exactly once; that
    entry vertex is first(T). Symmetrically last(T) is the unique handoff
    from T to its image. Trees mapped to themselves get first = last = None.

    Raises BijectionError if a tree and its image overlap without being
    equal, or if the self-mapped trees violate the parity theory (at most
    one, only when d = 2 and the component count is odd).
    """
    n = forest.n
    check_d(d, n, least=2)
    if not forest.is_d_invariant(d):
        raise BijectionError(f"forest is not invariant under rotation of order {d}")
    s = n // d
    comps = forest.components()
    extents = []
    self_mapped_count = 0
    for comp in comps:
        tree = tuple(sorted(comp))
        tset = set(comp)
        image = {rotate_label(x, s, n) for x in comp}
        if image == tset:
            self_mapped_count += 1
            extents.append(TreeExtent(tree, None, None, True))
            continue
        if image & tset:
            raise BijectionError(
                f"tree {tree} partially overlaps its rotation image"
            )
        # The entry into T from its preimage is the exit from T into its
        # image rotated back one step.
        last, w = _handoff(tset, image)
        extents.append(TreeExtent(tree, rotate_label(w, -s, n), last, False))
    k = len(comps)
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


def _handoff(src: set[int], dst: set[int]) -> tuple[int, int]:
    """The unique step (u, w) in circular order over the vertices of src
    and dst that goes from u in src to w in dst."""
    seq = sorted(src | dst)
    hits = [(u, w) for u, w in zip(seq, seq[1:] + seq[:1]) if u in src and w in dst]
    if len(hits) != 1:
        raise BijectionError(
            f"expected one transition in circular order, found {len(hits)}"
        )
    return hits[0]


def _periodic_image(phi: NonCrossingForest, v: int, d: int) -> NonCrossingForest:
    """Glue d rotated copies of phi, cut at v, with no goodness check."""
    np_ = phi.n
    n = d * np_
    j1 = (1 - v) % np_
    edges = []
    for a, b in phi.edges:
        oa = (a - v) % np_
        ob = (b - v) % np_
        for c in range(d):
            pa = c * np_ + oa
            pb = c * np_ + ob
            edges.append(chord((pa - j1) % n + 1, (pb - j1) % n + 1))
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
    check_d(d, phi.n, least=2, glue=True)
    good = classify_vertices(phi)
    if v not in good:
        raise BijectionError(
            f"vertex {v} is bad for this forest; good vertices: {sorted(good)}"
        )
    image = _periodic_image(phi, v, d)
    if not image.is_d_invariant(d):
        raise BijectionError("glued image lost rotation invariance")
    return image


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
            edges.append(chord((a - 1) % np_ + 1, (b - 1) % np_ + 1))
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
    split_at = None
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

    def lab(p: int) -> int:
        return (p - qb) % n + 1

    edges = [chord(lab(0), lab(np_))]
    for a, b in phi.edges:
        if v in (a, b):
            w = b if a == v else a
            pw = (w - v) % np_
            top = split_at is None or pw < split_at
            anchor = 0 if top else np_
            edges.append(chord(lab(anchor), lab(pw)))
            edges.append(chord(lab((anchor + np_) % n), lab(pw + np_)))
        else:
            pa = (a - v) % np_
            pb = (b - v) % np_
            edges.append(chord(lab(pa), lab(pb)))
            edges.append(chord(lab(pa + np_), lab(pb + np_)))
    image = NonCrossingForest(n, edges)
    if not image.is_d_invariant(2):
        raise BijectionError("folded image lost half-turn invariance")
    return image


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

    def lab(q: int) -> int:
        return (v - 1 + q) % np_ + 1

    edges = []
    lower_offsets = []
    for a, b in forest.edges:
        qa = (a - upper) % n
        qc = (b - upper) % n
        if qa > qc:
            qa, qc = qc, qa
        if (qa, qc) == (0, np_):
            continue
        if qc < np_:  # within the right half; lab(0) is v
            edges.append(chord(lab(qa), lab(qc)))
        elif qc == np_:  # from the right half to the lower end
            edges.append(chord(v, lab(qa)))
            lower_offsets.append(qa)
        elif 0 < qa < np_:  # from the right half to the left one
            raise BijectionError(
                f"edge {(a, b)} joins the halves away from the diameter"
            )
    if 2 * len(edges) + 1 != len(forest.edges):
        raise BijectionError("folded edge count does not match")
    phi = NonCrossingForest(np_, edges)
    if phi.component_count() != (k + 1) // 2:
        raise BijectionError("folded component count does not match")
    if lower_offsets:
        mark = Mark(v, chord(v, lab(min(lower_offsets))))
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
    inner = innermost_chords(n, forest.edges)
    for t in range(np_):
        w = (-t) % n + 1
        if inner[w - 1] == inner[(w - 1 + np_) % n]:
            return w
    raise BijectionError("no edge-closed window found; forest is not periodic")


def enumerate_images(n: int, k: int, d: int):
    """Stream the forests in F(n, k) fixed by the rotation of order d >= 2,
    sorted canonically: the bijection route. Every forest is built from
    the small side through the structural map of its regime, and two
    inputs with one image raise BijectionError. Nothing is yielded when
    neither map applies, which is the claim that no fixed forest exists.
    The images are held and sorted because the sort is the distinctness
    check. Library calls are unbounded; the command line bounds n by the
    route's check_bound before it runs."""
    check_n(n, k)
    check_d(d, n, least=2)
    out = []
    if k % d == 0:
        for phi in enumerate_forests(n // d, k // d):
            for v in sorted(classify_vertices(phi)):
                out.append(construct_periodic(phi, v, d))
    elif d == 2 and k % 2 == 1:
        for phi in enumerate_forests(n // 2, (k + 1) // 2):
            for mark in all_marks(phi):
                out.append(construct_diameter(phi, mark))
    out.sort(key=lambda f: f.edges)
    for a, b in zip(out, out[1:]):
        if a.edges == b.edges:
            raise BijectionError(
                f"bijection route hit a duplicate image at n={n}, k={k}, d={d}"
            )
    yield from out
