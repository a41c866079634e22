"""Test-only oracles for the regions of the periodic decomposition.

The library reads which gaps share a region off one chord sweep. The
functions here derive the same facts another way, so the tests can play the
two against each other: the window start from which gaps share the
center's region, and the good vertices from the set of chords enclosing
each gap.
"""

from ncfsieve.bijections import BijectionError
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
