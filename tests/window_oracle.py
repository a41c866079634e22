"""Test-only oracle for the window start of the periodic decomposition.

decompose_periodic finds its window by scanning for an edge-closed run of
n/d vertices. The function here derives the same vertex from a different
fact about the chord arrangement, so the tests can play the two against
each other.
"""

from ncfsieve.bijections import BijectionError
from ncfsieve.forest import NonCrossingForest


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
