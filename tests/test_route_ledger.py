"""Route independence as a checked ledger.

Each route of sieving.ROUTES is run on its own under sys.setprofile, with
every cache of the package emptied first, so a cached helper is seen
by every route that reaches it. The functions of ncfsieve each route
reaches are collected, and every function two routes share must be in
SHARED with a reason. A new sharing fails here until SHARED grows, so it
shows in a reviewed diff; an entry no pair shares any more fails too. The
same trace shows that the function OWN names for each route is reached by
that route alone.
"""

import inspect
import sys
from itertools import combinations

from ncfsieve import bijections, cli, enumeration, forest, qpoly, sieving
from ncfsieve.sieving import ROUTES

MODULES = (forest, enumeration, qpoly, bijections, sieving, cli)

# Every (n, k, d) with n in CELL_NS that a route reports, both regimes of
# the bijection route included.
CELL_NS = (6, 8)

# A function at the heart of each route, which only that route may reach.
OWN = {
    "filter": "enumeration._leaf_groups",
    "poly": "qpoly.forest_count_poly",
    "closed": "sieving.closed_form_eval",
    "bijection": "bijections.construct_periodic",
    "orbit": "enumeration.count_invariant",
}

_CROSSES = "inside crosses, which test_crosses_matches_the_validator_sweep pins"
_ROTATION = ("inside rotation_perm, which test_rotation_perm_matches_label_"
             "arithmetic pins")
_PHI = ("the bijection route takes each small forest phi, on n/d <= 6 "
        "vertices under the bound, from the orbit route's stream at d = 1, "
        "where every orbit is one chord; the orbit route is reported for "
        "d >= 2. test_orbit_walk_at_d_1_is_the_plain_stream pins the d = 1 "
        "stream to the filter walk's")

SHARED = {
    "forest.check_n": "argument validation, the one check every route shares",
    "forest.check_d": "argument validation, the one check every route shares",
    "forest.NonCrossingForest._unchecked": (
        "stores n and edges of a streamed forest and computes nothing"),
    "enumeration.chord_table": (
        "the chords in lexicographic order, a definition that test_rotation_"
        "perm_matches_label_arithmetic writes out"),
    "forest.crosses": (
        "the filter route reaches it through its all-pairs table _cross_masks "
        "and the orbit route through one row per orbit in _orbit_table; "
        "pinned alone against the validator's chord sweep on every pair of "
        "chords with n <= 12 (test_crosses_matches_the_validator_sweep)"),
    "forest.check_vertex": _CROSSES,
    "forest.chord": f"{_CROSSES}, and {_ROTATION}",
    "enumeration.rotation_perm": (
        "pinned alone against label arithmetic written in the test on every "
        "n <= 12 and s (test_rotation_perm_matches_label_arithmetic)"),
    "forest.rotate_label": _ROTATION,
    "enumeration.enumerate_invariant": _PHI,
    "enumeration._orbit_walk": _PHI,
    "enumeration._orbit_table": _PHI,
    "forest.union_edges": f"the orbit walk's cycle test; {_PHI}",
    "forest.undo_joins": f"the orbit walk's undo; {_PHI}",
}


def _code_names() -> dict:
    """Map the code object of every function and method defined in the
    package's modules to its name, module.qualname."""
    names = {}
    for module in MODULES:
        short = module.__name__.rsplit(".", 1)[1]
        for obj in vars(module).values():
            found = [obj]
            if inspect.isclass(obj):  # methods, classmethods unwrapped
                found = [getattr(m, "__func__", m) for m in vars(obj).values()]
            for fn in map(inspect.unwrap, found):  # lru_cache unwrapped
                code = getattr(fn, "__code__", None)
                if code is not None and fn.__module__ == module.__name__:
                    names[code] = f"{short}.{fn.__qualname__}"
    return names


def _clear_caches() -> None:
    for module in MODULES:
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def _reached(name: str, names: dict) -> set[str]:
    route = ROUTES[name]
    seen: set[str] = set()

    def profile(frame, event, arg):
        if event == "call":
            fn = names.get(frame.f_code)
            if fn is not None:
                seen.add(fn)

    cells = [(n, k, d) for n in CELL_NS for k in range(1, n + 1)
             for d in enumeration.divisors(n) if d >= route.least_d]
    _clear_caches()
    sys.setprofile(profile)
    try:
        for n, k, d in cells:
            route.count(n, k, d)
            if route.stream is not None:
                for _ in route.stream(n, k, d):
                    pass
    finally:
        sys.setprofile(None)
    return seen


def test_every_shared_function_has_a_reason():
    names = _code_names()
    reached = {name: _reached(name, names) for name in ROUTES}
    # each route's own work is seen, and no other route reaches it
    for name, own in OWN.items():
        assert [r for r in ROUTES if own in reached[r]] == [name], (name, own)
    shared = {(a, b): reached[a] & reached[b] for a, b in combinations(ROUTES, 2)}
    unlisted = {pair: sorted(fns - SHARED.keys()) for pair, fns in shared.items()
                if fns - SHARED.keys()}
    assert not unlisted, unlisted
    stale = SHARED.keys() - set().union(*shared.values())
    assert not stale, sorted(stale)


def test_every_cache_is_emptied_before_a_trace():
    # forest_count_poly keeps its own table, not an lru one; a warm entry
    # would hide the poly route's kernel from its trace
    qpoly.forest_count_poly(5, 2)
    _clear_caches()
    assert not qpoly._FOREST_POLYS
