"""Route independence as a checked ledger.

Each route of sieving.ROUTES is run on its own under sys.setprofile, with
every cache of the package emptied first, so a cached helper is seen
by every route that reaches it. The functions of ncfsieve each route
reaches are collected, and every function two routes share must be in
SHARED with a reason. A new sharing fails here until SHARED grows, so it
shows in a reviewed diff; an entry no pair shares any more fails too. The
same trace shows that the function OWN names for each route is reached by
that route alone.

The routes, the command lines of ARGVS and the benchmark's workloads
(perfbench/worker.py, imported as it stands, at its smoke size) must
between them reach every function of the package; one that none of them
reaches must be in UNREACHED with a reason, so code that nothing runs
shows in a reviewed diff.
"""

import argparse
import inspect
import json
import sys
from collections.abc import Iterator
from functools import cache, partial
from itertools import combinations
from pathlib import Path

import ncfsieve
from ncfsieve import bijections, cli, enumeration, forest, qpoly, sieving
from ncfsieve.bijections import Mark
from ncfsieve.forest import NonCrossingForest
from ncfsieve.sieving import ROUTES
from test_cli import OPTIONS

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
sys.path.insert(0, PERFBENCH)  # worker imports its sibling speed.py
import worker  # noqa: E402

sys.path.remove(PERFBENCH)

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
    "forest.is_int": "the integer test inside check_n and check_d",
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


# Forests the command line reads, by the name that stands for their file
# in ARGVS.
_PHI = NonCrossingForest(4, [(1, 2), (2, 4)])
_PHI3 = NonCrossingForest(3, [(1, 3)])
FOREST_FILES = {
    "PHI": _PHI,
    "PHI3": _PHI3,
    "GLUED": bijections.construct_periodic(_PHI, 1, 3),
    "FOLDED": bijections.construct_diameter(_PHI3, Mark(1, (1, 3))),
}

# Command lines that use every (command, option) pair of the parser, and
# verify always with one worker, so the trace sees every call in this
# process.
ARGVS = (
    ("--version",),
    ("count", "6", "3", "--json"),
    ("qpoly", "6", "2", "--pretty"),
    ("qpoly", "6", "2", "--json"),
    ("enumerate", "4", "2", "--invariant", "2", "--method", "filter", "--dot"),
    ("fixed", "6", "2", "3", "--method", "bijection", "--json"),
    ("construct", "--vertex", "1", "--d", "3", "PHI"),
    ("construct", "--mark", "1", "--mark-edge", "1", "3", "PHI3"),
    ("decompose", "--d", "3", "GLUED"),
    ("decompose", "--d", "2", "FOLDED"),
    ("verify", "4", "--k", "2", "--workers", "1", "--json"),
    ("verify", "--max-n", "3", "--workers", "1"),
)

# Functions that no route, no command line of ARGVS and no workload of
# the benchmark reaches.
UNREACHED = {
    "forest.NonCrossingForest.__repr__": (
        "only the messages of a BijectionError format a forest"),
    "forest.NonCrossingForest.__hash__": (
        "no code of the package puts a forest in a set or a dict; "
        "test_equality_and_hash pins it"),
    "forest.read_only": (
        "the __setattr__ and __delattr__ of NonCrossingForest and QPoly: no "
        "code of the package changes a value after its constructor; "
        "test_equality_and_hash and test_zero_and_trim pin that it raises"),
    "qpoly.QPoly.__eq__": (
        "no code of the package compares two q-polynomials; the tests do, "
        "and test_zero_and_trim pins it"),
    "qpoly.QPoly.__hash__": (
        "no code of the package puts a q-polynomial in a set or a dict; "
        "test_zero_and_trim pins it"),
    "qpoly.QPoly.__repr__": (
        "the command line prints a q-polynomial's coefficients or pretty(); "
        "test_zero_and_trim pins the repr"),
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
            # lru_cache unwrapped; a function of another module, and the
            # __new__ that NamedTuple compiles under the module
            # namedtuple_<class>, are left out
            for fn in map(inspect.unwrap, found):
                code = getattr(fn, "__code__", None)
                if code is not None and fn.__module__ == module.__name__:
                    names[code] = f"{short}.{fn.__qualname__}"
    return names


def _clear_caches() -> None:
    for module in MODULES:
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def _drain(result) -> None:
    if isinstance(result, Iterator):
        for _ in result:
            pass


def _trace(names: dict, run) -> set[str]:
    """The names of the package's functions that run() calls, every cache
    emptied first."""
    seen: set[str] = set()

    def profile(frame, event, arg):
        if event == "call":
            fn = names.get(frame.f_code)
            if fn is not None:
                seen.add(fn)

    _clear_caches()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return seen


def _run_workload(name: str) -> None:
    """One of the benchmark's workloads at its smoke size, seed 1, with
    every one of its checks passing."""
    make_inputs, run = worker.WORKLOADS[name]
    checks = worker.Checks()
    run(ncfsieve, make_inputs(worker.SIZES["smoke"][name], 1), checks)
    assert checks.failed == 0, (name, checks.notes)


def _reached(name: str, names: dict) -> set[str]:
    route = ROUTES[name]
    cells = [(n, k, d) for n in CELL_NS for k in range(1, n + 1)
             for d in enumeration.divisors(n) if d >= route.least_d]

    def run():
        for n, k, d in cells:
            route.count(n, k, d)
            if route.stream is not None:
                _drain(route.stream(n, k, d))

    return _trace(names, run)


@cache
def _route_reach() -> dict[str, set[str]]:
    names = _code_names()
    return {name: _reached(name, names) for name in ROUTES}


def test_every_shared_function_has_a_reason():
    reached = _route_reach()
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


def test_argvs_use_every_option():
    parser = cli._build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    used = set()
    for argv in ARGVS:
        command = sub.choices.get(argv[0])
        if command is None:  # a top-level option
            used |= {("", a) for a in argv}
            continue
        args = command.parse_args(argv[1:])
        for a in command._actions:
            if a.option_strings:
                if set(a.option_strings) & set(argv):
                    used.add((argv[0], max(a.option_strings, key=len)))
            elif getattr(args, a.dest, a.default) != a.default:
                used.add((argv[0], a.dest))
        assert "verify" not in argv or ("--workers", "1") in zip(argv, argv[1:]), argv
    # OPTIONS is every (command, option) pair, which test_option_inventory
    # pins to the parser
    assert sorted(OPTIONS - used) == []


def test_every_function_is_reached(capsys, tmp_path):
    names = _code_names()
    paths = {}
    for name, f in FOREST_FILES.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(f.to_json()))

    def run():
        for argv in ARGVS:
            try:
                code = cli.main([str(paths.get(a, a)) for a in argv])
            except SystemExit as exc:  # --version
                code = exc.code
            assert code == 0, argv
        for workload in worker.WORKLOADS:
            _run_workload(workload)

    seen = set().union(*_route_reach().values(), _trace(names, run))
    capsys.readouterr()
    unreached = set(names.values()) - seen
    assert sorted(unreached - UNREACHED.keys()) == []
    assert sorted(UNREACHED.keys() - unreached) == [], "stale UNREACHED entries"


def test_poly_cells_come_one_n_at_a_time(capsys):
    # forest_count_poly keeps the cells of the last n asked alone, so the
    # benchmark's workloads and verify must ask for them n by n
    code = qpoly.forest_count_poly.__code__
    runs = {name: partial(_run_workload, name) for name in worker.WORKLOADS}
    runs["verify"] = partial(cli.main, ["verify", "--max-n", "8", "--workers", "1"])
    asked = {}
    for name, run in runs.items():
        ns = asked[name] = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is code:
                ns.append(frame.f_locals["n"])

        sys.setprofile(profile)
        try:
            run()
        finally:
            sys.setprofile(None)
        assert ns == sorted(ns), name
    capsys.readouterr()
    assert [name for name, ns in asked.items() if ns] == [
        "csp-sweep", "poly-large", "verify"]
