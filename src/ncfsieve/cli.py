"""Command line front end.

Counting, q-polynomials, streaming enumeration, fixed-point counts, the
structural bijections, and the verification sweep.
Forests travel as JSON objects like {"n": 8, "edges": [[3, 4], [5, 8]]}.

Exit status: 0 on success, 1 when a verification found a mismatch, 2 for
a command line argparse refuses, bad input, a size over a bound, an
arithmetic error (such as an exact division that left a remainder) or
memory running out (as reading a huge forest file can), 130 on Ctrl-C.
Every count is taken from a route of sieving.ROUTES, and every bound on n
is that route's max_n: n <= 12 for the routes that enumerate, n <= 100 for
the q-polynomial and n <= 2000 for the closed form. sieving.check_bound
refuses an n over it before a single route runs. verify runs, on each
cell, the routes that admit n, and refuses, through
sieving.check_verify_bound, an n that fewer than two routes admit. A
forest that construct or decompose reads, or that construct builds, has
at most MAX_FOREST_N vertices.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__, bijections, qpoly, sieving
from .forest import NonCrossingForest
from .sieving import ROUTES, check_bound, check_verify_bound

# Checking a forest, classifying its vertices and finding the cut all read
# one sweep over its sorted chords. On a glued forest with 2000 vertices and
# 1000 edges each takes under 5 ms, and under 50 ms on 20000, on one core of
# a 2-core x86 machine; starting the process costs more (about 0.06 s for
# `count 10 3`, 0.04 s of it the bare interpreter). The bound stays as a
# fixed input bound; no step's cost climbs steeply past it.
MAX_FOREST_N = 2000


def _forest_guard(n: int) -> None:
    if n > MAX_FOREST_N:
        raise ValueError(f"n = {n} exceeds the forest bound ({MAX_FOREST_N})")


def _read_forest(path: str) -> NonCrossingForest:
    try:
        if path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path) as fh:
                data = json.load(fh)
    except RecursionError:
        raise ValueError("forest JSON nested too deeply") from None
    n = data.get("n") if isinstance(data, dict) else None
    if isinstance(n, int):
        _forest_guard(n)
    return NonCrossingForest.from_json(data)


def _cmd_count(args) -> int:
    check_bound("closed", args.n)
    count = ROUTES["closed"].count(args.n, args.k, 1)
    if args.json:
        print(json.dumps({"n": args.n, "k": args.k, "count": count}))
    else:
        print(count)
    return 0


def _cmd_qpoly(args) -> int:
    check_bound("poly", args.n)
    poly = qpoly.forest_count_poly(args.n, args.k)
    if args.json:
        print(json.dumps({"n": args.n, "k": args.k, "coeffs": list(poly.coeffs)}))
    elif args.pretty:
        print(poly.pretty())
    else:
        print(" ".join(str(c) for c in poly.coeffs))
    return 0


def _cmd_enumerate(args) -> int:
    check_bound(args.method, args.n)
    stream = ROUTES[args.method].stream(args.n, args.k, args.invariant)
    for i, forest in enumerate(stream):
        if args.dot:
            print(forest.to_dot(name=f"f{i}"))
        else:
            print(json.dumps(forest.to_json()))
    return 0


def _cmd_fixed(args) -> int:
    n, k, d = args.n, args.k, args.d
    check_bound(args.method, n)
    count = ROUTES[args.method].count(n, k, d)
    if args.json:
        print(json.dumps(
            {"n": n, "k": k, "d": d, "method": args.method, "count": count}
        ))
    else:
        print(count)
    return 0


def _cmd_construct(args) -> int:
    phi = _read_forest(args.forest)
    if args.vertex is not None:
        if args.d is None:
            raise ValueError("--vertex needs --d (the fold multiplicity)")
        if args.mark_edge is not None:
            raise ValueError("--mark-edge needs --mark, not --vertex")
        _forest_guard(args.d * phi.n)
        image = bijections.construct_periodic(phi, args.vertex, args.d)
    else:
        if args.d not in (None, 2):
            raise ValueError("--mark implies d = 2")
        _forest_guard(2 * phi.n)
        edge = None
        if args.mark_edge is not None:
            edge = (args.mark_edge[0], args.mark_edge[1])
        image = bijections.construct_diameter(phi, bijections.Mark(args.mark, edge))
    print(json.dumps(image.to_json()))
    return 0


def _cmd_decompose(args) -> int:
    forest = _read_forest(args.forest)
    d = args.d
    k = forest.component_count()
    if d == 2 and k % 2 == 1:
        phi, mark = bijections.decompose_diameter(forest)
        out = {
            "kind": "diameter",
            "d": 2,
            "forest": phi.to_json(),
            "mark": {
                "vertex": mark.vertex,
                "edge": list(mark.edge) if mark.edge is not None else None,
            },
        }
    else:
        phi, v = bijections.decompose_periodic(forest, d)
        out = {"kind": "periodic", "d": d, "forest": phi.to_json(), "vertex": v}
    print(json.dumps(out))
    return 0


def _row_line(r: sieving.CspRow) -> str:
    counts = " ".join(f"{key}={c}" for key, c in r.columns.items())
    verdict = "ok" if r.agree else "MISMATCH"
    return f"n={r.n:<3d} k={r.k:<3d} d={r.d:<3d}  {counts}  {verdict}"


def _cmd_verify(args) -> int:
    if args.k is not None and args.n is None:
        raise ValueError("--k needs an explicit n")
    top = args.n if args.n is not None else args.max_n
    check_verify_bound(top)
    if args.k is not None:
        cells = [(args.n, args.k)]
    else:
        ns = [args.n] if args.n is not None else range(1, top + 1)
        cells = [(n, k) for n in ns for k in range(1, n + 1)]
    ns, ks = zip(*cells)
    # Never more processes than cores or cells, whatever was asked for.
    workers = min(args.workers, os.cpu_count() or 1, len(cells))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_cell = list(pool.map(sieving.verify_csp, ns, ks))
    else:
        per_cell = list(map(sieving.verify_csp, ns, ks))
    rows = [row for cell_rows in per_cell for row in cell_rows]
    ok = all(row.agree for row in rows)
    if args.json:
        print(json.dumps(
            {"rows": [row.to_json_dict() for row in rows], "all_agree": ok},
            indent=2,
        ))
    else:
        for row in rows:
            print(_row_line(row))
        bad = sum(1 for row in rows if not row.agree)
        verdict = "all routes agree" if ok else f"{bad} MISMATCHES"
        print(f"{len(rows)} cells checked: {verdict}")
    return 0 if ok else 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncfsieve",
        description="Exact cyclic sieving checks for non-crossing forests.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="number of non-crossing forests")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("qpoly", help="coefficients of the count q-polynomial")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    form = p.add_mutually_exclusive_group()
    form.add_argument("--pretty", action="store_true", help="print as a polynomial")
    form.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_qpoly)

    p = sub.add_parser("enumerate", help="stream forests as JSON lines")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--invariant", type=int, metavar="D", default=1,
                   help="only forests fixed by the rotation of order D (default 1: all)")
    p.add_argument("--method", default="orbit", help="route that streams the forests",
                   choices=[name for name, r in ROUTES.items() if r.stream])
    p.add_argument("--dot", action="store_true", help="Graphviz output instead of JSON")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("fixed", help="count forests fixed by a rotation")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--method", choices=list(ROUTES), default="orbit")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_fixed)

    p = sub.add_parser(
        "construct",
        help="build an invariant forest from a small forest plus cut data",
    )
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--vertex", type=int, metavar="V",
                      help="good cut vertex (periodic gluing, needs --d)")
    mode.add_argument("--mark", type=int, metavar="V",
                      help="marked vertex (diameter folding, d = 2)")
    p.add_argument("--d", type=int, help="fold multiplicity for --vertex")
    p.add_argument("--mark-edge", type=int, nargs=2, metavar=("U", "W"),
                   help="marked edge incident to the --mark vertex")
    p.add_argument("forest", nargs="?", default="-",
                   help="forest JSON file, or - for stdin (default)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("decompose", help="cut an invariant forest back open")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("forest", nargs="?", default="-",
                   help="forest JSON file, or - for stdin (default)")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("verify", help="run every route that admits n and compare")
    scope = p.add_mutually_exclusive_group(required=True)
    scope.add_argument("n", type=_positive_int, nargs="?")
    scope.add_argument("--max-n", type=_positive_int,
                       help="sweep n = 1 .. MAX_N instead")
    p.add_argument("--k", type=int)
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="worker processes, at most one per core and per cell")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
