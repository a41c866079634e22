"""Drive the CLI through main(argv) and check wiring, exit codes, and JSON."""

import argparse
import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ncfsieve import __version__, bijections, enumeration, qpoly, sieving
from ncfsieve.cli import MAX_FOREST_N, _build_parser, main
from ncfsieve.forest import NonCrossingForest
from ncfsieve.qpoly import ExactDivisionError, QPoly, forest_count, forest_count_poly
from ncfsieve.sieving import (
    MAX_CLOSED_N,
    MAX_ENUM_N,
    MAX_POLY_N,
    ROUTES,
    closed_form_eval,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refused(capsys, *argv):
    """argparse's own refusal: SystemExit(2), nothing on stdout. Gives stderr."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, ""), argv
    return captured.err


# Every (command, option) pair the command line takes, "" for the top level;
# positionals by name, --help left out. A new option fails
# test_option_inventory until it is listed here, so it shows in a reviewed diff.
OPTIONS = {
    ("", "--version"),
    ("count", "n"), ("count", "k"), ("count", "--json"),
    ("qpoly", "n"), ("qpoly", "k"), ("qpoly", "--pretty"), ("qpoly", "--json"),
    ("enumerate", "n"), ("enumerate", "k"), ("enumerate", "--invariant"),
    ("enumerate", "--method"), ("enumerate", "--dot"),
    ("fixed", "n"), ("fixed", "k"), ("fixed", "d"), ("fixed", "--method"),
    ("fixed", "--json"),
    ("construct", "--vertex"), ("construct", "--mark"), ("construct", "--d"),
    ("construct", "--mark-edge"), ("construct", "forest"),
    ("decompose", "--d"), ("decompose", "forest"),
    ("verify", "n"), ("verify", "--max-n"), ("verify", "--k"), ("verify", "--workers"),
    ("verify", "--json"),
}


def test_option_inventory():
    def options(parser):
        return {max(a.option_strings, key=len) if a.option_strings else a.dest
                for a in parser._actions
                if not isinstance(a, (argparse._HelpAction, argparse._SubParsersAction))}

    parser = _build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    found = {("", o) for o in options(parser)}
    found |= {(name, o) for name, p in sub.choices.items() for o in options(p)}
    assert found == OPTIONS


def test_count_plain(capsys):
    code, out, _ = run(capsys, "count", "6", "3")
    assert code == 0
    assert out.strip() == str(forest_count(6, 3))


def test_count_brute_json(capsys):
    # count is the closed form alone; verify N --k K is the cross-check that
    # --brute was, with the filter walk ("brute") and every other route
    assert "unrecognized arguments: --brute" in refused(
        capsys, "count", "5", "2", "--brute", "--json")
    code, out, _ = run(capsys, "count", "5", "2", "--json")
    assert code == 0 and json.loads(out) == {"n": 5, "k": 2, "count": 75}
    code, out, _ = run(capsys, "verify", "5", "--k", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_agree"] is True
    assert [(r["brute"], r["closed"]) for r in doc["rows"] if r["d"] == 1] == [(75, 75)]


def test_count_bad_args(capsys):
    code, _, err = run(capsys, "count", "5", "9")
    assert code == 2
    assert "error:" in err


def test_closed_bound(capsys):
    over = str(MAX_CLOSED_N + 1)
    for argv in (("count", over, "3"), ("count", "200000", "3000"),
                 ("fixed", over, "1", "1", "--method", "closed")):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error:") and str(MAX_CLOSED_N) in err

    at = str(MAX_CLOSED_N)
    code, out, _ = run(capsys, "count", at, "700")
    assert code == 0 and out.strip() == str(forest_count(MAX_CLOSED_N, 700))
    code, out, _ = run(capsys, "fixed", at, at, "2", "--method", "closed")
    assert code == 0 and out.strip() == "1"


def test_qpoly_plain_and_pretty(capsys):
    code, out, _ = run(capsys, "qpoly", "4", "2")
    assert code == 0
    coeffs = tuple(int(c) for c in out.split())
    assert coeffs == forest_count_poly(4, 2).coeffs

    code, out, _ = run(capsys, "qpoly", "4", "2", "--pretty")
    assert code == 0
    assert out.strip() == forest_count_poly(4, 2).pretty()


def test_qpoly_json(capsys):
    code, out, _ = run(capsys, "qpoly", "3", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["coeffs"] == list(forest_count_poly(3, 1).coeffs)
    assert doc["n"] == 3 and doc["k"] == 1


def test_qpoly_refuses_pretty_with_json(capsys):
    err = refused(capsys, "qpoly", "3", "1", "--pretty", "--json")
    assert "not allowed with argument" in err


def test_verify_past_the_enumeration_bound(capsys):
    # past n = 12 verify compares the two routes that still admit n
    code, out, _ = run(capsys, "verify", "14", "--k", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert [r["d"] for r in doc["rows"]] == [1, 2, 7, 14]
    for r in doc["rows"]:
        assert list(r) == ["n", "k", "d", "poly", "closed", "agree"], r
        assert r["poly"] == r["closed"] and r["agree"] is True, r
    assert doc["all_agree"] is True


def test_enumerate_stream(capsys):
    code, out, _ = run(capsys, "enumerate", "5", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == forest_count(5, 3)
    seen = {NonCrossingForest.from_json(json.loads(line)) for line in lines}
    assert len(seen) == len(lines)


def test_enumerate_count_only(capsys):
    # enumerate only streams; fixed prints one route's count of one cell
    assert "unrecognized arguments: --count" in refused(
        capsys, "enumerate", "6", "2", "--count")
    code, out, _ = run(capsys, "fixed", "6", "2", "1")
    assert (code, out) == (0, f"{forest_count(6, 2)}\n")


def test_fixed_count_builds_no_forest(capsys, monkeypatch):
    # the default method is the orbit route, whose count walks chord masks
    def no_forest(*args):
        raise AssertionError("a count built a forest")

    monkeypatch.setattr(NonCrossingForest, "_unchecked", classmethod(no_forest))
    monkeypatch.setattr(NonCrossingForest, "__init__", no_forest)
    for argv, expected in ((("9", "3", "1"), forest_count(9, 3)),
                           (("12", "3", "2"), 6006)):
        code, out, _ = run(capsys, "fixed", *argv)
        assert (code, out.strip()) == (0, str(expected)), argv


@pytest.mark.parametrize("name", [name for name, r in ROUTES.items() if r.stream])
def test_enumerate_count_is_length_of_stream(capsys, name):
    # fixed prints the route's count, which must be the number of forests
    # enumerate streams along the same route
    for n, k, d in ((6, 3, 1), (6, 3, 2), (7, 6, 1), (8, 4, 2), (8, 5, 2), (9, 4, 1)):
        if d < ROUTES[name].least_d:
            continue
        cell = (str(n), str(k))
        code, out, _ = run(capsys, "enumerate", *cell, "--invariant", str(d),
                           "--method", name)
        assert code == 0
        lines = out.count("\n")
        code, out, _ = run(capsys, "fixed", *cell, str(d), "--method", name)
        assert (code, int(out)) == (0, lines), (name, n, k, d)


def test_enumerate_invariant(capsys):
    code, out, _ = run(capsys, "enumerate", "6", "3", "--invariant", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 15
    for line in lines:
        f = NonCrossingForest.from_json(json.loads(line))
        assert f.is_d_invariant(2)


def test_enumerate_bijection_rejects_d_1(capsys):
    # the same refusal as `fixed 6 2 1 --method bijection`
    for argv in (("enumerate", "6", "2", "--invariant", "1", "--method", "bijection"),
                 ("enumerate", "6", "2", "--method", "bijection"),
                 ("fixed", "6", "2", "1", "--method", "bijection")):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error:") and "d >= 2" in err


def test_enumerate_dot(capsys):
    code, out, _ = run(capsys, "enumerate", "4", "3", "--dot")
    assert code == 0
    headers = [ln for ln in out.splitlines() if ln.startswith("graph ")]
    assert len(headers) == forest_count(4, 3)
    assert out.count("}") == len(headers)


def test_fixed_methods(capsys):
    for method in ("orbit", "filter", "bijection", "closed", "poly"):
        code, out, _ = run(capsys, "fixed", "6", "3", "2", "--method", method)
        assert code == 0, method
        assert out.strip() == "15", method


def test_construct_decompose_round_trip(capsys, monkeypatch, tmp_path):
    phi = NonCrossingForest(4, [(1, 2), (2, 4)])
    src = tmp_path / "phi.json"
    src.write_text(json.dumps(phi.to_json()))

    code, out, _ = run(capsys, "construct", "--vertex", "1", "--d", "3", str(src))
    assert code == 0
    big = NonCrossingForest.from_json(json.loads(out))
    assert big.n == 12 and big.is_d_invariant(3)

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(big.to_json())))
    code, out, _ = run(capsys, "decompose", "--d", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "periodic"
    assert doc["vertex"] == 1
    assert NonCrossingForest.from_json(doc["forest"]) == phi


def test_construct_mark_and_diameter_decompose(capsys, monkeypatch):
    phi = NonCrossingForest(3, [(1, 3)])
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(phi.to_json())))
    code, out, _ = run(capsys, "construct", "--mark", "1", "--mark-edge", "1", "3")
    assert code == 0
    big = NonCrossingForest.from_json(json.loads(out))
    assert big.n == 6 and big.is_d_invariant(2)
    assert big.component_count() == 3  # k odd: diameter regime

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(big.to_json())))
    code, out, _ = run(capsys, "decompose", "--d", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "diameter"
    assert doc["mark"] == {"vertex": 1, "edge": [1, 3]}
    assert NonCrossingForest.from_json(doc["forest"]) == phi


def test_construct_bad_vertex_exits_2(capsys, monkeypatch):
    phi = NonCrossingForest(12, [(1, 2), (1, 8), (3, 7), (4, 7), (9, 11)])
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(phi.to_json())))
    code, _, err = run(capsys, "construct", "--vertex", "3", "--d", "2")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("d", ["0", "-3"])
def test_construct_small_fold_names_fold_and_size(capsys, monkeypatch, d):
    # the message names the fold and the input's size, not their product
    phi = NonCrossingForest(8, [(1, 2), (3, 5)])
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(phi.to_json())))
    code, out, err = run(capsys, "construct", "--vertex", "1", "--d", d)
    assert code == 2
    assert out == ""
    assert err == (f"error: fold d = {d} must be an integer >= 2 to glue copies of "
                   "a forest on 8 vertices\n")


def test_construct_vertex_rejects_mark_edge(capsys, monkeypatch):
    # a marked edge means nothing to the periodic gluing; it used to be dropped
    phi = NonCrossingForest(4, [(1, 2), (1, 3)])
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(phi.to_json())))
    code, out, err = run(capsys, "construct", "--vertex", "1", "--d", "2",
                         "--mark-edge", "1", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--mark-edge" in err


def test_construct_forest_bound(capsys, monkeypatch, tmp_path):
    # the glued size is refused before any gluing starts
    def no_gluing(*args):
        raise AssertionError("glued past the forest bound")

    src = tmp_path / "phi.json"
    src.write_text(json.dumps({"n": 4, "edges": [[1, 2], [1, 3]]}))
    monkeypatch.setattr(bijections, "construct_periodic", no_gluing)
    for d in (str(MAX_FOREST_N), str(MAX_FOREST_N // 4 + 1)):
        code, out, err = run(capsys, "construct", "--vertex", "1", "--d", d, str(src))
        assert code == 2, d
        assert out == ""
        assert err.startswith("error:") and str(MAX_FOREST_N) in err

    half = MAX_FOREST_N // 2
    src.write_text(json.dumps({"n": half + 1, "edges": []}))
    monkeypatch.setattr(bijections, "construct_diameter", no_gluing)
    code, out, err = run(capsys, "construct", "--mark", "1", str(src))
    assert code == 2 and out == "" and str(MAX_FOREST_N) in err
    monkeypatch.undo()

    # the guard multiplies by the fold given, so a fold below 2 on a forest
    # of more than half the bound is the gluing's to refuse
    src.write_text(json.dumps({"n": half + 500, "edges": []}))
    code, out, err = run(capsys, "construct", "--vertex", "1", "--d", "0", str(src))
    assert (code, out) == (2, "") and err.startswith("error: fold d = 0 must be")

    # exactly at the bound both maps still run
    src.write_text(json.dumps({"n": half, "edges": [[1, 2]]}))
    for argv in (("--vertex", "1", "--d", "2"), ("--mark", "1")):
        code, out, _ = run(capsys, "construct", *argv, str(src))
        assert code == 0, argv
        assert json.loads(out)["n"] == MAX_FOREST_N


def test_read_forest_bound(capsys, monkeypatch):
    # an input over the bound is refused before it is validated: these
    # chords cross, and the message must name the bound, not the crossing
    over = {"n": MAX_FOREST_N + 1, "edges": [[1, 3], [2, 4]]}
    for argv in (("decompose", "--d", "3"), ("construct", "--vertex", "1", "--d", "2")):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(over)))
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error:") and str(MAX_FOREST_N) in err
        assert "cross" not in err


def test_decompose_malformed_json(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("{not json"))
    code, _, err = run(capsys, "decompose", "--d", "2")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("label, shown", [("a", "'a'"), (None, "None"), ([1], "[1]")])
def test_non_integer_label_exits_2(capsys, monkeypatch, label, shown):
    doc = json.dumps({"n": 4, "edges": [[label, 3]]})
    for argv in (("decompose", "--d", "2"), ("construct", "--vertex", "1", "--d", "2")):
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err == f"error: vertex {shown} out of range 1..4\n"


def test_deeply_nested_json_exits_2(capsys, monkeypatch):
    for argv in (("decompose", "--d", "2"), ("construct", "--vertex", "1", "--d", "2")):
        monkeypatch.setattr("sys.stdin", io.StringIO("[" * 200000))
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err == "error: forest JSON nested too deeply\n"


def test_out_of_memory_exits_2(capsys, monkeypatch):
    # json.load raised MemoryError on an 18 MB file of three million edges
    # under a 250 MB address-space limit; main printed a traceback and
    # exited 1. The failing allocation is simulated here.
    def exhausted(fh):
        raise MemoryError

    monkeypatch.setattr(json, "load", exhausted)
    for argv in (("decompose", "--d", "2"), ("construct", "--vertex", "1", "--d", "2")):
        monkeypatch.setattr("sys.stdin", io.StringIO("{}"))
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err == "error: out of memory\n"


def test_verify_plain(capsys):
    code, out, _ = run(capsys, "verify", "6")
    assert code == 0
    assert "all routes agree" in out
    # one row per (k, d) pair: sum over k of the divisor count
    rows = [ln for ln in out.splitlines() if ln.lstrip().startswith("n=")]
    assert len(rows) == 6 * 4


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "4", "--k", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    brute = {r["d"]: r["brute"] for r in doc["rows"]}
    assert brute == {"1": 14, "2": 2, "4": 0} or brute == {1: 14, 2: 2, 4: 0}


def test_verify_sweep_and_workers(capsys):
    # at n = 30, each of two workers gets cells of one n with gaps between
    # them, so the poly route steps over cells it was not asked for
    for argv in (("--max-n", "5"), ("30",)):
        code, out1, _ = run(capsys, "verify", *argv, "--json")
        assert code == 0
        code, out2, _ = run(capsys, "verify", *argv, "--workers", "2", "--json")
        assert code == 0
        assert json.loads(out1) == json.loads(out2), argv


def test_verify_report_bytes_are_pinned(capsys):
    # every route's count on every cell with n <= 8, and the report's layout,
    # byte for byte
    code, out, _ = run(capsys, "verify", "--max-n", "8", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9f54509dcd9cf9b49e5eb26a2fd19cfeca4af6697bb45d83cf7c6151d06cea2c")


def test_verify_arg_conflicts(capsys):
    # argparse holds the rules on n and --max-n: exactly one of them
    required = "one of the arguments n --max-n is required"
    for argv, message in ((("verify",), required),
                          (("verify", "--k", "3"), required),
                          (("verify", "6", "--max-n", "8"),
                           "argument --max-n: not allowed with argument n")):
        err = refused(capsys, *argv)
        assert err.startswith("usage: ncfsieve verify"), argv
        assert f"ncfsieve verify: error: {message}\n" in err, argv
    # the one rule left to the command itself
    code, out, err = run(capsys, "verify", "--max-n", "5", "--k", "3")
    assert (code, out, err) == (2, "", "error: --k needs an explicit n\n")


@pytest.mark.parametrize("argv", [("0",), ("-2",), ("0", "--json"),
                                  ("--max-n", "0"), ("--max-n", "-3"),
                                  ("--max-n", "0", "--json")])
def test_verify_rejects_empty_sweep(capsys, argv):
    err = refused(capsys, "verify", *argv)
    name = "--max-n" if "--max-n" in argv else "n"
    assert f"ncfsieve verify: error: argument {name}: must be at least 1" in err


@pytest.mark.parametrize("cpus, argv, pool_size", [
    (4, ("--max-n", "5"), 4),     # 15 cells: capped by the cores
    (64, ("3",), 3),              # 3 cells: capped by the cells
    (None, ("--max-n", "4"), None),  # core count unknown: serial, no pool
    (8, ("4", "--k", "2"), None),    # one cell: serial, no pool
])
def test_verify_workers_clamped(capsys, monkeypatch, cpus, argv, pool_size):
    import concurrent.futures

    sizes = []

    class RecordingPool:
        """Records max_workers and maps in this process, so no worker
        process is ever started."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    code, out, _ = run(capsys, "verify", *argv, "--workers", "100000", "--json")
    assert code == 0
    assert sizes == ([] if pool_size is None else [pool_size])
    code, serial, _ = run(capsys, "verify", *argv, "--json")
    assert json.loads(out) == json.loads(serial)


@pytest.mark.parametrize("workers", ["0", "-5"])
def test_verify_rejects_workers_below_1(capsys, monkeypatch, workers):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert "--workers" in refused(capsys, "verify", "3", "--workers", workers)


def test_verify_has_no_bijection_switch(capsys):
    # every verify run takes the bijection route; no flag skips it
    assert "unrecognized arguments: --no-bijection" in refused(
        capsys, "verify", "3", "--no-bijection")


def test_size_guard(capsys, monkeypatch):
    # the enumeration bound is a fixed constant, which no environment knob
    # lifts; count takes the closed route and its bound, and verify runs
    # past it without the walk
    def unreachable(*args):
        raise AssertionError("the walk ran past the enumeration bound")

    monkeypatch.setattr(enumeration, "_leaf_groups", unreachable)
    monkeypatch.setenv("NCF_SIEVE_MAX_N", "20")
    over = str(MAX_ENUM_N + 1)
    code, out, err = run(capsys, "enumerate", over, over, "--method", "filter")
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"({MAX_ENUM_N})" in err
    code, out, _ = run(capsys, "count", over, "3")
    assert code == 0 and int(out) == forest_count(MAX_ENUM_N + 1, 3)
    code, out, _ = run(capsys, "verify", over, "--k", "3")
    assert code == 0 and out.endswith("2 cells checked: all routes agree\n")


@pytest.mark.parametrize("name", list(ROUTES))
def test_route_bounds(capsys, monkeypatch, name):
    # fixed and enumerate refuse n over the route's own bound before it runs
    route = ROUTES[name]

    def unreachable(n, k, d):
        raise AssertionError(f"the {name} route ran at n = {n}")

    over = str(route.max_n + 1)
    argvs = [("fixed", over, "1", "1", "--method", name)]
    if route.stream is not None:
        argvs.append(("enumerate", over, "1", "--method", name))
    with monkeypatch.context() as m:
        m.setitem(ROUTES, name, route._replace(count=unreachable, stream=unreachable))
        for argv in argvs:
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "", argv
            assert err.startswith("error:") and f"({route.max_n})" in err, argv

    n, k, d = route.max_n, route.max_n - 1, route.least_d
    expected = closed_form_eval(n, k, d)
    code, out, _ = run(capsys, "fixed", str(n), str(k), str(d), "--method", name)
    assert code == 0 and int(out) == expected
    if route.stream is not None:
        code, out, _ = run(capsys, "enumerate", str(n), str(k), "--invariant", str(d),
                           "--method", name)
        assert code == 0 and out.count("\n") == expected


def test_verify_checks_bound_before_allocating(capsys):
    # the bound is checked against --max-n itself, before any list of the
    # n up to it is built
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "verify", "--max-n", "1000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert peak < 1 << 20, f"traced peak {peak} bytes"
    assert err.startswith("error: n = 1000000 exceeds")


def test_default_size_guard(capsys):
    code, _, err = run(capsys, "enumerate", "13", "2")
    assert code == 2
    assert "12" in err


def test_poly_bound(capsys):
    over = str(MAX_POLY_N + 1)
    for argv in (("qpoly", over, "1"), ("verify", over),
                 ("fixed", over, "1", "1", "--method", "poly")):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "error:" in err and str(MAX_POLY_N) in err

    at = str(MAX_POLY_N)
    code, out, _ = run(capsys, "qpoly", at, at)
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "fixed", at, at, "2", "--method", "poly")
    assert code == 0 and out.strip() == "1"
    # the closed form is not a q-polynomial route and has its own bound
    code, out, _ = run(capsys, "fixed", over, over, "1", "--method", "closed")
    assert code == 0 and out.strip() == "1"


def test_arithmetic_error_exits_2(capsys, monkeypatch):
    def inexact(n, k):
        raise ExactDivisionError("remainder left")

    monkeypatch.setattr(qpoly, "forest_count_poly", inexact)
    code, out, err = run(capsys, "qpoly", "5", "2")
    assert code == 2
    assert out == ""
    assert err.strip() == "error: remainder left"
    assert "Traceback" not in err


def test_non_integer_root_value_exits_2(capsys, monkeypatch):
    # q is i at a primitive 4-th root of unity, no count: folded modulo
    # q^4 - 1, q^3 and q^1 differ though both are prime to 4
    monkeypatch.setattr(sieving, "forest_count_poly", lambda n, k: QPoly((0, 1)))
    code, out, err = run(capsys, "fixed", "4", "2", "4", "--method", "poly")
    assert code == 2
    assert out == ""
    assert err.strip() == (
        "error: value at a primitive 4-th root of unity is not an integer: modulo "
        "q^4 - 1, q^3 has coefficient 0 and q^1, with gcd(3, 4) = 1, has 1")
    assert "Traceback" not in err


def test_interrupt_exits_130(capsys, monkeypatch):
    def interrupted(n, k):
        raise KeyboardInterrupt

    monkeypatch.setattr(qpoly, "forest_count_poly", interrupted)
    try:
        code, out, err = run(capsys, "qpoly", "5", "2")
    except KeyboardInterrupt:  # left to escape, it would stop the test session
        pytest.fail("KeyboardInterrupt escaped main")
    assert code == 130
    assert out == ""
    assert err == "error: interrupted\n"
    assert "Traceback" not in err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# ------------------------------------------------------ the exit contract

_VERIFY_MAX_N = sorted(r.max_n for r in ROUTES.values())[-2]
# The values of every option and positional: the edges of each range, each
# route's bound and the n past it, a huge int, and tokens that int()
# refuses. Small cells, from 1 and 2, are drawn half the time; the cost
# rule of _cheap skips the large ones.
INTS = ("-1", "0", "1", "2", str(10 ** 40),
        *(str(b + e) for b in sorted({r.max_n for r in ROUTES.values()})
          for e in (0, 1)))
JUNK = ("True", "1.5", "x", "", "-")
VALUES = ("1", "2") * 8 + INTS + JUNK
# The one --workers value that argparse takes here is 1, so no example
# starts a worker pool.
WORKERS = ("1", "0", "-1", str(-10 ** 40), "True", "1.5", "x", "")
# Forest files: all but "good" are refused by every command that reads them.
FOREST_DOCS = {
    "not-json": "{not json",
    "empty": "",
    "list": "[]",
    "no-edges": '{"n": 4}',
    "crossing": '{"n": 4, "edges": [[1, 3], [2, 4]]}',
    "label": '{"n": 4, "edges": [["a", 3]]}',
    "over": json.dumps({"n": MAX_FOREST_N + 1, "edges": []}),
    "deep": "[" * 100000,
    "good": '{"n": 4, "edges": [[1, 2], [3, 4]]}',
}


@pytest.fixture(scope="module")
def forest_dir(tmp_path_factory):
    folder = tmp_path_factory.mktemp("forests")
    for name, text in FOREST_DOCS.items():
        (folder / f"{name}.json").write_text(text)
    return folder


@functools.cache
def contract_argvs(forest_dir):
    """argvs of one command each (or of none), built from OPTIONS: each of
    the command's options taken or not, positionals nearly always, in any
    order, each value drawn from the alphabet its option reads."""
    parser = _build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    files = ["-", "x", *(str(forest_dir / f"{name}.json")
                         for name in (*FOREST_DOCS, *["good"] * 8))]

    def group(command, name):
        p = parser if command == "" else sub.choices[command]
        (action,) = (a for a in p._actions
                     if name in a.option_strings or name == a.dest)
        flag = [name] if action.option_strings else []
        if action.nargs == 0:
            return st.just(flag)
        alphabet = {"--workers": WORKERS, "--method": (*ROUTES, "x"),
                    "forest": files}.get(name, VALUES)
        count = action.nargs if isinstance(action.nargs, int) else 1
        return st.lists(st.sampled_from(alphabet), min_size=count,
                        max_size=count).map(lambda values: flag + values)

    def taken(command, name):
        # an option half the time, a positional nine times in ten
        odds = 2 if name.startswith("-") else 10
        return st.integers(0, odds - 1).flatmap(
            lambda i: group(command, name) if i else st.just([]))

    def command_argvs(command):
        groups = [taken(command, o) for c, o in sorted(OPTIONS) if c == command]
        head = [command] if command else []
        return st.tuples(*groups).flatmap(st.permutations).map(
            lambda groups: head + [tok for g in groups for tok in g])

    return st.sampled_from(sorted({c for c, _ in OPTIONS})).flatmap(command_argvs)


def run_captured(argv):
    """main(argv) with stdin empty: its exit code, stdout and stderr. An
    argparse exit is the code of its SystemExit; any other exception
    escapes."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), patch("sys.stdin", io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _parsed(argv):
    """The namespace argparse makes of argv, or None when it exits."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return _build_parser().parse_args(list(argv))
        except SystemExit:
            return None


def _bound(args):
    """The bound on n of the route that the command runs, and its n; None
    for the forest commands."""
    if args.command == "verify":
        return _VERIFY_MAX_N, args.n if args.n is not None else args.max_n
    name = {"count": "closed", "qpoly": "poly"}.get(args.command,
                                                     getattr(args, "method", None))
    return None if name is None else (ROUTES[name].max_n, args.n)


def _cheap(args):
    """Whether the cells that the command runs are small: a cell weighs the
    forests it holds up to n = 12, and n * n past that, where the
    q-polynomial counts it; together they weigh at most 3000. The closed
    form, the forest commands and an n that the route refuses weigh
    nothing."""
    bound = _bound(args)
    if (bound is None or bound[1] > bound[0] or args.command == "count"
            or getattr(args, "method", None) == "closed"):
        return True

    def weight(n, k):
        if n > MAX_ENUM_N:
            return n * n
        return forest_count(n, k) if 1 <= k <= n else 0

    if args.command != "verify" or args.k is not None:
        cells = [(args.n, args.k)] if args.n is not None else []
    else:
        ns = [args.n] if args.n is not None else range(1, args.max_n + 1)
        cells = [(n, k) for n in ns for k in range(1, n + 1)]
    return sum(weight(n, k) for n, k in cells) <= 3000


def _printed_as_allowed(args, out):
    """Whether stdout is in the format of the command that printed it."""
    lines = out.splitlines()
    if args.command in ("count", "fixed") and not args.json:
        return re.fullmatch(r"\d+\n", out)
    if args.command == "qpoly" and not args.json:
        return len(lines) == 1 and (args.pretty or re.fullmatch(r"\d+( \d+)*", lines[0]))
    if args.command == "enumerate" and args.dot:
        return out == "" or out.startswith("graph ")
    if args.command == "verify" and not args.json:
        return (all(ln.startswith("n=") for ln in lines[:-1]) and re.fullmatch(
            r"\d+ cells checked: (all routes agree|\d+ MISMATCHES)", lines[-1]))
    keys = {"count": {"n", "k", "count"}, "qpoly": {"n", "k", "coeffs"},
            "fixed": {"n", "k", "d", "method", "count"}, "verify": {"rows", "all_agree"},
            "enumerate": {"n", "edges"}, "construct": {"n", "edges"},
            "decompose": {"kind", "d", "forest"}}[args.command]
    docs = [json.loads(out)] if args.command == "verify" else list(map(json.loads, lines))
    return all(keys <= set(doc) for doc in docs)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_exit_contract(forest_dir, data):
    # exit 0, 1 or 2 and nothing escapes; a refusal prints one error line
    # and no data; a success prints its command's format; an n past the
    # bound of the route run, or a forest past MAX_FOREST_N, is refused
    argv = data.draw(contract_argvs(forest_dir))
    args = _parsed(argv)
    assume(args is None or _cheap(args))
    code, out, err = run_captured(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert sum("error:" in ln for ln in err.splitlines()) == 1, err
        assert args is None or (err.startswith("error: ") and err.count("\n") == 1), err
    elif args is None:
        assert (code, out, err) == (0, f"ncfsieve {__version__}\n", "")
    else:
        assert err == "" and (code == 0 or args.command == "verify")
        assert _printed_as_allowed(args, out), out
    bound = args and _bound(args)
    if bound and bound[1] > bound[0]:
        assert code == 2
    if any(tok.endswith("over.json") for tok in argv):
        assert code == 2


# ------------------------------------------------------ the real entry point

# What the installed ncfsieve script runs: main() with no argv reads
# sys.argv, and its return value becomes the exit status.
ENTRY = "import sys; from ncfsieve.cli import main; sys.exit(main())"
SRC = Path(__file__).resolve().parent.parent / "src"


def script(argv):
    """Run the entry point in a fresh interpreter on a shell-style argv."""
    return subprocess.run(
        [sys.executable, "-c", ENTRY, *argv.split()],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("argv", ["verify 0", "verify", "enumerate 6 2 --count"])
def test_entry_point_refusal_exits_2(argv):
    done = script(argv)
    assert (done.returncode, done.stdout) == (2, ""), done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("argv", ["verify --max-n 6 --json", "verify 9 --k 3"])
def test_entry_point_verify_exits_0(argv):
    done = script(argv)
    assert done.returncode == 0 and done.stdout, done.stderr


@pytest.mark.parametrize("argvs, expected", [
    # the orbit walk, the filter walk and the closed form on |F(9, 3)|
    (("fixed 9 3 1", "fixed 9 3 1 --method filter", "count 9 3"),
     forest_count(9, 3)),
    # the filter walk with its rotation, the orbit walk and the q-polynomial
    # on the forests of F(12, 6) fixed at d = 2
    (("fixed 12 6 2 --method filter", "fixed 12 6 2", "fixed 12 6 2 --method poly"),
     1100),
], ids=["F(9,3)", "F(12,6)-at-d=2"])
def test_entry_point_counts_agree(argvs, expected):
    for argv in argvs:
        done = script(argv)
        assert (done.returncode, done.stdout) == (0, f"{expected}\n"), (argv, done.stderr)
