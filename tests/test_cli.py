"""Drive the CLI through main(argv) and check wiring, exit codes, and JSON."""

import io
import json

import pytest

from ncfsieve import bijections, qpoly
from ncfsieve.cli import MAX_FOREST_N, main
from ncfsieve.forest import NonCrossingForest
from ncfsieve.qpoly import ExactDivisionError, forest_count, forest_count_poly
from ncfsieve.sieving import MAX_CLOSED_N, MAX_POLY_N


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_plain(capsys):
    code, out, _ = run(capsys, "count", "6", "3")
    assert code == 0
    assert out.strip() == str(forest_count(6, 3))


def test_count_brute_json(capsys):
    code, out, _ = run(capsys, "count", "5", "2", "--brute", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"n": 5, "k": 2, "count": 75, "brute": 75, "agree": True}


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


def test_eval_agrees(capsys):
    code, out, _ = run(capsys, "eval", "6", "3", "2")
    assert code == 0
    assert "15" in out

    code, out, _ = run(capsys, "eval", "6", "3", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["poly"] == doc["closed"] == 15
    assert doc["agree"] is True


def test_enumerate_stream(capsys):
    code, out, _ = run(capsys, "enumerate", "5", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == forest_count(5, 3)
    seen = {NonCrossingForest.from_json(json.loads(line)) for line in lines}
    assert len(seen) == len(lines)


def test_enumerate_count_only(capsys):
    code, out, _ = run(capsys, "enumerate", "6", "2", "--count")
    assert code == 0
    assert out.strip() == str(forest_count(6, 2))


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
    for argv in (("enumerate", "6", "2", "--invariant", "1", "--method", "bijection",
                  "--count"),
                 ("enumerate", "6", "2", "--method", "bijection", "--count"),
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
    code, out1, _ = run(capsys, "verify", "--max-n", "5", "--json")
    assert code == 0
    code, out2, _ = run(capsys, "verify", "--max-n", "5", "--workers", "2", "--json")
    assert code == 0
    assert json.loads(out1) == json.loads(out2)


def test_verify_arg_conflicts(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2
    code, _, err = run(capsys, "verify", "6", "--max-n", "8")
    assert code == 2
    code, _, err = run(capsys, "verify", "--k", "3")
    assert code == 2


@pytest.mark.parametrize("argv", [("0",), ("-2",), ("0", "--json"),
                                  ("--max-n", "0"), ("--max-n", "-3"),
                                  ("--max-n", "0", "--json")])
def test_verify_rejects_empty_sweep(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2, argv
    assert out == ""
    assert err.startswith("error:")


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

        def map(self, fn, items):
            return map(fn, items)

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
    with pytest.raises(SystemExit) as exc:
        main(["verify", "3", "--workers", workers])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--workers" in captured.err


def test_verify_has_no_bijection_switch(capsys):
    # every verify run takes the bijection route; no flag skips it
    with pytest.raises(SystemExit) as exc:
        main(["verify", "3", "--no-bijection"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-bijection" in capsys.readouterr().err


def test_size_guard(capsys, monkeypatch):
    # the guard covers enumeration work, not the closed formula
    monkeypatch.setenv("NCF_SIEVE_MAX_N", "6")
    code, _, err = run(capsys, "count", "7", "3", "--brute")
    assert code == 2
    assert "NCF_SIEVE_MAX_N" in err

    code, out, _ = run(capsys, "count", "7", "3")
    assert code == 0

    code, _, _ = run(capsys, "enumerate", "6", "3", "--count")
    assert code == 0
    code, _, err = run(capsys, "enumerate", "7", "3", "--count")
    assert code == 2

    monkeypatch.setenv("NCF_SIEVE_MAX_N", "banana")
    code, _, err = run(capsys, "enumerate", "4", "2", "--count")
    assert code == 2


def test_default_size_guard(capsys):
    code, _, err = run(capsys, "enumerate", "13", "2")
    assert code == 2
    assert "12" in err


def test_poly_bound(capsys):
    over = str(MAX_POLY_N + 1)
    for argv in (("qpoly", over, "1"), ("eval", over, "1", "1"),
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


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
