"""One cold-start execution of a benchmark workload, in its own interpreter.

run.py starts this script once per execution. On stdout it writes the line
``ready`` as soon as the interpreter is up, ncfsieve is imported and the
workload's inputs are generated; then, unless ``--setup-only``, it runs the
workload, checks every result exactly and writes one JSON result line.
Anything the program prints goes to a buffer, never to this protocol.

Workloads (sizes are "full"; "smoke" is the same code at n <= 8):

* csp-sweep: ``ncfsieve verify --max-n 10 --json`` through cli.main. The
  sweep is exhaustive and in CLI order, so the seed is unused.
* poly-large: poly_eval against closed_form_eval for every (k, d) cell at
  n = 30, in an order the seed shuffles.
* roundtrip: the orbit route over every d >= 2 cell for 2 <= n <= 12 and
  n = 14; each forest is decomposed, rebuilt and given to tree_extents. At
  n = 14 one forest in ten is round-tripped, at a per-cell offset drawn
  from the seed. Every cell's count is checked against closed_form_eval.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import signal
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SIZES = {
    "full": {
        "csp-sweep": {"max_n": 10, "rows": 170},
        "poly-large": {"n": 30, "cells": 240},
        "roundtrip": {"max_n": 12, "total": 23173, "sampled_n": 14,
                      "sampled_total": 149735, "every": 10},
    },
    "smoke": {
        "csp-sweep": {"max_n": 5, "rows": 33},
        "poly-large": {"n": 6, "cells": 24},
        "roundtrip": {"max_n": 6, "total": 73, "sampled_n": 8,
                      "sampled_total": 379, "every": 10},
    },
}

# Cells of the leaf probe in the traced run: one with many edges and dead
# branches, one with few edges.
LEAF_PROBE_CELLS = {"n10k1": (10, 1), "n10k3": (10, 3)}


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


class Checks:
    """Exact checks made on one execution; a failure keeps the run going."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def expect(self, ok: bool, *what) -> None:
        """Count one check; the parts of the message are joined only when
        it fails, so passing checks cost no formatting."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(" ".join(map(str, what)))


# -- workloads: make_inputs(size, seed) and run(ncf, inputs, checks) ---------


def csp_sweep_inputs(size: dict, seed: int) -> dict:
    max_n = size["max_n"]
    cells = [(n, k, d) for n in range(1, max_n + 1)
             for k in range(1, n + 1) for d in divisors(n)]
    return {"argv": ["verify", "--max-n", str(max_n), "--json"],
            "cells": cells, "rows": size["rows"]}


def csp_sweep_run(ncf, inp: dict, checks: Checks) -> None:
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = ncf.cli.main(inp["argv"])
        report = json.loads(out.getvalue())
    except Exception as exc:
        checks.expect(False, f"verify raised {exc!r}")
        return
    rows = report["rows"]
    checks.expect(rc == 0, f"verify exit code {rc}")
    checks.expect(report["all_agree"] is True, "verify all_agree is not true")
    checks.expect(len(rows) == inp["rows"], f"{len(rows)} rows, pinned {inp['rows']}")
    checks.expect([(r["n"], r["k"], r["d"]) for r in rows] == inp["cells"],
                  "rows are not the (n, k, d) cells of the sweep in order")
    for r in rows:
        values = {r["brute"], r["poly"], r["closed"]}
        if r["d"] >= 2:
            values.add(r.get("bijection"))
        checks.expect(len(values) == 1 and r["agree"] is True, "routes disagree:", r)


def poly_large_inputs(size: dict, seed: int) -> dict:
    n = size["n"]
    cells = [(k, d) for k in range(1, n + 1) for d in divisors(n)]
    random.Random(seed).shuffle(cells)
    return {"n": n, "cells": cells, "pinned": size["cells"]}


def poly_large_run(ncf, inp: dict, checks: Checks) -> None:
    n = inp["n"]
    done = 0
    for k, d in inp["cells"]:
        try:
            poly = ncf.sieving.poly_eval(n, k, d)
            closed = ncf.sieving.closed_form_eval(n, k, d)
        except Exception as exc:
            checks.expect(False, f"({n},{k},{d}) raised {exc!r}")
            continue
        checks.expect(poly == closed, (n, k, d), "poly", poly, "closed", closed)
        done += 1
    checks.expect(done == inp["pinned"], f"{done} cells evaluated, pinned {inp['pinned']}")


def roundtrip_inputs(size: dict, seed: int) -> dict:
    rng = random.Random(seed)
    cells = []
    for n in list(range(2, size["max_n"] + 1)) + [size["sampled_n"]]:
        sampled = n == size["sampled_n"]
        for k in range(1, n + 1):
            for d in divisors(n)[1:]:
                offset = rng.randrange(size["every"]) if sampled else None
                cells.append((n, k, d, offset))
    return {"cells": cells, **size}


def _round_trip(bij, forest, k: int, d: int) -> bool:
    if k % d == 0:
        phi, v = bij.decompose_periodic(forest, d)
        back = bij.construct_periodic(phi, v, d)
    else:
        phi, mark = bij.decompose_diameter(forest)
        back = bij.construct_diameter(phi, mark)
    extents = bij.tree_extents(forest, d)
    return back == forest and len(extents) == k


def roundtrip_run(ncf, inp: dict, checks: Checks) -> None:
    every = inp["every"]
    totals = {"full": 0, "sampled": 0}
    for n, k, d, offset in inp["cells"]:
        count = 0
        try:
            for i, forest in enumerate(ncf.enumeration.enumerate_invariant(n, k, d)):
                count += 1
                if offset is not None and i % every != offset:
                    continue
                try:
                    ok, err = _round_trip(ncf.bijections, forest, k, d), None
                except Exception as exc:
                    ok, err = False, exc
                checks.expect(ok, "round trip failed at", (n, k, d), forest, err)
            expected = ncf.sieving.closed_form_eval(n, k, d)
        except Exception as exc:
            checks.expect(False, f"({n},{k},{d}) raised {exc!r}")
            continue
        checks.expect(count == expected, (n, k, d), count, "forests, closed", expected)
        totals["full" if offset is None else "sampled"] += count
    checks.expect(totals["full"] == inp["total"],
                  f"{totals['full']} forests for n <= {inp['max_n']}, pinned {inp['total']}")
    checks.expect(totals["sampled"] == inp["sampled_total"],
                  f"{totals['sampled']} forests at n = {inp['sampled_n']}, "
                  f"pinned {inp['sampled_total']}")


WORKLOADS = {
    "csp-sweep": (csp_sweep_inputs, csp_sweep_run),
    "poly-large": (poly_large_inputs, poly_large_run),
    "roundtrip": (roundtrip_inputs, roundtrip_run),
}


# -- execution ---------------------------------------------------------------


def import_ncfsieve():
    """Import ncfsieve from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import ncfsieve
    import ncfsieve.cli

    if Path(ncfsieve.__file__).resolve().parent != SRC / "ncfsieve":
        raise ImportError(f"ncfsieve imported from {ncfsieve.__file__}, not {SRC}")
    return ncfsieve


def cold_caches(ncf) -> list[str]:
    """Names of the lru tables in ncfsieve that already hold entries."""
    from tracing import LAYERS, lru_tables

    warm = []
    for layer in LAYERS:
        for name, fn in lru_tables(getattr(ncf, layer)).items():
            if fn.cache_info().currsize:
                warm.append(f"{layer}.{name}")
    return warm


def leaf_probe(ncf) -> dict[str, float]:
    """µs per leaf of the plain walk and of the filter walk on the probe
    cells, each timed directly on untraced code; 0 for a walk the package
    no longer has."""
    m = {}
    for tag, (n, k) in LEAF_PROBE_CELLS.items():
        for fn_name in ("count_forests", "invariant_counts"):
            fn = getattr(ncf.enumeration, fn_name, None)
            if fn is None:
                m[f"enumeration.{fn_name}.us_per_leaf.{tag}"] = 0.0
                continue
            t0 = time.perf_counter()
            result = fn(n, k)
            elapsed = time.perf_counter() - t0
            leaves = result if fn_name == "count_forests" else result[1]
            m[f"enumeration.{fn_name}.us_per_leaf.{tag}"] = elapsed / leaves * 1e6
    m["enumeration.filter_overhead_us_per_leaf.n10k3"] = (
        m["enumeration.invariant_counts.us_per_leaf.n10k3"]
        - m["enumeration.count_forests.us_per_leaf.n10k3"]
    )
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--alarm", type=int, default=170,
                    help="seconds after which the process kills itself")
    args = ap.parse_args(argv)
    signal.alarm(args.alarm)

    ncf = import_ncfsieve()
    make_inputs, run = WORKLOADS[args.workload]
    inputs = make_inputs(SIZES[args.size][args.workload], args.seed)
    print("ready", flush=True)
    ready_probe_s = speed.probe_s()
    if args.setup_only:
        print(json.dumps({"ready_probe_s": ready_probe_s}), flush=True)
        return 0

    checks = Checks()
    warm = cold_caches(ncf)
    checks.expect(not warm, f"lru tables warm before timing: {warm}")
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(ncf)
        tracer.install()
    sampler = speed.Sampler()
    sampler.start()
    t0 = time.perf_counter()
    run(ncf, inputs, checks)
    wall_raw_s = time.perf_counter() - t0
    probe_mean_s = sampler.stop()
    wall_s = sampler.at_reference(wall_raw_s)
    result = {
        "wall_s": wall_s,
        "wall_raw_s": wall_raw_s,
        "probe_us": probe_mean_s * 1e6,
        "ready_probe_s": ready_probe_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "notes": checks.notes,
    }
    if tracer is not None:
        from tracing import layer_metrics

        tracer.uninstall()
        layers = layer_metrics(tracer, wall_s)
        layers["speed.probe_us"] = result["probe_us"]
        layers.update(leaf_probe(ncf))
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-{args.size}.json"
        tracer.write(path, t0, {"workload": args.workload, "seed": args.seed,
                                "size": args.size, "layers": layers})
        result["layers"] = layers
        result["trace_file"] = str(path.relative_to(ROOT))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
