"""Span tracing of ncfsieve from outside the package.

The tracer replaces the public functions of each layer (cli, sieving,
enumeration, qpoly, bijections, forest) with wrappers that record one span
per call: name, parent, start and end, all from time.perf_counter. Nothing
under src/ is edited; every module attribute bound to a traced function is
rebound to its wrapper, so calls between modules are seen too. Generators
get one span per item, timed as the caller consumes them. Spans stay in
flat arrays in memory and are written out once, after the run.
"""

from __future__ import annotations

import json
from array import array
from collections import namedtuple
from time import perf_counter

CacheCounts = namedtuple("CacheCounts", "hits misses")

LAYERS = ("cli", "sieving", "enumeration", "qpoly", "bijections", "forest")

BIJECTION_FUNCTIONS = (
    "decompose_periodic",
    "construct_periodic",
    "decompose_diameter",
    "construct_diameter",
    "tree_extents",
    "classify_vertices",
    "all_marks",
)

# (module, function, is a generator)
TARGETS = (
    ("cli", "main", False),
    ("sieving", "verify_csp", False),
    ("sieving", "poly_eval", False),
    ("sieving", "closed_form_eval", False),
    ("sieving", "fixed_count_bijection", False),
    ("sieving", "fixed_count_brute", False),
    ("enumeration", "invariant_counts", False),
    ("enumeration", "count_invariant", False),
    ("enumeration", "count_forests", False),
    ("enumeration", "enumerate_forests", True),
    ("enumeration", "enumerate_invariant", True),
    ("qpoly", "forest_count_poly", False),
    ("qpoly", "eval_at_root", False),
) + tuple(("bijections", f, False) for f in BIJECTION_FUNCTIONS)


def lru_tables(module) -> dict:
    """Every lru_cache-wrapped function defined at module level."""
    return {
        name: obj for name, obj in vars(module).items() if hasattr(obj, "cache_info")
    }


class Tracer:
    """Records spans for the calls it wraps; install() patches, uninstall()
    restores every binding it changed."""

    def __init__(self, package):
        self.package = package
        self.modules = [package] + [getattr(package, m) for m in LAYERS]
        self.names: list[str] = []
        self.span_name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.errors = dict.fromkeys(LAYERS, 0)
        self.counts = {"leaves": 0, "terms": 0, "forests": 0, "unchecked": 0}
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _wrap_call(self, name: str, layer: str, fn, on_result=None):
        nid = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            i = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.errors[layer] += 1
                raise
            finally:
                tracer._close(i)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _wrap_gen(self, name: str, layer: str, fn, per_item=None):
        nid = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                i = tracer._open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                except Exception:
                    tracer.errors[layer] += 1
                    raise
                finally:
                    tracer._close(i)
                if per_item is not None:
                    per_item()
                yield item

        return traced

    # -- patching ----------------------------------------------------------

    def _rebind(self, orig, replacement) -> None:
        for mod in self.modules:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, orig))

    def install(self) -> None:
        counts = self.counts

        def add_leaves(counts_by_d):
            counts["leaves"] += counts_by_d[1]

        def add_terms(poly):
            counts["terms"] += len(poly.coeffs)

        def add_forest():
            counts["forests"] += 1

        hooks = {
            "enumeration.invariant_counts": add_leaves,
            "qpoly.forest_count_poly": add_terms,
            "enumeration.enumerate_invariant": add_forest,
        }
        for mod_name, fn_name, is_gen in TARGETS:
            name = f"{mod_name}.{fn_name}"
            orig = getattr(getattr(self.package, mod_name), fn_name, None)
            if orig is None:
                # Gone from the package: its metrics read zero, nothing breaks.
                self._name_id(name)
                continue
            wrap = self._wrap_gen if is_gen else self._wrap_call
            self._rebind(orig, wrap(name, mod_name, orig, hooks.get(name)))

        cls = self.package.forest.NonCrossingForest
        init = cls.__dict__["__init__"]
        unchecked = cls.__dict__["_unchecked"]
        raw_unchecked = unchecked.__func__

        def counted_unchecked(klass, n, edges):
            counts["unchecked"] += 1
            return raw_unchecked(klass, n, edges)

        cls.__init__ = self._wrap_call("forest.validated", "forest", init)
        cls._unchecked = classmethod(counted_unchecked)
        self._undo.append((cls, "__init__", init))
        self._undo.append((cls, "_unchecked", unchecked))

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    # -- reduction ---------------------------------------------------------

    def per_name(self) -> dict[str, dict]:
        """calls, inclusive seconds, self seconds and the longest span for
        every traced name. Self time is a span minus its direct children."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        out = {
            name: {"calls": 0, "s": 0.0, "self_s": 0.0, "max_s": 0.0}
            for name in self.names
        }
        for i in range(n):
            row = out[self.names[self.span_name[i]]]
            row["calls"] += 1
            row["s"] += dur[i]
            row["self_s"] += dur[i] - covered[i]
            row["max_s"] = max(row["max_s"], dur[i])
        return out

    def write(self, path, t0: float, header: dict) -> None:
        """Plain JSON: the header (per-layer table and run facts), the name
        table, then one [name, parent, start, end] row per span, times in
        seconds from t0."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header)[:-1])
            fh.write(', "names": ' + json.dumps(self.names) + ', "spans": [')
            for i in range(len(self.start)):
                fh.write(
                    f'{"," if i else ""}\n[{self.span_name[i]}, {self.parent[i]}, '
                    f"{self.start[i] - t0:.9f}, {self.end[i] - t0:.9f}]"
                )
            fh.write("\n]}\n")


def _cache(module, fn_name: str):
    """cache_info() of an lru table, or zeros when it is not one (any more)."""
    info = getattr(getattr(module, fn_name, None), "cache_info", None)
    return info() if info is not None else CacheCounts(0, 0)


def _per(total_s: float, count: int) -> float:
    """Microseconds per unit; 0 when the workload never did that work."""
    return total_s / count * 1e6 if count else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """The per-layer table of one traced execution, read from its spans,
    its counters and the cache_info() of the lru tables."""
    pkg = tracer.package
    by = tracer.per_name()
    c = tracer.counts
    m: dict[str, float] = {"trace.wall_s": wall_s}

    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            row["self_s"] for name, row in by.items() if name.split(".")[0] == layer
        )
        m[f"{layer}.errors"] = tracer.errors[layer]

    m["cli.main.self_s"] = by["cli.main"]["self_s"]

    vc = by["sieving.verify_csp"]
    m["sieving.verify_csp.calls"] = vc["calls"]
    m["sieving.verify_csp.self_s"] = vc["self_s"]
    m["sieving.verify_csp.cell_max_s"] = vc["max_s"]
    for fn in ("poly_eval", "closed_form_eval", "fixed_count_bijection"):
        m[f"sieving.{fn}.s"] = by[f"sieving.{fn}"]["s"]

    ic = by["enumeration.invariant_counts"]["s"]
    m["enumeration.invariant_counts.s"] = ic
    m["enumeration.invariant_counts.leaves"] = c["leaves"]
    m["enumeration.invariant_counts.us_per_leaf"] = _per(ic, c["leaves"])
    ei = by["enumeration.enumerate_invariant"]["s"]
    m["enumeration.enumerate_invariant.s"] = ei
    m["enumeration.enumerate_invariant.forests"] = c["forests"]
    m["enumeration.enumerate_invariant.us_per_forest"] = _per(ei, c["forests"])
    m["enumeration.cache_misses"] = sum(
        f.cache_info().misses for f in lru_tables(pkg.enumeration).values()
    )

    fcp = by["qpoly.forest_count_poly"]
    info = _cache(pkg.qpoly, "forest_count_poly")
    m["qpoly.forest_count_poly.s"] = fcp["s"]
    m["qpoly.forest_count_poly.calls"] = fcp["calls"]
    m["qpoly.forest_count_poly.cache_hits"] = info.hits
    m["qpoly.forest_count_poly.cache_misses"] = info.misses
    m["qpoly.forest_count_poly.us_per_term"] = _per(fcp["s"], c["terms"])
    m["qpoly.eval_at_root.s"] = by["qpoly.eval_at_root"]["s"]
    m["qpoly.eval_at_root.calls"] = by["qpoly.eval_at_root"]["calls"]
    m["qpoly.q_binomial.cache_misses"] = _cache(pkg.qpoly, "q_binomial").misses
    m["qpoly.cyclotomic.cache_misses"] = _cache(pkg.qpoly, "cyclotomic").misses

    for fn in BIJECTION_FUNCTIONS:
        row = by[f"bijections.{fn}"]
        m[f"bijections.{fn}.calls"] = row["calls"]
        m[f"bijections.{fn}.us_per_call"] = _per(row["s"], row["calls"])

    fv = by["forest.validated"]
    m["forest.validated.calls"] = fv["calls"]
    m["forest.validated.s"] = fv["s"]
    m["forest.unchecked.calls"] = c["unchecked"]
    return m
