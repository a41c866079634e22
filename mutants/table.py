"""The mutants that the tests must kill, one row each.

A row names the file under src/ncfsieve, a snippet that must occur in it
exactly once, the replacement that makes the mutant, the tests that must
fail on it (pytest node ids or files) and a phrase of the CHANGES.md entry
that describes it. run.py applies each row to a copy of the tree.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]
    changes: str


ENUM = "tests/test_enumeration.py"
BIJ = "tests/test_bijections.py"
CLI = "tests/test_cli.py"
QP = "tests/test_qpoly.py"

MUTANTS = (
    # the filter walk
    Mutant(
        "count-cut-strict", "enumeration.py",
        "while cand.bit_count() >= want:",
        "while cand.bit_count() > want:",
        (f"{ENUM}::test_counts_match_formula",
         f"{ENUM}::test_matches_recursive_generator"),
        "count cut made strict",
    ),
    Mutant(
        "floor-cut-early", "enumeration.py",
        "if (tops & below[u]).bit_count() >= k:",
        "if (tops & below[u]).bit_count() >= k - 1:",
        (f"{ENUM}::test_counts_match_formula",
         f"{ENUM}::test_matches_recursive_generator"),
        "floor cut one component early",
    ),
    Mutant(
        "rotation-cut-early", "enumeration.py",
        "miss.bit_count() > want - 1):",
        "miss.bit_count() > want - 2):",
        (f"{ENUM}::test_filter_counts_match_per_forest_filter",
         f"{ENUM}::test_fixed_stream_is_the_per_forest_filter"),
        "rotation cut at `> want - 2`",
    ),
    Mutant(
        "tally-flush-dropped", "enumeration.py",
        "    if tally:\n        counts[0] += total\n",
        "",
        (f"{ENUM}::test_frozen_invariant_values",
         f"{ENUM}::test_counts_match_formula"),
        "the tally flush dropped",
    ),
    Mutant(
        "rotation-state-not-restored", "enumeration.py",
        "v, u, star[u], rsp = undo.pop()",
        "v, u, star[u], _ = undo.pop()",
        (f"{ENUM}::test_fixed_stream_is_the_per_forest_filter",
         f"{ENUM}::test_filter_counts_past_ten_match_closed_form"),
        "r(prefix) not restored on the undo pop",
    ),
    Mutant(
        "filter-root-not-largest", "enumeration.py",
        "            if u < v:\n                u, v = v, u\n",
        "            if u > v:\n                u, v = v, u\n",
        (f"{ENUM}::test_counts_match_formula",),
        "the filter walk's link test flipped to `if u > v:`",
    ),
    # the orbit walk and its stream
    Mutant(
        "leaf-not-taken-back", "enumeration.py",
        "                    yield chosen, ends[j]\n"
        "                    undo_joins(parent, undo, sz)\n",
        "                    yield chosen, ends[j]\n",
        (f"{ENUM}::test_orbit_stream_order_is_pinned",
         f"{ENUM}::test_random_cell_against_filter"),
        "leaf not taken back",
    ),
    Mutant(
        "chosen-not-truncated", "enumeration.py",
        "                del chosen[-sz:]\n",
        "",
        (f"{ENUM}::test_orbit_stream_order_is_pinned",),
        "chosen list not truncated on undo",
    ),
    Mutant(
        "orbit-d1-handoff", "enumeration.py",
        "    check_d(d, n)\n    return sum(1 for _ in _orbit_walk(n, k, d))\n",
        "    check_d(d, n)\n    if d == 1:\n        return count_forests(n, k)\n"
        "    return sum(1 for _ in _orbit_walk(n, k, d))\n",
        (f"{ENUM}::test_orbit_route_at_d_1_reaches_no_filter_walk",),
        "orbit count handing d = 1 back to `count_forests`",
    ),
    Mutant(
        "leaf-out-of-sort", "enumeration.py",
        "        edges = [*chosen, *leaf]\n        edges.sort()\n",
        "        edges = [*chosen]\n        edges.sort()\n        edges += leaf\n",
        (f"{ENUM}::test_orbit_stream_order_is_pinned",
         f"{ENUM}::test_orbit_route_streams"),
        "leaf orbit left out of the sort",
    ),
    Mutant(
        "self-crossing-orbit-kept", "enumeration.py",
        "        if not row & omask:\n            orbits.append((row, omask))\n",
        "        orbits.append((row, omask))\n",
        (f"{ENUM}::test_orbit_stream_order_is_pinned",
         f"{ENUM}::test_random_cell_against_filter"),
        "orbit table's self-crossing drop removed",
    ),
    Mutant(
        "orbit-crossing-least-chord", "enumeration.py",
        "enumerate(orbits) if row & omask)",
        "enumerate(orbits) if row & omask & -omask)",
        (f"{ENUM}::test_orbit_stream_order_is_pinned",
         f"{ENUM}::test_random_cell_against_filter",
         f"{ENUM}::test_orbit_table_matches_the_all_pairs_table"),
        "crossing of orbits read against the other orbit's least chord alone",
    ),
    # forests
    Mutant(
        "labels-root-not-largest", "forest.py",
        "        if u < v:\n            u, v = v, u\n",
        "        if u > v:\n            u, v = v, u\n",
        ("tests/test_forest.py::test_component_labels_are_the_largest_vertex_of_each_tree",),
        "`union_edges`' link test flipped to `if u > v:`",
    ),
    Mutant(
        "region-count-lt", "forest.py",
        "if len(regions) <= len(edges):",
        "if len(regions) < len(edges):",
        ("tests/test_forest.py",),
        "region count `<` for `<=`",
    ),
    Mutant(
        "crosses-one-order", "forest.py",
        "return a < c < b < d or c < a < d < b",
        "return a < c < b < d",
        ("tests/test_forest.py::test_crosses_matches_the_validator_sweep",),
        "`crosses` with its second disjunct dropped",
    ),
    Mutant(
        "regions-cached-unsorted", "forest.py",
        "        self._validate()\n",
        "        self._validate()\n"
        '        fields["_inner"] = innermost_chords(n, edges)\n',
        ("tests/test_forest.py::test_innermost_is_kept_but_is_no_field",
         "tests/test_forest.py::test_check_matches_pairwise_oracle"),
        "region list cached from the edges before they are sorted",
    ),
    Mutant(
        "forest-eq-edges-only", "forest.py",
        "return self.n == other.n and self.edges == other.edges",
        "return self.edges == other.edges",
        ("tests/test_forest.py::test_equality_and_hash",),
        "`NonCrossingForest.__eq__` comparing `edges` alone",
    ),
    # the command line's bounds and argument rules
    Mutant(
        "check-bound-ge", "sieving.py",
        "    if n > max_n:\n",
        "    if n >= max_n:\n",
        (f"{CLI}::test_route_bounds", f"{CLI}::test_closed_bound"),
        "`check_bound` with `>=` in place of `>`",
    ),
    Mutant(
        "verify-csp-no-route-bound", "sieving.py",
        "if d >= r.least_d and n <= r.max_n}",
        "if d >= r.least_d}",
        (f"{CLI}::test_size_guard",),
        "`verify_csp` running every route whatever its bound",
    ),
    Mutant(
        "enumerate-no-bound", "cli.py",
        "    check_bound(args.method, args.n)\n    stream = ",
        "    stream = ",
        (f"{CLI}::test_route_bounds",),
        "`enumerate` with no `check_bound`",
    ),
    Mutant(
        "verify-one-route-enough", "sieving.py",
        "sorted(r.max_n for r in ROUTES.values())[-2]",
        "sorted(r.max_n for r in ROUTES.values())[-1]",
        (f"{CLI}::test_poly_bound",),
        "`check_verify_bound` admitting an n that one route admits",
    ),
    Mutant(
        "verify-n-plain-int", "cli.py",
        'scope.add_argument("n", type=_positive_int, nargs="?")',
        'scope.add_argument("n", type=int, nargs="?")',
        (f"{CLI}::test_verify_rejects_empty_sweep",),
        "`verify`'s `n` typed `int` in place of `_positive_int`",
    ),
    # tree extents
    Mutant(
        "first-rotated-forward", "bijections.py",
        "(w - 1 - s) % n + 1",
        "(w - 1 + s) % n + 1",
        (f"{BIJ}::test_tree_extents_match_the_sets_oracle",
         f"{BIJ}::test_first_is_the_entry_from_the_preimage"),
        "first rotated forward",
    ),
    Mutant(
        "overlap-guard-dropped", "bijections.py",
        "        elif img[c] != b:\n"
        '            raise BijectionError(f"a tree partially overlaps its rotation by {s}")\n',
        "",
        (f"{BIJ}::test_tree_extents_keeps_the_overlap_guard",),
        "overlap guard dropped",
    ),
    # the bijection route's check of each image against its source
    Mutant(
        "image-check-dropped-periodic", "bijections.py",
        "                if decompose_periodic(image, d) != (phi, v):\n"
        '                    raise BijectionError(f"cell ({n}, {k}, {d}): source "\n'
        '                                         f"({phi}, {v}) is not recovered")\n',
        "",
        (f"{BIJ}::test_route_refuses_a_map_that_collapses_sources",),
        "periodic image check dropped",
    ),
    Mutant(
        "image-check-dropped-diameter", "bijections.py",
        "                if decompose_diameter(image) != (phi, mark):\n"
        '                    raise BijectionError(f"cell ({n}, {k}, 2): source "\n'
        '                                         f"({phi}, {mark}) is not recovered")\n',
        "",
        (f"{BIJ}::test_route_refuses_a_map_that_collapses_sources",),
        "diameter image check dropped",
    ),
    # the poly route's passes, their runner and its cache
    Mutant(
        "step-factor-off-by-one", "qpoly.py",
        "3 * n - 2 * m - 2)",
        "3 * n - 2 * m - 3)",
        (f"{QP}::test_forest_step_matches_the_ladder",
         f"{QP}::test_every_step_is_a_checked_kernel_pass"),
        "factor [3n-2m-2]_q of the neighbour passes as [3n-2m-3]_q",
    ),
    Mutant(
        "step-up-as-step-down", "qpoly.py",
        "    ups, downs = (high, low) if j > k else (low, high)\n",
        "    ups, downs = high, low\n",
        (f"{QP}::test_forest_step_matches_the_ladder",
         f"{QP}::test_forest_count_poly_matches_the_digest_in_any_order"),
        "passes up from a neighbour taking the passes down",
    ),
    Mutant(
        "step-sign-check-dropped", "qpoly.py",
        "    if min(f.coeffs, default=0) < 0:\n"
        '        raise ArithmeticError(f"negative coefficient in forest polynomial '
        'n={n}, k={k}")\n',
        "",
        (f"{QP}::test_forest_step_rejects_a_negative_coefficient",
         f"{QP}::test_forest_count_poly_rejects_a_negative_coefficient"),
        "the one nonnegativity check of `forest_count_poly` dropped",
    ),
    Mutant(
        "binomial-pass-dropped", "qpoly.py",
        "for i in range(1, b + 1)]",
        "for i in range(1, b)]",
        (f"{QP}::test_q_binomial_counts_partitions_in_box",
         f"{QP}::test_times_q_binomial_matches_product"),
        "the binomial ladder's last pass dropped",
    ),
    Mutant(
        "runner-skips-last-pass", "qpoly.py",
        "    for a, b in passes:\n        cs = _ratio_q_int(cs, a, b)\n",
        "    for a, b in passes[:-1]:\n        cs = _ratio_q_int(cs, a, b)\n",
        (f"{QP}::test_q_binomial_edge_cases",
         f"{QP}::test_every_step_is_a_checked_kernel_pass"),
        "`_run` skipping the last pass",
    ),
    Mutant(
        "cache-before-check", "qpoly.py",
        "    check_n(n, k)\n    f = _FOREST_POLYS.get((n, k))\n    if f is not None:\n",
        "    f = _FOREST_POLYS.get((n, k))\n    if f is None:\n        check_n(n, k)\n"
        "    if f is not None:\n",
        (f"{QP}::test_forest_count_poly_checks_before_the_cache",),
        "`check_n` only on a cache miss",
    ),
    Mutant(
        "table-keeps-old-n", "qpoly.py",
        "        _FOREST_POLYS.clear()\n",
        "        pass\n",
        (f"{QP}::test_forest_count_poly_cache_is_bounded",),
        "the table kept the cells of an earlier n",
    ),
    Mutant(
        "nearest-search-one-side", "qpoly.py",
        "for j in (k + t, k - t)",
        "for j in (k + t,)",
        ("tests/test_route_ledger.py::test_poly_large_takes_one_ladder_per_n",),
        "the nearest-cell search reading the cells above k alone",
    ),
    # the poly route's evaluation at a root of unity
    Mutant(
        "fold-class-check-dropped", "sieving.py",
        "if c != b[g]:",
        "if c != b[s]:",
        (f"{QP}::test_poly_eval_refuses_a_fold_that_is_no_class_function",
         f"{CLI}::test_non_integer_root_value_exits_2"),
        "the gcd-class check of `poly_eval` dropped",
    ),
    Mutant(
        "fold-wrong-residues", "sieving.py",
        "b = {s: sum(r[s % d::d]) for s in range(1, d + 1)}",
        "b = {s: sum(r[s::d]) for s in range(1, d + 1)}",
        (f"{QP}::test_poly_eval_is_the_reference_remainder",
         f"{QP}::test_poly_eval_frozen"),
        "the d-fold read from the wrong residues of the n-fold",
    ),
    # q-polynomials and their printing
    Mutant(
        "pretty-drops-negatives", "qpoly.py",
        "            if c == 0:\n                continue\n",
        "            if c <= 0:\n                continue\n",
        (f"{QP}::test_pretty",),
        "`pretty` skipping negative terms",
    ),
    Mutant(
        "pretty-unit-q", "qpoly.py",
        'term = "q" if mag == 1 else',
        'term = "q" if mag >= 1 else',
        (f"{QP}::test_pretty",),
        "`pretty` printing `2*q` as `q`",
    ),
)
