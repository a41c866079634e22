"""Chord-diagram model of non-crossing forests.

Vertices are labelled 1..n clockwise around a circle; vertex 1 is the base
vertex. An edge is a chord {u, v}, stored normalized as (u, v) with u < v,
and edge lists are kept sorted lexicographically. A forest is a set of
pairwise non-crossing chords that is acyclic as a graph on {1..n}.

Rotation always means the clockwise step i -> (i mod n) + 1, so rotating by
s steps sends label i to ((i - 1 + s) mod n) + 1.
"""

from __future__ import annotations

from operator import itemgetter

Chord = tuple[int, int]


def chord(u: int, v: int) -> Chord:
    """Normalize an edge to (min, max) form. Loops are rejected."""
    if u == v:
        raise ValueError(f"degenerate chord ({u}, {v})")
    return (u, v) if u < v else (v, u)


# The argument checks every module shares, each through is_int: a bool is
# rejected wherever an int is asked for, so True never stands in for 1.


def is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def check_n(n: int, k: int | None = None) -> None:
    """Raise ValueError unless n is a positive integer and, when k is
    given, 1 <= k <= n."""
    if not is_int(n) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if k is None:
        return
    if not is_int(k) or not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k!r}, n={n}")


def check_d(d: int, n: int, least: int = 1) -> None:
    """Raise ValueError unless d is a divisor of the (already checked) n
    with d >= least."""
    if not is_int(d) or d < least or n % d:
        raise ValueError(f"d = {d!r} must be a divisor of n = {n} with d >= {least}")


def check_vertex(x: int, n: int) -> None:
    if not is_int(x) or not 1 <= x <= n:
        raise ValueError(f"vertex {x!r} out of range 1..{n}")


def read_only(self, name: str, value=None):
    """__setattr__ and __delattr__ of the package's value classes
    (NonCrossingForest, qpoly.QPoly): their constructors write the instance
    dict, and nothing may change it afterwards."""
    raise AttributeError(f"cannot assign to or delete {type(self).__name__}.{name}")


def union_edges(parent: list[int], undo: list[int], edges) -> int:
    """Join the ends of each edge in turn in a union-find kept as a parent
    list, the root with the smaller label under the one with the larger, so
    every root is the largest vertex of its tree. Push the child of each
    join on undo and return len(edges). At the first edge whose ends
    already share a root, take back this call's joins instead and return
    that edge's index.

    No path compression, so undo_joins takes the joins back exactly.
    """
    made = 0
    for u, v in edges:
        while parent[u] != u:
            u = parent[u]
        while parent[v] != v:
            v = parent[v]
        if u == v:
            undo_joins(parent, undo, made)
            break
        if u < v:
            u, v = v, u
        parent[v] = u
        undo.append(v)
        made += 1
    return made


def undo_joins(parent: list[int], undo: list[int], joins: int) -> None:
    """Take back the last joins pushed on undo by union_edges: pop each
    child and make it a root again."""
    for _ in range(joins):
        child = undo.pop()
        parent[child] = child


def crosses(e1: Chord, e2: Chord, n: int) -> bool:
    """Whether two chords cross, i.e. their endpoints strictly interleave
    around the circle.

    Chords sharing an endpoint never cross. Examples on n = 4: (1,3) and
    (2,4) cross; (1,2) and (3,4) do not; (1,3) and (3,5) on n = 5 do not.
    """
    a, b = chord(*e1)
    c, d = chord(*e2)
    for x in (a, b, c, d):
        check_vertex(x, n)
    # a < b and c < d, so the chords interleave exactly when one starts
    # strictly inside the other and ends strictly past it; the strict
    # comparisons make a shared end never a crossing.
    return a < c < b < d or c < a < d < b


_first, _second = itemgetter(0), itemgetter(1)


def innermost_chords(n: int, edges) -> list[Chord | None]:
    """Entry g is the innermost chord (a, b) with a <= g < b, the closest
    over the gap just before vertex g + 1, or None; edges are normalized
    chords on 1..n. Chords over one gap nest, so two gaps share a region of
    the disk exactly when their entries are equal.

    The walk over g keeps the open chords on a stack, innermost on top. It
    pops those that end by g and pushes those that start at g, longest
    first, so a pushed chord crosses exactly when it ends past the top and
    duplicates the top when equal to it; either raises ValueError.

    >>> innermost_chords(6, [(1, 4), (2, 4), (5, 6)])
    [None, (1, 4), (2, 4), (2, 4), None, (5, 6)]
    """
    # first end descending, and longest last among equal first ends, so
    # popping gives first end ascending, longest first; two stable C sorts
    # cost a third of one with a Python key
    todo = sorted(edges, key=_second)
    todo.sort(key=_first, reverse=True)
    open_: list[Chord | None] = [None]
    inner: list[Chord | None] = []
    top = None
    for g in range(n):
        while top and top[1] <= g:
            open_.pop()
            top = open_[-1]
        while todo and todo[-1][0] == g:
            e = todo.pop()
            if e == top:
                raise ValueError(f"duplicate edge {e}")
            if top and e[1] > top[1]:
                raise ValueError(f"chords {top} and {e} cross")
            open_.append(e)
            top = e
        inner.append(top)
    return inner


def rotate_label(x: int, s: int, n: int) -> int:
    """Label of vertex x after rotating s clockwise steps."""
    return (x - 1 + s) % n + 1


class NonCrossingForest:
    """Immutable non-crossing forest: circle size plus sorted chord tuple.

    The constructor normalizes the edge list and enforces every invariant
    (label ranges, no duplicates, pairwise non-crossing, acyclic), so a
    constructed value is always a genuine non-crossing forest. It keeps
    the innermost chord per gap that its check computed, for innermost();
    that is no field, so ==, hash and repr read n and edges alone.
    """

    n: int
    edges: tuple[Chord, ...]
    __setattr__ = __delattr__ = read_only
    # innermost_chords(n, edges) once swept; a list, as a tuple copy of it
    # cost an allocation per validated forest and raised peak memory
    _inner = None

    def __init__(self, n: int, edges=()):
        check_n(n)
        norm = []
        for (u, v) in edges:
            if (type(u) is int and type(v) is int
                    and 0 < u <= n and 0 < v <= n and u != v):
                norm.append((u, v) if u < v else (v, u))
            else:
                # Labels are checked before chord() compares them, so a label
                # of the wrong type is reported as such, not as a TypeError.
                check_vertex(u, n)
                check_vertex(v, n)
                norm.append(chord(u, v))
        norm.sort()
        fields = self.__dict__
        fields["n"] = n
        fields["edges"] = tuple(norm)
        self._validate()

    @classmethod
    def _unchecked(cls, n: int, edges: tuple[Chord, ...]) -> "NonCrossingForest":
        # Hot path for the enumerator: edges must already be normalized,
        # sorted, and known valid.
        self = cls.__new__(cls)
        fields = self.__dict__
        fields["n"] = n
        fields["edges"] = edges
        return self

    def _validate(self) -> None:
        """Reject duplicate, crossing and cycle-closing chords in one chord
        sweep; __init__ checked the labels.

        e non-crossing chords cut the disk into e + 1 regions: one beneath
        each chord and the outer one. They are acyclic exactly when every
        region touches the circle, that is, when innermost_chords has e + 1
        distinct entries. A chord that is innermost over no gap bounds a
        face enclosed by chords alone, so it lies on a cycle.
        """
        n, edges = self.n, self.edges
        inner = innermost_chords(n, edges)
        regions = set(inner)
        if len(regions) <= len(edges):
            enclosing = next(e for e in edges if e not in regions)
            raise ValueError(f"edge {enclosing} closes a cycle")
        self.__dict__["_inner"] = inner

    # -- structure ---------------------------------------------------------

    def innermost(self) -> list[Chord | None]:
        """innermost_chords(n, edges), swept once per forest: the validating
        constructor keeps the list its check made, and a forest built by
        _unchecked sweeps on the first call and keeps the result. Every
        caller shares the one list, so it is read and never changed."""
        inner = self._inner
        if inner is None:
            inner = self.__dict__["_inner"] = innermost_chords(self.n, self.edges)
        return inner

    def component_labels(self) -> list[int]:
        """Entry x, for each vertex x in 1..n, is the largest vertex of x's
        tree, the root union_edges gives it; entry 0 is 0. Two vertices
        share a tree exactly when their entries are equal, and no entry
        depends on the order of the edges.

        The edges must form a forest, as the constructor guarantees: on a
        cycle union_edges takes its joins back.
        """
        n = self.n
        parent = list(range(n + 1))
        union_edges(parent, [], self.edges)
        # every parent is above its child, so from n down each parent
        # already holds its root
        for x in range(n, 0, -1):
            parent[x] = parent[parent[x]]
        return parent

    def component_count(self) -> int:
        """Number of connected components: n - |edges|, as for any forest."""
        return self.n - len(self.edges)

    # -- symmetry ----------------------------------------------------------

    def is_d_invariant(self, d: int) -> bool:
        """Whether the forest is fixed by rotation through 1/d of a turn.

        Requires d | n; d = 1 is always true. The rotated edge list is
        sorted and compared with edges, with no forest built for it.
        """
        check_d(d, self.n)
        n = self.n
        s = n // d % n
        edges = self.edges
        if s == 0:
            return True
        t = n - s  # labels above t wrap around to 1
        # u < v, so a chord wraps at neither end, at v alone or at both
        moved = [(u + s, v + s) if v <= t else (v - t, u + s) if u <= t
                 else (u - t, v - t) for u, v in edges]
        moved.sort()
        return tuple(moved) == edges

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        """Canonical JSON form: {"n": n, "edges": [[u, v], ...]} sorted."""
        return {"n": self.n, "edges": [[u, v] for (u, v) in self.edges]}

    @classmethod
    def from_json(cls, obj: dict) -> "NonCrossingForest":
        if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
            raise ValueError('forest JSON must be {"n": ..., "edges": [[u, v], ...]}')
        edges = obj["edges"]
        if not isinstance(edges, (list, tuple)):
            raise ValueError("edges must be a list of pairs")
        pairs = []
        for e in edges:
            if not isinstance(e, (list, tuple)) or len(e) != 2:
                raise ValueError(f"bad edge entry {e!r}")
            pairs.append((e[0], e[1]))
        return cls(obj["n"], pairs)

    def to_dot(self, name: str = "ncf") -> str:
        """Graphviz DOT source with a circular layout hint."""
        lines = [f"graph {name} {{", "  layout=circo;", "  node [shape=circle];"]
        lines.extend(f"  {x};" for x in range(1, self.n + 1))
        lines.extend(f"  {u} -- {v};" for (u, v) in self.edges)
        lines.append("}")
        return "\n".join(lines)

    # -- value -------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"NonCrossingForest(n={self.n!r}, edges={self.edges!r})"
