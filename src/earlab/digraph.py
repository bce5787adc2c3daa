"""Core digraph type, file formats, and the primitive predicates.

Digraphs are finite and simple: no loops, no parallel arcs.  A digon (arcs
both ways between two vertices) is allowed; "asymmetrical" rules it out.
A Digraph is its vertex ids, a frozenset of nonnegative ints, and its arc
set, a frozenset of (tail, head) pairs; the out- and in-index (each vertex's
neighbours as a sorted tuple) and strongness are found on first use.
Parsed digraphs always live on the dense id range 0..n-1.  Stage digraphs
(EarDecomposition.stage) and Digraph.union keep the ids they are given, so
the vertex set is an arbitrary finite set; the constructor checks every
vertex set the same way, and only serialization insists on density.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, repeat
from operator import eq, itemgetter
from typing import Iterable

from .errors import CapExceededError, InvalidInputError

Arc = tuple[int, int]

# Largest vertex count n a parsed digraph may have: numeric ids allocate every
# id below the largest, so the cap is checked before anything sized by n is
# built.  The cost follows the largest id, not the arc count: the edge list
# "0 999999" is a 1,000,000-vertex digraph, which `earlab decompose` refuses
# (too few arcs) in 0.24-0.33 s and 103 MB of peak RSS (CPython 3.11, 2-core Xeon).
MAX_VERTICES = 1_000_000

# A JSON label key: an id as str(id) writes it, so no two keys name one id.
_DECIMAL_ID = re.compile(r"-?[1-9][0-9]*|0")


class Digraph:
    """Immutable simple digraph on integer vertex ids."""

    def __init__(self, vertices: Iterable[int], arcs: Iterable[Arc],
                 labels: dict[int, str] | None = None):
        labels = dict(labels) if labels else {}
        arcs = arcs if type(arcs) in (list, tuple) else list(arcs)
        self._build(vertices, *_checked_arcs(arcs), labels)

    def _build(self, vertices: Iterable[int], arcs: frozenset[Arc],
               ids: list[int], labels: dict[int, str]) -> Digraph:
        """__init__ after _checked_arcs: vertex ids, negatives, loops, containment."""
        self.labels: dict[int, str] = labels
        vertices = list(vertices)
        if not set(map(type, vertices)) <= {int}:
            bad = next(v for v in vertices if type(v) is not int)
            raise InvalidInputError(f"vertex id {bad!r:.40} is not an integer")
        self.vertices: frozenset[int] = frozenset(vertices)
        self.arcs: frozenset[Arc] = arcs
        if not (min(self.vertices, default=0) >= 0 and self.vertices.issuperset(ids)
                and not any(map(eq, ids[::2], ids[1::2]))):
            # C-level passes found a bad id; these loops name the first one
            for v in self.vertices:
                if v < 0:
                    raise InvalidInputError(f"negative vertex id {v}")
            for u, v in self.arcs:
                if u == v:
                    raise InvalidInputError(f"loop arc ({u},{u}) is forbidden")
                if u not in self.vertices or v not in self.vertices:
                    raise InvalidInputError(f"arc ({u},{v}) leaves the vertex set")
        return self

    @classmethod
    def cycle(cls, n: int) -> "Digraph":
        """Directed cycle C_n on 0..n-1.  n = 2 gives the digon."""
        if n < 2:
            raise InvalidInputError("a cycle needs at least 2 vertices")
        return cls(range(n), [(i, (i + 1) % n) for i in range(n)])

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def _out(self) -> dict[int, tuple[int, ...]]:
        return _index(self.vertices, self.arcs)

    @cached_property
    def _in(self) -> dict[int, tuple[int, ...]]:
        return _index(self.vertices, zip(map(itemgetter(1), self.arcs),
                                         map(itemgetter(0), self.arcs)))

    @cached_property
    def _strong(self) -> bool:  # is_strong's answer: two sweeps, once per digraph
        root = min(self.vertices, default=None)
        return self.n < 2 or (len(_reach(self._out, root)) == self.n
                              == len(_reach(self._in, root)))

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        return self._out[v]

    def in_neighbors(self, v: int) -> tuple[int, ...]:
        return self._in[v]

    def has_arc(self, u: int, v: int) -> bool:
        return (u, v) in self.arcs

    def is_dense(self) -> bool:
        return self.vertices == frozenset(range(self.n))

    def union(self, vertices: Iterable[int], arcs: Iterable[Arc]) -> "Digraph":
        return Digraph(self.vertices | set(vertices), self.arcs | set(arcs))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Digraph)
                and self.vertices == other.vertices and self.arcs == other.arcs)

    def __hash__(self) -> int:
        return hash((self.vertices, self.arcs))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={len(self.arcs)})"


def _index(vertices: frozenset[int], pairs: Iterable) -> dict[int, tuple[int, ...]]:
    """Each vertex's partners in pairs (tail first), as a sorted tuple."""
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for u, v in pairs:
        adj[u].append(v)
    return {v: tuple(sorted(partners)) for v, partners in adj.items()}


def _checked_arcs(entries: list | tuple) -> tuple:
    """The arc set and the ids, tail first, of entries that C-level passes accept
    as lists or tuples of two ints; a loop names the first bad one in an
    InvalidInputError, for the constructor and the JSON loader alike."""
    pairs = (all(map(isinstance, entries, repeat((list, tuple))))
             and set(map(len, entries)) <= {2})
    ids = list(chain.from_iterable(entries)) if pairs else []
    if not (pairs and set(map(type, ids)) <= {int}):
        for pair in entries:
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and type(pair[0]) is int and type(pair[1]) is int):
                raise InvalidInputError(
                    f"bad arc entry {pair!r:.40}: need two integer ids")
    return frozenset(map(tuple, entries)), ids


@dataclass(frozen=True)
class NeighborhoodReport:
    first_out: frozenset[int]
    second_out: frozenset[int]

    @property
    def out_degree(self) -> int:
        return len(self.first_out)

    @property
    def second_out_degree(self) -> int:
        return len(self.second_out)


@dataclass(frozen=True)
class SetPredicates:
    independent: bool
    absorbent: bool
    quasi_absorbent: bool

    @property
    def is_kernel(self) -> bool:
        return self.independent and self.absorbent

    @property
    def is_quasi_kernel(self) -> bool:
        return self.independent and self.quasi_absorbent


def _check_vertex_count(n: int) -> None:
    if n > MAX_VERTICES:
        raise CapExceededError(
            f"{n} vertices exceed the cap of {MAX_VERTICES} (largest id + 1)")


def parse_digraph(text: str) -> Digraph:
    """Parse an edge-list document.

    Lines are "u v"; "#" starts a comment; blank lines are ignored.  A
    refusal's text starts "line N: ".  The lines are read first: repeated
    arcs merge as keys of one insertion-ordered dict, so memory follows the
    distinct arcs and each keeps its first place, and each distinct token is
    kept once.  Then each token becomes an id once.  A document whose tokens
    are all numerals (ASCII digits, no leading zero) keeps them as ids;
    otherwise every token is a label, assigned a dense id in order of first
    appearance and kept in the label table.
    """
    tokens: dict[str, str] = {}
    arcs: dict[tuple[str, str], None] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InvalidInputError(f"line {lineno}: expected 'u v', "
                                    f"got {raw.strip()!r:.40}")
        u, v = map(tokens.setdefault, parts, parts)
        if u == v:
            raise InvalidInputError(f"line {lineno}: loop arc on {u!r:.40}")
        arcs[u, v] = None
    if all(t.isascii() and t.isdigit() and (t == "0" or t[0] != "0")
           for t in tokens):
        # numeric documents keep their own ids; gaps below the max are
        # allowed.  Numerals order by value as (length, text), so the largest
        # is checked against the cap before int() reads any of them.
        top = max(tokens, key=lambda t: (len(t), t), default="")
        if len(top) > len(str(MAX_VERTICES)):
            raise CapExceededError(f"a {len(top)}-digit vertex id exceeds "
                                   f"the cap of {MAX_VERTICES} vertices")
        n = int(top) + 1 if top else 0
        _check_vertex_count(n)
        ids, labels = dict(zip(tokens, map(int, tokens))), None
    else:
        n, labels = len(tokens), dict(enumerate(tokens))
        ids = dict(zip(tokens, range(n)))
    return Digraph(range(n), [(ids[u], ids[v]) for u, v in arcs], labels=labels)


def digraph_from_json(doc: dict) -> Digraph:
    """Digraph from its JSON form {"n":..., "arcs":..., "labels":...}.

    Ids are JSON integers; n defaults to the largest id + 1 and labels is
    an optional object (or null) mapping ids 0..n-1, as str(id) writes
    them, to string names.  Arc entries are checked once, in the constructor's
    place, and the cap reads their ids before anything sized by n is built.
    """
    if not isinstance(doc, dict) or "arcs" not in doc:
        raise InvalidInputError("JSON digraph needs an 'arcs' field")
    entries = doc["arcs"]
    if not isinstance(entries, (list, tuple)):
        raise InvalidInputError("'arcs' must be a list of [u, v] pairs")
    arcs, ids = _checked_arcs(entries)
    top = max(ids, default=-1) + 1
    n = doc.get("n")
    if n is None:
        n = top
    elif type(n) is not int or n < 0:
        raise InvalidInputError(
            f"'n' must be a non-negative integer, got {n!r:.40}")
    _check_vertex_count(max(n, top))
    labels = doc.get("labels")
    if labels is None:
        labels = {}
    elif not isinstance(labels, dict):
        raise InvalidInputError(f"'labels' must be an object mapping ids to "
                                f"names, got {labels!r:.40}")
    for key, name in labels.items():
        if not (isinstance(key, str) and _DECIMAL_ID.fullmatch(key)):
            raise InvalidInputError(f"label key {key!r:.40} is not an id as "
                                    "str(id) writes it")
        if not isinstance(name, str):
            raise InvalidInputError(f"label {key!r:.40} names its vertex "
                                    f"{name!r:.40}, not a string")
    labels = {int(k): v for k, v in labels.items()}
    missing = sorted(k for k in labels if not 0 <= k < n)
    if missing:
        raise InvalidInputError(f"labels name ids {missing!s:.40} that are not "
                                f"vertices (n = {n})")
    return Digraph.__new__(Digraph)._build(range(n), arcs, ids, labels)


def serialize_digraph(d: Digraph) -> dict:
    """JSON form {"n":..., "arcs":..., "labels":...}; requires dense ids."""
    if not d.is_dense():
        raise InvalidInputError("only dense digraphs serialize; relabel first")
    arcs = sorted(d.arcs)
    return {"n": d.n, "arcs": [list(a) for a in arcs],
            "labels": {str(k): v for k, v in sorted(d.labels.items())}}


def is_strong(d: Digraph) -> bool:
    """True iff d is strongly connected (single-vertex digraphs are)."""
    return d._strong


def _reach(rows: dict, root: int) -> dict[int, int]:
    """Every vertex that root reaches over rows, each mapped to the vertex
    whose row first held it (root to itself)."""
    parent, frontier = {root: root}, [root]
    while frontier:
        frontier = _grow(frontier, rows, parent)
    return parent


def _grow(frontier: list[int], rows: dict, parent: dict,
          stop=()) -> list[int] | None:
    """One breadth-first layer beyond frontier over rows: each vertex of a
    frontier vertex's row that parent does not hold yet enters parent,
    mapped to that frontier vertex, and the new layer is returned in that
    order, which is the order of a FIFO queue.  None, with the layer only
    partly recorded, as soon as a row holds a new vertex in stop."""
    grown = []
    for v in frontier:
        for w in rows[v]:
            if w not in parent:
                if w in stop:
                    return None
                parent[w] = v
                grown.append(w)
    return grown


def is_nonseparable(d: Digraph) -> bool:
    """True iff the underlying simple graph is 2-connected.

    K1 and a single edge count as nonseparable: no cut vertex exists.
    Digons collapse to one edge.
    """
    return nonseparable(d._out, d._in)


def nonseparable(out: dict, inn: dict) -> bool:
    """is_nonseparable on a digraph given by its rows: out[v] and inn[v]
    hold the out- and in-neighbours of each vertex v, and out has no
    other keys.

    One iterative lowpoint DFS (Hopcroft & Tarjan 1973) over the
    underlying graph, from the smallest vertex.  Each stack entry holds a
    vertex, its DFS parent and the rest of its rows.  True iff the DFS
    reaches every vertex, the root has at most one child, and no other
    vertex p has a child whose subtree reaches no higher than p.
    """
    if not out:
        return True
    root = min(out)
    disc = {root: 0}
    low = {root: 0}
    root_children = 0
    stack = [(root, None, chain(out[root], inn[root]))]
    while stack:
        v, p, rows = stack[-1]
        for w in rows:
            if w not in disc:
                disc[w] = low[w] = len(disc)
                stack.append((w, v, chain(out[w], inn[w])))
                break
            if w != p and disc[w] < low[v]:
                low[v] = disc[w]
        else:
            stack.pop()
            if p == root:
                root_children += 1
            elif p is not None:
                if low[v] >= disc[p]:
                    return False
                if low[v] < low[p]:
                    low[p] = low[v]
    return len(disc) == len(out) and root_children <= 1


def is_asymmetrical(d: Digraph) -> bool:
    """No digons: at most one arc per vertex pair (an oriented graph)."""
    return d.arcs.isdisjoint(zip(map(itemgetter(1), d.arcs),
                                 map(itemgetter(0), d.arcs)))


def _require_asymmetrical(d: Digraph, what: str) -> None:
    """Refuse d if it has a digon, naming the least one as (u, v), u < v."""
    if not is_asymmetrical(d):
        pair = min(a for a in d.arcs if a[0] < a[1] and a[::-1] in d.arcs)
        raise InvalidInputError(
            f"{what} needs an asymmetrical digraph; digon {pair!s:.40}")


def neighborhoods(d: Digraph, v: int) -> NeighborhoodReport:
    """First and second out-neighborhoods of v.

    second_out is the union of out-neighborhoods of first_out, minus
    first_out itself; v lies in it exactly when v is on a digon.  C-level
    passes over the tails and heads of d.arcs read v's row, then its
    out-neighbours' rows: O(m) per call, and no index is built.
    """
    if v not in d.vertices:
        raise InvalidInputError(f"vertex {v} not in digraph")
    tails = list(map(itemgetter(0), d.arcs))
    heads = list(map(itemgetter(1), d.arcs))
    first = frozenset(compress(heads, map({v}.__contains__, tails)))
    second = frozenset(compress(heads, map(first.__contains__, tails)))
    return NeighborhoodReport(first_out=first, second_out=second - first)


def set_predicates(d: Digraph, s: Iterable[int]) -> SetPredicates:
    """Independence, absorbency, and quasi-absorbency of s in d."""
    ss = frozenset(s)
    if not ss <= d.vertices:
        raise InvalidInputError(f"set {sorted(ss - d.vertices)!s:.40} not in digraph")
    independent = all(v not in ss or u not in ss for u, v in d.arcs)
    outside = d.vertices - ss
    absorbent = not any(map(ss.isdisjoint, map(d.out_neighbors, outside)))
    quasi = True
    for x in outside:
        first = d.out_neighbors(x)
        if not ss.isdisjoint(first):
            continue
        if not all(map(ss.isdisjoint, map(d.out_neighbors, first))):
            continue
        quasi = False
        break
    return SetPredicates(independent=independent, absorbent=absorbent,
                         quasi_absorbent=quasi)


def is_kernel(d: Digraph, s: Iterable[int]) -> bool:
    p = set_predicates(d, s)
    return p.is_kernel


def is_quasi_kernel(d: Digraph, s: Iterable[int]) -> bool:
    p = set_predicates(d, s)
    return p.is_quasi_kernel
