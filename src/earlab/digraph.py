"""Core digraph type, file formats, and the primitive predicates.

Digraphs are finite and simple: no loops, no parallel arcs.  A digon (arcs
both ways between two vertices) is allowed; "asymmetrical" rules it out.
Parsed digraphs always live on the dense id range 0..n-1.  Stage digraphs
carved out of a host keep the host's ids, so the vertex set of a Digraph is
an arbitrary finite set of nonnegative ints; only serialization insists on
density.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import CapExceededError, InvalidInputError, ParseError

Arc = tuple[int, int]

# Largest vertex count a parsed digraph may have: numeric ids allocate every
# id below the largest, so the cap is checked before anything is built.  The
# cost follows the largest id, not the arc count: the edge list "0 999999"
# is a 1,000,000-vertex digraph, and `earlab decompose` spends 3.2-3.6 s and
# about 630 MB of peak RSS on it (CPython 3.11, one core of a 2-core Xeon).
MAX_VERTICES = 1_000_000


class Digraph:
    """Immutable simple digraph on integer vertex ids."""

    def __init__(self, vertices: Iterable[int], arcs: Iterable[Arc],
                 labels: dict[int, str] | None = None):
        self.vertices: frozenset[int] = frozenset(int(v) for v in vertices)
        self.arcs: frozenset[Arc] = frozenset((int(u), int(v)) for u, v in arcs)
        self.labels: dict[int, str] = dict(labels) if labels else {}
        for v in self.vertices:
            if v < 0:
                raise InvalidInputError(f"negative vertex id {v}")
        for u, v in self.arcs:
            if u == v:
                raise InvalidInputError(f"loop arc ({u},{u}) is forbidden")
            if u not in self.vertices or v not in self.vertices:
                raise InvalidInputError(f"arc ({u},{v}) leaves the vertex set")

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
    def _out(self) -> dict[int, frozenset[int]]:
        adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for u, v in self.arcs:
            adj[u].add(v)
        return {v: frozenset(s) for v, s in adj.items()}

    @cached_property
    def _in(self) -> dict[int, frozenset[int]]:
        adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for u, v in self.arcs:
            adj[v].add(u)
        return {v: frozenset(s) for v, s in adj.items()}

    def out_neighbors(self, v: int) -> frozenset[int]:
        return self._out[v]

    def in_neighbors(self, v: int) -> frozenset[int]:
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


@dataclass(frozen=True)
class NeighborhoodReport:
    vertex: int
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

    Lines are "u v"; "#" starts a comment; blank lines are ignored and
    repeated arcs are merged.  A document whose tokens are all numerals
    (ASCII digits, no leading zero) keeps them as ids; otherwise every
    token is a label, assigned a dense id in order of first appearance and
    kept in the label table.
    """
    ids: dict[str, int] = {}
    arcs: list[Arc] = []
    seen: set[Arc] = set()
    numeric = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'u v', got {raw.strip()!r}", line=lineno)
        tokens = []
        for tok in parts:
            if tok not in ids:
                ids[tok] = len(ids)
            tokens.append(ids[tok])
            numeric = numeric and (tok.isascii() and tok.isdigit()
                                   and (tok == "0" or tok[0] != "0"))
        u, v = tokens
        if u == v:
            raise ParseError(f"loop arc on {parts[0]!r}", line=lineno)
        if (u, v) in seen:
            continue
        seen.add((u, v))
        arcs.append((u, v))
    if numeric:
        # numeric documents keep their own ids; gaps below the max are
        # allowed.  Numerals order by value as (length, text), so the largest
        # is checked against the cap before int() reads any of them.
        top = max(ids, key=lambda t: (len(t), t), default="")
        if len(top) > len(str(MAX_VERTICES)):
            raise CapExceededError(f"a {len(top)}-digit vertex id exceeds "
                                   f"the cap of {MAX_VERTICES} vertices")
        n = int(top) + 1 if top else 0
        _check_vertex_count(n)
        remap = {ids[t]: int(t) for t in ids}
        return Digraph(range(n), [(remap[u], remap[v]) for u, v in arcs])
    labels = {i: tok for tok, i in ids.items()}
    return Digraph(range(len(ids)), arcs, labels=labels)


def digraph_from_json(doc: dict) -> Digraph:
    """Digraph from its JSON form {"n":..., "arcs":..., "labels":...}.

    Ids are JSON integers; n defaults to the largest id + 1 and labels is
    an optional object mapping ids to names.
    """
    if not isinstance(doc, dict) or "arcs" not in doc:
        raise ParseError("JSON digraph needs an 'arcs' field")
    if not isinstance(doc["arcs"], (list, tuple)):
        raise ParseError("'arcs' must be a list of [u, v] pairs")
    arcs = []
    for pair in doc["arcs"]:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and type(pair[0]) is int and type(pair[1]) is int):
            raise ParseError(f"bad arc entry {pair!r}: need two integer ids")
        arcs.append((pair[0], pair[1]))
    top = max((max(a) for a in arcs), default=-1) + 1
    n = doc.get("n")
    if n is None:
        n = top
    elif type(n) is not int or n < 0:
        raise ParseError(f"'n' must be a non-negative integer, got {n!r}")
    _check_vertex_count(max(n, top))
    labels = doc.get("labels") or {}
    if not isinstance(labels, dict):
        raise ParseError("'labels' must be an object mapping ids to names")
    try:
        labels = {int(k): str(v) for k, v in labels.items()}
    except (TypeError, ValueError):
        raise ParseError("label keys must be integer ids") from None
    return Digraph(range(n), arcs, labels=labels)


def serialize_digraph(d: Digraph) -> dict:
    """JSON form {"n":..., "arcs":..., "labels":...}; requires dense ids."""
    if not d.is_dense():
        raise InvalidInputError("only dense digraphs serialize; relabel first")
    arcs = sorted(d.arcs)
    return {"n": d.n, "arcs": [list(a) for a in arcs],
            "labels": {str(k): v for k, v in sorted(d.labels.items())}}


def serialize_edge_list(d: Digraph) -> str:
    return "\n".join(f"{u} {v}" for u, v in sorted(d.arcs)) + "\n"


def is_strong(d: Digraph) -> bool:
    """True iff d is strongly connected (single-vertex digraphs are)."""
    if d.n <= 1:
        return True
    root = min(d.vertices)
    return (_reach(d._out, root) == d.vertices
            and _reach(d._in, root) == d.vertices)


def _reach(adj: dict[int, frozenset[int]], root: int) -> frozenset[int]:
    seen = {root}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return frozenset(seen)


def is_nonseparable(d: Digraph) -> bool:
    """True iff the underlying simple graph is 2-connected.

    K1 and a single edge count as nonseparable: no cut vertex exists.
    Digons collapse to one edge.
    """
    adj: dict[int, set[int]] = {v: set() for v in d.vertices}
    for u, v in d.arcs:
        adj[u].add(v)
        adj[v].add(u)
    return nonseparable(adj)


def nonseparable(adj: dict[int, set[int]]) -> bool:
    """is_nonseparable on an undirected adjacency: adj[v] is the set of
    neighbours of v, symmetric and loop-free."""
    if not adj:
        return True
    root = min(adj)
    # connectivity first
    seen = {root}
    stack = [root]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != len(adj):
        return False
    if len(adj) <= 2:
        return True
    # iterative lowpoint DFS for articulation vertices
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    parent: dict[int, int | None] = {root: None}
    timer = 0
    root_children = 0
    stack2: list[tuple[int, Iterable[int]]] = [(root, iter(adj[root]))]
    disc[root] = low[root] = timer
    timer += 1
    while stack2:
        v, it = stack2[-1]
        advanced = False
        for w in it:
            if w not in disc:
                parent[w] = v
                if v == root:
                    root_children += 1
                disc[w] = low[w] = timer
                timer += 1
                stack2.append((w, iter(adj[w])))
                advanced = True
                break
            elif w != parent[v]:
                low[v] = min(low[v], disc[w])
        if not advanced:
            stack2.pop()
            p = parent[v]
            if p is not None:
                low[p] = min(low[p], low[v])
                if p != root and low[v] >= disc[p]:
                    return False
    return root_children <= 1


def is_asymmetrical(d: Digraph) -> bool:
    """No digons: at most one arc per vertex pair (an oriented graph)."""
    return all((v, u) not in d.arcs for u, v in d.arcs)


def neighborhoods(d: Digraph, v: int) -> NeighborhoodReport:
    """First and second out-neighborhoods of v.

    second_out is the union of out-neighborhoods of first_out, minus
    first_out itself.  Note: v is not removed, so v can appear in its own
    second_out (e.g. the middle of a digon-free 2-path back to v).
    """
    if v not in d.vertices:
        raise InvalidInputError(f"vertex {v} not in digraph")
    first = d.out_neighbors(v)
    second = frozenset().union(*(d.out_neighbors(u) for u in first)) if first else frozenset()
    return NeighborhoodReport(vertex=v, first_out=first, second_out=second - first)


def set_predicates(d: Digraph, s: Iterable[int]) -> SetPredicates:
    """Independence, absorbency, and quasi-absorbency of s in d."""
    ss = frozenset(s)
    if not ss <= d.vertices:
        raise InvalidInputError(f"set {sorted(ss - d.vertices)} not in digraph")
    independent = all(v not in ss or u not in ss for u, v in d.arcs)
    outside = d.vertices - ss
    absorbent = all(d.out_neighbors(x) & ss for x in outside)
    quasi = True
    for x in outside:
        first = d.out_neighbors(x)
        if first & ss:
            continue
        if any(d.out_neighbors(w) & ss for w in first):
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
