"""find_ear_decomposition against the version that tested strongness first.

find_ear_decomposition proves strongness by its own sweeps: no cycle
through the smallest vertex, a reverse BFS that misses a vertex, or an ear
scan that misses one each refuse the digraph as not strong.  The reference
below is the earlier version, kept verbatim: is_strong first, then the same
base, reverse BFS and scan, with every covered arc in a set.  Both must
give the same decomposition, or the same refusal (class and text), and
networkx must agree on which digraphs have one."""

import random
from itertools import compress, product

import pytest

from earlab.digraph import Digraph, is_strong
from earlab.ears import (EarDecomposition, _self_checked,
                         find_ear_decomposition, generate_random_le)
from earlab.errors import EarlabError, PropertyFailedError

nx = pytest.importorskip("networkx")


# --- reference: strongness first, covered arcs in a set ----------------------

def ref_require_cycle(d):
    if not is_strong(d):
        raise PropertyFailedError("digraph is not strong")
    if d.n < 2:
        raise PropertyFailedError(
            f"no cycle exists: {'single vertex' if d.n else 'no vertices'}")


def ref_shortest_cycle_through(d, v0):
    parent = {v0: v0}
    frontier = [v0]
    while frontier and parent.keys().isdisjoint(d.in_neighbors(v0)):
        nxt = []
        for u in frontier:
            for w in d.out_neighbors(u):
                if w not in parent:
                    parent[w] = u
                    nxt.append(w)
        frontier = nxt

    def closed_at(u):
        path = [u]
        while path[-1] != v0:
            path.append(parent[path[-1]])
        return tuple(reversed(path)) + (v0,)

    return min(map(closed_at, filter(parent.__contains__, d.in_neighbors(v0))),
               key=lambda c: (len(c), c))


def ref_find_ear_decomposition(d):
    ref_require_cycle(d)
    cycle = ref_shortest_cycle_through(d, min(d.vertices))
    queue = list(cycle[:-1])
    covered_v = set(queue)
    parent = {}
    bfs = list(queue)
    for w in bfs:
        for y in d.in_neighbors(w):
            if y not in covered_v and y not in parent:
                parent[y] = w
                bfs.append(y)
    covered_a = set(zip(cycle, cycle[1:]))
    ears = []
    for u in queue:
        for x in d.out_neighbors(u):
            if (u, x) in covered_a:
                continue
            path = [u, x]
            while path[-1] not in covered_v:
                path.append(parent[path[-1]])
            ears.append(tuple(path))
            inner = path[1:-1]
            covered_v.update(inner)
            covered_a.update(zip(path, path[1:]))
            queue.extend(inner)
    return _self_checked(d, EarDecomposition(cycle, ears))


# --- the comparison ----------------------------------------------------------

def outcome(find, d):
    try:
        return find(d).to_json()
    except EarlabError as exc:
        return type(exc), str(exc)


def as_nx(d):
    g = nx.DiGraph()
    g.add_nodes_from(d.vertices)
    g.add_edges_from(d.arcs)
    return g


def shape(d):
    """Which sweep refuses d: 'strong', 'small' (under 2 vertices), or the
    not-strong shape: 'no-cycle' through the smallest vertex, 'unreached'
    by the reverse BFS (a vertex that cannot reach it), 'unscanned' by the
    ear scan (a vertex it cannot reach)."""
    if d.n < 2:
        return "small"
    g, v0 = as_nx(d), min(d.vertices)
    below, above = nx.ancestors(g, v0), nx.descendants(g, v0)
    if not below & above:
        return "no-cycle"
    if len(below | {v0}) < d.n:
        return "unreached"
    return "unscanned" if len(above | {v0}) < d.n else "strong"


def agree(d, shapes):
    got, want = outcome(find_ear_decomposition, d), outcome(ref_find_ear_decomposition, d)
    assert got == want, (sorted(d.arcs), got, want)
    found = isinstance(got, dict)
    assert found == (d.n >= 2 and nx.is_strongly_connected(as_nx(d)))
    kind = shape(d)
    assert found == (kind == "strong"), kind
    shapes[kind] = shapes.get(kind, 0) + 1


def random_digraph(n, p, rng):
    return Digraph(range(n), [(u, v) for u in range(n) for v in range(n)
                              if u != v and rng.random() < p])


def test_find_ear_decomposition_matches_the_strong_first_reference():
    shapes = {}
    # every digraph on at most 4 vertices
    for n in range(5):
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for keep in product((False, True), repeat=len(pairs)):
            agree(Digraph(range(n), compress(pairs, keep)), shapes)
    # seeded random digraphs on 5-40 vertices, around the density at which
    # about half are strong, and each with one arc dropped
    rng = random.Random(34)
    for _ in range(150):
        n = rng.randint(5, 40)
        d = random_digraph(n, rng.uniform(0.6, 2.4) * 1.7 / n, rng)
        agree(d, shapes)
        if d.arcs:
            dropped = rng.choice(sorted(d.arcs))
            agree(Digraph(d.vertices, d.arcs - {dropped}), shapes)
    # generated LE instances, cycle ears included, and each with a vertex
    # cut off from one side: a source or a sink attached to the smallest
    # vertex's cycle, or the smallest vertex itself made a sink
    for seed in range(40):
        shortest = rng.randint(1, 2)  # short bases leave no room for length 1
        d, _ = generate_random_le(base_length=rng.randint(6 - 2 * shortest, 6),
                                  ear_count=rng.randint(0, 12),
                                  min_ear_length=shortest, max_ear_length=5,
                                  cycle_ear_probability=0.3, seed=seed)
        agree(d, shapes)
        x, n = rng.randrange(d.n), d.n
        agree(d.union([n], [(n, x)]), shapes)
        agree(d.union([n], [(x, n)]), shapes)
        agree(Digraph(d.vertices, {a for a in d.arcs if a[0] != 0}), shapes)
    assert shapes["small"] == 2, shapes
    assert min(shapes[kind] for kind in
               ("strong", "no-cycle", "unreached", "unscanned")) >= 100, shapes


@pytest.mark.parametrize("arcs, n, kind", [
    ([(0, 1), (1, 2)], 3, "no-cycle"),             # 0 a source
    ([(1, 0), (2, 0)], 3, "no-cycle"),             # 0 a sink
    ([(0, 1), (1, 0), (1, 2)], 3, "unreached"),    # 2 a sink off the base
    ([(0, 1), (1, 0), (2, 1)], 3, "unscanned"),    # 2 a source into the base
    ([(0, 1), (1, 0), (2, 3), (3, 2)], 4, "unreached"),  # two digons
    ([(0, 1), (1, 0), (2, 3), (3, 2), (2, 0)], 4, "unscanned"),
    ([], 2, "no-cycle"),
])
def test_each_sweep_refuses_its_not_strong_shape(arcs, n, kind):
    d = Digraph(range(n), arcs)
    assert shape(d) == kind
    with pytest.raises(PropertyFailedError, match="^digraph is not strong$"):
        find_ear_decomposition(d)
    assert outcome(ref_find_ear_decomposition, d) == \
        (PropertyFailedError, "digraph is not strong")

