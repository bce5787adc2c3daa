"""Ear decompositions: validation, search, classification, generation.

A decomposition is a nested sequence of strong subdigraphs D_0 .. D_k of a
host D: D_0 a directed cycle, each D_{j+1} = D_j plus one ear, D_k = D.
An ear's endpoints lie in the current stage, its internal vertices and all
its arcs are new.  Ears may themselves be cycles (both endpoints equal);
the search ops expose a strict path-ears mode for the kernel machinery,
which needs endpoints distinct.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .digraph import Arc, Digraph, is_nonseparable, is_strong
from .errors import (BudgetExceededError, InvalidInputError, ParseError,
                     PropertyFailedError, VerificationError)


@dataclass(frozen=True)
class Ear:
    """Path or cycle (x_0, ..., x_r) glued onto a stage; length = r arcs."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        vs = self.vertices
        if len(vs) < 2:
            raise InvalidInputError("an ear needs at least one arc")
        if len(vs) == 2 and vs[0] == vs[1]:
            raise InvalidInputError("length-1 cycle ear would be a loop")
        interior = vs[1:-1]
        if len(set(interior)) != len(interior):
            raise InvalidInputError(f"repeated internal vertex in ear {vs}")
        if vs[0] in interior or vs[-1] in interior:
            raise InvalidInputError(f"endpoint reused internally in ear {vs}")

    @property
    def x0(self) -> int:
        return self.vertices[0]

    @property
    def xr(self) -> int:
        return self.vertices[-1]

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    @property
    def is_cycle(self) -> bool:
        return self.x0 == self.xr

    @property
    def internal(self) -> tuple[int, ...]:
        return self.vertices[1:-1]

    @property
    def arcs(self) -> tuple[Arc, ...]:
        return tuple(zip(self.vertices, self.vertices[1:]))


def _ids(value, what: str) -> tuple[int, ...]:
    if not (isinstance(value, (list, tuple))
            and all(type(v) is int for v in value)):
        raise ParseError(f"bad {what} {value!r}: need a list of integer ids")
    return tuple(value)


class EarDecomposition:
    """Base cycle plus ordered ears over a host digraph."""

    def __init__(self, host: Digraph, base: Ear, ears: Iterable[Ear] = ()):
        if not base.is_cycle:
            raise InvalidInputError("base must be a cycle ear (x_0 = x_r)")
        self.host = host
        self.base = base
        self.ears = tuple(ears)

    @property
    def stage_count(self) -> int:
        return len(self.ears) + 1

    @property
    def min_ear_length(self) -> int | None:
        return min((e.length for e in self.ears), default=None)

    def certifies(self, i: int) -> bool:
        """Every ear has length >= i (vacuously true for a bare cycle)."""
        return all(e.length >= i for e in self.ears)

    def stage(self, j: int) -> Digraph:
        """Stage j: the base cycle plus the first j ears, built on demand."""
        if not 0 <= j < self.stage_count:
            raise IndexError(f"stage {j} out of range 0..{len(self.ears)}")
        parts = (self.base,) + self.ears[:j]
        return Digraph({v for p in parts for v in p.vertices},
                       {a for p in parts for a in p.arcs})

    def stages(self) -> Iterator[Digraph]:
        for j in range(self.stage_count):
            yield self.stage(j)

    def to_json(self) -> dict:
        return {"base": list(self.base.vertices[:-1]),
                "ears": [list(e.vertices) for e in self.ears]}

    @classmethod
    def from_json(cls, doc: dict, host: Digraph) -> "EarDecomposition":
        if not isinstance(doc, dict) or "base" not in doc:
            raise InvalidInputError("decomposition JSON needs a 'base' field")
        base_list = _ids(doc["base"], "'base'")
        if len(base_list) >= 2 and base_list[0] == base_list[-1]:
            base_list = base_list[:-1]  # accept the closed form too
        if len(base_list) < 2:
            raise InvalidInputError("base cycle needs at least 2 vertices")
        base = Ear(base_list + (base_list[0],))
        ears = doc.get("ears", [])
        if not isinstance(ears, (list, tuple)):
            raise ParseError("'ears' must be a list of vertex lists")
        return cls(host, base, [Ear(_ids(e, "ear")) for e in ears])

    def __repr__(self) -> str:
        return (f"EarDecomposition(base={list(self.base.vertices)}, "
                f"ears={len(self.ears)})")


@dataclass
class DecompositionReport:
    ok: bool
    violations: list[str] = field(default_factory=list)


def validate_decomposition(d: Digraph, e: EarDecomposition,
                           path_ears_only: bool = False) -> DecompositionReport:
    """Check every decomposition invariant; violations name their stage.

    No stage is tested for strongness.  The base is a cycle on distinct
    vertices (Ear and EarDecomposition enforce that), so it is strong once
    its arcs are in d; gluing an ear with both ends in a strong stage and a
    new interior keeps the stage strong, so once the per-ear invariants
    hold no later stage can fail that test.
    """
    bad: list[str] = []
    if e.host != d:
        bad.append("stage -: decomposition host differs from d")
    base = e.base
    for a in base.arcs:
        if a not in d.arcs:
            bad.append(f"stage 0: base arc {a} not in host")
    verts = set(base.vertices)
    arcs = set(base.arcs)
    host_arcs = d.arcs
    for idx, ear in enumerate(e.ears):
        vs, ear_arcs = ear.vertices, ear.arcs
        if vs[0] not in verts or vs[-1] not in verts:
            bad.append(f"stage {idx}: ear endpoint outside the stage")
        if not verts.isdisjoint(ear.internal):
            bad.append(f"stage {idx}: internal vertex "
                       f"{sorted(verts.intersection(ear.internal))} "
                       "already in the stage")
        for a in ear_arcs:
            if a not in host_arcs:
                bad.append(f"stage {idx}: ear arc {a} not in host")
            if a in arcs:
                bad.append(f"stage {idx}: ear arc {a} already covered")
        if path_ears_only and ear.is_cycle:
            bad.append(f"stage {idx}: cycle ear not allowed in path-ears mode")
        verts.update(vs)
        arcs.update(ear_arcs)
    if verts != d.vertices:
        bad.append(f"final: vertices uncovered: {sorted(d.vertices - verts)}")
    if arcs != d.arcs:
        bad.append(f"final: arcs uncovered: {sorted(d.arcs - arcs)}")
    return DecompositionReport(ok=not bad, violations=bad)


def require_decomposition(d: Digraph, e: EarDecomposition, min_len: int,
                          what: str, path_ears_only: bool = False) -> None:
    """Precondition of the constructions, else InvalidInputError: e is a
    valid decomposition of d (path ears only, if asked) with every ear of
    length >= min_len."""
    report = validate_decomposition(d, e, path_ears_only)
    if not report.ok:
        raise InvalidInputError(f"invalid decomposition: {report.violations[0]}")
    if not e.certifies(min_len):
        raise InvalidInputError(f"{what} needs every ear length >= {min_len}, "
                                f"shortest is {e.min_ear_length}")


def _self_checked(d: Digraph, e: EarDecomposition, min_len: int = 1,
                  path_ears_only: bool = False) -> EarDecomposition:
    """Re-verify a decomposition built here before it is returned."""
    report = validate_decomposition(d, e, path_ears_only)
    if not report.ok:
        raise VerificationError("; ".join(report.violations))
    if not e.certifies(min_len):
        raise VerificationError(f"built an ear shorter than {min_len}")
    return e


def _shortest_cycle_through(d: Digraph, v0: int) -> tuple[int, ...] | None:
    """Deterministic shortest directed cycle through v0, as (v0,...,v0)."""
    parent: dict[int, int] = {}
    dist = {v0: 0}
    frontier = [v0]
    while frontier:
        nxt = []
        for u in frontier:
            for w in sorted(d.out_neighbors(u)):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    nxt.append(w)
        frontier = nxt
    best: tuple[int, tuple[int, ...]] | None = None
    for u in sorted(d.in_neighbors(v0)):
        if u == v0 or u not in dist:
            continue
        path = [u]
        while path[-1] != v0:
            path.append(parent[path[-1]])
        cycle = tuple(reversed(path)) + (v0,)
        key = (len(cycle), cycle)
        if best is None or key < best:
            best = key
    return best[1] if best else None


def find_ear_decomposition(d: Digraph) -> EarDecomposition:
    """Constructive decomposition of a strong digraph (ears of any length).

    Deterministic and O(n + m) up to sorting neighbourhoods.  The base is
    the shortest cycle through the smallest vertex.  One reverse BFS from it
    gives every other vertex a parent one step closer to the base.  Covered
    vertices are scanned once each in the order they were covered (base in
    cycle order, then each ear's interior in path order); each uncovered
    out-arc, by increasing head, starts the next ear, which follows parent
    pointers to the first covered vertex (possibly its own start).
    """
    if not is_strong(d):
        raise PropertyFailedError("digraph is not strong")
    if d.n < 2:
        raise PropertyFailedError("no cycle exists: single vertex")
    base_cycle = _shortest_cycle_through(d, min(d.vertices))
    if base_cycle is None:
        raise PropertyFailedError("no cycle through the smallest vertex")
    base = Ear(base_cycle)
    queue = list(base.vertices[:-1])
    covered_v = set(queue)
    parent: dict[int, int] = {}
    bfs = list(queue)
    for w in bfs:  # grows while scanned, like the queue below
        for y in sorted(d.in_neighbors(w)):
            if y not in covered_v and y not in parent:
                parent[y] = w
                bfs.append(y)
    covered_a = set(base.arcs)
    ears: list[Ear] = []
    for u in queue:  # the queue grows as ears cover new vertices
        for x in sorted(d.out_neighbors(u)):
            if (u, x) in covered_a:
                continue
            path = [u, x]
            while path[-1] not in covered_v:
                path.append(parent[path[-1]])
            ear = Ear(tuple(path))
            ears.append(ear)
            covered_v.update(ear.internal)
            covered_a.update(ear.arcs)
            queue.extend(ear.internal)
    return _self_checked(d, EarDecomposition(d, base, ears))


def _spend(budget_box: list[int]) -> None:
    budget_box[0] -= 1
    if budget_box[0] < 0:
        raise BudgetExceededError("search budget exhausted")


def _threads(d: Digraph, min_len: int, allow_cycle_ears: bool) -> list[Ear]:
    """The threads of d that may be its last ear, longest first.

    A thread is a maximal path whose inner vertices have in- and out-degree
    1.  In a strong digraph other than a cycle every arc lies on exactly
    one, and the last ear of any decomposition is one of them.
    """
    def plain(v: int) -> bool:
        return len(d.in_neighbors(v)) == 1 == len(d.out_neighbors(v))

    found: list[Ear] = []
    for u in d.vertices:
        if plain(u):
            continue
        for w in d.out_neighbors(u):
            path = [u, w]
            while plain(w):
                (w,) = d.out_neighbors(w)
                path.append(w)
            if len(path) > min_len and (allow_cycle_ears or w != u):
                found.append(Ear(tuple(path)))
    found.sort(key=lambda e: (-e.length, e.vertices))
    return found


def _may_be_stage(d: Digraph, min_len: int, allow_cycle_ears: bool) -> bool:
    """Necessary for d to be a stage: room for its m - n ears of length >=
    min_len beside a base of >= 2 arcs, strong, and nonseparable when every
    ear is a path."""
    m = len(d.arcs)
    return (m - 2 >= min_len * (m - d.n) and is_strong(d)
            and (allow_cycle_ears or is_nonseparable(d)))


def find_le_decomposition(d: Digraph, i: int = 1, budget: int = 200_000,
                          allow_cycle_ears: bool = True) -> EarDecomposition | None:
    """Exact search for a decomposition with every ear of length >= i.

    D is in LE_i iff it is one directed cycle, or peeling some thread of
    length >= i (open, in path-ears mode) leaves a digraph in LE_i: the
    peeled thread is the last ear.  The search peels threads depth first,
    longest first, and skips remainders that cannot be a stage or are
    known dead; each remainder tried costs one unit of budget.  Returns
    None only when the whole space was exhausted (provably not in LE_i
    under the chosen ear convention); a BudgetExceededError means the
    verdict is unknown.
    """
    if i < 1:
        raise InvalidInputError("minimum ear length must be >= 1")
    if not is_strong(d):
        raise PropertyFailedError("digraph is not strong")
    if d.n < 2:
        raise PropertyFailedError("no cycle exists: single vertex")
    if not _may_be_stage(d, i, allow_cycle_ears):
        return None
    box = [budget]
    bit = {a: 1 << k for k, a in enumerate(d.arcs)}
    dead: set[int] = set()  # arc masks of remainders not in LE_i
    # one frame per peeled thread: remainder, its arc mask, the thread
    # peeled to reach it, and the remainder's threads not yet tried
    frames = [(d, (1 << len(bit)) - 1, None,
               iter(_threads(d, i, allow_cycle_ears)))]
    while frames:
        rest, mask, _, todo = frames[-1]
        if len(rest.arcs) == rest.n:  # one directed cycle: the base
            base = Ear(_shortest_cycle_through(rest, min(rest.vertices)))
            ears = [frame[2] for frame in reversed(frames[1:])]
            return _self_checked(d, EarDecomposition(d, base, ears), i,
                                 not allow_cycle_ears)
        for ear in todo:
            _spend(box)
            sub_mask = mask - sum(bit[a] for a in ear.arcs)
            if sub_mask in dead:
                continue
            sub = Digraph(rest.vertices.difference(ear.internal),
                          rest.arcs.difference(ear.arcs))
            if _may_be_stage(sub, i, allow_cycle_ears):
                frames.append((sub, sub_mask, ear,
                               iter(_threads(sub, i, allow_cycle_ears))))
                break
            dead.add(sub_mask)
        else:
            dead.add(mask)
            frames.pop()
    return None


def generate_random_le(base_length: int = 3, ear_count: int = 3,
                       min_ear_length: int = 2, max_ear_length: int | None = None,
                       cycle_ear_probability: float = 0.0,
                       seed: int = 0) -> tuple[Digraph, EarDecomposition]:
    """Seeded random LE_{min_ear_length} instance with its decomposition.

    Digon-free by construction unless base_length = 2: cycle ears are only
    drawn at length >= 3, and length-1 ears never duplicate or reverse an
    existing arc.  Deterministic per seed.
    """
    if base_length < 2:
        raise InvalidInputError("base length must be >= 2")
    if min_ear_length < 1:
        raise InvalidInputError("min ear length must be >= 1")
    if max_ear_length is None:
        max_ear_length = min_ear_length
    if max_ear_length < min_ear_length:
        raise InvalidInputError("max ear length below min")
    rng = random.Random(seed)
    vertices = list(range(base_length))
    arcs = {(i, (i + 1) % base_length) for i in range(base_length)}
    base = Ear(tuple(range(base_length)) + (0,))
    near = defaultdict(set)  # neighbours in either direction
    for u, v in arcs:
        near[u].add(v)
        near[v].add(u)
    ears: list[Ear] = []
    next_id = base_length
    for _ in range(ear_count):
        length = rng.randint(min_ear_length, max_ear_length)
        as_cycle = length >= 3 and rng.random() < cycle_ear_probability
        if length == 1:
            # the same draw as choice(sorted free pairs), by walking to the
            # k-th pair (u, v) of distinct vertices not adjacent either way
            free = {u: len(vertices) - 1 - len(near[u]) for u in vertices}
            total = sum(free.values())
            if not total:
                raise InvalidInputError("no room for a length-1 ear; "
                                        "inconsistent parameters")
            k = rng.randrange(total)
            for x0 in vertices:
                if k < free[x0]:
                    break
                k -= free[x0]
            xr = [v for v in vertices if v != x0 and v not in near[x0]][k]
            ear = Ear((x0, xr))
        else:
            # the same draws as choice(vertices), then choice of the others
            k = rng.randrange(len(vertices))
            x0 = xr = vertices[k]
            if not as_cycle:
                j = rng.randrange(len(vertices) - 1)
                xr = vertices[j + (j >= k)]
            interior = tuple(range(next_id, next_id + length - 1))
            next_id += length - 1
            ear = Ear((x0,) + interior + (xr,))
        ears.append(ear)
        vertices.extend(ear.internal)
        arcs.update(ear.arcs)
        for u, v in ear.arcs:
            near[u].add(v)
            near[v].add(u)
    host = Digraph(range(next_id), arcs)
    return host, _self_checked(host, EarDecomposition(host, base, ears),
                               min_ear_length)
