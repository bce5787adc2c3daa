"""Ear decompositions: validation, search, classification, generation.

A decomposition is a nested sequence of strong subdigraphs D_0 .. D_k of a
digraph D: D_0 a directed cycle, each D_{j+1} = D_j plus one ear, D_k = D.
An ear's endpoints lie in the current stage, its internal vertices and all
its arcs are new.  Ears may themselves be cycles (both endpoints equal);
the search ops expose a strict path-ears mode for the kernel machinery,
which needs endpoints distinct.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .digraph import Arc, Digraph, _check_vertex_count, is_strong, nonseparable
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
    """Base cycle plus ordered ears.  It names no digraph: it decomposes
    every digraph whose vertices and arcs its parts cover exactly, once each
    (validate_decomposition)."""

    def __init__(self, base: Ear, ears: Iterable[Ear] = ()):
        if not base.is_cycle:
            raise InvalidInputError("base must be a cycle ear (x_0 = x_r)")
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
    def from_json(cls, doc: dict) -> "EarDecomposition":
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
        return cls(base, [Ear(_ids(e, "ear")) for e in ears])

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
    base = e.base
    for a in base.arcs:
        if a not in d.arcs:
            bad.append(f"stage 0: base arc {a} not in host")
    verts = set(base.vertices)
    arcs = set(base.arcs)
    host_arcs = d.arcs
    for idx, ear in enumerate(e.ears):
        vs, ear_arcs = ear.vertices, ear.arcs
        misfit = _ear_fit_violation(verts, ear)
        if misfit:
            bad.append(f"stage {idx}: {misfit}")
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


def _ear_fit_violation(stage_vertices: set[int] | frozenset[int],
                       ear: Ear) -> str | None:
    """Why ear cannot be glued onto a stage with these vertices, or None
    when it can: both endpoints in the stage and every internal vertex new."""
    if ear.x0 not in stage_vertices or ear.xr not in stage_vertices:
        return "ear endpoints must lie in the stage digraph"
    if not stage_vertices.isdisjoint(ear.internal):
        stale = sorted(stage_vertices.intersection(ear.internal))
        return f"ear internal vertices must be new, {stale} already in the stage"
    return None


def require_ear_fits(stage: Digraph, ear: Ear) -> None:
    """InvalidInputError unless ear can be glued onto stage."""
    misfit = _ear_fit_violation(stage.vertices, ear)
    if misfit:
        raise InvalidInputError(misfit)


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
    return _self_checked(d, EarDecomposition(base, ears))


def _spend(budget_box: list[int]) -> None:
    budget_box[0] -= 1
    if budget_box[0] < 0:
        raise BudgetExceededError("search budget exhausted")


def _grow(frontier: list[int], adj: dict[int, set[int]], mine: set[int],
          theirs: set[int]) -> list[int] | None:
    """One breadth-first layer beyond frontier, added to mine; None once it
    reaches a vertex of theirs."""
    grown = []
    for v in frontier:
        for w in adj[v]:
            if w not in mine:
                if w in theirs:
                    return None
                mine.add(w)
                grown.append(w)
    return grown


class _Remainder:
    """The remainder of the LE_i search, edited in place by each peel.

    Adjacency sets, the vertex and arc counts and the arc mask describe the
    remainder; its threads are kept by first and by last arc, and those
    that may be the last ear (length >= min_len, open in path-ears mode)
    also in a list sorted longest first, then lexicographically.  A thread
    is (1 - vertex count, vertices, arc mask): the first field orders
    longest first.
    """

    def __init__(self, d: Digraph, min_len: int, allow_cycle_ears: bool):
        self.min_len = min_len
        self.allow_cycle_ears = allow_cycle_ears
        self.out = {v: set(d.out_neighbors(v)) for v in d.vertices}
        self.inn = {v: set(d.in_neighbors(v)) for v in d.vertices}
        self.n, self.m = d.n, len(d.arcs)
        bit = {a: 1 << k for k, a in enumerate(d.arcs)}
        self.mask = (1 << self.m) - 1
        self.first: dict[Arc, tuple] = {}
        self.last: dict[Arc, tuple] = {}
        self.order: list[tuple] = []
        for t in self._scan():
            self._put((1 - len(t), t, sum(bit[a] for a in zip(t, t[1:]))))

    def _plain(self, v: int) -> bool:
        return len(self.inn[v]) == 1 == len(self.out[v])

    def _scan(self) -> Iterator[tuple[int, ...]]:
        """Every thread: a maximal path whose inner vertices have in- and
        out-degree 1.  In a strong digraph other than a cycle every arc
        lies on exactly one, and the last ear of any decomposition is one
        of them."""
        for u in self.out:
            if self._plain(u):
                continue
            for w in self.out[u]:
                path = [u, w]
                while self._plain(w):
                    (w,) = self.out[w]
                    path.append(w)
                yield tuple(path)

    def _may_be_last(self, t: tuple[int, ...]) -> bool:
        return len(t) > self.min_len and (self.allow_cycle_ears or t[0] != t[-1])

    def _put(self, thread: tuple) -> None:
        t = thread[1]
        self.first[t[0], t[1]] = self.last[t[-2], t[-1]] = thread
        if self._may_be_last(t):
            insort(self.order, thread)

    def _drop(self, thread: tuple) -> None:
        t = thread[1]
        del self.first[t[0], t[1]], self.last[t[-2], t[-1]]
        if self._may_be_last(t):
            del self.order[bisect_left(self.order, thread)]

    def may_be_stage(self) -> bool:
        """Necessary for the remainder to be a stage, strongness aside."""
        return (self._room(self.m, self.n)
                and (self.allow_cycle_ears or self._nonseparable()))

    def _room(self, m: int, n: int) -> bool:
        """Room for m - n ears of length >= min_len beside a base of >= 2
        arcs."""
        return m - 2 >= self.min_len * (m - n)

    def _nonseparable(self) -> bool:
        """The path-ears test, on the whole remainder: the one step of a
        try left that costs O(n + m)."""
        return nonseparable({v: self.out[v] | self.inn[v] for v in self.out})

    def peel(self, thread: tuple) -> list | None:
        """Peel a thread if a stage may remain; return the undo log of
        the thread bookkeeping, or None with the remainder unchanged.

        Strongness is one reachability test.  Let D be strong and P a
        thread from x0 to xr.  Then D - P is strong iff x0 reaches xr in
        D - P.  Only if is clear.  If: a u-v path of D that uses an arc of
        P, for u and v outside P's interior, enters P at x0 and leaves it
        at xr, because each inner vertex of P has its only in-arc and its
        only out-arc on P.  So an x0-xr path of D - P in place of P turns
        every u-v path of D into a u-v walk of D - P.  A closed thread
        (x0 = xr) needs no such path, so peeling it always leaves a strong
        remainder.
        """
        t, bits = thread[1], thread[2]
        r = len(t) - 1
        if not self._room(self.m - r, self.n - r + 1):
            return None
        if t[0] != t[-1] and not self._reaches_around(t):
            return None
        self._cut(t, bits)
        if self.allow_cycle_ears or self._nonseparable():
            return self._relink(thread)
        self._uncut(t, bits)
        return None

    def unpeel(self, thread: tuple, log: list) -> None:
        for entry, added in reversed(log):
            if added:
                self._drop(entry)
            else:
                self._put(entry)
        self._uncut(thread[1], thread[2])

    def _cut(self, t: tuple[int, ...], bits: int) -> None:
        self.out[t[0]].remove(t[1])
        self.inn[t[-1]].remove(t[-2])
        for v in t[1:-1]:
            del self.out[v], self.inn[v]
        self.n -= len(t) - 2
        self.m -= len(t) - 1
        self.mask -= bits

    def _uncut(self, t: tuple[int, ...], bits: int) -> None:
        self.out[t[0]].add(t[1])
        self.inn[t[-1]].add(t[-2])
        for a, v, b in zip(t, t[1:], t[2:]):
            self.out[v] = {b}
            self.inn[v] = {a}
        self.n += len(t) - 2
        self.m += len(t) - 1
        self.mask += bits

    def _reaches_around(self, t: tuple[int, ...]) -> bool:
        """x0 reaches xr in the remainder without thread t.  With the first
        and the last arc of t cut, no search enters its interior.  Grow the
        smaller of the forward frontier from x0 and the backward frontier
        from xr until they meet or one dies out, so a failed test costs
        about the smaller side."""
        x0, xr = t[0], t[-1]
        self.out[x0].remove(t[1])
        self.inn[xr].remove(t[-2])
        ahead, behind = {x0}, {xr}
        fwd, bwd = [x0], [xr]
        while fwd and bwd:
            if len(fwd) <= len(bwd):
                fwd = _grow(fwd, self.out, ahead, behind)
            else:
                bwd = _grow(bwd, self.inn, behind, ahead)
            if fwd is None or bwd is None:
                break
        self.out[x0].add(t[1])
        self.inn[xr].add(t[-2])
        return fwd is None or bwd is None

    def _relink(self, peeled: tuple) -> list:
        """Update the threads after a peel.  Only the degrees of x0 and xr
        changed; one that became plain joins the thread ending there and
        the thread starting there into one."""
        self._drop(peeled)
        log = [(peeled, False)]
        t = peeled[1]
        for x in {t[0], t[-1]}:
            if not self._plain(x):
                continue
            (y,), (z,) = self.inn[x], self.out[x]
            before, after = self.last[y, x], self.first[x, z]
            if before is after:  # a closed plain thread: the remainder is a cycle
                continue
            self._drop(before)
            self._drop(after)
            joined = before[1] + after[1][1:]
            merged = (1 - len(joined), joined, before[2] + after[2])
            self._put(merged)
            log += [(before, False), (after, False), (merged, True)]
        return log

    def base(self) -> Ear:
        """The remainder as a cycle ear from its smallest vertex, when it is
        one directed cycle."""
        v0 = min(self.out)
        cycle = [v0]
        (v,) = self.out[v0]
        while v != v0:
            cycle.append(v)
            (v,) = self.out[v]
        return Ear(tuple(cycle) + (v0,))


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

    One remainder is edited in place and a peel is undone when its frame
    pops, so a try costs the peeled thread, one reachability test and, on
    success, the threads through its two ends (see _Remainder).
    """
    if i < 1:
        raise InvalidInputError("minimum ear length must be >= 1")
    if not is_strong(d):
        raise PropertyFailedError("digraph is not strong")
    if d.n < 2:
        raise PropertyFailedError("no cycle exists: single vertex")
    rest = _Remainder(d, i, allow_cycle_ears)
    if not rest.may_be_stage():
        return None
    box = [budget]
    dead: set[int] = set()  # arc masks of remainders not in LE_i
    # one frame per peeled thread: that thread (None at the root), the undo
    # log of the peel, and the index of the next thread of the remainder
    # to try; undoing a peel restores rest.order, so an index stays valid
    frames: list[list] = [[None, None, 0]]
    while frames:
        frame = frames[-1]
        if rest.m == rest.n:  # one directed cycle: the base
            ears = [Ear(f[0][1]) for f in reversed(frames[1:])]
            return _self_checked(d, EarDecomposition(rest.base(), ears), i,
                                 not allow_cycle_ears)
        order = rest.order
        k = frame[2]
        while k < len(order):
            thread = order[k]
            k += 1
            _spend(box)
            sub_mask = rest.mask - thread[2]
            if sub_mask in dead:
                continue
            log = rest.peel(thread)
            if log is not None:
                frame[2] = k
                frames.append([thread, log, 0])
                break
            dead.add(sub_mask)
        else:
            dead.add(rest.mask)
            frames.pop()
            if frame[0] is not None:
                rest.unpeel(frame[0], frame[1])
    return None


def generate_random_le(base_length: int = 3, ear_count: int = 3,
                       min_ear_length: int = 2, max_ear_length: int | None = None,
                       cycle_ear_probability: float = 0.0,
                       seed: int = 0) -> tuple[Digraph, EarDecomposition]:
    """Seeded random LE_{min_ear_length} instance with its decomposition.

    Digon-free by construction unless base_length = 2: cycle ears are only
    drawn at length >= 3, and length-1 ears never duplicate or reverse an
    existing arc.  Deterministic per seed; refuses to pass MAX_VERTICES.
    """
    if base_length < 2:
        raise InvalidInputError("base length must be >= 2")
    if min_ear_length < 1:
        raise InvalidInputError("min ear length must be >= 1")
    if max_ear_length is None:
        max_ear_length = min_ear_length
    if max_ear_length < min_ear_length:
        raise InvalidInputError("max ear length below min")
    # the fewest vertices the drawn lengths can give
    _check_vertex_count(base_length + ear_count * (min_ear_length - 1))
    rng = random.Random(seed)
    arcs = {(i, (i + 1) % base_length) for i in range(base_length)}
    base = Ear(tuple(range(base_length)) + (0,))
    near = [set() for _ in range(base_length)]  # neighbours either way
    for u, v in arcs:
        near[u].add(v)
        near[v].add(u)
    ears: list[Ear] = []
    next_id = base_length  # the vertices are 0..next_id-1
    for _ in range(ear_count):
        length = rng.randint(min_ear_length, max_ear_length)
        as_cycle = length >= 3 and rng.random() < cycle_ear_probability
        if length == 1:
            # the same draw as choice(sorted free pairs), by walking to the
            # k-th pair (u, v) of distinct vertices not adjacent either way;
            # vertex u has next_id - 1 - len(near[u]) of them
            total = next_id * (next_id - 1) - sum(map(len, near))
            if not total:
                raise InvalidInputError("no room for a length-1 ear; "
                                        "inconsistent parameters")
            k = rng.randrange(total)
            for x0 in range(next_id):
                free = next_id - 1 - len(near[x0])
                if k < free:
                    break
                k -= free
            for v in sorted(near[x0] | {x0}):  # skip to the k-th free partner
                if v > k:
                    break
                k += 1
            ear = Ear((x0, k))
        else:
            # the same draws as choice(vertices), then choice of the others
            x0 = xr = rng.randrange(next_id)
            if not as_cycle:
                j = rng.randrange(next_id - 1)
                xr = j + (j >= x0)
            _check_vertex_count(next_id + length - 1)
            interior = tuple(range(next_id, next_id + length - 1))
            next_id += length - 1
            near.extend(set() for _ in interior)
            ear = Ear((x0,) + interior + (xr,))
        ears.append(ear)
        arcs.update(ear.arcs)
        for u, v in ear.arcs:
            near[u].add(v)
            near[v].add(u)
    host = Digraph(range(next_id), arcs)
    return host, _self_checked(host, EarDecomposition(base, ears),
                               min_ear_length)
