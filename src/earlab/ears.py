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
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import accumulate, chain, repeat
from operator import contains, eq, itemgetter, lt, sub
from typing import Iterable, Iterator

from .digraph import (Arc, Digraph, _check_vertex_count, _grow, is_strong,
                      nonseparable)
from .errors import (BudgetExceededError, InvalidInputError, ParseError,
                     PropertyFailedError, VerificationError)


class Ear(tuple):
    """A part (x_0, ..., x_r) as EarDecomposition checked it; r arcs: that
    tuple.  Only the benchmark reads vertices; once it calls to_json(), Ear goes."""

    __slots__ = ()

    @property
    def vertices(self) -> tuple[int, ...]:
        return self


def _part(vs: Iterable[int]) -> tuple[int, ...]:
    """vs as a part: int ids >= 0, >= 1 arc, no interior id repeated or an end."""
    vs = tuple(vs)
    for v in vs:
        if type(v) is not int:
            raise InvalidInputError(f"vertex id {v!r:.40} is not an integer")
        if v < 0:
            raise InvalidInputError(f"negative vertex id {v}")
    if len(vs) < 2:
        raise InvalidInputError("an ear needs at least one arc")
    if len(vs) == 2 and vs[0] == vs[1]:
        raise InvalidInputError("length-1 cycle ear would be a loop")
    interior = vs[1:-1]
    if len(set(interior)) != len(interior):
        raise InvalidInputError(f"repeated internal vertex in ear {vs!r:.40}")
    if vs[0] in interior or vs[-1] in interior:
        raise InvalidInputError(f"endpoint reused internally in ear {vs!r:.40}")
    return vs


def _ids(value, what: str) -> tuple[int, ...]:
    if not (isinstance(value, (list, tuple))
            and set(map(type, value)) <= {int}):
        raise ParseError(f"bad {what} {value!r:.40}: need a list of integer ids")
    return tuple(value)


class EarDecomposition:
    """Base cycle plus ordered ears.  It names no digraph: it decomposes
    every digraph whose vertices and arcs its parts cover exactly, once each
    (validate_decomposition).  Its index, built with it: order, the base's
    vertices then each ear's interior as the parts add them; ends, stage j
    having the vertices order[:ends[j]]; lengths, each ear's arc count.
    The one way in: the base (x_0, ..., x_0) and each ear, vertex sequences
    that C-level passes accept; _part names a failure's first offender.
    base and ears are those parts as tuples, typed Ear only while the
    benchmark reads Ear's vertices alias instead of calling to_json()."""

    def __init__(self, base: Iterable[int], ears: Iterable[Iterable[int]] = ()):
        cycle, parts = tuple(base), tuple(map(tuple, ears))
        every = (cycle,) + parts  # each: >= 2 ids, distinct but a closed part's ends
        ids = tuple(chain.from_iterable(every))
        ints = set(map(type, ids)) <= {int}  # before set() hashes
        sizes, lens = list(map(len, map(set, every if ints else ()))), list(map(len, every))
        closed = map(eq, map(itemgetter(0), every), map(itemgetter(-1), every))
        if not (ints and min(sizes) >= 2 and min(ids) >= 0
                and cycle[0] == cycle[-1] and sizes == list(map(sub, lens, closed))):
            if _part(cycle)[0] != cycle[-1]:
                raise InvalidInputError("base must be a cycle ear (x_0 = x_r)")
            for part in parts:
                _part(part)
        self.base = Ear(cycle)
        self.ears = tuple(map(Ear, parts))
        inner = list(map(itemgetter(slice(1, -1)), parts))
        self.order = cycle[:-1] + tuple(chain.from_iterable(inner))
        self.ends = tuple(accumulate(map(len, inner), initial=len(cycle) - 1))
        self.lengths = tuple(map(sub, lens[1:], repeat(1)))

    @property
    def stage_count(self) -> int:
        return len(self.ears) + 1

    @property
    def min_ear_length(self) -> int | None:
        return min(self.lengths, default=None)

    def certifies(self, i: int) -> bool:
        """Every ear has length >= i (vacuously true for a bare cycle)."""
        return min(self.lengths, default=i) >= i

    def stage(self, j: int) -> Digraph:
        """Stage j: the base cycle plus the first j ears, built on demand."""
        if not 0 <= j < self.stage_count:
            raise IndexError(f"stage {j} out of range 0..{len(self.ears)}")
        parts = (self.base,) + self.ears[:j]
        return Digraph(set(chain.from_iterable(parts)),
                       {a for p in parts for a in zip(p, p[1:])})

    def to_json(self) -> dict:
        return {"base": list(self.base[:-1]), "ears": list(map(list, self.ears))}

    @classmethod
    def from_json(cls, doc: dict) -> "EarDecomposition":
        if not isinstance(doc, dict) or "base" not in doc:
            raise InvalidInputError("decomposition JSON needs a 'base' field")
        base = _ids(doc["base"], "'base'")
        if len(base) >= 2 and base[0] == base[-1]:
            base = base[:-1]  # accept the closed form too
        if len(base) < 2:
            raise InvalidInputError("base cycle needs at least 2 vertices")
        ears, closed = doc.get("ears", []), base + base[:1]
        if (isinstance(ears, (list, tuple))
                and all(map(isinstance, ears, repeat((list, tuple))))):
            try:  # the constructor's passes type-check the ids, once
                return cls(closed, ears)
            except InvalidInputError:
                if set(map(type, chain.from_iterable(ears))) <= {int}:
                    raise
        _part(closed)  # these name the first offender: the base, then each ear
        if not isinstance(ears, (list, tuple)):
            raise ParseError("'ears' must be a list of vertex lists")
        for ear in ears:
            _part(_ids(ear, "ear"))

    def __repr__(self) -> str:
        return (f"EarDecomposition(base={list(self.base)}, "
                f"ears={len(self.ears)})")


@dataclass
class DecompositionReport:
    ok: bool
    violations: list[str] = field(default_factory=list)


def validate_decomposition(d: Digraph, e: EarDecomposition,
                           path_ears_only: bool = False) -> DecompositionReport:
    """Check every decomposition invariant; violations name their stage.

    No stage is tested for strongness.  The base is a cycle on distinct
    vertices (EarDecomposition checks every part), so it is strong once
    its arcs are in d; gluing an ear with both ends in a strong stage and a
    new interior keeps the stage strong, so once the per-ear invariants
    hold no later stage can fail that test.

    C-level passes over e's index accept; only a failing decomposition is
    walked ear by ear, to name each violation but a part's own shape, which
    the constructor refuses.  A text echoes at most 40 characters of a set.
    """
    n, pos = d.n, dict(zip(e.order, range(d.n)))
    x0s, xrs = tuple(map(itemgetter(0), e.ears)), tuple(map(itemgetter(-1), e.ears))
    # order covers d once, each ear's ends precede its block, d's arc count
    if (len(e.order) == len(pos) == n and d.vertices.issuperset(pos)
            and all(map(lt, map(pos.get, x0s, repeat(n)), e.ends))
            and all(map(lt, map(pos.get, xrs, repeat(n)), e.ends))
            and not (path_ears_only and any(map(eq, x0s, xrs)))
            and len(d.arcs) == e.ends[0] + sum(e.lengths)):
        parts = e.ears + (e.base,)
        arcs = chain.from_iterable(
            map(zip, parts, map(itemgetter(slice(1, None)), parts)))
        # each arc of an ear with an interior ends there: only length-1 ears repeat
        if (d.arcs == set(arcs) if 1 in e.lengths
                else all(map(d.arcs.__contains__, arcs))):
            return DecompositionReport(ok=True)
    bad: list[str] = []
    base_arcs = tuple(zip(e.base, e.base[1:]))
    for a in base_arcs:
        if a not in d.arcs:
            bad.append(f"stage 0: base arc {a} not in host")
    verts, arcs = set(e.base), set(base_arcs)
    host_arcs = d.arcs
    for idx, p in enumerate(e.ears):
        inner, ear_arcs = p[1:-1], tuple(zip(p, p[1:]))
        if p[0] not in verts or p[-1] not in verts:
            bad.append(f"stage {idx}: ear endpoints must lie in the stage digraph")
        elif not verts.isdisjoint(inner):
            bad.append(f"stage {idx}: ear internal vertices must be new, "
                       f"{sorted(verts.intersection(inner))!s:.40} already in the stage")
        for a in ear_arcs:
            if a not in host_arcs:
                bad.append(f"stage {idx}: ear arc {a} not in host")
            if a in arcs:
                bad.append(f"stage {idx}: ear arc {a} already covered")
        if path_ears_only and p[0] == p[-1]:
            bad.append(f"stage {idx}: cycle ear not allowed in path-ears mode")
        verts.update(p)
        arcs.update(ear_arcs)
    if verts != d.vertices:
        bad.append(f"final: vertices uncovered: {sorted(d.vertices - verts)!s:.40}")
    if arcs != d.arcs:
        bad.append(f"final: arcs uncovered: {sorted(d.arcs - arcs)!s:.40}")
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


def _require_cycle(d: Digraph) -> None:
    """Precondition of find_le_decomposition: d is strong and holds a cycle."""
    if not is_strong(d):
        raise PropertyFailedError("digraph is not strong")
    if d.n < 2:
        raise PropertyFailedError(
            f"no cycle exists: {'single vertex' if d.n else 'no vertices'}")


def _shortest_cycle_through(d: Digraph, v0: int) -> tuple[int, ...] | None:
    """Deterministic shortest directed cycle through v0, as (v0,...,v0), or
    None when no in-neighbour of v0 is reached from it.  None is v0, since
    d has no loop.  The search stops at the first layer reaching one:
    shortest cycles close there."""
    parent, frontier = {v0: v0}, [v0]
    while frontier and parent.keys().isdisjoint(d.in_neighbors(v0)):
        frontier = _grow(frontier, d._out, parent)

    def closed_at(u: int) -> tuple[int, ...]:
        path = [u]
        while path[-1] != v0:
            path.append(parent[path[-1]])
        return tuple(reversed(path)) + (v0,)

    return min(map(closed_at, filter(parent.__contains__, d.in_neighbors(v0))),
               key=lambda c: (len(c), c), default=None)


def find_ear_decomposition(d: Digraph) -> EarDecomposition:
    """Constructive decomposition of a strong digraph (ears of any length).

    Deterministic and O(n + m) once d's sorted index is built.  The base is
    the shortest cycle through the smallest vertex.  One reverse BFS from it
    gives every other vertex a parent one step closer to the base.  Covered
    vertices are scanned once each in the order they were covered (base in
    cycle order, then each ear's interior in path order); each uncovered
    out-arc, by increasing head, starts the next ear, which follows parent
    pointers to the first covered vertex (possibly its own start).  The one
    out-arc of u covered before u is scanned goes to its successor in its part.

    The sweeps prove strongness (Bang-Jensen & Gutin, Digraphs, 5.3): d is
    strong iff the base exists, the reverse BFS reaches all n vertices (each
    reaches the base) and the scan, which covers exactly what the base
    reaches, covers all n.  Fewer arcs than vertices refuse d before any.
    """
    if d.n < 2:
        _require_cycle(d)
    cycle = len(d.arcs) >= d.n and _shortest_cycle_through(d, min(d.vertices))
    if not cycle:
        raise PropertyFailedError("digraph is not strong")
    succ = dict(zip(cycle, cycle[1:]))  # each covered vertex's covered out-arc
    parent = dict.fromkeys(succ)  # each vertex's step towards the base
    layer = list(succ)
    while layer:
        layer = _grow(layer, d._in, parent)
    if len(parent) < d.n:
        raise PropertyFailedError("digraph is not strong")
    queue = list(succ)
    ears: list[tuple[int, ...]] = []
    for u in queue:  # the queue grows as ears cover new vertices
        for x in d.out_neighbors(u):
            if x == succ[u]:
                continue
            path = [u, x]
            while path[-1] not in succ:
                path.append(parent[path[-1]])
            ears.append(tuple(path))
            succ.update(zip(path[1:-1], path[2:]))
            queue.extend(path[1:-1])
    if len(queue) < d.n:
        raise PropertyFailedError("digraph is not strong")
    d._strong = True  # is_strong reads this, and sweeps d no more
    return _self_checked(d, EarDecomposition(cycle, ears))


def _spend(budget_box: list[int]) -> None:
    budget_box[0] -= 1
    if budget_box[0] < 0:
        raise BudgetExceededError("search budget exhausted")


def _threads_of(d: Digraph) -> Iterator[tuple[int, ...]]:
    """Every thread of d, strong: a maximal path whose inner vertices have
    in- and out-degree 1.  Every arc lies on exactly one, and the last ear
    of any decomposition is one of them.  A bare cycle is one closed thread
    from its smallest vertex."""
    plain = {v for v in d.vertices if len(d._in[v]) == 1 == len(d._out[v])}
    for u in d.vertices - plain or [min(d.vertices)]:
        for w in d._out[u]:
            path = [u, w]
            while w != u and w in plain:
                (w,) = d._out[w]
                path.append(w)
            yield tuple(path)


class _Remainder:
    """The remainder of the LE_i search, edited in place by each peel: its
    threads, and counts of its vertices and arcs.

    A thread is (1 - vertex count, vertices, indices of the initial
    threads it chains, the k-th that _threads_of yields on d being (k,));
    distinct vertices order any two.  The threads are kept by first and by
    last arc; those that may be the last ear (length >= min_len, open in
    path-ears mode) also in a list sorted longest first, then
    lexicographically; and as the thread multigraph's rows, one each way
    for every branch vertex b: b not plain, or the one end of a remainder
    that is a cycle.  leaving[b] and entering[b] map the arc at b of each
    thread that leaves or enters b to its other end, so parallel threads
    stay apart; out[b] and inn[b] are views of their values, which _grow
    and nonseparable iterate as they iterate a Digraph's rows.  Only _put
    and _drop change the rows for good.  A strong remainder keeps both
    arcs of each vertex with one arc in and one out in d, so it keeps
    whole initial threads, whose set names it, and its branch vertices
    are branch vertices of d.
    """

    def __init__(self, d: Digraph, min_len: int, allow_cycle_ears: bool):
        self.min_len = min_len
        self.allow_cycle_ears = allow_cycle_ears
        self.n, self.m = d.n, len(d.arcs)
        self.first: dict[Arc, tuple] = {}
        self.last: dict[Arc, tuple] = {}
        self.leaving, self.entering = defaultdict(dict), defaultdict(dict)
        self.out, self.inn = {}, {}
        self.order: list[tuple] = []
        for k, t in enumerate(_threads_of(d)):
            self._put((1 - len(t), t, (k,)))

    def _may_be_last(self, t: tuple[int, ...]) -> bool:
        return len(t) > self.min_len and (self.allow_cycle_ears or t[0] != t[-1])

    def _put(self, thread: tuple) -> None:
        t = thread[1]
        x0, xr = t[0], t[-1]
        a, z = (x0, t[1]), (t[-2], xr)
        self.first[a] = self.last[z] = thread
        out, inn = self.leaving[x0], self.entering[xr]
        if not out:  # a new row, and its view
            self.out[x0] = out.values()
        if not inn:
            self.inn[xr] = inn.values()
        out[a], inn[z] = xr, x0
        if self._may_be_last(t):
            insort(self.order, thread)

    def _drop(self, thread: tuple) -> None:
        t = thread[1]
        x0, xr = t[0], t[-1]
        a, z = (x0, t[1]), (t[-2], xr)
        del self.first[a], self.last[z]
        out, inn = self.leaving[x0], self.entering[xr]
        del out[a], inn[z]
        if not out:  # x0 turned plain: nonseparable reads branch vertices only
            del self.leaving[x0], self.out[x0]
        if not inn:
            del self.entering[xr], self.inn[xr]
        if self._may_be_last(t):
            del self.order[bisect_left(self.order, thread)]

    def may_be_stage(self) -> bool:
        """Necessary for the remainder, strong, to be a stage."""
        return (self._room(self.m, self.n)
                and (self.allow_cycle_ears or self._nonseparable()))

    def _room(self, m: int, n: int) -> bool:
        """Room for m - n ears of length >= min_len beside a base of >= 2
        arcs."""
        return m - 2 >= self.min_len * (m - n)

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
        remainder.  Both tests run on the thread multigraph M, whose
        vertices are the branch vertices (those not plain), with one edge
        per thread joining its ends: paths between branch vertices run
        along whole threads.

        In path-ears mode the remainder must also be nonseparable, which
        the peel decides once its threads are relinked, undoing the peel
        if not.  A strong remainder R other than a cycle is a subdivision of
        M in which no subdivision vertex is a cut vertex (Whitney 1932).
        Proof: each arc of R lies on one thread, and each inner vertex of
        a thread on no other.  Deleting an inner vertex of a thread P from
        u to w leaves R - P with the two pieces of P hanging from u and w;
        R - P is connected, since P lies on a cycle of R, whose rest joins
        w back to u outside P.  So R is nonseparable iff no branch vertex
        is a cut vertex, and deleting a branch vertex b splits R as it
        splits M, each thread without b hanging from its other end.  A
        closed thread at b is cut off by b, so R is then separable; with
        none, b is a cut vertex of R iff of M.
        """
        t = thread[1]
        r = len(t) - 1
        if not self._room(self.m - r, self.n - r + 1):
            return None
        if t[0] != t[-1] and not self._reaches_around(t):
            return None
        self.n, self.m = self.n - r + 1, self.m - r
        log = self._relink(thread)
        if self.allow_cycle_ears or self._nonseparable():
            return log
        self.unpeel(thread, log)
        return None

    def _nonseparable(self) -> bool:
        """The remainder, strong, is nonseparable: no thread is closed (no
        row holds its own vertex) and one lowpoint DFS over the thread
        multigraph's rows finds no cut vertex (see peel)."""
        return self.m == self.n or (
            not any(map(contains, self.out.values(), self.out))
            and nonseparable(self.out, self.inn))

    def unpeel(self, thread: tuple, log: list) -> None:
        for entry, added in reversed(log):
            if added:
                self._drop(entry)
            else:
                self._put(entry)
        r = len(thread[1]) - 1
        self.n, self.m = self.n + r - 1, self.m + r

    def _reaches_around(self, t: tuple[int, ...]) -> bool:
        """x0 reaches xr in the remainder without thread t, over the rows
        with t lifted out for the search and set back.  Grow the smaller
        of the forward frontier from x0 and the backward frontier from xr
        until they meet or one dies out, so a failed test costs about the
        smaller side."""
        x0, xr = t[0], t[-1]
        a, z = (x0, t[1]), (t[-2], xr)
        out, inn = self.leaving[x0], self.entering[xr]
        del out[a], inn[z]
        ahead, behind = {x0: x0}, {xr: xr}
        fwd, bwd = [x0], [xr]
        while fwd and bwd:  # None, once the two sides meet, ends it too
            if len(fwd) <= len(bwd):
                fwd = _grow(fwd, self.out, ahead, behind)
            else:
                bwd = _grow(bwd, self.inn, behind, ahead)
        out[a], inn[z] = xr, x0
        return fwd is None or bwd is None

    def _relink(self, peeled: tuple) -> list:
        """Update the threads after a peel.  Only the degrees of x0 and xr
        changed; one that became plain joins the thread ending there and
        the thread starting there into one."""
        self._drop(peeled)
        log = [(peeled, False)]
        t = peeled[1]
        for x in {t[0], t[-1]}:
            if len(self.inn[x]) != 1 or len(self.out[x]) != 1:
                continue
            (into,), (out_of,) = self.entering[x], self.leaving[x]
            before, after = self.last[into], self.first[out_of]
            if before is after:  # a closed plain thread: the remainder is a cycle
                continue
            self._drop(before)
            self._drop(after)
            joined = before[1] + after[1][1:]
            merged = (1 - len(joined), joined, before[2] + after[2])
            self._put(merged)
            log += [(before, False), (after, False), (merged, True)]
        return log

    def base(self) -> tuple[int, ...]:
        """The remainder as a cycle ear from its smallest vertex, when it is
        one directed cycle: its one thread, which is closed."""
        ((_, t, _),) = self.first.values()
        k = t.index(min(t))
        return t[k:-1] + t[:k + 1]


DEFAULT_BUDGET = 200_000  # remainders the exact search may try


def find_le_decomposition(d: Digraph, i: int = 1, budget: int = DEFAULT_BUDGET,
                          allow_cycle_ears: bool = True) -> EarDecomposition | None:
    """Exact search for a decomposition with every ear of length >= i.

    D is in LE_i iff it is one directed cycle, or peeling some thread of
    length >= i (open, in path-ears mode) leaves a digraph in LE_i: the
    peeled thread is the last ear.  The search peels threads depth first,
    longest first, and skips remainders that cannot be a stage or are
    known dead; each remainder tried costs one unit of budget.  Returns
    None only when the whole space was exhausted (provably not in LE_i
    under the chosen ear convention); a BudgetExceededError means the
    verdict is unknown.  The dead memo holds exhausted frames only:
    peeling t from R fails by R - t alone (its counts, strongness, see
    _Remainder.peel, and nonseparability), so that R - t is never a frame.
    A remainder's memo key is a mask, one bit per initial thread (thread
    of d) it keeps, exact as _Remainder shows.

    One remainder, its threads alone, is edited in place and a peel is
    undone when its frame pops, so a try costs the peeled thread, one
    reachability test over the thread multigraph's rows and, on success,
    the threads through its two ends (see _Remainder), plus in path-ears
    mode one DFS over those rows (_Remainder._nonseparable).
    """
    if i < 1:
        raise InvalidInputError("minimum ear length must be >= 1")
    _require_cycle(d)
    rest = _Remainder(d, i, allow_cycle_ears)
    if not rest.may_be_stage():
        return None
    box = [budget]

    def bits(ids: tuple[int, ...]) -> int:  # the mask of a thread's indices
        return sum(map((1).__lshift__, ids))
    mask = (1 << len(rest.first)) - 1  # every initial thread is kept
    dead: set[int] = set()  # masks of exhausted frames: not in LE_i
    # one frame per peeled thread: that thread (None at the root), the undo
    # log of the peel, and the index of the next thread of the remainder
    # to try; undoing a peel restores rest.order, so an index stays valid
    frames: list[list] = [[None, None, 0]]
    while frames:
        frame = frames[-1]
        if rest.m == rest.n:  # one directed cycle: the base
            ears = [f[0][1] for f in reversed(frames[1:])]
            return _self_checked(d, EarDecomposition(rest.base(), ears), i,
                                 not allow_cycle_ears)
        order = rest.order
        k = frame[2]
        while k < len(order):
            thread = order[k]
            k += 1
            _spend(box)
            log = None if dead and mask - bits(thread[2]) in dead else rest.peel(thread)
            if log is not None:
                frame[2] = k
                mask -= bits(thread[2])
                frames.append([thread, log, 0])
                break
        else:
            dead.add(mask)
            frames.pop()
            if frame[0] is not None:
                rest.unpeel(frame[0], frame[1])
                mask += bits(frame[0][2])
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
    if ear_count < 0:
        raise InvalidInputError("ear count must be >= 0")
    if not 0 <= cycle_ear_probability <= 1:  # NaN fails this too
        raise InvalidInputError("cycle ear probability must lie in [0, 1], "
                                f"got {cycle_ear_probability}")
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
    base = tuple(range(base_length)) + (0,)
    near = [set() for _ in range(base_length)]  # neighbours either way
    for u, v in arcs:
        near[u].add(v)
        near[v].add(u)
    ears: list[tuple[int, ...]] = []
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
            vs = (x0, k)
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
            vs = (x0,) + interior + (xr,)
        ears.append(vs)
        for u, v in zip(vs, vs[1:]):
            arcs.add((u, v))
            near[u].add(v)
            near[v].add(u)
    host = Digraph(range(next_id), arcs)
    return host, _self_checked(host, EarDecomposition(base, ears),
                               min_ear_length)
