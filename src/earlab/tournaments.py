"""Bit-packed tournaments: encoding, enumeration, isomorphism, homomorphism.

A tournament of order k is encoded by the upper triangle of its adjacency
matrix in row order: pair p = (i, j) with i < j contributes bit p, set iff
the arc runs (i, j), clear iff it runs (j, i).  The string form writes the
bits as '1'/'0' in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .digraph import Digraph
from .errors import InvalidInputError


@lru_cache(maxsize=None)
def _pairs(k: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(k) for j in range(i + 1, k))


@dataclass(frozen=True)
class Tournament:
    k: int
    code: int

    def __post_init__(self):
        if type(self.k) is not int:
            raise InvalidInputError(f"order must be an integer, got {self.k!r:.40}")
        if type(self.code) is not int:
            raise InvalidInputError(
                f"tournament code must be an integer, got {self.code!r:.40}")
        if self.k < 0:  # order 0 is the empty tournament
            raise InvalidInputError("order must be >= 0")
        if self.code < 0 or self.code >= 1 << len(_pairs(self.k)):
            raise InvalidInputError("tournament code out of range")

    @classmethod
    def from_arcs(cls, k: int, arcs) -> "Tournament":
        """The order-k tournament with exactly these arcs.  InvalidInputError
        names the first entry that is not two distinct ids below k, then
        the first pair with no arc or two."""
        arcset = set()
        for pair in arcs:
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and pair[0] != pair[1]
                    and all(type(v) is int and 0 <= v < k for v in pair)):
                raise InvalidInputError(f"bad arc entry {pair!r:.40}: "
                                        f"need two distinct ids below {k}")
            arcset.add(tuple(pair))
        code = 0
        for idx, (i, j) in enumerate(_pairs(k)):
            fwd, back = (i, j) in arcset, (j, i) in arcset
            if fwd == back:
                raise InvalidInputError(f"pair {{{i},{j}}} needs exactly one arc")
            if fwd:
                code |= 1 << idx
        return cls(k, code)

    def code_string(self) -> str:
        return "".join("1" if self.code >> i & 1 else "0"
                       for i in range(len(_pairs(self.k))))

    @property
    def arcs(self) -> frozenset[tuple[int, int]]:
        out = []
        for idx, (i, j) in enumerate(_pairs(self.k)):
            out.append((i, j) if self.code >> idx & 1 else (j, i))
        return frozenset(out)

    @cached_property
    def _rows(self) -> tuple[int, ...]:
        return mask_rows(self.k, self.code)

    def has_arc(self, u: int, v: int) -> bool:
        """Whether (u, v) is an arc; False for any id outside 0..k-1."""
        return 0 <= u < self.k and 0 <= v < self.k and bool(self._rows[u] >> v & 1)

    def out_masks(self) -> tuple[int, ...]:
        return self._rows

    def out_degrees(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self.out_masks())

    def __repr__(self) -> str:
        return f"Tournament(k={self.k}, code={self.code_string()!r})"


def mask_rows(k: int, code: int) -> tuple[int, ...]:
    """Out-neighborhood bitmask of every vertex of the order-k code."""
    masks = [0] * k
    for idx, (i, j) in enumerate(_pairs(k)):
        if code >> idx & 1:
            masks[i] |= 1 << j
        else:
            masks[j] |= 1 << i
    return tuple(masks)


def compose_rows(a, b) -> list[int]:
    """Row product of two bitmask relations: row i of the result is the
    union of the rows of b picked by the bits of a[i]."""
    out = []
    for row in a:
        acc = 0
        while row:
            low = row & -row
            acc |= b[low.bit_length() - 1]
            row ^= low
        out.append(acc)
    return out


def arc_planes(k: int) -> list[list[int]]:
    """Bit-sliced adjacency of every order-k code at once: bit c of entry
    [i][j] is set iff the tournament with code c has the arc (i, j)."""
    count = 1 << len(_pairs(k))  # the codes, one bit each
    full = (1 << count) - 1
    size = max(1, count // 8)  # bytes
    planes = [[0] * k for _ in range(k)]
    for idx, (i, j) in enumerate(_pairs(k)):
        # codes with pair bit idx set: the high half of every run of
        # 2 ** (idx + 1) consecutive codes, so one repeated byte pattern
        if idx < 3:  # a run shorter than a byte: bits 0xAA, 0xCC or 0xF0
            unit = bytes([(0xAA, 0xCC, 0xF0)[idx]])
        else:
            run = 1 << idx - 3
            unit = bytes(run) + b"\xff" * run
        plane = int.from_bytes(unit * (size // len(unit)), "little") & full
        planes[i][j] = plane
        planes[j][i] = full ^ plane
    return planes


def compose_planes(a, b) -> list[list[int]]:
    """Boolean matrix product of two bit-sliced relations, entry by entry
    the OR over m of a[i][m] AND b[m][j], for every code at once."""
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = 0
            for m, plane in enumerate(row):
                acc |= plane & b[m][j]
            out_row.append(acc)
        out.append(out_row)
    return out


def canonical_code(k: int, code: int) -> int:
    """Canonical form: minimum code over score-sorted relabelings.

    Restricting to orderings with nondecreasing score is isomorphism-safe
    (scores are invariant).  The relabeling is built on the out-mask rows
    level by level, from position k-1 down to 0: placing vertex v at
    position p fixes the bits of the pairs (p, j > p), whether v beats each
    vertex placed above it.  At each position only the branches whose newly
    fixed bits are smallest are kept: those bits outrank every bit fixed
    later, so no other branch can reach the minimum.  All kept branches fix
    the same bits, and these are the code's.
    """
    return _canonical_rows(Tournament(k, code).out_masks())


def _canonical_rows(rows) -> int:
    """canonical_code of the tournament with these out-mask rows."""
    k = len(rows)
    full = (1 << k) - 1
    score = [row.bit_count() for row in rows]
    block: dict[int, int] = {}
    for v, s in enumerate(score):
        block[s] = block.get(s, 0) | 1 << v
    # allowed[p]: the vertices whose score puts them at position p
    allowed = [block[score[v]] for v in sorted(range(k), key=score.__getitem__)]
    # beats[v]: the vertices u that beat v, each at bit k * u.  A branch
    # holds its used vertices and, in the k-bit field of each vertex u, the
    # bits u would fix if placed next: whether it beats each placed vertex,
    # the first placed highest.
    beats = [0] * k
    for u, row in enumerate(rows):
        while row:
            low = row & -row
            row ^= low
            beats[low.bit_length() - 1] |= 1 << k * u
    field = full >> 1
    code = 0
    branches = [(0, 0)]
    for p in range(k - 1, -1, -1):
        best = full  # above every field
        kept: list[tuple[int, int]] = []
        for used, fields in branches:
            free = allowed[p] & ~used
            while free:
                low = free & -free
                free ^= low
                v = low.bit_length() - 1
                fixed = fields >> k * v & field
                if fixed < best:
                    best, kept = fixed, []
                if fixed == best:
                    kept.append((used | low, fields << 1 | beats[v]))
        code = code << k - 1 - p | best
        branches = kept
    return code


# the number of isomorphism classes of tournaments of order k = 1..7
# (Davis 1953; OEIS A000568)
_CLASS_COUNTS = (1, 1, 2, 4, 12, 56, 456)


@lru_cache(maxsize=None)
def tournament_reps(k: int) -> tuple[Tournament, ...]:
    """One representative per isomorphism class, by vertex augmentation.

    Each candidate extends a class of order k-1 by a vertex k-1 with one of
    the 2 ** (k-1) out-masks; its rows are the parent's rows plus that
    mask, and it is kept as its canonical code.  The canonical form follows
    only minimal branches: at each position the smallest newly fixed bits
    win, as they outrank every bit fixed later (see canonical_code).

    Class counts for k = 1..7 are _CLASS_COUNTS: 1, 1, 2, 4, 12, 56, 456.
    """
    if k < 1:
        raise InvalidInputError("order must be >= 1")
    if k == 1:
        return (Tournament(1, 0),)
    top = 1 << k - 1
    seen: set[int] = set()
    for small in tournament_reps(k - 1):
        rows = small.out_masks()
        for mask in range(top):
            # vertex i beats the new vertex iff bit i of its out-mask is clear
            cand = [row if mask >> i & 1 else row | top for i, row in enumerate(rows)]
            cand.append(mask)
            seen.add(_canonical_rows(cand))
    return tuple(Tournament(k, c) for c in sorted(seen))


class HomomorphismSearch:
    """Backtracking search for arc-preserving maps V(d) -> V(t), with the
    digraph side prepared once for any number of target tournaments.

    Forward checking on bitmask candidate sets (Haralick and Elliott,
    1980): placing the vertex of a visit slot narrows every neighbour of a
    later slot to the image's out- or in-neighbourhood, and an emptied
    candidate set prunes the branch at once.

    No placement is checked against the neighbours placed before it, as no
    such check can fail.  When a neighbour w of v was placed, it narrowed
    the candidates of v to the out-row of its image (arc (w, v)) or to the
    in-row (arc (v, w)), so every image v can still draw already keeps
    every arc between v and an earlier neighbour.  A digon lists its later
    end twice, once per direction, and the out- and in-rows of a tournament
    vertex are disjoint, so the second narrowing empties its candidates.
    """

    def __init__(self, d: Digraph):
        # visit order: BFS over the underlying graph, roots and neighbours in
        # ascending order, so each vertex but a root has an earlier neighbour
        self.visit: list[int] = []
        slot: dict[int, int] = {}
        for root in sorted(d.vertices):
            if root in slot:
                continue
            slot[root] = len(slot)
            queue = [root]
            for v in queue:
                for w in sorted({*d.out_neighbors(v), *d.in_neighbors(v)}):
                    if w not in slot:
                        slot[w] = len(slot)
                        queue.append(w)
            self.visit += queue
        # later[s]: (slot, outward) for each neighbour placed after slot s,
        # outward when the arc runs from the vertex of slot s to it
        self.later = [
            [(slot[w], True) for w in d.out_neighbors(v) if slot[w] > slot[v]]
            + [(slot[w], False) for w in d.in_neighbors(v) if slot[w] > slot[v]]
            for v in self.visit]

    def into(self, t: Tournament) -> dict[int, int] | None:
        """First homomorphism in visit order and ascending image, keyed in
        ascending vertex order, or None."""
        later, n = self.later, len(self.visit)
        full = (1 << t.k) - 1
        # (in-row, out-row) of every image: each other vertex is in one
        rows = [(full ^ row ^ 1 << a, row) for a, row in enumerate(t.out_masks())]
        image = [0] * n

        def place(s: int, cand: list[int]) -> bool:
            if s == n:
                return True
            options = cand[s]
            while options:
                low = options & -options
                options ^= low
                img = low.bit_length() - 1
                row = rows[img]
                narrowed = list(cand)
                for w, outward in later[s]:
                    narrowed[w] &= row[outward]
                    if not narrowed[w]:
                        break
                else:
                    image[s] = img
                    if place(s + 1, narrowed):
                        return True
            return False

        if not place(0, [full] * n):
            return None
        return dict(sorted(zip(self.visit, image)))

    def fits_order(self, k: int) -> bool:
        """Whether some tournament of order k admits a homomorphism, decided
        by one backtracking search for an oriented k-colouring: every colour
        class independent, all arcs between two classes running the same
        way, colours opened in first-use order (their names are
        interchangeable).

        D maps into a tournament of order k iff it has such a colouring.
        The preimages of a homomorphism form one: a class maps to a single
        vertex, which has no loop, and the arcs between two classes map to
        the one arc between their images.  Conversely a colouring fixes the
        direction between any two colours it joins, and any completion of
        the other directions is a tournament of order k that admits the
        colouring as a homomorphism.

        Slots are coloured in visit order.  A slot's colour is ruled out by
        each earlier neighbour w: w's own colour, and every colour whose
        direction to w's colour is already fixed against the arc.  No colour
        fits a slot whose arcs run both to and from one class.
        """
        later, n = self.later, len(self.visit)
        # earlier[s]: (slot, outward) for each neighbour placed before slot
        # s, outward when the arc runs from the vertex of slot s to it
        earlier: list[list[tuple[int, bool]]] = [[] for _ in range(n)]
        for s, nbrs in enumerate(later):
            for w, outward in nbrs:
                earlier[w].append((s, not outward))
        colour = [0] * n
        # heads[a] / tails[a]: colours b whose arcs with a run a -> b / b -> a
        heads, tails = [0] * k, [0] * k

        def place(s: int, opened: int) -> bool:
            if s == n:
                return True
            # the colours the slot's arcs must run to and from
            to, fro = 0, 0
            options = (1 << min(opened + 1, k)) - 1
            for w, outward in earlier[s]:
                c = colour[w]
                if outward:
                    to |= 1 << c
                    options &= ~heads[c]
                else:
                    fro |= 1 << c
                    options &= ~tails[c]
            if to & fro:
                return False
            options &= ~(to | fro)
            while options:
                low = options & -options
                options ^= low
                c = low.bit_length() - 1
                saved = heads[:], tails[:]
                heads[c] |= to
                tails[c] |= fro
                for w, outward in earlier[s]:
                    (tails if outward else heads)[colour[w]] |= low
                colour[s] = c
                if place(s + 1, max(opened, c + 1)):
                    return True
                heads[:], tails[:] = saved
            return False

        return place(0, 0)


def find_homomorphism(d: Digraph, t: Tournament) -> dict[int, int] | None:
    """An arc-preserving map V(d) -> V(t), or None; see HomomorphismSearch."""
    return HomomorphismSearch(d).into(t)

