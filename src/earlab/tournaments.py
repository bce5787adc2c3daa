"""Bit-packed tournaments: encoding, enumeration, isomorphism, homomorphism.

A tournament of order k is encoded by the upper triangle of its adjacency
matrix in row order: pair p = (i, j) with i < j contributes bit p, set iff
the arc runs (i, j), clear iff it runs (j, i).  The string form writes the
bits as '1'/'0' in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby, permutations

from .digraph import Digraph
from .errors import InvalidInputError


@lru_cache(maxsize=None)
def _pairs(k: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(k) for j in range(i + 1, k))


@lru_cache(maxsize=None)
def _pair_index(k: int) -> dict[tuple[int, int], int]:
    return {p: idx for idx, p in enumerate(_pairs(k))}


@dataclass(frozen=True)
class Tournament:
    k: int
    code: int

    def __post_init__(self):
        if self.code < 0 or self.code >= 1 << len(_pairs(self.k)):
            raise InvalidInputError("tournament code out of range")

    @classmethod
    def from_arcs(cls, k: int, arcs) -> "Tournament":
        arcset = {(int(u), int(v)) for u, v in arcs}
        code = 0
        for idx, (i, j) in enumerate(_pairs(k)):
            fwd, back = (i, j) in arcset, (j, i) in arcset
            if fwd == back:
                raise InvalidInputError(f"pair {{{i},{j}}} needs exactly one arc")
            if fwd:
                code |= 1 << idx
        return cls(k, code)

    @classmethod
    def from_code_string(cls, s: str) -> "Tournament":
        m = len(s)
        k = next((kk for kk in range(1, 16) if kk * (kk - 1) // 2 == m), None)
        if k is None or any(c not in "01" for c in s):
            raise InvalidInputError(f"bad tournament code string {s!r}")
        code = 0
        for idx, c in enumerate(s):
            if c == "1":
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

    def has_arc(self, u: int, v: int) -> bool:
        if u == v:
            return False
        idx = _pair_index(self.k)[(u, v) if u < v else (v, u)]
        bit = bool(self.code >> idx & 1)
        return bit if u < v else not bit

    def out_masks(self) -> tuple[int, ...]:
        return _out_masks(self.k, self.code)

    def out_degrees(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self.out_masks())

    def relabel(self, perm) -> "Tournament":
        """Image under new-label -> old-label map perm."""
        code = 0
        for idx, (i, j) in enumerate(_pairs(self.k)):
            if self.has_arc(perm[i], perm[j]):
                code |= 1 << idx
        return Tournament(self.k, code)

    def to_digraph(self) -> Digraph:
        return Digraph(range(self.k), self.arcs)

    def __repr__(self) -> str:
        return f"Tournament(k={self.k}, code={self.code_string()!r})"


def mask_rows(k: int, code: int) -> tuple[int, ...]:
    """Out-neighborhood bitmask of every vertex, uncached: for codes that
    pass through once, such as the canonical form of a fresh code."""
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
    full = (1 << (1 << len(_pairs(k)))) - 1
    planes = [[0] * k for _ in range(k)]
    for idx, (i, j) in enumerate(_pairs(k)):
        # codes with pair bit idx clear: the low half of every run of
        # 2 ** (idx + 1) consecutive codes
        plane = full ^ full // ((1 << (1 << idx)) + 1)
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


@lru_cache(maxsize=200_000)
def _out_masks(k: int, code: int) -> tuple[int, ...]:
    return mask_rows(k, code)


def canonical_code(k: int, code: int) -> int:
    """Canonical form: minimum code over score-sorted relabelings.

    Restricting to orderings with nondecreasing score is isomorphism-safe
    (scores are invariant).  The relabeling is built from position k-1 down
    to 0 by branch and bound: placing a vertex at position p fixes the bits
    of the pairs (p, j > p), the highest bits not fixed yet, so a branch
    whose fixed bits already exceed those of the best code found is cut.
    """
    if not 0 <= code < 1 << len(_pairs(k)):
        raise InvalidInputError("tournament code out of range")
    rows = mask_rows(k, code)
    score = [row.bit_count() for row in rows]
    order = sorted(range(k), key=lambda v: (score[v], v))
    # allowed[p]: the vertices whose score puts them at position p
    allowed: list[int] = []
    for _, block in groupby(order, key=score.__getitem__):
        members = list(block)
        allowed += [sum(1 << v for v in members)] * len(members)
    # shift[p]: index of the lowest bit that position p fixes, pair (p, p+1)
    shift = [p * (2 * k - p - 1) // 2 for p in range(k)]
    perm = [0] * k
    best = 1 << len(_pairs(k))  # above every code

    def place(p: int, used: int, high: int) -> None:
        # high: the bits of pairs (i, j) with i > p, shifted down to bit 0
        nonlocal best
        if p < 0:
            best = high
            return
        free = allowed[p] & ~used
        while free:
            low = free & -free
            free ^= low
            v = low.bit_length() - 1
            fixed = high
            for j in range(k - 1, p, -1):
                fixed = fixed << 1 | rows[v] >> perm[j] & 1
            if fixed > best >> shift[p]:
                continue
            perm[p] = v
            place(p - 1, used | low, fixed)

    place(k - 1, 0, 0)
    return best


@lru_cache(maxsize=None)
def tournament_reps(k: int) -> tuple[Tournament, ...]:
    """One representative per isomorphism class, by vertex augmentation.

    Class counts 1, 1, 2, 4, 12, 56, 456 for k = 1..7.
    """
    if k < 1:
        raise InvalidInputError("order must be >= 1")
    if k == 1:
        return (Tournament(1, 0),)
    seen: set[int] = set()
    idx_prev = _pair_index(k - 1)
    idx_new = _pair_index(k)
    for small in tournament_reps(k - 1):
        base = 0
        for p, b in idx_prev.items():
            if small.code >> b & 1:
                base |= 1 << idx_new[p]
        new_bits = [idx_new[(i, k - 1)] for i in range(k - 1)]
        for mask in range(1 << (k - 1)):
            code = base
            for i in range(k - 1):
                if mask >> i & 1:
                    code |= 1 << new_bits[i]
            seen.add(canonical_code(k, code))
    return tuple(Tournament(k, c) for c in sorted(seen))


class HomomorphismSearch:
    """Backtracking search for arc-preserving maps V(d) -> V(t), with the
    digraph side prepared once for any number of target tournaments.

    Forward checking on bitmask candidate sets: assigning a vertex narrows
    every unassigned neighbor to the image's out- or in-neighborhood, and an
    emptied candidate set prunes the branch immediately.
    """

    def __init__(self, d: Digraph):
        self.verts = sorted(d.vertices)
        pos = {v: idx for idx, v in enumerate(self.verts)}
        self.succ = [[pos[w] for w in sorted(d.out_neighbors(v))] for v in self.verts]
        self.pred = [[pos[w] for w in sorted(d.in_neighbors(v))] for v in self.verts]
        # visit order: BFS over the underlying graph so that every vertex
        # after its component root sees at least one already-assigned neighbor
        n = len(self.verts)
        self.order: list[int] = []
        placed = [False] * n
        for root in range(n):
            if placed[root]:
                continue
            placed[root] = True
            queue = [root]
            while queue:
                v = queue.pop(0)
                self.order.append(v)
                for w in sorted(set(self.succ[v]) | set(self.pred[v])):
                    if not placed[w]:
                        placed[w] = True
                        queue.append(w)

    def into(self, t: Tournament) -> dict[int, int] | None:
        """First homomorphism in visit order and ascending image, or None."""
        verts, succ, pred, order = self.verts, self.succ, self.pred, self.order
        n = len(verts)
        if n == 0:
            return {}
        full = (1 << t.k) - 1
        out_m = t.out_masks()
        # every other vertex of a tournament is an out- or an in-neighbor
        in_m = [full ^ row ^ 1 << a for a, row in enumerate(out_m)]
        assignment = [-1] * n

        def place(idx: int, cand: list[int]) -> bool:
            if idx == n:
                return True
            v = order[idx]
            options = cand[v]
            while options:
                low = options & -options
                options ^= low
                img = low.bit_length() - 1
                narrowed = list(cand)
                narrowed[v] = low
                feasible = True
                for w in succ[v]:
                    if assignment[w] == -1:
                        narrowed[w] &= out_m[img]
                        if not narrowed[w]:
                            feasible = False
                            break
                    elif not out_m[img] >> assignment[w] & 1:
                        feasible = False
                        break
                if feasible:
                    for w in pred[v]:
                        if assignment[w] == -1:
                            narrowed[w] &= in_m[img]
                            if not narrowed[w]:
                                feasible = False
                                break
                        elif not in_m[img] >> assignment[w] & 1:
                            feasible = False
                            break
                if feasible:
                    assignment[v] = img
                    if place(idx + 1, narrowed):
                        return True
                    assignment[v] = -1
            return False

        if not place(0, [full] * n):
            return None
        return {verts[i]: assignment[i] for i in range(n)}


def find_homomorphism(d: Digraph, t: Tournament) -> dict[int, int] | None:
    """An arc-preserving map V(d) -> V(t), or None; see HomomorphismSearch."""
    return HomomorphismSearch(d).into(t)


def is_homomorphism(d: Digraph, assignment: dict[int, int], t: Tournament) -> bool:
    if set(assignment) != set(d.vertices):
        return False
    return all(t.has_arc(assignment[u], assignment[v]) for u, v in d.arcs)


def automorphism_count(t: Tournament) -> int:
    return sum(1 for p in permutations(range(t.k)) if t.relabel(p).code == t.code)
