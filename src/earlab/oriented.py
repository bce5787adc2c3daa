"""Oriented colorings via homomorphism into a fixed 6-vertex tournament.

The tournament is pinned by 90 reference walks (three lengths for each
ordered vertex pair); a census over all 32768 order-6 codes shows it is the
only one, up to isomorphism, in which every pair is joined by walks of
lengths 3, 4, and 5.  Cycle and ear homomorphisms into it bound the
oriented chromatic number of digraphs whose ears all have length at least
3, and the quadratic-blowup family shows length-2 ears admit no such bound.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

from .coloring import VertexMapping, verify_homomorphism
from .digraph import Digraph, is_asymmetrical, serialize_digraph
from .ears import Ear, EarDecomposition, require_decomposition
from .errors import (CapExceededError, InvalidInputError, PropertyFailedError,
                     VerificationError)
from .oracles import OracleReport, oriented_chromatic_oracle
from .tournaments import (Tournament, arc_planes, canonical_code, compose_planes,
                          compose_rows)

# Walks of lengths 3, 4, 5 for every ordered vertex pair; consecutive pairs
# of these fix the arc set below.
REFERENCE_WALKS: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {
    (0, 1): ((0, 3, 4, 1), (0, 3, 4, 0, 1), (0, 3, 4, 5, 3, 1)),
    (0, 2): ((0, 1, 5, 2), (0, 3, 1, 5, 2), (0, 3, 1, 5, 3, 2)),
    (0, 3): ((0, 1, 5, 3), (0, 1, 5, 0, 3), (0, 1, 5, 2, 0, 3)),
    (0, 4): ((0, 3, 2, 4), (0, 1, 5, 3, 4), (0, 3, 1, 5, 2, 4)),
    (0, 5): ((0, 3, 1, 5), (0, 1, 2, 4, 5), (0, 1, 2, 0, 1, 5)),
    (1, 0): ((1, 2, 4, 0), (1, 2, 4, 5, 0), (1, 2, 4, 1, 2, 0)),
    (1, 2): ((1, 5, 3, 2), (1, 5, 0, 3, 2), (1, 5, 3, 1, 5, 2)),
    (1, 3): ((1, 2, 0, 3), (1, 2, 4, 0, 3), (1, 2, 0, 1, 5, 3)),
    (1, 4): ((1, 5, 2, 4), (1, 2, 0, 3, 4), (1, 2, 0, 1, 2, 4)),
    (1, 5): ((1, 2, 4, 5), (1, 2, 0, 1, 5), (1, 2, 0, 3, 4, 5)),
    (2, 0): ((2, 4, 5, 0), (2, 4, 1, 2, 0), (2, 4, 1, 2, 4, 0)),
    (2, 1): ((2, 0, 3, 1), (2, 0, 3, 4, 1), (2, 0, 3, 2, 0, 1)),
    (2, 3): ((2, 4, 0, 3), (2, 0, 1, 5, 3), (2, 0, 1, 2, 0, 3)),
    (2, 4): ((2, 0, 3, 4), (2, 0, 3, 2, 4), (2, 0, 1, 5, 2, 4)),
    (2, 5): ((2, 0, 1, 5), (2, 0, 3, 1, 5), (2, 0, 1, 2, 4, 5)),
    (3, 0): ((3, 1, 5, 0), (3, 1, 2, 4, 0), (3, 1, 2, 4, 5, 0)),
    (3, 1): ((3, 2, 0, 1), (3, 2, 4, 0, 1), (3, 2, 0, 3, 4, 1)),
    (3, 2): ((3, 1, 5, 2), (3, 1, 5, 3, 2), (3, 1, 5, 0, 1, 2)),
    (3, 4): ((3, 1, 2, 4), (3, 1, 5, 2, 4), (3, 1, 2, 0, 3, 4)),
    (3, 5): ((3, 2, 4, 5), (3, 1, 2, 4, 5), (3, 1, 2, 0, 1, 5)),
    (4, 0): ((4, 1, 5, 0), (4, 1, 2, 4, 0), (4, 1, 2, 4, 5, 0)),
    (4, 1): ((4, 0, 3, 1), (4, 0, 3, 4, 1), (4, 0, 3, 2, 0, 1)),
    (4, 2): ((4, 0, 1, 2), (4, 0, 1, 5, 2), (4, 1, 5, 0, 1, 2)),
    (4, 3): ((4, 1, 5, 3), (4, 0, 1, 5, 3), (4, 0, 1, 2, 0, 3)),
    (4, 5): ((4, 0, 1, 5), (4, 0, 3, 1, 5), (4, 0, 1, 2, 4, 5)),
    (5, 0): ((5, 2, 4, 0), (5, 2, 4, 5, 0), (5, 2, 4, 1, 2, 0)),
    (5, 1): ((5, 2, 4, 1), (5, 3, 2, 0, 1), (5, 3, 4, 5, 0, 1)),
    (5, 2): ((5, 0, 1, 2), (5, 0, 1, 5, 2), (5, 0, 1, 5, 3, 2)),
    (5, 3): ((5, 2, 0, 3), (5, 0, 1, 5, 3), (5, 0, 1, 2, 0, 3)),
    (5, 4): ((5, 0, 3, 4), (5, 0, 1, 2, 4), (5, 0, 1, 5, 2, 4)),
}

_T_ARCS = ((0, 1), (0, 3), (1, 2), (1, 5), (2, 0), (2, 4), (3, 1), (3, 2),
           (3, 4), (4, 0), (4, 1), (4, 5), (5, 0), (5, 2), (5, 3))

WALK_LENGTHS = (3, 4, 5)


@lru_cache(maxsize=1)
def tournament_T() -> Tournament:
    return Tournament.from_arcs(6, _T_ARCS)


def validate_reference_walks() -> bool:
    """Arc-by-arc check of all 90 fixtures against the pinned tournament."""
    t = tournament_T()
    for (i, j), walks in sorted(REFERENCE_WALKS.items()):
        for k, walk in zip(WALK_LENGTHS, walks):
            if len(walk) != k + 1 or walk[0] != i or walk[-1] != j:
                return False
            if any(not t.has_arc(u, v) for u, v in zip(walk, walk[1:])):
                return False
    return True


def _walk_gap(rows, include_closed: bool = False) -> tuple[int, int, int] | None:
    """First (length, source, target) with no walk, over out-mask rows.

    Adjacency powers 3, 4, 5 (the consecutive WALK_LENGTHS) are built one
    at a time, so most codes are rejected after the first.
    """
    full = (1 << len(rows)) - 1
    table = compose_rows(rows, rows)
    for length in WALK_LENGTHS:
        table = compose_rows(table, rows)
        for i, row in enumerate(table):
            need = full if include_closed else full ^ (1 << i)
            gap = need & ~row
            if gap:
                return (length, i, (gap & -gap).bit_length() - 1)
    return None


def verify_walk_property(t: Tournament, include_closed: bool = False) -> bool:
    """Every ordered pair joined by walks of lengths 3, 4, and 5."""
    if t.k != 6:
        raise InvalidInputError("walk property is defined for order 6")
    return missing_walk_witness(t, include_closed) is None


def missing_walk_witness(t: Tournament,
                         include_closed: bool = False) -> tuple[int, int, int] | None:
    """First (length, source, target) with no walk, or None."""
    return _walk_gap(t.out_masks(), include_closed)


@dataclass
class CensusResult:
    labeled_count: int
    iso_class_count: int
    witness: str
    witness_isomorphic_to_reference: bool
    closed_labeled_count: int
    closed_iso_class_count: int
    closed_reading_agrees: bool

    def to_json(self) -> dict:
        return {
            "labeled_count": self.labeled_count,
            "iso_class_count": self.iso_class_count,
            "witness": self.witness,
            "witness_isomorphic_to_reference": self.witness_isomorphic_to_reference,
            "closed_reading": {
                "labeled_count": self.closed_labeled_count,
                "iso_class_count": self.closed_iso_class_count,
                "agrees": self.closed_reading_agrees,
            },
        }


def walk_survivors() -> tuple[list[int], list[int]]:
    """Order-6 codes with the three-length walk property, under the open and
    the closed reading, in ascending order.

    Bit-sliced: bit c of every plane belongs to code c, so the cube of the
    adjacency of all 32768 codes is built at once, and a code survives iff
    its bit is set in every entry its reading needs.

    Only A^3 is built, as lengths 4 and 5 follow.  Lemma: in a tournament
    where every ordered pair i != j has a length-3 walk, every vertex j has
    in-degree at least 2, since with a single in-neighbour i the walk from
    i to j would end i -> a -> i -> j, a closed 2-walk that needs a digon.
    A walk of length L + 1 from i to j is a walk of length L from i to an
    in-neighbour m of j; one m differs from i, so A^4 is full off the
    diagonal, and any m differs from j, so the diagonal of A^4 is full too.
    A^5 follows from the full A^4 the same way.  The open reading is thus
    A^3 off the diagonal, and the closed one adds the diagonal of A^3.
    """
    arcs = arc_planes(6)
    cube = compose_planes(compose_planes(arcs, arcs), arcs)
    open_plane = diagonal = -1  # every code
    for i, row in enumerate(cube):
        for j, plane in enumerate(row):
            if i == j:
                diagonal &= plane
            else:
                open_plane &= plane
    return _set_bits(open_plane), _set_bits(open_plane & diagonal)


def _set_bits(plane: int) -> list[int]:
    out = []
    while plane:
        low = plane & -plane
        out.append(low.bit_length() - 1)
        plane ^= low
    return out


def uniqueness_census() -> CensusResult:
    """Test all 32768 order-6 codes for the three-length walk property.

    Every labelled code is tested and counted, by the bit-sliced scan of
    walk_survivors.  Survivors are grouped into isomorphism classes by
    canonical code; the open question of whether closed walks belong in the
    property is settled empirically by running both readings.
    """
    survivors, closed_survivors = walk_survivors()
    canon = {code: canonical_code(6, code) for code in survivors}
    classes = sorted(set(canon.values()))
    closed_classes = sorted({canon[code] for code in closed_survivors})
    reference = canonical_code(6, tournament_T().code)
    witness = Tournament(6, classes[0]) if classes else None
    return CensusResult(
        labeled_count=len(survivors),
        iso_class_count=len(classes),
        witness=witness.code_string() if witness else "",
        witness_isomorphic_to_reference=bool(classes) and classes[0] == reference,
        closed_labeled_count=len(closed_survivors),
        closed_iso_class_count=len(closed_classes),
        closed_reading_agrees=survivors == closed_survivors,
    )


@dataclass
class WalkCatalog:
    cycles: dict[tuple[int, int], tuple[int, ...]] = field(default_factory=dict)
    paths: dict[tuple[int, int, int], tuple[int, ...]] = field(default_factory=dict)


def _lex_min_cycle(t: Tournament, anchor: int, k: int) -> tuple[int, ...] | None:
    """Smallest simple k-cycle through anchor, by DFS in label order."""
    def search(path: tuple[int, ...]) -> tuple[int, ...] | None:
        if len(path) == k:
            return path + (anchor,) if t.has_arc(path[-1], anchor) else None
        for v in range(t.k):
            if v != anchor and v not in path and t.has_arc(path[-1], v):
                found = search(path + (v,))
                if found:
                    return found
        return None

    return search((anchor,))


def _lex_min_walk(t: Tournament, i: int, j: int, k: int) -> tuple[int, ...] | None:
    """Smallest walk of exact length k from i to j; repeats allowed."""
    reach = [1 << j]
    masks = t.out_masks()
    for _ in range(k):
        prev = reach[-1]
        reach.append(sum(1 << v for v in range(t.k) if masks[v] & prev))
    if not reach[k] >> i & 1:
        return None
    walk = [i]
    for step in range(k):
        here = walk[-1]
        remaining = k - step - 1
        nxt = min(v for v in range(t.k)
                  if masks[here] >> v & 1 and reach[remaining] >> v & 1)
        walk.append(nxt)
    return tuple(walk)


def walk_catalog(t: Tournament) -> WalkCatalog:
    """Anchored short cycles and fixed-length pair walks, lexicographically
    smallest first.  Raises when any required entry is missing."""
    catalog = WalkCatalog()
    for anchor in range(t.k):
        for k in range(3, min(t.k, 6) + 1):
            cycle = _lex_min_cycle(t, anchor, k)
            if cycle is None:
                raise PropertyFailedError(
                    f"catalog incomplete: no {k}-cycle through {anchor}")
            catalog.cycles[(anchor, k)] = cycle
    for i in range(t.k):
        for j in range(t.k):
            if i == j:
                continue
            for k in WALK_LENGTHS:
                walk = _lex_min_walk(t, i, j, k)
                if walk is None:
                    raise PropertyFailedError(
                        f"catalog incomplete: no length-{k} walk {i} to {j}")
                catalog.paths[(i, j, k)] = walk
    return catalog


@lru_cache(maxsize=8)
def _catalog_for(code: int, k: int) -> WalkCatalog:
    return walk_catalog(Tournament(k, code))


def cycle_homomorphism(n: int) -> VertexMapping:
    """Map the directed n-cycle into the pinned tournament.

    Short cycles ride the catalog cycle anchored at 0; longer ones are
    mapped as a cycle ear anchored at 0 -> 0 (see _map_ear).
    """
    if n < 3:
        raise InvalidInputError("cycle homomorphism needs length >= 3")
    t = tournament_T()
    if n <= 6:
        images = dict(enumerate(_catalog_for(t.code, t.k).cycles[(0, n)][:n]))
    else:
        images = {0: 0}
        _map_ear(t, images, Ear(tuple(range(n)) + (0,)))
    mapping = VertexMapping(images, t, "homomorphism")
    verify_homomorphism(Digraph.cycle(n), mapping)
    return mapping


def _map_ear(t: Tournament, assignment: dict, ear: Ear) -> None:
    """Write the images of one ear's interior into assignment, in place.

    The ear interior wraps the anchored 3-cycle of the start image for all
    but its last 3, 4, or 5 arcs (by length mod 3), then finishes along the
    catalog walk into the end image; equal endpoint images and cycle ears
    finish along the anchored cycle instead.
    """
    cat = _catalog_for(t.code, t.k)
    i, j = assignment[ear.x0], assignment[ear.xr]
    seg = {0: 3, 1: 4, 2: 5}[ear.length % 3]
    pre = ear.length - seg
    g3 = cat.cycles[(i, 3)]
    finisher = cat.cycles[(i, seg)] if i == j else cat.paths[(i, j, seg)]
    for m in range(1, pre + 1):
        assignment[ear.vertices[m]] = g3[m % 3]
    for s in range(1, seg):
        assignment[ear.vertices[pre + s]] = finisher[s]
    if finisher[seg] != j:
        raise VerificationError("catalog walk does not land on the end image")


def extend_homomorphism(stage: Digraph, phi: VertexMapping,
                        ear: Ear) -> VertexMapping:
    """Extend a tournament homomorphism across one ear of length >= 3.

    Checks phi on the whole stage and the result on the whole glued stage.
    """
    if ear.length < 3:
        raise InvalidInputError("homomorphism extension needs ear length >= 3")
    t = phi.target
    if not isinstance(t, Tournament):
        raise InvalidInputError("mapping target must be a tournament")
    verify_homomorphism(stage, phi)
    glued = stage.union(ear.vertices, ear.arcs)
    if not is_asymmetrical(glued):
        raise InvalidInputError("oriented coloring needs an asymmetrical digraph")
    assignment = dict(phi.assignment)
    _map_ear(t, assignment, ear)
    mapping = VertexMapping(assignment, t, phi.kind)
    verify_homomorphism(glued, mapping)
    return mapping


def homomorphism_failing_stage(e: EarDecomposition,
                               m: VertexMapping) -> int | None:
    """First stage j on which m is no homomorphism into its tournament.

    Ear-local: each arc is checked once, at the stage its ear (or the base
    cycle) adds it, which finds the same stage as checking every stage.
    """
    masks = m.target.out_masks()
    img = m.assignment
    for j, part in enumerate((e.base,) + e.ears):
        if any(not masks[img[u]] >> img[v] & 1 for u, v in part.arcs):
            return j
    return None


def oriented_coloring_le3(d: Digraph, e: EarDecomposition) -> VertexMapping:
    """Homomorphism of d into the pinned order-6 tournament.

    Needs an asymmetrical digraph and a decomposition whose ears all have
    length at least 3; the base cycle takes its cycle homomorphism and each
    ear is folded into one assignment.  Every stage is checked ear-locally,
    then the result once more on the whole digraph.
    """
    if not is_asymmetrical(d):
        raise InvalidInputError("oriented coloring needs an asymmetrical digraph")
    require_decomposition(d, e, 3, "oriented coloring")
    cycle = e.base.vertices[:-1]
    base_map = cycle_homomorphism(len(cycle))
    t = tournament_T()
    assignment = {v: base_map.assignment[m] for m, v in enumerate(cycle)}
    for ear in e.ears:
        _map_ear(t, assignment, ear)
    mapping = VertexMapping(assignment, t, "oriented")
    failed = homomorphism_failing_stage(e, mapping)
    if failed is not None:
        raise VerificationError(f"homomorphism fails on stage {failed}")
    verify_homomorphism(d, mapping)
    return mapping


GENERATION_CAP = 4


def build_G(i: int) -> Digraph:
    """Quadratic-blowup family: each step adds a fresh midpoint vertex for
    every ordered pair, so vertex counts square (3, 9, 81, ...)."""
    if i < 1:
        raise InvalidInputError("generation must be >= 1")
    if i > GENERATION_CAP:
        raise CapExceededError(f"generation capped at {GENERATION_CAP}")
    d = Digraph.cycle(3)
    for _ in range(i - 1):
        verts = sorted(d.vertices)
        arcs = set(d.arcs)
        nxt = len(verts)
        for u in verts:
            for v in verts:
                if u != v:
                    arcs.add((u, nxt))
                    arcs.add((nxt, v))
                    nxt += 1
        d = Digraph(range(nxt), arcs)
    return d


def gi_lower_bound_check(i: int) -> bool:
    """Every ordered pair of previous-generation vertices is joined by a
    path of length at most 2, which forces all their colors apart."""
    if i < 2:
        raise InvalidInputError("lower bound check needs generation >= 2")
    g = build_G(i)
    prev_n = build_G(i - 1).n
    for u in range(prev_n):
        for v in range(prev_n):
            if u == v:
                continue
            if g.has_arc(u, v):
                continue
            if not any(g.has_arc(w, v) for w in g.out_neighbors(u)):
                return False
    return True


def _conflict_pairs(d: Digraph) -> set[frozenset[int]]:
    """Pairs forced to distinct images by an arc or a directed 2-path."""
    conflicts: set[frozenset[int]] = set()
    for u, v in d.arcs:
        conflicts.add(frozenset((u, v)))
    for u in sorted(d.vertices):
        for w in d.out_neighbors(u):
            for v in d.out_neighbors(w):
                if v != u:
                    conflicts.add(frozenset((u, v)))
    return conflicts


def _max_conflict_clique(d: Digraph, floor: int) -> tuple[int, ...] | None:
    conflicts = _conflict_pairs(d)
    verts = sorted(d.vertices)
    for group in combinations(verts, floor):
        if all(frozenset(p) in conflicts for p in combinations(group, 2)):
            return group
    return None


@dataclass
class TightInstance:
    digraph: Digraph
    decomposition: EarDecomposition
    mapping: VertexMapping
    below_report: OracleReport
    attempts_used: int

    def to_json(self) -> dict:
        return {
            "digraph": serialize_digraph(self.digraph),
            "decomposition": self.decomposition.to_json(),
            "oriented_chromatic_number": 6,
            "order_5_search_space": self.below_report.search_space_size,
            "attempts_used": self.attempts_used,
        }


def _triangle_plus_ears(pairs: Sequence[tuple[int, int]]) -> tuple[Digraph, EarDecomposition]:
    """Glue one length-3 ear per endpoint pair onto a directed triangle."""
    base = Ear((0, 1, 2, 0))
    arcs = [(0, 1), (1, 2), (2, 0)]
    ears = []
    nxt = 3
    for x0, xr in pairs:
        if not (0 <= x0 < nxt and 0 <= xr < nxt):
            raise InvalidInputError(f"ear endpoint out of range: {(x0, xr)}")
        ear = Ear((x0, nxt, nxt + 1, xr))
        nxt += 2
        ears.append(ear)
        arcs.extend(ear.arcs)
    host = Digraph(range(nxt), arcs)
    return host, EarDecomposition(host, base, ears)


def _ear_endpoint_order(count: int, prev_internal: tuple[int, int] | None) -> list[tuple[int, int]]:
    """Endpoint pairs for the next ear, most constraining first.

    A length-3 ear parallel to an existing arc (u, v) forces the image pair
    to carry both an arc and a walk of exactly length 3, and each such ear
    leaves a fresh interior arc the next ear can parallel in turn, so the
    chained pairs lead.  Cycle pairs (x, x) force a directed triangle
    through the image of x and come next; arbitrary pairs close the list.
    """
    ordered: list[tuple[int, int]] = []
    if prev_internal is not None:
        ordered.append(prev_internal)
    ordered.extend([(0, 1), (1, 2), (2, 0)])
    ordered.extend((x, x) for x in range(count))
    ordered.extend((u, v) for u in range(count) for v in range(count))
    seen: set[tuple[int, int]] = set()
    out = []
    for p in ordered:
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


def _endpoint_sequences(ear_count: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """All ways to glue ear_count length-3 ears, most constrained first."""
    def walk(prefix: tuple[tuple[int, int], ...], count: int,
             prev: tuple[int, int] | None) -> Iterator[tuple[tuple[int, int], ...]]:
        if len(prefix) == ear_count:
            yield prefix
            return
        for pair in _ear_endpoint_order(count, prev):
            yield from walk(prefix + (pair,), count + 2, (count, count + 1))
    yield from walk((), 3, None)


def find_tight_le3_instance(attempts: int = 2000) -> TightInstance:
    """Search triangle-plus-four-length-3-ears digraphs for one that needs
    all six images.

    The search enumerates gluing sequences deterministically, most
    constraining shapes first, then confirms each candidate the hard way:
    the exhaustive oracle must show no order-5 tournament admits a
    homomorphism, and the constructive coloring shows order 6 does.  A
    conflict clique of size 6 (pairs forced distinct by arcs or directed
    2-paths) would certify tightness directly, so finding one alongside an
    order-5 homomorphism is flagged as an internal contradiction.
    """
    used = 0
    for pairs in _endpoint_sequences(4):
        if used >= attempts:
            break
        host, decomp = _triangle_plus_ears(pairs)
        used += 1
        report = oriented_chromatic_oracle(host, k_max=5)
        if report.value is None:
            mapping = oriented_coloring_le3(host, decomp)
            return TightInstance(host, decomp, mapping, report,
                                 attempts_used=used)
        if _max_conflict_clique(host, 6) is not None:
            raise VerificationError(
                "conflict clique of size 6 contradicts an order-5 homomorphism")
    raise PropertyFailedError(
        f"no tight instance found among {used} candidates")
