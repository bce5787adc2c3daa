"""Oriented colorings via homomorphism into a fixed 6-vertex tournament.

The tournament is pinned by 90 reference walks (three lengths for each
ordered vertex pair); a census over all 32768 order-6 codes shows it is the
only one, up to isomorphism, in which every pair is joined by walks of
lengths 3, 4, and 5.  Homomorphisms into it bound the oriented chromatic
number of digraphs whose ears all have length at least 3, and the
quadratic-blowup family shows length-2 ears admit no such bound.

One wrap rule folds every ear and the base cycle alike (see _map_ear).
One walk table serves both and is the one answer to walk questions about a
single tournament: walk_catalog, whose closed entries are cycles.  The
census asks about all order-6 codes at once instead (walk_survivors).
"""

from __future__ import annotations

from functools import lru_cache

from .coloring import VertexMapping
from .digraph import Digraph, _require_asymmetrical
from .ears import EarDecomposition, require_decomposition
from .errors import (CapExceededError, InvalidInputError, PropertyFailedError,
                     VerificationError)
from .tournaments import Tournament, arc_planes, canonical_code, compose_planes

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


def _first_gap(cat: dict, k: int, include_closed: bool) -> tuple[int, int, int] | None:
    """First (length, source, target) absent from catalog cat of an order-k
    tournament, by length, source, target; i = j only if include_closed."""
    return next(((length, i, j) for length in WALK_LENGTHS for i in range(k)
                 for j in range(k) if (i, j, length) not in cat
                 and (include_closed or i != j)), None)


def verify_walk_property(t: Tournament) -> bool:
    """Every ordered pair joined by walks of lengths 3, 4, and 5."""
    if t.k != 6:
        raise InvalidInputError("walk property is defined for order 6")
    return missing_walk_witness(t) is None


def missing_walk_witness(t: Tournament) -> tuple[int, int, int] | None:
    """First (length, source, target) with no walk, or None."""
    return _first_gap(walk_catalog(t), t.k, False)


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

    The open reading implies that diagonal too.  Take an out-neighbour a of
    i (walks leave i, so one exists) and a length-3 walk a -> x -> y -> i;
    x != i, as a -> i would close a digon.  If i -> x, then i -> x -> y -> i
    is a closed 3-walk; if x -> i, then i -> a -> x -> i is.  So both
    readings keep the same codes.  The diagonal is still computed: the
    census and verify-T payloads report the closed reading, and computing
    it checks this lemma on every code.
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


def uniqueness_census() -> dict:
    """Test all 32768 order-6 codes for the three-length walk property: the
    payload of `census`.

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
    return {
        "labeled_count": len(survivors),
        "iso_class_count": len(classes),
        "witness": Tournament(6, classes[0]).code_string() if classes else "",
        "witness_isomorphic_to_reference": bool(classes) and classes[0] == reference,
        "closed_reading": {"labeled_count": len(closed_survivors),
                           "iso_class_count": len(closed_classes),
                           "agrees": survivors == closed_survivors},
    }


def walk_catalog(t: Tournament) -> dict[tuple[int, int, int], tuple[int, ...]]:
    """Lexicographically smallest walk of each length k in WALK_LENGTHS from
    every vertex i to every vertex j, i = j included, keyed (i, j, k); a key
    is absent exactly where t has no such walk, and missing_walk_witness and
    _catalog_for read their answers here.  One backward-reach table per j:
    reach[r] masks the vertices with a length-r walk to j.

    Closed-walk lemma: in an oriented graph a closed walk of length at most
    5 is a cycle, as any two of its positions are one or two steps apart
    around it, and a repeat one step apart is a loop, two apart a digon.
    So the entry (i, i, k) is the smallest k-cycle through i.
    """
    masks = t.out_masks()
    catalog = {}
    for j in range(t.k):
        reach = [1 << j]
        for _ in range(WALK_LENGTHS[-1]):
            reach.append(sum(1 << v for v, row in enumerate(masks)
                             if row & reach[-1]))
        for i in range(t.k):
            for k in WALK_LENGTHS:
                if reach[k] >> i & 1:
                    walk = [i]
                    for left in range(k - 1, -1, -1):
                        step = masks[walk[-1]] & reach[left]
                        walk.append((step & -step).bit_length() - 1)
                    catalog[(i, j, k)] = tuple(walk)
    return catalog


@lru_cache(maxsize=8)
def _catalog_for(code: int, k: int) -> dict:
    """The walk catalog of a tournament that has every entry, else raise."""
    cat = walk_catalog(Tournament(k, code))
    gap = _first_gap(cat, k, True)
    if gap is not None:
        raise PropertyFailedError("catalog incomplete: no length-%d walk %d to %d" % gap)
    return cat


def _map_ear(t: Tournament, assignment: dict, p: tuple[int, ...]) -> None:
    """Write the images of the interior of ear p into assignment, in place.

    The one wrap rule, for path ears, cycle ears and base cycles alike: from
    start image i to end image j, the interior wraps the catalog 3-cycle
    (i, i, 3) for all but its last 3, 4 or 5 arcs (by length mod 3), then
    finishes along the catalog walk (i, j, 3|4|5), built to end at j.  When
    i = j that walk is closed, so by the closed-walk lemma of walk_catalog
    it is a cycle.
    """
    cat = _catalog_for(t.code, t.k)
    i, j = assignment[p[0]], assignment[p[-1]]
    r = len(p) - 1
    seg = 3 + r % 3
    pre = r - seg
    g3, finisher = cat[(i, i, 3)], cat[(i, j, seg)]
    for m, v in enumerate(p[1:-1], 1):
        assignment[v] = g3[m % 3] if m <= pre else finisher[m - pre]


def extend_homomorphism(d: Digraph, e: EarDecomposition,
                        phi: VertexMapping) -> VertexMapping:
    """Extend a tournament homomorphism phi of the stage before the last ear
    of e (length >= 3, a cycle ear too) to all of d.

    The stage is d without that ear's interior.  PropertyFailedError unless
    phi maps exactly its vertices into the target and every arc of the parts
    before the ear, which cover the stage's arcs once each, to an arc.  The
    ear is mapped first, then one ear-local pass checks every part: a
    failure on the ear is this function's own, a VerificationError naming
    the first bad ear arc.  No digon needs a test, as the stage maps into a
    tournament and each ear arc has a new interior end.
    """
    require_decomposition(d, e, 1, "homomorphism extension")
    if not e.ears or e.lengths[-1] < 3:
        raise InvalidInputError("homomorphism extension needs a last ear of length >= 3")
    p, t = e.ears[-1], phi.target
    if not isinstance(t, Tournament):
        raise InvalidInputError("mapping target must be a tournament")
    img = dict(phi.assignment)
    if (img.keys() != d.vertices.difference(p[1:-1])
            or not set(img.values()) <= set(range(t.k))):
        raise PropertyFailedError("mapping does not take the stage's vertices "
                                  "into the target's")
    _map_ear(t, img, p)
    result = VertexMapping(img, t, phi.kind)
    failed = homomorphism_failing_stage(e, result)
    if failed == len(e.ears):
        u, v = next((u, v) for u, v in zip(p, p[1:])
                    if not t.has_arc(img[u], img[v]))
        raise VerificationError(f"ear arc ({u},{v}) maps to non-arc ({img[u]},{img[v]})")
    if failed is not None:
        raise PropertyFailedError(f"mapping fails on stage {failed}")
    return result


def homomorphism_failing_stage(e: EarDecomposition,
                               m: VertexMapping) -> int | None:
    """First stage j on which m is no homomorphism into its tournament.

    Ear-local: each arc is checked once, at the stage its ear (or the base
    cycle) adds it, which finds the same stage as checking every stage.
    """
    masks = m.target.out_masks()
    img = m.assignment
    for j, p in enumerate((e.base,) + e.ears):
        if any(not masks[img[u]] >> img[v] & 1 for u, v in zip(p, p[1:])):
            return j
    return None


def oriented_coloring_le3(d: Digraph, e: EarDecomposition) -> VertexMapping:
    """Homomorphism of d into the pinned order-6 tournament.

    Needs an asymmetrical digraph and a decomposition whose ears all have
    length at least 3.  The base cycle is folded like a cycle ear anchored
    at image 0, then each ear, all into one assignment (see _map_ear).
    One ear-local pass (homomorphism_failing_stage) checks every stage; the
    last is d, as the parts cover d exactly once (require_decomposition).
    """
    _require_asymmetrical(d, "oriented coloring")
    require_decomposition(d, e, 3, "oriented coloring")
    t = tournament_T()
    assignment = {e.base[0]: 0}
    for part in (e.base,) + e.ears:
        _map_ear(t, assignment, part)
    mapping = VertexMapping(assignment, t, "oriented")
    failed = homomorphism_failing_stage(e, mapping)
    if failed is not None:
        raise VerificationError(f"homomorphism fails on stage {failed}")
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
                    arcs.update(((u, nxt), (nxt, v)))
                    nxt += 1
        d = Digraph(range(nxt), arcs)
    return d
