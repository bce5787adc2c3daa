import hashlib
import random
from itertools import chain, combinations, groupby, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from earlab.coloring import VertexMapping, verify_homomorphism
from earlab.digraph import Digraph
from earlab.errors import InvalidInputError, VerificationError
from earlab.oriented import walk_survivors
from earlab.tournaments import (_CLASS_COUNTS, HomomorphismSearch, Tournament,
                                _pairs, arc_planes, canonical_code, find_homomorphism,
                                tournament_reps)


def cyclic_triangle():
    return Tournament.from_arcs(3, [(0, 1), (1, 2), (2, 0)])


def transitive_triangle():
    return Tournament.from_arcs(3, [(0, 1), (0, 2), (1, 2)])


def relabel(t, perm):
    """The image of t under the new-label -> old-label map perm."""
    code = 0
    for idx, (i, j) in enumerate(_pairs(t.k)):
        if t.has_arc(perm[i], perm[j]):
            code |= 1 << idx
    return Tournament(t.k, code)


def automorphism_count(t):
    return sum(1 for p in permutations(range(t.k)) if relabel(t, p) == t)


def test_arcs_cover_every_pair_once():
    t = cyclic_triangle()
    assert sorted(t.arcs) == [(0, 1), (1, 2), (2, 0)]
    for u in range(3):
        for v in range(3):
            if u != v:
                assert t.has_arc(u, v) != t.has_arc(v, u)


def test_from_arcs_rejects_incomplete():
    with pytest.raises(InvalidInputError):
        Tournament.from_arcs(3, [(0, 1), (1, 2)])


def test_out_degrees():
    assert cyclic_triangle().out_degrees() == (1, 1, 1)
    assert transitive_triangle().out_degrees() == (2, 1, 0)


def test_relabel_keeps_canonical_code():
    t = transitive_triangle()
    rot = relabel(t, (2, 0, 1))
    assert canonical_code(3, rot.code) == canonical_code(3, t.code)


def test_rep_counts_match_known_sequence():
    # numbers of tournaments up to isomorphism by order, as the oriented
    # oracle counts the orders it rules out
    assert _CLASS_COUNTS == (1, 1, 2, 4, 12, 56, 456)
    assert tuple(len(tournament_reps(k)) for k in range(1, 8)) == _CLASS_COUNTS


def test_reps_are_canonical_and_distinct():
    for k in (3, 4, 5, 6):
        reps = tournament_reps(k)
        codes = {t.code for t in reps}
        assert len(codes) == len(reps)
        for t in reps:
            assert canonical_code(k, t.code) == t.code
            assert reference_canonical_code(k, t.code) == t.code


@pytest.mark.parametrize("k, digest", [
    (6, "f16d86482915588e28cf503ce5592e29c9ddd2297b0b3e0a425bc56fbc09a8fd"),
    (7, "2d401497f53dc6237349d2090fcc78048ba0070dfbe3c33b7394e3792497014d")])
def test_rep_codes_are_pinned(k, digest):
    # the representatives' codes, in order: any change to the canonical
    # form or the augmentation must keep every one
    codes = ",".join(str(t.code) for t in tournament_reps(k))
    assert hashlib.sha256(codes.encode()).hexdigest() == digest


def reference_arc_planes(k):
    """arc_planes by one big-int division per pair: full // (2 ** 2 ** idx
    + 1) sets the low half of every run of 2 ** (idx + 1) codes."""
    full = (1 << (1 << len(_pairs(k)))) - 1
    planes = [[0] * k for _ in range(k)]
    for idx, (i, j) in enumerate(_pairs(k)):
        plane = full ^ full // ((1 << (1 << idx)) + 1)
        planes[i][j] = plane
        planes[j][i] = full ^ plane
    return planes


@pytest.mark.parametrize("k", range(7))
def test_arc_planes_match_division_reference(k):
    assert arc_planes(k) == reference_arc_planes(k)


def test_homomorphism_c3_into_cyclic_triangle():
    phi = find_homomorphism(Digraph.cycle(3), cyclic_triangle())
    assert phi is not None
    verify_homomorphism(Digraph.cycle(3),
                        VertexMapping(phi, cyclic_triangle(), "homomorphism"))


def test_no_homomorphism_c4_into_any_triangle():
    # a closed walk of length 4 exists in neither 3-tournament
    for t in (cyclic_triangle(), transitive_triangle()):
        assert find_homomorphism(Digraph.cycle(4), t) is None


def test_is_homomorphism_rejects_broken_assignment():
    d = Digraph.cycle(3)
    phi = VertexMapping({0: 0, 1: 1, 2: 1}, cyclic_triangle(), "homomorphism")
    with pytest.raises(VerificationError, match=r"arc \(1,2\) maps to non-arc"):
        verify_homomorphism(d, phi)


def test_automorphism_counts():
    assert automorphism_count(cyclic_triangle()) == 3
    assert automorphism_count(transitive_triangle()) == 1


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10_000))
def test_canonical_code_is_relabel_invariant(k, seed):
    rng = random.Random(seed)
    codes = [rng.getrandbits(k * (k - 1) // 2)]
    if k == 6:
        codes.append(rng.choice(walk_survivors()[0]))
    for code in codes:
        perm = list(range(k))
        rng.shuffle(perm)
        relabeled = relabel(Tournament(k, code), perm).code
        assert canonical_code(k, relabeled) == canonical_code(k, code)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=3, max_value=6), st.integers(min_value=0, max_value=10_000))
def test_found_homomorphisms_verify(k, seed):
    rng = random.Random(seed)
    code = rng.getrandbits(k * (k - 1) // 2)
    t = Tournament(k, code)
    d = Digraph.cycle(rng.randrange(3, 8))
    phi = find_homomorphism(d, t)
    if phi is not None:
        verify_homomorphism(d, VertexMapping(phi, t, "homomorphism"))


# Differential checks of the minimal-branch canonical form against the
# definition enumerated outright: every relabeling that keeps scores sorted.

def reference_canonical_code(k, code):
    t = Tournament(k, code)
    degs = t.out_degrees()
    order = sorted(range(k), key=lambda v: (degs[v], v))
    blocks = [list(group) for _, group in groupby(order, key=lambda v: degs[v])]
    return min(relabel(t, tuple(chain.from_iterable(perms))).code
               for perms in product(*(permutations(b) for b in blocks)))


def test_canonical_code_matches_reference_on_every_small_code():
    for k in range(6):
        for code in range(1 << k * (k - 1) // 2):
            assert canonical_code(k, code) == reference_canonical_code(k, code), (k, code)


def test_canonical_code_matches_reference_on_seeded_codes():
    rng = random.Random(7)
    for k, count in ((6, 300), (7, 100)):
        for _ in range(count):
            code = rng.getrandbits(k * (k - 1) // 2)
            assert canonical_code(k, code) == reference_canonical_code(k, code), (k, code)


def test_canonical_code_matches_reference_on_census_survivors():
    for code in walk_survivors()[0]:
        assert canonical_code(6, code) == reference_canonical_code(6, code), code


def test_canonical_code_of_the_smallest_orders():
    assert canonical_code(0, 0) == 0
    assert canonical_code(1, 0) == 0
    with pytest.raises(InvalidInputError):
        canonical_code(3, 8)


# Differential checks against networkx's isomorphism test.

def as_networkx(nx, t):
    g = nx.DiGraph()
    g.add_nodes_from(range(t.k))
    g.add_edges_from(t.arcs)
    return g


def test_reps_are_pairwise_non_isomorphic_under_networkx():
    nx = pytest.importorskip("networkx")
    for k in range(1, 7):
        graphs = [as_networkx(nx, t) for t in tournament_reps(k)]
        for a, b in combinations(graphs, 2):
            assert not nx.is_isomorphic(a, b)


def test_canonical_form_is_isomorphic_under_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(3)
    for k in range(1, 8):
        for _ in range(10):
            code = rng.getrandbits(k * (k - 1) // 2)
            assert nx.is_isomorphic(
                as_networkx(nx, Tournament(k, code)),
                as_networkx(nx, Tournament(k, canonical_code(k, code))))


def test_is_homomorphism_rejects_an_image_outside_the_tournament():
    d = Digraph.cycle(3)
    for bad in (9, -1):
        phi = VertexMapping({0: 0, 1: bad, 2: 2}, cyclic_triangle(), "homomorphism")
        with pytest.raises(VerificationError, match=f"non-arc \\(0,{bad}\\)"):
            verify_homomorphism(d, phi)


# Differential checks of the forward-checking search against the search it
# replaced, kept verbatim: the same witness, in the same key order, or None.

class ReferenceHomomorphismSearch:
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


def assert_searches_agree(digraphs, targets):
    for d in digraphs:
        search, reference = HomomorphismSearch(d), ReferenceHomomorphismSearch(d)
        for t in targets:
            found, expected = search.into(t), reference.into(t)
            # compared as item lists: the key order is part of the payload
            assert (found is None) == (expected is None), (sorted(d.arcs), t)
            if found is not None:
                assert list(found.items()) == list(expected.items()), (sorted(d.arcs), t)


def test_search_matches_reference_on_every_digraph_up_to_four_vertices():
    # every arc set on 0-4 vertices, digons included
    digraphs = []
    for n in range(5):
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for mask in range(1 << len(arcs)):
            digraphs.append(Digraph(range(n), [a for b, a in enumerate(arcs)
                                                if mask >> b & 1]))
    targets = [t for k in range(1, 5) for t in tournament_reps(k)]
    assert_searches_agree(digraphs, targets)


def test_search_matches_reference_on_seeded_asymmetric_digraphs():
    rng = random.Random(11)
    digraphs = []
    for _ in range(60):
        n = rng.randint(3, 12)
        p = rng.uniform(0.1, 0.5)
        arcs = [(u, v) if rng.random() < 0.5 else (v, u)
                for u, v in combinations(range(n), 2) if rng.random() < p]
        digraphs.append(Digraph(range(n), arcs))
    targets = [t for k in range(1, 8) for t in tournament_reps(k)]
    assert_searches_agree(digraphs, targets)
