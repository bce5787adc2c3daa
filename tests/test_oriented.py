from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from earlab.coloring import VertexMapping, verify_homomorphism
from earlab.digraph import Digraph, is_strong
from earlab.ears import EarDecomposition, generate_random_le
from earlab.errors import (CapExceededError, InvalidInputError,
                           PropertyFailedError)
from earlab.oracles import oriented_chromatic_oracle
from earlab.oriented import (REFERENCE_WALKS, WALK_LENGTHS, _catalog_for, build_G,
                             extend_homomorphism, missing_walk_witness,
                             oriented_coloring_le3, tournament_T,
                             uniqueness_census, validate_reference_walks,
                             verify_walk_property, walk_catalog, walk_survivors)
from earlab.tournaments import (Tournament, canonical_code, compose_rows,
                                tournament_reps)


def tournament_arcs(t):
    """The arc set of t, read off has_arc."""
    return frozenset((u, v) for u in range(t.k) for v in range(t.k)
                     if t.has_arc(u, v))


def automorphism_count(t: Tournament) -> int:
    """Permutations of t's vertices that map its arc set onto itself."""
    arcs = tournament_arcs(t)
    return sum(1 for p in permutations(range(t.k))
               if Tournament.from_arcs(t.k, [(p[u], p[v]) for u, v in arcs]) == t)


def cycle_homomorphism(n: int) -> VertexMapping:
    """The oriented coloring of the directed n-cycle, decomposed as the one
    base cycle (0, 1, ..., n - 1, 0)."""
    return oriented_coloring_le3(Digraph.cycle(n), EarDecomposition((*range(n), 0)))


def short_paths_join_previous_generation(i: int) -> bool:
    """Every ordered pair of G_{i-1}'s vertices is joined in G_i by a path of
    length at most 2, which forces all their colors apart."""
    g, prev_n = build_G(i), build_G(i - 1).n
    return all(g.has_arc(u, v) or any(g.has_arc(w, v) for w in g.out_neighbors(u))
               for u in range(prev_n) for v in range(prev_n) if u != v)


def tight_le3_instance() -> tuple[Digraph, EarDecomposition]:
    """The triangle 0 -> 1 -> 2 -> 0 plus four length-3 ears, each glued
    parallel to the middle arc of the one before it (the first parallels
    the base arc 0 -> 1): an LE_3 digraph of oriented chromatic number 6."""
    ears = ((0, 3, 4, 1), (3, 5, 6, 4), (5, 7, 8, 6), (7, 9, 10, 8))
    parts = ((0, 1, 2, 0),) + ears
    host = Digraph(range(11), [a for p in parts for a in zip(p, p[1:])])
    return host, EarDecomposition(parts[0], ears)


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


@pytest.fixture(scope="module")
def census():
    return uniqueness_census()


def test_pinned_tournament_shape():
    t = tournament_T()
    assert t.k == 6
    assert t.code_string() == "101001001010101"
    assert t.out_degrees() == (2, 2, 2, 3, 3, 3)
    assert is_strong(Digraph(range(t.k), tournament_arcs(t)))
    assert automorphism_count(t) == 3


def test_reference_walks_cover_every_pair():
    assert sorted(REFERENCE_WALKS) == [(i, j) for i in range(6)
                                       for j in range(6) if i != j]
    assert all(len(w) == 3 for w in REFERENCE_WALKS.values())
    assert validate_reference_walks()


def test_walk_property_holds_for_t():
    t = tournament_T()
    assert verify_walk_property(t)
    assert _walk_gap(t.out_masks(), include_closed=True) is None
    assert missing_walk_witness(t) is None


def test_walk_property_fails_for_transitive_tournament():
    arcs = [(i, j) for i in range(6) for j in range(6) if i < j]
    t = Tournament.from_arcs(6, arcs)
    assert not verify_walk_property(t)
    length, i, j = missing_walk_witness(t)
    assert length in (3, 4, 5)


def test_walk_property_needs_order_six():
    with pytest.raises(InvalidInputError):
        verify_walk_property(Tournament.from_arcs(3, [(0, 1), (1, 2), (2, 0)]))


def test_census_finds_a_single_class(census):
    assert census["labeled_count"] == 240
    assert census["iso_class_count"] == 1
    assert census["witness_isomorphic_to_reference"]
    assert census["closed_reading"]["agrees"]
    assert census["closed_reading"]["labeled_count"] == 240
    witness = Tournament(6, int(census["witness"][::-1], 2))
    assert witness.code == canonical_code(6, tournament_T().code)


def test_bit_sliced_scan_matches_the_per_code_scan():
    # the walk-gap function run on one code at a time, both readings; it
    # builds lengths 3, 4 and 5, the scan A^3 only, so this checks the
    # lemma of walk_survivors on every order-6 code
    open_codes, closed_codes = [], []
    for code in range(1 << 15):
        rows = Tournament(6, code).out_masks()
        if _walk_gap(rows) is None:
            open_codes.append(code)
            if _walk_gap(rows, include_closed=True) is None:
                closed_codes.append(code)
    assert walk_survivors() == (open_codes, closed_codes)


def test_census_witness_is_isomorphic_to_t_under_networkx(census):
    nx = pytest.importorskip("networkx")
    witness = Tournament(6, int(census["witness"][::-1], 2))
    assert nx.is_isomorphic(nx.DiGraph(list(tournament_arcs(witness))),
                            nx.DiGraph(list(tournament_arcs(tournament_T()))))


def test_census_count_matches_orbit_size(census):
    # 720 labelings divided by the 3 automorphisms
    assert census["labeled_count"] * automorphism_count(tournament_T()) == 720


def test_census_json(census):
    assert census["iso_class_count"] == 1
    assert census["closed_reading"]["agrees"] is True


def test_catalog_anchored_cycles():
    # closed entries are the anchored cycles; lengths stop at 5
    cat = walk_catalog(tournament_T())
    assert cat[(0, 0, 3)] == (0, 1, 2, 0)
    assert cat[(0, 0, 4)] == (0, 1, 2, 4, 0)
    assert cat[(0, 0, 5)] == (0, 1, 2, 4, 5, 0)
    assert (0, 0, 6) not in cat


def test_catalog_pair_walks():
    cat = walk_catalog(tournament_T())
    assert cat[(0, 1, 3)] == (0, 3, 4, 1)
    assert cat[(5, 4, 5)] == (5, 0, 1, 5, 2, 4)


def test_catalog_is_complete_and_valid():
    t = tournament_T()
    cat = walk_catalog(t)
    assert isinstance(cat, dict) and len(cat) == 108
    assert sorted(cat) == [(i, j, k) for i in range(6) for j in range(6)
                           for k in (3, 4, 5)]
    for (i, j, k), walk in cat.items():
        assert walk[0] == i and walk[-1] == j and len(walk) == k + 1
        assert all(t.has_arc(a, b) for a, b in zip(walk, walk[1:]))
        if i == j:
            assert len(set(walk[:-1])) == k


def test_reference_walks_are_admissible_but_not_forced():
    # the catalog may legally pick smaller walks than the frozen fixtures
    t = tournament_T()
    cat = walk_catalog(t)
    agreements = sum(
        cat[(i, j, 3 + pos)] == walk
        for (i, j), walks in REFERENCE_WALKS.items()
        for pos, walk in enumerate(walks))
    assert agreements >= 45
    for (i, j, k), walk in cat.items():
        if i != j:
            assert walk <= REFERENCE_WALKS[(i, j)][k - 3]


def lex_min_cycle(t, anchor, k):
    # reference: smallest simple k-cycle through anchor, by DFS in label order
    def search(path):
        if len(path) == k:
            return path + (anchor,) if t.has_arc(path[-1], anchor) else None
        for v in range(t.k):
            if v != anchor and v not in path and t.has_arc(path[-1], v):
                found = search(path + (v,))
                if found:
                    return found
        return None

    return search((anchor,))


def test_closed_entries_are_the_smallest_cycles_on_every_class():
    # the closed-walk lemma of walk_catalog, on every tournament class of
    # orders 3-7: each closed entry is the DFS-found smallest simple cycle,
    # and an entry is absent exactly when no such cycle exists
    compared = 0
    for order in range(3, 8):
        for t in tournament_reps(order):
            cat = walk_catalog(t)
            for anchor in range(order):
                for k in (3, 4, 5):
                    closed = cat.get((anchor, anchor, k))
                    assert closed == lex_min_cycle(t, anchor, k)
                    assert closed is None or len(set(closed[:-1])) == k
                    compared += 1
    assert compared == 10_830


def test_catalog_gaps_match_the_adjacency_powers_on_every_class():
    # missing_walk_witness and _catalog_for read walk_catalog; _walk_gap
    # finds the first gap by adjacency powers instead.  Orders 1-7, both
    # readings: at order 1 the open one needs no entry, the closed one lacks
    # (3, 0, 0)
    classes = 0
    for order in range(1, 8):
        for t in tournament_reps(order):
            rows = t.out_masks()
            assert missing_walk_witness(t) == _walk_gap(rows)
            gap = _walk_gap(rows, include_closed=True)
            if gap is None:
                assert _catalog_for(t.code, t.k) == walk_catalog(t)
            else:
                with pytest.raises(PropertyFailedError) as caught:
                    _catalog_for(t.code, t.k)
                assert str(caught.value) == (
                    "catalog incomplete: no length-%d walk %d to %d" % gap)
            classes += 1
    assert classes == 532


@pytest.mark.parametrize("n", list(range(3, 21)))
def test_cycle_homomorphism_verifies(n):
    m = cycle_homomorphism(n)
    verify_homomorphism(Digraph.cycle(n), m)


def test_cycle_homomorphism_seven_fixture():
    m = cycle_homomorphism(7)
    assert [m.assignment[i] for i in range(7)] == [0, 1, 2, 0, 1, 2, 4]


def reference_cycle_images(n):
    # the closed formula the cycle-ear wrap replaced: the 3-cycle (0, 1, 2)
    # wrapped, finished through 4, or 4 then 5
    if n % 3 == 0:
        return [i % 3 for i in range(n)]
    if n % 3 == 1:
        return [i % 3 for i in range(n - 1)] + [4]
    return [i % 3 for i in range(n - 2)] + [4, 5]


def test_cycle_homomorphism_matches_the_closed_formula():
    assert list(cycle_homomorphism(6).assignment.values()) == [0, 1, 2, 0, 1, 2]
    for n in range(3, 101):
        m = cycle_homomorphism(n)
        assert list(m.assignment.items()) == list(enumerate(reference_cycle_images(n))), n


def test_cycle_homomorphism_rejects_short():
    with pytest.raises(InvalidInputError):
        cycle_homomorphism(2)


def glued_onto(n, p):
    """C_n with the ear p glued on, and that decomposition."""
    d = Digraph.cycle(n).union(p, zip(p, p[1:]))
    return d, EarDecomposition((*range(n), 0), [p])


def test_extend_homomorphism_path_ear():
    phi = VertexMapping({0: 0, 1: 1, 2: 2}, tournament_T(), "homomorphism")
    d, e = glued_onto(3, (0, 3, 4, 1))
    out = extend_homomorphism(d, e, phi)
    verify_homomorphism(d, out)
    assert out.assignment[0] == 0 and out.assignment[1] == 1


def test_extend_homomorphism_cycle_ear_rides_anchored_cycle():
    phi = VertexMapping({0: 0, 1: 1, 2: 2}, tournament_T(), "homomorphism")
    d, e = glued_onto(3, (0, 3, 4, 5, 0))
    out = extend_homomorphism(d, e, phi)
    # interior follows the anchored 4-cycle at image 0
    assert [out.assignment[v] for v in (3, 4, 5)] == [1, 2, 4]
    verify_homomorphism(d, out)


@pytest.mark.parametrize("ear, message", [
    ((2, 0, 1, 3), "internal vertices must be new"),
    ((0, 4, 1, 2), "internal vertices must be new"),
    ((0, 5, 6, 9), "endpoints must lie in the stage"),
    ((9, 5, 6, 0), "endpoints must lie in the stage"),
])
def test_extend_homomorphism_rejects_ears_that_do_not_fit(ear, message):
    # an interior meeting the stage would re-map a stage vertex, and an
    # endpoint outside it has no image to start or end from
    phi = cycle_homomorphism(4)
    with pytest.raises(InvalidInputError,
                       match=f"invalid decomposition: stage 0: ear {message}"):
        extend_homomorphism(*glued_onto(4, ear), phi)


def test_extend_homomorphism_needs_a_complete_catalog():
    # the directed triangle has no length-3 walk from 0 to 1
    t = Tournament.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    phi = VertexMapping({0: 0, 1: 1, 2: 2}, t, "homomorphism")
    assert (0, 1, 3) not in walk_catalog(t)
    with pytest.raises(PropertyFailedError, match="no length-3 walk 0 to 1"):
        extend_homomorphism(*glued_onto(3, (0, 3, 4, 1)), phi)


def test_extend_homomorphism_rejects_short_ears():
    phi = VertexMapping({0: 0, 1: 1, 2: 2}, tournament_T(), "homomorphism")
    with pytest.raises(InvalidInputError, match="last ear of length >= 3"):
        extend_homomorphism(*glued_onto(3, (0, 3, 1)), phi)
    with pytest.raises(InvalidInputError, match="last ear of length >= 3"):
        extend_homomorphism(Digraph.cycle(3),
                            EarDecomposition((0, 1, 2, 0)), phi)


@pytest.mark.parametrize("assignment, message", [
    ({0: 0, 1: 1, 2: 0}, "mapping fails on stage 0"),
    ({0: 0, 1: 1}, "does not take the stage's vertices"),
    ({0: 0, 1: 1, 2: 2, 3: 1}, "does not take the stage's vertices"),
    ({0: 0, 1: 1, 2: 6}, "into the target's"),
    ({0: 0, 1: 1, 2: -1}, "into the target's"),
], ids=["non-arc", "uncovered", "interior", "past-target", "negative"])
def test_extend_homomorphism_refuses_a_mapping_of_no_stage(assignment, message):
    # a caller's mapping, not a built certificate: PropertyFailedError itself
    phi = VertexMapping(assignment, tournament_T(), "homomorphism")
    with pytest.raises(PropertyFailedError, match=message) as info:
        extend_homomorphism(*glued_onto(3, (0, 3, 4, 1)), phi)
    assert type(info.value) is PropertyFailedError


def test_oriented_coloring_small_fixture():
    arcs = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 1)]
    d = Digraph(range(5), arcs)
    e = EarDecomposition((0, 1, 2, 0), [(0, 3, 4, 1)])
    m = oriented_coloring_le3(d, e)
    verify_homomorphism(d, m)
    assert m.kind == "oriented"
    assert m.colors_used() <= 6


def test_oriented_coloring_rejects_short_ears():
    arcs = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 1)]
    d = Digraph(range(4), arcs)
    e = EarDecomposition((0, 1, 2, 0), [(0, 3, 1)])
    with pytest.raises(InvalidInputError):
        oriented_coloring_le3(d, e)


def test_oriented_coloring_rejects_symmetric_digraphs():
    d = Digraph.cycle(2)
    e = EarDecomposition((0, 1, 0), [])
    with pytest.raises(InvalidInputError):
        oriented_coloring_le3(d, e)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=3, max_value=7),
       st.integers(min_value=0, max_value=4),
       st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=0, max_value=10_000))
def test_oriented_coloring_volume(base, ears, cycle_prob, seed):
    d, e = generate_random_le(base_length=base, ear_count=ears,
                              min_ear_length=3, max_ear_length=7,
                              cycle_ear_probability=cycle_prob, seed=seed)
    m = oriented_coloring_le3(d, e)
    verify_homomorphism(d, m)
    assert set(m.assignment) == set(d.vertices)


def test_blowup_family_sizes():
    g1, g2, g3 = build_G(1), build_G(2), build_G(3)
    assert (g1.n, len(g1.arcs)) == (3, 3)
    assert (g2.n, len(g2.arcs)) == (9, 15)
    assert (g3.n, len(g3.arcs)) == (81, 159)
    for g in (g1, g2, g3):
        assert len(g.arcs) == 2 * g.n - 3


def test_blowup_prefix_is_previous_generation():
    g2, g3 = build_G(2), build_G(3)
    prefix = {(u, v) for (u, v) in g3.arcs if u < 9 and v < 9}
    assert prefix == set(g2.arcs)


def test_blowup_cap():
    with pytest.raises(CapExceededError):
        build_G(5)
    with pytest.raises(InvalidInputError):
        build_G(0)


def test_lower_bound_check():
    assert short_paths_join_previous_generation(2)
    assert short_paths_join_previous_generation(3)
    with pytest.raises(InvalidInputError):
        short_paths_join_previous_generation(1)


def test_tight_instance_is_the_chained_triangle():
    host, decomp = tight_le3_instance()
    assert host == tight_le3_instance()[0]
    assert decomp.to_json() == {
        "base": [0, 1, 2],
        "ears": [[0, 3, 4, 1], [3, 5, 6, 4], [5, 7, 8, 6], [7, 9, 10, 8]]}
    assert oriented_chromatic_oracle(host, k_max=5).search_space_size == 20
    assert oriented_coloring_le3(host, decomp).colors_used() == 6


def test_tight_instance_shape():
    host, decomp = tight_le3_instance()
    assert host.n == 11
    assert len(decomp.ears) == 4
    assert all(len(ear.vertices) - 1 == 3 for ear in decomp.ears)
    below = oriented_chromatic_oracle(host, k_max=5)
    assert below.value is None
    assert below.details == {"exceeds": 5}
    verify_homomorphism(host, oriented_coloring_le3(host, decomp))
