import random
from itertools import chain, combinations, groupby, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from earlab.digraph import Digraph
from earlab.errors import InvalidInputError
from earlab.oriented import walk_survivors
from earlab.tournaments import (Tournament, automorphism_count, canonical_code,
                                find_homomorphism, is_homomorphism,
                                tournament_reps)


def cyclic_triangle():
    return Tournament.from_arcs(3, [(0, 1), (1, 2), (2, 0)])


def transitive_triangle():
    return Tournament.from_arcs(3, [(0, 1), (0, 2), (1, 2)])


def test_code_string_roundtrip():
    t = cyclic_triangle()
    assert Tournament.from_code_string(t.code_string()) == t


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
    rot = t.relabel((2, 0, 1))
    assert canonical_code(3, rot.code) == canonical_code(3, t.code)


def test_to_digraph():
    d = cyclic_triangle().to_digraph()
    assert d == Digraph.cycle(3)


def test_rep_counts_match_known_sequence():
    # numbers of tournaments up to isomorphism by order
    assert [len(tournament_reps(k)) for k in range(1, 8)] == [1, 1, 2, 4, 12, 56, 456]


def test_reps_are_canonical_and_distinct():
    for k in (3, 4, 5):
        reps = tournament_reps(k)
        codes = {t.code for t in reps}
        assert len(codes) == len(reps)
        for t in reps:
            assert canonical_code(k, t.code) == t.code


def test_homomorphism_c3_into_cyclic_triangle():
    phi = find_homomorphism(Digraph.cycle(3), cyclic_triangle())
    assert phi is not None
    assert is_homomorphism(Digraph.cycle(3), phi, cyclic_triangle())


def test_no_homomorphism_c4_into_any_triangle():
    # a closed walk of length 4 exists in neither 3-tournament
    for t in (cyclic_triangle(), transitive_triangle()):
        assert find_homomorphism(Digraph.cycle(4), t) is None


def test_is_homomorphism_rejects_broken_assignment():
    d = Digraph.cycle(3)
    assert not is_homomorphism(d, {0: 0, 1: 1, 2: 1}, cyclic_triangle())


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
        relabeled = Tournament(k, code).relabel(tuple(perm)).code
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
        assert is_homomorphism(d, phi, t)


# Differential checks of the branch-and-bound canonical form against the
# definition enumerated outright: every relabeling that keeps scores sorted.

def reference_canonical_code(k, code):
    t = Tournament(k, code)
    degs = t.out_degrees()
    order = sorted(range(k), key=lambda v: (degs[v], v))
    blocks = [list(group) for _, group in groupby(order, key=lambda v: degs[v])]
    return min(t.relabel(tuple(chain.from_iterable(perms))).code
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
