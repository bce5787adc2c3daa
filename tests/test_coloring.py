import pytest
from hypothesis import given, settings, strategies as st

from earlab.coloring import (VertexMapping, dichromatic_bounds,
                             proper_3_coloring,
                             verify_homomorphism, verify_proper)
from earlab.digraph import Digraph
from earlab.ears import EarDecomposition, generate_random_le
from earlab.errors import InvalidInputError, VerificationError
from earlab.oracles import chromatic_oracles
from earlab.tournaments import Tournament


def bare_cycle(n):
    d = Digraph.cycle(n)
    return d, EarDecomposition(tuple(range(n)) + (0,), [])


def test_even_cycle_uses_two_colors():
    d, e = bare_cycle(6)
    m = proper_3_coloring(d, e)
    assert m.colors_used() == 2
    assert [m.assignment[i] for i in range(6)] == [1, 2, 1, 2, 1, 2]


def test_odd_cycle_needs_the_third_color():
    d, e = bare_cycle(5)
    m = proper_3_coloring(d, e)
    assert m.colors_used() == 3
    assert m.assignment[4] == 3


def test_length_two_ear_takes_a_free_color():
    arcs = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 2)]
    d = Digraph(range(5), arcs)
    e = EarDecomposition((0, 1, 2, 3, 0), [(0, 4, 2)])
    m = proper_3_coloring(d, e)
    # both ear neighbours are colored 1, so the middle avoids only that
    assert m.assignment[4] != m.assignment[0]
    assert m.assignment[4] != m.assignment[2]


def test_length_three_ear():
    arcs = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 1)]
    d = Digraph(range(6), arcs)
    e = EarDecomposition((0, 1, 2, 3, 0), [(0, 4, 5, 1)])
    m = proper_3_coloring(d, e)
    assert m.assignment[4] not in (m.assignment[0], m.assignment[5])
    assert m.assignment[5] not in (m.assignment[4], m.assignment[1])


def test_long_ear_alternates_interior():
    arcs = [(0, 1), (1, 2), (2, 0)] + [(0, 3), (3, 4), (4, 5), (5, 6), (6, 1)]
    d = Digraph(range(7), arcs)
    e = EarDecomposition((0, 1, 2, 0), [(0, 3, 4, 5, 6, 1)])
    m = proper_3_coloring(d, e)
    assert m.colors_used() <= 3
    verify_proper(d, m)


def test_cycle_ear_coloring():
    arcs = [(0, 1), (1, 2), (2, 0), (1, 3), (3, 4), (4, 1)]
    d = Digraph(range(5), arcs)
    e = EarDecomposition((0, 1, 2, 0), [(1, 3, 4, 1)])
    m = proper_3_coloring(d, e)
    verify_proper(d, m)
    assert m.colors_used() <= 3


def test_verify_proper_flags_bad_assignment():
    d = Digraph.cycle(3)
    bad = VertexMapping({0: 1, 1: 1, 2: 2}, 3, "proper")
    with pytest.raises(VerificationError):
        verify_proper(d, bad)


@pytest.mark.parametrize("bad", [9, -1])
def test_verify_homomorphism_rejects_an_image_outside_the_target(bad):
    triangle = Tournament.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    m = VertexMapping({0: 0, 1: bad, 2: 2}, triangle, "homomorphism")
    with pytest.raises(VerificationError):
        verify_homomorphism(Digraph.cycle(3), m)


def test_mapping_kind_is_validated():
    with pytest.raises(InvalidInputError):
        VertexMapping({0: 1}, 3, "psychedelic")


def test_mapping_json():
    m = VertexMapping({0: 1, 1: 2}, 3, "proper")
    assert m.to_json() == {"assignment": {0: 1, 1: 2}, "target": 3,
                           "kind": "proper"}


def test_dichromatic_bounds_exact_on_small_instances():
    d, e = bare_cycle(5)
    b = dichromatic_bounds(d, e)
    assert (b.lower, b.upper) == (2, 3)
    assert b.exact == 2
    assert b.to_json() == {"lower": 2, "upper": 3, "exact": 2}


def test_dichromatic_bounds_skip_oracle_when_large():
    d, e = generate_random_le(base_length=6, ear_count=5, min_ear_length=3,
                              max_ear_length=5, seed=2)
    assert d.n > 12
    b = dichromatic_bounds(d, e)
    assert b.exact is None and (b.lower, b.upper) == (2, 3)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=3, max_value=7),
       st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=10_000))
def test_three_colors_always_suffice(base, ears, seed):
    d, e = generate_random_le(base_length=base, ear_count=ears,
                              min_ear_length=2, max_ear_length=5, seed=seed)
    m = proper_3_coloring(d, e)
    verify_proper(d, m)
    assert m.colors_used() <= 3
    if d.n <= 10:
        assert chromatic_oracles(d).value <= 3
