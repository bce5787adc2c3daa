import pytest
from hypothesis import given, settings, strategies as st

import earlab.constructions as constructions_mod
from earlab.constructions import (CertifiedSet, cycle_quasi_kernel_indices,
                                  longest_path_transversal,
                                  quasi_kernel_ear_indices, seymour_vertex,
                                  small_quasi_kernel)
from earlab.digraph import (Digraph, is_quasi_kernel, neighborhoods,
                            set_predicates)
from earlab.ears import (EarDecomposition, find_le_decomposition,
                         generate_random_le)
from earlab.errors import InvalidInputError, VerificationError
from earlab.oracles import longest_path_oracle, quasi_kernel_oracle


def arcs_of(p):
    return list(zip(p, p[1:]))


def decomposition(base_len, ears, extra_arcs=()):
    """Assemble a digraph and decomposition from explicit ear tuples."""
    base = tuple(range(base_len)) + (0,)
    arcs = [a for p in (base, *ears) for a in arcs_of(p)] + list(extra_arcs)
    d = Digraph(set(base).union(*ears), arcs)
    return d, EarDecomposition(base, ears)


def test_certified_set_sorts_members():
    s = CertifiedSet((3, 1, 2), "kernel")
    assert s.members == (1, 2, 3)
    assert s.to_json() == {"members": [1, 2, 3], "role": "kernel",
                           "verified": True}


def test_certified_set_rejects_unknown_role():
    with pytest.raises(InvalidInputError):
        CertifiedSet((0,), "miracle")


def test_seymour_on_bare_cycle():
    d, e = decomposition(5, [])
    v, report = seymour_vertex(d, e)
    assert v == 0
    assert report.second_out_degree >= report.out_degree


def test_seymour_picks_last_interior_vertex():
    d, e = decomposition(3, [(0, 3, 4, 1)])
    v, report = seymour_vertex(d, e)
    # the vertex one step before the last ear's exit has a single out-arc
    assert v == 4
    assert report.first_out == frozenset({1})
    assert report.second_out == frozenset({2})


def test_seymour_rejects_symmetric_digraphs():
    d, e = decomposition(2, [])
    with pytest.raises(InvalidInputError):
        seymour_vertex(d, e)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=3, max_value=7),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=10_000))
def test_seymour_report_is_exact(base, ears, seed):
    d, e = generate_random_le(base_length=base, ear_count=ears,
                              min_ear_length=2, max_ear_length=5, seed=seed)
    v, report = seymour_vertex(d, e)
    fresh = neighborhoods(d, v)
    assert fresh.first_out == report.first_out
    assert fresh.second_out == report.second_out
    assert report.second_out_degree >= report.out_degree


def test_transversal_on_bare_cycle():
    d, e = decomposition(5, [])
    s = longest_path_transversal(d, e)
    assert s.members == (0,)
    assert s.role == "transversal"


def test_transversal_endpoint_cases():
    # one ear with both endpoints outside the seed set picks x1
    d, e = decomposition(4, [(1, 4, 5, 3)])
    s = longest_path_transversal(d, e)
    assert 0 in s.members
    report = longest_path_oracle(d)
    members = set(s.members)
    for path in report.details["all_longest"]:
        assert members & set(path)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=3, max_value=6),
       st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=10_000))
def test_transversal_meets_every_longest_path(base, ears, seed):
    d, e = generate_random_le(base_length=base, ear_count=ears,
                              min_ear_length=2, max_ear_length=3, seed=seed)
    if d.n > 12:
        return
    s = longest_path_transversal(d, e)
    assert set_predicates(d, set(s.members)).independent
    for path in longest_path_oracle(d).details["all_longest"]:
        assert set(s.members) & set(path)


def le2_instance(seed, ears, max_ear_length):
    """Seeded LE_2 instance, every third one with cycle ears."""
    return generate_random_le(base_length=3 + seed % 4, ear_count=ears,
                              min_ear_length=2, max_ear_length=max_ear_length,
                              cycle_ear_probability=0.3 * (seed % 3 == 0),
                              seed=seed)


def test_transversal_check_agrees_with_the_oracle():
    # the ear-local check against its references: the oracle's longest
    # paths up to 12 vertices, and networkx's acyclicity of d - S above
    checked = 0
    for seed in range(240):
        d, e = le2_instance(seed, seed % 5, 3 + seed % 2)
        if d.n > 12:
            continue
        paths = longest_path_oracle(d).details["all_longest"]
        for dec in (e, find_le_decomposition(d, 2)):
            s = set(longest_path_transversal(d, dec).members)
            assert all(s & set(path) for path in paths)
            checked += 1
    assert checked > 400
    nx = pytest.importorskip("networkx")
    for seed in range(16):
        d, e = le2_instance(seed, 25 * (seed + 1), 2 + seed % 4)
        s = set(longest_path_transversal(d, e).members)
        rest = nx.DiGraph([(u, v) for u, v in d.arcs
                           if u not in s and v not in s])
        assert nx.is_directed_acyclic_graph(rest)
    assert d.n > 900  # the last and largest instance


def test_transversal_check_rejects_a_set_missing_a_part(monkeypatch):
    # the check is handed the built set; the mutants drop members from it
    # there, before the part check runs
    real = constructions_mod._transversal_members
    drop = set()

    def dropping(e):
        return real(e) - drop

    monkeypatch.setattr(constructions_mod, "_transversal_members", dropping)
    skipped_ears = 0
    for seed in range(20):
        d, e = le2_instance(seed, 10, 4)
        members = set(longest_path_transversal(d, e).members)
        drop = members & set(e.base.vertices)
        with pytest.raises(VerificationError, match="misses part 0$"):
            longest_path_transversal(d, e)
        for j, ear in enumerate(e.ears, 1):
            if ear.vertices[0] not in members and ear.vertices[-1] not in members:
                drop = members & set(ear.vertices)
                with pytest.raises(VerificationError, match=f"misses part {j}$"):
                    longest_path_transversal(d, e)
                skipped_ears += 1
        drop = set()
    assert skipped_ears > 20


def test_ear_indices_all_twelve_rows():
    # stride-3 progressions keyed by endpoint membership and r mod 3
    assert quasi_kernel_ear_indices(True, True, 6) == [3]
    assert quasi_kernel_ear_indices(True, True, 7) == [2, 4]
    assert quasi_kernel_ear_indices(True, True, 8) == [2, 5]
    assert quasi_kernel_ear_indices(False, True, 6) == [3]
    assert quasi_kernel_ear_indices(False, True, 7) == [1, 4]
    assert quasi_kernel_ear_indices(False, True, 8) == [2, 5]
    assert quasi_kernel_ear_indices(True, False, 6) == [2, 5]
    assert quasi_kernel_ear_indices(True, False, 7) == [3, 6]
    assert quasi_kernel_ear_indices(True, False, 8) == [2, 4, 7]
    assert quasi_kernel_ear_indices(False, False, 6) == [2, 5]
    assert quasi_kernel_ear_indices(False, False, 7) == [3, 6]
    assert quasi_kernel_ear_indices(False, False, 8) == [1, 4, 7]


def test_ear_indices_short_ears_can_be_empty():
    assert quasi_kernel_ear_indices(True, True, 3) == []
    assert quasi_kernel_ear_indices(True, True, 4) == [2]
    assert quasi_kernel_ear_indices(False, True, 3) == []
    assert quasi_kernel_ear_indices(True, False, 3) == [2]


@settings(max_examples=60, deadline=None)
@given(st.booleans(), st.booleans(), st.integers(min_value=3, max_value=14))
def test_ear_indices_are_internal_and_spread(x0_in, xr_in, r):
    picks = quasi_kernel_ear_indices(x0_in, xr_in, r)
    assert all(1 <= i <= r - 1 for i in picks)
    # independence along the ear, including against in-set endpoints
    assert all(b - a >= 2 for a, b in zip(picks, picks[1:]))
    if x0_in:
        assert all(i >= 2 for i in picks)
    if xr_in:
        assert all(i <= r - 2 for i in picks)
    # arcs run forward, so every interior vertex must see a picked vertex
    # (or an in-set exit endpoint) at most two steps ahead
    anchors = picks + ([r] if xr_in else [])
    assert anchors and anchors[0] <= 3
    assert all(b - a <= 3 for a, b in zip(anchors, anchors[1:]))
    assert anchors[-1] >= r - 1


@pytest.mark.parametrize("n", range(2, 13))
def test_cycle_quasi_kernel(n):
    picks = cycle_quasi_kernel_indices(n)
    d = Digraph.cycle(n)
    assert is_quasi_kernel(d, set(picks))
    assert 2 * len(picks) <= n


def test_small_quasi_kernel_fixture():
    d, e = decomposition(3, [(0, 3, 4, 5, 1)])
    q = small_quasi_kernel(d, e)
    assert set_predicates(d, set(q.members)).is_quasi_kernel
    assert 2 * len(q.members) <= d.n
    assert q.size_bound_met


def test_small_quasi_kernel_needs_length_three():
    d, e = decomposition(3, [(0, 3, 1)])
    with pytest.raises(InvalidInputError):
        small_quasi_kernel(d, e)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=3, max_value=6),
       st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=10_000))
def test_small_quasi_kernel_volume(base, ears, seed):
    d, e = generate_random_le(base_length=base, ear_count=ears,
                              min_ear_length=3, max_ear_length=6, seed=seed)
    q = small_quasi_kernel(d, e)
    assert set_predicates(d, set(q.members)).is_quasi_kernel
    assert 2 * len(q.members) <= d.n
    if d.n <= 14:
        every = quasi_kernel_oracle(d, enumerate_all=True)
        assert q.members in every.details["all_quasi_kernels"]

